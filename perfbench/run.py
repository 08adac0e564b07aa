"""The fbr benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

With --trace 0 the passes run untraced, with batches of set-ups between
them, and the end-to-end metrics of BENCHMARK.json are reported.  With
--trace 1 untraced and traced passes alternate and the per-layer metrics
are reported.  --record rewrites the workload's entry in reference.json
from one untraced pass.

Each metric is printed on its own line with its unit; the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
Details (environment, set-up times, every pass, the spans of traced
passes) go to .bench_out/<workload>-seed<N>-trace<T>.json.  The program
is imported from src/ and run from there; without src/fbr the run exits
with code 2.
A run whose outputs fail a check exits with code 1, after its result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-session", "verify-all")
# set-ups timed before each pass and after the last one; the host's speed
# drifts over tens of seconds, so spreading them over the run steadies the
# median
SETUP_BATCH = 5
# stop starting work after this long, so that a run ends well within 180 s
TIME_LIMIT_S = 150.0
MUL_PROBE_PAIRS = 2000
MUL_PROBE_BATCHES = 7
clock = time.perf_counter


def percentile(values, q):
    """Linear-interpolated percentile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def _source_digest():
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "schemas").glob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, args):
        import gate
        import workloads
        self.gate = gate
        self.wl = workloads
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.record = args.record
        self.started = clock()
        self.reference = gate.load_reference()
        self.ref = self.reference.get(self.workload, {})
        self.recorded = {}
        self.attempted = 0
        self.failures = []
        self.passes = []
        self.setups = []
        self.peak_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("FBR_CACHE_DIR", None)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.schemas = gate.Schemas(ROOT / "schemas")
        pairs = (workloads.multiply_pairs(self.seed, self._ranks())
                 if self.workload == "cli-session" else {})
        self.calls = workloads.cli_calls(self.workload, self.seed, pairs)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def time_left(self):
        return TIME_LIMIT_S - (clock() - self.started)

    def fail(self, what):
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    # -- set-up ------------------------------------------------------------------

    def set_up(self, reps):
        """Time fresh processes from their start until their inputs are ready."""
        for _ in range(reps):
            self.attempted += 1
            t0 = clock()
            with subprocess.Popen(
                    [sys.executable, str(HERE / "setup_child.py"),
                     self.workload, str(self.scratch)],
                    cwd=ROOT, env=self.env, stdout=subprocess.PIPE) as proc:
                line = proc.stdout.readline()
                self.setups.append(clock() - t0)
                proc.stdout.read()
                proc.wait()
            if line != b"ready\n" or proc.returncode != 0:
                self.fail(f"set-up exited with {proc.returncode}")

    def _compare(self, key, got):
        if self.record:
            self.recorded[key] = got
        elif self.ref.get(key) != got:
            self.fail(f"{key}: result differs from reference")

    # -- passes -----------------------------------------------------------------

    def _ranks(self):
        rings = self.reference.get("cli-session", {}).get("rings")
        if rings is None or self.record:
            rings = self._record_rings()
        return {label: ring["rank"] for label, ring in rings.items()}

    def _record_rings(self):
        """Structure constants of the CLI rings, for checking products."""
        import fbr
        rings = {}
        for group, fiber, _, _ in self.wl.CLI_RINGS:
            r = fbr.build_ring(group, fiber)
            sc = {f"{i},{j}": [list(t) for t in r.structure_constants(i, j)]
                  for i in range(r.rank) for j in range(i, r.rank)}
            rings[self.wl.ring_label(group, fiber)] = {"rank": r.rank, "sc": sc}
        self.recorded["rings"] = rings
        return rings

    def run_pass(self, traced):
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        jobs, outputs, summaries = [], [], []
        t_pass = clock()
        for n, (label, kind, argv) in enumerate(self.calls):
            if self.workload == "cli-session":
                argv = [*argv, "--cache-dir", str(cache_dir)]
            report = self.scratch / f"call-{n}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(report),
                   "1" if traced else "0", *argv]
            env = dict(self.env, PERFBENCH_SPAWN=repr(clock()))
            t0 = clock()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                      timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                proc = None
            jobs.append({"label": label, "kind": kind, "seconds": clock() - t0})
            if proc is None:
                break
            outputs.append((proc.returncode, proc.stdout))
        seconds = clock() - t_pass
        for n, (label, _, _) in enumerate(self.calls[:len(outputs)]):
            report = self.scratch / f"call-{n}.json"
            if report.exists():  # absent when the call died before writing it
                summary = json.loads(report.read_text())
                report.unlink()
                self.peak_rss_kb = max(self.peak_rss_kb, summary["peak_rss_kb"])
                if traced:
                    summaries.append({**summary, "call": label})
        entry_bytes = sum(p.stat().st_size for p in cache_dir.iterdir())
        shutil.rmtree(cache_dir)
        self.attempted += len(self.calls)
        for (label, kind, argv), (code, stdout) in zip(self.calls, outputs):
            if code != 0:
                self.fail(f"{label}: exit code {code}")
            else:
                self._check_call(label, kind, argv, stdout)
        for label, _, _ in self.calls[len(outputs):]:
            self.fail(f"{label}: timed out or not run")
        summary = _merge(summaries) if traced else None
        if summary is not None:
            summary["counts"]["cache.entry_bytes"] = entry_bytes
        self.passes.append({"traced": traced, "seconds": seconds, "jobs": jobs,
                            "summary": summary, "outputs": [out for _, out in outputs]})

    def _check_call(self, label, kind, argv, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            self.fail(f"{label}: no JSON document on stdout")
            return
        verb = argv[0]
        problem = self.schemas.error(verb, doc)
        if problem is None and kind == "multiply":
            ring = self.reference.get("cli-session", {}).get("rings", {})
            ring = self.recorded.get("rings", ring)[label.split()[0]]
            problem = self.gate.check_product(doc, int(argv[-2]), int(argv[-1]),
                                              ring["sc"])
        if problem is None and verb == "verify-all":
            if doc.get("seed") != self.seed or doc.get("passed") is not True:
                problem = "report did not pass with the given seed"
        if problem is not None:
            self.fail(f"{label}: {problem}")
            return
        if kind == "multiply":
            return
        if verb == "verify-all":
            doc = {k: v for k, v in doc.items() if k != "seed"}
            self._compare(label, self.gate.digest(doc))
        else:
            self._compare(label, self.gate.digest(stdout.decode()))

    # -- driving --------------------------------------------------------------

    def keep_going(self, t_start):
        last = self.passes[-1]["seconds"]
        return (clock() - t_start < self.seconds
                and self.time_left() > 1.5 * last)

    def untraced(self):
        """Set-ups and passes, alternating while time remains."""
        t_start = clock()
        self.set_up(SETUP_BATCH)
        self.run_pass(False)
        while self.keep_going(t_start):
            self.set_up(SETUP_BATCH)
            self.run_pass(False)
        self.set_up(SETUP_BATCH)

    def traced(self):
        """Untraced, traced, traced, then alternating while time remains."""
        t_start = clock()
        for traced in (False, True, True):
            self.run_pass(traced)
        while self.keep_going(t_start):
            self.run_pass(False)
            if self.keep_going(t_start):
                self.run_pass(True)
        self.check_traced()

    def check_traced(self):
        traced = [p for p in self.passes if p["traced"]]
        first = traced[0]["summary"]
        self.attempted += 1
        for p in traced[1:]:
            s = p["summary"]
            if s["counts"] != first["counts"] or s["calls"] != first["calls"]:
                diff = {k for k in set(s["counts"]) | set(first["counts"])
                        if s["counts"].get(k) != first["counts"].get(k)}
                self.fail(f"counts differ between traced passes: {sorted(diff)}")
                break
        plain = next(p for p in self.passes if not p["traced"])["outputs"]
        self.attempted += 1
        for p in traced:
            if p["outputs"] != plain:
                self.fail("traced CLI stdout differs from untraced")
                break

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self):
        untraced = [p for p in self.passes if not p["traced"]]
        return {
            "setup_s": statistics.median(self.setups),
            "run_s": statistics.median(p["seconds"] for p in untraced),
            "peak_rss_mb": self.peak_rss_kb / 1024,
        }

    def per_layer(self):
        import tracer
        untraced = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        layers = [_layer_metrics(p["summary"], p["seconds"]) for p in traced]
        names = set().union(*layers)
        m = {k: statistics.median(d.get(k, 0.0) for d in layers) for k in names}
        m["trace.overhead_s"] = (statistics.median(p["seconds"] for p in traced)
                                 - statistics.median(p["seconds"] for p in untraced))
        m["cyclo.mul_us"] = self.mul_probe(untraced[0])
        m.update(self.request_metrics(untraced))
        m["fail_ratio"] = len(self.failures) / self.attempted
        for name in [*tracer.SPANS, "cli.self"]:
            m.setdefault(f"{name}_s", 0.0)
        return m

    def request_metrics(self, untraced):
        """Latencies of particular requests, from the untraced passes."""
        def kind_times(kind):
            return [j["seconds"] for p in untraced for j in p["jobs"] if j["kind"] == kind]
        ready = [sum(j["seconds"] for j in p["jobs"] if j["kind"] == "cold")
                 for p in untraced]
        cold, warm = kind_times("cold"), kind_times("warm") + kind_times("multiply")
        calls = [j["seconds"] for p in untraced for j in p["jobs"]]
        return {
            "call_s.p50": percentile(calls, 50),
            "call_s.p90": percentile(calls, 90),
            "ring_ready_s": statistics.median(ready),
            "cold_call_s": statistics.median(cold) if cold else 0.0,
            "warm_call_s": statistics.median(warm) if warm else 0.0,
        }

    def mul_probe(self, plain):
        """Microseconds per Cyclotomic product, untraced, on a seeded
        sample of pairs from the workload's own species tables."""
        import fbr
        from fbr import Cyclotomic, species
        if self.workload == "cli-session":
            tables = [[Cyclotomic.from_json(v) for row in json.loads(out)["values"]
                       for v in row]
                      for (_, _, argv), out in zip(self.calls, plain["outputs"])
                      if argv[0] == "species"]
        else:
            # the catalog ring of verify-all with the widest cyclotomic level
            ring = fbr.build_ring("S4", "6")
            tables = [[v for row in species.species_table(ring) for v in row]]
        rng = random.Random(self.seed)
        pairs = []
        for _ in range(MUL_PROBE_PAIRS):
            table = rng.choice(tables)
            pairs.append((rng.choice(table), rng.choice(table)))
        batches = []
        for _ in range(MUL_PROBE_BATCHES):
            t0 = clock()
            for a, b in pairs:
                a * b
            batches.append((clock() - t0) / len(pairs) * 1e6)
        return statistics.median(batches)


def _merge(summaries):
    """Sum the summaries of the CLI calls of one pass."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter(),
           "start_s": 0.0, "spans": []}
    for s in summaries:
        for key in ("self_s", "calls", "counts"):
            out[key].update(s[key])
        out["start_s"] += s["start_s"]
        out["spans"].append({"call": s["call"], "spans": s["spans"]})
    for key in ("self_s", "calls", "counts"):
        out[key] = dict(out[key])
    return out


def _layer_metrics(summary, pass_seconds):
    """Per-layer metrics of one traced pass."""
    self_s, calls = summary["self_s"], summary["calls"]
    counts = Counter(summary["counts"])
    m = {f"{name}_s": t for name, t in self_s.items()}
    closures, subgroups = counts["perm.lattice_closures"], counts["perm.subgroups"]
    sc_calls, misses = counts["ring.sc_calls"], counts["ring.product_misses"]
    m.update({
        "perm.lattice_closures": closures,
        "perm.subgroups": subgroups,
        "perm.closure_yield": subgroups / closures if closures else 0.0,
        "perm.quotients": calls.get("perm.quotient", 0),
        "spectrum.climbs": calls.get("spectrum.climb", 0),
        "abelian.hom_groups": calls.get("abelian.hom", 0),
        "abelian.homs": counts["abelian.homs"],
        "ring.rank": counts["ring.rank"],
        "ring.product_misses": misses,
        "ring.sc_hit_ratio": 1 - misses / sc_calls if sc_calls else 0.0,
        "cyclo.muls": counts["cyclo.muls"],
        "cyclo.inverses": counts["cyclo.inverses"],
        "cyclo.reductions": counts["cyclo.reductions"],
        "cache.entry_bytes": counts["cache.entry_bytes"],
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cli.start_s": summary.get("start_s", 0.0),
    })
    m["trace.unattributed_s"] = pass_seconds - sum(self_s.values()) - m["cli.start_s"]
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference digests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fbr" / "__init__.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"perfbench: no fbr sources (src/fbr, schemas/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fbr
    if Path(fbr.__file__).resolve().parent != SRC / "fbr":
        print(f"perfbench: fbr imported from {fbr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    env = environment()
    bench = Bench(args)
    try:
        if args.record:
            bench.run_pass(False)
            if bench.failures:
                return 1
            bench.reference[args.workload] = bench.recorded
            bench.gate.save_reference(bench.reference)
            print(f"recorded {len(bench.recorded)} reference entries for {args.workload}")
            return 0
        if args.trace:
            bench.traced()
            metrics = bench.per_layer()
        else:
            bench.untraced()
            metrics = bench.end_to_end()
    finally:
        bench.close()

    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    passes = [{k: v for k, v in p.items() if k != "outputs"} for p in bench.passes]
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": env, "result": result,
               "failures": bench.failures, "setup_s": bench.setups, "passes": passes}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details))

    print("environment " + json.dumps(env, sort_keys=True))
    n_untraced = sum(not p["traced"] for p in bench.passes)
    n_calls = sum(len(p["jobs"]) for p in bench.passes if not p["traced"])
    print(f"workload {args.workload}: {n_untraced} untraced passes, "
          f"{len(bench.passes) - n_untraced} traced passes, "
          f"{n_calls} untraced jobs; details in {out_file.relative_to(ROOT)}")
    for m in declared:
        print(f"  {m['name']:<24} {metrics[m['name']]:>14.6f} {m['unit']}")
    print(json.dumps(result))
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
