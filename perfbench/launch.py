"""Run one fbr CLI call and report on it, optionally traced.

Usage: python3 perfbench/launch.py REPORT.json TRACE FBR-ARGS...

stdout, stderr and the exit code are fbr's own.  REPORT.json receives
the process's peak RSS (VmHWM, which starts afresh at exec, unlike
ru_maxrss, which a child inherits from the process that spawned it),
its start-up time and, with TRACE=1, the spans of the benchmark's
timing wrappers.  PERFBENCH_SPAWN holds the caller's
time.perf_counter() just before it started this process; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so the difference is
the interpreter's start-up plus the import of fbr.cli.
"""

import json
import os
import sys
import time


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main():
    import fbr.cli
    start_s = time.perf_counter() - float(os.environ["PERFBENCH_SPAWN"])
    tr = None
    if sys.argv[2] == "1":
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        tr.enter("cli.self")
    try:
        code = fbr.cli.main(sys.argv[3:])
    finally:
        if tr is not None:
            tr.exit()
        sys.stdout.flush()
        report = tr.summary() if tr is not None else {}
        report.update(start_s=start_s, peak_rss_kb=_peak_rss_kb())
        with open(sys.argv[1], "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
