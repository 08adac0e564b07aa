"""Spans and counters for the benchmark's traced run.

The package has no tracing of its own, so the traced run installs
timing wrappers from the outside, on the fixed list of public fbr
attributes below.  Every fbr module attribute bound to a wrapped
function is replaced, including names that other modules took with
``from ... import``, so a nested call is attributed to the layer of the
callee.  Spans stay in memory; the caller writes them out at the end.

A span's self time is its duration minus the time of the spans nested
directly inside it, so the self times of one pass add up to the time
spent under the outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Spans at least this long are kept individually (with start, end and
# parent); shorter ones only feed the totals.  A parent is never shorter
# than its child, so the kept spans are closed under "parent of".
KEEP_SPAN_S = 0.001

# span name -> wrapped attributes, as "module:attribute" of fbr.<module>
SPANS = {
    "perm.group": ["perm:FiniteGroup.__init__", "perm:FiniteGroup.from_generators",
                   "perm:FiniteGroup.from_elements"],
    "perm.lattice": ["perm:SubgroupLattice.__init__"],
    "perm.double_cosets": ["perm:double_coset_reps",
                           "perm:SubgroupLattice.double_coset_reps"],
    "perm.quotient": ["perm:quotient_group"],
    "perm.sylow": ["perm:sylow_subgroup"],
    "abelian.hom": ["abelian:HomGroup.__init__"],
    "ring.init": ["ring:FiberedBurnsideRing.__init__"],
    "ring.products": ["ring:FiberedBurnsideRing.multiply_basis"],
    "ring.multiply": ["ring:FiberedBurnsideRing.multiply"],
    "ring.restrict": ["ring:restrict", "ring:induce", "ring:conjugate",
                      "ring:FiberedBurnsideRing.subring"],
    "species.duals": ["species:dual_orbits", "species:canonicalize_dual",
                      "species:conjugate_character"],
    "species.table": ["species:species_table", "species:species_value"],
    "species.idempotents": ["species:idempotent", "species:idempotent_coordinates"],
    "species.determinant": ["species:species_determinant", "species:exact_determinant"],
    "species.apply": ["species:apply_species", "species:species_value_composite"],
    "spectrum.climb": ["spectrum:p_regularize"],
    "spectrum.oracle": ["spectrum:reduced_species_row", "spectrum:congruent_mod_p"],
    "spectrum.partition": ["spectrum:p_equivalence_partition"],
    "spectrum.blocks": ["spectrum:components", "spectrum:block_idempotent",
                        "spectrum:block_idempotents"],
    "spectrum.block_bases": ["spectrum:block_basis"],
    "spectrum.weyl": ["spectrum:weyl_block_iso"],
    "spectrum.weyl_ring": ["spectrum:weyl_ring"],
    "cyclo.prime_ideals": ["cyclo:prime_ideals", "cyclo:find_prime_ideal"],
    "cache.save": ["cache:save_session"],
    "cache.load": ["cache:load_session"],
    "burnside.marks": ["burnside:table_of_marks", "burnside:product_via_marks"],
    "acceptance.c1": ["acceptance:criterion_species_isomorphism"],
    "acceptance.c2": ["acceptance:criterion_idempotents"],
    "acceptance.c3": ["acceptance:criterion_micro_instances"],
    "acceptance.c4": ["acceptance:criterion_structure_constants"],
    "acceptance.c5": ["acceptance:criterion_spectrum_partitions"],
    "acceptance.c6": ["acceptance:criterion_block_decomposition"],
    "acceptance.c7": ["acceptance:criterion_block_bases"],
    "acceptance.c8": ["acceptance:criterion_weyl_isomorphism"],
    "acceptance.c9": ["acceptance:criterion_determinism"],
}

# Calls made millions of times get a counter and no span.
COUNTED = {
    "ring.sc_calls": "ring:FiberedBurnsideRing.structure_constants",
    "cyclo.muls": "cyclo:Cyclotomic.__mul__",
    "cyclo.inverses": "cyclo:Cyclotomic.inverse",
    "cyclo.reductions": "cyclo:reduce_mod",
}


def _lattice_done(tr, args, kwargs, result):
    tr.counts["perm.subgroups"] += len(args[0].subgroups)


def _hom_done(tr, args, kwargs, result):
    tr.counts["abelian.homs"] += args[0].size


def _ring_done(tr, args, kwargs, result):
    tr.counts["ring.rank"] += args[0].rank


def _product_done(tr, args, kwargs, result):
    # a forward product is what structure_constants computes on a memo miss
    if not kwargs.get("reverse", args[3] if len(args) > 3 else False):
        tr.counts["ring.product_misses"] += 1


def _load_done(tr, args, kwargs, result):
    tr.counts["cache.hits" if result is not None else "cache.misses"] += 1


AFTER = {
    "perm:SubgroupLattice.__init__": _lattice_done,
    "abelian:HomGroup.__init__": _hom_done,
    "ring:FiberedBurnsideRing.__init__": _ring_done,
    "ring:FiberedBurnsideRing.multiply_basis": _product_done,
    "cache:load_session": _load_done,
}

# Criterion 9 reruns criteria 1-8; those reruns belong to criterion 9.
OUTERMOST_ONLY = ("acceptance",)


class Tracer:
    """Span stack with per-name self times, calls and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.active = Counter()
        self.spans = []
        self._stack = []
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self.active[name] += 1
        self.active[name.split(".", 1)[0]] += 1

    def exit(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.active[name] -= 1
        self.active[name.split(".", 1)[0]] -= 1
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if dur >= KEEP_SPAN_S:
            self.spans.append((sid, parent, name, start, end))

    def summary(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "spans": self.spans}


def _span_wrapper(tr, name, fn, after):
    enter, exit_ = tr.enter, tr.exit
    layer = name.split(".", 1)[0]
    outermost = layer in OUTERMOST_ONLY
    active = tr.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and active[layer]:
            return fn(*args, **kwargs)
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(tr, args, kwargs, result)
        return result
    return wrapper


def _count_wrapper(tr, name, fn):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _closure_wrapper(tr, fn):
    counts, active = tr.counts, tr.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if active["perm.lattice"]:
            counts["perm.lattice_closures"] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tr):
    """Install wrappers that report to tr; return a function undoing it."""
    modules = [m for n, m in sys.modules.items()
               if (n == "fbr" or n.startswith("fbr.")) and m is not None]
    by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
    undo = []

    def replace(target, make):
        modname, _, attr = target.partition(":")
        owner = by_short.get(modname)
        if owner is None:  # a module the process never imported
            return
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
            return
        fn = getattr(owner, attr)
        new = make(fn)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, new)
                    undo.append((mod, key, fn))

    for name, targets in SPANS.items():
        for target in targets:
            replace(target, lambda fn, n=name, t=target:
                    _span_wrapper(tr, n, fn, AFTER.get(t)))
    for name, target in COUNTED.items():
        replace(target, lambda fn, n=name: _count_wrapper(tr, n, fn))
    replace("perm:FiniteGroup.closure", lambda fn: _closure_wrapper(tr, fn))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return uninstall
