"""The acceptance suite: one callable per criterion, exact throughout.

Each criterion returns a dict with id, name, passed and a short detail
string, plus skipped: true when it had nothing to check.  Everything is
exact arithmetic, so there are no tolerances; sampling (only above rank
15, where exhaustive pair scans are ruled out) is seeded and therefore
reproducible byte for byte.

No ring, lattice or memo of one group is read by another group's
checks, so criteria 1, 2 and 4-8 come in two parts: a part checks one
group of a session and returns its partial result (counts, and its
failures in pair order), and a merge rebuilds the criterion's dict
from the parts in catalog order.  criterion_*(session) is the merge of
the parts over the session's groups.  run_all runs one task per group
(the parts of every such criterion, on a session of its own with the
whole session's pair seeds), one for criterion 3 and one for each of
criterion 9's two runs, on as many forked processes as this process
may use CPUs (in process when it may use one).  The report does not
depend on the number of processes.

The ring is commutative by construction (structure constants are kept
per unordered pair of basis orbits), so criterion 2, which checks
e_a e_b over ordered pairs of idempotents, forms each product once per
unordered pair: at (b, a) it reuses the zero found at (a, b).
"""

from __future__ import annotations

import gc
import json
import os
import random

from . import burnside, species as sp, spectrum as spc
from .abelian import parse_fiber_spec
from .arith import factorint
from .cyclo import prime_ideals
from .errors import FbrError
from .perm import SubgroupLattice, parse_group_spec
from .ring import FiberedBurnsideRing

CATALOG_GROUPS = ("C2", "C4", "V4", "C6", "S3", "D4", "Q8", "A4", "S4", "A5", "S5")
CATALOG_FIBERS = ("1", "2", "6")
EXHAUSTIVE_RANK = 15
SAMPLE_PAIRS = 200
DEFAULT_SEED = 1729

# small sub-catalog used for the determinism re-run
DETERMINISM_GROUPS = ("C2", "C6", "S3", "D4")


class Session:
    """Caches rings across criteria so the suite builds each (G, A) once;
    the rings of one group share its lattice and the lattice's memos."""

    def __init__(self, groups=None, fibers=None, seed=DEFAULT_SEED):
        self.groups = tuple(groups) if groups else CATALOG_GROUPS
        self.fibers = tuple(fibers) if fibers else CATALOG_FIBERS
        self.seed = seed
        self._rings = {}
        self._lattices = {}

    def ring(self, gspec, fspec):
        key = (gspec, fspec)
        if key not in self._rings:
            if gspec not in self._lattices:
                self._lattices[gspec] = SubgroupLattice(parse_group_spec(gspec))
            lattice = self._lattices[gspec]
            self._rings[key] = FiberedBurnsideRing(
                lattice.group, parse_fiber_spec(fspec), lattice=lattice)
        return self._rings[key]

    def pairs(self):
        return [(g, f) for g in self.groups for f in self.fibers]

    def pair_seed(self, gspec, fspec):
        i = self.groups.index(gspec) * len(self.fibers) + self.fibers.index(fspec)
        return self.seed * 1000003 + i


def _result(cid, name, passed, detail):
    return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}


def _merged(session, part, merge):
    return merge([part(session, g) for g in session.groups])


def _counted(cid, name, detail):
    """The merge of parts (failures, count): the failures in catalog
    order, or else detail formatted with the total count."""
    def merge(parts):
        bad = [b for failures, _ in parts for b in failures]
        total = sum(n for _, n in parts)
        return _result(cid, name, not bad, "; ".join(bad) if bad else detail.format(total))
    return merge


def _species_isomorphism_part(session, g):
    bad = []
    checked = 0
    for f in session.fibers:
        ring = session.ring(g, f)
        table = sp.species_table(ring)
        duals = sp.dual_orbits(ring)
        if len(table) != ring.rank or len(duals) != ring.rank:
            bad.append(f"{g}/{f}: not square")
            continue
        if len(set(table)) != len(table):
            bad.append(f"{g}/{f}: repeated rows")
        try:
            sp.species_determinant(ring)
        except FbrError:
            bad.append(f"{g}/{f}: singular")
        checked += 1
    return bad, checked


_species_isomorphism_merge = _counted(1, "species-isomorphism", "{} rings checked")


def criterion_species_isomorphism(session):
    """Square species table, nonzero determinant, pairwise-distinct rows."""
    return _merged(session, _species_isomorphism_part, _species_isomorphism_merge)


def _idempotent_pairs(ring, rng):
    n = ring.rank
    if n <= EXHAUSTIVE_RANK:
        return [(a, b) for a in range(n) for b in range(n)]
    pairs = {(a, a) for a in range(n)}
    while len(pairs) < SAMPLE_PAIRS:
        pairs.add((rng.randrange(n), rng.randrange(n)))
    return sorted(pairs)


def _upper_pairs(n, rng):
    """Every a <= b below n when n <= EXHAUSTIVE_RANK, otherwise the
    sorted set of SAMPLE_PAIRS seeded draws."""
    if n <= EXHAUSTIVE_RANK:
        return [(a, b) for a in range(n) for b in range(a, n)]
    return sorted({(rng.randrange(n), rng.randrange(n))
                   for _ in range(SAMPLE_PAIRS)})


def _idempotents_part(session, g):
    bad = []
    for f in session.fibers:
        ring = session.ring(g, f)
        pairs = _idempotent_pairs(ring, random.Random(session.pair_seed(g, f)))
        total = ring.zero()
        for d in range(ring.rank):
            total = total + sp.idempotent(ring, d)
        if total != ring.one():
            bad.append(f"{g}/{f}: idempotents do not sum to 1")
        zeros = set()  # the (a, b), a != b, with e_a e_b checked to be zero
        for a, b in pairs:
            eb = sp.idempotent(ring, b)
            if (b, a) not in zeros:
                ea = sp.idempotent(ring, a)
                prod = ring.multiply(ea, eb)
                want = ea if a == b else ring.zero()
                if prod != want:
                    bad.append(f"{g}/{f}: e{a}*e{b} wrong")
                    break
                if a != b:
                    zeros.add((a, b))
            v = sp.apply_species(ring, a, eb)
            expect = 1 if a == b else 0
            if not (v.is_rational() and v.rational_value() == expect):
                bad.append(f"{g}/{f}: species of e{b} at {a} wrong")
                break
    return bad, len(session.fibers)


_idempotents_merge = _counted(2, "eq1-idempotents", "{} rings")


def criterion_idempotents(session):
    """Species-delta property, orthogonality, partition of unity."""
    return _merged(session, _idempotents_part, _idempotents_merge)


GOLDEN_C2_TABLE = [[2, 1, 1], [0, 1, 1], [0, 1, -1]]
GOLDEN_C2_IDEMPOTENTS = [
    {0: "1/2"},
    {0: "-1/2", 1: "1/2", 2: "1/2"},
    {1: "1/2", 2: "-1/2"},
]


def criterion_micro_instances(session):
    """Hand-verified golden values for (C2, A=2) and the (S3, A=2) rank."""
    bad = []
    ring = session.ring("C2", "2")
    table = sp.species_table(ring)
    got = [[_as_int(v) for v in row] for row in table]
    if got != GOLDEN_C2_TABLE:
        bad.append(f"C2/2 table {got}")
    for d, golden in enumerate(GOLDEN_C2_IDEMPOTENTS):
        e = sp.idempotent(ring, d)
        rendered = {k: str(v.rational_value()) for k, v in e.coeffs.items()}
        if rendered != golden:
            bad.append(f"C2/2 idempotent {d}: {rendered}")
    if session.ring("S3", "2").rank != 6:
        bad.append("S3/2 rank != 6")
    detail = "golden values match" if not bad else "; ".join(bad)
    return _result(3, "micro-instances", not bad, detail)


def _as_int(v):
    if not v.is_integer():
        raise FbrError("expected integer species value")
    return int(v.rational_value())


def _structure_constants_part(session, g):
    """The group's first failing species product, and its first failing
    marks case (the marks oracle always runs at the trivial fiber)."""
    product_bad = marks_bad = None
    for f in session.fibers:
        ring = session.ring(g, f)
        n = ring.rank
        pairs = _upper_pairs(n, random.Random(session.pair_seed(g, f) + 1))
        table = sp.species_table(ring)
        rational = ring.level <= 2  # phi(level) = 1: one numerator, den 1
        for a, b in pairs:
            prod = ring.element_from_ints(dict(ring.structure_constants(a, b)))
            coords = sp.idempotent_coordinates(ring, prod)
            for d in range(n):
                sa, sb = table[d][a], table[d][b]
                if rational:
                    ok = (coords[d].den == 1
                          and coords[d].nums == (sa.nums[0] * sb.nums[0],))
                elif sa.is_zero() or sb.is_zero():
                    ok = coords[d].is_zero()
                else:
                    ok = coords[d] == sa * sb
                if not ok:
                    product_bad = f"{g}/{f}: s{d}({a}*{b})"
                    break
            if product_bad:
                break
        if product_bad:
            break
    # Burnside embedding versus the marks oracle, trivial fiber
    ring = session.ring(g, "1")
    lattice = ring.lattice
    marks = burnside.table_of_marks(lattice)
    cpairs = _upper_pairs(len(lattice.classes), random.Random(session.seed * 31 + 7))
    for a, b in cpairs:
        oracle = burnside.product_via_marks(lattice, a, b, marks)
        xa = ring.burnside_embed({a: 1})
        xb = ring.burnside_embed({b: 1})
        got = {k: _as_int(v)
               for k, v in ring.burnside_project(ring.multiply(xa, xb)).items()}
        if got != oracle:
            marks_bad = f"{g}: marks oracle at ({a},{b})"
            break
    return product_bad, marks_bad


def _structure_constants_merge(parts):
    # the first failing product of all groups; the marks oracle then
    # stops after the first group, and otherwise at its first failure
    products = [p for p, _ in parts if p]
    if products:
        bad = [products[0], *([parts[0][1]] if parts[0][1] else [])]
    else:
        bad = [m for _, m in parts if m][:1]
    detail = "all products certified" if not bad else "; ".join(bad)
    return _result(4, "structure-constants", not bad, detail)


def criterion_structure_constants(session):
    """s(ab) = s(a)s(b) plus the independent table-of-marks oracle."""
    return _merged(session, _structure_constants_part, _structure_constants_merge)


def _spectrum_partitions_part(session, g):
    bad = []
    checked = 0
    for f in session.fibers:
        ring = session.ring(g, f)
        try:
            part0 = spc.p_equivalence_partition(ring, None)
        except FbrError as exc:
            bad.append(f"{g}/{f} char0: {exc}")
            continue
        if any(len(c) != 1 for c in part0.classes):
            bad.append(f"{g}/{f}: char0 partition not discrete")
        for p in sorted(factorint(ring.group.order)):
            seen = []
            for ideal in prime_ideals(p, ring.level):
                try:
                    part = spc.p_equivalence_partition(ring, ideal)
                except FbrError as exc:
                    bad.append(f"{g}/{f} p={p}: {exc}")
                    break
                seen.append(part.classes)
                regs = part.regular_representatives
                if len(set(regs)) != len(regs):
                    bad.append(f"{g}/{f} p={p}: repeated regular class")
            if len({tuple(s) for s in seen}) > 1:
                bad.append(f"{g}/{f} p={p}: partition depends on the ideal")
            checked += 1
    return bad, checked


_spectrum_partitions_merge = _counted(5, "spectrum-partitions", "{} (ring, p) pairs")


def criterion_spectrum_partitions(session):
    """Regularization equals the congruence oracle for every ideal and
    every p dividing the group order; characteristic zero is discrete."""
    return _merged(session, _spectrum_partitions_part, _spectrum_partitions_merge)


def _block_decomposition_part(session, g):
    bad = []
    for f in session.fibers:
        ring = session.ring(g, f)
        comps = spc.components(ring)
        # golden counts for the catalog; elsewhere one per perfect class
        if g in CATALOG_GROUPS:
            expected = 2 if g in ("A5", "S5") else 1
        else:
            expected = len(ring.lattice.perfect_class_reps())
        if len(comps) != expected:
            bad.append(f"{g}/{f}: {len(comps)} blocks")
            continue
        try:
            blocks = spc.block_idempotents(ring)
        except FbrError as exc:
            bad.append(f"{g}/{f}: {exc}")
            continue
        total = ring.zero()
        for e in blocks:
            total = total + e
        if total != ring.one():
            bad.append(f"{g}/{f}: blocks do not sum to 1")
        for i, ei in enumerate(blocks):
            for j, ej in enumerate(blocks):
                prod = ring.multiply(ei, ej)
                want = ei if i == j else ring.zero()
                if prod != want:
                    bad.append(f"{g}/{f}: block orthogonality ({i},{j})")
    return bad, 0  # its detail names no count


_block_decomposition_merge = _counted(6, "block-decomposition", "all block systems verified")


def criterion_block_decomposition(session):
    """Block count, integrality, orthogonality and partition of unity."""
    return _merged(session, _block_decomposition_part, _block_decomposition_merge)


def _block_bases_part(session, g):
    bad = []
    for f in session.fibers:
        ring = session.ring(g, f)
        for comp in spc.components(ring):
            try:
                spc.block_basis(ring, comp)
            except FbrError as exc:
                bad.append(f"{g}/{f} block {comp.index}: {exc}")
        solvable = next(c for c in spc.components(ring)
                        if c.perfect_id == ring.lattice.trivial_id())
        e1 = spc.block_idempotent(ring, solvable)
        for b in solvable.basis_orbits:
            x = ring.basis_element(b)
            if ring.multiply(x, e1) != x:
                bad.append(f"{g}/{f}: e_[1] moves solvable orbit {b}")
                break
    return bad, 0  # its detail names no count


_block_bases_merge = _counted(7, "block-bases", "all block bases verified")


def criterion_block_bases(session):
    """Block bases are independent and span; e_[1] fixes solvable pairs."""
    return _merged(session, _block_bases_part, _block_bases_merge)


def _weyl_isomorphism_part(session, g):
    """The group's failures, its number of cases, and the group as a
    one-element set if the catalog skips some of its rings."""
    bad = []
    cases = 0
    skipped = set()
    for f in session.fibers:
        if g in CATALOG_GROUPS and (g not in ("A5", "S5") or f not in ("1", "2")):
            skipped.add(g)
            continue
        ring = session.ring(g, f)
        perfect = [j for j in ring.lattice.perfect_class_reps() if j != 0]
        if g in CATALOG_GROUPS and len(perfect) != 1:
            bad.append(f"{g}/{f}: expected one nontrivial perfect class")
            continue
        for jid in perfect:
            cases += 1
            try:
                iso = spc.weyl_block_iso(ring, jid)
            except FbrError as exc:
                bad.append(f"{g}/{f}: {exc}")
                continue
            comp = next(c for c in spc.components(ring) if c.perfect_id == jid)
            if len(iso.bijection) != len(comp.basis_orbits):
                bad.append(f"{g}/{f}: bijection size mismatch")
    return bad, cases, skipped


def _weyl_isomorphism_merge(parts):
    bad = [b for failures, _, _ in parts for b in failures]
    cases = sum(n for _, n, _ in parts)
    skipped = set().union(*(s for _, _, s in parts))
    detail = f"{cases} cases verified" if not bad else "; ".join(bad)
    result = _result(8, "weyl-isomorphism", not bad, detail)
    if not cases and not bad:
        # A5 and S5 are the catalog groups with a nontrivial perfect class
        detail = ("catalog checks A5 and S5 at fibers 1 and 2 only"
                  if skipped & {"A5", "S5"} else "no nontrivial perfect class to check")
        result.update(detail=detail, skipped=True)
    return result


def criterion_weyl_isomorphism(session):
    """Inflation bijection onto each nontrivial perfect block: for the
    catalog, (A5, J=A5) and (S5, J=A5) at fibers 1 and 2; for any other
    group, every nontrivial perfect class of every ring."""
    return _merged(session, _weyl_isomorphism_part, _weyl_isomorphism_merge)


# the criteria checked group by group, as (part, merge), in id order
GROUP_CRITERIA = (
    (_species_isomorphism_part, _species_isomorphism_merge),
    (_idempotents_part, _idempotents_merge),
    (_structure_constants_part, _structure_constants_merge),
    (_spectrum_partitions_part, _spectrum_partitions_merge),
    (_block_decomposition_part, _block_decomposition_merge),
    (_block_bases_part, _block_bases_merge),
    (_weyl_isomorphism_part, _weyl_isomorphism_merge),
)


def run_criteria(session):
    return [
        criterion_species_isomorphism(session),
        criterion_idempotents(session),
        criterion_micro_instances(session),
        criterion_structure_constants(session),
        criterion_spectrum_partitions(session),
        criterion_block_decomposition(session),
        criterion_block_bases(session),
        criterion_weyl_isomorphism(session),
    ]


def _determinism_run(seed):
    """Criteria 1-8 over the reduced catalog on a fresh session, serialized."""
    session = Session(groups=DETERMINISM_GROUPS, seed=seed)
    return json.dumps(run_criteria(session), sort_keys=True, separators=(",", ":"))


def _determinism_merge(reports):
    passed = reports[0] == reports[1]
    detail = (f"byte-identical over {'/'.join(DETERMINISM_GROUPS)}"
              if passed else "reports differ between runs")
    return _result(9, "determinism", passed, detail)


def criterion_determinism(seed):
    """Two fresh runs over a reduced catalog must serialize identically."""
    return _determinism_merge([_determinism_run(seed) for _ in range(2)])


def _group_task(groups, fibers, seed, g):
    """The parts of GROUP_CRITERIA for group g, on a session of its own."""
    session = Session(groups=groups, fibers=fibers, seed=seed)
    return [part(session, g) for part, _ in GROUP_CRITERIA]


def _micro_instances_task():
    return criterion_micro_instances(Session())


def _run_task(task):
    """Run one task (function, args) of run_all.  Its session is cyclic
    garbage when the function returns (ring -> memo -> element -> ring),
    so it is collected before the next task starts."""
    fn, args = task
    result = fn(*args)
    gc.collect()
    return result


def run_all(groups=None, fibers=None, seed=DEFAULT_SEED):
    """Full acceptance report as a JSON-ready dict.

    The tasks (one per group, criterion 3, and criterion 9's two runs)
    go to a pool of forked processes, one per CPU this process may use,
    largest group first; with one CPU they run here.  The results are
    merged in catalog order."""
    session = Session(groups=groups, fibers=fibers, seed=seed)
    groups, fibers = session.groups, session.fibers
    tasks = [(_group_task, (groups, fibers, seed, g)) for g in groups]
    tasks += [(_micro_instances_task, ()),
              (_determinism_run, (seed,)), (_determinism_run, (seed,))]
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1:
        results = list(map(_run_task, tasks))
    else:
        # imported here: start-up of every other verb stays without them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the largest group a task builds; criterion 3's C2/2 and S3/2 last
        order = {g: parse_group_spec(g).order for g in (*groups, *DETERMINISM_GROUPS)}
        sizes = [order[g] for g in groups] + [0] + [max(
            order[g] for g in DETERMINISM_GROUPS)] * 2
        # frozen, the heap the workers inherit is not walked (and so not
        # copied) by their garbage collections
        gc.freeze()
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {i: pool.submit(_run_task, tasks[i])
                       for i in sorted(range(len(tasks)), key=lambda i: -sizes[i])}
            results = [futures[i].result() for i in range(len(tasks))]
        finally:
            pool.shutdown(cancel_futures=True)
            gc.unfreeze()
    parts, (micro, *runs) = results[:len(groups)], results[len(groups):]
    criteria = [merge([p[k] for p in parts])
                for k, (_, merge) in enumerate(GROUP_CRITERIA)]
    criteria.insert(2, micro)
    criteria.append(_determinism_merge(runs))
    return {
        "seed": seed,
        "groups": list(groups),
        "fibers": list(fibers),
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
