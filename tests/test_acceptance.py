"""Acceptance gate: every criterion at its stated (exact) tolerance.

One pass/fail line prints per criterion.  The session is shared across
the module so each catalog ring builds once.
"""

import weakref
from collections import Counter

import pytest

from fbr import acceptance
from fbr import species as sp
from fbr.ring import FiberedBurnsideRing


@pytest.fixture(scope="module")
def session():
    return acceptance.Session()


def _report(result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status}  criterion {result['id']} ({result['name']}): "
          f"{result['detail']}")
    assert result["passed"], result["detail"]


def test_criterion_1_species_isomorphism(session):
    _report(acceptance.criterion_species_isomorphism(session))


def test_criterion_2_eq1_idempotents(session):
    _report(acceptance.criterion_idempotents(session))


def test_criterion_3_micro_instances(session):
    _report(acceptance.criterion_micro_instances(session))


def test_criterion_4_structure_constants(session):
    _report(acceptance.criterion_structure_constants(session))


def test_criterion_5_spectrum_partitions(session):
    _report(acceptance.criterion_spectrum_partitions(session))


def test_criterion_6_block_decomposition(session):
    _report(acceptance.criterion_block_decomposition(session))


def test_criterion_7_block_bases(session):
    _report(acceptance.criterion_block_bases(session))


def test_criterion_8_weyl_isomorphism(session):
    _report(acceptance.criterion_weyl_isomorphism(session))


def test_criterion_9_determinism(session):
    _report(acceptance.criterion_determinism(acceptance.DEFAULT_SEED))


def test_session_keeps_every_ring():
    # C2^4 at fiber 6 has rank 307; the session checks it rather than
    # dropping it (pairs() builds no ring)
    c2_4 = "perm:8:(1 2);(3 4);(5 6);(7 8)"
    session = acceptance.Session(groups=(c2_4,), fibers=("6",))
    assert session.pairs() == [(c2_4, "6")]


def test_session_shares_one_lattice_per_group():
    session = acceptance.Session()
    rings = [session.ring("S4", f) for f in ("1", "2", "6")]
    assert len({id(r.lattice) for r in rings}) == 1
    assert all(r.group is rings[0].lattice.group for r in rings)


def test_run_all_builds_one_lattice_per_group_per_session(monkeypatch):
    built = Counter()
    real = acceptance.SubgroupLattice

    def counting(group, *args):
        built[group.elements] += 1
        return real(group, *args)

    monkeypatch.setattr(acceptance, "SubgroupLattice", counting)
    report = acceptance.run_all(groups=("S3", "A4"), fibers=("1", "2"), seed=1)
    assert report["passed"]
    # one session over S3, A4 and criterion 3's golden C2, then criterion
    # 9's two fresh sessions over C2, C6, S3 and D4, each with lattices of
    # its own
    expected = Counter(("S3", "A4", "C2"))
    for _ in range(2):
        expected.update(acceptance.DETERMINISM_GROUPS)
    assert built == Counter({acceptance.parse_group_spec(g).elements: n
                             for g, n in expected.items()})


def test_pair_seeds_are_distinct():
    # with four fibers, C2/2x2 and S3/1 shared a seed when the stride was
    # the catalog's three fibers
    session = acceptance.Session(groups=("C2", "S3", "A4"),
                                 fibers=("1", "2", "6", "2x2"), seed=5)
    seeds = [session.pair_seed(g, f) for g, f in session.pairs()]
    assert len(set(seeds)) == len(seeds) == 12
    # the catalog's seeds, and so its reports, are unchanged
    catalog = acceptance.Session()
    assert [catalog.pair_seed(g, f) for g, f in catalog.pairs()] == [
        acceptance.DEFAULT_SEED * 1000003 + i for i in range(33)]


def test_run_all_frees_the_session_before_criterion_9(monkeypatch):
    built = []
    real_ring, real_c9 = acceptance.FiberedBurnsideRing, acceptance.criterion_determinism

    def recording(*args, **kwargs):
        ring = real_ring(*args, **kwargs)
        built.append(weakref.ref(ring))
        return ring

    def determinism(seed):
        assert built and all(r() is None for r in built)
        return real_c9(seed)

    monkeypatch.setattr(acceptance, "FiberedBurnsideRing", recording)
    monkeypatch.setattr(acceptance, "criterion_determinism", determinism)
    assert acceptance.run_all(groups=("S3",), fibers=("1",), seed=1)["passed"]


def test_criterion_2_multiplies_each_unordered_pair_once(monkeypatch):
    # S4/1 has rank 11, so every ordered pair of idempotents is checked
    calls = 0
    real = FiberedBurnsideRing.multiply

    def counting(ring, x, y):
        nonlocal calls
        calls += 1
        return real(ring, x, y)

    monkeypatch.setattr(FiberedBurnsideRing, "multiply", counting)
    session = acceptance.Session(groups=("S4",), fibers=("1",))
    assert session.ring("S4", "1").rank == 11
    assert acceptance.criterion_idempotents(session)["passed"]
    assert calls <= 11 * 12 // 2


@pytest.mark.parametrize("fiber,detail", [
    ("2", "S3/2: idempotents do not sum to 1; S3/2: e2*e2 wrong"),
    ("6", "S3/6: idempotents do not sum to 1; S3/6: e2*e2 wrong"),
])
def test_criterion_2_fails_on_a_doubled_idempotent(monkeypatch, fiber, detail):
    real = sp.idempotent

    def doubled(ring, d):
        e = real(ring, d)
        return e + e if d == 2 else e

    monkeypatch.setattr(sp, "idempotent", doubled)
    session = acceptance.Session(groups=("S3",), fibers=(fiber,))
    result = acceptance.criterion_idempotents(session)
    assert not result["passed"]
    assert result["detail"] == detail


@pytest.mark.parametrize("fiber,detail", [
    ("2", "S3/2: s0(1*2)"),
    ("6", "S3/6: s0(1*2)"),
])
def test_criterion_4_fails_on_a_wrong_structure_constant(fiber, detail):
    session = acceptance.Session(groups=("S3",), fibers=(fiber,))
    ring = session.ring("S3", fiber)
    # one more copy of [1, 1], whose species is nonzero only at the dual s0
    sc = dict(ring.structure_constants(1, 2))
    sc[0] = sc.get(0, 0) + 1
    ring._structure[(1, 2)] = tuple(sorted(sc.items()))
    result = acceptance.criterion_structure_constants(session)
    assert not result["passed"]
    assert result["detail"] == detail
