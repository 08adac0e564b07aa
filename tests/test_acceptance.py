"""Acceptance gate: every criterion at its stated (exact) tolerance.

One pass/fail line prints per criterion.  The session is shared across
the module so each catalog ring builds once.
"""

from collections import Counter

import pytest

from fbr import acceptance


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
