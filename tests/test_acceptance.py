"""Acceptance gate: every criterion at its stated (exact) tolerance.

One pass/fail line prints per criterion.  The session is shared across
the module so each catalog ring builds once.
"""

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
