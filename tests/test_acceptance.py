"""Acceptance gate: every criterion at its stated (exact) tolerance.

One pass/fail line prints per criterion.  The session is shared across
the module so each catalog ring builds once.
"""

import importlib
import json
import multiprocessing
import os
import signal
import sys
import weakref
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from fbr import acceptance, burnside
from fbr import species as sp
from fbr import spectrum as spc
from fbr.cli import main
from fbr.errors import FbrError, TheoremViolationError
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


def test_session_shares_one_lattice_per_group():
    session = acceptance.Session()
    rings = [session.ring("S4", f) for f in ("1", "2", "6")]
    assert len({id(r.lattice) for r in rings}) == 1
    assert all(r.group is rings[0].lattice.group for r in rings)


def one_cpu(monkeypatch):
    """Make run_all see one usable CPU, so that it runs its tasks in process."""
    monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: {0})


def test_run_all_builds_one_lattice_per_group_per_session(monkeypatch):
    built = Counter()
    real = acceptance.SubgroupLattice

    def counting(group, *args):
        built[group.elements] += 1
        return real(group, *args)

    one_cpu(monkeypatch)
    monkeypatch.setattr(acceptance, "SubgroupLattice", counting)
    report = acceptance.run_all(groups=("S3", "A4"), fibers=("1", "2"), seed=1)
    assert report["passed"]
    # each task has a session of its own: one per group (S3, A4), criterion
    # 3's over C2 and S3, and criterion 9's two over C2, C6, S3 and D4; a
    # session builds one lattice per group it reads
    expected = Counter(("S3", "A4", "C2", "S3"))
    for _ in range(2):
        expected.update(acceptance.DETERMINISM_GROUPS)
    assert built == Counter({acceptance.parse_group_spec(g).elements: n
                             for g, n in expected.items()})


def test_pair_seeds_are_distinct():
    # with four fibers, C2/2x2 and S3/1 shared a seed when the stride was
    # the catalog's three fibers
    session = acceptance.Session(groups=("C2", "S3", "A4"),
                                 fibers=("1", "2", "6", "2x2"), seed=5)
    seeds = [session.pair_seed(g, f) for g in session.groups for f in session.fibers]
    assert len(set(seeds)) == len(seeds) == 12
    # the catalog's seeds, and so its reports, are unchanged
    catalog = acceptance.Session()
    assert [catalog.pair_seed(g, f) for g in catalog.groups for f in catalog.fibers] == [
        acceptance.DEFAULT_SEED * 1000003 + i for i in range(33)]


def test_run_all_frees_the_session_before_criterion_9(monkeypatch):
    # in process, no ring of a finished task (a group's, criterion 3's or
    # one of criterion 9's runs) is alive when the next task starts
    built = []
    starts = []
    real_ring, real_task = acceptance.FiberedBurnsideRing, acceptance._run_task

    def recording(*args, **kwargs):
        ring = real_ring(*args, **kwargs)
        built.append(weakref.ref(ring))
        return ring

    def task(job):
        starts.append(len(built))
        assert all(r() is None for r in built)
        return real_task(job)

    one_cpu(monkeypatch)
    monkeypatch.setattr(acceptance, "FiberedBurnsideRing", recording)
    monkeypatch.setattr(acceptance, "_run_task", task)
    assert acceptance.run_all(groups=("S3",), fibers=("1",), seed=1)["passed"]
    # one group, criterion 3 and criterion 9's two runs, each building rings
    assert len(starts) == 4 and 0 == starts[0] < starts[1] < starts[2] < starts[3]
    assert all(r() is None for r in built)


@pytest.mark.parametrize("groups,fibers,seed", [
    (None, None, 1),
    (("S3",), ("2",), acceptance.DEFAULT_SEED),
    (("perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)",), ("1",), acceptance.DEFAULT_SEED),
], ids=["catalog", "S3-2", "GL32-1"])
def test_pool_report_equals_in_process_report(monkeypatch, groups, fibers, seed):
    # the report does not depend on the number of processes
    reports = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: cpus)
        report = acceptance.run_all(groups=groups, fibers=fibers, seed=seed)
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["passed"]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in_process", "pool"])
def test_run_all_reports_failures_in_catalog_order(monkeypatch, cpus):
    # with planted errors in the species determinant, the marks oracle,
    # the block basis and the Weyl map, criteria 1, 4, 7 and 8 fail; the
    # report lists the failures as criterion_*(session) does, group by group
    def planted(ring, *args):
        raise FbrError(f"planted at rank {ring.rank}")

    monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(sp, "species_determinant", planted)
    monkeypatch.setattr(burnside, "product_via_marks", lambda *args: {})
    monkeypatch.setattr(spc, "block_basis", planted)
    monkeypatch.setattr(spc, "weyl_block_iso", planted)
    groups, fibers = ("S3", "A5", "C4"), ("2", "6")
    report = acceptance.run_all(groups=groups, fibers=fibers, seed=1)
    serial = acceptance.run_criteria(acceptance.Session(groups, fibers, seed=1))
    assert report["criteria"][:8] == serial
    assert [c["id"] for c in serial if not c["passed"]] == [1, 4, 7, 8]
    assert serial[0]["detail"] == ("S3/2: singular; S3/6: singular; A5/2: singular; "
                                   "A5/6: singular; C4/2: singular; C4/6: singular")
    assert serial[3]["detail"] == ("S3: marks oracle at (0,0); A5: marks oracle at (0,0); "
                                   "C4: marks oracle at (0,0)")
    # the catalog checks the Weyl map of A5 at fibers 1 and 2 only
    assert serial[7]["detail"] == "A5/2: planted at rank 13"


def two_cpus(monkeypatch):
    monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def time_limit():
    """Fail a test whose run_all waits on its pool for more than 60 s."""
    def expire(signum, frame):
        raise TimeoutError("run_all did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_cli_imported_after_acceptance_keeps_its_module(monkeypatch, time_limit):
    # fbr.cli registers acceptance and cache lazily; imported after them,
    # it must reuse their module objects, or the pool could not pickle
    # acceptance._run_task as the module's own function
    import fbr
    from fbr import cache
    monkeypatch.delitem(sys.modules, "fbr.cli")
    monkeypatch.delattr(fbr, "cli")
    cli = importlib.import_module("fbr.cli")
    assert cli.acceptance is sys.modules["fbr.acceptance"]
    assert cli.acceptance is acceptance is fbr.acceptance
    assert cli.cache is sys.modules["fbr.cache"] is cache is fbr.cache
    two_cpus(monkeypatch)
    report = acceptance.run_all(groups=("S3",), fibers=("2",), seed=1)
    assert multiprocessing.active_children() == []
    assert report["passed"] and [c["id"] for c in report["criteria"]] == list(range(1, 10))


def test_pool_leaves_no_process_running(monkeypatch, time_limit):
    two_cpus(monkeypatch)
    assert acceptance.run_all(groups=("S3",), fibers=("2",), seed=1)["passed"]
    assert multiprocessing.active_children() == []


def test_worker_error_reaches_the_parent(monkeypatch, capsys, time_limit):
    # raised in a worker, with its type and message; verify-all exits 3
    def violated(ring):
        raise TheoremViolationError("planted in a worker")

    two_cpus(monkeypatch)
    monkeypatch.setattr(spc, "components", violated)
    with pytest.raises(TheoremViolationError, match="^planted in a worker$"):
        acceptance.run_all(groups=("S3",), fibers=("2",), seed=1)
    assert multiprocessing.active_children() == []
    assert main(["verify-all", "--group", "S3", "--fiber", "2"]) == 3
    assert capsys.readouterr().err == "theorem violation: planted in a worker\n"
    assert multiprocessing.active_children() == []


def test_worker_that_dies_makes_run_all_raise(monkeypatch, time_limit):
    parent = os.getpid()

    def dying(ring):
        if os.getpid() != parent:
            os._exit(7)
        raise AssertionError("the task ran in the parent")

    two_cpus(monkeypatch)
    monkeypatch.setattr(spc, "components", dying)
    with pytest.raises(BrokenProcessPool):
        acceptance.run_all(groups=("S3",), fibers=("2",), seed=1)
    assert multiprocessing.active_children() == []


def test_criterion_4_lists_failures_group_by_group():
    # each group's first wrong product, then its first marks failure, in
    # catalog order, as the other criteria list theirs
    session = acceptance.Session(groups=("C2", "S3", "C6"), fibers=("2",))
    for g, f, (i, j) in (("S3", "2", (1, 2)), ("C2", "1", (1, 1)), ("C6", "1", (1, 1))):
        ring = session.ring(g, f)
        sc = dict(ring.structure_constants(i, j))
        sc[0] = sc.get(0, 0) + 1
        ring._structure[(i, j)] = tuple(sorted(sc.items()))
    result = acceptance.criterion_structure_constants(session)
    assert result["detail"] == ("C2: marks oracle at (1,1); S3/2: s0(1*2); "
                                "C6: marks oracle at (1,1)")


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
