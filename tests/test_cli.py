"""Command line behavior: documents, schemas, caching, exit codes."""

import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

from fbr import abelian, cache, cli
from fbr.abelian import parse_fiber_spec
from fbr.acceptance import CATALOG_FIBERS, CATALOG_GROUPS
from fbr.cli import _emit, _LazyArray, main
from fbr.errors import InvariantViolationError
from fbr.perm import SubgroupLattice, parse_group_spec
from fbr.ring import FiberedBurnsideRing, RingElement, build_ring

SCHEMA_DIR = Path(__file__).parent.parent / "schemas"

try:
    import jsonschema
    from referencing import Registry, Resource
    HAVE_JSONSCHEMA = True
except ImportError:
    HAVE_JSONSCHEMA = False

needs_jsonschema = pytest.mark.skipif(not HAVE_JSONSCHEMA,
                                      reason="jsonschema not installed")


def package_env():
    """The environment with the package's source first on PYTHONPATH."""
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def validate(doc, schema_name):
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        registry = registry.with_resource(resource.contents["$id"], resource)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(doc, schema, registry=registry)


@needs_jsonschema
def test_basis_document(capsys):
    code, out = run(capsys, "basis", "--group", "C2", "--fiber", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    validate(doc, "basis.json")


@needs_jsonschema
def test_multiply_document(capsys):
    code, out = run(capsys, "multiply", "--group", "C2", "--fiber", "2", "0", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["product"]["coeffs"]["0"]["coeffs"] == ["2/1"]
    validate(doc, "multiply.json")


@needs_jsonschema
def test_species_document(capsys):
    code, out = run(capsys, "species", "--group", "S3", "--fiber", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["values"]) == 6
    validate(doc, "species.json")


@needs_jsonschema
def test_idempotents_document(capsys):
    code, out = run(capsys, "idempotents", "--group", "C2", "--fiber", "2")
    assert code == 0
    validate(json.loads(out), "idempotents.json")


@needs_jsonschema
def test_spectrum_document(capsys):
    code, out = run(capsys, "spectrum", "--group", "S3", "--fiber", "2",
                    "--char", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["characteristic"] == 2
    assert len(doc["classes"]) == 2
    validate(doc, "spectrum.json")
    code, out = run(capsys, "spectrum", "--group", "S3", "--fiber", "2",
                    "--char", "0")
    doc = json.loads(out)
    assert doc["ideal"] is None
    validate(doc, "spectrum.json")


@needs_jsonschema
def test_blocks_document(capsys):
    code, out = run(capsys, "blocks", "--group", "A5", "--fiber", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 2
    validate(doc, "blocks.json")


@needs_jsonschema
def test_weyl_document(capsys):
    code, out = run(capsys, "weyl", "--group", "S5", "--fiber", "2",
                    "--perfect", "A5")
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_group_order"] == 2
    assert len(doc["bijection"]) == 3
    assert doc["verified"] is True
    validate(doc, "weyl.json")


@needs_jsonschema
def test_verify_all_document(capsys):
    code, out = run(capsys, "verify-all", "--group", "S3", "--fiber", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 9
    validate(doc, "verify-all.json")


def test_exit_codes(capsys):
    code, _ = run(capsys, "basis", "--group", "X9", "--fiber", "1")
    assert code == 1
    code, _ = run(capsys, "basis", "--group", "S8", "--fiber", "1")
    assert code == 2
    code, _ = run(capsys, "multiply", "--group", "C2", "--fiber", "2", "0", "7")
    assert code == 1
    code, _ = run(capsys, "weyl", "--group", "S3", "--fiber", "2",
                  "--perfect", "C2")
    assert code == 1
    # usage errors are input errors too, not the resource cap's exit 2
    code = main(["basis"])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: ")
    # the order cap is fixed, not an option
    code = main(["basis", "--group", "S3", "--cap-order", "10"])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: unrecognized arguments")
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--help"])
    assert exc.value.code == 0


def test_byte_identical_runs(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "verify-all", "--group", "S3", "--fiber", "2",
                        "--seed", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out = run(capsys, "species", "--group", "C6", "--fiber", "6")
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out = run(capsys, "blocks", "--group", "A5", "--fiber", "2")
        outs.append(out)
    assert outs[0] == outs[1]


def test_table_format(capsys):
    code, out = run(capsys, "species", "--group", "C2", "--fiber", "2",
                    "--format", "table")
    assert code == 0
    assert out.splitlines() == [" 2  1  1", " 0  1  1", " 0  1 -1"]


TABLES = json.loads((Path(__file__).parent / "golden" / "tables.json").read_text())


@pytest.mark.parametrize("argv", sorted(TABLES["tables"]))
def test_table_format_golden(capsys, argv):
    code, out = run(capsys, *shlex.split(argv))
    assert code == 0
    assert out.splitlines() == TABLES["tables"][argv]


DIGESTS = json.loads((Path(__file__).parent / "golden" / "documents.json").read_text())


@pytest.mark.parametrize("argv", sorted(DIGESTS["digests"]))
def test_document_digest_golden(capsys, argv):
    # documents too large to keep whole: species, idempotents and spectrum
    # at every p dividing |G|, whose dual order and character descriptors
    # (order, hom_generators, exponents) the table goldens do not show,
    # basis, whose orbit order and canonical homomorphisms they do not
    # show either, and weyl, whose bijection they show by index only
    code, out = run(capsys, *shlex.split(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["digests"][argv]


@pytest.mark.parametrize("spec", ["perm:5:(1 2 3 4 5);(1 2 3)",
                                  "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"],
                         ids=["A5", "GL32"])
def test_verify_all_outside_catalog(capsys, spec):
    # a nonsolvable group outside the catalog names has one block per
    # class of perfect subgroups, as A5 and S5 do inside it
    code, out = run(capsys, "verify-all", "--group", spec, "--fiber", "1",
                    "--format", "table")
    assert code == 0
    assert "FAIL" not in out
    assert "1 cases verified" in out


@needs_jsonschema
def test_verify_all_skips_weyl_without_perfect_class(capsys):
    # S3 has no nontrivial perfect subgroup, so criterion 8 checks nothing
    # and says so instead of passing
    spec = "perm:3:(1 2 3);(1 2)"
    code, out = run(capsys, "verify-all", "--group", spec, "--fiber", "1",
                    "--format", "table")
    assert code == 0
    assert "SKIP  8. weyl-isomorphism  no nontrivial perfect class to check" \
        in out.splitlines()
    assert out.splitlines()[-1] == "overall PASS"
    code, out = run(capsys, "verify-all", "--group", spec, "--fiber", "1")
    doc = json.loads(out)
    validate(doc, "verify-all.json")
    skipped = [c for c in doc["criteria"] if c.get("skipped")]
    assert [(c["id"], c["passed"]) for c in skipped] == [(8, True)]


def test_verify_all_skip_names_the_weyl_case_list(capsys):
    # A5 at fiber 6 has a nontrivial perfect class (A5 itself), but the
    # catalog checks criterion 8 at fibers 1 and 2 only
    code, out = run(capsys, "verify-all", "--group", "A5", "--fiber", "6",
                    "--format", "table")
    assert code == 0
    assert "SKIP  8. weyl-isomorphism  catalog checks A5 and S5 at fibers 1 and 2 only" \
        in out.splitlines()
    assert out.splitlines()[-1] == "overall PASS"


# -- cache ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path, ring_factory):
    ring = ring_factory("S3", "2")
    path = cache.save_session(tmp_path, ring, "S3", "2")
    # an entry holds the subgroup sets and the basis, no structure constants
    assert set(json.loads(path.read_text())) == {
        "format_version", "digest", "subgroups", "basis", "checksum"}
    loaded = cache.load_session(tmp_path, "S3", "2")
    assert loaded is not None
    assert [(o.subgroup_id, o.hom_index) for o in loaded.basis.orbits] == \
        [(o.subgroup_id, o.hom_index) for o in ring.basis.orbits]
    # loaded ring computes identical constants
    for i in range(ring.rank):
        for j in range(ring.rank):
            assert loaded.structure_constants(i, j) == ring.structure_constants(i, j)


def test_cache_corruption_recovers(tmp_path, ring_factory, capsys):
    ring = ring_factory("S3", "2")
    path = cache.save_session(tmp_path, ring, "S3", "2")
    path.write_text(path.read_text().replace('"subgroups"', '"subgroup"', 1))
    assert cache.load_session(tmp_path, "S3", "2") is None
    assert "recomputing" in capsys.readouterr().err


@pytest.mark.parametrize("structure", [
    [], {"0,1": [[999, 1]]}, {"3,1": [[0, 1]]}, {"0,1": [[0, "1"]]},
    {"1,2": [[0, 5], [2, 1]]},
], ids=["not_dict", "orbit_out_of_range", "key_order", "not_int", "wrong_degree"])
def test_cache_entry_with_malformed_structure_is_recomputed(
        tmp_path, ring_factory, capsys, structure):
    # this format stores no structure constants: an entry carrying a
    # structure field, of whatever shape, is refused, recomputed and
    # rewritten without it
    args = ("multiply", "--group", "S3", "--fiber", "2", "0", "1")
    code, plain = run(capsys, *args)
    assert code == 0
    path = cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")
    payload = json.loads(path.read_text())
    payload["structure"] = structure
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    assert cache.load_session(tmp_path, "S3", "2") is None
    assert "recomputing" in capsys.readouterr().err
    code = main([*args, "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert "recomputing" in out.err
    assert "structure" not in json.loads(path.read_text())


@pytest.mark.parametrize("text", ['{"format_version": 1, "ch', "[]"])
def test_cache_unreadable_entry_recovers(tmp_path, ring_factory, capsys, text):
    # a truncated entry and a well-formed entry that is not an object
    path = cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")
    path.write_text(text)
    assert cache.load_session(tmp_path, "S3", "2") is None
    assert "recomputing" in capsys.readouterr().err


def test_cache_load_propagates_bugs(tmp_path, ring_factory, monkeypatch):
    cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")

    def broken(payload, group_spec, fiber_spec):
        raise AttributeError("a bug, not a corrupt entry")

    monkeypatch.setattr(cache, "ring_from_payload", broken)
    with pytest.raises(AttributeError):
        cache.load_session(tmp_path, "S3", "2")


def test_cache_load_propagates_a_build_error(tmp_path, ring_factory, monkeypatch, capsys):
    # the payload's shape is checked before the build, so a KeyError from
    # inside the lattice is a bug, not an unusable entry
    cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")

    def broken(lattice):
        raise KeyError("a bug in the lattice")

    monkeypatch.setattr(SubgroupLattice, "_build_classes", broken)
    with pytest.raises(KeyError, match="a bug in the lattice"):
        cache.load_session(tmp_path, "S3", "2")
    assert "recomputing" not in capsys.readouterr().err


def test_cache_save_leaves_no_temp_file(tmp_path, ring_factory, monkeypatch):
    ring = ring_factory("S3", "2")
    path = cache.save_session(tmp_path, ring, "S3", "2")
    assert list(tmp_path.iterdir()) == [path]
    # a failed rename leaves the old entry and no temporary file behind
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cache.save_session(tmp_path, ring, "S3", "2")
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_cache_hit_respects_order_cap(tmp_path, capsys):
    # a stored group over the order cap exits 2, as building it does,
    # instead of being recomputed
    payload = {"format_version": cache.FORMAT_VERSION,
               "digest": cache.session_key("S8", "1"),
               "subgroups": [], "basis": []}
    payload["checksum"] = cache._payload_checksum(payload)
    cache.cache_path(tmp_path, "S8", "1").write_text(json.dumps(payload))
    code = main(["basis", "--group", "S8", "--cache-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ")
    assert "recomputing" not in err


def test_cache_entry_from_other_level_loads_at_natural_level(tmp_path, capsys):
    # the basis does not depend on the level
    code, plain = run(capsys, "basis", "--group", "S3", "--fiber", "2")
    assert code == 0
    ring = FiberedBurnsideRing(parse_group_spec("S3"), parse_fiber_spec("2"),
                               level=12)
    cache.save_session(tmp_path, ring, "S3", "2")
    code = main(["basis", "--group", "S3", "--fiber", "2",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert out.err == ""
    loaded = cache.load_session(tmp_path, "S3", "2")
    assert loaded.level == 2


@pytest.mark.parametrize("key,edit", [
    # the stored basis no longer matches the one rebuilt on the lattice
    ("basis", lambda basis: basis[::-1]),
    # the digest is the key of another group spec
    ("digest", lambda digest: cache.session_key("C3", "2")),
], ids=["basis", "group_spec"])
def test_cache_entry_edited_and_rechecksummed_is_recomputed(
        tmp_path, ring_factory, capsys, key, edit):
    path = cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")
    payload = json.loads(path.read_text())
    payload[key] = edit(payload[key])
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    assert cache.load_session(tmp_path, "S3", "2") is None
    assert "recomputing" in capsys.readouterr().err
    code, _ = run(capsys, "basis", "--group", "S3", "--fiber", "2",
                  "--cache-dir", str(tmp_path))
    assert code == 0
    assert cache.load_session(tmp_path, "S3", "2") is not None


def test_cache_entry_of_another_key_is_recomputed(tmp_path, ring_factory, capsys):
    # an S4 entry copied to the path of S5 is not read as S5's
    args = ("basis", "--group", "S5", "--fiber", "2", "--format", "table")
    code, plain = run(capsys, *args)
    assert code == 0
    src = cache.save_session(tmp_path, ring_factory("S4", "2"), "S4", "2")
    cache.cache_path(tmp_path, "S5", "2").write_text(src.read_text())
    code = main([*args, "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert "recomputing" in out.err


def test_cache_entry_with_a_stored_spec_is_recomputed(tmp_path, ring_factory, capsys):
    # a stored fiber spec, a field of format 3, here not even a string
    args = ("basis", "--group", "S4", "--fiber", "2")
    code, plain = run(capsys, *args)
    assert code == 0
    path = cache.save_session(tmp_path, ring_factory("S4", "2"), "S4", "2")
    payload = json.loads(path.read_text())
    payload["fiber_spec"] = 2
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    code = main([*args, "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert "recomputing" in out.err


def _drop_class_member(subgroups):
    # one member of a class of order-2 subgroups goes missing
    return subgroups[:1] + subgroups[2:]


def _non_closed_4_set(subgroups):
    # a 4-subgroup trades its last element for one outside it
    i = next(i for i, s in enumerate(subgroups) if len(s) == 4)
    outside = next(x for x in range(24) if x not in subgroups[i])
    return subgroups[:i] + [subgroups[i][:3] + [outside]] + subgroups[i + 1:]


def _drop_class(subgroups):
    # every subgroup of order 8 (one class, the Sylow 2-subgroups) goes
    return [s for s in subgroups if len(s) != 8]


def _out_of_range(subgroups):
    return [[0, 99]] + subgroups[1:]


def _drop_a4(subgroups):
    # A4 normalizes only itself, so the classes build; the derived
    # subgroup of S4 is then missing
    return [s for s in subgroups if len(s) != 12]


def _not_ints(subgroups):
    return [[str(x) for x in subgroups[0]]] + subgroups[1:]


@pytest.mark.parametrize("edit", [
    _drop_class_member, _non_closed_4_set, _drop_class, _out_of_range, _drop_a4,
    _not_ints,
], ids=["member", "non_closed", "class", "out_of_range", "derived", "not_ints"])
def test_cache_entry_with_edited_subgroups_is_recomputed(
        tmp_path, ring_factory, capsys, edit):
    args = ("idempotents", "--group", "S4", "--fiber", "2")
    code, plain = run(capsys, *args)
    assert code == 0
    path = cache.save_session(tmp_path, ring_factory("S4", "2"), "S4", "2")
    payload = json.loads(path.read_text())
    payload["subgroups"] = edit(payload["subgroups"])
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    code = main([*args, "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert "recomputing" in out.err
    assert cache.load_session(tmp_path, "S4", "2") is not None


def test_cache_entry_with_reordered_subgroups_loads(tmp_path, ring_factory, capsys):
    # the lattice sorts the stored sets itself, so their order is free
    args = ("idempotents", "--group", "S4", "--fiber", "2")
    code, plain = run(capsys, *args)
    assert code == 0
    path = cache.save_session(tmp_path, ring_factory("S4", "2"), "S4", "2")
    payload = json.loads(path.read_text())
    payload["subgroups"] = payload["subgroups"][::-1]
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    stored = path.read_bytes()
    code = main([*args, "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    assert out.err == ""
    # a usable entry is not rewritten, in canonical order or otherwise
    assert path.read_bytes() == stored


def test_cache_entry_with_a_non_subgroup_is_refused(tmp_path, ring_factory, capsys):
    # a normal set that is no subgroup, re-checksummed: the lattice build
    # refuses it before the basis is compared, and the entry is unusable
    path = cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")
    payload = json.loads(path.read_text())
    group = parse_group_spec("S3")
    involutions = [x for x in range(group.order) if group.element_orders[x] == 2]
    payload["subgroups"].append([0, *involutions])
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload, sort_keys=True))
    with pytest.raises(InvariantViolationError, match="not a subgroup"):
        cache.ring_from_payload(payload, "S3", "2")
    assert cache.load_session(tmp_path, "S3", "2") is None
    assert capsys.readouterr().err == f"notice: cache entry {path.name} unusable, recomputing\n"


def assert_recomputed_once(capsys, args, path):
    """The entry at path, of an older format, is recomputed with a notice
    and rewritten in this format, which the next call reads quietly."""
    code = main(list(args))
    first = capsys.readouterr()
    assert code == 0
    assert "recomputing" in first.err
    assert json.loads(path.read_text())["format_version"] == cache.FORMAT_VERSION
    code = main(list(args))
    second = capsys.readouterr()
    assert code == 0
    assert second.out == first.out
    assert second.err == ""


def test_cache_entry_of_format_2_is_recomputed_once(tmp_path, ring_factory, capsys):
    args = ("basis", "--group", "S3", "--fiber", "2", "--cache-dir", str(tmp_path))
    path = cache.save_session(tmp_path, ring_factory("S3", "2"), "S3", "2")
    payload = json.loads(path.read_text())
    lattice = ring_factory("S3", "2").lattice
    payload.update(format_version=2, class_index=lattice.class_index,
                   to_rep=lattice.to_rep, normalizers=lattice.normalizer_ids,
                   classes=[{"rep": c.rep, "members": list(c.members)}
                            for c in lattice.classes])
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    assert_recomputed_once(capsys, args, path)


def test_cache_entry_of_format_4_is_recomputed_once(tmp_path, ring_factory, capsys):
    # format 4 stored the structure constants as "i,j" -> [[k, c], ...]
    args = ("multiply", "--group", "S3", "--fiber", "2", "1", "2",
            "--cache-dir", str(tmp_path))
    ring = ring_factory("S3", "2")
    path = cache.save_session(tmp_path, ring, "S3", "2")
    payload = json.loads(path.read_text())
    payload.update(format_version=4, structure={
        f"{i},{j}": [list(t) for t in ring.structure_constants(i, j)]
        for i in range(ring.rank) for j in range(i, ring.rank)})
    payload["checksum"] = cache._payload_checksum(payload)
    path.write_text(json.dumps(payload))
    assert_recomputed_once(capsys, args, path)
    assert "structure" not in json.loads(path.read_text())


def test_warm_verb_writes_no_entry(tmp_path, capsys, monkeypatch):
    args = ("blocks", "--group", "S4", "--fiber", "2", "--cache-dir", str(tmp_path))
    code, cold = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.iterdir()
    stored, mtime = path.read_bytes(), path.stat().st_mtime_ns
    saves = []
    monkeypatch.setattr(cache, "save_session", lambda *a: saves.append(a))
    code = main(list(args))
    out = capsys.readouterr()
    assert code == 0
    assert out.out == cold
    assert out.err == ""
    assert saves == []
    assert path.read_bytes() == stored
    assert path.stat().st_mtime_ns == mtime


def test_unwritable_cache_dir_costs_a_notice(tmp_path, capsys):
    # a --cache-dir that is a regular file cannot hold entries; the
    # document is printed in full and the call still succeeds
    args = ("basis", "--group", "S3", "--fiber", "2")
    code, plain = run(capsys, *args)
    assert code == 0
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code = main([*args, "--cache-dir", str(not_a_dir)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == plain
    [line] = out.err.splitlines()
    assert line.startswith("notice: cannot write cache entry ")
    assert not_a_dir.read_text() == ""


def test_hom_cap_exits_2(capsys, monkeypatch):
    # Hom(C4, C4) has four elements
    monkeypatch.setattr(abelian, "HOM_CAP", 2)
    code = main(["basis", "--group", "C4", "--fiber", "4"])
    assert code == 2
    assert "resource limit" in capsys.readouterr().err


def test_cache_keys_distinct():
    assert cache.session_key("S3", "2") != cache.session_key("S3", "6")
    assert cache.session_key("S3", "2") != cache.session_key("S4", "2")
    assert cache.session_key("S3", "A=2") == cache.session_key("S3", "2")


# the catalog's groups and fibers and GL(3,2), the benchmark's second ring
GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"
DIGEST_SPECS = [(g, f) for g in (*CATALOG_GROUPS, GL32) for f in CATALOG_FIBERS]


def test_cache_digests_are_hashlib_sha256(ring_factory):
    # the built-in SHA-256 gives hashlib's hex of the same canonical
    # text, so the file names and entries of format 5 are unchanged
    for group_spec, fiber_spec in DIGEST_SPECS:
        canon = json.dumps({"group": group_spec, "fiber": list(
            parse_fiber_spec(fiber_spec).invariant_factors)}, sort_keys=True)
        assert cache.session_key(group_spec, fiber_spec) == \
            hashlib.sha256(canon.encode()).hexdigest()
    for group_spec in (*CATALOG_GROUPS, GL32):
        payload = cache.ring_payload(ring_factory(group_spec, "2"), group_spec, "2")
        body = {k: v for k, v in payload.items() if k != "checksum"}
        canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert payload["checksum"] == cache._payload_checksum(payload) == \
            hashlib.sha256(canon.encode()).hexdigest()


def test_cache_entry_with_hashlib_digests_loads(tmp_path, ring_factory, capsys):
    # an entry of format 5 whose key and checksum hashlib computed, as
    # written before the cache used the built-in SHA-256
    ring = ring_factory("S4", "2")
    payload = {"format_version": 5,
               "subgroups": [list(s.sorted_elems) for s in ring.lattice.subgroups],
               "basis": [[o.subgroup_id, o.hom_index] for o in ring.basis.orbits]}
    payload["digest"] = hashlib.sha256(
        b'{"fiber": [2], "group": "S4"}').hexdigest()
    payload["checksum"] = hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    text = json.dumps(payload, sort_keys=True)
    path = tmp_path / f"{payload['digest']}.json"
    path.write_text(text)
    args = ["blocks", "--group", "S4", "--fiber", "2"]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert main([*args, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == (cold.out, "")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    # what the cache writes for the same ring is byte for byte that entry
    path.unlink()
    assert cache.save_session(tmp_path, ring, "S4", "2").read_text() == text


def test_cache_digests_without_builtin_sha256_fall_back_to_hashlib():
    # a build without CPython's built-in hashes digests through hashlib
    code = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from fbr import cache
from fbr.ring import build_ring
import hashlib
ring = build_ring("S3", "2")
print(json.dumps([cache.sha256 is hashlib.sha256,
                  [cache.session_key(g, f) for g, f in json.loads(sys.argv[1])],
                  cache.ring_payload(ring, "S3", "2")["checksum"]]))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(DIGEST_SPECS)],
                          env=package_env(), capture_output=True, text=True, check=True)
    fallback, keys, checksum = json.loads(proc.stdout)
    assert fallback
    assert keys == [cache.session_key(g, f) for g, f in DIGEST_SPECS]
    assert checksum == cache.ring_payload(build_ring("S3", "2"), "S3", "2")["checksum"]


# Standard library only, so any CPython >= 3.10 runs it: two cached
# `basis --group S3 --fiber 2` calls (the second a hit) that never load
# hashlib, then the key against hashlib's digest; prints the module of
# the SHA-256 in use.
CROSS_VERSION_SNIPPET = """
import contextlib, io, os, sys
from fbr import cache
from fbr.cli import main
argv = ["basis", "--group", "S3", "--fiber", "2", "--cache-dir", sys.argv[1]]
outs = []
for _ in range(2):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert err.getvalue() == "", err.getvalue()
    outs.append(out.getvalue())
assert outs[0] == outs[1] and len(os.listdir(sys.argv[1])) == 1
assert "_hashlib" not in sys.modules and "hashlib" not in sys.modules
import hashlib
canon = b'{"fiber": [2], "group": "S3"}'
assert cache.session_key("S3", "2") == hashlib.sha256(canon).hexdigest()
print(type(cache.sha256(b"")).__module__)
"""


def other_cpythons():
    """{minor: path} of each CPython 3.<minor> >= 3.10 other than this
    one whose `python3.<minor>` on PATH starts (a version manager's
    shim may be on PATH for a version it does not select)."""
    found = {}
    for minor in range(10, 30):
        path = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or path is None:
            continue
        probe = subprocess.run(
            [path, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
            capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", "3", str(minor)]:
            found[minor] = path
    return found


def test_cache_on_other_cpythons(tmp_path):
    pythons = other_cpythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 on PATH")
    for minor, path in pythons.items():
        # -S: no site hook may import hashlib before the snippet looks
        proc = subprocess.run(
            [path, "-S", "-c", CROSS_VERSION_SNIPPET, str(tmp_path / str(minor))],
            env=package_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (path, proc.stderr)
        assert proc.stdout.strip() == ("_sha2" if minor >= 12 else "_sha256")


def test_closed_stdout_exits_quietly():
    # the reader of stdout is gone before anything is written, as with
    # `fbr basis ... | head`; S5/2 species is a document of several
    # write batches
    env = package_env()
    for argv in (["basis", "--group", "S3", "--fiber", "2"],
                 ["species", "--group", "S5", "--fiber", "2"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fbr", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class CountingStdout(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


RING_VERBS = [["basis"], ["multiply", "3", "7"], ["species"], ["idempotents"],
              ["spectrum", "--char", "2"], ["blocks"], ["weyl", "--perfect", "1"]]


def test_documents_are_written_in_bounded_batches(tmp_path, monkeypatch):
    # a document is never written as one string: at most 65,536
    # characters a write, and no more writes than batches of that size
    # and the final newline need
    for verb in RING_VERBS:
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main([*verb, "--group", "S5", "--fiber", "2", "--cache-dir", str(tmp_path)])
        text = out.getvalue()
        assert code == 0
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert max(out.writes) <= 65536
        assert len(out.writes) <= -(-len(text) // 65536) + 1


def test_lazy_array_is_formed_as_it_is_written(monkeypatch):
    # _emit writes a document holding a lazy array exactly as json.dumps
    # writes the eager list, forming each item once, in order, and not
    # all of them before the first write
    n = 3000
    formed = []

    def item(i):
        formed.append(i)
        return {"index": i, "name": f"item {i:>40}"}

    class Recording(io.StringIO):
        def __init__(self):
            super().__init__()
            self.formed_at_write = []

        def write(self, text):
            self.formed_at_write.append(len(formed))
            return super().write(text)

    doc = {"rank": n, "items": _LazyArray(n, item), "empty": _LazyArray(0, item)}
    eager = {"rank": n, "items": [item(i) for i in range(n)], "empty": []}
    formed.clear()
    out = Recording()
    monkeypatch.setattr(sys, "stdout", out)
    _emit(Namespace(format="json"), doc, iter(()))
    assert out.getvalue() == json.dumps(eager, sort_keys=True, indent=2) + "\n"
    assert formed == list(range(n))
    assert len(out.formed_at_write) > 1 and out.formed_at_write[0] < n
    # the encoder _emit runs forms item i only after it has yielded item i - 1
    # and before it yields item i
    pieces = []
    seen = []

    def marked(i):
        seen.append("".join(pieces))
        return f"item {i}"

    for piece in json.JSONEncoder(sort_keys=True, indent=2).iterencode(
            {"items": _LazyArray(4, marked)}):
        pieces.append(piece)
    assert len(seen) == 4
    for i, before in enumerate(seen):
        assert f'"item {i}"' not in before
        assert i == 0 or f'"item {i - 1}"' in before


def test_json_documents_render_no_table_line(monkeypatch, capsys):
    # a JSON call forms none of its table lines: rendering a cyclotomic
    # value or an element is refused, and every ring verb still succeeds
    def refuse(*args):
        raise AssertionError("a table line was rendered")

    monkeypatch.setattr(cli, "render_cyclotomic", refuse)
    monkeypatch.setattr(RingElement, "render", refuse)
    for verb in RING_VERBS:
        code, out = run(capsys, *verb, "--group", "S5", "--fiber", "2")
        assert code == 0
        assert json.loads(out)["command"] == verb[0]
    with pytest.raises(AssertionError, match="table line"):
        main(["species", "--group", "S3", "--fiber", "2", "--format", "table"])


def test_cache_from_cli(tmp_path, capsys):
    code, out1 = run(capsys, "basis", "--group", "S3", "--fiber", "2",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, out2 = run(capsys, "basis", "--group", "S3", "--fiber", "2",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert out1 == out2
