"""Standard basis, double coset products, retraction, functorial maps."""

import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fbr import burnside
from fbr.abelian import HomGroup, dual_character_values, parse_fiber_spec
from fbr.acceptance import CATALOG_GROUPS
from fbr.cyclo import Cyclotomic
from fbr.errors import InputError
from fbr.perm import SubgroupLattice, parse_group_spec
from fbr.ring import (FiberedBurnsideRing, RingElement, build_ring, conjugate,
                      induce, restrict)
from oracles import (_dual_pair_stabilizer, canonicalize_pair_by_values,
                     conj_values_map, index_of_map, multiply_basis_reversed,
                     pair_values_map, restrict_by_scan, values_map)

GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"

GOLDEN = json.loads((Path(__file__).parent / "golden" / "c2_a2.json").read_text())


def int_coeffs(x):
    return {k: int(v.rational_value()) for k, v in x.coeffs.items()}


# -- basis -----------------------------------------------------------------------

def test_basis_c2_a2(ring_factory):
    ring = ring_factory("C2", "2")
    assert ring.rank == 3
    descs = [ring.orbit_descriptor(i) for i in range(3)]
    assert [d["subgroup"]["order"] for d in descs] == [1, 2, 2]
    assert descs[1]["hom"]["images"] == [[0]]
    assert descs[2]["hom"]["images"] == [[1]]


def test_basis_s3_a2(ring_factory):
    assert ring_factory("S3", "2").rank == 6


@pytest.mark.parametrize("spec,classes", [
    ("C2", 2), ("S3", 4), ("D4", 8), ("A4", 5), ("Q8", 6),
])
def test_trivial_fiber_rank_is_class_count(ring_factory, spec, classes):
    assert ring_factory(spec, "1").rank == classes


def test_canonicalize_well_defined(ring_factory):
    ring = ring_factory("S3", "2")
    g = ring.group
    rng = random.Random(3)
    for i in range(ring.rank):
        o = ring.basis.orbits[i]
        values = pair_values_map(ring, i)
        # canonical input returns itself
        assert ring.canonicalize_pair(o.subgroup_id, ring.pair_value(i)) == i
        assert canonicalize_pair_by_values(ring, o.subgroup_id, values) == i
        # arbitrary conjugates land on the same orbit
        for _ in range(4):
            x = rng.randrange(g.order)
            moved = conj_values_map(g, values, x)
            sid = ring.lattice.by_set[frozenset(moved)]
            assert ring.canonicalize_pair(sid, moved.__getitem__) == i
            assert canonicalize_pair_by_values(ring, sid, moved) == i


def per_element_hom_action(ring, rep):
    """hom_action by conjugating every hom's value map by every n in N(H)."""
    hg = ring.hom_group(rep)
    return {n: tuple(index_of_map(hg, conj_values_map(ring.group, values_map(hg, k), n))
                     for k in range(hg.size))
            for n in ring.lattice.normalizer(rep).sorted_elems}


@pytest.mark.parametrize("spec,fiber", [
    (g, f) for g in CATALOG_GROUPS for f in ("1", "2", "6", "2x2")
] + [(GL32, "1"), (GL32, "2")])
def test_hom_action_matches_per_element_oracle(ring_factory, spec, fiber):
    # hom_action keeps the generators' permutations; the stabilizer of a
    # dual character composes them along a walk over all of N(H), which
    # must agree with conjugating by every element of N(H)
    ring = ring_factory(spec, fiber)
    inverse = ring.group.inverse
    for cls in ring.lattice.classes:
        oracle = per_element_hom_action(ring, cls.rep)
        gens = ring.lattice.normalizer(cls.rep).gens
        assert ring.hom_action(cls.rep) == {g: oracle[g] for g in gens}
        for values in dual_character_values(ring.hom_group(cls.rep), ring.level):
            assert _dual_pair_stabilizer(ring, cls.rep, values) == [
                n for n in sorted(oracle)
                if all(values[s] == values[k]
                       for k, s in enumerate(oracle[inverse[n]]))]


@pytest.mark.parametrize("spec,fiber", [
    (g, f) for g in CATALOG_GROUPS for f in ("1", "2", "6", "2x2")
] + [(GL32, "1"), (GL32, "2")])
def test_pullback_matches_value_map_composition(ring_factory, spec, fiber):
    # conjugation by each normalizer generator and restriction to each
    # K <= H, for every class representative H
    ring = ring_factory(spec, fiber)
    group, lattice = ring.group, ring.lattice
    for cls in lattice.classes:
        hg = ring.hom_group(cls.rep)
        for g in lattice.normalizer(cls.rep).gens:
            assert hg.pullback(functools.partial(group.conj, group.inverse[g]), hg) == tuple(
                index_of_map(hg, conj_values_map(group, values_map(hg, k), g))
                for k in range(hg.size))
        for kid in lattice.mobius_row(cls.rep):
            kg = ring.hom_group(kid)
            assert hg.pullback(lambda y: y, kg) == tuple(
                index_of_map(kg, {x: values_map(hg, k)[x] for x in kg.domain})
                for k in range(hg.size))


def test_hom_action_conjugates_generators_only(monkeypatch):
    # building S5/2 on a prebuilt lattice pulls homomorphisms back only
    # along the generators of each normalizer, not along all its elements
    group, fiber = parse_group_spec("S5"), parse_fiber_spec("2")
    lattice = SubgroupLattice(group)
    calls = []
    pullback = HomGroup.pullback

    def counted(self, f, target):
        calls.append(None)
        return pullback(self, f, target)

    monkeypatch.setattr(HomGroup, "pullback", counted)
    FiberedBurnsideRing(group, fiber, lattice=lattice)
    reps = [c.rep for c in lattice.classes]
    bound = sum(len(lattice.normalizer(r).gens) for r in reps)
    assert 0 < len(calls) <= bound < sum(lattice.normalizer(r).order for r in reps)


# -- multiplication -----------------------------------------------------------------

def test_identity_element(ring_factory):
    for spec, fiber in (("C2", "2"), ("S3", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        one = ring.one()
        for i in range(ring.rank):
            x = ring.basis_element(i)
            assert ring.multiply(one, x) == x


def test_golden_products_c2_a2(ring_factory):
    ring = ring_factory("C2", "2")
    for key, want in GOLDEN["products"].items():
        i, j = (int(t) for t in key.split(","))
        got = int_coeffs(ring.multiply(ring.basis_element(i), ring.basis_element(j)))
        assert got == {int(k): v for k, v in want.items()}


def test_commutative_associative_exhaustive(ring_factory):
    for spec, fiber in (("S3", "2"), ("C4", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        n = ring.rank
        elems = [ring.basis_element(i) for i in range(n)]
        for a in range(n):
            for b in range(a, n):
                assert ring.multiply(elems[a], elems[b]) == \
                    ring.multiply(elems[b], elems[a])
        rng = random.Random(11)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(40)] if n > 8 else \
            list(itertools.product(range(n), repeat=3))
        for a, b, c in triples:
            lhs = ring.multiply(ring.multiply(elems[a], elems[b]), elems[c])
            rhs = ring.multiply(elems[a], ring.multiply(elems[b], elems[c]))
            assert lhs == rhs


def test_double_coset_order_independence(ring_factory):
    for spec, fiber in (("S3", "2"), ("D4", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        for i in range(ring.rank):
            for j in range(i, ring.rank):
                assert dict(ring.structure_constants(i, j)) == \
                    multiply_basis_reversed(ring, i, j)


def test_multiply_matches_per_term_reference(kernel_rings, random_element):
    # the old product: one Cyclotomic product and one sum per structure constant
    def reference(ring, x, y):
        out = {}
        for i, a in x.coeffs.items():
            for j, b in y.coeffs.items():
                for k, c in ring.structure_constants(i, j):
                    term = a * b * c
                    out[k] = out[k] + term if k in out else term
        return RingElement(ring, out)

    rng = random.Random(6)
    for ring in kernel_rings:
        elems = [ring.zero(), ring.one()] + [
            random_element(ring, rng, size) for size in (1, 2, 4, ring.rank)]
        assert any(not v.is_rational() or v.den > 1
                   for x in elems for v in x.coeffs.values())
        for x in elems:
            for y in elems:
                prod = ring.multiply(x, y)
                assert prod == reference(ring, x, y)
                assert all(type(a) is int for v in prod.coeffs.values() for a in v.nums)


@pytest.mark.parametrize("spec,fiber", [("S4", "6"), ("A5", "6"), ("Q8", "2x2")])
def test_multiply_commutes_on_random_elements(ring_factory, random_element, spec, fiber):
    # criterion 2 checks e_a e_b once per unordered pair on the strength of this
    ring = ring_factory(spec, fiber)
    rng = random.Random(16)
    elems = [random_element(ring, rng, size) for size in (1, 2, 3, 5, 8)]
    for x in elems:
        for y in elems:
            assert ring.multiply(x, y) == ring.multiply(y, x)


def test_multiply_level_mismatch():
    r1 = build_ring("C2", "2")
    r2 = build_ring("C2", "1")
    with pytest.raises(InputError):
        r1.multiply(r1.one(), r2.one())


def test_add_sub_across_rings(ring_factory):
    x = ring_factory("S3", "2").basis_element(0)
    y = ring_factory("C2", "2").basis_element(1)
    for op in (operator.add, operator.sub):
        with pytest.raises(InputError, match="different rings"):
            op(x, y)


def test_scale_takes_exact_scalars_only(ring_factory):
    ring = ring_factory("C2", "2")
    x = ring.basis_element(0)
    assert x.scale(Fraction(1, 2)) == x.scale(Cyclotomic.from_rational(2, Fraction(1, 2)))
    for elem in (x, ring.zero()):
        with pytest.raises(InputError):
            elem.scale(0.5)


# -- retraction ----------------------------------------------------------------------

def test_pi_retraction(ring_factory):
    ring = ring_factory("S3", "2")
    full = ring.lattice.full_group_id()
    rng = random.Random(5)
    for i in range(ring.rank):
        x = ring.basis_element(i)
        if ring.basis.orbits[i].subgroup_id == full:
            assert ring.pi_retraction(x) == x
        else:
            assert ring.pi_retraction(x).is_zero()
    for _ in range(10):
        x = ring.element_from_ints({rng.randrange(ring.rank): rng.randint(-3, 3)
                                    for _ in range(2)})
        y = ring.element_from_ints({rng.randrange(ring.rank): rng.randint(-3, 3)
                                    for _ in range(2)})
        assert ring.pi_retraction(ring.multiply(x, y)) == \
            ring.multiply(ring.pi_retraction(x), ring.pi_retraction(y))


# -- Burnside ring embedding -----------------------------------------------------------

def test_embed_and_project(ring_factory):
    ring = ring_factory("S3", "2")
    m = len(ring.lattice.classes)
    top = ring.burnside_embed({m - 1: 1})
    assert top == ring.one()
    for c in range(m):
        x = ring.burnside_embed({c: 1})
        proj = {k: int(v.rational_value())
                for k, v in ring.burnside_project(x).items()}
        assert proj == {c: 1}
    # [G/1]^2 = |G| [G/1]
    reg = ring.burnside_embed({0: 1})
    assert ring.multiply(reg, reg) == reg.scale(ring.group.order)


def test_products_match_marks_oracle(ring_factory):
    for spec in ("S3", "D4", "A4", "A5"):
        ring = ring_factory(spec, "1")
        lat = ring.lattice
        marks = burnside.table_of_marks(lat)
        m = len(lat.classes)
        for a in range(m):
            for b in range(a, m):
                oracle = burnside.product_via_marks(lat, a, b, marks)
                xa = ring.burnside_embed({a: 1})
                xb = ring.burnside_embed({b: 1})
                got = {k: int(v.rational_value())
                       for k, v in ring.burnside_project(ring.multiply(xa, xb)).items()}
                assert got == oracle


@pytest.mark.parametrize("spec", [*CATALOG_GROUPS, GL32])
def test_marks_match_unshortened_count(ring_factory, spec):
    # mark() returns 0 when |H| does not divide |K|; the full fixed-point
    # count must agree on every pair of classes
    lat = ring_factory(spec, "1").lattice
    group = lat.group
    for row in lat.classes:
        h = lat.subgroups[row.rep]
        for col in lat.classes:
            k = lat.subgroups[col.rep]
            count = sum(all(group.conj(group.inverse[g], x) in k.elems for x in h.gens)
                        for g in range(group.order))
            assert burnside.mark(lat, row.index, col.index) * k.order == count


def test_table_of_marks_triangular(ring_factory):
    lat = ring_factory("S4", "1").lattice
    marks = burnside.table_of_marks(lat)
    m = len(lat.classes)
    for l in range(m):
        assert marks[l][l] > 0
        for c in range(m):
            if marks[l][c]:
                assert lat.subgroups[lat.classes[l].rep].order <= \
                    lat.subgroups[lat.classes[c].rep].order


# -- induction, restriction, conjugation ------------------------------------------------

def test_restriction_example(ring_factory):
    ring = ring_factory("S3", "2")
    lat = ring.lattice
    a3 = next(s.id for s in lat.subgroups if s.order == 3)
    c2 = next(s.id for s in lat.subgroups if s.order == 2)
    sub_a3 = ring.subring(a3)
    c2_triv = ring.trivial_pair_orbit(lat.class_rep(c2))
    res = restrict(ring.basis_element(c2_triv), sub_a3)
    assert int_coeffs(res) == {0: 1}
    assert sub_a3.basis.orbits[0].subgroup_id == sub_a3.lattice.trivial_id()


@pytest.mark.parametrize("spec,fiber", [
    ("S3", "2"), ("D4", "2x2"), ("Q8", "2"), ("A4", "6"), ("S4", "2"),
])
def test_restrict_matches_independent_scan(ring_factory, spec, fiber):
    # the lattice's double coset memo against a scan of its own, on every
    # basis element and every class representative subgroup
    ring = ring_factory(spec, fiber)
    for cls in ring.lattice.classes:
        sub = ring.subring(cls.rep)
        for b in range(ring.rank):
            x = ring.basis_element(b)
            assert restrict(x, sub) == restrict_by_scan(x, sub)


def test_induce_restrict_identity(ring_factory):
    ring = ring_factory("S3", "2")
    full = ring.lattice.full_group_id()
    sub = ring.subring(full)
    for i in range(ring.rank):
        x = ring.basis_element(i)
        assert int_coeffs(induce(x, sub)) == int_coeffs(x)
        assert int_coeffs(restrict(x, sub)) == int_coeffs(x)


def test_induction_transitivity(ring_factory):
    ring = ring_factory("S3", "2")
    lat = ring.lattice
    a3 = next(s.id for s in lat.subgroups if s.order == 3)
    r_triv = ring.subring(lat.trivial_id())
    r_a3 = ring.subring(a3)
    r_full = ring.subring(lat.full_group_id())
    for i in range(r_triv.rank):
        x = r_triv.basis_element(i)
        assert induce(induce(x, r_a3), r_full) == induce(x, r_full)


def test_restriction_transitivity(ring_factory):
    ring = ring_factory("S3", "2")
    lat = ring.lattice
    a3 = next(s.id for s in lat.subgroups if s.order == 3)
    r_triv = ring.subring(lat.trivial_id())
    r_a3 = ring.subring(a3)
    for i in range(ring.rank):
        x = ring.basis_element(i)
        assert restrict(restrict(x, r_a3), r_triv) == restrict(x, r_triv)


def test_conjugation_is_ring_map(ring_factory):
    ring = ring_factory("S3", "2")
    lat = ring.lattice
    g = ring.group
    c2_ids = [s.id for s in lat.subgroups if s.order == 2]
    src = ring.subring(c2_ids[0])
    mover = next(x for x in range(g.order)
                 if lat.conj_subgroup_id(x, c2_ids[0]) == c2_ids[1])
    dst = ring.subring(c2_ids[1])
    g_images = g.elements[mover]
    for a in range(src.rank):
        for b in range(src.rank):
            xa, xb = src.basis_element(a), src.basis_element(b)
            lhs = conjugate(src.multiply(xa, xb), g_images, dst)
            rhs = dst.multiply(conjugate(xa, g_images, dst),
                               conjugate(xb, g_images, dst))
            assert lhs == rhs


def test_element_json_shape(ring_factory):
    ring = ring_factory("C2", "2")
    doc = ring.one().to_json()
    assert set(doc) == {"basis", "coeffs"}
    assert doc["basis"][0]["subgroup"]["order"] == 2
    assert list(doc["coeffs"]) == ["1"]
