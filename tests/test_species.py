"""Dual orbits, species values, the table, and the primitive idempotents."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fbr import burnside
from fbr import species as sp
from fbr.cyclo import Cyclotomic
from fbr.errors import InputError, InvariantViolationError
from fbr.ring import build_ring

GOLDEN = json.loads((Path(__file__).parent / "golden" / "c2_a2.json").read_text())


def as_int(v):
    assert v.is_integer()
    return int(v.rational_value())


# -- dual orbits -------------------------------------------------------------------

def test_dual_orbit_counts(ring_factory):
    assert len(sp.dual_orbits(ring_factory("C2", "2"))) == 3
    assert len(sp.dual_orbits(ring_factory("S3", "2"))) == 6
    for spec in ("S3", "D4", "A4"):
        ring = ring_factory(spec, "1")
        assert len(sp.dual_orbits(ring)) == len(ring.lattice.classes)


def test_dual_orbits_match_rank_everywhere(ring_factory):
    for spec, fiber in (("C6", "6"), ("Q8", "2"), ("S4", "2")):
        ring = ring_factory(spec, fiber)
        assert len(sp.dual_orbits(ring)) == ring.rank


def test_orbit_stabilizer_identity_on_orbits(ring_factory):
    for spec, fiber in (("S3", "2"), ("D4", "2x4")):
        ring = ring_factory(spec, fiber)
        for o in ring.basis.orbits:
            assert o.orbit_size * o.stabilizer_order == ring.group.order
        for d in sp.dual_orbits(ring):
            assert d.orbit_size * d.stabilizer_order == ring.group.order


# -- species values ------------------------------------------------------------------

def test_species_table_golden(ring_factory):
    ring = ring_factory("C2", "2")
    table = sp.species_table(ring)
    assert [[as_int(v) for v in row] for row in table] == GOLDEN["species_table"]
    det = sp.species_determinant(ring)
    assert as_int(det) == GOLDEN["determinant"]


def test_species_normalizer_index_on_trivial_pairs(ring_factory):
    # value on [H, 1] at the dual pair of the same subgroup is [N(H) : H]
    for spec, fiber in (("S3", "2"), ("D4", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        lat = ring.lattice
        for d in sp.dual_orbits(ring):
            sub = lat.subgroups[d.subgroup_id]
            norm = lat.subgroups[lat.normalizer_ids[d.subgroup_id]]
            b = ring.trivial_pair_orbit(d.subgroup_id)
            v = sp.species_value(ring, d.index, b)
            assert as_int(v) == norm.order // sub.order


def test_species_of_trivial_dual_on_regular_orbit(ring_factory):
    ring = ring_factory("S3", "2")
    v = sp.species_value(ring, 0, 0)   # both indexed at the trivial subgroup
    assert as_int(v) == ring.group.order


def test_species_of_full_group_kills_proper(ring_factory):
    ring = ring_factory("S3", "2")
    full = ring.lattice.full_group_id()
    full_duals = [d for d in sp.dual_orbits(ring) if d.subgroup_id == full]
    for d in full_duals:
        for b in range(ring.rank):
            if ring.basis.orbits[b].subgroup_id != full:
                assert sp.species_value(ring, d.index, b).is_zero()


def test_trivial_fiber_table_is_table_of_marks(ring_factory):
    for spec in ("S3", "D4", "A4"):
        ring = ring_factory(spec, "1")
        table = sp.species_table(ring)
        marks = burnside.table_of_marks(ring.lattice)
        got = [[as_int(v) for v in row] for row in table]
        assert got == marks


def test_species_rows_distinct_and_integral(ring_factory):
    for spec, fiber in (("S3", "6"), ("C6", "6"), ("S4", "2")):
        ring = ring_factory(spec, fiber)
        table = sp.species_table(ring)
        assert len(set(table)) == len(table)
        for row in table:
            for v in row:
                assert v.den == 1


def test_composite_map_oracle(ring_factory):
    for spec, fiber in (("C2", "2"), ("S3", "2"), ("C6", "6")):
        ring = ring_factory(spec, fiber)
        for d in range(ring.rank):
            for b in range(ring.rank):
                assert sp.species_value(ring, d, b) == \
                    sp.species_value_composite(ring, d, b)


def test_apply_species_is_ring_hom(ring_factory):
    ring = ring_factory("S3", "6")
    rng = random.Random(17)
    one = ring.one()
    for d in range(ring.rank):
        assert sp.apply_species(ring, d, one) == Cyclotomic.one(ring.level)
        for _ in range(6):
            a = rng.randrange(ring.rank)
            b = rng.randrange(ring.rank)
            prod = ring.multiply(ring.basis_element(a), ring.basis_element(b))
            assert sp.apply_species(ring, d, prod) == \
                sp.species_table(ring)[d][a] * sp.species_table(ring)[d][b]


# -- idempotents ------------------------------------------------------------------------

def test_idempotents_golden(ring_factory):
    ring = ring_factory("C2", "2")
    for d, want in enumerate(GOLDEN["idempotents"]):
        e = sp.idempotent(ring, d)
        got = {str(k): str(v.rational_value()) for k, v in e.coeffs.items()}
        assert got == want


def test_idempotent_delta_property(ring_factory):
    for spec, fiber in (("C2", "2"), ("S3", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        for a in range(ring.rank):
            ea = sp.idempotent(ring, a)
            for b in range(ring.rank):
                v = sp.apply_species(ring, b, ea)
                assert v == Cyclotomic.from_rational(ring.level, 1 if a == b else 0)


def test_idempotent_orthogonality_and_unity(ring_factory):
    for spec, fiber in (("C2", "2"), ("S3", "2"), ("C6", "6")):
        ring = ring_factory(spec, fiber)
        total = ring.zero()
        for d in range(ring.rank):
            total = total + sp.idempotent(ring, d)
        assert total == ring.one()
        for a in range(ring.rank):
            for b in range(a, ring.rank):
                prod = ring.multiply(sp.idempotent(ring, a), sp.idempotent(ring, b))
                want = sp.idempotent(ring, a) if a == b else ring.zero()
                assert prod == want


def classical_burnside_idempotent(ring, class_rep):
    """Oracle: the trivial-fiber idempotent of one subgroup class, from
    the classical normalizer-and-Moebius formula over marks."""
    lat = ring.lattice
    norm = lat.subgroups[lat.normalizer_ids[class_rep]].order
    acc = {}
    for kid in lat.subs_of[class_rep]:
        mu = lat.mobius(kid, class_rep)
        if mu == 0:
            continue
        weight = Fraction(lat.subgroups[kid].order * mu, norm)
        cidx = lat.class_index[kid]
        acc[cidx] = acc.get(cidx, Fraction(0)) + weight
    out = ring.zero()
    for cidx, w in acc.items():
        out = out + ring.burnside_embed({cidx: 1}).scale(w)
    return out


def test_idempotents_match_classical_burnside_formula(ring_factory):
    for spec in ("C2", "S3", "A4"):
        ring = ring_factory(spec, "1")
        duals = sp.dual_orbits(ring)
        for d in duals:
            oracle = classical_burnside_idempotent(ring, d.subgroup_id)
            assert sp.idempotent(ring, d.index) == oracle


def test_idempotent_coordinates(ring_factory):
    ring = ring_factory("S3", "2")
    coords = sp.idempotent_coordinates(ring, ring.one())
    assert all(c == Cyclotomic.one(ring.level) for c in coords)
    for d in range(ring.rank):
        coords = sp.idempotent_coordinates(ring, sp.idempotent(ring, d))
        for i, c in enumerate(coords):
            assert c == Cyclotomic.from_rational(ring.level, 1 if i == d else 0)
    # reconstruction of random integral elements
    rng = random.Random(23)
    for _ in range(5):
        x = ring.element_from_ints({rng.randrange(ring.rank): rng.randint(-4, 4)
                                    for _ in range(3)})
        coords = sp.idempotent_coordinates(ring, x)
        rebuilt = ring.zero()
        for d, c in enumerate(coords):
            rebuilt = rebuilt + sp.idempotent(ring, d).scale(c)
        assert rebuilt == x


def test_species_values_match_per_term_reference(kernel_rings, random_element):
    # the old linear extension: one product and one sum per coefficient
    def reference(ring, d, x):
        total = Cyclotomic.zero(ring.level)
        for k, c in x.coeffs.items():
            total = total + c * sp.species_table(ring)[d][k]
        return total

    rng = random.Random(7)
    for ring in kernel_rings:
        for x in [ring.zero(), ring.one()] + [
                random_element(ring, rng, size) for size in (1, 3, ring.rank)]:
            want = [reference(ring, d, x) for d in range(ring.rank)]
            assert sp.idempotent_coordinates(ring, x) == want
            assert [sp.apply_species(ring, d, x) for d in range(ring.rank)] == want
            duals = [d for d in range(ring.rank) if rng.random() < 0.5]
            assert sp.species_values(ring, x, duals) == [want[d] for d in duals]


def test_species_table_must_be_integral(monkeypatch):
    ring = build_ring("C2", "2")
    monkeypatch.setattr(sp, "species_value", lambda ring, d, b:
                        Cyclotomic.from_rational(ring.level, Fraction(1, 2)))
    with pytest.raises(InvariantViolationError, match="not integral"):
        sp.species_table(ring)


def test_species_of_element_from_other_ring(ring_factory):
    ring = ring_factory("S3", "2")
    x = ring_factory("C4", "2").basis_element(1)
    with pytest.raises(InputError, match="different rings"):
        sp.apply_species(ring, 0, x)
    with pytest.raises(InputError, match="different rings"):
        sp.idempotent_coordinates(ring, x)


@pytest.mark.parametrize("spec,fiber", [
    ("C2", "2"), ("A4", "2"), ("S3", "3"), ("C4", "4"), ("A4", "3"), ("S3", "6"),
    ("C6", "6")])
def test_determinant_matches_sympy_oracle(ring_factory, spec, fiber):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    ring = ring_factory(spec, fiber)
    table = sp.species_table(ring)
    matrix = sympy.Matrix([[sum(c * z ** k for k, c in enumerate(v.coefficients()))
                            for v in row] for row in table])
    mod = sympy.Poly(sympy.cyclotomic_poly(ring.level, z), z, domain="QQ")
    want = sympy.rem(sympy.Poly(matrix.det(method="berkowitz"), z, domain="QQ"), mod)
    det = sp.exact_determinant(table)
    assert det == sp.species_determinant(ring)
    assert det.coefficients() == [Fraction(str(want.coeff_monomial(z ** k)))
                                  for k in range(mod.degree())]
    assert not det.is_zero()


def test_determinant_of_singular_matrix():
    z = Cyclotomic.zero(4)
    o = Cyclotomic.one(4)
    assert sp.exact_determinant([[o, o], [o, o]]).is_zero()
    assert sp.exact_determinant([[o, z], [z, o]]) == o
