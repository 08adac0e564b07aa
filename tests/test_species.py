"""Dual orbits, species values, the table, and the primitive idempotents."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fbr import burnside, cli
from fbr import species as sp
from fbr import spectrum as spc
from fbr.acceptance import CATALOG_FIBERS, CATALOG_GROUPS
from fbr.cyclo import Cyclotomic
from fbr.errors import InputError, InvariantViolationError
from fbr.perm import SubgroupLattice
from fbr.ring import FiberedBurnsideRing, build_ring
from oracles import idempotent_by_values, multiply_basis_by_values, species_value_by_values

GOLDEN = json.loads((Path(__file__).parent / "golden" / "c2_a2.json").read_text())
GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"
CATALOG_RINGS = [(g, f) for g in CATALOG_GROUPS for f in CATALOG_FIBERS]


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


PER_ELEMENT_RINGS = ([(g, f) for g in CATALOG_GROUPS for f in ("1", "2", "6", "2x2")]
                     + [(GL32, "1"), (GL32, "2"), ("Q8", "2x4")])


@pytest.mark.parametrize("spec,fiber", PER_ELEMENT_RINGS)
def test_probes_match_per_element_paths(ring_factory, spec, fiber):
    # structure constants, species entries and idempotents read at the
    # probes against forming every value map in full
    ring = ring_factory(spec, fiber)
    for i in range(ring.rank):
        for j in range(i, ring.rank):
            assert ring.multiply_basis(i, j) == multiply_basis_by_values(ring, i, j)
    table = sp.species_table(ring)
    for d in range(ring.rank):
        assert table[d] == tuple(species_value_by_values(ring, d, b)
                                 for b in range(ring.rank))
        assert sp.idempotent(ring, d) == idempotent_by_values(ring, d)


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
    for kid, mu in lat.mobius_row(class_rep).items():
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


@pytest.mark.parametrize("spec,fiber", CATALOG_RINGS)
def test_species_values_match_dense_sum(ring_factory, random_element, spec, fiber):
    # species_values reads only the rows whose class is below each column's;
    # the reference sums x_k s_d(b_k) over the whole support, each value
    # evaluated by species_value, zeros included
    ring = ring_factory(spec, fiber)
    values = {}

    def dense(x, d):
        total = Cyclotomic.zero(ring.level)
        for k, c in x.coeffs.items():
            if (d, k) not in values:
                values[d, k] = sp.species_value(ring, d, k)
            total = total + c * values[d, k]
        return total

    rng = random.Random(17)
    subsets = [[d] for d in range(ring.rank)] + [
        list(c.dual_orbits) for c in spc.components(ring)]
    for x in [ring.one()] + [random_element(ring, rng, size)
                             for size in (1, 4, ring.rank)]:
        want = [dense(x, d) for d in range(ring.rank)]
        assert sp.idempotent_coordinates(ring, x) == want
        for duals in subsets:
            assert sp.species_values(ring, x, duals) == [want[d] for d in duals]


def test_species_table_must_be_integral(monkeypatch):
    ring = build_ring("C2", "2")
    monkeypatch.setattr(sp, "_character_sum", lambda level, values, counts:
                        Cyclotomic.from_rational(level, Fraction(1, 2)))
    with pytest.raises(InvariantViolationError, match="not integral"):
        sp.species_table(ring)


def test_species_of_element_from_other_ring(ring_factory):
    ring = ring_factory("S3", "2")
    x = ring_factory("C4", "2").basis_element(1)
    with pytest.raises(InputError, match="different rings"):
        sp.apply_species(ring, 0, x)
    with pytest.raises(InputError, match="different rings"):
        sp.idempotent_coordinates(ring, x)


SYMPY_CASES = [("C2", "2", False), ("A4", "2", False), ("S3", "3", False),
               ("C4", "4", False), ("A4", "3", False), ("S3", "6", False),
               ("C6", "6", False), ("S5", "2", True)]


def block_matrices(ring):
    """The matrix block_basis checks for each component: the species of
    the component's dual orbits on its block basis."""
    return [[sp.species_values(ring, x, c.dual_orbits) for x in spc.block_basis(ring, c)]
            for c in spc.components(ring)]


@pytest.mark.parametrize("spec,fiber,nonsolvable_block", SYMPY_CASES,
                         ids=[f"{g}-{f}" + ("-nonsolvable-block" if b else "")
                              for g, f, b in SYMPY_CASES])
def test_determinant_matches_sympy_oracle(ring_factory, spec, fiber, nonsolvable_block):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    ring = ring_factory(spec, fiber)
    if nonsolvable_block:
        comp = next(c for c in spc.components(ring) if c.perfect_id != 0)
        matrix = block_matrices(ring)[comp.index]
    else:
        matrix = sp.species_table(ring)
    oracle = sympy.Matrix([[sum(c * z ** k for k, c in enumerate(v.coefficients()))
                            for v in row] for row in matrix])
    mod = sympy.Poly(sympy.cyclotomic_poly(ring.level, z), z, domain="QQ")
    want = sympy.rem(sympy.Poly(oracle.det(method="berkowitz"), z, domain="QQ"), mod)
    det = sp.exact_determinant(matrix)
    if not nonsolvable_block:
        assert det == sp.species_determinant(ring)
    assert det.coefficients() == [Fraction(str(want.coeff_monomial(z ** k)))
                                  for k in range(mod.degree())]
    assert not det.is_zero()


def test_determinant_of_singular_matrix():
    z = Cyclotomic.zero(4)
    o = Cyclotomic.one(4)
    assert sp.exact_determinant([[o, o], [o, o]]).is_zero()
    assert sp.exact_determinant([[o, z], [z, o]]) == o


# -- the triangular shape of the table -----------------------------------------------

ZERO_PATTERN_RINGS = CATALOG_RINGS + [("S4", "2x2"), (GL32, "1"), (GL32, "2")]


@pytest.mark.parametrize("spec,fiber", ZERO_PATTERN_RINGS)
def test_species_table_matches_dense_evaluation(ring_factory, spec, fiber):
    # the table evaluates only where H is subconjugate to K; everywhere
    # else the dense double coset evaluation must be zero
    ring = ring_factory(spec, fiber)
    lattice = ring.lattice
    table = sp.species_table(ring)
    below = [{lattice.class_index[s] for s in lattice.mobius_row(c.rep)}
             for c in lattice.classes]
    for dual in sp.dual_orbits(ring):
        for b, orbit in enumerate(ring.basis.orbits):
            dense = sp.species_value(ring, dual.index, b)
            assert table[dual.index][b] == dense
            if dual.class_index not in below[orbit.class_index]:
                assert dense.is_zero()


def test_lattice_from_sets_and_basis_build_no_mobius_row():
    ring = build_ring("S5", "2")
    lattice = SubgroupLattice(ring.group, [s.elems for s in ring.lattice.subgroups])
    warm = FiberedBurnsideRing(ring.group, ring.fiber, lattice=lattice)
    cli.cmd_basis(None, warm, {})
    assert lattice._mobius_rows == {}


@pytest.mark.parametrize("spec,fiber", [("S5", "2"), (GL32, "1")])
def test_species_table_builds_mobius_rows_at_class_reps_only(spec, fiber):
    ring = build_ring(spec, fiber)
    sp.species_table(ring)
    assert set(ring.lattice._mobius_rows) == {c.rep for c in ring.lattice.classes}


def test_species_table_double_cosets_only_below(monkeypatch):
    ring = build_ring("S5", "2")
    lattice = ring.lattice
    sp.dual_orbits(ring)
    calls = []
    real = lattice.double_coset_reps
    monkeypatch.setattr(lattice, "double_coset_reps",
                        lambda h, k: calls.append((h, k)) or real(h, k))
    sp.species_table(ring)
    subconjugate = {(lattice.class_index[h], c.index)
                    for c in lattice.classes for h in lattice.mobius_row(c.rep)}
    assert calls
    assert all((lattice.class_index[h], lattice.class_index[k]) in subconjugate
               for h, k in calls)
    assert len(calls) < ring.rank ** 2


@pytest.mark.parametrize("spec,fiber", CATALOG_RINGS + [(GL32, "1")])
def test_determinant_matches_dense_elimination(ring_factory, spec, fiber):
    ring = ring_factory(spec, fiber)
    for matrix in [sp.species_table(ring)] + block_matrices(ring):
        if matrix:
            assert sp.exact_determinant(matrix) == sp._eliminate(matrix)


def random_entry(rng, level, nonzero=False):
    phi = len(Cyclotomic.one(level).nums)
    while True:
        v = Cyclotomic(level, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                               for _ in range(phi)])
        if not (nonzero and v.is_zero()):
            return v


def block_triangular(rng, level, sizes, fill=0.5):
    """A block upper triangular matrix with dense diagonal blocks of the
    given sizes and random entries above them, and its block index sets."""
    owner = [k for k, size in enumerate(sizes) for _ in range(size)]
    zero = Cyclotomic.zero(level)
    rows = [[random_entry(rng, level, nonzero=True) if bi == bj
             else random_entry(rng, level) if bi < bj and rng.random() < fill else zero
             for bj in owner] for bi in owner]
    blocks = [[i for i, k in enumerate(owner) if k == b] for b in range(len(sizes))]
    return rows, blocks


@pytest.mark.parametrize("level", [1, 4, 6])
def test_determinant_of_permuted_block_triangular_matrices(monkeypatch, level):
    # in order, the matrix splits into its diagonal blocks; permuted, the
    # blocks may be coarser, and the determinant is the same
    eliminated = []
    real = sp._eliminate

    def recording(rows):
        eliminated.append(rows)
        return real(rows)

    monkeypatch.setattr(sp, "_eliminate", recording)
    rng = random.Random(level)
    for _ in range(8):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        rows, blocks = block_triangular(rng, level, sizes)
        eliminated.clear()
        det = sp.exact_determinant(rows)
        # every block, or those up to the first singular one
        want = [[[rows[i][j] for j in b] for i in b] for b in blocks]
        assert eliminated == want[:len(eliminated)]
        assert eliminated == want or det.is_zero()
        assert det == real(rows)
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert sp.exact_determinant(moved) == real(moved) == det


def test_determinant_edge_cases():
    rng = random.Random(5)
    level = 4
    zero = Cyclotomic.zero(level)
    x = random_entry(rng, level, nonzero=True)
    assert sp.exact_determinant([[x]]) == x
    assert sp.exact_determinant([[zero]]).is_zero()
    # a singular diagonal block: its two rows are equal
    rows, blocks = block_triangular(rng, level, [2, 2, 3])
    i, j = blocks[1]
    rows[j][i], rows[j][j] = rows[i][i], rows[i][j]
    assert sp._eliminate(rows).is_zero()
    assert sp.exact_determinant(rows).is_zero()
    # a zero row
    rows, _ = block_triangular(rng, level, [3, 2])
    rows[2] = [zero] * len(rows)
    assert sp.exact_determinant(rows).is_zero()
    # a zero column, in the first block and in the last
    for col in (0, 4):
        rows, _ = block_triangular(rng, level, [3, 2])
        for row in rows:
            row[col] = zero
        assert sp.exact_determinant(rows).is_zero()
    with pytest.raises(InputError, match="empty"):
        sp.exact_determinant([])


def test_determinant_multiplies_only_inside_blocks(monkeypatch):
    # k diagonal blocks of size b: O(k b^3) products, not O((k b)^3)
    k, b = 6, 3
    rows, _ = block_triangular(random.Random(11), 4, [b] * k, fill=0)
    count = 0
    real = Cyclotomic.__mul__

    def counting(x, y):
        nonlocal count
        count += 1
        return real(x, y)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting)
    sp._eliminate(rows)
    dense, count = count, 0
    sp.exact_determinant(rows)
    assert count <= k * b ** 3 < dense


def test_eliminate_inverts_only_pivots_it_uses(monkeypatch):
    # the last column has no row below it, so its pivot is never inverted
    count = 0
    real = Cyclotomic.inverse

    def counting(x):
        nonlocal count
        count += 1
        return real(x)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    rng = random.Random(12)
    for level in (1, 4, 6):
        for n in (1, 2, 5):
            count = 0
            rows = [[random_entry(rng, level, nonzero=True) for _ in range(n)]
                    for _ in range(n)]
            assert not sp._eliminate(rows).is_zero()
            assert count == n - 1
