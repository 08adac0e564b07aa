"""Fiber groups, Hom enumeration read from coordinates, characters."""

import functools
import itertools
import math
from math import lcm

import pytest

from fbr import abelian
from fbr.abelian import (FiniteAbelianGroup, HomGroup, abelianization_basis,
                         character_exponent, character_order, character_p_parts,
                         character_power, characters, compose_character,
                         normalize_invariant_factors, parse_fiber_spec)
from fbr.acceptance import CATALOG_GROUPS
from fbr.cyclo import Cyclotomic
from fbr.errors import InputError, InvariantViolationError
from fbr.perm import SubgroupLattice, parse_group_spec
from fbr.ring import natural_level
from oracles import (abelianization_coords_by_powers, characters_by_digits,
                     conj_values_map, fiber_add, fiber_elements, fiber_scale, fiber_zero,
                     hom_tables_by_combination, values_map)


def hom_group_of(lat, sid, fiber):
    sub = lat.subgroups[sid]
    derived = lat.subgroups[lat.derived_id(sid)].elems
    return HomGroup(lat.group, sub, derived, fiber)


# -- invariant factors ----------------------------------------------------------

def test_normalization():
    assert normalize_invariant_factors([6, 4]) == (2, 12)
    assert normalize_invariant_factors([2, 4]) == (2, 4)
    assert normalize_invariant_factors([2, 3]) == (6,)
    assert normalize_invariant_factors([1, 1]) == ()
    with pytest.raises(InputError):
        normalize_invariant_factors([0])


def test_parse_fiber_spec():
    assert parse_fiber_spec("A=2x4").invariant_factors == (2, 4)
    assert parse_fiber_spec("2x4").invariant_factors == (2, 4)
    assert parse_fiber_spec("A=1").invariant_factors == ()
    assert parse_fiber_spec("1").exponent == 1
    with pytest.raises(InputError):
        parse_fiber_spec("A=2xq")


def test_divisibility_enforced():
    with pytest.raises(InputError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(InputError):
        FiniteAbelianGroup((1,))


# -- torsion ----------------------------------------------------------------------

def killed_by_exponent(group, fiber):
    """Oracle: the elements of the fiber killed by exp(G), by a direct scan."""
    exp_g, factors = lcm(*group.element_orders), fiber.invariant_factors
    return [a for a in fiber_elements(factors)
            if fiber_scale(factors, exp_g, a) == fiber_zero(factors)]


def element_order(fiber, a):
    k, factors = 1, fiber.invariant_factors
    while fiber_scale(factors, k, a) != fiber_zero(factors):
        k += 1
    return k


def torsion_via_hom(n, fiber):
    """The n-torsion of the fiber as the values of Hom(C_n, A) at a generator."""
    group = parse_group_spec(f"C{n}")
    lat = SubgroupLattice(group)
    hg = hom_group_of(lat, lat.full_group_id(), fiber)
    gen = group.element_orders.index(n)
    return hg, sorted(hg.value(i, gen) for i in range(hg.size))


def test_tor_trivial():
    a = parse_fiber_spec("2x4")
    hg, values = torsion_via_hom(1, a)
    assert hg.size == 1 and normalize_invariant_factors(hg.gen_orders) == ()
    assert values == [(0, 0)]
    assert natural_level(parse_group_spec("C1"), a) == 1


def test_tor_c4_at_6():
    # elements of C4 killed by 6 are 0 and 2
    a = FiniteAbelianGroup((4,))
    hg, values = torsion_via_hom(6, a)
    assert normalize_invariant_factors(hg.gen_orders) == (2,)
    assert values == [(0,), (2,)]
    assert values == killed_by_exponent(parse_group_spec("C6"), a)
    assert natural_level(parse_group_spec("C6"), a) == 2


def test_tor_c2xc4_at_2():
    a = FiniteAbelianGroup((2, 4))
    hg, values = torsion_via_hom(2, a)
    assert normalize_invariant_factors(hg.gen_orders) == (2, 2)
    # oracle: direct scan of all 8 elements
    expected = sorted(e for e in fiber_elements(a.invariant_factors)
                      if all(2 * x % d == 0 for x, d in zip(e, a.invariant_factors)))
    assert values == expected
    assert natural_level(parse_group_spec("C2"), a) == 2


def test_natural_level_matches_torsion_scan():
    # the natural level is the exponent of the fiber's exp(G)-torsion
    for gspec in CATALOG_GROUPS:
        group = parse_group_spec(gspec)
        for fspec in ("1", "2", "6", "2x4", "3x3"):
            fiber = parse_fiber_spec(fspec)
            torsion = killed_by_exponent(group, fiber)
            expected = lcm(*(element_order(fiber, a) for a in torsion))
            assert natural_level(group, fiber) == expected, (gspec, fspec)


# -- hom groups --------------------------------------------------------------------

def brute_force_hom_count(group, sub, fiber):
    """Oracle: assign images to a generating set, extend by consistency."""
    if not sub.gens:
        return 1
    candidates = killed_by_exponent(group, fiber)
    count = 0
    for images in itertools.product(candidates, repeat=len(sub.gens)):
        values = {group.identity: fiber_zero(fiber.invariant_factors)}
        frontier = [group.identity]
        ok = True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, img in zip(sub.gens, images):
                    y = group.mul(x, g)
                    val = fiber_add(fiber.invariant_factors, values[x], img)
                    if y in values:
                        if values[y] != val:
                            ok = False
                            break
                    else:
                        values[y] = val
                        nxt.append(y)
                if not ok:
                    break
            frontier = nxt
        if ok and len(values) == sub.order:
            count += 1
    return count


def test_hom_trivial_domain():
    lat = SubgroupLattice(parse_group_spec("S3"))
    hg = hom_group_of(lat, lat.trivial_id(), parse_fiber_spec("6"))
    assert hg.size == 1


def test_hom_s3_c2_is_trivial_and_sign():
    lat = SubgroupLattice(parse_group_spec("S3"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    assert hg.size == 2
    g = lat.group
    for x in lat.subgroups[lat.full_group_id()].sorted_elems:
        expect = (0,) if g.element_orders[x] in (1, 3) else (1,)
        assert hg.value(1, x) == expect


def test_hom_c6_c4():
    lat = SubgroupLattice(parse_group_spec("C6"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("4"))
    assert hg.size == 2


@pytest.mark.parametrize("gspec,fspec", [
    ("S3", "2"), ("S3", "6"), ("C6", "4"), ("D4", "2x4"), ("Q8", "2"),
    ("A4", "6"),
])
def test_hom_counts_match_both_oracles(gspec, fspec):
    lat = SubgroupLattice(parse_group_spec(gspec))
    fiber = parse_fiber_spec(fspec)
    from math import gcd
    for cls in lat.classes:
        hg = hom_group_of(lat, cls.rep, fiber)
        sub = lat.subgroups[cls.rep]
        derived = lat.subgroups[lat.derived_id(cls.rep)].elems
        basis = abelianization_basis(lat.group, sub, derived)[0]
        # gcd product formula over the abelianization invariants
        expected = 1
        for _, m in basis:
            for d in fiber.invariant_factors:
                expected *= gcd(m, d)
        assert hg.size == expected
        assert hg.size == brute_force_hom_count(lat.group, sub, fiber)


def test_hom_tables_are_homomorphisms():
    lat = SubgroupLattice(parse_group_spec("D4"))
    fiber = parse_fiber_spec("2x4")
    hg = hom_group_of(lat, lat.full_group_id(), fiber)
    g = lat.group
    elems = lat.subgroups[lat.full_group_id()].sorted_elems
    for k in range(hg.size):
        vm = {x: hg.value(k, x) for x in elems}
        for x in elems:
            for y in elems:
                assert vm[g.mul(x, y)] == fiber_add(fiber.invariant_factors, vm[x], vm[y])


def test_hom_group_refuses_a_wrong_probe(monkeypatch):
    # index_at reads the sign at its one probe, a transposition; the
    # probes are checked once, on construction, by decoding every index,
    # so a lift planted in the wrong coset raises there
    lat = SubgroupLattice(parse_group_spec("S3"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    assert [lat.group.element_orders[x] for x in hg.points] == [2]
    assert hg.index_at([hg.value(1, x) for x in hg.points]) == 1
    real = abelian.abelianization_basis

    def planted(group, subgroup, derived_elems):
        basis, coords = real(group, subgroup, derived_elems)
        return [(group.identity, m) for _, m in basis], coords

    monkeypatch.setattr(abelian, "abelianization_basis", planted)
    with pytest.raises(InvariantViolationError, match="does not decode"):
        hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))


def test_hom_group_holds_nothing_per_homomorphism():
    # a Hom group is read from coordinates, never stored per index: for
    # C2^4 at 2x2, |Hom| = 256 against |H| = 16, so any sequence with one
    # entry per homomorphism (a value table, say) is as long as the group
    lat = SubgroupLattice(parse_group_spec("perm:8:(1 2);(3 4);(5 6);(7 8)"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2x2"))
    assert (hg.size, lat.group.order) == (256, 16)
    sized = {name: len(v) for name, v in vars(hg).items() if hasattr(v, "__len__")}
    assert "coords" in sized
    assert {name: n for name, n in sized.items() if n >= hg.size} == {}


@pytest.mark.parametrize("gspec,fspec", [("S4", "2x2"), ("D4", "2x4"), ("C6", "6")])
def test_index_at_reads_any_representative(gspec, fspec):
    # index_at takes values congruent modulo the fiber, as the unreduced
    # sums of multiply_basis and the values of HomGroup.function
    lat = SubgroupLattice(parse_group_spec(gspec))
    fiber = parse_fiber_spec(fspec)
    for cls in lat.classes:
        hg = hom_group_of(lat, cls.rep, fiber)
        for k in range(hg.size):
            values = [hg.value(k, x) for x in hg.points]
            shifted = [tuple(v + d * (k - 2) for v, d in zip(vs, fiber.invariant_factors))
                       for vs in values]
            assert hg.index_at(values) == hg.index_at(shifted) == k
            assert hg.index_at(map(hg.function(k), hg.points)) == k



@functools.cache
def catalog_lattice(gspec):
    return SubgroupLattice(parse_group_spec(gspec))


@pytest.mark.parametrize("fspec", ["1", "2", "6", "2x2", "2x4", "3x3", "4x4"])
@pytest.mark.parametrize("gspec", [*CATALOG_GROUPS, "perm:8:(1 2 3 4);(5 6 7 8)",
                                   "perm:6:(1 2 3);(4 5 6)"])
def test_enumeration_matches_oracles(gspec, fspec):
    # coordinates, values and characters against their one-element-at-a-
    # time references at every class representative
    lat = catalog_lattice(gspec)
    fiber = parse_fiber_spec(fspec)
    level = natural_level(lat.group, fiber)
    for cls in lat.classes:
        sub = lat.subgroups[cls.rep]
        derived = lat.subgroups[lat.derived_id(cls.rep)].elems
        basis, coords = abelianization_basis(lat.group, sub, derived)
        assert coords == abelianization_coords_by_powers(lat.group, sub, derived, basis)
        hg = HomGroup(lat.group, sub, derived, fiber)
        elems = sub.sorted_elems
        gen_orders, tables = hom_tables_by_combination(
            [m for _, m in basis], coords, elems, fiber.invariant_factors)
        assert hg.gen_orders == gen_orders
        assert [tuple(hg.value(k, x) for x in elems) for k in range(hg.size)] == tables
        digits = list(itertools.product(*(range(g) for g in gen_orders)))
        for t, gi in enumerate(hg.gen_indices):
            assert digits[gi] == tuple(int(s == t) for s in range(len(gen_orders)))
        # index 0 is the trivial homomorphism (ring.trivial_pair_orbit)
        assert {hg.value(0, x) for x in elems} == {fiber_zero(fiber.invariant_factors)}
        # a character's exponent on each homomorphism, formed from the two
        # digit tuples, against the characters formed digit by digit
        assert [tuple(exponents(hg, c, level)) for c in characters(hg, level)] == \
            characters_by_digits(gen_orders, level)

# -- conjugation and restriction -----------------------------------------------------

def test_conjugate_hom_moves_domain():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    fiber = parse_fiber_spec("2")
    c2 = next(s for s in lat.subgroups if s.order == 2)
    hg = hom_group_of(lat, c2.id, fiber)
    nontrivial = values_map(hg, 1)
    mover = next(x for x in range(g.order)
                 if g.conj_set(x, c2.sorted_elems) != c2.elems)
    moved = conj_values_map(g, nontrivial, mover)
    assert set(moved) == set(g.conj_set(mover, c2.sorted_elems))
    tr = g.conj(mover, max(c2.sorted_elems))
    assert moved[tr] == (1,)


def test_conjugation_composition_law():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    vm = values_map(hg, 1)
    for a in range(g.order):
        for b in range(g.order):
            lhs = conj_values_map(g, conj_values_map(g, vm, b), a)
            rhs = conj_values_map(g, vm, g.mul(a, b))
            assert lhs == rhs


def test_conjugation_preserves_kernel_conjugacy():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    vm = values_map(hg, 1)
    zero = (0,)
    ker = frozenset(x for x, v in vm.items() if v == zero)
    for a in range(g.order):
        moved = conj_values_map(g, vm, a)
        moved_ker = frozenset(x for x, v in moved.items() if v == zero)
        assert moved_ker == g.conj_set(a, sorted(ker))


# -- characters ------------------------------------------------------------------------

def exponents(hg, c, level):
    return [character_exponent(hg, c, k, level) for k in range(hg.size)]


def test_dual_characters_of_trivial():
    lat = SubgroupLattice(parse_group_spec("C2"))
    hg = hom_group_of(lat, lat.trivial_id(), parse_fiber_spec("2"))
    assert list(characters(hg, 2)) == [()]
    assert exponents(hg, (), 2) == [0]


def test_dual_characters_of_c2():
    lat = SubgroupLattice(parse_group_spec("C2"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    chars = list(characters(hg, 2))
    assert chars == [(0,), (1,)]
    assert [exponents(hg, c, 2) for c in chars] == [[0, 0], [0, 1]]


def test_dual_characters_level_mismatch():
    lat = SubgroupLattice(parse_group_spec("C2"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    with pytest.raises(InvariantViolationError):
        characters(hg, 3)


def test_compose_character_checks_the_order_at_generators():
    # Phi of order 4 on Hom(C4, C4) composed with a map that sends the
    # order-2 generator of Hom(C2, C4) to a homomorphism of order 4: the
    # exponent there is no multiple of level/2, so the map was no
    # homomorphism
    fiber = parse_fiber_spec("4")
    lat4 = SubgroupLattice(parse_group_spec("C4"))
    hg4 = hom_group_of(lat4, lat4.full_group_id(), fiber)
    lat2 = SubgroupLattice(parse_group_spec("C2"))
    hg2 = hom_group_of(lat2, lat2.full_group_id(), fiber)
    assert hg4.gen_orders == (4,) and hg2.gen_orders == (2,)
    # maps on indices: doubling, the identity, and one that is no homomorphism
    assert compose_character(hg4, (1,), 4, hg2, [0, 2]) == (1,)
    assert compose_character(hg4, (3,), 4, hg4, range(4)) == (3,)
    with pytest.raises(InvariantViolationError, match="wrong order on generator"):
        compose_character(hg4, (1,), 4, hg2, [0, 1])


def test_row_orthogonality():
    # sum over hom elements of conj(Phi) * Psi is |Hom| on the diagonal
    lat = SubgroupLattice(parse_group_spec("V4"))
    fiber = parse_fiber_spec("2")
    hg = hom_group_of(lat, lat.full_group_id(), fiber)
    assert hg.size == 4
    chars = [exponents(hg, c, 2) for c in characters(hg, 2)]
    assert len(chars) == 4
    for a in chars:
        for b in chars:
            total = Cyclotomic.zero(2)
            for k in range(hg.size):
                total = total + Cyclotomic.zeta_power(2, (b[k] - a[k]) % 2)
            expect = hg.size if a == b else 0
            assert total == Cyclotomic.from_rational(2, expect)


def test_character_order_matches_exponents():
    # the order read from the digits is that of the exponent tuple, at
    # any level the Hom exponent divides
    for spec, fspec in (("C6", "6"), ("V4", "2x4"), ("C4", "2x4")):
        lat = SubgroupLattice(parse_group_spec(spec))
        hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec(fspec))
        for level in (hg.exponent, 2 * hg.exponent):
            for c in characters(hg, level):
                values = exponents(hg, c, level)
                assert character_order(c, hg.gen_orders) == level // math.gcd(level, *values)


def test_character_p_parts_orders():
    # order-6 character at level 6: the 2-part has order 2, 3-part order 3
    lat = SubgroupLattice(parse_group_spec("C6"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("6"))
    orders = hg.gen_orders
    full = next(c for c in characters(hg, 6) if character_order(c, orders) == 6)
    c2part, c2prime = character_p_parts(full, 2, orders)
    assert character_order(c2part, orders) == 2
    assert character_order(c2prime, orders) == 3
    product = tuple((x + y) % g for x, y, g in zip(c2part, c2prime, orders))
    assert product == full


def test_character_p_parts_degenerate():
    lat = SubgroupLattice(parse_group_spec("C6"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("6"))
    orders = hg.gen_orders
    order3 = next(c for c in characters(hg, 6) if character_order(c, orders) == 3)
    p3, p3prime = character_p_parts(order3, 2, orders)
    assert character_order(p3, orders) == 1
    assert p3prime == order3
    q3, q3prime = character_p_parts(order3, 3, orders)
    assert q3 == order3
    assert character_order(q3prime, orders) == 1


def test_evaluate_character():
    # a character's value on hom k is zeta^e for its exponent e at k, and
    # zeta^-e is the complex conjugate
    lat = SubgroupLattice(parse_group_spec("C2"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("2"))
    trivial, sign = (exponents(hg, c, 2) for c in characters(hg, 2))
    one = Cyclotomic.one(2)
    for k in range(hg.size):
        assert Cyclotomic.zeta_power(2, trivial[k]) == one
        v = Cyclotomic.zeta_power(2, sign[k])
        assert v * Cyclotomic.zeta_power(2, -sign[k]) == one
    assert Cyclotomic.zeta_power(2, sign[1]) == -one


def test_character_power_arithmetic():
    lat = SubgroupLattice(parse_group_spec("C6"))
    hg = hom_group_of(lat, lat.full_group_id(), parse_fiber_spec("6"))
    orders = hg.gen_orders
    full = next(c for c in characters(hg, 6) if character_order(c, orders) == 6)
    assert character_power(full, 7, orders) == full
    assert character_order(character_power(full, 2, orders), orders) == 3
    # the exponents of a power are the character's times t
    assert exponents(hg, character_power(full, 5, orders), 6) == \
        [5 * e % 6 for e in exponents(hg, full, 6)]
