"""P-equivalence, regularization, Galois orbits, blocks and the Weyl map."""

import math

import pytest

from fbr import perm
from fbr import species as sp
from fbr import spectrum as spc
from fbr.abelian import character_order, character_p_parts
from fbr.acceptance import CATALOG_GROUPS
from fbr.arith import factorint
from fbr.cyclo import Cyclotomic, find_prime_ideal, prime_ideals
from fbr.errors import InputError, TheoremViolationError
from fbr.ring import FiberedBurnsideRing, build_ring
from oracles import (block_idempotent_by_primitives, character_values,
                     characters_by_digits, conj_values_map, digits_of_values, dual_orbits_by_values, index_of_map,
                     p_perfect_lift_by_values, p_prime_part_of_values,
                     p_regularize_by_climb, p_regularize_reversed, values_map)

GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"
C3XC3 = "perm:6:(1 2 3);(4 5 6)"
S3XC3 = "perm:6:(1 2 3);(1 2);(4 5 6)"
C2CUBED = "perm:6:(1 2);(3 4);(5 6)"


def dual_by_subgroup_order(ring, order, char_order=None):
    for d in sp.dual_orbits(ring):
        if ring.lattice.subgroups[d.subgroup_id].order != order:
            continue
        orders = ring.hom_group(d.subgroup_id).gen_orders
        if char_order is None or character_order(d.digits, orders) == char_order:
            return d
    raise AssertionError("no such dual orbit")


# -- regularity -----------------------------------------------------------------------

def test_is_p_regular_examples(ring_factory):
    rs3 = ring_factory("S3", "2")
    top = dual_by_subgroup_order(rs3, 6, 1)
    for p in (2, 3, 5):
        assert spc.is_p_regular(rs3, top.index, p)
    c3 = dual_by_subgroup_order(rs3, 3)
    assert spc.is_p_regular(rs3, c3.index, 3)      # index [S3 : C3] = 2
    assert not spc.is_p_regular(rs3, c3.index, 2)
    rc2 = ring_factory("C2", "2")
    triv = dual_by_subgroup_order(rc2, 1)
    assert not spc.is_p_regular(rc2, triv.index, 2)


def test_p_regularize_fixes_regular_pairs(ring_factory):
    ring = ring_factory("S3", "2")
    for d in range(ring.rank):
        for p in (2, 3):
            if spc.is_p_regular(ring, d, p):
                assert spc.p_regularize(ring, d, p) == d


def test_p_regularize_examples(ring_factory):
    rc2 = ring_factory("C2", "2")
    triv = dual_by_subgroup_order(rc2, 1)
    target = dual_by_subgroup_order(rc2, 2, 1)
    assert spc.p_regularize(rc2, triv.index, 2) == target.index

    rs3 = ring_factory("S3", "2")
    c3 = dual_by_subgroup_order(rs3, 3)
    top = dual_by_subgroup_order(rs3, 6, 1)
    assert spc.p_regularize(rs3, c3.index, 2) == top.index


def test_p_regularize_sylow_choice_irrelevant(ring_factory):
    # the rule's regular member is the climb's, whichever Sylow subgroups
    # the climb picks
    for spec, fiber in (("S3", "2"), ("D4", "2"), ("S4", "2"), ("A4", "6"),
                        ("S5", "2"), ("perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)", "1")):
        ring = ring_factory(spec, fiber)
        for d in range(ring.rank):
            for p in (2, 3):
                assert spc.p_regularize(ring, d, p) == \
                    p_regularize_by_climb(ring, d, p) == \
                    p_regularize_reversed(ring, d, p)


def test_p_regularize_output_is_regular(ring_factory):
    for spec, fiber in (("S4", "2"), ("C6", "6"), ("A5", "1")):
        ring = ring_factory(spec, fiber)
        for d in range(ring.rank):
            for p in (2, 3, 5):
                r = spc.p_regularize(ring, d, p)
                assert spc.is_p_regular(ring, r, p)


def test_p_regularize_rejects_composite(ring_factory):
    with pytest.raises(InputError):
        spc.p_regularize(ring_factory("C2", "2"), 0, 4)


def classes_by(key, n):
    """The classes of range(n) under key, as a set of sorted tuples."""
    by_key = {}
    for d in range(n):
        by_key.setdefault(key(d), []).append(d)
    return {tuple(c) for c in by_key.values()}


@pytest.mark.parametrize("spec,fiber", [
    (g, f) for g in CATALOG_GROUPS for f in ("1", "2", "6", "2x2")
] + [(GL32, "1"), (GL32, "2"), ("A6", "1"), ("C6", "6"), ("A4", "12"), ("D4", "4"),
     (C3XC3, "3x3"), (S3XC3, "3")])
def test_p_perfect_rule_matches_climb_and_oracle(ring_factory, monkeypatch, spec, fiber):
    # at every p dividing |G|: the classes by p-perfect pair are the
    # climb's and the congruence oracle's at every ideal above p, each
    # regular member is the climb's output, and the Psi built for (H, Phi)
    # is H-invariant with Psi o res = Phi_p' and equal to the lift of every
    # psi in Hom(J, A), though it is read at the generators only.  On
    # S3 x C3 at p = 2, H = S3 x C3 inverts one factor of J = C3 x C3, so
    # e(psi) needs the division by |O|.
    ring = ring_factory(spec, fiber)
    group, lattice, duals = ring.group, ring.lattice, sp.dual_orbits(ring)
    by_values = dual_orbits_by_values(ring)[0]
    built = []
    canonicalize = sp.canonicalize_dual
    monkeypatch.setattr(sp, "canonicalize_dual", lambda r, sid, digits: (
        built.append((sid, digits)) or canonicalize(r, sid, digits)))
    for p in sorted(factorint(group.order)):
        climbed = [p_regularize_by_climb(ring, d, p) for d in range(ring.rank)]
        pairs = []
        moves, restrictions, lifts = {}, {}, {}
        for dual in duals:
            built.clear()
            pairs.append(spc.p_perfect_pair(ring, dual.index, p))
            (jid, digits), = built
            hid = dual.subgroup_id
            assert jid == lattice.o_p_residual_id(hid, p)
            assert lattice.o_p_residual_id(jid, p) == jid
            src, hg = ring.hom_group(hid), ring.hom_group(jid)
            if hid not in moves:
                moves[hid] = [[index_of_map(hg, conj_values_map(group, values_map(hg, k), h))
                               for k in range(hg.size)]
                              for h in lattice.subgroups[hid].gens]
                restrictions[hid] = [
                    index_of_map(hg, values_map(src, k))
                    for k in range(src.size)]
                lifts[hid] = p_perfect_lift_by_values(ring, hid, p)
            psi = character_values(hg, digits, ring.level)
            for move in moves[hid]:
                assert [psi[m] for m in move] == list(psi)
            pprime = p_prime_part_of_values(by_values[dual.index][1], p, ring.level)
            assert tuple(psi[r] for r in restrictions[hid]) == pprime
            assert lifts[hid][0] == jid
            assert tuple(pprime[k] for k in lifts[hid][1]) == psi
        rule = classes_by(pairs.__getitem__, ring.rank)
        assert rule == classes_by(climbed.__getitem__, ring.rank)
        for ideal in prime_ideals(p, ring.level):
            assert rule == classes_by(lambda d: spc.reduced_species_row(ring, d, ideal),
                                      ring.rank)
            part = spc.p_equivalence_partition(ring, ideal)
            assert set(part.classes) == rule
            assert part.regular_representatives == tuple(climbed[c[0]] for c in part.classes)
        assert [spc.p_regularize(ring, d, p) for d in range(ring.rank)] == climbed


@pytest.mark.parametrize("spec,fiber,p", [("C2", "1", 2), ("S3", "1", 2), ("S3", "6", 3)])
def test_partition_without_the_step_down_to_o_p_fails(monkeypatch, spec, fiber, p):
    # with J = H the rule splits classes (C2/1 at p = 2 into (1, 1) and
    # (C2, 1), which are congruent modulo 2); the congruence oracle must
    # catch it.  A fresh ring, so that no memoized lift is reused.
    monkeypatch.setattr(perm.SubgroupLattice, "o_p_residual_id", lambda self, hid, p: hid)
    ring = build_ring(spec, fiber)
    with pytest.raises(TheoremViolationError, match="disagrees with the congruence oracle"):
        spc.p_equivalence_partition(ring, find_prime_ideal(p, ring.level))


# -- congruence oracle ------------------------------------------------------------------

def test_congruence_with_p_prime_part(ring_factory):
    # (H, Phi) is congruent to (H, Phi with its p-part removed) above p
    for spec, fiber in (("C6", "6"), ("S3", "6")):
        ring = ring_factory(spec, fiber)
        duals = sp.dual_orbits(ring)
        for p in (2, 3):
            prime = find_prime_ideal(p, ring.level)
            for d in duals:
                orders = ring.hom_group(d.subgroup_id).gen_orders
                _, pprime = character_p_parts(d.digits, p, orders)
                other = sp.canonicalize_dual(ring, d.subgroup_id, pprime)
                assert spc.congruent_mod_p(ring, d.index, other, prime)


def test_char_zero_congruence_is_conjugacy(ring_factory):
    ring = ring_factory("S3", "2")
    prime = None
    for a in range(ring.rank):
        for b in range(ring.rank):
            assert spc.congruent_mod_p(ring, a, b, prime) == (a == b)


def test_c2_rows_congruent_mod_2(ring_factory):
    # rows (2,1,1) and (0,1,1) agree modulo 2
    ring = ring_factory("C2", "2")
    prime = find_prime_ideal(2, ring.level)
    assert spc.congruent_mod_p(ring, 0, 1, prime)
    assert spc.congruent_mod_p(ring, 1, 2, prime)


def test_reduced_rows_skip_zero_entries(ring_factory, monkeypatch):
    # a zero entry's residue is (), as reduce_mod gives, without reducing it
    reduce_mod = spc.reduce_mod
    for spec, fiber in (("A4", "6"), ("S5", "2")):
        ring = ring_factory(spec, fiber)
        table = sp.species_table(ring)
        for ideal in prime_ideals(2, ring.level) + prime_ideals(3, ring.level):
            reduced = []
            monkeypatch.setattr(spc, "reduce_mod",
                                lambda v, i: reduced.append(v) or reduce_mod(v, i))
            rows = [spc.reduced_species_row(ring, d, ideal) for d in range(ring.rank)]
            monkeypatch.setattr(spc, "reduce_mod", reduce_mod)
            assert rows == [tuple(reduce_mod(v, ideal) for v in row) for row in table]
            assert reduced and not any(v.is_zero() for v in reduced)


# -- partitions ------------------------------------------------------------------------

def test_partition_c2_single_class(ring_factory):
    ring = ring_factory("C2", "2")
    part = spc.p_equivalence_partition(ring, find_prime_ideal(2, ring.level))
    assert part.classes == ((0, 1, 2),)


def test_partition_char_zero_discrete(ring_factory):
    for spec, fiber in (("S3", "2"), ("D4", "2")):
        ring = ring_factory(spec, fiber)
        part = spc.p_equivalence_partition(ring, None)
        assert all(len(c) == 1 for c in part.classes)


def test_partition_class_count_is_regular_count(ring_factory):
    for spec, fiber in (("S3", "2"), ("S4", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        for p in (2, 3):
            prime = find_prime_ideal(p, ring.level)
            part = spc.p_equivalence_partition(ring, prime)
            regular = [d for d in range(ring.rank) if spc.is_p_regular(ring, d, p)]
            assert len(part.classes) == len(regular)
            assert sorted(part.regular_representatives) == regular


def test_partition_covers_all_orbits(ring_factory):
    # every positive-characteristic class is a union of the singleton
    # characteristic-zero classes, with nothing lost or repeated
    ring = ring_factory("S4", "2")
    for p in (2, 3):
        prime = find_prime_ideal(p, ring.level)
        part = spc.p_equivalence_partition(ring, prime)
        covered = sorted(d for c in part.classes for d in c)
        assert covered == list(range(ring.rank))


def test_partition_independent_of_ideal(ring_factory):
    for spec, fiber in (("C6", "6"), ("S4", "6"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        for p in (2, 3, 5):
            partitions = []
            for ideal in prime_ideals(p, ring.level):
                partitions.append(spc.p_equivalence_partition(ring, ideal).classes)
            assert len({tuple(p_) for p_ in partitions}) == 1


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_invariant_extension_congruence(ring_factory):
    """For H normal in K with K/H a p-group and a character invariant
    under K, the extended pair (K, Phi after restriction) is congruent
    to (H, Phi) above p.  Checked on every applicable triple."""
    for spec, fiber in (("S3", "6"), ("D4", "2"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        lat = ring.lattice
        group = ring.group
        checked = 0
        for kid in range(len(lat)):
            ksub = lat.subgroups[kid]
            for hid in lat.mobius_row(kid):
                if hid == kid:
                    continue
                hsub = lat.subgroups[hid]
                index = ksub.order // hsub.order
                primes = [q for q in (2, 3, 5) if _is_p_power(index, q)]
                if not primes:
                    continue
                p = primes[0]
                normal = all(group.conj(g, x) in hsub.elems
                             for g in ksub.gens for x in hsub.sorted_elems)
                if not normal:
                    continue
                src_hg = ring.hom_group(hid)
                dst_hg = ring.hom_group(kid)
                prime = find_prime_ideal(p, ring.level)
                for values in characters_by_digits(src_hg.gen_orders, ring.level):
                    invariant = True
                    for g in ksub.gens:
                        ginv = group.inverse[g]
                        perm = [index_of_map(src_hg, conj_values_map(
                                    group, values_map(src_hg, k), ginv))
                                for k in range(src_hg.size)]
                        if any(values[perm[k]] != values[k]
                               for k in range(src_hg.size)):
                            invariant = False
                            break
                    if not invariant:
                        continue
                    extended = []
                    for k in range(dst_hg.size):
                        restr = {x: dst_hg.value(k, x) for x in hsub.sorted_elems}
                        extended.append(values[index_of_map(src_hg, restr)])
                    d1 = sp.canonicalize_dual(
                        ring, hid, digits_of_values(src_hg, values, ring.level))
                    d2 = sp.canonicalize_dual(
                        ring, kid, digits_of_values(dst_hg, extended, ring.level))
                    assert spc.congruent_mod_p(ring, d1, d2, prime)
                    checked += 1
        assert checked > 0


def test_noninvariant_extension_can_fail(ring_factory):
    """The invariance hypothesis in the extension congruence is sharp:
    an order-3 character of the normal C3 in S3 is inverted by the
    transpositions, and its extension to S3 is not congruent above 2."""
    ring = ring_factory("S3", "6")
    lat = ring.lattice
    assert ring.level == 6
    c3 = next(s.id for s in lat.subgroups if s.order == 3)
    full = lat.full_group_id()
    src_hg = ring.hom_group(c3)
    dst_hg = ring.hom_group(full)
    order3 = next(v for v in characters_by_digits(src_hg.gen_orders, 6)
                  if 6 // math.gcd(6, *v) == 3)
    extended = []
    sub_elems = lat.subgroups[c3].sorted_elems
    for k in range(dst_hg.size):
        restr = {x: dst_hg.value(k, x) for x in sub_elems}
        extended.append(order3[index_of_map(src_hg, restr)])
    d1 = sp.canonicalize_dual(ring, c3, digits_of_values(src_hg, order3, 6))
    d2 = sp.canonicalize_dual(ring, full, digits_of_values(dst_hg, extended, 6))
    prime = find_prime_ideal(2, ring.level)
    # both pairs are 2-regular and non-conjugate, so they cannot be
    # congruent; this is why the extension congruence needs invariance
    assert spc.is_p_regular(ring, d1, 2)
    assert spc.is_p_regular(ring, d2, 2)
    assert d1 != d2
    assert not spc.congruent_mod_p(ring, d1, d2, prime)


def test_regularization_congruent_for_every_ideal(ring_factory):
    # a pair and its p-regularization agree modulo every prime above p
    for spec, fiber in (("S3", "6"), ("A4", "6")):
        ring = ring_factory(spec, fiber)
        for p in (2, 3):
            for ideal in prime_ideals(p, ring.level):
                for d in range(ring.rank):
                    r = spc.p_regularize(ring, d, p)
                    assert spc.congruent_mod_p(ring, d, r, ideal)


def test_distinct_regular_pairs_never_congruent(ring_factory):
    for spec, fiber in (("S4", "2"), ("C6", "6")):
        ring = ring_factory(spec, fiber)
        for p in (2, 3):
            prime = find_prime_ideal(p, ring.level)
            regular = [d for d in range(ring.rank) if spc.is_p_regular(ring, d, p)]
            for i, a in enumerate(regular):
                for b in regular[i + 1:]:
                    assert not spc.congruent_mod_p(ring, a, b, prime)


def test_equivalent_pairs_share_perfect_residual_class(ring_factory):
    ring = ring_factory("S5", "1")
    lat = ring.lattice
    duals = sp.dual_orbits(ring)
    for p in (2, 3, 5):
        prime = find_prime_ideal(p, ring.level)
        part = spc.p_equivalence_partition(ring, prime)
        for cls in part.classes:
            residuals = {
                lat.class_rep(lat.perfect_residual_id(duals[d].subgroup_id))
                for d in cls
            }
            assert len(residuals) == 1


# -- Galois action ------------------------------------------------------------------------

def test_galois_orbits_small_level(ring_factory):
    ring = ring_factory("S3", "2")
    for d in range(ring.rank):
        assert spc.galois_orbit(ring, d) == (d,)


def test_galois_orbit_pairs_order4_characters(ring_factory):
    ring = ring_factory("C4", "4")
    assert ring.level == 4
    paired = [d for d in sp.dual_orbits(ring)
              if character_order(d.digits, ring.hom_group(d.subgroup_id).gen_orders) == 4]
    seen = set()
    for d in paired:
        orbit = spc.galois_orbit(ring, d.index)
        assert len(orbit) == 2
        seen.add(orbit)
    trivial = dual_by_subgroup_order(ring, 1)
    assert spc.galois_orbit(ring, trivial.index) == (trivial.index,)


def test_galois_equivariance_of_rows(ring_factory):
    # the species row of (H, Phi^t) is sigma_t applied to the row of (H, Phi)
    ring = ring_factory("C6", "6")
    n = ring.level
    table = sp.species_table(ring)
    for d, (sid, values, _, _) in enumerate(dual_orbits_by_values(ring)[0]):
        hg = ring.hom_group(sid)
        for t in range(1, n):
            if math.gcd(t, n) != 1:
                continue
            powered = tuple((v * t) % n for v in values)
            other = sp.canonicalize_dual(ring, sid, digits_of_values(hg, powered, n))
            got = table[other]
            want = tuple(v.galois(t) for v in table[d])
            assert got == want


# -- components and blocks ---------------------------------------------------------------

def test_components_solvable(ring_factory):
    for spec, fiber in (("S4", "2"), ("D4", "2"), ("C6", "6")):
        comps = spc.components(ring_factory(spec, fiber))
        assert len(comps) == 1


def test_components_a5_s5(ring_factory):
    for spec in ("A5", "S5"):
        ring = ring_factory(spec, "1")
        comps = spc.components(ring)
        assert len(comps) == 2
        orders = [ring.lattice.subgroups[c.perfect_id].order for c in comps]
        assert orders == [1, 60]


def test_block_idempotent_solvable_is_one(ring_factory):
    for spec, fiber in (("S4", "2"), ("C6", "6")):
        ring = ring_factory(spec, fiber)
        comp = spc.components(ring)[0]
        assert spc.block_idempotent(ring, comp) == ring.one()


def test_block_idempotents_a5(ring_factory):
    ring = ring_factory("A5", "1")
    blocks = spc.block_idempotents(ring)
    total = ring.zero()
    for b in blocks:
        total = total + b
        for v in b.coeffs.values():
            assert v.is_integer()
    assert total == ring.one()
    assert ring.multiply(blocks[0], blocks[1]).is_zero()


@pytest.mark.parametrize("spec, fiber", [
    ("S4", "2x2"), ("D4", "4x4"), ("A5", "1"), ("A5", "6"), ("S5", "2"), ("S5", "60"),
    (GL32, "2"), ("A6", "2"), (C2CUBED, "2x2")])
def test_block_idempotent_matches_sum_of_primitives(ring_factory, spec, fiber):
    ring = ring_factory(spec, fiber)
    for comp in spc.components(ring):
        assert spc.block_idempotent(ring, comp) == block_idempotent_by_primitives(ring, comp)


@pytest.mark.parametrize("spec, fiber", [("A5", "2"), ("S5", "6"), ("A6", "2")])
def test_block_idempotent_species_is_the_component_indicator(ring_factory, spec, fiber):
    ring = ring_factory(spec, fiber)
    one, zero = Cyclotomic.one(ring.level), Cyclotomic.zero(ring.level)
    for comp in spc.components(ring):
        values = sp.species_values(ring, spc.block_idempotent(ring, comp), range(ring.rank))
        assert values == [one if d in comp.dual_orbits else zero for d in range(ring.rank)]


def test_block_idempotents_form_no_primitive_idempotent(monkeypatch):
    monkeypatch.setattr(sp, "idempotent",
                        lambda ring, d: pytest.fail("formed a primitive idempotent"))
    ring = build_ring("S5", "2")
    blocks = spc.block_idempotents(ring)
    assert len(blocks) == 2
    assert blocks[0] + blocks[1] == ring.one()


def test_block_idempotent_rejects_a_non_integer_coefficient(ring_factory):
    # the class of the trivial subgroup alone gives [G/1]/60 on A5; a fresh
    # index, since block idempotents are memoized by component index
    ring = ring_factory("A5", "1")
    comp = spc.components(ring)[0]
    trivial = ring.trivial_pair_orbit(ring.lattice.trivial_id())
    planted = comp._replace(index=99, basis_orbits=(trivial,))
    with pytest.raises(TheoremViolationError, match="non-integer coefficient"):
        spc.block_idempotent(ring, planted)


def test_block_support_condition(ring_factory):
    # e_J is supported on pairs whose perfect residual sits below J
    for spec, fiber in (("A5", "1"), ("S5", "2")):
        ring = ring_factory(spec, fiber)
        lat = ring.lattice
        for comp in spc.components(ring):
            e = spc.block_idempotent(ring, comp)
            jid = comp.perfect_id
            for k in e.support():
                sid = ring.basis.orbits[k].subgroup_id
                res = lat.perfect_residual_id(sid)
                conj_ids = {lat.conj_subgroup_id(g, res)
                            for g in range(ring.group.order)}
                assert any(lat.subgroups[c].elems <= lat.subgroups[jid].elems
                           for c in conj_ids)


def test_block_basis_solvable_fixed(ring_factory):
    ring = ring_factory("S3", "2")
    comp = spc.components(ring)[0]
    e1 = spc.block_idempotent(ring, comp)
    for b in comp.basis_orbits:
        x = ring.basis_element(b)
        assert ring.multiply(x, e1) == x


def test_block_basis_checks_counts_before_multiplying(ring_factory, monkeypatch):
    ring = ring_factory("S3", "2")
    comp = spc.components(ring)[0]
    uneven = comp._replace(dual_orbits=comp.dual_orbits[1:])
    monkeypatch.setattr(ring, "multiply", lambda *args: pytest.fail("multiplied"))
    with pytest.raises(TheoremViolationError, match="counts differ"):
        spc.block_basis(ring, uneven)


def test_block_basis_s5(ring_factory):
    ring = ring_factory("S5", "1")
    comps = spc.components(ring)
    sizes = sorted(len(spc.block_basis(ring, c)) for c in comps)
    assert sizes == [2, 17]
    assert sum(len(c.basis_orbits) for c in comps) == ring.rank


# -- Weyl isomorphism ----------------------------------------------------------------------

def test_weyl_iso_trivial_perfect_subgroup(ring_factory):
    # J = 1: the Weyl ring is the regular-representation copy of the group
    ring = ring_factory("S3", "2")
    iso = spc.weyl_block_iso(ring, ring.lattice.trivial_id())
    assert iso.weyl_ring.group.order == ring.group.order
    assert len(iso.bijection) == ring.rank


def test_weyl_iso_a5(ring_factory):
    ring = ring_factory("A5", "1")
    jid = spc.components(ring)[1].perfect_id
    iso = spc.weyl_block_iso(ring, jid)
    assert iso.weyl_ring.group.order == 1
    assert len(iso.bijection) == 1


def test_weyl_iso_s5_block_rank_3(ring_factory):
    ring = ring_factory("S5", "2")
    jid = spc.components(ring)[1].perfect_id
    iso = spc.weyl_block_iso(ring, jid)
    assert iso.weyl_ring.group.order == 2
    assert iso.weyl_ring.rank == 3
    assert len(iso.bijection) == 3


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32,))
def test_weyl_lattice_matches_enumeration(ring_factory, spec):
    # the lattice mapped from J <= S <= N(J) is the enumerated one of N(J)/J
    ring = ring_factory(spec, "1")
    for jid in ring.lattice.perfect_class_reps():
        wring, _ = spc.weyl_ring(ring, jid)
        got, want = wring.lattice, perm.SubgroupLattice(wring.group)
        assert [s.elems for s in got.subgroups] == [s.elems for s in want.subgroups]
        assert [s.gens for s in got.subgroups] == [s.gens for s in want.subgroups]
        assert got.class_index == want.class_index
        assert got.to_rep == want.to_rep
        assert got.normalizer_ids == want.normalizer_ids


def test_weyl_iso_does_not_enumerate_subgroups(ring_factory, monkeypatch):
    rings = [ring_factory("S5", "2"), ring_factory(GL32, "1")]

    def refuse(group):
        raise AssertionError("the Weyl lattice was enumerated")

    monkeypatch.setattr(perm, "_enumerate_subgroup_sets", refuse)
    for ring in rings:
        for jid in ring.lattice.perfect_class_reps():
            spc.weyl_block_iso(ring, jid)


def test_weyl_ring_reads_no_mobius_row_of_the_normalizer(ring_factory, monkeypatch):
    # at J = 1 on S5/2, N(J) is the whole group: weyl_ring scans the
    # subgroups of N(J) without building that group's Moebius row
    ring = ring_factory("S5", "2")
    lattice, jid = ring.lattice, ring.lattice.trivial_id()
    nid = lattice.normalizer_ids[jid]
    assert lattice.subgroups[nid].order == 120
    rows = []
    mobius_row = perm.SubgroupLattice.mobius_row
    monkeypatch.setattr(perm.SubgroupLattice, "mobius_row", lambda self, hid: (
        rows.append((self, hid)) or mobius_row(self, hid)))
    wring, _ = spc.weyl_ring(ring, jid)
    assert wring.group.order == 120 and len(wring.lattice.subgroups) == 156
    assert (lattice, nid) not in rows


def test_weyl_iso_rejects_non_perfect(ring_factory):
    ring = ring_factory("S3", "2")
    c2 = next(s.id for s in ring.lattice.subgroups if s.order == 2)
    with pytest.raises(InputError):
        spc.weyl_block_iso(ring, c2)


def perfect_of_order(ring, order):
    return next(j for j in ring.lattice.perfect_class_reps()
                if ring.lattice.subgroups[j].order == order)


WEYL_CASES = [("S4", "2x2", 1), (C2CUBED, "2x2", 1), (GL32, "1", 1), ("S5", "2", 60)]


@pytest.mark.parametrize("spec,fiber,order", WEYL_CASES)
def test_weyl_species_check_agrees_with_product_check(ring_factory, spec, fiber, order):
    ring = ring_factory(spec, fiber)
    jid = perfect_of_order(ring, order)
    by_species = spc.weyl_block_iso(ring, jid, products=False)
    by_products = spc.weyl_block_iso(ring, jid, products=True)
    assert by_species.bijection == by_products.bijection
    assert len(by_species.bijection) > 2


@pytest.mark.parametrize("spec,fiber,order", [("S4", "2x2", 1), ("S5", "2", 60)])
def test_weyl_species_check_rejects_swapped_images(ring_factory, monkeypatch,
                                                   spec, fiber, order):
    # two images of the bijection exchanged: still a bijection onto the
    # block, but no ring map on a block of rank > 2
    ring = ring_factory(spec, fiber)
    jid = perfect_of_order(ring, order)
    (_, a), (_, b) = spc.weyl_block_iso(ring, jid, products=False).bijection[:2]
    canonicalize_pair = ring.canonicalize_pair

    def swapped(sid, value):
        k = canonicalize_pair(sid, value)
        return {a: b, b: a}.get(k, k)

    monkeypatch.setattr(ring, "canonicalize_pair", swapped)
    with pytest.raises(TheoremViolationError, match="species"):
        spc.weyl_block_iso(ring, jid, products=False)


def test_weyl_product_check_catches_a_wrong_structure_constant(monkeypatch):
    # the species check reads no structure constant, so a wrong one that
    # the product check reads passes it; products=True is its oracle
    ring = build_ring("S4", "2")
    jid = ring.lattice.trivial_id()
    a = spc.weyl_block_iso(ring, jid, products=False).bijection[0][1]
    structure_constants = ring.structure_constants

    def planted(i, j):
        (k, c), *rest = structure_constants(i, j)
        return ((k, c + 1), *rest) if (i, j) == (a, a) else ((k, c), *rest)

    monkeypatch.setattr(ring, "structure_constants", planted)
    spc.weyl_block_iso(ring, jid, products=False)
    with pytest.raises(TheoremViolationError, match="multiplicative"):
        spc.weyl_block_iso(ring, jid, products=True)


def test_weyl_species_check_forms_no_product(monkeypatch):
    # products=False forms no block idempotent and multiplies nothing
    def refuse(*args):
        raise AssertionError("the species check formed a product")

    monkeypatch.setattr(FiberedBurnsideRing, "multiply", refuse)
    monkeypatch.setattr(spc, "block_idempotent", refuse)
    ring = build_ring("S5", "2")
    for jid in ring.lattice.perfect_class_reps():
        assert spc.weyl_block_iso(ring, jid, products=False).bijection
