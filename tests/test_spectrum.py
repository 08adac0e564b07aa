"""P-equivalence, regularization, Galois orbits, blocks and the Weyl map."""

import pytest

from fbr import perm
from fbr import species as sp
from fbr import spectrum as spc
from fbr.abelian import character_order, character_p_parts
from fbr.acceptance import CATALOG_GROUPS
from fbr.cyclo import find_prime_ideal, prime_ideals
from fbr.errors import InputError, TheoremViolationError
from oracles import conj_values_map, index_of_map, p_regularize_reversed, values_map

GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"


def dual_by_subgroup_order(ring, order, char_order=None):
    for d in sp.dual_orbits(ring):
        if ring.lattice.subgroups[d.subgroup_id].order != order:
            continue
        if char_order is None or character_order(d.values, ring.level) == char_order:
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
    for spec, fiber in (("S3", "2"), ("D4", "2"), ("S4", "2"), ("A4", "6"),
                        ("S5", "2"), ("perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)", "1")):
        ring = ring_factory(spec, fiber)
        for d in range(ring.rank):
            for p in (2, 3):
                assert spc.p_regularize(ring, d, p) == \
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


# -- congruence oracle ------------------------------------------------------------------

def test_congruence_with_p_prime_part(ring_factory):
    # (H, Phi) is congruent to (H, Phi with its p-part removed) above p
    for spec, fiber in (("C6", "6"), ("S3", "6")):
        ring = ring_factory(spec, fiber)
        duals = sp.dual_orbits(ring)
        for p in (2, 3):
            prime = find_prime_ideal(p, ring.level)
            for d in duals:
                _, pprime = character_p_parts(d.values, p, ring.level)
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
    from fbr.abelian import dual_character_values
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
                for values in dual_character_values(src_hg, ring.level):
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
                    d1 = sp.canonicalize_dual(ring, hid, values)
                    d2 = sp.canonicalize_dual(ring, kid, tuple(extended))
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
    from fbr.abelian import dual_character_values
    order3 = next(v for v in dual_character_values(src_hg, 6)
                  if character_order(v, 6) == 3)
    extended = []
    sub_elems = lat.subgroups[c3].sorted_elems
    for k in range(dst_hg.size):
        restr = {x: dst_hg.value(k, x) for x in sub_elems}
        extended.append(order3[index_of_map(src_hg, restr)])
    d1 = sp.canonicalize_dual(ring, c3, order3)
    d2 = sp.canonicalize_dual(ring, full, tuple(extended))
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
              if character_order(d.values, 4) == 4]
    seen = set()
    for d in paired:
        orbit = spc.galois_orbit(ring, d.index)
        assert len(orbit) == 2
        seen.add(orbit)
    trivial = dual_by_subgroup_order(ring, 1)
    assert spc.galois_orbit(ring, trivial.index) == (trivial.index,)


def test_galois_equivariance_of_rows(ring_factory):
    # the species row of (H, Phi^t) is sigma_t applied to the row of (H, Phi)
    from math import gcd
    ring = ring_factory("C6", "6")
    n = ring.level
    table = sp.species_table(ring)
    duals = sp.dual_orbits(ring)
    for d in duals:
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            powered = tuple((v * t) % n for v in d.values)
            other = sp.canonicalize_dual(ring, d.subgroup_id, powered)
            got = table[other]
            want = tuple(v.galois(t) for v in table[d.index])
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
