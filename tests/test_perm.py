"""Group machinery: closure, lattices, cosets, residuals, Moebius."""

import functools
import itertools
import random
from math import log2

import pytest

from fbr.acceptance import CATALOG_GROUPS
from fbr.arith import p_part
from fbr.errors import InputError, InvariantViolationError, ResourceLimitError
from fbr.perm import (FiniteGroup, SubgroupLattice, _conjugates, _ProductRow, compose,
                      cycle_string, double_coset_reps, identity_perm, invert,
                      parse_cycles, parse_group_spec, perm_order,
                      quotient_group, sylow_subgroup)
from oracles import (double_coset_reps_reversed, mobius_bottom_up,
                     normalizer_by_definition, sylow_subgroup_reversed)


GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"


def lattice(spec):
    return SubgroupLattice(parse_group_spec(spec))


# -- closure -----------------------------------------------------------------

def test_closure_transposition():
    g = FiniteGroup.from_generators(2, [(1, 0)])
    assert g.order == 2


def test_closure_s3_matches_full_enumeration():
    # oracle: all 6 permutations of three points, listed directly
    expected = {p for p in itertools.permutations(range(3))}
    g = FiniteGroup.from_generators(3, [(1, 2, 0), (1, 0, 2)])
    assert set(g.elements) == expected


def test_trivial_group():
    g = FiniteGroup.from_generators(1, [])
    assert g.order == 1


def test_order_cap():
    with pytest.raises(ResourceLimitError):
        parse_group_spec("S8")


def test_malformed_permutation_rejected():
    with pytest.raises(InputError):
        FiniteGroup.from_generators(3, [(0, 0, 1)])
    with pytest.raises(InputError):
        FiniteGroup.from_generators(0, [])


def test_identity_is_element_zero():
    for spec in ("C4", "S3", "Q8"):
        g = parse_group_spec(spec)
        assert g.elements[0] == identity_perm(g.degree)


@pytest.mark.parametrize("degree, elements", [
    # the inverse (2, 0, 1) of the 3-cycle (1, 2, 0) is missing
    (3, [(0, 1, 2), (1, 2, 0)]),
    # involutions only, so closed under inverses, but the product of the
    # swaps of points 0,1 and 1,2 is missing
    (4, [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (0, 2, 1, 3)]),
    # point 0 alone tells the three apart, so the products outside the set
    # have the base images of elements inside it
    (4, [(0, 1, 2, 3), (1, 0, 2, 3), (3, 1, 2, 0)]),
])
def test_from_elements_rejects_non_closed_sets(degree, elements):
    with pytest.raises(InvariantViolationError):
        FiniteGroup.from_elements(degree, elements)


def test_from_elements_rejects_non_closed_set_without_table():
    # A7 plus one transposition: 2521 elements, too many for a
    # multiplication table, and closed under inverses
    a7 = parse_group_spec("A7")
    with pytest.raises(InvariantViolationError):
        FiniteGroup.from_elements(7, list(a7.elements) + [(1, 0, 2, 3, 4, 5, 6)])


# -- products ------------------------------------------------------------------

def test_products_match_composition():
    # C2 has rows of length 2; perm:1:(1) has rows of length 1 and a
    # generator of degree 1, for which itemgetter gives an item, not a tuple
    s5 = parse_group_spec("S5")
    regular, _ = quotient_group(s5, range(s5.order), {s5.identity})
    for g in (parse_group_spec("S4"), parse_group_spec(GL32), regular,
              *map(parse_group_spec, ("A6", "C2", "perm:1:(1)"))):
        assert isinstance(g.rows[0], tuple)
        for a, x in enumerate(g.elements):
            assert [g.mul(a, b) for b in range(g.order)] == \
                [g.index[compose(x, y)] for y in g.elements]


def test_products_match_composition_without_table():
    g = parse_group_spec("A7")
    assert isinstance(g.rows[0], _ProductRow)
    for a in range(0, g.order, 97):
        for b in range(0, g.order, 89):
            assert g.mul(a, b) == g.index[compose(g.elements[a], g.elements[b])]
    # rows formed from image tuples, as A7 reads them, on groups with a
    # table
    for spec in (GL32, "A6", "C2", "perm:1:(1)"):
        g = parse_group_spec(spec)
        for a, x in enumerate(g.elements):
            row = _ProductRow(x, g.elements, g.index)
            assert [row[b] for b in range(g.order)] == \
                [g.index[compose(x, y)] for y in g.elements]


# -- conjugation, closure and double cosets against composition ---------------

@functools.lru_cache(maxsize=None)
def kernel_group(name):
    if name == "S5 regular":
        s5 = parse_group_spec("S5")
        return quotient_group(s5, range(s5.order), {s5.identity})[0]
    return parse_group_spec(GL32 if name == "GL32" else name)


def kernel_sample(name):
    """Every element index of a group with a table; a seeded sample of
    60 of A7, which has none."""
    g = kernel_group(name)
    if name == "A7":
        assert isinstance(g.rows[0], _ProductRow)
        return sorted(random.Random(7).sample(range(g.order), 60))
    assert isinstance(g.rows[0], tuple)
    return range(g.order)


def conj_by_composition(g, a, x):
    e = g.elements
    return g.index[compose(compose(e[a], e[x]), invert(e[a]))]


def closure_by_composition(g, seed):
    known = {identity_perm(g.degree)}
    frontier = list(known)
    while frontier:
        frontier = [y for y in {compose(x, g.elements[s])
                                for x in frontier for s in seed} if y not in known]
        known.update(frontier)
    return frozenset(g.index[x] for x in known)


def double_cosets_by_composition(g, h, k):
    """The double cosets HaK as index sets, each formed once."""
    e = g.elements
    cosets = {}
    for a in range(g.order):
        if not any(a in c for c in cosets.values()):
            cosets[a] = frozenset(g.index[compose(compose(e[x], e[a]), e[y])]
                                  for x in h for y in k)
    return list(cosets.values())


KERNEL_GROUPS = ["S4", "GL32", "S5 regular", "A7", "A6"]


# rows of length 2 and 1, as in test_products_match_composition
@pytest.mark.parametrize("name", KERNEL_GROUPS + ["C2", "perm:1:(1)"])
def test_conj_matches_composition(name):
    g = kernel_group(name)
    sample = kernel_sample(name)
    for a in sample:
        assert [g.conj(a, x) for x in sample] == \
            [conj_by_composition(g, a, x) for x in sample]


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_closure_and_conj_set_match_composition(name):
    g = kernel_group(name)
    rng = random.Random(11)
    sample = list(kernel_sample(name))
    for _ in range(6):
        seed = rng.sample(sample, rng.choice((1, 2)))
        sub = g.closure(seed)
        assert sub == closure_by_composition(g, seed)
        for a in rng.sample(sample, 8):
            assert g.conj_set(a, sorted(sub)) == \
                frozenset(conj_by_composition(g, a, x) for x in sub)


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_double_coset_reps_match_composition(name):
    # forward: the least element of each double coset, ascending;
    # reversed: the greatest, descending
    g = kernel_group(name)
    rng = random.Random(13)
    sample = list(kernel_sample(name))
    for _ in range(4):
        h = sorted(closure_by_composition(g, rng.sample(sample, 1)))
        k = sorted(closure_by_composition(g, rng.sample(sample, 1)))
        cosets = double_cosets_by_composition(g, h, k)
        assert double_coset_reps(g, h, k) == tuple(sorted(min(c) for c in cosets))
        assert double_coset_reps_reversed(g, h, k) == \
            tuple(sorted((max(c) for c in cosets), reverse=True))


# -- subgroup enumeration ------------------------------------------------------

def brute_force_subgroup_sets(group):
    """Oracle: scan all subsets containing the identity for closure."""
    out = set()
    elems = list(range(group.order))
    for r in range(group.order + 1):
        for subset in itertools.combinations(elems, r):
            if 0 not in subset:
                continue
            s = set(subset)
            if all(group.mul(a, b) in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def test_subgroups_c2():
    lat = lattice("C2")
    assert len(lat) == 2
    assert len(lat.classes) == 2


def test_subgroups_s3_against_brute_force():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    assert {s.elems for s in lat.subgroups} == brute_force_subgroup_sets(g)
    assert len(lat) == 6
    assert len(lat.classes) == 4


@pytest.mark.parametrize("spec,count,classes", [
    ("C4", 3, 3),
    ("V4", 5, 5),
    ("C6", 4, 4),
    ("D4", 10, 8),
    ("Q8", 6, 6),
    ("A4", 10, 5),
    ("S4", 30, 11),
    ("A5", 59, 9),
    ("S5", 156, 19),
])
def test_subgroup_counts(spec, count, classes):
    lat = lattice(spec)
    assert len(lat) == count
    assert len(lat.classes) == classes


def join_fixpoint_lattice(group):
    """Oracle: close the cyclic subgroups under joins with every cyclic
    subgroup, then find classes, least witnesses, normalizers and greedy
    generators by brute force over the whole group.  Returns the lattice
    data in lattice order."""
    gens_of = {}
    for g in range(group.order):
        gens_of.setdefault(group.closure((g,)), (g,))
    cyclic = list(gens_of.items())
    queue = list(gens_of)
    for s in queue:
        for c, cgens in cyclic:
            if not c <= s:
                joined = group.closure(gens_of[s] + cgens)
                if joined not in gens_of:
                    gens_of[joined] = gens_of[s] + cgens
                    queue.append(joined)
    subgroups = sorted(gens_of, key=lambda fs: (len(fs), sorted(fs)))
    by_set = {s: i for i, s in enumerate(subgroups)}
    m = len(subgroups)
    class_index, to_rep, normalizer_ids, gens = [None] * m, [None] * m, [], []
    n_classes = 0
    for i, s in enumerate(subgroups):
        images = [by_set[group.conj_set(g, s)] for g in range(group.order)]
        normalizer_ids.append(
            by_set[frozenset(g for g, t in enumerate(images) if t == i)])
        if class_index[i] is None:
            for g, t in enumerate(images):
                if class_index[t] is None:
                    class_index[t] = n_classes
                    to_rep[t] = group.inverse[g]
            n_classes += 1
        sgens, current = [], {group.identity}
        for x in sorted(s):
            if x not in current:
                sgens.append(x)
                current = group.closure(sgens)
        gens.append(tuple(sgens))
    return subgroups, class_index, to_rep, normalizer_ids, gens


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32,))
def test_lattice_matches_join_fixpoint_oracle(spec):
    g = parse_group_spec(spec)
    lat = SubgroupLattice(g)
    subgroups, class_index, to_rep, normalizer_ids, gens = join_fixpoint_lattice(g)
    assert [s.elems for s in lat.subgroups] == subgroups
    assert lat.class_index == class_index
    assert lat.to_rep == to_rep
    assert lat.normalizer_ids == normalizer_ids
    assert [s.gens for s in lat.subgroups] == gens
    assert [c.rep for c in lat.classes] == [
        class_index.index(c) for c in range(len(lat.classes))]


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32,))
def test_lattice_from_sets_matches_enumeration(spec):
    # the sets of an earlier build, shuffled and as lists, give the same lattice
    g = parse_group_spec(spec)
    lat = SubgroupLattice(g)
    sets = [list(s.sorted_elems) for s in lat.subgroups]
    random.Random(len(sets)).shuffle(sets)
    again = SubgroupLattice(g, sets)
    assert [s.elems for s in again.subgroups] == [s.elems for s in lat.subgroups]
    assert [s.gens for s in again.subgroups] == [s.gens for s in lat.subgroups]
    assert again.class_index == lat.class_index
    assert again.to_rep == lat.to_rep
    assert again.normalizer_ids == lat.normalizer_ids
    assert again.classes == lat.classes


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32, "A6"))
def test_conjugates_witnesses_are_least(spec):
    # for each class representative S: N(S), the class of S, and for each
    # member T the least g in G with ^gS = T, all by a scan of G
    lat = lattice(spec)
    g = lat.group
    for cls in lat.classes:
        s = lat.subgroups[cls.rep]
        least = {}
        for x in range(g.order):
            least.setdefault(g.conj_set(x, s.sorted_elems), x)
        norm, pairs = _conjugates(g, s.elems, s.gens)
        assert norm == [x for x in range(g.order)
                        if g.conj_set(x, s.sorted_elems) == s.elems]
        assert pairs == sorted((x, t) for t, x in least.items())


@pytest.mark.parametrize("spec", ["S4", "S5", GL32])
def test_normalizers_match_definition(spec):
    # every subgroup, not only class representatives: a member's
    # normalizer is the conjugate of its representative's
    lat = lattice(spec)
    for s in lat.subgroups:
        assert lat.normalizer(s.id).elems == normalizer_by_definition(lat.group, s.elems)


def test_subgroup_count_a6():
    lat = lattice("A6")
    assert len(lat) == 501
    assert len(lat.classes) == 22


def test_orbit_stabilizer_identity():
    # sum over classes of [G : N(H)] equals the subgroup count
    for spec in ("S3", "D4", "A4", "S4", "A5"):
        lat = lattice(spec)
        total = 0
        for cls in lat.classes:
            norm = lat.subgroups[lat.normalizer_ids[cls.rep]]
            total += lat.group.order // norm.order
        assert total == len(lat)


def test_class_members_share_order_and_mobius():
    lat = lattice("S4")
    g = lat.group
    for cls in lat.classes:
        orders = {lat.subgroups[m].order for m in cls.members}
        assert len(orders) == 1
    # conjugation preserves inclusion and Moebius values
    full = lat.full_group_id()
    for kid in range(0, len(lat), 5):
        for gidx in (1, 7):
            kc = lat.conj_subgroup_id(gidx, kid)
            assert lat.subgroups[kc].order == lat.subgroups[kid].order
            assert lat.mobius(kid, full) == lat.mobius(kc, full)


def test_witness_conjugates_to_representative():
    lat = lattice("S4")
    g = lat.group
    for s in lat.subgroups:
        w = lat.to_rep[s.id]
        rep = lat.class_rep(s.id)
        assert lat.conj_subgroup_id(w, s.id) == rep


# -- double cosets -------------------------------------------------------------

def test_double_cosets_whole_group():
    lat = lattice("S3")
    full = lat.full_group_id()
    assert lat.double_coset_reps(full, full) == ((0,), (full,))


def test_double_cosets_trivial_in_c2():
    lat = lattice("C2")
    assert len(lat.double_coset_reps(0, 0)[0]) == 2


def test_double_cosets_c2_in_s3_partition():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    c2 = next(s for s in lat.subgroups if s.order == 2)
    reps, _ = lat.double_coset_reps(c2.id, c2.id)
    assert len(reps) == 2
    # oracle: the double cosets partition the group, sizes 2 and 4
    cosets = []
    for r in reps:
        cosets.append({g.mul(g.mul(h, r), k)
                       for h in c2.sorted_elems for k in c2.sorted_elems})
    assert sorted(len(c) for c in cosets) == [2, 4]
    assert set().union(*cosets) == set(range(6))
    assert cosets[0] & cosets[1] == set()
    # the reversed scan picks the greatest element of each double coset
    rev = double_coset_reps_reversed(g, c2.sorted_elems, c2.sorted_elems)
    assert sorted(rev) == sorted(max(c) for c in cosets)


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32,))
def test_double_coset_memo_holds_meets(spec):
    # for class representatives H, K: the memo's g are the forward coset
    # representatives, its meet is H meet ^gK, and meet == H exactly when
    # H <= ^gK
    lat = lattice(spec)
    g = lat.group
    reps = [c.rep for c in lat.classes]
    for hid in reps:
        h = lat.subgroups[hid]
        for kid in reps:
            k = lat.subgroups[kid]
            memo = lat.double_coset_reps(hid, kid)
            assert memo[0] == double_coset_reps(g, h.sorted_elems, k.sorted_elems)
            for a, meet in zip(*memo):
                gk = frozenset(conj_by_composition(g, a, x) for x in k.elems)
                assert lat.subgroups[meet].elems == h.elems & gk
                assert (meet == hid) == (h.elems <= gk)
            assert lat.double_coset_reps(hid, kid) is memo


# -- normalizers ---------------------------------------------------------------

def test_normalizers_in_s3():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    full = lat.full_group_id()
    assert lat.normalizer_ids[full] == full
    for s in lat.subgroups:
        # oracle: brute-force stabilizer of the subgroup under conjugation
        norm = {x for x in range(g.order) if g.conj_set(x, s.sorted_elems) == s.elems}
        assert lat.subgroups[lat.normalizer_ids[s.id]].elems == frozenset(norm)
        if s.order == 2:
            assert lat.normalizer_ids[s.id] == s.id
        if s.order == 3:
            assert lat.normalizer_ids[s.id] == full


# -- derived series and residuals ----------------------------------------------

def test_derived_subgroups():
    lat = lattice("S3")
    assert lat.subgroups[lat.derived_id(lat.full_group_id())].order == 3
    c6 = lattice("C6")
    assert c6.derived_id(c6.full_group_id()) == c6.trivial_id()
    a5 = lattice("A5")
    assert a5.derived_id(a5.full_group_id()) == a5.full_group_id()


def all_pairs_derived(group, elems):
    """H' as the closure of the commutator of every pair of elements."""
    return group.closure({group.mul(group.mul(group.inverse[x], group.inverse[y]),
                                    group.mul(x, y))
                          for x in elems for y in elems})


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32, "A6"))
def test_derived_id_matches_all_pairs_oracle(spec):
    lat = lattice(spec)
    for s in lat.subgroups:
        assert lat.subgroups[lat.derived_id(s.id)].elems == \
            all_pairs_derived(lat.group, s.sorted_elems)


def test_derived_series_terminates_quickly():
    for spec in ("S4", "D4", "Q8"):
        lat = lattice(spec)
        series = lat.derived_series(lat.full_group_id())
        assert len(series) <= int(log2(lat.group.order)) + 1
        assert series[-1] == lat.trivial_id()


def test_perfect_residuals():
    s5 = lattice("S5")
    a5_id = next(s.id for s in s5.subgroups if s.order == 60)
    assert s5.perfect_residual_id(s5.full_group_id()) == a5_id
    assert s5.perfect_residual_id(a5_id) == a5_id
    s4 = lattice("S4")
    assert s4.perfect_residual_id(s4.full_group_id()) == s4.trivial_id()
    # idempotence
    for lat in (s5, s4):
        for cls in lat.classes:
            r = lat.perfect_residual_id(cls.rep)
            assert lat.perfect_residual_id(r) == r


def test_o_p_residuals():
    s3 = lattice("S3")
    full = s3.full_group_id()
    assert s3.subgroups[s3.o_p_residual_id(full, 2)].order == 3
    assert s3.o_p_residual_id(full, 3) == full
    d4 = lattice("D4")
    assert d4.o_p_residual_id(d4.full_group_id(), 2) == d4.trivial_id()
    with pytest.raises(InputError):
        s3.o_p_residual_id(full, 4)


@pytest.mark.parametrize("spec", CATALOG_GROUPS + (GL32,))
def test_o_p_residuals_match_closure_of_p_prime_elements(spec):
    # the p-free shortcut included: every subgroup and every p up to 7
    lat = lattice(spec)
    group = lat.group
    for s in lat.subgroups:
        for p in (2, 3, 5, 7):
            seed = [x for x in s.sorted_elems if group.element_orders[x] % p != 0]
            assert lat.o_p_residual_id(s.id, p) == lat.by_set[group.closure(seed)]


def test_os_of_op_equals_os():
    for spec in ("S3", "D4", "A4", "S4"):
        lat = lattice(spec)
        for cls in lat.classes:
            hid = cls.rep
            target = lat.perfect_residual_id(hid)
            for p in (2, 3, 5):
                op = lat.o_p_residual_id(hid, p)
                assert lat.perfect_residual_id(op) == target


def test_perfect_class_reps():
    assert [lattice("S4").subgroups[j].order
            for j in lattice("S4").perfect_class_reps()] == [1]
    a5 = lattice("A5")
    assert [a5.subgroups[j].order for j in a5.perfect_class_reps()] == [1, 60]
    s5 = lattice("S5")
    assert [s5.subgroups[j].order for j in s5.perfect_class_reps()] == [1, 60]


# -- Moebius -------------------------------------------------------------------

def test_mobius_values():
    v4 = lattice("V4")
    assert v4.mobius(v4.full_group_id(), v4.full_group_id()) == 1
    assert v4.mobius(0, v4.full_group_id()) == 2
    c4 = lattice("C4")
    assert c4.mobius(0, c4.full_group_id()) == 0
    c2 = lattice("C2")
    assert c2.mobius(0, 1) == -1
    with pytest.raises(InputError):
        s3 = lattice("S3")
        c2s = [s.id for s in s3.subgroups if s.order == 2]
        s3.mobius(c2s[0], c2s[1])


def test_mobius_sum_rule():
    # sum over K <= L <= H of mu(K, L) vanishes for K < H: the recursion
    # dual to the one that fills a row, reading mu(K, L) from L's own row
    for spec, every in (("S3", True), ("D4", True), ("A4", True), ("S4", True),
                        ("A5", True), ("S5", False), (GL32, False)):
        lat = lattice(spec)
        for hid in range(len(lat)) if every else [c.rep for c in lat.classes]:
            for kid in lat.mobius_row(hid):
                total = sum(
                    lat.mobius(kid, lid)
                    for lid in lat.mobius_row(hid)
                    if lat.subgroups[kid].elems <= lat.subgroups[lid].elems
                )
                assert total == (1 if kid == hid else 0)


def test_mobius_row_matches_bottom_up_recursion():
    # the top-down row of every class representative H holds exactly the
    # subgroups of H, with the values of the bottom-up recursion
    for spec in ("S4", "S5", GL32, "A6"):
        lat = lattice(spec)
        memo = {}
        for cls in lat.classes:
            helems = lat.subgroups[cls.rep].elems
            row = lat.mobius_row(cls.rep)
            assert sorted(row) == [k.id for k in lat.subgroups if k.elems <= helems]
            for kid, mu in row.items():
                assert mu == mobius_bottom_up(lat, kid, cls.rep, memo)


# -- quotients and Sylow subgroups ----------------------------------------------

def test_quotient_s3_mod_a3():
    g = parse_group_spec("S3")
    lat = SubgroupLattice(g)
    a3 = next(s for s in lat.subgroups if s.order == 3)
    q, onto = quotient_group(g, lat.subgroups[lat.full_group_id()].sorted_elems,
                             a3.elems)
    assert q.order == 2
    assert len(set(onto.values())) == 2
    assert all(onto[x] == 0 for x in a3.sorted_elems)


def explicit_quotient(group, n_elems, k_elems):
    """The permutation of each x in N on the left cosets of K, listed in
    the order of their least elements."""
    cosets = sorted({frozenset(group.mul(x, k) for k in k_elems) for x in n_elems},
                    key=min)
    label = {y: i for i, c in enumerate(cosets) for y in c}
    return {x: tuple(label[group.mul(x, min(c))] for c in cosets) for x in n_elems}


def weyl_pairs():
    for spec in ("A5", "S5", GL32):
        lat = lattice(spec)
        for jid in lat.perfect_class_reps():
            yield lat.group, lat.normalizer(jid).sorted_elems, lat.subgroups[jid].elems
    for spec, order in (("S5", 60), ("S4", 4)):
        lat = lattice(spec)
        # A5 in S5, and V4 (the normal subgroup of order 4) in S4
        k = next(s for s in lat.subgroups if s.order == order
                 and lat.normalizer(s.id).order == lat.group.order)
        yield lat.group, range(lat.group.order), k.elems


def test_quotient_points_are_cosets_by_least_element():
    count = 0
    for group, n_elems, k_elems in weyl_pairs():
        q, onto = quotient_group(group, n_elems, k_elems)
        want = explicit_quotient(group, n_elems, k_elems)
        assert set(onto) == set(want)
        assert all(q.elements[onto[x]] == perm for x, perm in want.items())
        count += 1
    assert count == 8


def test_sylow_subgroups():
    g = parse_group_spec("S4")
    for p, size in ((2, 8), (3, 3)):
        for sylow in (sylow_subgroup, sylow_subgroup_reversed):
            syl = sylow(g, p)
            assert len(syl) == size
    s3 = parse_group_spec("S3")
    assert len(sylow_subgroup(s3, 2)) == 2
    assert len(sylow_subgroup(s3, 5)) == 1


@pytest.mark.parametrize("spec", ["S4", "A5"])
def test_sylow_modulo_normal_subgroup(spec):
    # for every K normal in N: the preimage of a Sylow p-subgroup of N/K
    lat = lattice(spec)
    g = lat.group
    pairs = 0
    for n in lat.subgroups:
        for k in lat.subgroups:
            if not k.elems <= n.elems or any(
                    g.conj_set(x, k.sorted_elems) != k.elems for x in n.gens):
                continue
            pairs += 1
            for p in (2, 3, 5):
                for sylow in (sylow_subgroup, sylow_subgroup_reversed):
                    syl = sylow(g, p, n.elems, k.elems)
                    assert k.elems <= syl <= n.elems
                    assert g.closure(syl) == syl
                    assert len(syl) == k.order * p_part(n.order // k.order, p)
    assert pairs > len(lat)


# -- parsing ---------------------------------------------------------------------

def test_parse_named_groups():
    assert parse_group_spec("S3").order == 6
    assert parse_group_spec("A5").order == 60
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("Q8").order == 8
    assert parse_group_spec("V4").order == 4
    assert parse_group_spec("C1").order == 1


def test_parse_perm_spec():
    g = parse_group_spec("perm:5:(1 2 3 4 5);(1 2)")
    assert g.order == 120
    assert parse_group_spec("perm:3:(1 2 3)").order == 3


def test_parse_errors_have_positions():
    with pytest.raises(InputError, match="position"):
        parse_cycles(3, "(1 2")
    with pytest.raises(InputError):
        parse_cycles(3, "(1 4)")
    with pytest.raises(InputError):
        parse_group_spec("X7")
    with pytest.raises(InputError):
        parse_group_spec("D2")
    with pytest.raises(InputError):
        parse_group_spec("perm:abc:(1 2)")


def test_cycle_string_round_trip():
    g = parse_group_spec("S4")
    for e in g.elements:
        assert parse_cycles(4, cycle_string(e)) == e or e == identity_perm(4)
