"""Dict-based reference computations the tests compare the package with.

They move homomorphisms as value maps {element index: fiber value}, the
way the package did before it pulled value tables back along index
maps, and they keep their own double coset scan for restriction.  The
reversed scans run the package's scans backwards: double cosets and
Sylow growth pick greatest elements, so products and regularizations
can be checked not to depend on which representatives are picked.
The p-regular member of a P-class comes from a Sylow climb through the
stabilizers N(K, Psi), independent of the package's p-perfect rule,
with either Sylow scan.
Normalizers are formed from their definition by composing image tuples.
Moebius values come bottom-up, from the lower end of each interval.
The abelianization coordinates, the Hom tables and the characters of a
Hom group are formed one element at a time, by repeated products and
linear combinations over exponent tuples.
"""

from itertools import product
from math import gcd

from fbr import perm
from fbr import species as sp
from fbr.abelian import character_p_parts
from fbr.arith import p_part
from fbr.ring import RingElement


def values_map(hom_group, k):
    """Homomorphism k of a Hom group as a value map on its domain."""
    return dict(zip(hom_group.domain, hom_group.tables[k]))


def index_of_map(hom_group, values):
    """Index of the homomorphism with this value map."""
    return hom_group.index_of(tuple(values[x] for x in hom_group.domain))


def conj_values_map(group, values, g):
    """Conjugate homomorphism ^g(phi) on ^g(domain): x -> phi(g^-1 x g)."""
    return {group.conj(g, x): v for x, v in values.items()}


def restrict_by_scan(x, target):
    """Restriction by the double coset formula with a scan and meets of
    its own, independent of the lattice's double coset memo."""
    src = x.ring
    group = src.group
    k_elems = sorted(group.index[e] for e in target.group.elements)
    k_set = frozenset(k_elems)
    out = {}
    for i, c in x.coeffs.items():
        u = src.lattice.subgroups[src.basis.orbits[i].subgroup_id]
        phi = src.pair_values_map(i)
        for g in perm.double_coset_reps(group, k_elems, u.sorted_elems):
            ginv = group.inverse[g]
            tvalues = {target.group.index[group.elements[y]]: phi[group.conj(ginv, y)]
                       for y in k_set & group.conj_set(g, u.sorted_elems)}
            sid = target.lattice.by_set[frozenset(tvalues)]
            oidx = target.canonicalize_pair(sid, tvalues)
            out[oidx] = out[oidx] + c if oidx in out else c
    return RingElement(target, out)


def double_coset_reps_reversed(group, h_elems, k_elems):
    """The greatest element of each double coset HgK, descending."""
    covered = set()
    reps = []
    for g in range(group.order - 1, -1, -1):
        if g not in covered:
            reps.append(g)
            covered.update(group.mul(group.mul(h, g), k) for h in h_elems for k in k_elems)
    return tuple(reps)


def multiply_basis_reversed(ring, i, j):
    """ring.multiply_basis(i, j) over the reversed double coset scan."""
    group, lattice = ring.group, ring.lattice
    h = lattice.subgroups[ring.basis.orbits[i].subgroup_id]
    k = lattice.subgroups[ring.basis.orbits[j].subgroup_id].sorted_elems
    phi, psi = ring.pair_values_map(i), ring.pair_values_map(j)
    out = {}
    for g in double_coset_reps_reversed(group, h.sorted_elems, k):
        ginv = group.inverse[g]
        sid = lattice.by_set[h.elems & group.conj_set(g, k)]
        values = {x: ring.fiber.add(phi[x], psi[group.conj(ginv, x)])
                  for x in lattice.subgroups[sid].sorted_elems}
        oidx = ring.canonicalize_pair(sid, values)
        out[oidx] = out.get(oidx, 0) + 1
    return out


def sylow_subgroup_reversed(group, p, n_elems=None, k_elems=None):
    """perm.sylow_subgroup adding the greatest p-element of N that
    normalizes the current subgroup and lies outside it."""
    scan = sorted(range(group.order) if n_elems is None else n_elems, reverse=True)
    current = frozenset(k_elems or {group.identity})
    target = len(current) * p_part(len(scan) // len(current), p)
    orders = group.element_orders
    candidates = [g for g in scan if p_part(orders[g], p) == orders[g]]
    while len(current) < target:
        g = next(g for g in candidates
                 if g not in current and group.conj_set(g, current) == current)
        current = group.closure(sorted(current) + [g])
    return current


def _normalizer_walk(ring, rep):
    """N(H) for a class representative H, as a walk from the identity
    over the generators: its elements, and for each element after the
    identity, the position of the element it was reached from and the
    generator it was multiplied by on the right."""
    group = ring.group
    gens = ring.lattice.normalizer(rep).gens
    elems = [group.identity]
    position = {group.identity: 0}
    steps = []
    for i, x in enumerate(elems):  # elems grows during the loop
        for g in gens:
            xg = group.mul(x, g)
            if xg not in position:
                position[xg] = len(elems)
                elems.append(xg)
                steps.append((i, g))
    return elems, steps


def _dual_pair_stabilizer(ring, rep, values):
    """Elements of N(H) fixing the character, in increasing order, for H
    a class representative; the stabilizer N(H, Phi).

    n fixes Phi when Phi o sigma_n = Phi, and along the walk
    Phi o sigma_(xg) = (Phi o sigma_x) o sigma_g, so only the generators'
    permutations are needed."""
    elems, steps = ring.memo(("normalizer walk", rep), lambda: _normalizer_walk(ring, rep))
    action = ring.hom_action(rep)
    moved = [values]
    for i, g in steps:
        moved.append(tuple(map(moved[i].__getitem__, action[g])))
    return sorted(n for n, v in zip(elems, moved) if v == values)


def p_regularize_by_climb(ring, d, p, sylow=perm.sylow_subgroup):
    """The p-regular member of the P-class of a dual orbit, by a climb.

    Strips the p-part of the character, then repeatedly moves (K, Psi)
    to its class representative and climbs to the preimage of a Sylow
    p-subgroup of N(K, Psi)/K, composing with restriction, until the
    pair is p-regular.  The preimage is grown in the ambient group
    (sylow with N = N(K, Psi)), without building the quotient.  The
    subgroup strictly grows, so the climb terminates; the resulting
    conjugacy class does not depend on the Sylow choices.
    """
    dual = sp.dual_orbits(ring)[d]
    sid = dual.subgroup_id
    _, values = character_p_parts(dual.values, p, ring.level)
    lattice = ring.lattice
    while True:
        if lattice.class_rep(sid) != sid:
            sid, values = sp.conjugate_character(ring, sid, values, lattice.to_rep[sid])
        stab = _dual_pair_stabilizer(ring, sid, values)
        k_order = lattice.subgroups[sid].order
        if (len(stab) // k_order) % p != 0:
            return sp.canonicalize_dual(ring, sid, values)
        new_sid = lattice.by_set[sylow(ring.group, p, stab, lattice.subgroups[sid].elems)]
        # the character phi -> Psi(phi restricted to K) of Hom(new, A)
        src_hg = ring.hom_group(sid)
        res = ring.hom_group(new_sid).pullback(src_hg.domain, src_hg)
        sid, values = new_sid, tuple(values[k] for k in res)


def p_regularize_reversed(ring, d, p):
    """p_regularize_by_climb with each Sylow search reversed."""
    return p_regularize_by_climb(ring, d, p, sylow_subgroup_reversed)


def normalizer_by_definition(group, elems):
    """N(S) = {g : g S g^-1 = S}, composing image tuples, not the table."""
    s = {group.elements[x] for x in elems}
    return frozenset(
        g for g, e in enumerate(group.elements)
        if {perm.compose(perm.compose(e, x), perm.invert(e)) for x in s} == s)


def mobius_bottom_up(lattice, kid, hid, memo):
    """mu(K, H) by the recursion from the lower end: mu(K, K) = 1 and
    mu(K, H) = -sum of mu(K, L) over K <= L < H, memoized per (K, H) in
    memo.  Inclusion is tested on element sets."""
    key = (kid, hid)
    if key not in memo:
        subs = lattice.subgroups
        kelems, helems = subs[kid].elems, subs[hid].elems
        memo[key] = 1 if kid == hid else -sum(
            mobius_bottom_up(lattice, kid, lid, memo) for lid in range(kid, hid)
            if kelems <= subs[lid].elems <= helems)
    return memo[key]


def abelianization_coords_by_powers(group, subgroup, derived_elems, basis):
    """Exponent tuple of each element of H in a basis of H/[H,H], found
    by multiplying out the basis powers of every exponent tuple."""
    coset_key, _, q_mul, ident, _ = perm.coset_quotient(
        subgroup.sorted_elems, derived_elems, group.mul, group.identity)
    coords_of_coset = {}
    for exps in product(*(range(m) for _, m in basis)):
        cur = ident
        for (x, _), e in zip(basis, exps):
            for _ in range(e):
                cur = q_mul(cur, x)
        assert cur not in coords_of_coset, "basis is not independent"
        coords_of_coset[cur] = exps
    return {x: coords_of_coset[coset_key[x]] for x in subgroup.sorted_elems}


def hom_tables_by_combination(basis, coords, domain, fiber):
    """Hom(H, A) as (generator orders, value tables): one generator per
    (basis element i of order m, fiber factor j of order d) with
    g = gcd(m, d) > 1, sending basis element i to d/g in factor j; the
    homomorphism with digits ks is the combination sum k_t * gen_t,
    evaluated element by element over the coordinates, in product order
    of the digits."""
    gen_data = []
    for i, (_, m) in enumerate(basis):
        for j, d in enumerate(fiber.invariant_factors):
            g = gcd(m, d)
            if g > 1:
                unit = [0] * fiber.rank
                unit[j] = d // g
                gen_data.append((i, g, tuple(unit)))
    tables = []
    for ks in product(*(range(g) for _, g, _ in gen_data)):
        images = [fiber.zero() for _ in basis]
        for (i, _, unit), k in zip(gen_data, ks):
            images[i] = fiber.add(images[i], fiber.scale(k, unit))
        table = []
        for x in domain:
            val = fiber.zero()
            for i, e in enumerate(coords[x]):
                val = fiber.add(val, fiber.scale(e, images[i]))
            table.append(val)
        tables.append(tuple(table))
    return tuple(g for _, g, _ in gen_data), tables


def characters_by_digits(gen_orders, level):
    """Every character of a Hom group with these generator orders, as
    exponent tuples at the level: the character with digits cs takes
    sum c_t * k_t * level/g_t on the homomorphism with digits ks."""
    digits = list(product(*(range(g) for g in gen_orders)))
    out = []
    for cs in digits:
        values = []
        for ks in digits:
            e = 0
            for c, k, g in zip(cs, ks, gen_orders):
                e += c * k * (level // g)
            values.append(e % level)
        out.append(tuple(values))
    return out
