"""Dict-based reference computations the tests compare the package with.

They move homomorphisms as value maps {element index: fiber value}, the
way the package did before it read homomorphisms at the probes of their
Hom groups: a pair is named by conjugating its whole value map onto the
class representative and looking the value table up, and structure
constants, species values and idempotents are formed that way, one
Cyclotomic sum per term.  Restriction keeps its own double coset scan.  The
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
linear combinations over exponent tuples, with fiber arithmetic of
their own.
The references for the package's digit naming of characters keep each
character as its exponent tuple over Hom(H, A), moved and restricted
whole, with dual orbits keyed by their least tuple, and form the
p-perfect character Psi by lifting every psi in Hom(J, A).
"""

from functools import lru_cache, partial
from itertools import product
from math import gcd
from weakref import WeakKeyDictionary

from fbr import perm
from fbr.arith import p_part
from fbr.cyclo import Cyclotomic
from fbr.ring import RingElement


# fiber arithmetic on exponent tuples, for the fiber's invariant factors


def fiber_zero(factors):
    return (0,) * len(factors)


def fiber_add(factors, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, factors))


def fiber_scale(factors, k, a):
    return tuple(k * x % d for x, d in zip(a, factors))


def fiber_elements(factors):
    return list(product(*(range(d) for d in factors)))


_TABLES = WeakKeyDictionary()


def hom_tables(hom_group):
    """(domain, value tables) of a Hom group: hom_tables_by_combination
    over its abelianization coordinates, formed once per Hom group.  The
    order of basis element i is one more than its greatest coordinate."""
    if hom_group not in _TABLES:
        coords = hom_group.coords
        domain = sorted(coords)
        orders = [1 + max(c[i] for c in coords.values())
                  for i in range(len(coords[domain[0]]))]
        _, tables = hom_tables_by_combination(orders, coords, domain, hom_group.factors)
        _TABLES[hom_group] = domain, tables
    return _TABLES[hom_group]


def values_map(hom_group, k):
    """Homomorphism k of a Hom group as a value map on its domain."""
    domain, tables = hom_tables(hom_group)
    return dict(zip(domain, tables[k]))


def index_of_map(hom_group, values):
    """Index of the homomorphism with this value map on the domain (the
    map may hold more elements), found by its whole value table; a map
    that is no homomorphism is a ValueError."""
    domain, tables = hom_tables(hom_group)
    return tables.index(tuple(values[x] for x in domain))


def pair_values_map(ring, i):
    """The homomorphism of basis orbit i as a value map on its subgroup."""
    o = ring.basis.orbits[i]
    return values_map(ring.hom_group(o.subgroup_id), o.hom_index)


def canonicalize_pair_by_values(ring, sid, values):
    """ring.canonicalize_pair for a value map on all of sid: the map is
    conjugated onto the class representative element by element."""
    group = ring.group
    winv = group.inverse[ring.lattice.to_rep[sid]]
    rep = ring.lattice.class_rep(sid)
    return ring.basis.lookup[rep][index_of_map(ring.hom_group(rep), {
        y: values[group.conj(winv, y)] for y in ring.lattice.subgroups[rep].sorted_elems})]


def multiply_basis_by_values(ring, i, j):
    """ring.multiply_basis(i, j) over value maps: phi + ^g psi is formed
    on every element of each meet."""
    oi, oj = ring.basis.orbits[i], ring.basis.orbits[j]
    group, lattice = ring.group, ring.lattice
    phi, psi = pair_values_map(ring, i), pair_values_map(ring, j)
    out = {}
    for g, sid in zip(*lattice.double_coset_reps(oi.subgroup_id, oj.subgroup_id)):
        ginv = group.inverse[g]
        values = {x: fiber_add(ring.fiber.invariant_factors, phi[x], psi[group.conj(ginv, x)])
                  for x in lattice.subgroups[sid].sorted_elems}
        oidx = canonicalize_pair_by_values(ring, sid, values)
        out[oidx] = out.get(oidx, 0) + 1
    return out


def species_value_by_values(ring, d, b):
    """sp.species_value over value maps and the exponent tuples of
    dual_orbits_by_values, one Cyclotomic sum per coset."""
    hid, exps, _, _ = dual_orbits_by_values(ring)[0][d]
    hg = ring.hom_group(hid)
    psi = pair_values_map(ring, b)
    group = ring.group
    total = Cyclotomic.zero(ring.level)
    for g, meet in zip(*ring.lattice.double_coset_reps(
            hid, ring.basis.orbits[b].subgroup_id)):
        if meet == hid:
            ginv = group.inverse[g]
            idx = index_of_map(hg, {x: psi[group.conj(ginv, x)]
                                    for x in ring.lattice.subgroups[hid].sorted_elems})
            total = total + Cyclotomic.zeta_power(ring.level, exps[idx])
    return total


def idempotent_by_values(ring, d):
    """sp.idempotent over value maps and the exponent tuples of
    dual_orbits_by_values, one Cyclotomic sum per term."""
    hid, exps, stabilizer_order, _ = dual_orbits_by_values(ring)[0][d]
    hg = ring.hom_group(hid)
    lattice = ring.lattice
    acc = {}
    for kid, mu in lattice.mobius_row(hid).items():
        kw = lattice.subgroups[kid].order * mu
        for k in range(hg.size):
            coeff = Cyclotomic.zeta_power(ring.level, -exps[k]) * kw
            oidx = canonicalize_pair_by_values(ring, kid, values_map(hg, k))
            acc[oidx] = acc[oidx] + coeff if oidx in acc else coeff
    denom = stabilizer_order * hg.size
    return RingElement(ring, {k: v.scalar_div(denom) for k, v in acc.items()})


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
        phi = pair_values_map(src, i)
        for g in perm.double_coset_reps(group, k_elems, u.sorted_elems):
            ginv = group.inverse[g]
            tvalues = {target.group.index[group.elements[y]]: phi[group.conj(ginv, y)]
                       for y in k_set & group.conj_set(g, u.sorted_elems)}
            sid = target.lattice.by_set[frozenset(tvalues)]
            oidx = canonicalize_pair_by_values(target, sid, tvalues)
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
    phi, psi = pair_values_map(ring, i), pair_values_map(ring, j)
    out = {}
    for g in double_coset_reps_reversed(group, h.sorted_elems, k):
        ginv = group.inverse[g]
        sid = lattice.by_set[h.elems & group.conj_set(g, k)]
        values = {x: fiber_add(ring.fiber.invariant_factors, phi[x], psi[group.conj(ginv, x)])
                  for x in lattice.subgroups[sid].sorted_elems}
        oidx = canonicalize_pair_by_values(ring, sid, values)
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

    Works on exponent tuples throughout (dual_orbits_by_values).  Strips
    the p-part of the character, then repeatedly moves (K, Psi)
    to its class representative and climbs to the preimage of a Sylow
    p-subgroup of N(K, Psi)/K, composing with restriction, until the
    pair is p-regular.  The preimage is grown in the ambient group
    (sylow with N = N(K, Psi)), without building the quotient.  The
    subgroup strictly grows, so the climb terminates; the resulting
    conjugacy class does not depend on the Sylow choices.
    """
    orbits, lookup = dual_orbits_by_values(ring)
    sid, values, _, _ = orbits[d]
    values = p_prime_part_of_values(values, p, ring.level)
    lattice = ring.lattice
    while True:
        if lattice.class_rep(sid) != sid:
            sid, values = conjugate_values(ring, sid, values, lattice.to_rep[sid])
        stab = _dual_pair_stabilizer(ring, sid, values)
        k_order = lattice.subgroups[sid].order
        if (len(stab) // k_order) % p != 0:
            return lookup[sid][values]
        new_sid = lattice.by_set[sylow(ring.group, p, stab, lattice.subgroups[sid].elems)]
        # the character phi -> Psi(phi restricted to K) of Hom(new, A)
        src_hg, new_hg = ring.hom_group(sid), ring.hom_group(new_sid)
        res = [index_of_map(src_hg, values_map(new_hg, k)) for k in range(new_hg.size)]
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


def hom_tables_by_combination(orders, coords, domain, factors):
    """Hom(H, A) as (generator orders, value tables), for abelianization
    basis orders and fiber invariant factors: one generator per (basis
    element i of order m, fiber factor j of order d) with g = gcd(m, d) > 1,
    sending basis element i to d/g in factor j; the homomorphism with
    digits ks is the combination sum k_t * gen_t, evaluated element by
    element over the coordinates, in product order of the digits."""
    gen_data = []
    for i, m in enumerate(orders):
        for j, d in enumerate(factors):
            g = gcd(m, d)
            if g > 1:
                unit = [0] * len(factors)
                unit[j] = d // g
                gen_data.append((i, g, tuple(unit)))
    zero = fiber_zero(factors)
    tables = []
    for ks in product(*(range(g) for _, g, _ in gen_data)):
        images = [zero for _ in orders]
        for (i, _, unit), k in zip(gen_data, ks):
            images[i] = fiber_add(factors, images[i], fiber_scale(factors, k, unit))
        table = []
        for x in domain:
            val = zero
            for i, e in enumerate(coords[x]):
                val = fiber_add(factors, val, fiber_scale(factors, e, images[i]))
            table.append(val)
        tables.append(tuple(table))
    return tuple(g for _, g, _ in gen_data), tables


@lru_cache(maxsize=None)
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


def character_values(hom_group, digits, level):
    """The character of a Hom group with these digits as its exponent
    tuple over the homomorphisms, in index order."""
    index = sum(c * stride for c, stride in zip(digits, hom_group.gen_indices))
    return characters_by_digits(hom_group.gen_orders, level)[index]


def digits_of_values(hom_group, values, level):
    """The digits of a character given as an exponent tuple: its exponent
    at generator t, which must be a multiple of level/g_t, over level/g_t."""
    out = []
    for stride, g in zip(hom_group.gen_indices, hom_group.gen_orders):
        c, r = divmod(values[stride], level // g)
        assert r == 0, "character value has wrong order on generator"
        out.append(c)
    return tuple(out)


def p_prime_part_of_values(values, p, level):
    """The p'-part of a character given as an exponent tuple: its power by
    p^a * (p^a^-1 mod m), where p^a * m is its order."""
    o = level // gcd(level, *values)
    pa = p_part(o, p)
    m = o // pa
    t = pa * pow(pa, -1, m)
    return tuple(v * t % level for v in values)


def dual_orbits_by_values(ring):
    """(orbits, lookup): the dual orbits as (subgroup id, exponent tuple,
    stabilizer order, orbit size) in canonical order, and rep ->
    {exponent tuple: orbit index}.  A character is moved whole by the
    generators' permutations of Hom(H, A), and an orbit is keyed by its
    lexicographically least exponent tuple."""
    def orbit_data(rep):
        action = ring.hom_action(rep)
        chars = characters_by_digits(ring.hom_group(rep).gen_orders, ring.level)
        # ^n Phi = Phi o sigma_(n^-1)
        return chars, lambda g, values: tuple(values[s] for s in action[g]), None

    def build():
        return ring.normalizer_orbits(
            lambda index, rep, values, cidx, stab, size: (rep, values, stab, size),
            orbit_data)

    return ring.memo("oracle: dual orbits by values", build)


def conjugate_values(ring, sid, values, g):
    """sp.conjugate_character over exponent tuples: ^gPhi(psi) =
    Phi(^(g^-1)psi), with ^(g^-1)psi formed as a whole value map."""
    group = ring.group
    tid = ring.lattice.conj_subgroup_id(g, sid)
    src, dst = ring.hom_group(sid), ring.hom_group(tid)
    ginv = group.inverse[g]
    return tid, tuple(
        values[index_of_map(src, conj_values_map(group, values_map(dst, k), ginv))]
        for k in range(dst.size))


def p_perfect_lift_by_values(ring, hid, p):
    """J = O^p(H) and, for every psi in Hom(J, A) by index, a phi in
    Hom(H, A) restricting to e(psi): the lift of spectrum._p_perfect_lift
    taken at every psi, not only at the generators."""
    group = ring.group
    jid = ring.lattice.o_p_residual_id(hid, p)
    hg = ring.hom_group(jid)
    preimage = {r: k for k, r in enumerate(ring.hom_group(hid).pullback(lambda y: y, hg))}
    moves = [hg.pullback(partial(group.conj, group.inverse[h]), hg)
             for h in ring.lattice.subgroups[hid].gens]
    lift = []
    for k in range(hg.size):
        orbit = [k]
        for x in orbit:  # orbit grows during the loop
            orbit.extend({move[x] for move in moves}.difference(orbit))
        c = pow(len(orbit), -1, hg.exponent)
        mean = sum(c * sum(x // stride % g for x in orbit) % g * stride
                   for stride, g in zip(hg.gen_indices, hg.gen_orders))
        lift.append(preimage[mean])
    return jid, tuple(lift)
