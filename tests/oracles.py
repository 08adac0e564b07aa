"""Dict-based reference computations the tests compare the package with.

They move homomorphisms as value maps {element index: fiber value}, the
way the package did before it pulled value tables back along index
maps, and they keep their own double coset scan for restriction.  The
reversed scans run the package's scans backwards: double cosets and
Sylow growth pick greatest elements, so products and regularizations
can be checked not to depend on which representatives are picked.
Normalizers are formed from their definition by composing image tuples.
Moebius values come bottom-up, from the lower end of each interval.
"""

from unittest import mock

from fbr import perm, spectrum
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


def p_regularize_reversed(ring, d, p):
    """spectrum.p_regularize with each Sylow search of the climb reversed."""
    with mock.patch.object(spectrum, "sylow_subgroup", sylow_subgroup_reversed):
        return spectrum.p_regularize(ring, d, p)


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
