"""Prime spectrum shadow, block decomposition and the Weyl block map.

Primes of the ring are represented combinatorially: a dual pair orbit
together with a prime ideal of the cyclotomic integers above some p
(cyclo.PrimeIdealData, which carries p), or None for characteristic
zero.  Two dual pairs name the same prime exactly when the species rows
agree modulo the ideal, which the partition operations compute both by
the p-regularization climb and by the exhaustive finite-field
congruence oracle.

Blocks are indexed by conjugacy classes of perfect subgroups: the block
idempotent at J sums the primitive idempotents of the dual pairs whose
subgroup has perfect residual conjugate to J, and the block at J is
isomorphic to the solvable block of the ring of the Weyl group N(J)/J
through inflation.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import species as species_mod
from .abelian import character_order, character_p_parts, character_power
from .arith import is_prime
from .cyclo import reduce_mod
from .errors import (InputError, InvariantViolationError,
                     TheoremViolationError)
from .perm import SubgroupLattice, quotient_group, sylow_subgroup
from .ring import FiberedBurnsideRing


class EquivalencePartition(NamedTuple):
    classes: tuple
    regular_representatives: tuple | None


class ComponentDescriptor(NamedTuple):
    index: int
    perfect_id: int
    dual_orbits: tuple
    basis_orbits: tuple


class WeylBlockIso(NamedTuple):
    weyl_ring: FiberedBurnsideRing
    bijection: tuple  # pairs (weyl basis orbit, ambient basis orbit)


# ---------------------------------------------------------------------------
# p-regularity and p-regularization


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


def is_p_regular(ring, d, p):
    """p divides neither the character order nor the normalizer index."""
    dual = species_mod.dual_orbits(ring)[d]
    o = character_order(dual.values, ring.level)
    h_order = ring.lattice.subgroups[dual.subgroup_id].order
    index = dual.stabilizer_order // h_order
    return o % p != 0 and index % p != 0


def p_regularize(ring, d, p):
    """Canonical dual orbit of a p-regularization of the given orbit.

    Strips the p-part of the character, then repeatedly moves (K, Psi)
    to its class representative and climbs to the preimage of a Sylow
    p-subgroup of N(K, Psi)/K, composing with restriction, until the
    pair is p-regular.  The preimage is grown in the ambient group
    (perm.sylow_subgroup with N = N(K, Psi)), without building the
    quotient.  The subgroup strictly grows, so the climb
    terminates; the resulting conjugacy class does not depend on the
    Sylow choices.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    dual = species_mod.dual_orbits(ring)[d]
    sid = dual.subgroup_id
    _, values = character_p_parts(dual.values, p, ring.level)
    lattice = ring.lattice
    while True:
        if lattice.class_rep(sid) != sid:
            sid, values = species_mod.conjugate_character(
                ring, sid, values, lattice.to_rep[sid])
        stab = _dual_pair_stabilizer(ring, sid, values)
        k_order = lattice.subgroups[sid].order
        if (len(stab) // k_order) % p != 0:
            return species_mod.canonicalize_dual(ring, sid, values)
        new_sid = lattice.by_set[sylow_subgroup(
            ring.group, p, stab, lattice.subgroups[sid].elems)]
        # the character phi -> Psi(phi restricted to K) of Hom(new, A)
        src_hg = ring.hom_group(sid)
        res = ring.hom_group(new_sid).pullback(src_hg.domain, src_hg)
        sid, values = new_sid, tuple(values[k] for k in res)


# ---------------------------------------------------------------------------
# the finite-field congruence oracle


def reduced_species_row(ring, d, ideal):
    """Species row of a dual orbit reduced modulo the prime ideal, or
    the row itself when ideal is None (characteristic 0)."""
    row = species_mod.species_table(ring)[d]
    if ideal is None:
        return row
    return tuple(() if v.is_zero() else reduce_mod(v, ideal) for v in row)


def congruent_mod_p(ring, d1, d2, ideal):
    """Species rows agree modulo the prime ideal (None: characteristic
    0) on every basis element.

    Species values of basis elements are sums of roots of unity, hence
    integral, so the reduction is always defined.
    """
    return reduced_species_row(ring, d1, ideal) == reduced_species_row(ring, d2, ideal)


def p_equivalence_partition(ring, ideal):
    """Partition of the dual orbits by congruence of species modulo the
    prime ideal P above p = ideal.p, or at characteristic 0 when ideal
    is None.

    Primary path: group by the conjugacy class of the p-regularization.
    The exhaustive finite-field oracle must reproduce the same
    partition; any discrepancy raises.
    """
    n = ring.rank
    if ideal is None:
        classes = tuple((d,) for d in range(n))
        rows = [reduced_species_row(ring, d, None) for d in range(n)]
        if len(set(rows)) != n:
            raise TheoremViolationError(
                "distinct dual orbits with equal species rows at characteristic 0"
            )
        return EquivalencePartition(classes, None)
    p = ideal.p
    by_regular = {}
    for d in range(n):
        r = p_regularize(ring, d, p)
        by_regular.setdefault(r, []).append(d)
    # filled in ascending d: each class is sorted, and the classes come
    # in order of their least member
    classes = tuple(map(tuple, by_regular.values()))
    regular_reps = tuple(by_regular)
    by_row = {}
    for d in range(n):
        by_row.setdefault(reduced_species_row(ring, d, ideal), []).append(d)
    oracle = set(tuple(sorted(v)) for v in by_row.values())
    if oracle != set(classes):
        raise TheoremViolationError(
            "regularization partition disagrees with the congruence oracle"
        )
    for cls, rep in zip(classes, regular_reps):
        regs = sorted(d for d in cls if is_p_regular(ring, d, p))
        if regs != [rep]:
            raise TheoremViolationError(
                "a P-class does not contain exactly one regular orbit"
            )
    return EquivalencePartition(classes, regular_reps)


def galois_orbit(ring, d):
    """Orbit of a dual pair under zeta -> zeta^t for all t coprime to
    the level: (H, Phi) goes to (H, Phi^t)."""
    dual = species_mod.dual_orbits(ring)[d]
    n = ring.level
    out = set()
    for t in range(1, n + 1):
        if gcd(t, n) != 1:
            continue
        powered = character_power(dual.values, t, n)
        out.add(species_mod.canonicalize_dual(ring, dual.subgroup_id, powered))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# connected components and blocks


def components(ring):
    """One component per conjugacy class of perfect subgroups; dual and
    basis orbits are split by the class of the perfect residual."""
    return ring.memo("components", lambda: _components(ring))


def _components(ring):
    lattice = ring.lattice
    perfect = lattice.perfect_class_reps()
    perfect_class_of = {}
    for cls in lattice.classes:
        res = lattice.perfect_residual_id(cls.rep)
        perfect_class_of[cls.index] = lattice.class_rep(res)
    comps = []
    for jid in perfect:
        duals = tuple(d.index for d in species_mod.dual_orbits(ring)
                      if perfect_class_of[d.class_index] == jid)
        basis = tuple(o.index for o in ring.basis.orbits
                      if perfect_class_of[o.class_index] == jid)
        comps.append(ComponentDescriptor(len(comps), jid, duals, basis))
    total_d = sum(len(c.dual_orbits) for c in comps)
    total_b = sum(len(c.basis_orbits) for c in comps)
    if total_d != ring.rank or total_b != ring.rank:
        raise InvariantViolationError("components do not partition the orbits")
    return tuple(comps)


def block_idempotent(ring, component):
    """Sum of the primitive idempotents over one component.

    The result must have integer coefficients in the standard basis;
    anything else is a theorem violation.
    """
    return ring.memo(("block", component.index),
                     lambda: _block_idempotent(ring, component))


def _block_idempotent(ring, component):
    total = ring.zero()
    for d in component.dual_orbits:
        total = total + species_mod.idempotent(ring, d)
    for v in total.coeffs.values():
        if not v.is_integer():
            raise TheoremViolationError(
                "block idempotent has a non-integer coefficient"
            )
    return total


def block_idempotents(ring):
    return [block_idempotent(ring, c) for c in components(ring)]


def block_basis(ring, component):
    """Basis of the block: [K, phi] e_J over the component's pair orbits.

    Verified square and of full rank against the component's species
    coordinates; rank deficiency is a theorem violation.
    """
    if len(component.basis_orbits) != len(component.dual_orbits):
        raise TheoremViolationError("block basis and dual counts differ")
    e = block_idempotent(ring, component)
    elems = [ring.multiply(ring.basis_element(b), e)
             for b in component.basis_orbits]
    # one row per dual orbit, so that the matrix is block upper
    # triangular by subgroup class, as the species table is
    matrix = list(zip(*(species_mod.species_values(ring, x, component.dual_orbits)
                        for x in elems)))
    if elems:
        det = species_mod.exact_determinant(matrix)
        if det.is_zero():
            raise TheoremViolationError("block basis is linearly dependent")
    return elems


# ---------------------------------------------------------------------------
# the Weyl block isomorphism


def weyl_ring(ring, perfect_id):
    """Ring of the Weyl group N(J)/J at the ambient level, with the
    quotient map data.

    The subgroups of N(J)/J are the images of the S with J <= S <= N(J),
    which the ambient lattice already holds, so the quotient's lattice
    is built on their images and never enumerated."""
    lattice = ring.lattice
    nid = lattice.normalizer_ids[perfect_id]
    n = lattice.subgroups[nid]
    j_elems = lattice.subgroups[perfect_id].elems
    quotient, onto = quotient_group(ring.group, n.sorted_elems, j_elems)
    # the subgroups of N(J) by decreasing id, tested as mobius_row tests them
    sets = [{onto[x] for x in s.elems}
            for s in reversed(lattice.subgroups[:nid + 1])
            if n.elems.issuperset(s.gens) and j_elems <= s.elems]
    wring = FiberedBurnsideRing(quotient, ring.fiber, level=ring.level,
                                lattice=SubgroupLattice(quotient, sets))
    return wring, onto


def weyl_block_iso(ring, perfect_id):
    """The inflation bijection between the solvable block of the Weyl
    ring at J and the J-block of the ambient ring.

    Every mismatch (non-bijectivity, a structure constant, the image of
    the solvable block idempotent) raises a theorem violation.
    """
    lattice = ring.lattice
    if lattice.derived_id(perfect_id) != perfect_id:
        raise InputError("block map requires a perfect subgroup")
    if lattice.class_rep(perfect_id) != perfect_id:
        raise InputError("perfect subgroup must be a class representative")
    comp = next(c for c in components(ring) if c.perfect_id == perfect_id)
    e_j = block_idempotent(ring, comp)

    wring, onto = weyl_ring(ring, perfect_id)
    fibers_of = {}
    for x, q in onto.items():
        fibers_of.setdefault(q, []).append(x)

    wcomp = next(c for c in components(wring)
                 if c.perfect_id == wring.lattice.trivial_id())
    e_w1 = block_idempotent(wring, wcomp)

    # basis bijection through inflation
    mapping = []
    for b in wcomp.basis_orbits:
        worbit = wring.basis.orbits[b]
        wsub = wring.lattice.subgroups[worbit.subgroup_id]
        whom = wring.pair_values_map(b)
        k_elems = sorted(x for wq in wsub.sorted_elems for x in fibers_of[wq])
        values = {x: whom[onto[x]] for x in k_elems}
        sid = lattice.by_set[frozenset(k_elems)]
        mapping.append((b, ring.canonicalize_pair(sid, values)))

    images = [m for _, m in mapping]
    if len(set(images)) != len(images):
        raise TheoremViolationError("inflation map is not injective")
    if set(images) != set(comp.basis_orbits):
        raise TheoremViolationError("inflation map misses part of the block")

    iso = WeylBlockIso(wring, tuple(mapping))
    _check_weyl_multiplicative(ring, iso, e_j, e_w1, wcomp)
    return iso


def _apply_inflation(ring, iso, welem):
    """Linear extension of the basis bijection followed by e_J."""
    lut = dict(iso.bijection)
    out = {}
    for k, c in welem.coeffs.items():
        if k not in lut:
            raise TheoremViolationError(
                "element leaves the solvable block under inflation"
            )
        if not c.is_integer():
            raise InvariantViolationError("inflation needs integer coefficients")
        out[lut[k]] = out.get(lut[k], 0) + int(c.rational_value())
    return ring.element_from_ints(out)


def _check_weyl_multiplicative(ring, iso, e_j, e_w1, wcomp):
    wring = iso.weyl_ring
    lut = dict(iso.bijection)
    # the image b.e_J of each block orbit, computed once for all pairs
    image = {b: ring.multiply(ring.basis_element(lut[b]), e_j)
             for b in wcomp.basis_orbits}
    for i, b1 in enumerate(wcomp.basis_orbits):
        for b2 in wcomp.basis_orbits[i:]:
            wprod = wring.multiply(wring.basis_element(b1), wring.basis_element(b2))
            lhs = ring.multiply(_apply_inflation(ring, iso, wprod), e_j)
            rhs = ring.multiply(image[b1], image[b2])
            if lhs != rhs:
                raise TheoremViolationError(
                    f"inflation is not multiplicative on ({b1}, {b2})"
                )
    image_e = ring.multiply(_apply_inflation(ring, iso, e_w1), e_j)
    if image_e != e_j:
        raise TheoremViolationError(
            "inflation does not map the solvable block idempotent to e_J"
        )
