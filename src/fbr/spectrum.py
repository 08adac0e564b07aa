"""Prime spectrum shadow, block decomposition and the Weyl block map.

Primes of the ring are represented combinatorially: a dual pair orbit
together with a prime ideal of the cyclotomic integers above some p
(cyclo.PrimeIdealData, which carries p), or None for characteristic
zero.  Two dual pairs name the same prime exactly when the species rows
agree modulo the ideal.  The partition operations find the classes
both by the p-perfect pair (J, Psi), J = O^p(J), of each dual orbit,
formed without search, and by the exhaustive finite-field congruence
oracle.

Blocks are indexed by conjugacy classes of perfect subgroups: the block
idempotent at J is the Burnside ring's (Gluck, Illinois J. Math. 25,
1981), taken to the ring by [G/K] -> [K, 1], and the block at J is
isomorphic to the solvable block of the ring of the Weyl group N(J)/J
through inflation.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from typing import NamedTuple

from . import species as species_mod
from .abelian import (character_order, character_p_parts, character_power,
                      compose_character)
from .cyclo import reduce_mod
from .errors import (InputError, InvariantViolationError,
                     TheoremViolationError)
from .perm import SubgroupLattice, quotient_group
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
# p-regularity and p-perfect pairs


def is_p_regular(ring, d, p):
    """p divides neither the character order nor the normalizer index."""
    dual = species_mod.dual_orbits(ring)[d]
    o = character_order(dual.digits, ring.hom_group(dual.subgroup_id).gen_orders)
    h_order = ring.lattice.subgroups[dual.subgroup_id].order
    index = dual.stabilizer_order // h_order
    return o % p != 0 and index % p != 0


def p_perfect_pair(ring, d, p):
    """Canonical dual orbit of the p-perfect pair (J, Psi), J = O^p(J),
    that names the P-class of the dual orbit (H, Phi) for P above p.

    J = O^p(H), and Psi(psi) = Phi_p'(phi), Phi_p' the p'-part of Phi,
    for any phi in Hom(H, A) restricting to e(psi) = |O|^-1 sum_(x in O) x,
    O the orbit of psi under conjugation by H.  Psi is well defined: J
    is generated by p'-elements, so it has no p-quotient and
    M = Hom(J, A) is a p'-group, on which H acts through the p-group
    H/J; by coprime action M = M^H + [M, H], with e the projection onto
    M^H.  Restriction maps Hom(H, A) onto M^H (the cokernel lies in the
    p-group H^2(H/J, A) and is a quotient of the p'-group M^H), with
    kernel the p-group Hom(H/J, A), on which Phi_p' is trivial.  So Psi
    is the one H-fixed character of M with Psi o res = Phi_p'.  It is
    congruent to (H, Phi) modulo P: Phi = Phi_p' modulo P, and H permutes
    the cosets gK with J <= ^gK, over which the species of (J, Psi) at
    [K, phi] sums, keeping each term; orbits of size p^a > 1 add 0
    modulo P, and the fixed cosets, H <= ^gK, give the species of
    (H, Phi_p').  At A = 1 this is Dress, "A characterisation of
    solvable groups" (Math. Z. 110, 1969); p_equivalence_partition
    checks the classes against the congruence oracle.
    """
    dual = species_mod.dual_orbits(ring)[d]
    hid, hg = dual.subgroup_id, ring.hom_group(dual.subgroup_id)
    jid, lift = ring.memo(("p-perfect lift", hid, p), lambda: _p_perfect_lift(ring, hid, p))
    _, c = character_p_parts(dual.digits, p, hg.gen_orders)
    # Psi is a character, so it is read at the generators of Hom(J, A)
    return species_mod.canonicalize_dual(
        ring, jid, compose_character(hg, c, ring.level, ring.hom_group(jid), lift))


def _p_perfect_lift(ring, hid, p):
    """J = O^p(H) for a class representative H, and {psi: a phi in Hom(H, A)
    restricting to e(psi)} over the generators psi of Hom(J, A), by index."""
    group = ring.group
    jid = ring.lattice.o_p_residual_id(hid, p)
    hg = ring.hom_group(jid)
    preimage = {r: k for k, r in enumerate(ring.hom_group(hid).pullback(lambda y: y, hg))}
    # psi -> ^h psi for each generator h of H (J is normal in H)
    moves = [hg.pullback(partial(group.conj, group.inverse[h]), hg)
             for h in ring.lattice.subgroups[hid].gens]
    lift = {}
    for k in hg.gen_indices:
        orbit = [k]
        for x in orbit:  # orbit grows during the loop
            orbit.extend({move[x] for move in moves}.difference(orbit))
        # e(psi) = |O|^-1 * (sum of O), digit by digit (HomGroup's indices)
        c = pow(len(orbit), -1, hg.exponent)
        mean = sum(c * sum(x // stride % g for x in orbit) % g * stride
                   for stride, g in zip(hg.gen_indices, hg.gen_orders))
        if mean not in preimage:
            raise TheoremViolationError("restriction to O^p(H) misses an H-fixed point")
        lift[k] = preimage[mean]
    return jid, lift


def _p_classes(ring, p):
    """The dual orbits grouped by p-perfect pair in ascending d: sorted
    classes, in order of their least members."""
    def build():
        by_pair = {}
        for d in range(ring.rank):
            by_pair.setdefault(p_perfect_pair(ring, d, p), []).append(d)
        return tuple(map(tuple, by_pair.values()))

    return ring.memo(("p-classes", p), build)


def _regular_member(ring, cls, p):
    regs = [d for d in cls if is_p_regular(ring, d, p)]
    if len(regs) != 1:
        raise TheoremViolationError("a P-class does not contain exactly one regular orbit")
    return regs[0]


def p_regularize(ring, d, p):
    """The p-regular member of the P-class of a dual orbit, the class
    read from its p-perfect pair."""
    return _regular_member(ring, next(c for c in _p_classes(ring, p) if d in c), p)


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

    Primary path: group by p_perfect_pair.  The exhaustive finite-field
    oracle must reproduce the same partition, and each class must hold
    one p-regular orbit, its representative; any discrepancy raises.
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
    classes = _p_classes(ring, p)
    by_row = {}
    for d in range(n):
        by_row.setdefault(reduced_species_row(ring, d, ideal), []).append(d)
    oracle = set(tuple(sorted(v)) for v in by_row.values())
    if oracle != set(classes):
        raise TheoremViolationError("p-perfect partition disagrees with the congruence oracle")
    return EquivalencePartition(classes, tuple(_regular_member(ring, c, p) for c in classes))


def galois_orbit(ring, d):
    """Orbit of a dual pair under zeta -> zeta^t for all t coprime to
    the level: (H, Phi) goes to (H, Phi^t)."""
    dual = species_mod.dual_orbits(ring)[d]
    orders = ring.hom_group(dual.subgroup_id).gen_orders
    return tuple(sorted({species_mod.canonicalize_dual(
        ring, dual.subgroup_id, character_power(dual.digits, t, orders))
        for t in range(1, ring.level + 1) if gcd(t, ring.level) == 1}))


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
    """e_J = |G|^-1 sum_H [G : N_G(H)] sum_(K <= H) |K| mu(K, H) [K, 1], H
    over the component's subgroup classes: the Burnside ring's block
    idempotent, embedded.  It is the fibered e_J, since the species at
    (H, Phi) of [K, 1] is the mark of H on [G/K] and a component holds
    every Phi on its H.  A non-integer coefficient is a theorem violation."""
    return ring.memo(("block", component.index),
                     lambda: _block_idempotent(ring, component))


def _block_idempotent(ring, component):
    lattice = ring.lattice
    total = {}  # subgroup class -> |G| times its coefficient
    for cidx in {ring.basis.orbits[b].class_index for b in component.basis_orbits}:
        cls = lattice.classes[cidx]
        for kid, mu in lattice.mobius_row(cls.rep).items():
            k = lattice.class_index[kid]
            total[k] = total.get(k, 0) + lattice.subgroups[kid].order * mu * len(cls.members)
    if any(v % ring.group.order for v in total.values()):
        raise TheoremViolationError("block idempotent has a non-integer coefficient")
    return ring.burnside_embed({k: v // ring.group.order for k, v in total.items()})


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


def weyl_block_iso(ring, perfect_id, products=True):
    """The inflation bijection between the solvable block of the Weyl
    ring at J and the J-block of the ambient ring, checked to be a ring
    isomorphism by species rows.

    Inflation takes the Weyl basis orbit [S/J, phi] to [S, phi o onto],
    and f(x) = infl(x) e_J extends it linearly to the span of the Weyl
    block's basis orbits, which holds its block idempotent e_W (the
    Gluck sum reaches only subgroups of solvable subgroups).  The check:
    the ambient species table's rows over the J-component's dual orbits,
    read at the image orbits, and the Weyl ring's rows over its solvable
    block's dual orbits, read at the Weyl block's orbits, are pairwise
    distinct and the same set.  So each dual d of the component has one
    dual d' of the Weyl block with s_d o f = s_d' (s_d(e_J) = 1 on the
    component), and d -> d' is a bijection.  That suffices:
    - the species are ring maps, so s_d(f(xy)) = s_d'(x) s_d'(y)
      = s_d(f(x) f(y)) for every d, and the component's species
      separate the points of the J-block, so f(xy) = f(x) f(y);
    - s_d(f(e_W)) = s_d'(e_W) = 1 = s_d(e_J), so f(e_W) = e_J;
    - f(x) = 0 exactly when every species of the Weyl block vanishes at
      x, that is when x e_W = 0, so f is injective on the Weyl block,
      and onto the J-block, the two ranks being equal.
    This forms no block idempotent, element or product.  It assumes the
    species are ring maps (criteria 1 and 4 check that), so a wrong
    structure constant passes it; products=True adds the oracle that
    does not, f multiplied out on every pair of Weyl block orbits and
    f(e_W) = e_J compared.

    Every mismatch (non-bijectivity, a species row, a structure
    constant, the image of the solvable block idempotent) raises a
    theorem violation.
    """
    lattice = ring.lattice
    if lattice.derived_id(perfect_id) != perfect_id:
        raise InputError("block map requires a perfect subgroup")
    if lattice.class_rep(perfect_id) != perfect_id:
        raise InputError("perfect subgroup must be a class representative")
    comp = next(c for c in components(ring) if c.perfect_id == perfect_id)

    wring, onto = weyl_ring(ring, perfect_id)
    fibers_of = {}
    for x, q in onto.items():
        fibers_of.setdefault(q, []).append(x)

    wcomp = next(c for c in components(wring)
                 if c.perfect_id == wring.lattice.trivial_id())

    # basis bijection through inflation
    mapping = []
    for b in wcomp.basis_orbits:
        worbit = wring.basis.orbits[b]
        wsub = wring.lattice.subgroups[worbit.subgroup_id]
        whom = wring.pair_value(b)
        sid = lattice.by_set[frozenset(x for wq in wsub.sorted_elems for x in fibers_of[wq])]
        mapping.append((b, ring.canonicalize_pair(sid, lambda x: whom(onto[x]))))

    images = [m for _, m in mapping]
    if len(set(images)) != len(images):
        raise TheoremViolationError("inflation map is not injective")
    if set(images) != set(comp.basis_orbits):
        raise TheoremViolationError("inflation map misses part of the block")

    iso = WeylBlockIso(wring, tuple(mapping))
    _check_weyl_species(ring, iso, comp, wcomp)
    if products:
        _check_weyl_multiplicative(ring, iso, comp, wcomp)
    return iso


def _check_weyl_species(ring, iso, comp, wcomp):
    table = species_mod.species_table(ring)
    wtable = species_mod.species_table(iso.weyl_ring)
    rows = {tuple(table[d][g] for _, g in iso.bijection) for d in comp.dual_orbits}
    wrows = {tuple(wtable[d][b] for b, _ in iso.bijection) for d in wcomp.dual_orbits}
    if len(rows) != len(comp.dual_orbits) or len(wrows) != len(wcomp.dual_orbits):
        raise TheoremViolationError("two species of a block agree on its basis orbits")
    if rows != wrows:
        raise TheoremViolationError(
            "inflation does not carry the Weyl block's species onto the J-block's")


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


def _check_weyl_multiplicative(ring, iso, comp, wcomp):
    wring = iso.weyl_ring
    e_j = block_idempotent(ring, comp)
    e_w1 = block_idempotent(wring, wcomp)
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
