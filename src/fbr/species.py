"""Species homomorphisms and primitive idempotents over the cyclotomic field.

A species is indexed by the orbit of a dual pair (H, Phi): a subgroup
together with a character of Hom(H, A).  Its value on a basis orbit
[K, psi] is the double coset sum over the g with H contained in ^gK of
Phi(^g(psi) restricted to H), so it is zero unless H <=_G K: ordered by
subgroup class, the table is block triangular like the table of marks,
and it is evaluated and read only where H <=_G K.  The table of all
species values against the standard basis is square and invertible
(its determinant is taken block by block); inverting it through the
explicit idempotent formula gives the primitive idempotents.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ring as ring_mod
from .abelian import (character_gen_exponents, character_order,
                      dual_character_values)
from .cyclo import Cyclotomic, sum_products
from .errors import InputError, InvariantViolationError, TheoremViolationError


class DualOrbit(NamedTuple):
    """Conjugation orbit [H, Phi] of a dual pair, canonically keyed.

    values holds the character as root-of-unity exponents, one per
    element of Hom(H, A) for the class-representative subgroup H.
    """

    index: int
    subgroup_id: int
    values: tuple
    class_index: int
    stabilizer_order: int
    orbit_size: int


def _build_dual_data(ring):
    def orbit_data(rep):
        action = ring.hom_action(rep)
        chars = dual_character_values(ring.hom_group(rep), ring.level)
        # ^n Phi = Phi o ^(n^-1), whose value on phi_k is Phi at
        # sigma_(n^-1)[k]; the inverses of the generators generate N(H) too
        return chars, lambda g, values: tuple(values[s] for s in action[g]), None

    orbits, lookup = ring.normalizer_orbits(DualOrbit, orbit_data)
    if len(orbits) != ring.rank:
        raise InvariantViolationError(
            f"dual orbit count {len(orbits)} != basis rank {ring.rank}"
        )
    return orbits, lookup


def dual_orbits(ring):
    """All dual pair orbits in canonical order; count equals the rank."""
    return ring.memo("duals", lambda: _build_dual_data(ring))[0]


def _dual_lookup(ring):
    return ring.memo("duals", lambda: _build_dual_data(ring))[1]


def conjugate_character(ring, sid, values, g):
    """The pair ^g(H, Phi) = (^gH, ^gPhi) with ^gPhi(psi) = Phi(^(g^-1)psi).

    Returns (subgroup id of ^gH, value tuple over Hom(^gH, A)).
    """
    tid = ring.lattice.conj_subgroup_id(g, sid)
    src = ring.hom_group(sid)
    # ^(g^-1)psi(x) = psi(g x g^-1) for psi in Hom(^gH, A)
    pulled = ring.hom_group(tid).pullback([ring.group.conj(g, x) for x in src.domain],
                                          src)
    return tid, tuple(values[k] for k in pulled)


def canonicalize_dual(ring, sid, values):
    """Canonical dual orbit of (subgroup sid, character values)."""
    _, moved = conjugate_character(ring, sid, values, ring.lattice.to_rep[sid])
    return _dual_lookup(ring)[ring.lattice.class_rep(sid)][moved]


# ---------------------------------------------------------------------------
# species values


def species_value(ring, d, b):
    """Species of the dual orbit with index d evaluated on the basis orbit b."""
    dual = dual_orbits(ring)[d]
    orbit = ring.basis.orbits[b]
    hid = dual.subgroup_id
    hg = ring.hom_group(hid)
    psi = ring.pair_values_map(b)
    group = ring.group
    total = Cyclotomic.zero(ring.level)
    for g, meet in zip(*ring.lattice.double_coset_reps(hid, orbit.subgroup_id)):
        # H <= ^gK iff H meet ^gK = H
        if meet != hid:
            continue
        ginv = group.inverse[g]
        idx = hg.index_of(tuple(psi[group.conj(ginv, x)] for x in hg.domain))
        total = total + Cyclotomic.zeta_power(ring.level, dual.values[idx])
    return total


def _duals_below(ring):
    """For each subgroup class c, the indices of the dual orbits whose
    class is subconjugate to c: the rows where a species table column
    of class c can be nonzero."""
    def build():
        lattice = ring.lattice
        duals = dual_orbits(ring)
        out = []
        for c in lattice.classes:
            below = {lattice.class_index[s] for s in lattice.subs_of[c.rep]}
            out.append(tuple(d.index for d in duals if d.class_index in below))
        return tuple(out)

    return ring.memo("duals below", build)


def species_table(ring):
    """Full species table: rows are dual orbits, columns basis orbits.

    Every entry is a sum of roots of unity, so integral; an entry with a
    denominator is an invariant violation.
    """
    def build():
        below = _duals_below(ring)
        zero = Cyclotomic.zero(ring.level)
        rows = [[zero] * ring.rank for _ in range(ring.rank)]
        for b, o in enumerate(ring.basis.orbits):
            for d in below[o.class_index]:
                rows[d][b] = species_value(ring, d, b)
        if any(v.den != 1 for row in rows for v in row):
            raise InvariantViolationError("species table entry is not integral")
        return tuple(map(tuple, rows))

    return ring.memo("species", build)


def species_values(ring, x, duals):
    """The species of each dual orbit index in duals, extended linearly
    and evaluated on the element x, as a list.

    Each value is one cyclo.sum_products sum over x's numerators, over
    one common denominator (RingElement.common), and those of the
    memoized species table, whose entries are integral.  The loop runs
    over x's support and, for each basis orbit k there, over the dual
    orbits in duals whose class is subconjugate to k's, the only rows
    where column k of the table can be nonzero.
    """
    if x.ring is not ring:
        raise InputError("elements from different rings")
    table = species_table(ring)
    below = _duals_below(ring)
    orbits = ring.basis.orbits
    den, nums = x.common()
    wanted = set(duals)
    out = sum_products(ring.level, den, (
        (a, table[d][k].nums, ((d, 1),)) for k, a in nums.items()
        for d in below[orbits[k].class_index] if d in wanted))
    zero = Cyclotomic.zero(ring.level)
    return [out.get(d, zero) for d in duals]


def apply_species(ring, d, x):
    """Linear extension of the species of dual orbit d to an arbitrary element."""
    return species_values(ring, x, (d,))[0]


def species_value_composite(ring, d, b):
    """Oracle path for one species value: restrict to the subgroup ring,
    retract onto the full-subgroup span there, then apply the character
    linearly.  Must agree with the double coset form."""
    dual = dual_orbits(ring)[d]
    sub = ring.subring(dual.subgroup_id)
    res = ring_mod.restrict(ring.basis_element(b), sub)
    pi = sub.pi_retraction(res)
    hg = ring.hom_group(dual.subgroup_id)
    total = Cyclotomic.zero(ring.level)
    for k, c in pi.coeffs.items():
        values = sub.pair_values_map(k)
        idx = hg.index_of(tuple(values[sub.group.index[ring.group.elements[x]]]
                                for x in hg.domain))
        total = total + c * Cyclotomic.zeta_power(ring.level, dual.values[idx])
    return total


# ---------------------------------------------------------------------------
# idempotents


def idempotent(ring, d):
    """Primitive idempotent of the dual orbit with index d, in the standard basis.

    The formula runs over every subgroup K below the representative H
    (not just class representatives) and every homomorphism phi of H,
    weighting [K, phi restricted] by |K| mu(K, H) times the conjugate
    character value, then divides by |N_G(H, Phi)| |Hom(H, A)|.
    """
    return ring.memo(("idempotent", d), lambda: _idempotent(ring, d))


def _idempotent(ring, d):
    dual = dual_orbits(ring)[d]
    hid = dual.subgroup_id
    hg = ring.hom_group(hid)
    lattice = ring.lattice
    level = ring.level
    acc = {}
    for kid in lattice.subs_of[hid]:
        mu = lattice.mobius(kid, hid)
        if mu == 0:
            continue
        kw = lattice.subgroups[kid].order * mu
        ksub = lattice.subgroups[kid]
        for k in range(hg.size):
            # the complex conjugate of the character value
            coeff = Cyclotomic.zeta_power(level, -dual.values[k]) * kw
            values = {x: hg.value(k, x) for x in ksub.sorted_elems}
            oidx = ring.canonicalize_pair(kid, values)
            acc[oidx] = acc[oidx] + coeff if oidx in acc else coeff
    denom = dual.stabilizer_order * hg.size
    return ring_mod.RingElement(
        ring, {k: v.scalar_div(denom) for k, v in acc.items()}
    )


def idempotent_coordinates(ring, x):
    """Coordinates of an element in the idempotent basis: one species
    value per dual orbit."""
    return species_values(ring, x, range(ring.rank))


# ---------------------------------------------------------------------------
# exact linear algebra over the cyclotomic field


def exact_determinant(rows):
    """Exact determinant of a square matrix of Cyclotomic values at one
    level: the product of those of its diagonal blocks, taken in the
    matrix's own order.  A block ends at column k when no nonzero entry
    in columns up to k lies below row k, so a block upper triangular
    matrix splits into its blocks; in any other order the blocks are
    coarser and the determinant is the same."""
    if not rows:
        raise InputError("empty matrix")
    n = len(rows)
    det = Cyclotomic.one(rows[0][0].level)
    start = reach = 0  # reach: the lowest nonzero row of columns start..k
    for k in range(n):
        reach = max(reach, k)
        reach = next((i for i in range(n - 1, reach, -1) if not rows[i][k].is_zero()),
                     reach)
        if reach == k:
            d = _eliminate([row[start:k + 1] for row in rows[start:k + 1]])
            if d.is_zero():
                return d
            det = det * d
            start = k + 1
    return det


def _eliminate(rows):
    """Determinant by Gaussian elimination with exact pivot inversion.

    Entries are Cyclotomic values at one level; no rounding anywhere.
    """
    n = len(rows)
    level = rows[0][0].level
    m = [list(r) for r in rows]
    det = Cyclotomic.one(level)
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return Cyclotomic.zero(level)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        det = det * pv
        pv_inv = None  # inverted only for a row below that needs it
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            if pv_inv is None:
                pv_inv = pv.inverse()
            factor = m[r][col] * pv_inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    if sign < 0:
        det = -det
    return det


def species_determinant(ring):
    det = exact_determinant(species_table(ring))
    if det.is_zero():
        raise TheoremViolationError("species table is singular")
    return det


def dual_descriptor(ring, d):
    dual = dual_orbits(ring)[d]
    gens = ring.lattice.subgroups[dual.subgroup_id].gens
    hg = ring.hom_group(dual.subgroup_id)
    hom_gens = [[list(hg.value(gi, g)) for g in gens]
                for gi in hg.gen_indices]
    return {
        "index": dual.index,
        "subgroup": ring.subgroup_descriptor(dual.subgroup_id),
        "character": {
            "order": character_order(dual.values, ring.level),
            "hom_generators": hom_gens,
            "exponents": list(character_gen_exponents(dual.values, hg, ring.level)),
        },
        "stabilizer_order": dual.stabilizer_order,
        "orbit_size": dual.orbit_size,
    }
