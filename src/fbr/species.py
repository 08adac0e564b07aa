"""Species homomorphisms and primitive idempotents over the cyclotomic field.

A species is indexed by the orbit of a dual pair (H, Phi): a subgroup
together with a character of Hom(H, A).  Its value on a basis orbit
[K, psi] is the double coset sum over the g with H contained in ^gK of
Phi(^g(psi) restricted to H), so it is zero unless H <=_G K: ordered by
subgroup class, the table is block triangular like the table of marks,
and it is evaluated and read only where H <=_G K.  The restrictions are
read at the probes of Hom(H, A) (HomGroup.index_at) and counted once per
H and [K, psi]; each character of Hom(H, A), named by its digits
(abelian.characters), is then one sum of roots of unity over those
counts, its exponents formed from the two digit tuples, added and
reduced once.  The table of all species values against the standard
basis is square and invertible (its determinant is taken block by
block); inverting it through the explicit idempotent formula gives the
primitive idempotents, whose coefficients are summed the same way.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ring as ring_mod
from .abelian import (character_exponent, character_order, characters,
                      compose_character)
from .cyclo import Cyclotomic, _reduce, sum_products
from .errors import InputError, InvariantViolationError, TheoremViolationError


class DualOrbit(NamedTuple):
    """Conjugation orbit [H, Phi] of a dual pair, canonically keyed.

    digits names Phi in Hom(H, A)'s dual for the class representative H
    (abelian.characters).  The canonical member has the least reversed
    digits, so characters are ordered as their exponent tuples would be.
    """

    index: int
    subgroup_id: int
    digits: tuple
    class_index: int
    stabilizer_order: int
    orbit_size: int


def _build_dual_data(ring):
    def orbit_data(rep):
        action = ring.hom_action(rep)
        hg = ring.hom_group(rep)
        # ^n Phi = Phi o sigma_(n^-1), read at the Hom generators; the
        # inverses of the generators generate N(H) too
        return (characters(hg, ring.level),
                lambda g, c: compose_character(hg, c, ring.level, hg, action[g]),
                lambda c: c[::-1])

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


def conjugate_character(ring, sid, c, g):
    """The pair ^g(H, Phi) = (^gH, ^gPhi) with ^gPhi(psi) = Phi(^(g^-1)psi).

    Returns (subgroup id of ^gH, the digits of ^gPhi).
    """
    tid = ring.lattice.conj_subgroup_id(g, sid)
    src, dst = ring.hom_group(sid), ring.hom_group(tid)
    conj = ring.group.conj
    # ^(g^-1)psi(x) = psi(g x g^-1), needed only at the generators psi
    # of Hom(^gH, A)
    pulled = {s: src.index_at([dst.value(s, conj(g, y)) for y in src.points])
              for s in dst.gen_indices}
    return tid, compose_character(src, c, ring.level, dst, pulled)


def canonicalize_dual(ring, sid, c):
    """Canonical dual orbit of (subgroup sid, character digits c)."""
    _, moved = conjugate_character(ring, sid, c, ring.lattice.to_rep[sid])
    return _dual_lookup(ring)[ring.lattice.class_rep(sid)][moved]


# ---------------------------------------------------------------------------
# species values


def _restriction_counts(ring, hid, b):
    """{index in Hom(H, A): count} of the restrictions to H of ^g psi over
    the double cosets HgK with H <= ^gK, for H a class representative
    and [K, psi] the basis orbit b."""
    orbit = ring.basis.orbits[b]
    psi = ring.pair_value(b)
    hg = ring.hom_group(hid)
    conj, inverse = ring.group.conj, ring.group.inverse
    counts = {}
    for g, meet in zip(*ring.lattice.double_coset_reps(hid, orbit.subgroup_id)):
        # H <= ^gK iff H meet ^gK = H; ^g psi(x) = psi(g^-1 x g)
        if meet == hid:
            ginv = inverse[g]
            k = hg.index_at([psi(conj(ginv, x)) for x in hg.points])
            counts[k] = counts.get(k, 0) + 1
    return counts


def _character_sum(hg, digits, level, counts):
    """Sum of count * Phi(phi_k) over {k: count}, Phi of hg with these digits, reduced once."""
    exponents = [0] * level
    for k, c in counts.items():
        exponents[character_exponent(hg, digits, k, level)] += c
    return _reduce(level, exponents, 1)


def species_value(ring, d, b):
    """Species of the dual orbit with index d evaluated on the basis orbit b."""
    dual = dual_orbits(ring)[d]
    return _character_sum(ring.hom_group(dual.subgroup_id), dual.digits, ring.level,
                          _restriction_counts(ring, dual.subgroup_id, b))


def species_table(ring):
    """Full species table: rows are dual orbits, columns basis orbits.

    Column [K, psi] is evaluated at each class representative H <=_G K
    from one count of the restrictions to H, for every dual orbit on H.
    Every entry is a sum of roots of unity, so integral; an entry with a
    denominator is an invariant violation.
    """
    def build():
        lattice, level = ring.lattice, ring.level
        on = {}  # class representative H -> the dual orbits on H
        for dual in dual_orbits(ring):
            on.setdefault(dual.subgroup_id, []).append(dual)
        below = [sorted({lattice.class_rep(s) for s in lattice.mobius_row(c.rep)})
                 for c in lattice.classes]
        zero = Cyclotomic.zero(level)
        rows = [[zero] * ring.rank for _ in range(ring.rank)]
        for b, o in enumerate(ring.basis.orbits):
            for hid in below[o.class_index]:
                counts = _restriction_counts(ring, hid, b)
                hg = ring.hom_group(hid)
                for dual in on[hid]:
                    rows[dual.index][b] = _character_sum(hg, dual.digits, level, counts)
        if any(v.den != 1 for row in rows for v in row):
            raise InvariantViolationError("species table entry is not integral")
        return tuple(map(tuple, rows))

    return ring.memo("species", build)


def species_values(ring, x, duals):
    """The species of each dual orbit index in duals, extended linearly
    and evaluated on the element x, as a list.

    Each value is one cyclo.sum_products sum over x's numerators, over
    one common denominator (RingElement.common), and those of the
    memoized species table, whose entries are integral.  Each basis
    orbit k in x's support reads the nonzero entries of column k: the
    one of a single dual orbit (apply_species), else those in duals.
    """
    if x.ring is not ring:
        raise InputError("elements from different rings")
    columns = _nonzero_columns(ring)
    den, nums = x.common()
    if len(duals) == 1:
        (d,) = duals
        terms = ((a, v, ((d, 1),)) for k, a in nums.items()
                 if (v := columns[k].get(d)) is not None)
    else:
        wanted = set(duals)
        terms = ((a, v, ((d, 1),)) for k, a in nums.items()
                 for d, v in columns[k].items() if d in wanted)
    out = sum_products(ring.level, den, terms)
    zero = Cyclotomic.zero(ring.level)
    return [out.get(d, zero) for d in duals]


def _nonzero_columns(ring):
    """For each basis orbit, {dual orbit: numerators} of the nonzero
    entries of its species table column."""
    def build():
        table = species_table(ring)
        return tuple({d: row[k].nums for d, row in enumerate(table) if not row[k].is_zero()}
                     for k in range(ring.rank))

    return ring.memo("nonzero columns", build)


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
        value = sub.pair_value(k)
        idx = hg.index_at([value(sub.group.index[ring.group.elements[x]])
                           for x in hg.points])
        total = total + c * Cyclotomic.zeta_power(
            ring.level, character_exponent(hg, dual.digits, idx, ring.level))
    return total


# ---------------------------------------------------------------------------
# idempotents


def idempotent(ring, d):
    """Primitive idempotent of the dual orbit with index d, in the standard basis.

    The formula runs over every subgroup K below the representative H
    (not just class representatives) and every homomorphism phi of H,
    weighting [K, phi restricted] by |K| mu(K, H) times the conjugate
    character value, then divides by |N_G(H, Phi)| |Hom(H, A)|.  Each
    coefficient is summed as root-of-unity exponents and reduced once.
    """
    return ring.memo(("idempotent", d), lambda: _idempotent(ring, d))


def _idempotent(ring, d):
    dual = dual_orbits(ring)[d]
    hid = dual.subgroup_id
    hg = ring.hom_group(hid)
    lattice = ring.lattice
    level = ring.level
    # each homomorphism with the exponent of the complex conjugate of the
    # character's value on it
    conj = [(hg.function(k), -character_exponent(hg, dual.digits, k, level) % level)
            for k in range(hg.size)]
    acc = {}  # basis orbit -> weight of each exponent of zeta
    for kid, mu in lattice.mobius_row(hid).items():
        if mu == 0:
            continue
        kw = lattice.subgroups[kid].order * mu
        for phi, e in conj:
            oidx = ring.canonicalize_pair(kid, phi)
            if oidx not in acc:
                acc[oidx] = [0] * level
            acc[oidx][e] += kw
    denom = dual.stabilizer_order * hg.size
    return ring_mod.RingElement(
        ring, {k: _reduce(level, v, denom) for k, v in acc.items()})


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
            "order": character_order(dual.digits, hg.gen_orders),
            "hom_generators": hom_gens,
            "exponents": list(dual.digits),
        },
        "stabilizer_order": dual.stabilizer_order,
        "orbit_size": dual.orbit_size,
    }
