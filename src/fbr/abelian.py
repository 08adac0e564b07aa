"""Finite abelian fiber groups and Hom(H, A) read at a few points.

The fiber A is given by invariant factors.  For a subgroup H of a
permutation group, Hom(H, A) is enumerated through an explicit cyclic
basis of the abelianization of H.  A homomorphism is named by its index
in that enumeration: its value at an element is read from the
element's coordinates in that basis, and its index from its values at
lifts of the basis elements.  A character of Hom(H, A) is named by its
digits in the same mixed radix, and its exponent on a homomorphism is
formed from the two digit tuples.
"""

from __future__ import annotations

from itertools import product as iterproduct
from math import gcd, lcm, prod

from .arith import factorint, p_part
from .errors import InputError, InvariantViolationError, ResourceLimitError
from .perm import coset_quotient

# largest Hom(H, A) enumerated; a larger one is a ResourceLimitError
HOM_CAP = 1_000_000


def normalize_invariant_factors(factors):
    """Smith-style normalization of an arbitrary cyclic factor list.

    Splits into elementary divisors and recombines so the result is an
    ascending divisibility chain d1 | d2 | ... | dk with every di >= 2.
    """
    primary = {}
    for d in factors:
        d = int(d)
        if d < 1:
            raise InputError(f"cyclic factor must be positive, got {d}")
        for p, e in factorint(d).items():
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    out = []
    for i in range(depth):
        f = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        out.append(f)
    out.reverse()
    return tuple(out)


class FiniteAbelianGroup:
    """Finite abelian group C_{d1} x ... x C_{dk} with d1 | d2 | ... | dk.

    Elements are exponent tuples componentwise mod the factors; the
    empty product is the trivial group.
    """

    def __init__(self, invariant_factors):
        factors = tuple(int(d) for d in invariant_factors)
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise InputError(f"invariant factors must divide in turn: {factors}")
        if any(d < 2 for d in factors):
            raise InputError(f"invariant factors must be >= 2: {factors}")
        self.invariant_factors = factors
        self.exponent = factors[-1] if factors else 1

    @classmethod
    def from_factors(cls, factors):
        return cls(normalize_invariant_factors(factors))


def parse_fiber_spec(spec):
    """Parse 'A=d1xd2x...' or the bare 'd1xd2x...'; 'A=1' or '1' is trivial."""
    text = spec.strip()
    if text.startswith("A="):
        text = text[2:]
    if text == "1" or text == "":
        return FiniteAbelianGroup(())
    parts = text.split("x")
    try:
        factors = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"bad fiber spec {spec!r}") from None
    return FiniteAbelianGroup.from_factors(factors)


# ---------------------------------------------------------------------------
# enumeration of finite abelian products


def _multiples(x, m, add, zero):
    """[0, x, 2x, ..., (m-1)x] in the group with this addition."""
    out = [zero]
    for _ in range(m - 1):
        out.append(add(out[-1], x))
    return out


def _sums(factors, add, zero):
    """Every sum with one term from each factor, in itertools.product
    order: the first factor varies slowest."""
    sums = [zero]
    for terms in factors:
        sums = [add(s, t) for s in sums for t in terms]
    return sums


# ---------------------------------------------------------------------------
# abelianization bases


def _pgroup_basis(elems, mul, identity, order_of):
    """Cyclic basis of a finite abelian p-group given by explicit data.

    Peels a maximal-order generator, recurses on the quotient by it, and
    adjusts the lifted quotient basis so lifted orders match quotient
    orders.  The adjustment x -> x * g^(-t/m) is possible because the
    order of g is maximal.
    """
    if len(elems) == 1:
        return []
    # deterministic pick: first element of maximal order in list order
    g = elems[0]
    for x in elems:
        if order_of(x) > order_of(g):
            g = x
    og = order_of(g)
    powers = _multiples(g, og, mul, identity)
    if og == len(elems):
        return [(g, og)]
    _, q_elems, q_mul, q_ident, q_order = coset_quotient(elems, powers, mul, identity)
    basis = [(g, og)]
    ginv = powers[-1] if og > 1 else identity
    for xbar, m in _pgroup_basis(q_elems, q_mul, q_ident, q_order):
        x = xbar
        xm = identity
        for _ in range(m):
            xm = mul(xm, x)
        # xm lies in <g>; find t with g^t = xm
        t = powers.index(xm)
        if t % m != 0:
            raise InvariantViolationError("basis lift failed divisibility")
        c = t // m
        for _ in range(c):
            x = mul(x, ginv)
        basis.append((x, m))
    return basis


def abelianization_basis(group, subgroup, derived_elems):
    """Cyclic basis of H/[H,H] lifted to coset representatives in H.

    Returns (basis, coords) where basis is a list of (element index,
    order) pairs whose images form an independent cyclic basis of the
    abelianization with orders in ascending divisibility, and coords
    maps each element index of H to its exponent tuple in that basis.
    """
    coset_key, q_elems, q_mul, ident, q_order = coset_quotient(
        subgroup.sorted_elems, derived_elems, group.mul, group.identity)
    n = len(q_elems)
    per_prime = []
    for p in sorted(factorint(n)):
        pk = p_part(n, p)
        comp = sorted(x for x in q_elems if pk % q_order(x) == 0)
        per_prime.append(sorted(_pgroup_basis(comp, q_mul, ident, q_order),
                                key=lambda t: -t[1]))
    # combine p-primary bases into an ascending invariant-factor basis
    depth = max((len(b) for b in per_prime), default=0)
    combined = []
    for i in range(depth):
        elem = ident
        order = 1
        for b in per_prime:
            if i < len(b):
                x, m = b[i]
                elem = q_mul(elem, x)
                order *= m
        combined.append((elem, order))
    combined.reverse()

    cosets = _sums([_multiples(x, m, q_mul, ident) for x, m in combined], q_mul, ident)
    coords_of_coset = dict(zip(cosets, iterproduct(*(range(m) for _, m in combined))))
    if not len(cosets) == len(coords_of_coset) == n:
        raise InvariantViolationError("abelianization basis is not a basis")
    coords = {x: coords_of_coset[coset_key[x]] for x in subgroup.sorted_elems}
    return combined, coords


# ---------------------------------------------------------------------------
# Hom groups


class HomGroup:
    """All homomorphisms H -> A, by index, read from the coordinates of
    the elements of H in the abelianization basis.

    The group is generated by one homomorphism per (abelianization basis
    element i, cyclic factor j of A) with g = gcd(m, d) > 1, m the order
    of i and d that of j: generator t sends i_t to d/g in factor j_t and
    every other basis element to 0.  Homomorphism k has digits (k_t) in
    product order of the generator orders and is the sum of k_t times
    generator t, so its value at x is the sum of k_t * coords[x][i_t] *
    d/g in factor j_t (function(k) forms that sum, value(k, x) reduces
    it), and k_t is the j_t-th component of its value at a lift of i_t,
    divided by d/g.  Those lifts are the probes, at most rank(H^ab)
    points: index_at reads an index from the values there.
    On construction every index is decoded at the probes, and one that
    does not decode to itself is an invariant violation.
    """

    def __init__(self, group, subgroup, derived_elems, fiber):
        basis, self.coords = abelianization_basis(group, subgroup, derived_elems)
        self.factors = fiber.invariant_factors
        gens = [(i, j, g) for i, (_, m) in enumerate(basis)
                for j, d in enumerate(self.factors) if (g := gcd(m, d)) > 1]
        self.gen_orders = tuple(g for _, _, g in gens)
        self.size = prod(self.gen_orders)
        if self.size > HOM_CAP:
            raise ResourceLimitError(f"|Hom| = {self.size} exceeds cap {HOM_CAP}")
        self.exponent = lcm(*self.gen_orders)
        # generator t is the homomorphism with digit 1 at t: its index is
        # the product-order stride of digit t
        self.gen_indices = tuple(prod(self.gen_orders[t + 1:])
                                 for t in range(len(self.gen_orders)))
        # term t: (i_t, j_t, d/g_t, g_t, stride of digit t)
        self.terms = tuple((i, j, self.factors[j] // g, g, stride)
                           for (i, j, g), stride in zip(gens, self.gen_indices))
        probes = {}  # lift of i -> the digits read there, (j, d/g, g, stride)
        for i, j, step, g, stride in self.terms:
            probes.setdefault(basis[i][0], []).append((j, step, g, stride))
        self.points, self.digits = tuple(probes), tuple(probes.values())
        # checked once here, so that index_at need not check each read
        for k in range(self.size):
            if self.index_at(map(self.function(k), self.points)) != k:
                raise InvariantViolationError("a homomorphism does not decode to its index")

    def function(self, hom_index):
        """Homomorphism hom_index as a function on H whose values are
        exponent vectors congruent to its values modulo the fiber, as
        index_at accepts them."""
        coords, rank = self.coords, len(self.factors)
        terms = [(i, j, a) for i, j, step, g, stride in self.terms
                 if (a := hom_index // stride % g * step)]

        def phi(x):
            v, c = [0] * rank, coords[x]
            for i, j, a in terms:
                v[j] += c[i] * a
            return v
        return phi

    def value(self, hom_index, elem):
        """The value of homomorphism hom_index at the element elem of H."""
        return tuple(map(int.__mod__, self.function(hom_index)(elem), self.factors))

    def index_at(self, values):
        """Index of the homomorphism with these values at the probes, in
        the order of points.  A value may be any exponent vector congruent
        to it modulo the fiber, such as an unreduced sum."""
        k = 0
        for v, digits in zip(values, self.digits):
            for j, step, g, stride in digits:
                k += v[j] // step % g * stride
        return k

    def pullback(self, f, target):
        """The map Hom(H, A) -> Hom(T, A), phi -> phi o f, on indices, where
        H is this domain, T that of the Hom group target, and f maps T
        into H; each image is read at the probes of T."""
        at = [f(y) for y in target.points]
        return tuple(target.index_at(map(self.function(k), at))
                     for k in range(self.size))


# ---------------------------------------------------------------------------
# characters of Hom groups

# A character Phi of a Hom group is named by its digits (c_t), c_t mod g_t:
# Phi takes zeta^(c_t * level/g_t) on generator t, so zeta^(sum of
# c_t * k_t * level/g_t) on homomorphism k, whose digits are (k_t).


def characters(hom_group, level):
    """The digits of every character of a Hom group, in product order; the
    level must be a multiple of the Hom exponent."""
    if level % hom_group.exponent != 0:
        raise InvariantViolationError(
            f"level {level} not divisible by Hom exponent {hom_group.exponent}")
    return iterproduct(*(range(g) for g in hom_group.gen_orders))


def character_exponent(hom_group, c, k, level):
    """Exponent of the value on homomorphism k of the character with digits c."""
    return sum(ct * (k // stride % g) * (level // g) for ct, stride, g
               in zip(c, hom_group.gen_indices, hom_group.gen_orders)) % level


def compose_character(hom_group, c, level, target, pi):
    """The digits of Phi o pi, Phi the character with digits c, for pi a
    homomorphism from the Hom group target into this one, given on
    indices (pi[s] is read at the generators s of target only)."""
    out = []
    for s, g in zip(target.gen_indices, target.gen_orders):
        e, r = divmod(character_exponent(hom_group, c, pi[s], level), level // g)
        if r:
            raise InvariantViolationError("character value has wrong order on generator")
        out.append(e)
    return tuple(out)


def character_order(c, orders):
    """Order of the character with digits c, for generator orders orders."""
    return lcm(*(g // gcd(ct, g) for ct, g in zip(c, orders)))


def character_power(c, t, orders):
    return tuple(ct * t % g for ct, g in zip(c, orders))


def character_p_parts(c, p, orders):
    """Split a character into its p-part and p'-part.

    Done by exponent CRT on the character order o = p^a * m: the p-part
    is the power by m * (m^-1 mod p^a) and the p'-part the power by
    p^a * (p^a^-1 mod m).
    """
    o = character_order(c, orders)
    pa = p_part(o, p)
    m = o // pa
    # pow(x, -1, 1) == 0, so a trivial part needs no case of its own
    return (character_power(c, m * pow(m, -1, pa), orders),
            character_power(c, pa * pow(pa, -1, m), orders))
