"""Finite abelian fiber groups and Hom(H, A) read at a few points.

The fiber A is given by invariant factors.  For a subgroup H of a
permutation group, Hom(H, A) is enumerated through an explicit cyclic
basis of the abelianization of H.  A homomorphism is named by its index
in that enumeration, read from its values at lifts of the basis
elements, and its total value table keyed by element index is kept for
reading values and ordering orbits.  Characters of Hom(H, A) are kept
as tuples of root-of-unity exponents, one per homomorphism.
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
        self.rank = len(factors)
        self.order = 1
        for d in factors:
            self.order *= d
        self.exponent = factors[-1] if factors else 1

    @classmethod
    def from_factors(cls, factors):
        return cls(normalize_invariant_factors(factors))

    def zero(self):
        return (0,) * self.rank

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def scale(self, k, a):
        return tuple((k * x) % d for x, d in zip(a, self.invariant_factors))

    def elements(self):
        return list(iterproduct(*(range(d) for d in self.invariant_factors)))

    def __eq__(self, other):
        return (isinstance(other, FiniteAbelianGroup)
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"C{d}" for d in self.invariant_factors)

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.invariant_factors)})"


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
    """All homomorphisms H -> A, by index, with their value tables.

    The group is generated by one homomorphism per (abelianization basis
    element i, cyclic factor j of A) with g = gcd(m, d) > 1, m the order
    of i and d that of j: generator t sends i_t to d/g in factor j_t and
    every other basis element to 0.  Homomorphism k has digits (k_t) in
    product order of the generator orders and is the sum of k_t times
    generator t, so k_t is the j_t-th component of its value at a lift
    of i_t, divided by d/g.  Those lifts are the probes, at most
    rank(H^ab) points: index_at reads an index from the values there,
    with no table built.  The table of homomorphism k is a tuple of
    A-exponent vectors aligned with the sorted elements of H; on
    construction every table is decoded at the probes, and one that
    does not decode to its own index is an invariant violation.
    """

    def __init__(self, group, subgroup, derived_elems, fiber):
        self.domain = subgroup.sorted_elems
        self.pos = {e: i for i, e in enumerate(self.domain)}
        basis, coords = abelianization_basis(group, subgroup, derived_elems)

        gens = [(i, j, g) for i, (_, m) in enumerate(basis)
                for j, d in enumerate(fiber.invariant_factors) if (g := gcd(m, d)) > 1]
        self.gen_orders = tuple(g for _, _, g in gens)
        self.size = prod(self.gen_orders)
        if self.size > HOM_CAP:
            raise ResourceLimitError(f"|Hom| = {self.size} exceeds cap {HOM_CAP}")
        self.exponent = lcm(*self.gen_orders)
        # generator t is the homomorphism with digit 1 at t: its index is
        # the product-order stride of digit t
        self.gen_indices = tuple(prod(self.gen_orders[t + 1:])
                                 for t in range(len(self.gen_orders)))

        def add(s, t):
            return tuple(map(fiber.add, s, t))

        zero = tuple(fiber.zero() for _ in self.domain)
        multiples = []
        probes = {}  # lift of i -> the digits read there, (j, d/g, g, stride)
        for (i, j, g), stride in zip(gens, self.gen_indices):
            unit = [0] * fiber.rank
            unit[j] = step = fiber.invariant_factors[j] // g
            probes.setdefault(basis[i][0], []).append((j, step, g, stride))
            table = tuple(fiber.scale(coords[x][i], unit) for x in self.domain)
            multiples.append(_multiples(table, g, add, zero))
        self.points, self.digits = tuple(probes), tuple(probes.values())
        self.tables = tuple(_sums(multiples, add, zero))
        # checked once here, so that index_at need not check each read
        at = [self.pos[x] for x in self.points]
        for k, table in enumerate(self.tables):
            if self.index_at(map(table.__getitem__, at)) != k:
                raise InvariantViolationError("a value table does not decode to its index")

    def value(self, hom_index, elem):
        return self.tables[hom_index][self.pos[elem]]

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
        at = [self.pos[f(y)] for y in target.points]
        return tuple(target.index_at(map(table.__getitem__, at)) for table in self.tables)


# ---------------------------------------------------------------------------
# characters of Hom groups

# A character is stored as a tuple of integers mod the cyclotomic level:
# entry k is the exponent e with value zeta^e on homomorphism k.


def dual_character_values(hom_group, level):
    """All characters of a Hom group as exponent tuples at the given level.

    The character with digits (c_t) takes sum c_t * k_t * level/g_t on
    homomorphism k, whose digits are (k_t); characters come in product
    order of their digits."""
    if level % hom_group.exponent != 0:
        raise InvariantViolationError(
            f"level {level} not divisible by Hom exponent {hom_group.exponent}"
        )

    def add(s, t):
        return tuple((a + b) % level for a, b in zip(s, t))

    zero = (0,) * hom_group.size
    multiples = []
    for stride, g in zip(hom_group.gen_indices, hom_group.gen_orders):
        # the exponent row of digit t: k_t * level/g on homomorphism k
        row = tuple((k // stride) % g * (level // g) for k in range(hom_group.size))
        multiples.append(_multiples(row, g, add, zero))
    out = _sums(multiples, add, zero)
    if len(set(out)) != len(out):
        raise InvariantViolationError("characters are not pairwise distinct")
    return out


def character_order(values, level):
    g = level
    for v in values:
        g = gcd(g, v)
    return level // g if level else 1


def character_power(values, t, level):
    return tuple((v * t) % level for v in values)


def character_p_parts(values, p, level):
    """Split a character into its p-part and p'-part.

    Done by exponent CRT on the character order o = p^a * m: the p-part
    is the power by m * (m^-1 mod p^a) and the p'-part the power by
    p^a * (p^a^-1 mod m).
    """
    o = character_order(values, level)
    pa = p_part(o, p)
    m = o // pa
    # pow(x, -1, 1) == 0, so a trivial part needs no case of its own
    tp = m * pow(m, -1, pa)
    tq = pa * pow(pa, -1, m)
    return character_power(values, tp, level), character_power(values, tq, level)


def character_gen_exponents(values, hom_group, level):
    """Exponents c with value zeta^(c * level/order) on each Hom generator."""
    out = []
    for gi, g in zip(hom_group.gen_indices, hom_group.gen_orders):
        e = values[gi]
        step = level // g
        if e % step != 0:
            raise InvariantViolationError("character value has wrong order on generator")
        out.append((e // step) % g)
    return tuple(out)
