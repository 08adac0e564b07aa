"""Exact arithmetic in cyclotomic fields and their residue fields.

A value at level n is a rational polynomial in a fixed primitive n-th
root of unity zeta, reduced modulo the n-th cyclotomic polynomial, and
stored as phi(n) integer numerators over one positive denominator in
lowest terms, so that triple is a normal form.  The cyclotomic
polynomial is monic and integral, so products reduce in integers;
Fraction appears only where values enter or leave (rational scalars,
JSON, rendering, reduction mod p).

Linear combinations, such as ring products over structure constants
and species extended linearly, go through one kernel: common_den puts
the operands over one denominator, and sum_products accumulates the
unreduced integer products of their numerators per output, then reduces
modulo the cyclotomic polynomial and normalizes once per output, so a
sum of many terms builds one value instead of one per term.  At levels
1 and 2 (phi = 1) it is plain int arithmetic.  Reduction modulo a prime
ideal above p lands in the finite field F_p[x]/(factor) for an
irreducible factor of the cyclotomic polynomial mod p.

No floating point is used anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .arith import is_prime, p_part
from .errors import InputError, InvariantViolationError, NotIntegralAtPError


def _pm_trim(c):
    """Coefficient list with trailing zeros dropped."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _product(a, b):
    """Product of two nonempty ascending coefficient sequences, untrimmed:
    len(a) + len(b) - 1 coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _poly_mul(a, b):
    """Product of two ascending coefficient lists, trimmed."""
    if not a or not b:
        return []
    return _pm_trim(_product(a, b))


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials with monic-ish divisor."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise InvariantViolationError("inexact integer polynomial division")
        c //= den[-1]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    return q, _pm_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n.
    """
    if n < 1:
        raise InputError("cyclotomic polynomial needs n >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise InvariantViolationError("cyclotomic recursion left a remainder")
    return tuple(num)


@lru_cache(maxsize=None)
def _level_data(n):
    """Reduction data at level n: phi(n), the cyclotomic polynomial, the
    integer reduction of x^k for k up to max(n-1, 2 phi(n) - 2)."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    top = max(n - 1, 2 * phi - 2)
    cur = [1] + [0] * (phi - 1)
    rows = [tuple(cur)]
    for _ in range(top):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c - lead * a for c, a in zip(cur, poly)]
        rows.append(tuple(cur))
    return phi, poly, tuple(rows)


def _exact(value):
    """An int or Fraction scalar, unchanged; anything else is refused."""
    if not isinstance(value, (int, Fraction)):
        raise InputError(f"not an exact rational scalar: {value!r}")
    return value


def _normal(level, nums, den):
    """The value nums/den (den > 0) in lowest terms."""
    if den != 1 and (g := gcd(den, *nums)) != 1:
        nums = tuple(a // g for a in nums)
        den //= g
    x = object.__new__(Cyclotomic)
    x.level, x.nums, x.den = level, nums, den
    return x


def _reduce(level, prod, den):
    """The value prod/den for an unreduced integer polynomial prod of
    degree at most 2 phi(level) - 2, reduced modulo the cyclotomic
    polynomial in integers."""
    phi, _, rows = _level_data(level)
    out = prod[:phi]
    for k in range(phi, len(prod)):
        c = prod[k]
        if c:
            out = [x + c * r for x, r in zip(out, rows[k])]
    return _normal(level, tuple(out), den)


def common_den(level, values):
    """A mapping of values at one level over one denominator: (den,
    {key: numerators}) with den the lcm of their denominators."""
    if any(v.level != level for v in values.values()):
        raise InputError(f"values not all at level {level}")
    den = lcm(*(v.den for v in values.values()))
    return den, {k: v.nums if v.den == den else tuple(a * (den // v.den) for a in v.nums)
                 for k, v in values.items()}


def sum_products(level, den, terms):
    """Exact sums of products of numerators over one denominator.

    terms yields (a, b, ((k, c), ...)): a and b are numerator tuples at
    the level (for instance from common_den) and each c is an int.
    Returns {k: Cyclotomic}, the value of the sum of c * a * b / den over
    the terms that name k.  Each a * b is formed once as an unreduced
    integer polynomial and added c times into the accumulator of each
    of its k; each accumulator is reduced modulo the cyclotomic
    polynomial and normalized once.  At phi(level) = 1 everything is
    int arithmetic.
    """
    acc = {}
    if _level_data(level)[0] == 1:
        for (a,), (b,), outs in terms:
            p = a * b
            for k, c in outs:
                acc[k] = acc.get(k, 0) + c * p
        return {k: _normal(level, (s,), den) for k, s in acc.items()}
    for a, b, outs in terms:
        p = _product(a, b)
        for k, c in outs:
            s = acc.get(k)
            acc[k] = [c * v for v in p] if s is None else [u + c * v for u, v in zip(s, p)]
    return {k: _reduce(level, s, den) for k, s in acc.items()}


class Cyclotomic:
    """Element of Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1):
    the coefficient of zeta^k is nums[k] / den, with den > 0 and
    gcd(den, *nums) == 1.  The constructor takes rational coefficients."""

    __slots__ = ("level", "nums", "den")

    def __init__(self, level, coeffs):
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != _level_data(level)[0]:
            raise InputError(f"{len(coeffs)} coefficients at level {level}")
        # the lcm of lowest-terms denominators leaves the triple in lowest terms
        self.den = lcm(*(c.denominator for c in coeffs))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in coeffs)
        self.level = level

    @classmethod
    def from_rational(cls, level, value):
        q = _exact(value)
        phi = _level_data(level)[0]
        return _normal(level, (q.numerator,) + (0,) * (phi - 1), q.denominator)

    @classmethod
    def zero(cls, level):
        return cls.from_rational(level, 0)

    @classmethod
    def one(cls, level):
        return cls.from_rational(level, 1)

    @classmethod
    def zeta_power(cls, level, k):
        return _normal(level, _level_data(level)[2][k % level], 1)

    def _check(self, other):
        if self.level != other.level:
            raise InputError(
                f"level mismatch: {self.level} vs {other.level}"
            )

    def __add__(self, other):
        self._check(other)
        d, e = self.den, other.den
        if d == e:
            return _normal(self.level, tuple(map(add, self.nums, other.nums)), d)
        return _normal(self.level, tuple(a * e + b * d for a, b in
                                         zip(self.nums, other.nums)), d * e)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _normal(self.level, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            q = _exact(other)
            return _normal(self.level, tuple(a * q.numerator for a in self.nums),
                           self.den * q.denominator)
        self._check(other)
        if len(self.nums) == 1:
            return _normal(self.level, (self.nums[0] * other.nums[0],),
                           self.den * other.den)
        return _reduce(self.level, _product(self.nums, other.nums),
                       self.den * other.den)

    __rmul__ = __mul__

    def scalar_div(self, q):
        if _exact(q) == 0:
            raise InputError("division by zero scalar")
        r = Fraction(q.denominator, q.numerator)
        return _normal(self.level, tuple(a * r.numerator for a in self.nums),
                       self.den * r.denominator)

    def galois(self, t):
        """Galois map zeta -> zeta^t for t coprime to the level."""
        n = self.level
        if gcd(t, n) != 1:
            raise InputError(f"galois exponent {t} not coprime to {n}")
        phi, _, rows = _level_data(n)
        out = [0] * phi
        for i, a in enumerate(self.nums):
            if a:
                out = [x + a * r for x, r in zip(out, rows[(i * t) % n])]
        return _normal(n, tuple(out), self.den)

    def inverse(self):
        """Multiplicative inverse: x times the product of its other Galois
        conjugates is its norm, a nonzero rational, so the inverse is that
        product divided by the norm."""
        if self.is_zero():
            raise InputError("inverse of zero")
        n = self.level
        rest = Cyclotomic.one(n)
        for t in range(2, n):
            if gcd(t, n) == 1:
                rest = rest * self.galois(t)
        return rest.scalar_div((self * rest).rational_value())

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise InputError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def is_integer(self):
        return self.den == 1 and self.is_rational()

    def coefficients(self):
        """The power-basis coefficients as Fractions in lowest terms."""
        return [Fraction(a, self.den) for a in self.nums]

    def __eq__(self, other):
        return (isinstance(other, Cyclotomic) and self.level == other.level
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.level, self.nums, self.den))

    def to_json(self):
        return {"level": self.level,
                "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coefficients()]}

    @classmethod
    def from_json(cls, doc):
        coeffs = [Fraction(s) if isinstance(s, str) else s for s in doc["coeffs"]]
        return cls(int(doc["level"]), coeffs)

    def __repr__(self):
        return f"Cyclotomic({self.level}, {render_cyclotomic(self)!r})"


def render_cyclotomic(x):
    """Human form: polynomial in z with rational coefficients, e.g. 'z^2+1'."""
    parts = []
    coeffs = x.coefficients()
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            mon = ""
        elif k == 1:
            mon = "z"
        else:
            mon = f"z^{k}"
        mag = abs(c)
        if mag == 1 and mon:
            body = mon
        else:
            frac = f"{mag.numerator}" if mag.denominator == 1 else \
                f"{mag.numerator}/{mag.denominator}"
            body = f"{frac}*{mon}" if mon else frac
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text


# ---------------------------------------------------------------------------
# finite field arithmetic mod (p, factor)


def _pm_mul(a, b, p):
    return _pm_trim([c % p for c in _poly_mul(a, b)])


def _pm_divmod(a, b, p):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _pm_trim(q), _pm_trim(a)


def _pm_mod(a, b, p):
    return _pm_divmod(a, b, p)[1]


def _pm_gcd(a, b, p):
    a, b = _pm_trim(a), _pm_trim(b)
    while b:
        a, b = b, _pm_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _pm_pow_mod(base, e, mod, p):
    result = [1]
    base = _pm_mod(base, mod, p)
    while e:
        if e & 1:
            result = _pm_mod(_pm_mul(result, base, p), mod, p)
        base = _pm_mod(_pm_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _pm_add(a, b, p):
    m = max(len(a), len(b))
    a = list(a) + [0] * (m - len(a))
    b = list(b) + [0] * (m - len(b))
    return _pm_trim([(x + y) % p for x, y in zip(a, b)])


class PrimeIdealData(NamedTuple):
    """Prime of Z[zeta_n] above p, named by an irreducible factor of the
    n-th cyclotomic polynomial mod p."""

    p: int
    level: int
    factor: tuple
    degree: int

    def to_json(self):
        return {"p": self.p, "level": self.level, "factor": list(self.factor)}


def _multiplicative_order(p, m):
    if m == 1:
        return 1
    t = p % m
    o = 1
    cur = t
    while cur != 1:
        cur = (cur * t) % m
        o += 1
    return o


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus style split of a squarefree product of
    irreducible degree-d factors.  Randomized, but callers sort the
    final factor list so the output stays canonical."""
    deg = len(f) - 1
    if deg == d:
        return [tuple(f)]
    while True:
        u = [rng.randrange(p) for _ in range(deg)]
        u = _pm_trim(u)
        if len(u) < 1:
            continue
        if p == 2:
            trace = list(u)
            acc = list(u)
            for _ in range(d - 1):
                acc = _pm_mod(_pm_mul(acc, acc, p), f, p)
                trace = _pm_add(trace, acc, p)
            g = _pm_gcd(trace, f, p)
        else:
            e = (p ** d - 1) // 2
            w = _pm_pow_mod(u, e, f, p)
            g = _pm_gcd(_pm_add(w, [p - 1], p), f, p)
        if 0 < len(g) - 1 < deg:
            q, r = _pm_divmod(f, g, p)
            if r:
                raise InvariantViolationError("split is not a divisor")
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(q, d, p, rng))


def factor_cyclotomic_mod_p(n, p):
    """Distinct irreducible factors of the n-th cyclotomic polynomial mod p,
    monic with ascending coefficients, in canonical order.

    For p not dividing n the factors all share degree equal to the
    multiplicative order of p mod n; when p divides n the reduction is a
    power of the cyclotomic polynomial at the p'-part of n, so factoring
    happens there.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    m = n // p_part(n, p)
    d = _multiplicative_order(p, m)
    target = [c % p for c in cyclotomic_polynomial(m)]
    target = _pm_trim(target)
    if len(target) - 1 == 0:
        raise InvariantViolationError("degenerate cyclotomic reduction")
    rng = random.Random(p * 1000003 + n)
    factors = sorted(set(_equal_degree_split(target, d, p, rng)),
                     key=lambda f: _factor_sort_key(f, p))
    check = [1]
    for f in factors:
        check = _pm_mul(check, list(f), p)
    if check != target:
        raise InvariantViolationError("factor product check failed")
    return factors


def _factor_sort_key(f, p):
    # degree, then the subtracted tail coefficients x^d - sum t_i x^i from
    # the top down, so the least linear factor x - r has the least root r
    d = len(f) - 1
    return (d, tuple((-f[i]) % p for i in range(d - 1, -1, -1)))


def prime_ideals(p, n):
    """All primes of Z[zeta_n] above p, one per irreducible factor."""
    return [PrimeIdealData(p, n, f, len(f) - 1)
            for f in factor_cyclotomic_mod_p(n, p)]


def find_prime_ideal(p, n):
    """The canonical (least-factor) prime of Z[zeta_n] above p."""
    return prime_ideals(p, n)[0]


def reduce_mod(x, ideal):
    """Image of a cyclotomic value in the residue field F_p[x]/(factor)
    of the ideal: the coefficients mod p, reduced mod the factor and
    trimmed, a normal form.

    Requires every coefficient denominator to be coprime to p.
    """
    p = ideal.p
    if x.den % p == 0:
        bad = next(c.denominator for c in x.coefficients() if c.denominator % p == 0)
        raise NotIntegralAtPError(f"denominator {bad} not invertible mod {p}")
    inv_den = pow(x.den, -1, p)
    coeffs = [(a * inv_den) % p for a in x.nums]
    return tuple(_pm_mod(_pm_trim(coeffs), ideal.factor, p))
