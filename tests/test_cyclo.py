"""Exact cyclotomic arithmetic and reduction modulo prime ideals."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fbr import cyclo
from fbr.cyclo import (Cyclotomic, common_den, cyclotomic_polynomial,
                       factor_cyclotomic_mod_p, find_prime_ideal, prime_ideals,
                       reduce_mod, render_cyclotomic, sum_products)
from fbr.errors import InputError, NotIntegralAtPError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(InputError):
        cyclotomic_polynomial(0)


def test_basic_products():
    one = Cyclotomic.one(4)
    z = Cyclotomic.zeta_power(4, 1)
    assert (one + z) * (one - z) == Cyclotomic.from_rational(4, 2)
    assert Cyclotomic.zeta_power(4, 4) == one
    x = Cyclotomic(4, [Fraction(3, 2), Fraction(-1, 3)])
    assert x * one == x


def test_conjugation():
    # complex conjugation is the Galois map zeta -> zeta^(level - 1)
    z = Cyclotomic.zeta_power(4, 1)
    assert z.galois(3) == -z
    assert z.galois(3).galois(3) == z
    r = Cyclotomic.from_rational(6, Fraction(5, 7))
    assert r.galois(5) == r
    for n in (1, 2, 3, 4, 6, 12):
        for k in range(n):
            u = Cyclotomic.zeta_power(n, k)
            assert u * u.galois(n - 1) == Cyclotomic.one(n)


def test_galois_maps():
    z = Cyclotomic.zeta_power(4, 1)
    assert z.galois(1) == z
    assert z.galois(3) == Cyclotomic.zeta_power(4, 3)
    r = Cyclotomic.from_rational(4, 9)
    assert r.galois(3) == r
    with pytest.raises(InputError):
        z.galois(2)
    # composition law on level 12
    x = Cyclotomic(12, [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)])
    for t in (1, 5, 7, 11):
        for s in (1, 5, 7, 11):
            assert x.galois(t).galois(s) == x.galois((t * s) % 12)


def test_galois_permutes_roots():
    # sigma_t(zeta) stays a root of the level polynomial
    from math import gcd
    for n in (4, 6, 12):
        poly = cyclotomic_polynomial(n)
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            root = Cyclotomic.zeta_power(n, t)
            val = Cyclotomic.zero(n)
            power = Cyclotomic.one(n)
            for c in poly:
                val = val + power * c
                power = power * root
            assert val.is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(42)
    for n in (1, 2, 3, 4, 6, 12):
        phi = len(cyclotomic_polynomial(n)) - 1
        def rand():
            return Cyclotomic(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(phi)])
        for _ in range(8):
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + (b + c) == (a + b) + c


def test_scalar_division():
    x = Cyclotomic.from_rational(4, 3)
    assert x.scalar_div(2) == Cyclotomic.from_rational(4, Fraction(3, 2))
    with pytest.raises(InputError):
        x.scalar_div(0)


def test_inverse():
    for n in (3, 4, 6, 12):
        vals = [Cyclotomic.zeta_power(n, 1) + Cyclotomic.one(n),
                Cyclotomic.zeta_power(n, 1) * 2 - Cyclotomic.one(n)]
        for v in vals:
            if v.is_zero():
                continue
            assert v * v.inverse() == Cyclotomic.one(n)


def test_find_prime_ideal_examples():
    for p in (2, 3, 5, 7):
        assert find_prime_ideal(p, 2).factor == (1, 1)
    p54 = find_prime_ideal(5, 4)
    assert p54.factor == (3, 1)      # x - 2
    assert p54.degree == 1
    p34 = find_prime_ideal(3, 4)
    assert p34.factor == (1, 0, 1)   # irreducible x^2 + 1
    assert p34.degree == 2


def test_factors_divide_reduction():
    # every factor divides the cyclotomic polynomial mod p
    from fbr.cyclo import _pm_divmod, _pm_trim
    for n, p in ((4, 5), (4, 3), (6, 2), (6, 3), (12, 5), (12, 2), (8, 2)):
        target = _pm_trim([c % p for c in cyclotomic_polynomial(n)])
        for f in factor_cyclotomic_mod_p(n, p):
            # in the ramified case factors divide the p'-part reduction,
            # which divides the full reduction
            q, r = _pm_divmod(target, list(f), p) if len(target) >= len(f) else ([], [1])
            assert not r


def test_prime_ideal_count_and_degree():
    # degree = multiplicative order of p mod n, count = phi(n)/degree
    ideals = prime_ideals(7, 12)   # 7 has order 2 mod 12
    assert all(i.degree == 2 for i in ideals)
    assert len(ideals) == 2
    ideals = prime_ideals(13, 12)  # 13 = 1 mod 12 splits completely
    assert all(i.degree == 1 for i in ideals)
    assert len(ideals) == 4


def test_ramified_case():
    # p dividing the level: reduction is a power of the p'-part polynomial
    ideals = prime_ideals(3, 6)
    assert len(ideals) == 1
    assert ideals[0].factor == (1, 1)
    ideals = prime_ideals(2, 4)
    assert ideals[0].factor == (1, 1)


def test_reduction_examples():
    p = find_prime_ideal(5, 4)
    z = Cyclotomic.zeta_power(4, 1)
    assert reduce_mod(z, p) == (2,)
    x = Cyclotomic.from_rational(4, 17)
    assert reduce_mod(x, p) == (2,)
    with pytest.raises(NotIntegralAtPError):
        reduce_mod(Cyclotomic.from_rational(4, Fraction(1, 5)), p)


def test_reduction_is_multiplicative():
    rng = random.Random(7)
    for n, p in ((4, 5), (6, 5), (12, 7)):
        ideal = find_prime_ideal(p, n)
        phi = len(cyclotomic_polynomial(n)) - 1
        for _ in range(6):
            a = Cyclotomic(n, [Fraction(rng.randint(-9, 9)) for _ in range(phi)])
            b = Cyclotomic(n, [Fraction(rng.randint(-9, 9)) for _ in range(phi)])
            ra, rb = reduce_mod(a, ideal), reduce_mod(b, ideal)
            prod = cyclo._pm_mod(cyclo._pm_mul(ra, rb, p), ideal.factor, p)
            total = cyclo._pm_mod(cyclo._pm_add(ra, rb, p), ideal.factor, p)
            assert reduce_mod(a * b, ideal) == tuple(prod)
            assert reduce_mod(a + b, ideal) == tuple(total)


def test_p_power_roots_reduce_to_one():
    # any root of unity of p-power order is 1 modulo a prime above p
    from math import gcd
    for n, p, k in ((4, 2, 1), (4, 2, 2), (12, 2, 3), (12, 3, 4), (6, 3, 2)):
        ideal = find_prime_ideal(p, n)
        u = Cyclotomic.zeta_power(n, k)
        order = n // gcd(n, k)
        while order % p == 0:
            order //= p
        assert order == 1, "test data must use p-power orders"
        assert reduce_mod(u, ideal) == (1,)


def poly_divmod_mod_p(a, b, p):
    """Quotient and remainder of a by the monic b over F_p, coefficients
    ascending."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        c = q[shift] = a[shift + len(b) - 1]
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
    return q, a[:len(b) - 1]


def irreducible_divisors_oracle(n, p):
    """Monic irreducible divisors of the n-th cyclotomic polynomial mod p,
    by trying every monic polynomial degree by degree and dividing each
    divisor out completely: once the factors of lower degree are gone, a
    divisor of what remains is irreducible."""
    rest = [c % p for c in cyclotomic_polynomial(n)]
    found = set()
    k = 0
    while len(rest) > 1:
        k += 1
        for tail in itertools.product(range(p), repeat=k):
            f = list(tail) + [1]
            q, r = poly_divmod_mod_p(rest, f, p)
            while len(rest) > k and not any(r):
                found.add(tuple(f))
                rest = q
                q, r = poly_divmod_mod_p(rest, f, p)
    return found


def test_equal_degree_split_path():
    # level 41 at p = 2: two factors of degree 20
    factors = factor_cyclotomic_mod_p(41, 2)
    assert len(factors) == 2
    assert all(len(f) - 1 == 20 for f in factors)
    # p^d <= 1000: both the one-factor shortcut and the split, p | n too
    for n, p in [(7, 2), (15, 2), (21, 2), (31, 2), (11, 3), (8, 3), (13, 5),
                 (12, 5), (20, 3), (24, 7), (5, 11), (16, 17), (91, 3),
                 (9, 2), (10, 3), (12, 2), (18, 3), (20, 2), (45, 3), (63, 3)]:
        got = factor_cyclotomic_mod_p(n, p)
        assert len(set(got)) == len(got)
        assert set(got) == irreducible_divisors_oracle(n, p), (n, p)


def test_render():
    assert render_cyclotomic(Cyclotomic.zero(4)) == "0"
    assert render_cyclotomic(Cyclotomic.one(4)) == "1"
    assert render_cyclotomic(-Cyclotomic.one(4)) == "-1"
    assert render_cyclotomic(Cyclotomic.zeta_power(4, 1)) == "z"
    x = Cyclotomic(4, [Fraction(1, 2), Fraction(-2)])
    assert render_cyclotomic(x) == "-2*z+1/2"


def test_json_round_trip():
    x = Cyclotomic(6, [Fraction(1, 2), Fraction(-3)])
    assert Cyclotomic.from_json(x.to_json()) == x


def test_scalars_must_be_exact():
    x = Cyclotomic.zeta_power(3, 1)
    for bad in (0.1, 0.5):
        with pytest.raises(InputError):
            Cyclotomic.from_rational(3, bad)
        with pytest.raises(InputError):
            x * bad
        with pytest.raises(InputError):
            bad * x
        with pytest.raises(InputError):
            x.scalar_div(bad)
        with pytest.raises(InputError):
            Cyclotomic(3, [bad, 0])
    assert x * Fraction(1, 2) == Cyclotomic(3, [0, Fraction(1, 2)])


def test_coefficient_count_must_match_level():
    with pytest.raises(InputError):
        Cyclotomic(3, [Fraction(1)])
    with pytest.raises(InputError):
        Cyclotomic.from_json({"level": 3, "coeffs": ["1/1"]})
    with pytest.raises(InputError):
        Cyclotomic.from_json({"level": 3, "coeffs": ["1/1", "0/1", "0/1"]})


def test_kernel_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20251018)

    def to_poly(v):
        return sympy.Poly(list(reversed(v.coefficients())), x, domain="QQ")

    def from_poly(p, n):
        return Cyclotomic(n, [Fraction(str(p.coeff_monomial(x ** k)))
                              for k in range(len(cyclotomic_polynomial(n)) - 1)])

    def normal(v):
        assert type(v.den) is int and v.den > 0
        assert all(type(a) is int for a in v.nums)
        assert math.gcd(v.den, *v.nums) == 1
        return v

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15):
        mod = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
        phi = mod.degree()
        one = Cyclotomic.one(n)
        for _ in range(6):
            a, b = (normal(Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                          for _ in range(phi)])) for _ in range(2))
            ab = normal(a * b)
            assert ab == from_poly(sympy.rem(to_poly(a) * to_poly(b), mod), n)
            assert normal(a + b) == from_poly(to_poly(a) + to_poly(b), n)
            assert normal(a - b) == from_poly(to_poly(a) - to_poly(b), n)
            assert normal(a * 3) == normal(a * Fraction(3, 1))
            assert normal(a.scalar_div(-4)) * -4 == a
            if not a.is_zero():
                assert normal(a * normal(a.inverse())) == one
            for t in range(1, n + 1):
                if math.gcd(t, n) == 1:
                    image = sympy.rem(to_poly(a).compose(sympy.Poly(x ** t, x)), mod)
                    assert normal(a.galois(t)) == from_poly(image, n)
            # one value reached two ways: equal triples, equal hashes
            for u, v in ((ab, b * a), (a, a + b - b), (a, (a * 6).scalar_div(6))):
                assert u == v and hash(u) == hash(v)
                assert (u.nums, u.den) == (v.nums, v.den)
            again = normal(Cyclotomic.from_json(a.to_json()))
            assert again == a and again.to_json() == a.to_json()
            assert a.to_json()["coeffs"] == [
                f"{c.numerator}/{c.denominator}" for c in
                (Fraction(str(to_poly(a).coeff_monomial(x ** k))) for k in range(phi))]
        zero = normal(Cyclotomic.zero(n))
        assert (zero.nums, zero.den) == ((0,) * phi, 1)
        assert normal(a - a) == zero
        # the sum kernel: mixed denominators, a zero operand, a zero
        # coefficient and an output whose terms cancel
        values = {k: Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6)))
                                    for _ in range(phi)]) for k in range(4)}
        values["z"] = zero
        den, nums = common_den(n, values)
        assert den == math.lcm(*(v.den for v in values.values()))
        assert all(Cyclotomic(n, [Fraction(c, den) for c in nums[k]]) == v
                   for k, v in values.items())
        terms = [(i, j, [(rng.randrange(4), rng.randint(-3, 3))
                         for _ in range(rng.randint(0, 3))])
                 for i in values for j in values]
        terms += [(0, 1, [("c", 2)]), (0, 1, [("c", -2)])]
        got = sum_products(n, den * den, ((nums[i], nums[j], outs) for i, j, outs in terms))
        want = {}
        for i, j, outs in terms:
            for k, c in outs:
                want[k] = want.get(k, 0) + to_poly(values[i]) * to_poly(values[j]) * c
        assert set(got) == set(want)
        for k, p in want.items():
            assert normal(got[k]) == from_poly(sympy.rem(p, mod), n)
        assert got["c"] == zero and (got["c"].nums, got["c"].den) == ((0,) * phi, 1)
        assert sum_products(n, 5, []) == {}
        with pytest.raises(InputError):
            common_den(n, {0: Cyclotomic.one(2 * n + 1)})
