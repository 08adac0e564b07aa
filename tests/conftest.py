from fractions import Fraction

import pytest

from fbr.abelian import parse_fiber_spec
from fbr.cyclo import Cyclotomic
from fbr.perm import parse_group_spec
from fbr.ring import FiberedBurnsideRing, RingElement, build_ring


@pytest.fixture(scope="session")
def ring_factory():
    """Shared ring sessions so expensive lattices build once per run."""
    cache = {}

    def get(group_spec, fiber_spec):
        key = (group_spec, fiber_spec)
        if key not in cache:
            cache[key] = build_ring(group_spec, fiber_spec)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def kernel_rings(ring_factory):
    """Rings at phi(level) = 1 and > 1 for checks of the sum kernel: S3/2
    (level 2), C4/4 (level 4), S3/6 (level 6) and S3/2 at level 12."""
    return [ring_factory("S3", "2"), ring_factory("C4", "4"), ring_factory("S3", "6"),
            FiberedBurnsideRing(parse_group_spec("S3"), parse_fiber_spec("2"), level=12)]


@pytest.fixture(scope="session")
def random_element():
    """random_element(ring, rng, size): an element on up to size random
    basis orbits, with random coefficients that are not rational (for
    phi(level) > 1) over mixed denominators."""
    def make(ring, rng, size):
        phi = len(Cyclotomic.one(ring.level).nums)
        return RingElement(ring, {
            rng.randrange(ring.rank): Cyclotomic(ring.level, [
                Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
                for _ in range(phi)])
            for _ in range(size)})

    return make
