"""The fibered Burnside ring of a finite group in its monomial basis.

A basis element is the conjugation orbit of a monomial pair (H, phi)
with H a subgroup and phi a homomorphism from H into the fiber.  Orbits
are keyed canonically: the subgroup is the class representative of its
conjugacy class, and among the homomorphisms in the normalizer orbit
the one whose values at the representative's generators are
lexicographically least wins, and a pair is named by reading its
homomorphism at the representative's probes (HomGroup.index_at).
The generators are greedy over the sorted elements, so every element
lies in the subgroup generated by the generators before it, two
homomorphisms first differ at a generator, and this is the order of
the values over all the sorted elements.
Products follow the double coset formula and are memoized as integer
structure constants.
"""

from __future__ import annotations

from functools import partial
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from . import abelian, perm
from .abelian import HomGroup
from .cyclo import Cyclotomic, common_den, render_cyclotomic, sum_products
from .errors import InputError
from .perm import FiniteGroup, SubgroupLattice


class PairOrbit(NamedTuple):
    """Conjugation orbit [H, phi] with its canonical representative."""

    index: int
    subgroup_id: int
    hom_index: int
    class_index: int
    stabilizer_order: int
    orbit_size: int


class StandardBasis:
    def __init__(self, orbits, lookup):
        self.orbits = tuple(orbits)
        # lookup: class rep subgroup id -> {hom index: orbit index}
        self.lookup = lookup

    def __len__(self):
        return len(self.orbits)


class RingElement:
    """Finite coefficient vector over the monomial basis, no stored zeros.

    Elements are never changed after construction, so the coefficients
    over one common denominator are computed once, on first use.
    """

    __slots__ = ("ring", "coeffs", "_common")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        self._common = None

    def common(self):
        """(den, {basis index: numerators}): cyclo.common_den of the
        coefficients."""
        if self._common is None:
            self._common = common_den(self.ring.level, self.coeffs)
        return self._common

    def support(self):
        return sorted(self.coeffs)

    def __add__(self, other):
        if other.ring is not self.ring:
            raise InputError("elements from different rings")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return RingElement(self.ring, out)

    def __sub__(self, other):
        if other.ring is not self.ring:
            raise InputError("elements from different rings")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] - v if k in out else -v
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(self.ring.level, c)
        return RingElement(self.ring, {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.ring.multiply(self, other)
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def to_json(self):
        return {
            "basis": [self.ring.orbit_descriptor(k) for k in self.support()],
            "coeffs": {str(k): self.coeffs[k].to_json() for k in self.support()},
        }

    def render(self):
        """The terms as (c)*bk + ..., in basis order."""
        return " + ".join(f"({render_cyclotomic(self.coeffs[k])})*b{k}"
                          for k in self.support())

    def __repr__(self):
        return f"RingElement({self.render() or 0})"


def natural_level(group, fiber):
    """Exponent of the torsion of the fiber at the group exponent."""
    return gcd(fiber.exponent, lcm(*group.element_orders))


class FiberedBurnsideRing:
    """Session object for one (group, fiber) pair.

    Holds the subgroup lattice, the Hom groups, the standard basis and
    the memoized structure constants.  All data is effectively
    immutable once built; the memo tables only grow.  Values that other
    layers derive from the ring (dual orbits, species, idempotents,
    blocks) live in the one keyed memo behind memo().
    """

    def __init__(self, group, fiber, level=None, lattice=None):
        self.group = group
        self.fiber = fiber
        self.lattice = lattice if lattice is not None else SubgroupLattice(group)
        self.level = level if level is not None else natural_level(group, fiber)
        if self.level % natural_level(group, fiber) != 0:
            raise InputError("level must be a multiple of the natural level")
        self._hom_groups = {}
        self._actions = {}
        self._structure = {}
        self._readers = {}  # subgroup id -> what canonicalize_pair reads
        self._memo = {}
        self._build_basis()

    def memo(self, key, build):
        """The value of build() for this key, computed once per ring."""
        try:
            return self._memo[key]
        except KeyError:
            val = self._memo[key] = build()
            return val

    # -- hom groups and normalizer action -----------------------------------

    def hom_group(self, sid):
        hg = self._hom_groups.get(sid)
        if hg is None:
            sub = self.lattice.subgroups[sid]
            derived = self.lattice.subgroups[self.lattice.derived_id(sid)].elems
            hg = HomGroup(self.group, sub, derived, self.fiber)
            self._hom_groups[sid] = hg
        return hg

    def hom_action(self, rep_id):
        """For a class representative H: the permutation of Hom(H, A)
        induced by each generator g of N(H), g -> sigma_g with
        sigma_g[k] = index of ^g(phi_k), where ^g(phi)(y) = phi(g^-1 y g).
        Since ^(xg)phi = ^x(^g phi), sigma_(xg)[k] = sigma_x[sigma_g[k]]:
        the generators' permutations determine those of all of N(H)."""
        act = self._actions.get(rep_id)
        if act is None:
            group = self.group
            hg = self.hom_group(rep_id)
            act = self._actions[rep_id] = {
                g: hg.pullback(partial(group.conj, group.inverse[g]), hg)
                for g in self.lattice.normalizer(rep_id).gens}
        return act

    # -- basis construction --------------------------------------------------

    def _build_basis(self):
        def orbit_data(rep):
            hg = self.hom_group(rep)
            action = self.hom_action(rep)
            gens = self.lattice.subgroups[rep].gens
            return (range(hg.size), lambda n, k: action[n][k],
                    lambda k: [hg.value(k, g) for g in gens])

        self.basis = StandardBasis(*self.normalizer_orbits(PairOrbit, orbit_data))

    def normalizer_orbits(self, orbit_type, orbit_data):
        """Orbits of items over each class representative H under N(H).

        orbit_data(rep) gives (items, move, key): the items over H, the
        image move(g, x) of item x under a generator g of N(H), and the
        sort key (None for the items' own order) whose least orbit member
        is the orbit's canonical one.  An orbit is a walk from one item
        over the generators.  Returns the orbit_type records (index, rep,
        canonical item, class index, stabilizer order, orbit size) in
        canonical order, and the lookup rep -> {item: orbit index}.
        """
        group = self.group
        orbits = []
        lookup = {}
        for cls in self.lattice.classes:
            rep = cls.rep
            items, move, key = orbit_data(rep)
            norm = self.lattice.normalizer(rep)
            members = {}
            seen = set()
            for x in items:
                if x in seen:
                    continue
                orbit = [x]
                seen.add(x)
                for y in orbit:  # orbit grows during the loop
                    for g in norm.gens:
                        z = move(g, y)
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
                members[min(orbit, key=key)] = orbit
            here = lookup[rep] = {}
            for canon in sorted(members, key=key):
                stab = norm.order // len(members[canon])
                here.update(dict.fromkeys(members[canon], len(orbits)))
                orbits.append(orbit_type(len(orbits), rep, canon, cls.index,
                                         stab, group.order // stab))
        return orbits, lookup

    @property
    def rank(self):
        return len(self.basis)

    # -- canonicalization ----------------------------------------------------

    def canonicalize_pair(self, sid, value):
        """Canonical orbit of the pair (subgroup sid, the homomorphism
        taking value(x) at each x of sid, as in HomGroup.index_at), read
        at the probes of the class representative."""
        reader = self._readers.get(sid)
        if reader is None:
            # ^w S is the representative, where ^w phi(y) = phi(w^-1 y w):
            # its probe y is read at w^-1 y w in S
            lattice, group = self.lattice, self.group
            rep = lattice.class_rep(sid)
            hg = self.hom_group(rep)
            winv = group.inverse[lattice.to_rep[sid]]
            reader = self._readers[sid] = (
                self.basis.lookup[rep], hg.index_at,
                tuple(group.conj(winv, y) for y in hg.points))
        names, index_at, points = reader
        return names[index_at(map(value, points))]

    def pair_value(self, i):
        """The homomorphism of basis orbit i as a function on its subgroup
        (HomGroup.function: values congruent modulo the fiber)."""
        o = self.basis.orbits[i]
        return self.memo(("pair", i), lambda: self.hom_group(o.subgroup_id).function(o.hom_index))

    # -- multiplication ------------------------------------------------------

    def multiply_basis(self, i, j):
        """Product of two basis orbits as an integer coefficient dict."""
        oi, oj = self.basis.orbits[i], self.basis.orbits[j]
        phi, psi = self.pair_value(i), self.pair_value(j)
        conj, inverse = self.group.conj, self.group.inverse
        reps, meets = self.lattice.double_coset_reps(oi.subgroup_id, oj.subgroup_id)
        out = {}
        for g, sid in zip(reps, meets):
            # phi + ^g psi on the meet, where ^g psi(x) = psi(g^-1 x g),
            # as unreduced sums
            ginv = inverse[g]
            oidx = self.canonicalize_pair(sid, lambda x: tuple(
                map(add, phi(x), psi(conj(ginv, x)))))
            out[oidx] = out.get(oidx, 0) + 1
        return out

    def structure_constants(self, i, j):
        key = (i, j) if i <= j else (j, i)
        val = self._structure.get(key)
        if val is None:
            prod = self.multiply_basis(key[0], key[1])
            val = tuple(sorted(prod.items()))
            self._structure[key] = val
        return val

    def multiply(self, x, y):
        if x.ring is not self or y.ring is not self:
            raise InputError("elements from different rings")
        xden, xnums = x.common()
        yden, ynums = y.common()
        structure, sc = self._structure, self.structure_constants

        def terms():
            for i, a in xnums.items():
                for j, b in ynums.items():
                    c = structure.get((i, j) if i <= j else (j, i))
                    yield a, b, c if c is not None else sc(i, j)

        return RingElement(self, sum_products(self.level, xden * yden, terms()))

    # -- element constructors -------------------------------------------------

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return self.basis_element(self.trivial_pair_orbit(self.lattice.full_group_id()))

    def basis_element(self, i):
        if not 0 <= i < self.rank:
            raise InputError(f"basis index {i} out of range")
        return RingElement(self, {i: Cyclotomic.one(self.level)})

    def element_from_ints(self, coeffs):
        return RingElement(self, {
            k: Cyclotomic.from_rational(self.level, v) for k, v in coeffs.items()
        })

    # -- retraction and the Burnside ring embedding ---------------------------

    def pi_retraction(self, x):
        """Keep only the pairs whose subgroup is the whole group."""
        full = self.lattice.full_group_id()
        keep = {k: v for k, v in x.coeffs.items()
                if self.basis.orbits[k].subgroup_id == full}
        return RingElement(self, keep)

    def trivial_pair_orbit(self, class_rep_id):
        """Orbit index of [H, 1] for a class representative H: the trivial
        homomorphism has every digit 0, so index 0 in Hom(H, A)."""
        return self.basis.lookup[class_rep_id][0]

    def burnside_embed(self, marks_coeffs):
        """Embedding of the Burnside ring: class index -> [H, 1]."""
        out = {}
        for cidx, c in marks_coeffs.items():
            rep = self.lattice.classes[cidx].rep
            oidx = self.trivial_pair_orbit(rep)
            cy = Cyclotomic.from_rational(self.level, c)
            out[oidx] = out[oidx] + cy if oidx in out else cy
        return RingElement(self, out)

    def burnside_project(self, x):
        """Section onto the Burnside ring: [H, phi] -> [G/H]."""
        out = {}
        for k, v in x.coeffs.items():
            cidx = self.basis.orbits[k].class_index
            out[cidx] = out[cidx] + v if cidx in out else v
        return {k: v for k, v in out.items() if not v.is_zero()}

    # -- subrings over subgroups ----------------------------------------------

    def subring(self, sid):
        """The same construction over a subgroup, at the same level."""
        def build():
            sub = self.lattice.subgroups[sid]
            elems = [self.group.elements[x] for x in sub.sorted_elems]
            child = FiniteGroup.from_elements(self.group.degree, elems)
            return FiberedBurnsideRing(child, self.fiber, level=self.level)

        return self.memo(("subring", sid), build)

    # -- descriptors ------------------------------------------------------------

    def subgroup_descriptor(self, sid):
        sub = self.lattice.subgroups[sid]
        return {"order": sub.order, "class": self.lattice.class_index[sid],
                "generators": [perm.cycle_string(self.group.elements[g])
                               for g in sub.gens]}

    def orbit_descriptor(self, i):
        o = self.basis.orbits[i]
        gens = self.lattice.subgroups[o.subgroup_id].gens
        hg = self.hom_group(o.subgroup_id)
        return {
            "index": i,
            "subgroup": self.subgroup_descriptor(o.subgroup_id),
            "hom": {"images": [list(hg.value(o.hom_index, g)) for g in gens]},
            "stabilizer_order": o.stabilizer_order,
            "orbit_size": o.orbit_size,
        }


def build_ring(group_spec, fiber_spec):
    """Ring session from spec strings at the natural level; the usual
    entry point."""
    group = perm.parse_group_spec(group_spec)
    fiber = abelian.parse_fiber_spec(fiber_spec)
    return FiberedBurnsideRing(group, fiber)


# ---------------------------------------------------------------------------
# maps between rings over nested subgroups


def _terms_in(target, terms):
    """The element sum of c [U, phi] of the target ring over terms (c,
    elems, value): elems are the elements of U as permutation image
    tuples and value(e) is phi at the element e."""
    index, elements = target.group.index, target.group.elements
    out = {}
    for c, elems, value in terms:
        sid = target.lattice.by_set[frozenset(index[e] for e in elems)]
        oidx = target.canonicalize_pair(sid, lambda x: value(elements[x]))
        out[oidx] = out[oidx] + c if oidx in out else c
    return RingElement(target, out)


def induce(x, target):
    """Induction along an inclusion of groups: [U, phi] keeps its name."""
    for e in x.ring.group.elements:
        if e not in target.group.index:
            raise InputError("induction target does not contain the source group")
    return conjugate(x, perm.identity_perm(x.ring.group.degree), target)


def restrict(x, target):
    """Restriction along an inclusion, by the double coset formula: [U, phi]
    goes to the sum over K g U of [K meet ^gU, ^g phi restricted]."""
    src = x.ring
    for e in target.group.elements:
        if e not in src.group.index:
            raise InputError("restriction target is not a subgroup of the source")
    group, lattice = src.group, src.lattice
    kid = lattice.by_set[frozenset(group.index[e] for e in target.group.elements)]

    def terms():
        for i, c in x.coeffs.items():
            phi = src.pair_value(i)
            uid = src.basis.orbits[i].subgroup_id
            for g, meet in zip(*lattice.double_coset_reps(kid, uid)):
                ginv = group.inverse[g]
                yield (c, [group.elements[y] for y in lattice.subgroups[meet].sorted_elems],
                       lambda e: phi(group.conj(ginv, group.index[e])))

    return _terms_in(target, terms())


def conjugate(x, g_images, target):
    """Conjugation isomorphism onto the ring of the conjugate subgroup.

    g_images is the conjugating permutation of the ambient symmetric
    group, given by its image tuple.
    """
    src = x.ring
    g_inv = perm.invert(g_images)
    elements, index = src.group.elements, src.group.index

    def terms():
        for i, c in x.coeffs.items():
            phi = src.pair_value(i)
            u = src.lattice.subgroups[src.basis.orbits[i].subgroup_id]
            yield (c, [perm.compose(perm.compose(g_images, elements[y]), g_inv)
                       for y in u.sorted_elems],
                   lambda e: phi(index[perm.compose(perm.compose(g_inv, e), g_images)]))

    return _terms_in(target, terms())
