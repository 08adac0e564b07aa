"""Finite permutation groups with full subgroup-lattice machinery.

Group elements are permutations of {0, ..., degree-1} stored as image
tuples.  A group keeps its elements in sorted tuple order and addresses
them by index, so the identity is always element 0 and element identity
is index equality.  Everything built here is immutable after
construction and safe to share.
"""

from __future__ import annotations

import re
from itertools import compress
from math import lcm
from operator import getitem, itemgetter
from typing import NamedTuple

from .arith import is_prime, p_part
from .errors import InputError, InvariantViolationError, ResourceLimitError

DEFAULT_ORDER_CAP = 10000

# Above this order the n x n multiplication table is skipped and products
# are recomputed from image tuples.
_MUL_TABLE_LIMIT = 2048


# ---------------------------------------------------------------------------
# raw permutation helpers


def identity_perm(degree):
    return tuple(range(degree))


def compose(a, b):
    """Product a*b with (a*b)(x) = a(b(x))."""
    return tuple(a[i] for i in b)


def invert(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def perm_cycles(p):
    """Cycle decomposition with fixed points omitted.

    Each cycle starts at its least point and cycles are listed by their
    least point, which makes the decomposition canonical.
    """
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return tuple(out)


def perm_order(p):
    cycles = perm_cycles(p)
    if not cycles:
        return 1
    return lcm(*(len(c) for c in cycles))


def cycle_string(p):
    """Render as 1-based disjoint cycles, identity as '()'."""
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_cycles(degree, text):
    """Parse a 1-based cycle expression like '(1 2 3)(4 5)' into a permutation.

    Raises InputError with the offending position on malformed input.
    """
    images = list(range(degree))
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise InputError(f"expected '(' at position {i} in {text!r}")
        i += 1
        points = []
        while True:
            while i < n and (text[i].isspace() or text[i] == ","):
                i += 1
            if i >= n:
                raise InputError(f"unclosed cycle at position {i} in {text!r}")
            if text[i] == ")":
                i += 1
                break
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise InputError(f"expected point at position {i} in {text!r}")
            pt = int(text[i:j])
            if not 1 <= pt <= degree:
                raise InputError(f"point {pt} out of range 1..{degree} at position {i}")
            points.append(pt - 1)
            i = j
        if len(set(points)) != len(points):
            raise InputError(f"repeated point in cycle {points} in {text!r}")
        for k, pt in enumerate(points):
            if images[pt] != pt:
                raise InputError(f"point {pt + 1} appears in two cycles in {text!r}")
            images[pt] = points[(k + 1) % len(points)]
    perm = tuple(images)
    if sorted(perm) != list(range(degree)):
        raise InputError(f"not a permutation of 1..{degree}: {text!r}")
    return perm


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """A finite permutation group given by its full sorted element list."""

    def __init__(self, degree, elements):
        self.degree = degree
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if identity_perm(degree) not in self.index:
            raise InvariantViolationError("identity missing from element list")
        # identity is the lex-least permutation, hence index 0
        self.identity = self.index[identity_perm(degree)]
        if self.identity != 0:
            raise InvariantViolationError("identity is not element 0")
        self.inverse = tuple(self.index[invert(e)] for e in self.elements)
        self.element_orders = tuple(perm_order(e) for e in self.elements)
        # rows[a][b] is a*b, read from the table or formed from image tuples;
        # a product outside the elements is a KeyError
        if self.order <= _MUL_TABLE_LIMIT:
            self.rows = _mul_table(self.elements, self.index)
        else:
            self.rows = [_ProductRow(x, self.elements, self.index)
                         for x in self.elements]

    @classmethod
    def from_generators(cls, degree, generators):
        if degree < 1:
            raise InputError("degree must be at least 1")
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise InputError(f"invalid permutation of degree {degree}: {g}")
            gens.append(g)
        ident = identity_perm(degree)
        # x*g is x read at the images of g; the identity is dropped, since
        # itemgetter of one index gives an item, not a tuple
        steps = [itemgetter(*g) for g in gens if g != ident]
        known, frontier = {ident}, {ident}
        while frontier:
            frontier = {step(x) for x in frontier for step in steps} - known
            known |= frontier
            if len(known) > DEFAULT_ORDER_CAP:
                raise ResourceLimitError(
                    f"group order exceeds cap {DEFAULT_ORDER_CAP}"
                )
        return cls(degree, known)

    @classmethod
    def from_elements(cls, degree, elements):
        """Wrap an element set known to be closed (subgroups, quotients).

        Raises InvariantViolationError when the set is not a group.
        """
        # The table looks up g*b for every b and each g whose row it forms
        # from image tuples, and these g reach every element, so the set
        # is closed if no lookup fails.  Without a table, the closure of
        # greedy generators looks up x*g for every x and each of them.
        try:
            group = cls(degree, elements)
            if group.order > _MUL_TABLE_LIMIT:
                _greedy_gens(group, range(group.order))
        except KeyError:
            raise InvariantViolationError("element set is not closed") from None
        return group

    def mul(self, a, b):
        return self.rows[a][b]

    def conj(self, g, x):
        """Index of g x g^-1."""
        rows = self.rows
        return rows[rows[g][x]][self.inverse[g]]

    def closure(self, seed):
        """Subgroup generated by the given element indices, as a frozenset."""
        known = {self.identity}
        frontier = [self.identity]
        seed = tuple(seed)
        rows = self.rows
        while frontier:
            nxt = []
            for x in frontier:
                xrow = rows[x]
                for g in seed:
                    y = xrow[g]
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(known)

    def conj_set(self, g, elems):
        rows, grow, ginv = self.rows, self.rows[g], self.inverse[g]
        return frozenset(rows[grow[x]][ginv] for x in elems)

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class _ProductRow:
    """Row x of a group too large for a table: [b] forms x*b from the
    image tuples when it is read, and no product is stored."""

    __slots__ = ("x", "elements", "index")

    def __init__(self, x, elements, index):
        self.x, self.elements, self.index = x, elements, index

    def __getitem__(self, b):
        return self.index[tuple(map(self.x.__getitem__, self.elements[b]))]


def _mul_table(elements, index):
    """Multiplication table of a group of image tuples: rows[a][b] = a*b.

    Row a is left multiplication by a, so rows[x*g] is rows[x] read at
    rows[g], one C-level itemgetter call.  Elements are scanned in index
    order and a row is formed from image tuples only for an element that
    no product of the rows known so far reaches."""
    n = len(elements)
    rows = [tuple(range(n))] + [None] * (n - 1)
    known = [0]
    steps = []
    for a, e in enumerate(elements):
        if rows[a] is None:
            rows[a] = tuple(index[tuple(map(e.__getitem__, b))] for b in elements)
            steps.append((a, itemgetter(*rows[a])))
            known.append(a)
            for x in known:  # known grows during the loop
                for g, step in steps:
                    y = rows[x][g]
                    if rows[y] is None:
                        rows[y] = step(rows[x])
                        known.append(y)
    return rows


def double_coset_reps(group, h_elems, k_elems):
    """Representatives g hitting every double coset HgK exactly once.

    Elements are scanned in index order, so the representative of each
    coset is its least element and the output is canonical.
    """
    covered = bytearray(group.order)
    reps = []
    h_sorted = sorted(h_elems)
    k_sorted = sorted(k_elems)
    rows = group.rows
    for g in range(group.order):
        if covered[g]:
            continue
        reps.append(g)
        for h in h_sorted:
            hgrow = rows[rows[h][g]]
            for k in k_sorted:
                covered[hgrow[k]] = 1
    return tuple(reps)


# ---------------------------------------------------------------------------
# subgroup lattice


class Subgroup(NamedTuple):
    id: int
    elems: frozenset
    sorted_elems: tuple
    order: int
    gens: tuple


class SubgroupClass(NamedTuple):
    index: int
    rep: int
    members: tuple


class _SubgroupIds(dict):
    """Subgroup id by element set.  A set that is no subgroup of the
    lattice is an InvariantViolationError, not a KeyError: a lattice
    built on stored sets that miss a subgroup fails this way."""

    def __missing__(self, elems):
        raise InvariantViolationError(f"a subgroup of order {len(elems)} is not in the lattice")


class SubgroupLattice:
    """All subgroups of a group with conjugacy, normalizers and Moebius data.

    Subgroups are sorted by (order, element tuple), so ids are canonical
    and the class representative (least id in its class) carries the
    lexicographically least element set.
    """

    def __init__(self, group, sets=None):
        """Lattice of all subgroups, enumerated, or from sets: the element
        index sets of every subgroup, in any order, as an earlier build
        found them.  Classes, witnesses and normalizers are always
        computed here."""
        if sets is None:
            sets = _enumerate_subgroup_sets(group)
        self.group = group
        self.subgroups = []
        ordered = sorted({frozenset(fs) for fs in sets},
                         key=lambda fs: (len(fs), tuple(sorted(fs))))
        for i, fs in enumerate(ordered):
            selems = tuple(sorted(fs))
            self.subgroups.append(
                Subgroup(i, fs, selems, len(fs), _greedy_gens(group, selems))
            )
        self.by_set = _SubgroupIds((s.elems, s.id) for s in self.subgroups)
        self._build_classes()
        self._mobius_rows = {}
        self._derived = {}
        self._op_residual = {}
        self._dcosets = {}

    # -- construction ------------------------------------------------------

    def _build_classes(self):
        """Classes, to_rep (the inverse of the least g taking the class
        representative S to each member) and normalizers, N(^g S) = ^g N(S)."""
        group = self.group
        m = len(self.subgroups)
        self.class_index = [None] * m
        self.to_rep = [None] * m
        self.normalizer_ids = [None] * m
        self.classes = []
        for s in self.subgroups:
            if self.class_index[s.id] is not None:
                continue
            norm, conjugates = _conjugates(group, s.elems, s.gens)
            cidx = len(self.classes)
            members = []
            for g, fs in conjugates:
                t = self.by_set[fs]
                self.class_index[t] = cidx
                # ^g S = T, so ^(g^-1) T = S = class rep
                self.to_rep[t] = group.inverse[g]
                self.normalizer_ids[t] = self.by_set[group.conj_set(g, norm)]
                members.append(t)
            self.classes.append(SubgroupClass(cidx, s.id, tuple(sorted(members))))

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.subgroups)

    def conj_subgroup_id(self, g, sid):
        return self.by_set[self.group.conj_set(g, self.subgroups[sid].sorted_elems)]

    def class_rep(self, sid):
        return self.classes[self.class_index[sid]].rep

    def normalizer(self, sid):
        return self.subgroups[self.normalizer_ids[sid]]

    def full_group_id(self):
        return len(self.subgroups) - 1

    def trivial_id(self):
        return 0

    # -- double cosets -----------------------------------------------------

    def double_coset_reps(self, hid, kid):
        """(reps, meets), memoized per (H, K): the least element g of each
        double coset HgK, ascending, and the id of H meet ^gK for each."""
        key = (hid, kid)
        val = self._dcosets.get(key)
        if val is None:
            h = self.subgroups[hid]
            k = self.subgroups[kid].sorted_elems
            reps = double_coset_reps(self.group, h.sorted_elems, k)
            conj_set, by_set = self.group.conj_set, self.by_set
            val = self._dcosets[key] = (
                reps, tuple(by_set[h.elems & conj_set(g, k)] for g in reps))
        return val

    # -- Moebius function ----------------------------------------------------

    def mobius_row(self, hid):
        """{K: mu(K, H)} for every subgroup K of H, memoized per H.

        Filled top-down when first read: a subgroup of H never has a
        larger id, so one scan by decreasing id meets every L with
        K < L <= H before K, and mu(K, H) is minus the sum of the
        nonzero mu(L, H) over those L.  A subgroup lies in L when its
        generators do."""
        row = self._mobius_rows.get(hid)
        if row is None:
            h = self.subgroups[hid]
            row = {hid: 1}
            nonzero = [(h.elems, 1)]
            for k in reversed(self.subgroups[:hid]):
                if h.elems.issuperset(k.gens):
                    mu = -sum(m for lelems, m in nonzero if lelems.issuperset(k.gens))
                    row[k.id] = mu
                    if mu:
                        nonzero.append((k.elems, mu))
            self._mobius_rows[hid] = row
        return row

    def mobius(self, kid, hid):
        """Moebius value mu(K, H) of the subgroup poset interval [K, H]."""
        row = self.mobius_row(hid)
        if kid not in row:
            raise InputError("mobius requires K <= H")
        return row[kid]

    # -- derived series and residuals ----------------------------------------

    def derived_id(self, hid):
        """The commutator subgroup H', as the normal closure in H of the
        commutators [x, y] = x^-1 y^-1 x y of the generators of H.

        A conjugate of a generator by a generator of H that falls outside
        the subgroup generated so far joins the generators; a finite
        subgroup whose generators stay inside under conjugation by the
        generators of H is normal in H."""
        val = self._derived.get(hid)
        if val is None:
            group = self.group
            mul, inv = group.mul, group.inverse
            hgens = self.subgroups[hid].gens
            gens = sorted({mul(mul(inv[x], inv[y]), mul(x, y))
                           for x in hgens for y in hgens})
            current = group.closure(gens)
            for s in gens:  # gens grows during the loop
                for h in hgens:
                    c = group.conj(h, s)
                    if c not in current:
                        gens.append(c)
                        current = group.closure(gens)
            val = self.by_set[current]
            self._derived[hid] = val
        return val

    def derived_series(self, hid):
        series = [hid]
        while True:
            nxt = self.derived_id(series[-1])
            if nxt == series[-1]:
                return series
            series.append(nxt)

    def perfect_residual_id(self, hid):
        """Last term of the derived series: the smallest normal subgroup
        with solvable quotient."""
        return self.derived_series(hid)[-1]

    def o_p_residual_id(self, hid, p):
        """Subgroup generated by the elements of order coprime to p."""
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if self.subgroups[hid].order % p != 0:
            return hid  # every element of H has order prime to p
        key = (hid, p)
        val = self._op_residual.get(key)
        if val is None:
            group = self.group
            seed = [x for x in self.subgroups[hid].sorted_elems
                    if group.element_orders[x] % p != 0]
            val = self.by_set[group.closure(seed)]
            self._op_residual[key] = val
        return val

    def perfect_class_reps(self):
        """Class representatives of the perfect subgroups, ascending."""
        return tuple(
            c.rep for c in self.classes if self.derived_id(c.rep) == c.rep
        )


def _greedy_gens(group, sorted_elems):
    """Canonical small generating set: scan elements ascending, keep the
    ones that enlarge the generated subgroup."""
    target = len(sorted_elems)
    gens = []
    current = {group.identity}
    for x in sorted_elems:
        if x in current:
            continue
        gens.append(x)
        current = group.closure(gens)
        if len(current) == target:
            break
    return tuple(gens)


def _conjugates(group, elems, gens):
    """(N(S), [(g, ^gS), ...]) for the subgroup S with element set elems
    and generators gens: one pair per member of the class of S.

    N(S) is found by conjugating the generators of S only, each by every
    candidate g at once: g x g^-1 is row g x of the table read at g^-1.
    The g with ^g S = T form one left coset g N(S), whose least element
    the coset scan of double_coset_reps picks."""
    rows, inverse = group.rows, group.inverse
    norm = list(range(group.order))
    for x in gens:
        gx = map(itemgetter(x), map(rows.__getitem__, norm))
        conj = map(getitem, map(rows.__getitem__, gx), map(inverse.__getitem__, norm))
        norm = list(compress(norm, map(elems.__contains__, conj)))
    return norm, [(g, group.conj_set(g, elems))
                  for g in double_coset_reps(group, (group.identity,), norm)]


def _enumerate_subgroup_sets(group):
    """Every subgroup as a frozenset of element indices.

    The collection starts from the trivial subgroup and is closed under
    joins with cyclic subgroups.  Every subgroup is the join of the
    cyclic subgroups of its elements, and any join can be built one
    cyclic factor at a time, so the fixpoint is the full lattice.  The
    layering reaches nonsolvable subgroups too, which extension by
    normal prime steps alone cannot.

    A new subgroup brings in its whole conjugacy class, and only that
    representative is joined with every cyclic subgroup, since
    join(^g S, C) = ^g join(S, ^(g^-1) C).
    """
    known = set()
    queue = []  # (class representative, its generators)

    def add_class(fs, gens):
        if fs not in known:
            known.update(t for _, t in _conjugates(group, fs, gens)[1])
            queue.append((fs, gens))

    cyclic = {}
    for g in range(1, group.order):
        cyclic.setdefault(group.closure((g,)), g)
    add_class(frozenset({group.identity}), ())
    for s, sgens in queue:  # the queue grows during the loop
        for cfs, cgen in cyclic.items():
            if not cfs <= s:
                add_class(group.closure(sgens + (cgen,)), sgens + (cgen,))
    return known


# ---------------------------------------------------------------------------
# quotients and Sylow subgroups


def coset_quotient(elems, sub, mul, identity):
    """The quotient of a group on elems by a normal subgroup sub, each
    coset named by its least element.

    Returns (coset key of each element, sorted keys, product of keys,
    key of the identity, order of a key in the quotient).
    """
    coset_key = {}
    for x in elems:
        if x not in coset_key:
            coset = [mul(x, s) for s in sub]
            key = min(coset)
            for y in coset:
                coset_key[y] = key
    ident = coset_key[identity]

    def q_mul(a, b):
        return coset_key[mul(a, b)]

    def q_order(x):
        o = 1
        cur = x
        while cur != ident:
            cur = q_mul(cur, x)
            o += 1
        return o

    return coset_key, sorted(set(coset_key.values())), q_mul, ident, q_order


def quotient_group(group, n_elems, k_elems):
    """Quotient N/K as a permutation group on the left cosets of K in N.

    Requires K normal in N; the action on cosets is then faithful for
    the quotient.  The points of Q are the cosets in the order of their
    least elements.  Returns (Q, onto) where onto maps an element index
    of N to its image index in Q.
    """
    n_sorted = sorted(n_elems)
    _, keys, q_mul, _, _ = coset_quotient(n_sorted, sorted(k_elems),
                                          group.mul, group.identity)
    point = {key: i for i, key in enumerate(keys)}
    perms = {}
    for x in n_sorted:
        perm = tuple(point[q_mul(x, r)] for r in keys)
        perms.setdefault(perm, []).append(x)
    quotient = FiniteGroup.from_elements(len(keys), perms)
    if quotient.order * len(k_elems) != len(n_sorted):
        raise InvariantViolationError("quotient construction requires K normal in N")
    onto = {x: quotient.index[perm] for perm, xs in perms.items() for x in xs}
    return quotient, onto


def sylow_subgroup(group, p, n_elems=None, k_elems=None):
    """Preimage in N of a Sylow p-subgroup of N/K, as a frozenset of indices.

    K must be normal in N; the defaults N = G and K = 1 give a Sylow
    p-subgroup of the whole group.  Deterministic: starts at K and adds
    the least p-element of N that normalizes the current subgroup and
    lies outside it, until the order is |K| times the p-part of |N : K|.
    Only the ambient multiplication is used; no quotient group is built.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    scan = sorted(range(group.order) if n_elems is None else n_elems)
    current = frozenset(k_elems or {group.identity})
    target = len(current) * p_part(len(scan) // len(current), p)
    # Each p-element coset gK holds the p-part of g, a p-element of N, so
    # the p-elements of N are enough.
    candidates = [g for g in scan
                  if p_part(group.element_orders[g], p) == group.element_orders[g]]
    while len(current) < target:
        g = next((g for g in candidates if g not in current
                  and group.conj_set(g, current) == current), None)
        if g is None:
            raise InvariantViolationError("Sylow growth stalled")
        current = group.closure(sorted(current) + [g])
    return current


# ---------------------------------------------------------------------------
# named groups and the group spec grammar


_NAMED_RE = re.compile(r"^([CSDA])(\d+)$")


def _named_generators(kind, n):
    """Degree and generators of C<n>, S<n>, A<n> or D<n> (order 2n)."""
    if kind == "D" and n < 3:
        raise InputError("D<n> requires n >= 3")
    if n < 1:
        raise InputError(f"{kind}<n> requires n >= 1")
    if n == 1 or (kind == "A" and n == 2):
        return n, []
    cyc = tuple(range(1, n)) + (0,)
    if kind == "C":
        return n, [cyc]
    if kind == "S":
        return n, [(1, 0) + tuple(range(2, n)), cyc]
    if kind == "A":
        # the 3-cycles (i i+1 i+2)
        return n, [tuple(range(i)) + (i + 1, i + 2, i) + tuple(range(i + 3, n))
                   for i in range(n - 2)]
    return n, [cyc, tuple((n - i) % n for i in range(n))]


def parse_group_spec(spec):
    """Build a group from the input grammar.

    Named entries: C<n>, D<n>, S<n>, A<n>, Q8, V4.  Explicit permutation
    groups: perm:<degree>:<cycles;cycles;...> with 1-based cycles like
    (1 2 3)(4 5).
    """
    spec = spec.strip()
    named = _NAMED_RE.match(spec)
    if spec == "Q8":
        # regular action of Q8 on itself, points 1,i,-1,-i,j,k,-j,-k
        degree, gens = 8, [parse_cycles(8, "(1 2 3 4)(5 6 7 8)"),
                           parse_cycles(8, "(1 5 3 7)(2 8 4 6)")]
    elif spec == "V4":
        degree, gens = 4, [(1, 0, 3, 2), (2, 3, 0, 1)]
    elif named:
        degree, gens = _named_generators(named.group(1), int(named.group(2)))
    elif spec.startswith("perm:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise InputError(f"expected perm:<degree>:<cycles;...>, got {spec!r}")
        try:
            degree = int(parts[1])
        except ValueError:
            raise InputError(f"bad degree {parts[1]!r} in {spec!r}") from None
        if degree < 1:
            raise InputError(f"degree must be positive in {spec!r}")
        gens = [parse_cycles(degree, chunk.strip())
                for chunk in parts[2].split(";")] if parts[2].strip() else []
    else:
        raise InputError(f"unrecognized group spec {spec!r}")
    return FiniteGroup.from_generators(degree, gens)
