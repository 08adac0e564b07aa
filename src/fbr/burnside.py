"""Independent table-of-marks oracle for the Burnside ring.

Marks are computed by direct fixed-point counting on coset spaces, with
no reference to the double coset machinery, so products recovered here
certify the ring's structure constants on trivial-fiber pairs.
"""

from __future__ import annotations

from .errors import InvariantViolationError


def mark(lattice, row_class, col_class):
    """Number of cosets of K fixed by H on G/K, for class representatives.

    Equals #{g : g^-1 H g <= K} / |K|; nonzero exactly when H is
    subconjugate to K.
    """
    group = lattice.group
    h = lattice.subgroups[lattice.classes[row_class].rep]
    k = lattice.subgroups[lattice.classes[col_class].rep]
    count = 0
    for g in range(group.order):
        ginv = group.inverse[g]
        if all(group.conj(ginv, x) in k.elems for x in h.gens):
            count += 1
    if count % k.order != 0:
        raise InvariantViolationError("mark count is not divisible by |K|")
    return count // k.order


def marks_row(lattice, row_class):
    return [mark(lattice, row_class, c.index) for c in lattice.classes]


def table_of_marks(lattice):
    """Rows and columns indexed by subgroup classes in lattice order."""
    return [marks_row(lattice, c.index) for c in lattice.classes]


def product_via_marks(lattice, class_a, class_b, marks):
    """Coefficients of [G/A][G/B] over transitive sets, solved from the
    table of marks (table_of_marks(lattice)).

    The mark vector of the product is the pointwise product of the mark
    vectors; the marks matrix is triangular with respect to subgroup
    order, so back substitution from the largest class down recovers
    integer coefficients.
    """
    m = len(lattice.classes)
    target = [marks[l][class_a] * marks[l][class_b] for l in range(m)]
    coeffs = {}
    for l in range(m - 1, -1, -1):
        acc = target[l]
        for mm, c in coeffs.items():
            acc -= c * marks[l][mm]
        if acc == 0:
            continue
        diag = marks[l][l]
        if acc % diag != 0:
            raise InvariantViolationError("marks back substitution not integral")
        coeffs[l] = acc // diag
    return coeffs
