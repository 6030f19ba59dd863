"""Reference for the commutant's weight blocks: the Cartan eigenvalue classes.

Renders every Cartan unit K(i) on all labels of a boundary, specializes it
at q0, checks that it is diagonal, and groups the labels by their
eigenvalues.  ``walled_tangles.duality`` blocks by the label weights
instead, with no unit rendered.  Away from q0 = +-1 the two groupings are
equal, and the tests compare them; at q0 = +-1 eigenvalues of different
weights coincide, and the tests check that every weight space lies inside
one eigenvalue class.
The units come from the recursive coproduct of ``coproduct_oracle``, so
the comparison rests on neither ``rep.label_weight`` nor the closed-form
action of ``walled_tangles.qgroup``.
"""

from __future__ import annotations

from fractions import Fraction

from coproduct_oracle import gen_on_mixed
from walled_tangles.qgroup import K
from walled_tangles.rep import MultiIndex, label_tuples


def rendered_unit_classes(n: int, boundary, q0: Fraction) -> list[list[MultiIndex]]:
    """The labels grouped by their eigenvalues under every K(i), classes in
    the order of their first label and each in label order.

    One denominator per unit scales a whole signature entry alike, so the
    classes do not depend on it.

    >>> from walled_tangles.tangle import DOWN, UP
    >>> rendered_unit_classes(2, (DOWN, UP), Fraction(1))
    [[(1, 1), (1, 2), (2, 1), (2, 2)]]
    >>> rendered_unit_classes(2, (DOWN, UP), Fraction(2))
    [[(1, 1), (2, 2)], [(1, 2)], [(2, 1)]]
    """
    labels = list(label_tuples(n, len(boundary)))
    signature: dict[MultiIndex, tuple] = {label: () for label in labels}
    for i in range(1, n):
        action, _ = gen_on_mixed(K(i), boundary, n).evaluate(q0)
        if any(row != col for row, col in action):
            raise AssertionError(f"K({i}) does not act diagonally on the labels")
        for label in labels:
            signature[label] += (action.get((label, label), 0),)
    classes: dict[tuple, list[MultiIndex]] = {}
    for label in labels:
        classes.setdefault(signature[label], []).append(label)
    return list(classes.values())
