"""Entry-by-entry reference for ``OperatorMatrix.evaluate``.

Specializes one Laurent polynomial at a time to an exact rational, with no
shared denominator, so the integer form of ``evaluate`` can be checked
against it value by value.
"""

from __future__ import annotations

from fractions import Fraction

from walled_tangles.laurent import LaurentPoly


def lp_eval(poly: LaurentPoly, q0) -> Fraction:
    """Specialize q to a nonzero exact rational.

    >>> from walled_tangles.laurent import ZERO
    >>> lp_eval(LaurentPoly({-1: 1, 1: 1}), Fraction(2))
    Fraction(5, 2)
    >>> lp_eval(ZERO, Fraction(5, 3))
    Fraction(0, 1)
    """
    q0 = Fraction(q0)
    if q0 == 0:
        raise ValueError("cannot specialize q to 0: negative exponents occur")
    return sum((Fraction(c) * q0 ** e for e, c in poly.terms), Fraction(0))
