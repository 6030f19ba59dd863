"""Exact Laurent polynomials in one variable q over the integers.

Every quantity in this package is either an integer Laurent polynomial or an
exact rational number obtained by specializing one.  Floating point never
appears: equality of coefficients is the correctness criterion everywhere, so
all arithmetic here is exact.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from typing import Union

from . import _record

#: Exact scalar type used when specializing q to a rational number.
ExactRational = Fraction


@_record(frozen=False)
class LaurentPoly:
    """An integer Laurent polynomial in q, stored as sorted (exponent, coeff)
    pairs with no zero coefficients.  Instances are immutable by convention
    and hashable, so they can key memo tables.

    >>> LaurentPoly({0: 1})
    LaurentPoly('1*q^0')
    >>> LaurentPoly({3: 1, -1: -1})
    LaurentPoly('-1*q^-1 + 1*q^3')
    >>> LaurentPoly({2: 1}) + LaurentPoly({2: -1})
    LaurentPoly('0')
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError(f"exponents and coefficients must be int, got ({exp!r}, {coeff!r})")
            acc[exp] = acc.get(exp, 0) + coeff
        (self.terms,) = self._key = (tuple(sorted((e, c) for e, c in acc.items() if c != 0)),)

    @classmethod
    def from_exponent_map(cls, coeffs: Mapping[int, int]) -> LaurentPoly:
        """The polynomial of an ``exponent -> coefficient`` map of ints, such as
        sums and products of other polynomials' terms: drops zeros and sorts.
        It skips ``__init__``'s per-entry type checks, which cost more than
        the arithmetic that built the map, so pass it nothing else.

        >>> LaurentPoly.from_exponent_map({2: 3, 0: 0, -1: 1})
        LaurentPoly('1*q^-1 + 3*q^2')
        """
        poly = object.__new__(cls)
        (poly.terms,) = poly._key = (tuple(sorted((e, c) for e, c in coeffs.items() if c)),)
        return poly

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        """The single-term polynomial coeff * q^exp.

        >>> LaurentPoly.monomial(-2, 5)
        LaurentPoly('-2*q^5')
        """
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Union[LaurentPoly, int]) -> LaurentPoly:
        """
        >>> Q + QINV + 3
        LaurentPoly('1*q^-1 + 3*q^0 + 1*q^1')
        """
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_exponent_map(acc)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly.from_exponent_map({e: -c for e, c in self.terms})

    def __sub__(self, other: Union[LaurentPoly, int]) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union[LaurentPoly, int]) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Union[LaurentPoly, int]) -> LaurentPoly:
        """
        >>> (Q - QINV) * (Q + QINV)
        LaurentPoly('-1*q^-2 + 1*q^2')
        >>> Q * 0
        LaurentPoly('0')
        """
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_exponent_map(acc)

    __rmul__ = __mul__

    # -- rendering and serialization -----------------------------------------

    def __str__(self) -> str:
        """Uniform sorted rendering, one `coeff*q^exp` block per term.

        >>> str(LaurentPoly({3: 1, -1: -1}))
        '-1*q^-1 + 1*q^3'
        >>> str(ZERO)
        '0'
        """
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*q^{e}" for e, c in self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def to_json(self) -> dict[str, str]:
        """JSON object mapping exponent strings to decimal coefficient strings.

        >>> LaurentPoly({-1: -1, 3: 1}).to_json()
        {'-1': '-1', '3': '1'}
        """
        return {str(e): str(c) for e, c in self.terms}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> LaurentPoly:
        """Inverse of :meth:`to_json`.

        >>> LaurentPoly.from_json({'-1': '-1', '3': '1'})
        LaurentPoly('-1*q^-1 + 1*q^3')
        """
        return cls({int(e): int(c) for e, c in data.items()})


def _coerce(value: Union[LaurentPoly, int]) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


#: Frequently used constants.
ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})
QINV = LaurentPoly({-1: 1})


def quantum_int(l: int) -> LaurentPoly:
    """The balanced quantum integer: the l-term sum of q^(2i - l + 1).

    >>> quantum_int(0)
    LaurentPoly('0')
    >>> quantum_int(1)
    LaurentPoly('1*q^0')
    >>> quantum_int(3)
    LaurentPoly('1*q^-2 + 1*q^0 + 1*q^2')
    """
    if l < 0:
        raise ValueError(f"quantum integer needs l >= 0, got {l}")
    return LaurentPoly({2 * i - l + 1: 1 for i in range(l)})


@functools.cache
def _quantum_binom_cached(l: int, k: int) -> LaurentPoly:
    if k == 0 or k == l:
        return ONE
    # Balanced q-Pascal recursion keeps everything in integer Laurent form,
    # with no division by quantum factorials.
    return (
        LaurentPoly.monomial(1, k) * _quantum_binom_cached(l - 1, k)
        + LaurentPoly.monomial(1, k - l) * _quantum_binom_cached(l - 1, k - 1)
    )


def quantum_binom(l: int, k: int) -> LaurentPoly:
    """The balanced quantum binomial coefficient, by the q-Pascal recursion.

    >>> quantum_binom(2, 1)
    LaurentPoly('1*q^-1 + 1*q^1')
    >>> quantum_binom(4, 2)
    LaurentPoly('1*q^-4 + 1*q^-2 + 2*q^0 + 1*q^2 + 1*q^4')
    >>> quantum_binom(2, 3)
    Traceback (most recent call last):
        ...
    ValueError: quantum binomial needs 0 <= k <= l, got l=2, k=3
    """
    if k < 0 or k > l:
        raise ValueError(f"quantum binomial needs 0 <= k <= l, got l={l}, k={k}")
    return _quantum_binom_cached(l, k)
