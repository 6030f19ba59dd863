"""Integral quantum-group generators acting on mixed tensor space.

Generators are the weight units q^h, the divided powers of the raising and
lowering operators, and the Cartan units K_i.  Only single generators are
ever exposed as operators: a matrix commutes with an algebra exactly when it
commutes with a generating set, so commutant computations never need
products.  Divided powers are primitive data; no coefficient outside the
integer Laurent ring ever appears.

Actions.  A boundary of m points carries one factor V per DOWN point and one
dual factor V* per UP point, with basis vectors e_a and e*_a for a in 1..n.
A generator acts through the iterated comultiplication, with the antipode
and a transpose on every dual factor.  ``gen_on_mixed`` evaluates that
action in closed form, one label tuple at a time:

* q^h is diagonal: its exponent sums h[label] over the factors, with + on a
  DOWN factor and - on an UP one, as the antipode inverts q^h.  That is the
  pairing of h with the label's weight, ``rep.label_weight``.  K_i^(+-1)
  is q^h with h = +-1 at i and -+1 at i + 1.
* E_i^(l) sums over the l-subsets S of the factors.  Each chosen factor
  takes one step: e_(i+1) -> e_i with coefficient 1 on V, and
  e*_i -> e*_(i+1) with -q^-1 on V* (the transpose of S(E_i) = -E_i K_i).
  Every factor t then gets K_i^-|S meet [1, t)| on its output label, and
  the term carries q^(l(l-1)/2).
* F_i^(l) is the mirror image: e_i -> e_(i+1) on V, e*_(i+1) -> e*_i with
  -q on V* (S(F_i) = -K_i^-1 F_i), K_i^|S meet (t, m]| on each input
  label, and q^(-l(l-1)/2).

Level 0 gives the identity and a level above m gives zero.  This is the
iterated coproduct: split the factors anywhere and apply
Delta(E^(l)) = sum_k q^(k(l-k)) E^(l-k) (x) K^(k-l) E^(k) (Lusztig,
Introduction to Quantum Groups, 1993).  Divided powers of level two or
more vanish on a single factor, so one term per l-subset S survives all
the splits: each chosen factor takes E once and leaves K^-1 on every
factor to its right.  A split's scalar q^(k(l-k)) counts the pairs of
chosen factors it separates, and every pair is separated by exactly one
split, so the scalars multiply to q^(l(l-1)/2).  F^(l), with
Delta(F^(l)) = sum_k q^(-k(l-k)) F^(l-k) K^k (x) F^(k), is the mirror
image.  ``tests/coproduct_oracle.py`` keeps the recursion as a reference.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Union

from .laurent import LaurentPoly
from .rep import OperatorMatrix, label_tuples, label_weight
from .tangle import DOWN, UP, Orientation


@dataclasses.dataclass(frozen=True)
class E:
    """Divided power of the i-th raising generator."""

    i: int
    l: int = 1


@dataclasses.dataclass(frozen=True)
class F:
    """Divided power of the i-th lowering generator."""

    i: int
    l: int = 1


@dataclasses.dataclass(frozen=True)
class K:
    """The i-th Cartan unit or its inverse."""

    i: int
    sign: int = 1


@dataclasses.dataclass(frozen=True)
class QH:
    """The weight unit q^h for an integer weight vector h."""

    weight: tuple[int, ...]

    def __init__(self, weight):
        object.__setattr__(self, "weight", tuple(weight))


UGenerator = Union[E, F, K, QH]


def _validate(gen: UGenerator, n: int) -> None:
    if isinstance(gen, (E, F)):
        if not 1 <= gen.i <= n - 1:
            raise ValueError(f"generator index {gen.i} out of range 1..{n - 1}")
        if gen.l < 0:
            raise ValueError(f"divided power level must be nonnegative, got {gen.l}")
    elif isinstance(gen, K):
        if not 1 <= gen.i <= n - 1:
            raise ValueError(f"generator index {gen.i} out of range 1..{n - 1}")
        if gen.sign not in (1, -1):
            raise ValueError(f"Cartan unit sign must be +1 or -1, got {gen.sign}")
    elif isinstance(gen, QH):
        if len(gen.weight) != n:
            raise ValueError(f"weight vector length {len(gen.weight)} does not match n={n}")
    else:
        raise TypeError(f"not a generator: {gen!r}")


def _alpha_weight(i: int, n: int, multiple: int = 1) -> QH:
    """q^h equal to the multiple-th power of K_i."""
    weight = [0] * n
    weight[i - 1] = multiple
    weight[i] = -multiple
    return QH(weight)


def word_matrix(gens, boundary: tuple[Orientation, ...], n: int) -> OperatorMatrix:
    """Matrix of a product of generators: the rightmost factor acts first."""
    out = OperatorMatrix.identity(n, boundary)
    for gen in reversed(tuple(gens)):
        out = out.matmul(gen_on_mixed(gen, boundary, n))
    return out


def gen_on_mixed(gen: UGenerator, boundary, n: int) -> OperatorMatrix:
    """Matrix of a generator on the tensor space of an oriented boundary,
    rows indexing inputs, by the closed form of the module docstring.

    >>> gen_on_mixed(E(1), (DOWN,), 2).entries
    {((2,), (1,)): LaurentPoly('1*q^0')}
    >>> gen_on_mixed(E(1), (UP,), 2).entries
    {((1,), (2,)): LaurentPoly('-1*q^-1')}
    >>> gen_on_mixed(K(1), (UP,), 2).entry((1,), (1,))
    LaurentPoly('1*q^-1')
    >>> v22 = gen_on_mixed(E(1), (DOWN, DOWN), 2).entries
    >>> v22[((2, 2), (1, 2))], v22[((2, 2), (2, 1))]
    (LaurentPoly('1*q^1'), LaurentPoly('1*q^0'))
    """
    boundary = tuple(boundary)
    _validate(gen, n)
    m = len(boundary)
    signs = [-1 if o is UP else 1 for o in boundary]
    if isinstance(gen, K):
        gen = _alpha_weight(gen.i, n, gen.sign)
    if isinstance(gen, QH):
        diagonal = {}
        for labels in label_tuples(n, m):
            exponent = sum(h * w for h, w in zip(gen.weight, label_weight(n, boundary, labels)))
            diagonal[(labels, labels)] = LaurentPoly.monomial(1, exponent)
        return OperatorMatrix(n, boundary, boundary, diagonal)
    i, l = gen.i, gen.l
    raising = isinstance(gen, E)
    # E steps a DOWN label i+1 -> i and an UP label i -> i+1; F the reverse.
    rising = [(sign < 0) == raising for sign in signs]
    source = [i if up else i + 1 for up in rising]
    target = [i + 1 if up else i for up in rising]
    # F's scalars are E's with q inverted.
    mirror = 1 if raising else -1
    alpha = _alpha_weight(i, n).weight
    entries = {}
    for labels in label_tuples(n, m):
        movable = [t for t, a in enumerate(labels) if a == source[t]]
        for chosen in itertools.combinations(movable, l):
            out = list(labels)
            for t in chosen:
                out[t] = target[t]
            duals = sum(signs[t] < 0 for t in chosen)
            exponent = mirror * (l * (l - 1) // 2 - duals)
            passed = 0
            for t in range(m):
                if raising:
                    exponent -= passed * signs[t] * alpha[out[t] - 1]
                passed += t in chosen
                if not raising:
                    exponent += (l - passed) * signs[t] * alpha[labels[t] - 1]
            entries[(labels, tuple(out))] = LaurentPoly.monomial((-1) ** duals, exponent)
    return OperatorMatrix(n, boundary, boundary, entries)
