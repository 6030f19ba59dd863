"""Matrix representations of tangle words on mixed tensor space.

A boundary of oriented points carries the tensor space with one factor per
point: an n-dimensional space for a DOWN point and its dual for an UP point.
Basis vectors are labeled by tuples over 1..n.  A tangle word acts slice by
slice; each slice only touches one or two adjacent factors, so its matrix is
a local block embedded with identities on both sides.

Matrices are sparse maps (row label tuple, column label tuple) -> Laurent
polynomial.  Rows are indexed by the top boundary, columns by the bottom,
and stacking words multiplies matrices in the same top-to-bottom order.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .laurent import ExactRational, ONE, Q, QINV, ZERO, LaurentPoly, lp_eval, quantum_int
from .skein import TangleElement
from .tangle import (
    DOWN,
    UP,
    Connector,
    Cross,
    Hand,
    Max,
    Min,
    Orientation,
    Sweep,
    TangleType,
    TangleWord,
    apply_slice,
    canonical_basis_word,
    strand_graph,
)

MultiIndex = tuple[int, ...]


def label_tuples(n: int, width: int) -> Iterator[MultiIndex]:
    """All label tuples over 1..n of the given width, in lexicographic order."""
    return itertools.product(range(1, n + 1), repeat=width)


@dataclasses.dataclass(init=False, eq=True)
class OperatorMatrix:
    """A sparse exact matrix between two labeled tensor spaces.

    >>> m = OperatorMatrix.identity(2, (DOWN,))
    >>> m.entry((1,), (1,))
    LaurentPoly('1*q^0')
    >>> m.entry((1,), (2,))
    LaurentPoly('0')
    """

    n: int
    row_type: tuple[Orientation, ...]
    col_type: tuple[Orientation, ...]
    entries: dict[tuple[MultiIndex, MultiIndex], LaurentPoly]

    def __init__(
        self,
        n: int,
        row_type: Iterable[Orientation],
        col_type: Iterable[Orientation],
        entries: Union[Mapping, Iterable] = (),
    ):
        if n < 1:
            raise ValueError(f"label count n must be at least 1, got {n}")
        self.n = n
        self.row_type = tuple(row_type)
        self.col_type = tuple(col_type)
        acc: dict[tuple[MultiIndex, MultiIndex], LaurentPoly] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for key, coeff in items:
            row, col = key
            if len(row) != len(self.row_type) or len(col) != len(self.col_type):
                raise ValueError(f"entry {key} does not match the matrix shape")
            acc[key] = acc.get(key, ZERO) + coeff
        self.entries = {k: v for k, v in acc.items() if not v.is_zero()}

    @classmethod
    def identity(cls, n: int, boundary: Iterable[Orientation]) -> OperatorMatrix:
        boundary = tuple(boundary)
        return cls(n, boundary, boundary, {(idx, idx): ONE for idx in label_tuples(n, len(boundary))})

    def entry(self, row: MultiIndex, col: MultiIndex) -> LaurentPoly:
        return self.entries.get((row, col), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        if (self.n, self.row_type, self.col_type) != (other.n, other.row_type, other.col_type):
            raise ValueError("matrix shapes differ")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, ZERO) + v
        return OperatorMatrix(self.n, self.row_type, self.col_type, acc)

    def __neg__(self) -> OperatorMatrix:
        return self.scaled(-1)

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        return self + (-other)

    def scaled(self, factor: Union[LaurentPoly, int]) -> OperatorMatrix:
        return OperatorMatrix(self.n, self.row_type, self.col_type, {k: v * factor for k, v in self.entries.items()})

    def __mul__(self, factor: Union[LaurentPoly, int]) -> OperatorMatrix:
        return self.scaled(factor)

    __rmul__ = __mul__

    def matmul(self, other: OperatorMatrix) -> OperatorMatrix:
        """Standard matrix product; in diagram terms self acts first, with
        other applied below it."""
        if self.n != other.n:
            raise ValueError("matrices live over different label counts")
        if self.col_type != other.row_type:
            raise ValueError("inner boundaries differ")
        by_row: dict[MultiIndex, list[tuple[MultiIndex, LaurentPoly]]] = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        acc: dict[tuple[MultiIndex, MultiIndex], LaurentPoly] = {}
        for (i, j), u in self.entries.items():
            for k, v in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, ZERO) + u * v
        return OperatorMatrix(self.n, self.row_type, other.col_type, acc)

    def kron(self, other: OperatorMatrix) -> OperatorMatrix:
        """Tensor product: label tuples concatenate."""
        if self.n != other.n:
            raise ValueError("matrices live over different label counts")
        acc = {}
        for (i1, j1), u in self.entries.items():
            for (i2, j2), v in other.entries.items():
                acc[(i1 + i2, j1 + j2)] = u * v
        return OperatorMatrix(self.n, self.row_type + other.row_type, self.col_type + other.col_type, acc)

    def transpose(self) -> OperatorMatrix:
        return OperatorMatrix(
            self.n, self.col_type, self.row_type, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def commutator(self, other: OperatorMatrix) -> OperatorMatrix:
        return self.matmul(other) - other.matmul(self)

    def evaluate(self, q0: ExactRational) -> dict[tuple[MultiIndex, MultiIndex], ExactRational]:
        out = {}
        for key, v in self.entries.items():
            value = lp_eval(v, q0)
            if value:
                out[key] = value
        return out

    def to_json(self) -> dict:
        ordered = sorted(self.entries.items())
        return {
            "n": self.n,
            "rows": "".join(o.value for o in self.row_type),
            "cols": "".join(o.value for o in self.col_type),
            "entries": [
                {"row": list(r), "col": list(c), "coeff": v.to_json()} for (r, c), v in ordered
            ],
        }


def render_matrix(mat: OperatorMatrix) -> str:
    """Readable text form: a dense grid when both sides have at most 16
    basis vectors, otherwise one line per nonzero entry."""

    def fmt(idx: MultiIndex) -> str:
        return "(" + ",".join(map(str, idx)) + ")"

    rows = list(label_tuples(mat.n, len(mat.row_type)))
    cols = list(label_tuples(mat.n, len(mat.col_type)))
    if len(rows) <= 16 and len(cols) <= 16:
        cells = [[""] + [fmt(c) for c in cols]]
        for r in rows:
            cells.append([fmt(r)] + [str(mat.entry(r, c)) for c in cols])
        widths = [max(len(line[k]) for line in cells) for k in range(len(cols) + 1)]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in cells)
    lines = [f"{fmt(r)} -> {fmt(c)}: {v}" for (r, c), v in sorted(mat.entries.items())]
    return "\n".join(lines) if lines else "0"


# -- slice matrices -----------------------------------------------------------


def _local_cross(n: int, entry: tuple[Orientation, Orientation], hand: Hand) -> dict:
    """Action of a crossing on its two tensor factors.  Off-diagonal swaps
    are always weight 1; the rest depends on the four orientation patterns."""
    first_over = hand is Hand.FIRST_OVER
    local: dict[tuple[MultiIndex, MultiIndex], LaurentPoly] = {}
    for a, b in label_tuples(n, 2):
        if a != b:
            local[((a, b), (b, a))] = ONE
    if entry == (DOWN, DOWN) or entry == (UP, UP):
        diag = QINV if first_over else Q
        corr = (QINV - Q) if first_over else (Q - QINV)
        # The correction lands where the pass that comes first runs over if
        # its label is the smaller (DOWN) or larger (UP) of the two.
        if entry == (DOWN, DOWN):
            keep = (lambda a, b: a > b) if first_over else (lambda a, b: a < b)
        else:
            keep = (lambda a, b: a < b) if first_over else (lambda a, b: a > b)
        for a in range(1, n + 1):
            local[((a, a), (a, a))] = diag
            for b in range(1, n + 1):
                if a != b and keep(a, b):
                    local[((a, b), (a, b))] = corr
    elif entry == (DOWN, UP):
        diag = Q if first_over else QINV
        corr = (Q - QINV) if first_over else (QINV - Q)
        for x in range(1, n + 1):
            local[((x, x), (x, x))] = diag
            for k in range(1, n + 1):
                if (x > k) if first_over else (x < k):
                    local[((x, x), (k, k))] = corr * LaurentPoly.monomial(1, 2 * (x - k))
    elif entry == (UP, DOWN):
        diag = Q if first_over else QINV
        corr = (Q - QINV) if first_over else (QINV - Q)
        for x in range(1, n + 1):
            local[((x, x), (x, x))] = diag
            for k in range(1, n + 1):
                if (x < k) if first_over else (x > k):
                    local[((x, x), (k, k))] = corr
    else:  # pragma: no cover - entry patterns are exhaustive
        raise AssertionError(entry)
    return local


def _local_min(n: int, entry: tuple[Orientation, Orientation]) -> dict:
    local = {}
    for a in range(1, n + 1):
        weight = LaurentPoly.monomial(1, 2 * a - n - 1) if entry == (DOWN, UP) else ONE
        local[((a, a), ())] = weight
    return local


def _local_max(n: int, sweep: Sweep) -> dict:
    local = {}
    for a in range(1, n + 1):
        weight = LaurentPoly.monomial(1, -2 * a + n + 1) if sweep is Sweep.LEFT_TO_RIGHT else ONE
        local[((), (a, a))] = weight
    return local


def slice_matrix(n: int, level: tuple[Orientation, ...], slc) -> OperatorMatrix:
    """Matrix of one slice acting between its two levels."""
    below = apply_slice(level, slc)
    if isinstance(slc, Cross):
        local = _local_cross(n, (level[slc.pos - 1], level[slc.pos]), slc.hand)
        left = slc.pos - 1
    elif isinstance(slc, Min):
        local = _local_min(n, (level[slc.pos - 1], level[slc.pos]))
        left = slc.pos - 1
    elif isinstance(slc, Max):
        local = _local_max(n, slc.sweep)
        left = slc.pos - 1
    else:
        raise TypeError(f"not a slice: {slc!r}")
    right = len(level) - left - (2 if not isinstance(slc, Max) else 0)
    entries = {}
    for pre in label_tuples(n, left):
        for post in label_tuples(n, right):
            for (lrow, lcol), v in local.items():
                entries[(pre + lrow + post, pre + lcol + post)] = v
    return OperatorMatrix(n, level, below, entries)


def matrix_of_word(word: TangleWord, n: int) -> OperatorMatrix:
    """Matrix of a tangle word: the product of its slice matrices from the
    top down."""
    mat = OperatorMatrix.identity(n, word.ty.top)
    for level, slc in zip(word.levels, word.slices):
        mat = mat.matmul(slice_matrix(n, level, slc))
    return mat


def specialized_word_matrices(words: Sequence[TangleWord], n: int, q0: ExactRational) -> list[dict]:
    """Matrices of the words at q = q0: one exact {(row, col): Fraction} map
    per word, in input order.

    Each distinct (level, slice) pair is specialized once, as integers over
    a common denominator, and the words are multiplied depth-first along the
    trie of their slice prefixes, so a shared prefix is multiplied once and
    only the products on the current path are held.  Exact, because
    specializing q is a ring homomorphism.
    """
    paths = [tuple(zip(word.levels, word.slices)) for word in words]
    factors: dict[tuple, tuple[dict, int]] = {}  # (level, slice) -> (rows, denominator)
    out: list = [None] * len(paths)

    def descend(members: list[int], depth: int, product: dict, scale: int) -> None:
        children: dict[tuple, list[int]] = {}
        for w in members:
            if len(paths[w]) == depth:
                out[w] = {(i, k): Fraction(v, scale) for i, row in product.items() for k, v in row.items()}
            else:
                children.setdefault(paths[w][depth], []).append(w)
        for step, group in children.items():
            if step not in factors:
                values = slice_matrix(n, *step).evaluate(q0)
                den = math.lcm(*(v.denominator for v in values.values()))
                by_row: dict[MultiIndex, dict[MultiIndex, int]] = {}
                for (row, col), v in values.items():
                    by_row.setdefault(row, {})[col] = v.numerator * (den // v.denominator)
                factors[step] = (by_row, den)
            by_row, den = factors[step]
            below = {}
            for i, row in product.items():
                acc: dict[MultiIndex, int] = {}
                for j, u in row.items():
                    for k, v in by_row.get(j, {}).items():
                        acc[k] = acc.get(k, 0) + u * v
                if acc := {k: v for k, v in acc.items() if v}:
                    below[i] = acc
            descend(group, depth + 1, below, scale * den)

    for top in dict.fromkeys(word.ty.top for word in words):
        identity = {idx: {idx: 1} for idx in label_tuples(n, len(top))}
        descend([w for w, word in enumerate(words) if word.ty.top == top], 0, identity, 1)
    return out


# -- connector and element matrices -------------------------------------------


def matrix_of_connector(connector: Connector, n: int) -> OperatorMatrix:
    """Matrix of a basis connector: the slice product of its canonical
    word."""
    return matrix_of_word(canonical_basis_word(connector), n)


def matrix_of_element(element: TangleElement) -> OperatorMatrix:
    mat = OperatorMatrix(element.n, element.ty.top, element.ty.bottom)
    for connector, coeff in element.terms:
        mat = mat + matrix_of_connector(connector, element.n).scaled(coeff)
    return mat


# -- entries of descending words (the label-descent oracle in tests/) ---------
# Kept in src because the benchmark's rep.deposit.hit_ratio reads this memo.


def _horizontal_factor(start, end, label: int, n: int) -> LaurentPoly:
    (side_s, pos_s), (side_e, pos_e) = start, end
    if side_s == "T" and side_e == "T" and pos_s < pos_e:
        return LaurentPoly.monomial(1, 2 * label - n - 1)
    if side_s == "B" and side_e == "B" and pos_s < pos_e:
        return LaurentPoly.monomial(1, -2 * label + n + 1)
    return ONE


@functools.cache
def _descending_deposit(
    word: TangleWord, start_labels: tuple[int, ...], n: int
) -> tuple[tuple[MultiIndex, MultiIndex], LaurentPoly]:
    """Entry location and value contributed by one descending word when its
    strand starts carry the given labels (in canonical start order).

    Every strand carries its start label along its whole length, which pins
    the one boundary pattern the word contributes to.  Kinks give
    q^(n * sign), loops the quantum integer of n times q^(n * writhe),
    crossings of two equally labeled strands q^(sign), and horizontal
    strands pick up the wall weights."""
    g = strand_graph(word)
    ty = word.ty
    label_of = dict(zip(g.starts, start_labels))
    row = [0] * len(ty.top)
    col = [0] * len(ty.bottom)
    for i in range(len(g.starts)):
        label = label_of[g.starts[i]]
        for side, pos in (g.starts[i], g.ends[i]):
            (row if side == "T" else col)[pos - 1] = label
    exponent = n * sum(g.strand_writhes)
    value = LaurentPoly.monomial(1, exponent)
    for loop in g.loops:
        value = value * quantum_int(n) * LaurentPoly.monomial(1, n * loop.writhe)
    n_strands = len(g.starts)
    net = 0
    for x in g.crossings:
        ca, cb = x.component_a, x.component_b
        if ca < n_strands and cb < n_strands and ca != cb:
            la, lb = label_of[g.starts[ca]], label_of[g.starts[cb]]
            if la == lb:
                net += x.sign
    value = value * LaurentPoly.monomial(1, net)
    for i, (sv, ev) in enumerate(g.connector.edges):
        value = value * _horizontal_factor(sv, ev, label_of[g.starts[i]], n)
    return (tuple(row), tuple(col)), value


# -- distinguished operators --------------------------------------------------


def psi_matrix(n: int) -> OperatorMatrix:
    """The invertible operator that moves a dual factor past an ordinary one;
    it is the matrix of the two-point crossing whose left strand comes from
    below and runs under."""
    return matrix_of_word(TangleWord(TangleType((UP, DOWN), (DOWN, UP)), [Cross(1, Hand.FIRST_UNDER)]), n)


def psi_prime_matrix(n: int) -> OperatorMatrix:
    """Row rescaling of :func:`psi_matrix` by q^(n + 1 - 2i) in the first
    row label i; also invertible, with entries in the image of the wall
    weights."""
    base = psi_matrix(n)
    entries = {
        (r, c): v * LaurentPoly.monomial(1, n + 1 - 2 * r[0]) for (r, c), v in base.entries.items()
    }
    return OperatorMatrix(n, base.row_type, base.col_type, entries)


def hecke_action_matrix(m: int, k: int, n: int) -> OperatorMatrix:
    """Action of the k-th braid generator on m ordinary factors, written
    directly from the basis formula: equal adjacent labels scale by q^-1,
    increasing pairs swap, decreasing pairs swap and shed (q^-1 - q) times
    the unswapped vector."""
    if not 1 <= k <= m - 1:
        raise ValueError(f"generator index {k} out of range 1..{m - 1}")
    boundary = (DOWN,) * m
    entries: dict[tuple[MultiIndex, MultiIndex], LaurentPoly] = {}
    for idx in label_tuples(n, m):
        a, b = idx[k - 1], idx[k]
        swapped = idx[: k - 1] + (b, a) + idx[k + 1 :]
        if a == b:
            entries[(idx, idx)] = QINV
        elif a < b:
            entries[(idx, swapped)] = ONE
        else:
            entries[(idx, swapped)] = ONE
            entries[(idx, idx)] = QINV - Q
    return OperatorMatrix(n, boundary, boundary, entries)
