"""Matrix representations of tangle words on mixed tensor space.

A boundary of oriented points carries the tensor space with one factor per
point: an n-dimensional space for a DOWN point and its dual for an UP point.
Basis vectors are labeled by tuples over 1..n.  A tangle word acts slice by
slice; each slice only touches one or two adjacent factors, so its matrix is
a local block embedded with identities on both sides.

Matrices are sparse maps (row label tuple, column label tuple) -> Laurent
polynomial.  Rows are indexed by the top boundary, columns by the bottom,
and stacking words multiplies matrices in the same top-to-bottom order.

One renderer multiplies the slices of words, at q = q0 or symbolically:
the fold of ``specialized_word_matrices``, keyed by label codes.  The code
of a label is its index in ``label_tuples`` order, the label read as a
base-n numeral with digits value - 1, the first point the most significant
(``label_code``).  Only ``matrix_of_word`` decodes codes to label tuples.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from typing import Optional, Union

from .laurent import ExactRational, ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from .skein import TangleElement
from .tangle import (
    DOWN,
    UP,
    Connector,
    Cross,
    Hand,
    Max,
    Orientation,
    Sweep,
    TangleWord,
    _fold_words,
    apply_slice,
    canonical_basis_word,
    strand_graph,
)

MultiIndex = tuple[int, ...]


def label_tuples(n: int, width: int) -> Iterator[MultiIndex]:
    """All label tuples over 1..n of the given width, in lexicographic order."""
    return itertools.product(range(1, n + 1), repeat=width)


def label_code(n: int, label: MultiIndex) -> int:
    """The index of a label in ``label_tuples(n, len(label))``: the label as
    a base-n numeral with digits value - 1, the first point the most
    significant.

    >>> label_code(3, (1, 2, 1)), list(label_tuples(3, 3)).index((1, 2, 1))
    (3, 3)
    """
    code = 0
    for value in label:
        code = code * n + value - 1
    return code


def label_weight(n: int, boundary: Sequence[Orientation], label: MultiIndex) -> tuple[int, ...]:
    """The weight of a label on an oriented boundary: for each value 1..n,
    the DOWN points carrying it minus the UP points carrying it.

    q^h acts on the label's basis vector by q^(h . weight), so K_i by
    q^(weight_i - weight_(i+1)); the weight itself does not depend on q.

    >>> label_weight(3, (DOWN, UP, DOWN), (1, 2, 1))
    (2, -1, 0)
    """
    weight = [0] * n
    for orientation, value in zip(boundary, label):
        weight[value - 1] += 1 if orientation is DOWN else -1
    return tuple(weight)


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
            coeff = coeff if isinstance(coeff, LaurentPoly) else ZERO + coeff  # an int, or TypeError
            acc[key] = acc[key] + coeff if key in acc else coeff
        self.entries = {k: v for k, v in acc.items() if not v.is_zero()}

    @classmethod
    def identity(cls, n: int, boundary: Iterable[Orientation]) -> OperatorMatrix:
        boundary = tuple(boundary)
        return cls(n, boundary, boundary, {(idx, idx): ONE for idx in label_tuples(n, len(boundary))})

    def entry(self, row: MultiIndex, col: MultiIndex) -> LaurentPoly:
        return self.entries.get((row, col), ZERO)

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

    def evaluate(self, q0: ExactRational) -> tuple[dict[tuple[MultiIndex, MultiIndex], int], int]:
        """The matrix at q = q0 = a/b as integers over one denominator: the
        nonzero entries times den, and den = a^(-lo) * b^hi for the exponent
        range [lo, hi] widened to contain 0.  den may be negative, never 0.

        >>> from fractions import Fraction
        >>> OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (2,)): Q + QINV}).evaluate(Fraction(-5, 3))
        ({((1,), (2,)): 34}, -15)
        """
        if q0 == 0:
            raise ValueError("cannot specialize q to 0: negative exponents occur")
        exps = [e for v in self.entries.values() for e, _ in v.terms] + [0]
        lo, hi = min(exps), max(exps)
        a, b = q0.numerator, q0.denominator
        values = {key: sum(c * a ** (e - lo) * b ** (hi - e) for e, c in v.terms) for key, v in self.entries.items()}
        return {key: value for key, value in values.items() if value}, a ** -lo * b ** hi

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


def local_block(n: int, level: tuple[Orientation, ...], slc) -> OperatorMatrix:
    """The block of a slice on the points it touches: a crossing or a valley
    on its two points of ``level``, a peak from none to the two it makes."""
    if isinstance(slc, Max):
        top: tuple[Orientation, ...] = ()
        local = _local_max(n, slc.sweep)
    else:
        top = level[slc.pos - 1 : slc.pos + 1]
        local = _local_cross(n, top, slc.hand) if isinstance(slc, Cross) else _local_min(n, top)
    return OperatorMatrix(n, top, apply_slice(top, dataclasses.replace(slc, pos=1)), local)


def specialized_word_matrices(
    words: Sequence[TangleWord], n: int, q0: Optional[ExactRational], start: Optional[Container[int]] = None
) -> list[tuple[dict, int]]:
    """Matrices of the words at q = q0, in input order: one (rows, scale)
    pair per word, the matrix being {row: {col: entry}} / scale.  All words
    share one top boundary.  Rows and columns are label codes
    (``label_code``), on the top and the bottom boundary.  At q0 = None the
    entries are the Laurent polynomials themselves and the scale is 1.

    Each distinct (level, slice) pair is specialized once: its
    ``local_block`` by ``evaluate``, to integers over one denominator, then
    tensored with identities, which nothing else in src does.  On codes
    that is arithmetic: with ``left`` points before the block, ``right``
    after it and ``k`` points on its side, the labels pre, local and post
    meet in the code pre * n^(k + right) + local * n^right + post.  The
    block holds every value the slice matrix holds, so the denominator is
    the slice matrix's.  The words are multiplied along their shared slice
    prefixes by ``tangle._fold_words``.  Exact, because specializing q is a
    ring homomorphism.

    Given ``start``, a set of top-label codes, the walk starts from the
    identity restricted to those labels, so only those rows are rendered:
    the output is the full output with every other row left out, and costs
    in proportion to the rows kept.
    """
    factors: dict[tuple, tuple[list, int]] = {}  # (level, slice) -> (the (col, value) pairs of each row, denominator)
    zero, one = (ZERO, ONE) if q0 is None else (0, 1)

    def factor(level: tuple[Orientation, ...], slc) -> tuple[list, int]:
        block = local_block(n, level, slc)
        values, den = (block.entries, 1) if q0 is None else block.evaluate(q0)
        left = slc.pos - 1
        right = len(level) - left - len(block.row_type)
        tail = n**right
        row_place, col_place = n ** (len(block.row_type) + right), n ** (len(block.col_type) + right)
        local = [(label_code(n, lrow) * tail, label_code(n, lcol) * tail, v) for (lrow, lcol), v in values.items()]
        by_row: list[list[tuple[int, int]]] = [[] for _ in range(n ** len(level))]
        for pre in range(n**left):
            for lrow, lcol, v in local:
                for post in range(tail):
                    by_row[pre * row_place + lrow + post].append((pre * col_place + lcol + post, v))
        return by_row, den

    def step(value: tuple[dict, int], level: tuple[Orientation, ...], slc) -> tuple[dict, int]:
        product, scale = value
        if (level, slc) not in factors:
            factors[level, slc] = factor(level, slc)
        by_row, den = factors[level, slc]
        below = {}
        for i, row in product.items():
            acc: dict[int, int] = {}
            for j, u in row.items():
                for k, v in by_row[j]:
                    acc[k] = acc.get(k, zero) + u * v
            if not all(acc.values()):  # entries rarely cancel, so a row is rebuilt only when one did
                acc = {k: v for k, v in acc.items() if v}
            if acc:
                below[i] = acc
        return below, scale * den

    width = len(words[0].ty.top) if words else 0
    identity = {code: {code: one} for code in range(n**width) if start is None or code in start}
    return _fold_words(words, (identity, 1), step)


def matrix_of_word(word: TangleWord, n: int) -> OperatorMatrix:
    """Matrix of a tangle word: the product of its slice matrices from the
    top down, by the fold with q symbolic."""
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    ((rows, _),) = specialized_word_matrices([word], n, None)
    top, bottom = (list(label_tuples(n, len(side))) for side in (word.ty.top, word.ty.bottom))
    entries = {(top[i], bottom[j]): v for i, row in rows.items() for j, v in row.items()}
    return OperatorMatrix(n, word.ty.top, word.ty.bottom, entries)


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
        else:
            entries[(idx, swapped)] = ONE
            if a > b:
                entries[(idx, idx)] = QINV - Q
    return OperatorMatrix(n, boundary, boundary, entries)
