"""Whole-word descent references for normal forms and connector matrices.

``normalize_by_descent`` runs the skein descent on a whole word at the
default ranks and evaluates the descending words it ends in.  It never
splits the word into slices, so it is independent of ``skein.normalize``
(a fold over the connector basis, one memoized slice step at a time),
which the tests compare against it.

``matrix_by_descent`` works per labeling of the strand starts: the
canonical diagram of a connector is rewritten by the skein relations so
that passes with smaller labels run over, and each descending word then
contributes to the one matrix entry its strand pairing selects.  This never multiplies slice
matrices, so it is independent of ``rep.matrix_of_connector`` (the slice
product of the canonical word), which the tests compare against it.
``procedure_value`` reads a single entry of a word that is already
descending, without any rewriting.
"""

from __future__ import annotations

from walled_tangles.laurent import ONE, Q, QINV, ZERO, LaurentPoly
from walled_tangles.rep import (
    MultiIndex,
    OperatorMatrix,
    _descending_deposit,
    _horizontal_factor,
    label_tuples,
)
from walled_tangles.skein import TangleElement, _descend, _descending_value
from walled_tangles.tangle import Connector, Hand, TangleWord, canonical_basis_word, start_vertices, strand_graph


def normalize_by_descent(word: TangleWord, n: int) -> TangleElement:
    """Normal form of a word by descent on the whole word: every descending
    word it ends in contributes its connector, scaled by its loop and kink
    value."""
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    ranks = tuple(range(len(start_vertices(word.ty))))
    acc: dict[Connector, LaurentPoly] = {}
    for coeff, base in _descend(word, ranks):
        connector, extra = _descending_value(base, n)
        acc[connector] = acc.get(connector, ZERO) + coeff * extra
    return TangleElement(word.ty, n, acc)


def matrix_by_descent(connector: Connector, n: int) -> OperatorMatrix:
    """Matrix of a basis connector.  Per labeling of the strand starts, the
    crossing-minimal diagram is rewritten so that passes with smaller labels
    run over (ties broken by start position); each descending term then
    contributes to the one entry its own strand pairing selects."""
    ty = connector.ty
    word = canonical_basis_word(connector)
    count = len(connector.edges)
    entries: dict[tuple[MultiIndex, MultiIndex], LaurentPoly] = {}
    for labeling in label_tuples(n, count):
        order = sorted(range(count), key=lambda i: (labeling[i], i))
        ranks = [0] * count
        for position, i in enumerate(order):
            ranks[i] = position
        for coeff, base in _descend(word, tuple(ranks)):
            key, value = _descending_deposit(base, labeling, n)
            total = entries.get(key, ZERO) + coeff * value
            entries[key] = total
    return OperatorMatrix(n, ty.top, ty.bottom, entries)


def _boundary_label(row: MultiIndex, col: MultiIndex, vertex) -> int:
    side, pos = vertex
    return row[pos - 1] if side == "T" else col[pos - 1]


def procedure_value(word: TangleWord, row: MultiIndex, col: MultiIndex, n: int) -> LaurentPoly:
    """Matrix entry of a word that is already in descending position for the
    given labels, computed without any rewriting.

    The word must be loop-free and kink-free with every strand pair crossing
    at most once.  Strands whose endpoint labels differ give zero.  At every
    crossing of differently labeled strands the smaller label must run over;
    crossings of equally labeled strands contribute q^(sign) and must admit
    a consistent over-to-under order.
    """
    ty = word.ty
    if len(row) != len(ty.top) or len(col) != len(ty.bottom):
        raise ValueError("label tuples do not match the boundary")
    for label in row + col:
        if not 1 <= label <= n:
            raise ValueError(f"label {label} out of range 1..{n}")
    g = strand_graph(word)
    if g.loops:
        raise ValueError("word contains a closed loop")
    seen_pairs = set()
    for x in g.crossings:
        if x.is_self_crossing():
            raise ValueError("word contains a kink")
        pair = frozenset((x.component_a, x.component_b))
        if pair in seen_pairs:
            raise ValueError("two strands cross more than once")
        seen_pairs.add(pair)
    labels = []
    for i in range(len(g.starts)):
        start_label = _boundary_label(row, col, g.starts[i])
        if start_label != _boundary_label(row, col, g.ends[i]):
            return ZERO
        labels.append(start_label)
    value = ONE
    ties: dict[int, set[int]] = {}
    for x in g.crossings:
        over, under = x.component_a, x.component_b
        if x.hand is Hand.FIRST_UNDER:
            over, under = under, over
        if labels[over] > labels[under]:
            raise ValueError("not descending: a larger label passes over a smaller one")
        if labels[over] == labels[under]:
            ties.setdefault(over, set()).add(under)
            value = value * (Q if x.sign > 0 else QINV)
    state: dict[int, int] = {}

    def has_cycle(node: int) -> bool:
        state[node] = 1
        for succ in ties.get(node, ()):
            mark = state.get(succ, 0)
            if mark == 1 or (mark == 0 and has_cycle(succ)):
                return True
        state[node] = 2
        return False

    for node in list(ties):
        if state.get(node, 0) == 0 and has_cycle(node):
            raise ValueError("same-label strands cross in a cycle; no over-order exists")
    for i, (sv, ev) in enumerate(g.connector.edges):
        value = value * _horizontal_factor(sv, ev, labels[i], n)
    return value
