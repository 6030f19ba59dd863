"""Skein-normal forms of tangle words and the diagram algebra product.

The connectors of a type are a basis of its diagram algebra, so a word's
normal form is built one slice at a time: start from the identity connector
of the top boundary and, for each slice s, replace every term k * c by k
times the normal form of the canonical word of c followed by s.  That
one-slice step is memoized on (connector, slice, n); a word of any length
costs one dictionary pass per slice, with no deep recursion and no memo
keyed on a whole word.  The fold is exact because normalizing is an
algebra map from stacked words to the free module on connectors, and a
canonical word is descending, so it normalizes to its own connector.
Inside the fold and the descent a coefficient is a plain ``exponent -> int``
map, updated in place; the memoized descent and step, ``normalize``, the
connector products and ``structure_constants`` make each output
coefficient a LaurentPoly once, by ``from_exponent_map``, so neither runs
Laurent arithmetic.

Every step but one kind is read off the connector (see ``_step``).  The
canonical word is crossing-minimal, with the earlier start over at each
crossing, so below a slice only the crossings of strands whose start order
the slice changes can violate the descending order.  A peak adds a cup with
coefficient 1.  A crossing of two strands swaps their endpoints, adding
sign * (q - q^-1) times its smoothing unless the strand that starts earlier
below it runs over or, for two strand starts that already cross, it undoes
their crossing by a Reidemeister II move.  A crossing on a cup is a curl,
worth q^(n * sign), and a valley on a cup a free loop, worth [n].  A valley
that merges a strand A, which ends at it, into a strand B, which starts at
it, keeps A's start.  When no strand ranked between them crosses B, and A
starts earlier if they cross, the merged word is descending and their
crossing becomes a kink, worth q^(n * sign).

Only the other merging valleys are evaluated by the descent engine, which
repeatedly applies the crossing-switch relation: the difference between the
two hands of a crossing equals (q^-1 - q) times the oriented smoothing.
Strand starts carry a fixed priority; a crossing is a violation when the
strand pass that comes earlier (smaller priority, then earlier along its
own strand) runs under.  Switching the first violation and recursing
terminates in diagrams where every earlier pass runs over; those are
evaluated directly: each closed loop is worth the quantum integer of n
times q^(n * writhe), each kink on an open strand is worth q^(n * sign),
and what remains is the crossing-minimal diagram of its connector.  The
tests use the same engine on whole words as the reference for ``_step``.

Elements of the algebra are exact Laurent combinations of connectors; the
product of two connectors folds the slices of the second's canonical word
into the first, and ``structure_constants`` folds every first connector
down all the basis words in one walk of ``tangle._fold_words``.  The CLI
multiplies two words by one fold of their stack.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable, Mapping
from typing import Union

from .laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from .tangle import (
    DOWN,
    PEAK_SWEEP,
    UP,
    Connector,
    Cross,
    Hand,
    Max,
    Min,
    Slice,
    Sweep,
    TangleType,
    TangleWord,
    Vertex,
    _fold_words,
    algebra_type,
    all_down_type,
    apply_slice,
    canonical_basis_word,
    connector_of,
    crossing_sign,
    enumerate_connectors,
    render_type,
    shifted_slices,
    stack,
    start_vertices,
    strand_graph,
)


@dataclasses.dataclass(init=False, eq=True)
class TangleElement:
    """An exact linear combination of connectors of one type, at a fixed
    strand-label count n."""

    ty: TangleType
    n: int
    terms: tuple[tuple[Connector, LaurentPoly], ...]

    def __init__(
        self,
        ty: TangleType,
        n: int,
        terms: Union[Mapping[Connector, LaurentPoly], Iterable[tuple[Connector, LaurentPoly]]] = (),
    ):
        if n < 1:
            raise ValueError(f"label count n must be at least 1, got {n}")
        acc: dict[Connector, LaurentPoly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for connector, coeff in items:
            if connector.ty != ty:
                raise ValueError("all connectors of an element must share its type")
            coeff = coeff if isinstance(coeff, LaurentPoly) else ZERO + coeff  # an int, or TypeError
            acc[connector] = acc[connector] + coeff if connector in acc else coeff
        self.ty = ty
        self.n = n
        self.terms = tuple(sorted(((c, k) for c, k in acc.items() if not k.is_zero()), key=lambda t: t[0].edges))

    def _check_compatible(self, other: TangleElement) -> None:
        if self.ty != other.ty or self.n != other.n:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: TangleElement) -> TangleElement:
        self._check_compatible(other)
        return TangleElement(self.ty, self.n, tuple(self.terms) + tuple(other.terms))

    def __sub__(self, other: TangleElement) -> TangleElement:
        return self + (-other)

    def __neg__(self) -> TangleElement:
        return TangleElement(self.ty, self.n, [(c, -k) for c, k in self.terms])

    def scaled(self, factor: Union[LaurentPoly, int]) -> TangleElement:
        return TangleElement(self.ty, self.n, [(c, k * factor) for c, k in self.terms])

    def __mul__(self, factor: Union[LaurentPoly, int]) -> TangleElement:
        return self.scaled(factor)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, k in self.terms:
            pairs = ",".join(f"{a}-{b}" for a, b in c.edge_names)
            parts.append(f"({k}) {{{pairs}}}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "type": render_type(self.ty),
            "n": self.n,
            "terms": [
                {
                    "connector": c.edge_names,
                    "coeff": k.to_json(),
                }
                for c, k in self.terms
            ],
        }


def element_of_connector(connector: Connector, n: int) -> TangleElement:
    return TangleElement(connector.ty, n, {connector: ONE})


def identity_element(r: int, s: int, n: int) -> TangleElement:
    return normalize(TangleWord(algebra_type(r, s), []), n)


# -- the descent engine -------------------------------------------------------


def _party_key(component: int, ranks: tuple[int, ...]) -> tuple[int, int]:
    if component < len(ranks):
        return (0, ranks[component])
    return (1, component)


def _first_violation(word: TangleWord, ranks: tuple[int, ...]):
    """The crossing whose earlier pass runs under, minimal by that pass's
    (priority, time) key; None when the word is fully descending."""
    best = None
    for x in strand_graph(word).crossings:
        key_a = (_party_key(x.component_a, ranks), x.time_a)
        key_b = (_party_key(x.component_b, ranks), x.time_b)
        a_first = key_a < key_b
        over_is_a = x.hand is Hand.FIRST_OVER
        if a_first == over_is_a:
            continue
        earlier = min(key_a, key_b)
        if best is None or earlier < best[0]:
            best = (earlier, x)
    return None if best is None else best[1]


def _smoothing_slices(word: TangleWord, crossing) -> tuple:
    pos = word.slices[crossing.slice_index].pos
    a, b = crossing.entry
    if a is b:
        return ()
    # The peak recreates the pair the crossing leaves below it, (b, a).
    return (Min(pos), Max(pos, PEAK_SWEEP[(b, a)]))


def _polys(terms: dict) -> dict:
    """The nonzero coefficients of ``{key: exponent map}``, as LaurentPolys."""
    return {key: poly for key, k in terms.items() if (poly := LaurentPoly.from_exponent_map(k))}


@functools.cache
def _descend(word: TangleWord, ranks: tuple[int, ...]) -> tuple[tuple[LaurentPoly, TangleWord], ...]:
    """Rewrite a word into descending words with Laurent coefficients.

    ``ranks`` lists the priority of each strand start, in canonical start
    order; priorities are distinct.  Closed loops always rank after open
    strands, ordered by the peak that creates them.  The result does not
    depend on n: only the smoothing coefficient (q^-1 - q) appears.
    """
    violation = _first_violation(word, ranks)
    if violation is None:
        return ((ONE, word),)
    switched = word.with_hand(violation.slice_index, violation.hand.flipped())
    smoothed = word.replace_slice(violation.slice_index, _smoothing_slices(word, violation))
    # Switching changes the diagram by the smoothing times (q^-1 - q) if the
    # crossing being given up was negative, (q - q^-1) if positive.
    sign = -1 if violation.sign < 0 else 1
    acc: dict[TangleWord, dict[int, int]] = {}
    for coeff, base in _descend(switched, ranks):
        into = acc.setdefault(base, {})
        for e, c in coeff.terms:
            into[e] = into.get(e, 0) + c
    for coeff, base in _descend(smoothed, ranks):
        into = acc.setdefault(base, {})
        for e, c in coeff.terms:
            into[e + 1] = into.get(e + 1, 0) + sign * c
            into[e - 1] = into.get(e - 1, 0) - sign * c
    return tuple((k, w) for w, k in _polys(acc).items())


def _descending_value(word: TangleWord, n: int) -> tuple[Connector, LaurentPoly]:
    """Connector and scalar of a fully descending word: kinks contribute
    q^(n * sign) and each loop the quantum integer of n times q^(n * writhe)."""
    g = strand_graph(word)
    coeff = {n * sum(g.strand_writhes): 1}
    loop_value = quantum_int(n).terms
    for loop in g.loops:
        shifted: dict[int, int] = {}
        for e1, c1 in coeff.items():
            for e2, c2 in loop_value:
                e = e1 + e2 + n * loop.writhe
                shifted[e] = shifted.get(e, 0) + c1 * c2
        coeff = shifted
    return g.connector, LaurentPoly.from_exponent_map(coeff)


# -- the fold over the connector basis ----------------------------------------


def _interleave(e: tuple[Vertex, Vertex], f: tuple[Vertex, Vertex]) -> bool:
    """Whether the endpoints of two edges interleave on the boundary circle,
    which reads the bottom points from right to left, then the top points
    from left to right."""
    around = [v[1] if v[0] == "T" else -v[1] for v in e + f]
    lo, hi = sorted(around[:2])
    return (lo < around[2] < hi) != (lo < around[3] < hi)


def _moved(edges: Iterable[tuple[Vertex, Vertex]], after: int, by: int) -> tuple[tuple[Vertex, Vertex], ...]:
    """The edges with every bottom point right of position ``after`` moved
    right by ``by``."""
    return tuple(tuple(("B", v[1] + by) if v[0] == "B" and v[1] > after else v for v in e) for e in edges)


@functools.cache
def _step(connector: Connector, s: Slice, n: int) -> tuple[tuple[Connector, LaurentPoly], ...]:
    """Normal form of the canonical word of ``connector`` followed by ``s``:
    one column of the transfer matrix of the slice over the connector basis.

    Every column is read off the connector but one kind, a merging valley
    whose merged word is not descending.  The canonical word is
    crossing-minimal: no strand crosses itself, and two strands cross at
    most once, exactly when their endpoints interleave on the boundary
    circle, with the earlier start (the lower edge index) over.  So it is
    descending at the default ranks, and below a slice only the crossings
    of strands whose start order the slice changes can violate.

    * A peak crosses nothing: the column is the connector with a
      crossing-free cup added at bottom p, p+1 and the later bottom points
      moved right by 2, with coefficient 1.
    * A crossing of two strands swaps their bottom endpoints.  When the
      strand that starts earlier below it runs over, the word is
      descending and the column is the swapped connector.  Otherwise the
      crossing-switch relation gives the swapped connector plus
      sign * (q - q^-1) times the oriented smoothing, where sign is the
      crossing's writhe sign; the smoothing of a (v,v) or (^,^) crossing is
      the connector itself, and of a mixed one a valley and a peak, folded
      like any word because the fold is an algebra map.
    * A (^,^) crossing swaps two strand starts, adjacent in start order, so
      it swaps their two priorities and no other: only their old crossing,
      if they interleave, and the new one are involved.  Uncrossed, the new
      crossing descends when the old later start runs over.  Crossed, the
      old crossing now violates, and a new one with the same strand over
      makes a Reidemeister II pair with it: that strand lies wholly above
      the other, whose endpoints no longer interleave with its own, so the
      column is the swapped connector.  The other hand switches into that.
    * A crossing of one strand with itself closes a cup whose endpoints
      are adjacent, so no strand crosses that cup in the crossing-minimal
      canonical word: it is a curl, worth q^(n * sign) whatever its hand.
      Switching it adds sign * (q - q^-1) times a free loop, worth [n],
      and q^(-n * sign) + sign * (q^n - q^-n) = q^(n * sign).
    * A valley on a cup closes a loop that, by the same argument, crosses
      nothing and has writhe 0: the column is the connector without that
      edge, the later bottom points moved left by 2, times [n].
    * A valley on two strands merges A, the edge ending at its DOWN point,
      with B, the edge starting at its UP point.  The strand A.B keeps A's
      start; B's start leaves the start list and the other starts keep
      their order, so only crossings with B can violate.  The merged word
      is descending exactly when no strand ranked strictly between A and B
      interleaves with B, and A ranks first if it crosses B.  Then the
      column is the merged connector times q^(n * sigma): sigma is 0 when
      A and B do not cross, and otherwise the sign of their crossing, now
      a kink.  A crossing is positive exactly when, counterclockwise round
      the boundary (left to right along the bottom), the under strand's
      start lies between the over strand's start and end.  B's start sits
      next to A's end, so sigma = +1 exactly when it is on the left, the
      UP point at p.  Any other merge is normalized by descent
      (``_descent_step``).
    """
    bottom = connector.ty.bottom
    ty = TangleType(connector.ty.top, apply_slice(bottom, s))
    p = s.pos
    left, right = ("B", p), ("B", p + 1)
    edges = connector.edges
    if isinstance(s, Max):
        cup = (left, right) if ty.bottom[p - 1] is UP else (right, left)
        return ((Connector(ty, _moved(edges, p - 1, 2) + (cup,)), ONE),)
    entry = bottom[p - 1 : p + 1]
    a, b = (next(i for i, edge in enumerate(edges) if v in edge) for v in (left, right))
    if isinstance(s, Min):
        # A is edges[i], B is edges[j].
        i, j = (a, b) if entry[0] is DOWN else (b, a)
        kept = tuple(e for k, e in enumerate(edges) if k not in (i, j))
        if i == j:
            return ((Connector(ty, _moved(kept, p + 1, -2)), quantum_int(n)),)
        crossed = _interleave(edges[i], edges[j])
        between = edges[min(i, j) + 1 : max(i, j)]
        if (crossed and i > j) or any(_interleave(e, edges[j]) for e in between):
            return _descent_step(connector, ty, s, n)
        kink = crossed * (1 if entry[0] is UP else -1)
        merged = kept + ((edges[i][0], edges[j][1]),)
        return ((Connector(ty, _moved(merged, p + 1, -2)), LaurentPoly.monomial(1, n * kink)),)
    swap = {left: right, right: left}
    swapped = Connector(ty, ((swap.get(start, start), swap.get(end, end)) for start, end in edges))
    sign = crossing_sign(entry, s.hand)
    if a == b:
        return ((swapped, LaurentPoly.monomial(1, n * sign)),)
    # Two strand starts swap priorities: uncrossed, the other hand descends;
    # crossed, the same hand cancels their old crossing.
    traded = entry == (UP, UP) and not _interleave(edges[a], edges[b])
    if ((s.hand is Hand.FIRST_OVER) == (a < b)) != traded:
        return ((swapped, ONE),)
    if entry[0] is entry[1]:
        smoothing = {connector: {0: 1}}
    else:
        smoothing = _fold({connector: {0: 1}}, (Min(p), Max(p, PEAK_SWEEP[(entry[1], entry[0])])), n)
    acc: dict[Connector, dict[int, int]] = {swapped: {0: 1}}
    for target, k in smoothing.items():
        into = acc.setdefault(target, {})
        for e, c in k.items():
            into[e + 1] = into.get(e + 1, 0) + sign * c
            into[e - 1] = into.get(e - 1, 0) - sign * c
    return tuple(_polys(acc).items())


def _descent_step(connector: Connector, ty: TangleType, s: Slice, n: int) -> tuple[tuple[Connector, LaurentPoly], ...]:
    """``_step`` by descent at the default ranks of the canonical word of
    ``connector`` followed by ``s``, a word of type ``ty``."""
    word = TangleWord(ty, canonical_basis_word(connector).slices + (s,))
    ranks = tuple(range(len(start_vertices(ty))))
    acc: dict[Connector, dict[int, int]] = {}
    for coeff, base in _descend(word, ranks):
        target, extra = _descending_value(base, n)
        into = acc.setdefault(target, {})
        for e1, c1 in coeff.terms:
            for e2, c2 in extra.terms:
                into[e1 + e2] = into.get(e1 + e2, 0) + c1 * c2
    return tuple(_polys(acc).items())


def _fold(terms: dict[Connector, dict[int, int]], slices: Iterable[Slice], n: int) -> dict[Connector, dict[int, int]]:
    """Act on a combination of connectors with each slice in turn.

    Coefficients come in and go out as ``exponent -> int`` maps, and the
    input's are never modified: each (term, target) pair multiplies into
    the target's map, and zero entries and empty targets are dropped once
    per slice.  Callers convert the result once, with ``_polys``."""
    for s in slices:
        acc: dict[Connector, dict[int, int]] = {}
        for c, k in terms.items():
            for target, coeff in _step(c, s, n):
                into = acc.setdefault(target, {})
                for e2, c2 in coeff.terms:
                    for e1, c1 in k.items():
                        into[e1 + e2] = into.get(e1 + e2, 0) + c1 * c2
        terms = {c: kept for c, into in acc.items() if (kept := {e: x for e, x in into.items() if x})}
    return terms


def normalize(word: TangleWord, n: int) -> TangleElement:
    """Expand a tangle word in the connector basis.

    The fold starts from the identity connector of the top boundary and
    folds the word in one slice at a time (see the module docstring), so
    its cost is linear in the word's length.

    >>> from walled_tangles.tangle import parse_word
    >>> w = parse_word("X+(1) X+(1)", all_down_type(2))
    >>> len(normalize(w, 2).terms)
    2
    """
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    top = word.ty.top
    identity = connector_of(TangleWord(TangleType(top, top), ()))
    return TangleElement(word.ty, n, _polys(_fold({identity: {0: 1}}, word.slices, n)))


# -- products -----------------------------------------------------------------


@functools.cache
def _connector_product(a: Connector, b: Connector, n: int) -> TangleElement:
    """The first connector with the slices of the second's canonical word
    folded in."""
    terms = _fold({a: {0: 1}}, canonical_basis_word(b).slices, n)
    return TangleElement(TangleType(a.ty.top, b.ty.bottom), n, _polys(terms))


def multiply(a: TangleElement, b: TangleElement) -> TangleElement:
    """Product of elements: stack diagrams of the first over the second."""
    if a.n != b.n:
        raise ValueError("elements live over different label counts")
    if a.ty.bottom != b.ty.top:
        raise ValueError("cannot multiply: bottom of the first differs from top of the second")
    terms = (
        (c, ka * kb * k) for ca, ka in a.terms for cb, kb in b.terms for c, k in _connector_product(ca, cb, a.n).terms
    )
    return TangleElement(TangleType(a.ty.top, b.ty.bottom), a.n, terms)


def structure_constants(r: int, s: int, n: int) -> dict:
    """All pairwise products of basis connectors of the walled type, keyed
    (first, second) with both running in basis order.

    One ``tangle._fold_words`` walk over the second factors' canonical words
    folds every first connector at once, so a prefix that several words
    share is folded once per first connector instead of once per pair.
    Every entry equals ``_connector_product`` of its pair, since a fold acts
    one slice at a time.
    """
    ty = algebra_type(r, s)
    basis = enumerate_connectors(ty)
    blocks = _fold_words(
        [canonical_basis_word(c2) for c2 in basis],
        {c1: {c1: {0: 1}} for c1 in basis},
        lambda block, level, slc: {c1: _fold(terms, (slc,), n) for c1, terms in block.items()},
    )
    return {(c1, c2): TangleElement(ty, n, _polys(block[c1])) for c1 in basis for c2, block in zip(basis, blocks)}


# -- presentation of the walled algebra by generators -------------------------


@dataclasses.dataclass(frozen=True)
class RelationResult:
    name: str
    applicable: bool
    holds: bool
    lhs: str
    rhs: str


@dataclasses.dataclass(frozen=True)
class PresentationReport:
    r: int
    s: int
    n: int
    results: tuple[RelationResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(res.holds for res in self.results if res.applicable)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "n": self.n,
            "allPass": self.all_pass,
            "relations": [dataclasses.asdict(res) for res in self.results],
        }


def presentation_check(r: int, s: int, n: int) -> PresentationReport:
    """Check the defining relations of the walled algebra on its generators:
    the down-side and up-side crossings next to the wall and away from it,
    and the turnback at the wall.

    Each relation is a name and the list of (lhs, rhs) pairs it equates.  It
    applies exactly when the list is non-empty, and holds when every pair is
    equal."""
    ty = algebra_type(r, s)

    def gen(*slices: Slice) -> TangleElement:
        return normalize(TangleWord(ty, slices), n)

    def prod(*factors: TangleElement) -> TangleElement:
        return functools.reduce(multiply, factors)

    def commute(x: TangleElement, y: TangleElement) -> tuple:
        return prod(x, y), prod(y, x)

    def braid(x: TangleElement, y: TangleElement) -> tuple:
        return prod(x, y, x), prod(y, x, y)

    g = {i: gen(Cross(r - i, Hand.FIRST_OVER)) for i in range(1, r)}
    gs = {j: gen(Cross(r + j, Hand.FIRST_OVER)) for j in range(1, s)}
    one = identity_element(r, s, n)
    # The turnback at the wall, when there is a strand on each side of it;
    # with the inverse near down crossing, when both near crossings exist.
    turn = [gen(Min(r), Max(r, Sweep.RIGHT_TO_LEFT))] if r and s else []
    mixed = [(t, gen(Cross(r - 1, Hand.FIRST_UNDER))) for t in turn if 1 in g and 1 in gs]
    lam = LaurentPoly.monomial(1, -n)
    relations = [
        ("down crossings commute at distance", [commute(g[i], g[j]) for i in g for j in g if j >= i + 2]),
        ("up crossings commute at distance", [commute(gs[i], gs[j]) for i in gs for j in gs if j >= i + 2]),
        ("down braid relation", [braid(g[i], g[i + 1]) for i in g if i + 1 in g]),
        ("up braid relation", [braid(gs[j], gs[j + 1]) for j in gs if j + 1 in gs]),
        ("down quadratic relation", [(prod(x, x), one + (QINV - Q) * x) for x in g.values()]),
        ("up quadratic relation", [(prod(x, x), one + (QINV - Q) * x) for x in gs.values()]),
        ("down and up crossings commute", [commute(x, y) for x in g.values() for y in gs.values()]),
        ("turnback commutes with far down crossings", [commute(t, g[i]) for t in turn for i in g if i >= 2]),
        ("turnback commutes with far up crossings", [commute(t, gs[j]) for t in turn for j in gs if j >= 2]),
        ("turnback absorbs the near down crossing", [(prod(t, g[1], t), t.scaled(lam)) for t in turn if 1 in g]),
        ("turnback absorbs the near up crossing", [(prod(t, gs[1], t), t.scaled(lam)) for t in turn if 1 in gs]),
        ("turnback squares to the loop value", [(prod(t, t), t.scaled(quantum_int(n))) for t in turn]),
        (
            "mixed wall relation, turnback first",
            [(prod(t, h, gs[1], t, g[1]), prod(t, h, gs[1], t, gs[1])) for t, h in mixed],
        ),
        (
            "mixed wall relation, crossing first",
            [(prod(g[1], t, h, gs[1], t), prod(gs[1], t, h, gs[1], t)) for t, h in mixed],
        ),
    ]
    results = []
    for name, pairs in relations:
        lhs = "; ".join(str(a) for a, _ in pairs) or "-"
        rhs = "; ".join(str(b) for _, b in pairs) or "-"
        results.append(RelationResult(name, bool(pairs), all(a == b for a, b in pairs), lhs, rhs))
    return PresentationReport(r, s, n, tuple(results))


# -- bending a strand around the wall -----------------------------------------


def bend_first(word: TangleWord) -> TangleWord:
    """Reroute the first strand: its top point swings around the left edge to
    the bottom, the bottom point to the top.  Requires both boundaries to
    start with a DOWN point; the result starts with UP on both."""
    ty = word.ty
    if not ty.top or ty.top[0] is not DOWN or not ty.bottom or ty.bottom[0] is not DOWN:
        raise ValueError("bend needs top and bottom boundaries that both start with a DOWN point")
    slices = (
        (Max(2, Sweep.LEFT_TO_RIGHT),)
        + shifted_slices(word.slices, 2)
        + (Cross(1, Hand.FIRST_OVER), Min(2))
    )
    return TangleWord(TangleType((UP,) + ty.top[1:], (UP,) + ty.bottom[1:]), slices)


def hecke_to_walled(word: TangleWord, r: int, s: int, n: int) -> TangleElement:
    """Carry an all-down word across the wall, one strand per stage.

    Each stage takes the down strand adjacent to the wall, rotates it to the
    front by conjugation, bends it around the left edge, parks the new UP
    point back against the wall by conjugating with crossing chains, and
    cancels the kink unit the bend introduces.  The rotation and the parking
    chains undo each other positionally, so the identity maps to the
    identity, and at q = 1 each stage flips one top vertex right of the
    wall with the bottom vertex below it, in place.  Bending commutes with
    normalization, so the stages stack into one word that is normalized
    once, and the s kink units come out as one factor q^(n s)."""
    algebra_type(r, s)  # rejects negative strand counts
    m = r + s
    if word.ty != all_down_type(m):
        raise ValueError(f"expected a word of type {render_type(all_down_type(m))}")
    for t in range(1, s + 1):
        r_t = m - t + 1
        tail = (UP,) * (t - 1)
        block_ty = TangleType((DOWN,) * r_t + tail, (DOWN,) * r_t + tail)
        rotate = TangleWord(block_ty, [Cross(p, Hand.FIRST_OVER) for p in range(1, r_t)])
        unrotate = TangleWord(block_ty, [Cross(p, Hand.FIRST_UNDER) for p in range(r_t - 1, 0, -1)])
        top_chain = TangleWord(
            TangleType((DOWN,) * (r_t - 1) + (UP,) + tail, (UP,) + (DOWN,) * (r_t - 1) + tail),
            [Cross(p, Hand.FIRST_OVER) for p in range(r_t - 1, 0, -1)],
        )
        word = stack(top_chain, bend_first(stack(rotate, stack(word, unrotate))))
        for k in range(1, r_t):
            step = TangleWord(
                TangleType(
                    (DOWN,) * (k - 1) + (UP,) + (DOWN,) * (r_t - k) + tail,
                    (DOWN,) * k + (UP,) + (DOWN,) * (r_t - k - 1) + tail,
                ),
                [Cross(k, Hand.FIRST_UNDER)],
            )
            word = stack(word, step)
    return normalize(word, n).scaled(LaurentPoly.monomial(1, n * s))
