"""Oriented tangle diagrams in a rectangle, presented as slice words.

A diagram lives in a rectangle with labelled boundary points on the top and
bottom edge, each carrying an orientation: DOWN means the strand runs
downward through that point, UP means upward.  The diagram itself is stored
as a word of elementary slices read top to bottom:

* ``Cross(p, hand)``   -- the strands at positions p, p+1 cross once,
* ``Min(p)``           -- a valley joining positions p, p+1 (two points gone),
* ``Max(p, sweep)``    -- a peak creating two new points at positions p, p+1.

Positions are 1-based within the current horizontal level.  A strand starts
at a top DOWN point or a bottom UP point and ends at a top UP point or a
bottom DOWN point; closed loops are allowed and arise from Max/Min pairs.

A strand runs along each segment in the direction of its orientation, so
tracing gives every segment one successor as it reads the slices: at a
crossing a DOWN segment continues into its partner below and an UP segment
into its partner above, a valley leads into its UP segment, a peak into its
DOWN segment, and an UP top or DOWN bottom segment ends at its boundary
point.  Tracing numbers open strands by start and loops by creating peak:
a loop's topmost point is a peak, so walking from each peak not yet walked,
in slice order, meets every loop once.  The canonical diagram of a connector
sets each crossing's hand as it emits it: the strand with the earlier start
(the lower edge index) passes over.

This module knows nothing about coefficients: it provides the combinatorial
layer (validation, strand tracing, connectors, canonical diagram for a
connector, and the textual word syntax) that the skein and matrix layers
build on, and the one walk, ``_fold_words``, by which both fold many words
at once, sharing the work of their common prefixes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import re
from typing import Callable, Iterable, Sequence, Union


class Orientation(enum.Enum):
    """Direction a strand travels through a boundary point or level slot."""

    DOWN = "v"
    UP = "^"

    def __repr__(self) -> str:
        return self.name


class Hand(enum.Enum):
    """Which strand of a crossing passes over.

    FIRST_OVER means the arc entering the crossing from the upper-left slot
    (position p above, leaving at position p+1 below) is the over strand;
    FIRST_UNDER means that arc passes under instead.
    """

    FIRST_OVER = "+"
    FIRST_UNDER = "-"

    def flipped(self) -> Hand:
        return Hand.FIRST_UNDER if self is Hand.FIRST_OVER else Hand.FIRST_OVER

    def __repr__(self) -> str:
        return self.name


class Sweep(enum.Enum):
    """Travel direction over a peak: which way the strand sweeps across."""

    LEFT_TO_RIGHT = ">"
    RIGHT_TO_LEFT = "<"

    def __repr__(self) -> str:
        return self.name


DOWN = Orientation.DOWN
UP = Orientation.UP


@dataclasses.dataclass(frozen=True)
class Cross:
    pos: int
    hand: Hand


@dataclasses.dataclass(frozen=True)
class Min:
    pos: int


@dataclasses.dataclass(frozen=True)
class Max:
    pos: int
    sweep: Sweep


Slice = Union[Cross, Min, Max]

#: A peak traversed left to right rises on the left and descends on the
#: right, so the created slots read (UP, DOWN); right to left is the mirror.
_MAX_CREATES = {
    Sweep.LEFT_TO_RIGHT: (UP, DOWN),
    Sweep.RIGHT_TO_LEFT: (DOWN, UP),
}

#: The sweep of the peak that creates a given (left, right) orientation pair.
PEAK_SWEEP = {pair: sweep for sweep, pair in _MAX_CREATES.items()}


@dataclasses.dataclass(frozen=True)
class TangleType:
    """Boundary data: orientations of the top and bottom points."""

    top: tuple[Orientation, ...]
    bottom: tuple[Orientation, ...]

    def __post_init__(self) -> None:
        for half in (self.top, self.bottom):
            if not all(isinstance(o, Orientation) for o in half):
                raise TypeError("boundary halves must contain Orientation values")

    def __str__(self) -> str:
        return render_type(self)


def algebra_type(r: int, s: int) -> TangleType:
    """The walled type with r DOWN then s UP points on both edges.

    >>> str(algebra_type(2, 1))
    'vv^|vv^'
    """
    if r < 0 or s < 0:
        raise ValueError("strand counts must be nonnegative")
    half = (DOWN,) * r + (UP,) * s
    return TangleType(half, half)


def all_down_type(m: int) -> TangleType:
    """The type with m DOWN points on both edges (the braid-like case)."""
    return algebra_type(m, 0)


class SliceError(ValueError):
    """A slice that does not fit the level it is applied to."""

    def __init__(self, index: int, message: str):
        super().__init__(f"slice {index}: {message}")
        self.index = index
        self.message = message


def apply_slice(level: tuple[Orientation, ...], s: Slice, index: int = 0) -> tuple[Orientation, ...]:
    """The level below slice ``s`` given the level above it."""
    w = len(level)
    if isinstance(s, Cross):
        if not 1 <= s.pos <= w - 1:
            raise SliceError(index, f"crossing position {s.pos} needs width >= {s.pos + 1}, level has {w}")
        out = list(level)
        out[s.pos - 1], out[s.pos] = out[s.pos], out[s.pos - 1]
        return tuple(out)
    if isinstance(s, Min):
        if not 1 <= s.pos <= w - 1:
            raise SliceError(index, f"valley position {s.pos} needs width >= {s.pos + 1}, level has {w}")
        a, b = level[s.pos - 1], level[s.pos]
        if a is b:
            raise SliceError(index, f"valley at {s.pos} needs opposite orientations, got ({a.value}, {b.value})")
        return level[: s.pos - 1] + level[s.pos + 1 :]
    if isinstance(s, Max):
        if not 1 <= s.pos <= w + 1:
            raise SliceError(index, f"peak position {s.pos} out of range for width {w}")
        return level[: s.pos - 1] + _MAX_CREATES[s.sweep] + level[s.pos - 1 :]
    raise TypeError(f"not a slice: {s!r}")


@dataclasses.dataclass(init=False, eq=True)
class TangleWord:
    """A validated slice word together with its boundary type.

    Construction simulates the word level by level and rejects any slice
    that does not fit, or a final level that disagrees with the declared
    bottom boundary.  Words key memos, so the hash is kept after first use.
    """

    ty: TangleType
    slices: tuple[Slice, ...]

    def __init__(self, ty: TangleType, slices: Iterable[Slice]):
        slices = tuple(slices)
        level = ty.top
        levels = [level]
        for i, s in enumerate(slices):
            level = apply_slice(level, s, i)
            levels.append(level)
        if level != ty.bottom:
            raise SliceError(
                len(slices),
                f"word ends at level {''.join(o.value for o in level)} "
                f"but the type bottom is {''.join(o.value for o in ty.bottom)}",
            )
        self.ty = ty
        self.slices = slices
        self._levels = tuple(levels)

    @property
    def levels(self) -> tuple[tuple[Orientation, ...], ...]:
        """Levels between slices: levels[i] is the level above slices[i],
        levels[-1] is the bottom boundary."""
        return self._levels

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.ty, self.slices))

    def __hash__(self) -> int:
        return self._hash

    def replace_slice(self, index: int, replacement: Sequence[Slice]) -> TangleWord:
        """A new word with slices[index] substituted by the given slices."""
        return TangleWord(self.ty, self.slices[:index] + tuple(replacement) + self.slices[index + 1 :])

    def with_hand(self, index: int, hand: Hand) -> TangleWord:
        s = self.slices[index]
        if not isinstance(s, Cross):
            raise ValueError(f"slice {index} is not a crossing")
        return self.replace_slice(index, (Cross(s.pos, hand),))

    def __str__(self) -> str:
        return f"{render_type(self.ty)} : {render_word(self)}"


def stack(upper: TangleWord, lower: TangleWord) -> TangleWord:
    """Vertical composition: ``upper`` drawn above ``lower``.

    >>> w = TangleWord(all_down_type(2), [Cross(1, Hand.FIRST_OVER)])
    >>> len(stack(w, w).slices)
    2
    """
    if upper.ty.bottom != lower.ty.top:
        raise ValueError("cannot stack: boundary mismatch between upper bottom and lower top")
    return TangleWord(TangleType(upper.ty.top, lower.ty.bottom), upper.slices + lower.slices)


def shifted_slices(slices: Iterable[Slice], offset: int) -> tuple[Slice, ...]:
    """The same slices with every position moved right by ``offset``."""
    return tuple(dataclasses.replace(s, pos=s.pos + offset) for s in slices)


def _fold_words(words: Sequence[TangleWord], start, step: Callable) -> list:
    """Fold ``start`` down each word's slices by ``step(value, level, slice)``;
    the results come in input order, and an empty word gets ``start``.

    The walk goes depth first along the trie of the words' (level, slice)
    prefixes, on an explicit stack: each distinct prefix is stepped once,
    and only the values on the current path are held.
    """
    paths = [tuple(zip(word.levels, word.slices)) for word in words]
    out = [start] * len(paths)
    # Each entry is (the words below one prefix, its length, the value above its last slice).
    todo = [(range(len(paths)), 0, start)]
    while todo:
        members, depth, value = todo.pop()
        if depth:
            value = step(value, *paths[members[0]][depth - 1])
        children: dict[tuple, list[int]] = {}
        for w in members:
            if len(paths[w]) == depth:
                out[w] = value
            else:
                children.setdefault(paths[w][depth], []).append(w)
        todo.extend((group, depth + 1, value) for group in reversed(children.values()))
    return out


# -- boundary vertices and connectors ----------------------------------------

#: A boundary vertex: ("T", k) or ("B", k) with 1-based position k.
Vertex = tuple[str, int]


def vertex_name(v: Vertex) -> str:
    """
    >>> vertex_name(("T", 3))
    'T3'
    """
    return f"{v[0]}{v[1]}"


def _vertex_key(v: Vertex) -> tuple[int, int]:
    return (0 if v[0] == "T" else 1, v[1])


def start_vertices(ty: TangleType) -> tuple[Vertex, ...]:
    """Strand starts in canonical order: top left-to-right, then bottom."""
    tops = tuple(("T", k) for k, o in enumerate(ty.top, 1) if o is DOWN)
    bots = tuple(("B", k) for k, o in enumerate(ty.bottom, 1) if o is UP)
    return tops + bots


def end_vertices(ty: TangleType) -> tuple[Vertex, ...]:
    """Strand ends in canonical order: top left-to-right, then bottom."""
    tops = tuple(("T", k) for k, o in enumerate(ty.top, 1) if o is UP)
    bots = tuple(("B", k) for k, o in enumerate(ty.bottom, 1) if o is DOWN)
    return tops + bots


@dataclasses.dataclass(init=False, eq=True)
class Connector:
    """The matching of boundary vertices cut out by a diagram's open strands.

    Edges run from a start vertex to an end vertex and are kept sorted by
    the canonical order of their starts, so equal matchings compare equal.
    Connectors key the normal-form memos, so the hash is computed once.
    """

    ty: TangleType
    edges: tuple[tuple[Vertex, Vertex], ...]

    def __init__(self, ty: TangleType, edges: Iterable[tuple[Vertex, Vertex]]):
        edges = tuple(sorted(edges, key=lambda e: _vertex_key(e[0])))
        starts = start_vertices(ty)
        ends = end_vertices(ty)
        if len(starts) != len(ends):
            raise ValueError(f"type {render_type(ty)} is unbalanced: {len(starts)} starts, {len(ends)} ends")
        if tuple(e[0] for e in edges) != starts:
            raise ValueError("edges must cover each start vertex exactly once")
        if sorted(e[1] for e in edges) != sorted(ends):
            raise ValueError("edges must cover each end vertex exactly once")
        self.ty = ty
        self.edges = edges
        self._hash = hash((ty, edges))

    def __hash__(self) -> int:
        return self._hash

    def is_totally_propagating(self) -> bool:
        """True when every strand joins the top edge to the bottom edge."""
        return all(s[0] != e[0] for s, e in self.edges)

    @functools.cached_property
    def edge_names(self) -> tuple[tuple[str, str], ...]:
        """The edges as (start, end) vertex-name pairs, the connector's JSON
        form; built on first use and kept on the instance."""
        return tuple((vertex_name(s), vertex_name(e)) for s, e in self.edges)

    def __str__(self) -> str:
        pairs = ",".join(f"{s}-{e}" for s, e in self.edge_names)
        return f"{render_type(self.ty)} : {pairs}"


def enumerate_connectors(ty: TangleType) -> list[Connector]:
    """All matchings of starts to ends, in lexicographic end order.

    >>> len(enumerate_connectors(algebra_type(1, 1)))
    2
    """
    starts = start_vertices(ty)
    return [Connector(ty, zip(starts, perm)) for perm in itertools.permutations(end_vertices(ty))]


# -- strand tracing -----------------------------------------------------------

#: Travel direction vectors (x right, y up) for the two arcs of a crossing,
#: keyed by the orientation of the arc's upper end.  Arc A runs upper-left to
#: lower-right, arc B upper-right to lower-left.
_DIR_A = {DOWN: (1, -1), UP: (-1, 1)}
_DIR_B = {DOWN: (-1, -1), UP: (1, 1)}


def crossing_sign(entry: tuple[Orientation, Orientation], hand: Hand) -> int:
    """Writhe sign: +1 when (over direction, under direction) is a positively
    oriented frame of the plane, -1 otherwise."""
    da = _DIR_A[entry[0]]
    db = _DIR_B[entry[1]]
    over, under = (da, db) if hand is Hand.FIRST_OVER else (db, da)
    det = over[0] * under[1] - over[1] * under[0]
    return 1 if det > 0 else -1


@dataclasses.dataclass(frozen=True)
class CrossingInfo:
    """One crossing of a traced diagram.

    Components are numbered with open strands first (canonical start order)
    and loops after (by creating peak); ``time_a``/``time_b`` say at which
    step of its component's traversal each arc is walked.
    """

    slice_index: int
    hand: Hand
    entry: tuple[Orientation, Orientation]
    sign: int
    component_a: int
    time_a: int
    component_b: int
    time_b: int

    def is_self_crossing(self) -> bool:
        return self.component_a == self.component_b


@dataclasses.dataclass(frozen=True)
class LoopInfo:
    creating_slice: int
    orientation: Orientation
    writhe: int


@dataclasses.dataclass(frozen=True)
class StrandGeometry:
    """Traced strands, loops and crossings of a tangle word."""

    word: TangleWord
    starts: tuple[Vertex, ...]
    ends: tuple[Vertex, ...]
    strand_writhes: tuple[int, ...]
    loops: tuple[LoopInfo, ...]
    crossings: tuple[CrossingInfo, ...]

    @functools.cached_property
    def connector(self) -> Connector:
        return Connector(self.word.ty, zip(self.starts, self.ends))


@functools.cache
def strand_graph(word: TangleWord) -> StrandGeometry:
    """Trace every strand and loop of the word.

    Each segment of strand between two events (boundary, crossing, valley,
    peak) gets an id.  A strand runs along a segment in the direction of the
    segment's orientation, DOWN meaning downward, so each segment has one
    successor, fixed when its slice is read: at a crossing a DOWN segment
    continues into its partner below and an UP segment into its partner
    above; after a valley the strand continues into the UP segment and after
    a peak into the DOWN segment; an UP top segment ends at its top vertex
    and a DOWN bottom segment at its bottom vertex.  The walks follow these
    successors, from each start and then from each peak not yet walked.
    """
    new_segment = itertools.count().__next__
    succ: dict[int, int | Vertex] = {}
    arc_of: dict[int, tuple[int, str]] = {}
    peaks: list[tuple[int, int, Orientation]] = []

    top = [new_segment() for _ in word.ty.top]
    for k, o in enumerate(word.ty.top, 1):
        if o is UP:
            succ[top[k - 1]] = ("T", k)
    level = list(top)
    for i, s in enumerate(word.slices):
        p = s.pos - 1
        above = word.levels[i]
        if isinstance(s, Cross):
            # Arc A joins a above to d below, arc B joins b above to c below.
            a, b = level[p : p + 2]
            c, d = new_segment(), new_segment()
            e, f = (a, d) if above[p] is DOWN else (d, a)
            succ[e], arc_of[e] = f, (i, "A")
            e, f = (b, c) if above[p + 1] is DOWN else (c, b)
            succ[e], arc_of[e] = f, (i, "B")
            level[p : p + 2] = c, d
        elif isinstance(s, Min):
            a, b = level[p : p + 2]
            fall, rise = (a, b) if above[p] is DOWN else (b, a)
            succ[fall] = rise
            del level[p : p + 2]
        else:
            c, d = new_segment(), new_segment()
            left = _MAX_CREATES[s.sweep][0]
            rise, fall = (c, d) if left is UP else (d, c)
            succ[rise] = fall
            peaks.append((i, fall, left))
            level[p:p] = c, d
    for k, o in enumerate(word.ty.bottom, 1):
        if o is DOWN:
            succ[level[k - 1]] = ("B", k)

    walked: set[int] = set()
    arc_visit: dict[tuple[int, str], tuple[int, int]] = {}

    def walk(first: int, component: int) -> Vertex | None:
        """Follow the successors from a segment; returns the boundary vertex
        reached, or None when the walk closes up (a loop)."""
        e, time = first, 0
        while True:
            walked.add(e)
            arc = arc_of.get(e)
            if arc is not None:
                arc_visit[arc] = (component, time)
                time += 1
            e = succ[e]
            if isinstance(e, tuple):
                return e
            if e == first:
                return None

    starts = start_vertices(word.ty)
    ends = tuple(walk(top[k - 1] if side == "T" else level[k - 1], comp) for comp, (side, k) in enumerate(starts))

    # Every loop has a topmost point, a peak, so walking from each peak that
    # no earlier walk has marked, in slice order, meets each loop once at
    # its creating slice.
    loops = []
    for i, fall, left in peaks:
        if fall not in walked:
            closed = walk(fall, len(starts) + len(loops))
            assert closed is None, "loop traversal must close up"
            loops.append((i, left))

    crossings = []
    for i, s in enumerate(word.slices):
        if isinstance(s, Cross):
            entry = word.levels[i][s.pos - 1 : s.pos + 1]
            sign = crossing_sign(entry, s.hand)
            crossings.append(CrossingInfo(i, s.hand, entry, sign, *arc_visit[i, "A"], *arc_visit[i, "B"]))

    writhes = [0] * (len(starts) + len(loops))
    for c in crossings:
        if c.is_self_crossing():
            writhes[c.component_a] += c.sign

    loop_infos = tuple(
        LoopInfo(creating, tag, writhes[len(starts) + li]) for li, (creating, tag) in enumerate(loops)
    )
    return StrandGeometry(
        word=word,
        starts=starts,
        ends=ends,
        strand_writhes=tuple(writhes[: len(starts)]),
        loops=loop_infos,
        crossings=tuple(crossings),
    )


def connector_of(word: TangleWord) -> Connector:
    """The boundary matching cut out by the word's open strands."""
    return strand_graph(word).connector


# -- canonical diagram of a connector ----------------------------------------


@functools.cache
def canonical_basis_word(connector: Connector) -> TangleWord:
    """A canonical crossing-minimal diagram for a connector.

    Layout: top-to-top strands close first (each right endpoint walks left
    to meet its partner), the remaining through strands sort themselves into
    bottom order, and bottom-to-bottom strands open last (each right
    endpoint walks right into place).  No strand crosses itself, and each
    crossing gets its hand as it is emitted: the strand whose edge comes
    first in ``connector.edges`` (the earlier start) passes over.  That
    index is the strand's component in ``strand_graph``.
    """
    ty = connector.ty
    # A token is (bottom target or None for a cap, edge index).
    tokens: list[tuple] = [None] * len(ty.top)
    caps: list[int] = []
    cups: list[tuple[int, int, int]] = []
    for idx, (s, e) in enumerate(connector.edges):
        if s[0] == "T" and e[0] == "T":
            caps.append(idx)
            tokens[s[1] - 1] = tokens[e[1] - 1] = (None, idx)
        elif s[0] == "T" or e[0] == "T":
            top, bottom = (s, e) if s[0] == "T" else (e, s)
            tokens[top[1] - 1] = (bottom[1], idx)
        else:
            cups.append((max(s[1], e[1]), min(s[1], e[1]), idx))

    slices: list[Slice] = []

    def emit_cross(p: int) -> None:
        first_over = tokens[p - 1][1] < tokens[p][1]
        slices.append(Cross(p, Hand.FIRST_OVER if first_over else Hand.FIRST_UNDER))
        tokens[p - 1], tokens[p] = tokens[p], tokens[p - 1]

    # Close caps, always the one whose right endpoint is leftmost.
    while caps:
        idx = min(caps, key=lambda c: max(i for i, t in enumerate(tokens) if t[1] == c))
        caps.remove(idx)
        a, b = (i + 1 for i, t in enumerate(tokens) if t[1] == idx)
        for p in range(b - 1, a, -1):
            emit_cross(p)
        slices.append(Min(a))
        del tokens[a - 1 : a + 1]

    # Sort through strands into the relative order of their bottom targets.
    changed = True
    while changed:
        changed = False
        for i in range(len(tokens) - 1):
            if tokens[i][0] > tokens[i + 1][0]:
                emit_cross(i + 1)
                changed = True

    # Open cups, rightmost right-endpoint first.
    for hi, lo, idx in sorted(cups, reverse=True):
        p = sum(1 for t in tokens if t[0] < lo) + 1
        slices.append(Max(p, PEAK_SWEEP[(ty.bottom[lo - 1], ty.bottom[hi - 1])]))
        tokens[p - 1 : p - 1] = [(lo, idx), (hi, idx)]
        between = sum(1 for t in tokens if lo < t[0] < hi)
        for k in range(between):
            emit_cross(p + 1 + k)

    assert [t[0] for t in tokens] == sorted(t[0] for t in tokens)
    return TangleWord(ty, slices)


def canonical_steps(r: int, s: int) -> tuple[tuple[tuple[Orientation, ...], Slice], ...]:
    """The distinct local steps of the canonical basis words of type (r, s).

    A step is the points its slice touches on the level above (none for a
    peak) and the slice moved to position 1.  The canonical words of every
    connector of ``algebra_type(r, s)`` use exactly the steps returned, and
    the all-down type on m points is the case (m, 0): X+(1) on (v, v) alone.

    Proof from the layout of ``canonical_basis_word``.  A token keeps its
    orientation through a crossing.  The lower edge index passes over, and
    the r top DOWN starts are indexed before the s bottom UP starts, each
    in order: a cap or a DOWN through strand has the index of its top DOWN
    point, below r, and a cup or an UP through strand that of its bottom UP
    point, at least r.

    * Caps.  The cap closed next has the leftmost UP end, so between its
      ends lie only DOWN points right of its own DOWN point, and UP
      through-ends.  Its UP end walks left past each, the higher index on
      the left: X-(1) on (v, ^) or on (^, ^).  Then U(1) closes it on
      (v, ^).  No other token moves, so they keep their top order.
    * Sort.  A DOWN through strand starts and ends left of every UP one, so
      the two never swap.  Bubble sort swaps a pair once, while it is
      inverted, so a swapped pair is still in top order: a DOWN pair is in
      edge order, X+(1) on (v, v), and an UP pair, indexed by its bottom
      points, against it, X-(1) on (^, ^).
    * Cups, the rightmost UP end first.  Each opens with N<(1), its DOWN end
      on the left.  Its UP end then walks right past DOWN through strands
      (lower index, X-(1) on (^, v)), past the DOWN ends of earlier cups,
      whose UP ends lie further right (higher index, X+(1) on (^, v)), and
      past UP through strands (lower index, X-(1) on (^, ^)).

    So no other step occurs, and each needs the strands it names: a cap or a
    cup, r, s >= 1; a second DOWN strand beside a cap, a cup or a DOWN
    strand, r >= 2; a second UP strand beside an UP one, s >= 2; two cups,
    r, s >= 2.  At those bounds a connector with just those strands on the
    leftmost points, crossed or nested as named, takes each step.
    """
    rows = (
        ((DOWN, UP), Cross(1, Hand.FIRST_UNDER), r >= 2 and s >= 1),
        ((UP, UP), Cross(1, Hand.FIRST_UNDER), s >= 2),
        ((DOWN, UP), Min(1), r >= 1 and s >= 1),
        ((DOWN, DOWN), Cross(1, Hand.FIRST_OVER), r >= 2),
        ((), Max(1, Sweep.RIGHT_TO_LEFT), r >= 1 and s >= 1),
        ((UP, DOWN), Cross(1, Hand.FIRST_UNDER), r >= 2 and s >= 1),
        ((UP, DOWN), Cross(1, Hand.FIRST_OVER), r >= 2 and s >= 2),
    )
    return tuple((points, step) for points, step, used in rows if used)


# -- textual syntax -----------------------------------------------------------


class DslError(ValueError):
    """A syntax or validation error in the textual tangle language, carrying
    the character offset where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"column {position + 1}: {message}")
        self.position = position
        self.message = message


def render_type(ty: TangleType) -> str:
    """
    >>> render_type(TangleType((DOWN, UP), (UP, DOWN)))
    'v^|^v'
    """
    return "".join(o.value for o in ty.top) + "|" + "".join(o.value for o in ty.bottom)


def parse_type(text: str) -> TangleType:
    """Parse a boundary type: DOWN is ``v``, UP is ``^``, halves split by
    ``|``, and a character may carry a repetition count.

    >>> parse_type("v2^|vv^") == parse_type("vv^|vv^")
    True
    """
    if text.count("|") != 1:
        raise DslError("type needs exactly one '|' separating top and bottom", text.find("|", text.find("|") + 1) if text.count("|") > 1 else len(text))
    bar = text.index("|")
    halves = []
    for base, chunk in ((0, text[:bar]), (bar + 1, text[bar + 1 :])):
        out: list[Orientation] = []
        pos = 0
        while pos < len(chunk):
            ch = chunk[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch not in "v^":
                raise DslError(f"expected 'v' or '^', got {ch!r}", base + pos)
            m = re.match(r"[0-9]+", chunk[pos + 1 :])
            count = int(m.group(0)) if m else 1
            if count == 0:
                raise DslError("repetition count must be positive", base + pos + 1)
            out.extend([Orientation(ch)] * count)
            pos += 1 + (m.end() if m else 0)
        halves.append(tuple(out))
    return TangleType(halves[0], halves[1])


_TOKEN_RE = re.compile(r"(X\+|X-|S\+|S-|N>|N<|U|E)\(([0-9]+)\)")


def render_word(word: TangleWord) -> str:
    """
    >>> w = TangleWord(algebra_type(1, 1), [Min(1), Max(1, Sweep.RIGHT_TO_LEFT)])
    >>> render_word(w)
    'U(1) N<(1)'
    """
    out = []
    for s in word.slices:
        if isinstance(s, Cross):
            out.append(f"X{s.hand.value}({s.pos})")
        elif isinstance(s, Min):
            out.append(f"U({s.pos})")
        else:
            out.append(f"N{s.sweep.value}({s.pos})")
    return " ".join(out)


def parse_word(text: str, ty: TangleType) -> TangleWord:
    """Parse a slice word against a boundary type.

    Tokens: ``X+(p)``/``X-(p)`` crossings (``S+``/``S-`` are synonyms),
    ``U(p)`` valley, ``N>(p)``/``N<(p)`` peaks, and the macro ``E(p)``
    expanding to the valley-peak turnback for the two orientations at p.

    >>> parse_word("E(1)", algebra_type(1, 1)).slices
    (Min(pos=1), Max(pos=1, sweep=RIGHT_TO_LEFT))
    """
    level = ty.top
    slices: list[Slice] = []

    def extend(new_slices: Sequence[Slice], offset: int) -> None:
        nonlocal level
        for s in new_slices:
            try:
                level = apply_slice(level, s, len(slices))
            except SliceError as err:
                raise DslError(err.message, offset) from None
            slices.append(s)

    for m in re.finditer(r"\S+", text):
        token, offset = m.group(0), m.start()
        tm = _TOKEN_RE.fullmatch(token)
        if not tm:
            raise DslError(f"unrecognized token {token!r}", offset)
        name, pos = tm.group(1), int(tm.group(2))
        if name in ("X+", "S+"):
            extend([Cross(pos, Hand.FIRST_OVER)], offset)
        elif name in ("X-", "S-"):
            extend([Cross(pos, Hand.FIRST_UNDER)], offset)
        elif name == "U":
            extend([Min(pos)], offset)
        elif name == "N>":
            extend([Max(pos, Sweep.LEFT_TO_RIGHT)], offset)
        elif name == "N<":
            extend([Max(pos, Sweep.RIGHT_TO_LEFT)], offset)
        else:
            if not 1 <= pos <= len(level) - 1:
                raise DslError(f"turnback position {pos} out of range for width {len(level)}", offset)
            pair = (level[pos - 1], level[pos])
            if pair not in PEAK_SWEEP:
                raise DslError(f"turnback needs opposite orientations, got ({pair[0].value}, {pair[1].value})", offset)
            extend([Min(pos), Max(pos, PEAK_SWEEP[pair])], offset)

    if level != ty.bottom:
        raise DslError(
            f"word ends at level {''.join(o.value for o in level)} "
            f"but the type bottom is {''.join(o.value for o in ty.bottom)}",
            len(text),
        )
    return TangleWord(ty, slices)
