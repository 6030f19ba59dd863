"""Skein-normal forms of tangle words and the diagram algebra product.

The rewriting engine repeatedly applies the crossing-switch relation: the
difference between the two hands of a crossing equals (q^-1 - q) times the
oriented smoothing.  Strand starts carry a fixed priority; a crossing is a
violation when the strand pass that comes earlier (smaller priority, then
earlier along its own strand) runs under.  Switching the first violation
and recursing terminates in diagrams where every earlier pass runs over;
those are evaluated directly: each closed loop is worth the quantum integer
of n times q^(n * writhe), each kink on an open strand is worth q^(n * sign),
and what remains is the crossing-minimal diagram of its connector.

Elements of the algebra are exact Laurent combinations of connectors; the
product stacks canonical diagrams and renormalizes.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Mapping, Union

from .laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from .tangle import (
    DOWN,
    UP,
    Connector,
    Cross,
    Hand,
    Max,
    Min,
    Sweep,
    TangleType,
    TangleWord,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    render_type,
    shifted_slices,
    stack,
    start_vertices,
    strand_graph,
    vertex_name,
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
            acc[connector] = acc.get(connector, ZERO) + coeff
        self.ty = ty
        self.n = n
        self.terms = tuple(sorted(((c, k) for c, k in acc.items() if not k.is_zero()), key=lambda t: t[0].edges))

    def coefficient(self, connector: Connector) -> LaurentPoly:
        for c, k in self.terms:
            if c == connector:
                return k
        return ZERO

    def is_zero(self) -> bool:
        return not self.terms

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
            pairs = ",".join(f"{vertex_name(a)}-{vertex_name(b)}" for a, b in c.edges)
            parts.append(f"({k}) {{{pairs}}}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "type": render_type(self.ty),
            "n": self.n,
            "terms": [
                {
                    "connector": [[vertex_name(a), vertex_name(b)] for a, b in c.edges],
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
    sweep = Sweep.LEFT_TO_RIGHT if (a, b) == (DOWN, UP) else Sweep.RIGHT_TO_LEFT
    return (Min(pos), Max(pos, sweep))


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
    smoothing_coeff = (QINV - Q) if violation.sign < 0 else (Q - QINV)
    acc: dict[TangleWord, LaurentPoly] = {}
    for coeff, base in _descend(switched, ranks):
        acc[base] = acc.get(base, ZERO) + coeff
    for coeff, base in _descend(smoothed, ranks):
        acc[base] = acc.get(base, ZERO) + coeff * smoothing_coeff
    return tuple((k, w) for w, k in acc.items() if not k.is_zero())


def _descending_value(word: TangleWord, n: int) -> tuple[Connector, LaurentPoly]:
    """Connector and scalar of a fully descending word: kinks contribute
    q^(n * sign) and each loop the quantum integer of n times q^(n * writhe)."""
    g = strand_graph(word)
    coeff = LaurentPoly.monomial(1, n * sum(g.strand_writhes))
    for loop in g.loops:
        coeff = coeff * quantum_int(n) * LaurentPoly.monomial(1, n * loop.writhe)
    return g.connector, coeff


def normalize(word: TangleWord, n: int) -> TangleElement:
    """Expand a tangle word in the connector basis.

    >>> from walled_tangles.tangle import parse_word
    >>> w = parse_word("X+(1) X+(1)", all_down_type(2))
    >>> len(normalize(w, 2).terms)
    2
    """
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    ranks = tuple(range(len(start_vertices(word.ty))))
    acc: dict[Connector, LaurentPoly] = {}
    for coeff, base in _descend(word, ranks):
        connector, extra = _descending_value(base, n)
        acc[connector] = acc.get(connector, ZERO) + coeff * extra
    return TangleElement(word.ty, n, acc)


# -- products -----------------------------------------------------------------


@functools.cache
def _connector_product(a: Connector, b: Connector, n: int) -> TangleElement:
    return normalize(stack(canonical_basis_word(a), canonical_basis_word(b)), n)


def multiply(a: TangleElement, b: TangleElement) -> TangleElement:
    """Product of elements: stack diagrams of the first over the second."""
    if a.n != b.n:
        raise ValueError("elements live over different label counts")
    if a.ty.bottom != b.ty.top:
        raise ValueError("cannot multiply: bottom of the first differs from top of the second")
    out = TangleElement(TangleType(a.ty.top, b.ty.bottom), a.n)
    for ca, ka in a.terms:
        for cb, kb in b.terms:
            out = out + _connector_product(ca, cb, a.n).scaled(ka * kb)
    return out


def structure_constants(r: int, s: int, n: int) -> dict:
    """All pairwise products of basis connectors of the walled type."""
    from .tangle import enumerate_connectors

    basis = enumerate_connectors(algebra_type(r, s))
    return {
        (c1, c2): _connector_product(c1, c2, n)
        for c1 in basis
        for c2 in basis
    }


# -- named small diagrams -----------------------------------------------------


def turnback_word(top_pair: tuple, bottom_pair: tuple) -> TangleWord:
    """The two-point diagram where both strands turn back: a valley closing
    the top pair over a peak opening the bottom pair."""
    for pair in (top_pair, bottom_pair):
        if pair[0] is pair[1]:
            raise ValueError("turnback needs opposite orientations on each pair")
    sweep = Sweep.LEFT_TO_RIGHT if bottom_pair == (UP, DOWN) else Sweep.RIGHT_TO_LEFT
    return TangleWord(TangleType(top_pair, bottom_pair), [Min(1), Max(1, sweep)])


def crossing_word(top_pair: tuple, hand: Hand) -> TangleWord:
    """The two-point diagram with a single crossing."""
    return TangleWord(TangleType(top_pair, (top_pair[1], top_pair[0])), [Cross(1, hand)])


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
    and the turnback at the wall."""
    ty = algebra_type(r, s)

    def gen(pos: int, hand: Hand) -> TangleElement:
        return normalize(TangleWord(ty, [Cross(pos, hand)]), n)

    g = {i: gen(r - i, Hand.FIRST_OVER) for i in range(1, r)}
    ginv = {i: gen(r - i, Hand.FIRST_UNDER) for i in range(1, r)}
    gs = {j: gen(r + j, Hand.FIRST_OVER) for j in range(1, s)}
    turn = None
    if r >= 1 and s >= 1:
        turn = normalize(TangleWord(ty, [Min(r), Max(r, Sweep.RIGHT_TO_LEFT)]), n)
    one = identity_element(r, s, n)

    def prod(*factors: TangleElement) -> TangleElement:
        out = factors[0]
        for f in factors[1:]:
            out = multiply(out, f)
        return out

    results = []

    def record(name: str, lhs, rhs) -> None:
        if lhs is None or rhs is None:
            results.append(RelationResult(name, False, True, "-", "-"))
            return
        results.append(RelationResult(name, True, lhs == rhs, str(lhs), str(rhs)))

    def commuting(family: dict) -> tuple:
        pairs = [(i, j) for i in family for j in family if j >= i + 2]
        if not pairs:
            return None, None
        lhs = [prod(family[i], family[j]) for i, j in pairs]
        rhs = [prod(family[j], family[i]) for i, j in pairs]
        return lhs, rhs

    def braiding(family: dict) -> tuple:
        triples = [(i, i + 1) for i in family if i + 1 in family]
        if not triples:
            return None, None
        lhs = [prod(family[i], family[j], family[i]) for i, j in triples]
        rhs = [prod(family[j], family[i], family[j]) for i, j in triples]
        return lhs, rhs

    def quadratic(family: dict) -> tuple:
        if not family:
            return None, None
        lhs = [prod(x, x) for x in family.values()]
        rhs = [one + (QINV - Q) * x for x in family.values()]
        return lhs, rhs

    def many(name: str, pair: tuple) -> None:
        lhs, rhs = pair
        if lhs is None:
            results.append(RelationResult(name, False, True, "-", "-"))
        else:
            holds = all(a == b for a, b in zip(lhs, rhs))
            results.append(RelationResult(name, True, holds, "; ".join(map(str, lhs)), "; ".join(map(str, rhs))))

    many("down crossings commute at distance", commuting(g))
    many("up crossings commute at distance", commuting(gs))
    many("down braid relation", braiding(g))
    many("up braid relation", braiding(gs))
    many("down quadratic relation", quadratic(g))
    many("up quadratic relation", quadratic(gs))

    if g and gs:
        pairs = [(i, j) for i in g for j in gs]
        lhs = [prod(g[i], gs[j]) for i, j in pairs]
        rhs = [prod(gs[j], g[i]) for i, j in pairs]
        many("down and up crossings commute", (lhs, rhs))
    else:
        many("down and up crossings commute", (None, None))

    def wall_commutes(family: dict) -> tuple:
        if turn is None:
            return None, None
        keys = [i for i in family if i >= 2]
        if not keys:
            return None, None
        return [prod(turn, family[i]) for i in keys], [prod(family[i], turn) for i in keys]

    many("turnback commutes with far down crossings", wall_commutes(g))
    many("turnback commutes with far up crossings", wall_commutes(gs))

    lam = LaurentPoly.monomial(1, -n)
    record(
        "turnback absorbs the near down crossing",
        prod(turn, g[1], turn) if turn is not None and 1 in g else None,
        turn.scaled(lam) if turn is not None and 1 in g else None,
    )
    record(
        "turnback absorbs the near up crossing",
        prod(turn, gs[1], turn) if turn is not None and 1 in gs else None,
        turn.scaled(lam) if turn is not None and 1 in gs else None,
    )
    record(
        "turnback squares to the loop value",
        prod(turn, turn) if turn is not None else None,
        turn.scaled(quantum_int(n)) if turn is not None else None,
    )

    both = turn is not None and 1 in g and 1 in gs
    record(
        "mixed wall relation, turnback first",
        prod(turn, ginv[1], gs[1], turn, g[1]) if both else None,
        prod(turn, ginv[1], gs[1], turn, gs[1]) if both else None,
    )
    record(
        "mixed wall relation, crossing first",
        prod(g[1], turn, ginv[1], gs[1], turn) if both else None,
        prod(gs[1], turn, ginv[1], gs[1], turn) if both else None,
    )

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


def bend_element(element: TangleElement) -> TangleElement:
    out = None
    for connector, coeff in element.terms:
        term = normalize(bend_first(canonical_basis_word(connector)), element.n).scaled(coeff)
        out = term if out is None else out + term
    if out is None:
        ty = element.ty
        out = TangleElement(TangleType((UP,) + ty.top[1:], (UP,) + ty.bottom[1:]), element.n)
    return out


def hecke_to_walled(word: TangleWord, r: int, s: int, n: int) -> TangleElement:
    """Carry an all-down word across the wall, one strand per stage.

    Each stage takes the down strand adjacent to the wall, rotates it to the
    front by conjugation, bends it around the left edge, parks the new UP
    point back against the wall by conjugating with crossing chains, and
    cancels the kink unit the bend introduces.  The rotation and the parking
    chains undo each other positionally, so the identity maps to the
    identity, and at q = 1 each stage flips one top vertex right of the
    wall with the bottom vertex below it, in place."""
    m = r + s
    if word.ty != all_down_type(m):
        raise ValueError(f"expected a word of type {render_type(all_down_type(m))}")
    kink = LaurentPoly.monomial(1, n)
    element = normalize(word, n)
    for t in range(1, s + 1):
        r_t = m - t + 1
        tail = (UP,) * (t - 1)
        block_ty = TangleType((DOWN,) * r_t + tail, (DOWN,) * r_t + tail)
        rotate = TangleWord(block_ty, [Cross(p, Hand.FIRST_OVER) for p in range(1, r_t)])
        unrotate = TangleWord(block_ty, [Cross(p, Hand.FIRST_UNDER) for p in range(r_t - 1, 0, -1)])
        element = multiply(normalize(rotate, n), multiply(element, normalize(unrotate, n)))
        top_chain = TangleWord(
            TangleType((DOWN,) * (r_t - 1) + (UP,) + tail, (UP,) + (DOWN,) * (r_t - 1) + tail),
            [Cross(p, Hand.FIRST_OVER) for p in range(r_t - 1, 0, -1)],
        )
        element = multiply(normalize(top_chain, n), bend_element(element).scaled(kink))
        for k in range(1, r_t):
            step = TangleWord(
                TangleType(
                    (DOWN,) * (k - 1) + (UP,) + (DOWN,) * (r_t - k) + tail,
                    (DOWN,) * k + (UP,) + (DOWN,) * (r_t - k - 1) + tail,
                ),
                [Cross(k, Hand.FIRST_UNDER)],
            )
            element = multiply(element, normalize(step, n))
    return element
