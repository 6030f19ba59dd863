"""Double-commutant verification on mixed tensor space.

The diagram algebra and the quantum-group generators act on the same mixed
tensor space and are supposed to be each other's full commutant.  This
module measures both sides exactly: the rank of the span of the basis
diagram matrices, and the dimension of the space of matrices commuting
with every generator in a sweep, both at an exact rational specialization
of q.  Each matrix is specialized to integers over one denominator, which
no rank depends on.  Containment is proved identically in q once per
distinct local step of the basis words, read off (r, s) by
``tangle.canonical_steps`` with no word built; by functoriality that covers
every basis matrix (``_first_uncommuting_step``).

One eliminator per field: ``_rank_of_rows`` over Q, fraction-free, and
``_rank_up_to`` mod a prime p.  Reducing an integer matrix mod p can only
lower its rank, and the containment sits in between, so

    rank_p(mu0 rows) <= rank_Q(image) <= dim_Q End_U(M) <= sum m_lambda^2,

where m_lambda counts the highest-weight vectors of weight lambda mod p
(``_highest_weight_bound`` proves the right step), and when the two ends
meet, all four are equal.  ``verify_schur_weyl`` decides the walled ranks
this way first, and over Q, from the blocked commutant system, when the
ends differ.

Every image rank follows one rule.  Its lower end is the rank mod p of the
rows of the most populous weight space mu0 alone, taken in a fixed seeded
order by ``_rank_up_to``, which stops as soon as the rank reaches a proved
upper end.  Leaving rows out of every matrix is a linear map on their span,
so it can only lower the rank.  The upper ends are (r+s)! when n >= r + s,
which the (r+s)! basis matrices give with no certificate; the
highest-weight count for the walled rank; and for the all-down rank behind
``annihilatorMatch``, the RSK count ``_rsk_count``, by quantum Schur-Weyl
duality (``verify_schur_weyl`` says why).  The row order decides only how
soon the elimination stops, never what is reported.  If the lower end
meets none of them, the rank is taken over Q from the identity

    rank_Q(R) = rank_Q(R|C) + rank_Q(K.R),

with R the integer rows, C the positions of the mu0 block and the rows of
K a basis of the left kernel of R|C (``_rank_through_block``).  Each row of
R|C carries a tag column, and eliminating the columns of C alone is a run
of invertible row operations, so the rows it leaves, which hold tags only,
are such a basis: each names the combination of full rows summed into K.R.

Both sides read one weight per label, ``rep.label_weight``.  The sweep is
E(i) and F(i) alone: whatever intertwines them keeps every weight space and
commutes with every Cartan element, identically in q and at every nonzero
rational q0, q0 = +-1 included (the weight lemma of ``_weight_classes``), so
the commutant's unknowns lie inside the weight spaces.

The bridge to the one-wall-free picture is the strand-bending transport
``skein.hecke_to_walled``; its classical shadow at q = 1, kept here, is the
flip that exchanges top and bottom vertices on one side of the wall.
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .laurent import ExactRational
from .qgroup import E, F, UGenerator, gen_on_mixed
from .rep import (
    MultiIndex,
    OperatorMatrix,
    label_code,
    label_tuples,
    label_weight,
    local_block,
    specialized_word_matrices,
)
from .tangle import (
    Connector,
    Orientation,
    TangleType,
    TangleWord,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    canonical_steps,
    enumerate_connectors,
    render_type,
)

__all__ = [
    "DualityReport",
    "ResourceLimitError",
    "classical_flip",
    "commutant_dim",
    "generator_sweep",
    "image_rank",
    "verify_schur_weyl",
]

VARIABLE_BUDGET = 10_000

#: The prime ``verify_schur_weyl`` decides the ranks modulo: 2^30 - 35,
#: the largest prime below 2^30, so a product of two residues stays below 2^60.
CHAIN_PRIME = 1073741789

#: The prime taken instead when ``CHAIN_PRIME`` divides q0's numerator or
#: denominator: 2^30 - 41, the next prime below 2^30 (``_chain_prime``).
SECOND_CHAIN_PRIME = 1073741783

#: Seed of the order in which ``image_rank`` takes the weight-space rows.  It
#: decides only how many rows are ranked before the rank meets its upper
#: end: in basis order the first rows are nearly dependent, and at (2, 3, 3)
#: 601 of 720 rows are needed where the shuffled order needs 132.
ROW_ORDER_SEED = 1


class ResourceLimitError(RuntimeError):
    """A commutant or rank job would exceed the configured size budget."""

    @classmethod
    def check(cls, what: str, size: int, unit: str, budget: int) -> None:
        """Refuse a job of ``size`` units over ``budget``, with one message for every budget."""
        if size > budget:
            raise cls(f"{what} has {size} {unit}, over the budget of {budget}")


# -- exact linear algebra over the integers -----------------------------------


def _rank_of_rows(rows: Iterable[Mapping[Hashable, int]], stop: Optional[int] = None) -> int | tuple[int, list[dict]]:
    """Rank of sparse integer rows over Q (mod a prime: ``_rank_up_to``).

    Each row maps column keys to integers; absent keys are zero.  Columns
    are eliminated in sorted order: each step picks the sparsest row holding
    the column as pivot and combines it into every other such row, so only
    occupied positions are ever touched.  The rows passed in are not changed.

    Given ``stop``, only the columns below it are eliminated, and the pair
    (pivots found, the rows left) is returned.  With the rows that vanish,
    which are dropped, the pivots and the rows left are the input rows under
    an invertible matrix, and no row left holds a column below ``stop``;
    ``_rank_through_block`` reads a kernel off them.

    The elimination is fraction-free.  Rows are divided by their content
    once; each combination cross-multiplies the two rows and divides out the
    content, so every intermediate entry stays an exact integer of moderate
    size.

    >>> _rank_of_rows([{0: 1, 1: 2}, {0: -3, 1: -6}, {2: 3}])
    2
    >>> _rank_of_rows([{0: 1, 1: 2}, {0: 3, 1: 13}])
    2
    >>> _rank_of_rows([{0: 1, 5: 1}, {0: 2, 7: 1}], 1)
    (1, [{7: 1, 5: -2}])
    """
    work: dict[int, dict] = {}
    holders: dict[Hashable, set[int]] = {}
    for rid, row in enumerate(rows):
        ints = {col: value for col, value in row.items() if value}
        g = gcd(*ints.values())
        if g > 1:
            ints = {col: value // g for col, value in ints.items()}
        if not ints:
            continue
        work[rid] = ints
        for col in ints:
            holders.setdefault(col, set()).add(rid)
    rank = 0
    for col in sorted(holders):
        if stop is not None and col >= stop:
            break
        candidates = holders[col]
        if not candidates:
            continue
        piv = min(candidates, key=lambda rid: len(work[rid]))
        pivot = work.pop(piv)
        for c in pivot:
            holders[c].discard(piv)
        pv = pivot[col]
        for rid in list(candidates):
            row = work[rid]
            f = gcd(row[col], pv)
            a, b = pv // f, row[col] // f
            reduced = {c: a * value for c, value in row.items()}
            for c, value in pivot.items():
                entry = reduced.get(c, 0) - b * value
                if entry:
                    if c not in reduced:
                        holders[c].add(rid)
                    reduced[c] = entry
                elif c in reduced:
                    del reduced[c]
                    holders[c].discard(rid)
            if not reduced:
                del work[rid]
                continue
            g = gcd(*reduced.values())
            if g > 1:
                reduced = {c: value // g for c, value in reduced.items()}
            work[rid] = reduced
        rank += 1
    return rank if stop is None else (rank, list(work.values()))


def _rank_through_block(rows: Iterable[Mapping[int, int]], block: Collection[int]) -> int:
    """Rank over Q of integer rows R, from the columns C in ``block`` first:

        rank_Q(R) = rank_Q(R|C) + rank_Q(K.R),

    where the rows of K are a basis of the left kernel of R|C.  The left
    kernel of R lies in that of R|C, which is span(K), so dim ker(R) =
    #K - rank(K.R), and #K = #R - rank(R|C).

    Row t of R|C carries one tag, a 1 in column ``stop + t`` past every
    column of C, and ``_rank_of_rows`` eliminates the columns of C alone.
    Its steps are invertible row operations, and dividing out a content
    scales a row by a nonzero rational, so the left rows, which hold tags
    only, are a basis of the left kernel of R|C: each is the combination
    of the rows of R its tags name.  The residual rows K.R vanish on C, so
    they are summed from the entries outside C alone, which are all that
    is kept of the rows.
    """
    stop = max(block, default=-1) + 1
    tagged, rest = [], []
    for t, row in enumerate(rows):
        tagged.append({stop + t: 1})
        rest.append({})
        for c, v in row.items():
            (tagged[t] if c in block else rest[t])[c] = v
    rank, kernel = _rank_of_rows(tagged, stop)
    residuals = []
    for combination in kernel:
        residual: dict[int, int] = {}
        for tag, k in combination.items():
            for c, v in rest[tag - stop].items():
                residual[c] = residual.get(c, 0) + k * v
        residuals.append(residual)
    return rank + _rank_of_rows(residuals)


def _rank_up_to(rows: Iterable[Mapping[Hashable, int]], p: int, bound: int) -> int:
    """Rank mod the prime p of the rows taken in order, stopped as soon as it
    reaches ``bound``: no row after that one is read.  It is the one
    eliminator mod p; with ``bound`` the number of rows, it ranks them all.

    Each row is reduced mod p and packed into one int, one slot of ``width``
    bits per column, so that every step below is a big-integer operation
    over the whole row.  A row is reduced against the pivots in the order
    they were found, each with a leading 1 and every entry below p: a pivot
    whose column holds e in the row is added (p - e) times, which clears
    that column mod p and adds less than p^2 to every slot.  There are fewer
    than ``bound`` pivots, so no slot outgrows its width.  Then every slot
    is reduced mod p at once (``reduced``); a row with a nonzero slot left
    becomes a pivot, scaled to a leading 1 at its lowest one.

    >>> _rank_up_to([{0: 1, 1: 2}, {0: 3, 1: 13}, {2: 1}], 7, 3)
    2
    >>> _rank_up_to([{0: 1}, {1: 1}, {2: 1}], 7, 2)
    2
    """
    k = p.bit_length()
    nbytes = (2 * k + bound.bit_length() + 8) // 8
    width, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    slots: dict[Hashable, int] = {}
    pivots: list[tuple[int, int]] = []  # (bit offset of the leading slot, packed row)

    def reduced(packed: int) -> int:
        """Every slot reduced mod p.  As 2^k = c mod p, the bits of each slot
        above the k-th fold back onto its low k bits times c, which shrinks
        the slot until it is below 2^k <= 2p; then p comes off every slot
        that still holds p or more."""
        ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(slots), "little")
        c = (1 << k) % p
        while high := packed >> k & ones * ((1 << width - k) - 1):
            packed = (packed & ones * ((1 << k) - 1)) + c * high
        return packed - ((packed + ones * ((1 << k) - p)) >> k & ones) * p

    for row in rows if bound > 0 else ():
        residues = {slots.setdefault(col, len(slots)): residue for col, value in row.items() if (residue := value % p)}
        data = bytearray(nbytes * len(slots))
        for slot, residue in residues.items():
            data[slot * nbytes : (slot + 1) * nbytes] = residue.to_bytes(nbytes, "little")
        packed = int.from_bytes(data, "little")
        for offset, pivot in pivots:
            if e := (packed >> offset & mask) % p:
                packed += (p - e) * pivot
        if packed := reduced(packed):
            lead = ((packed & -packed).bit_length() - 1) // width * width
            pivots.append((lead, reduced(packed * pow(packed >> lead & mask, -1, p))))
            if len(pivots) == bound:
                break
    return len(pivots)


def _chain_prime(q0: ExactRational) -> Optional[int]:
    """The first of ``CHAIN_PRIME`` and ``SECOND_CHAIN_PRIME`` that divides
    neither the numerator nor the denominator of q0, or None.

    >>> _chain_prime(Fraction(5, 3)), _chain_prime(Fraction(CHAIN_PRIME, 3))
    (1073741789, 1073741783)
    >>> _chain_prime(Fraction(CHAIN_PRIME, SECOND_CHAIN_PRIME)) is None
    True
    """
    q0 = Fraction(q0)
    return next((p for p in (CHAIN_PRIME, SECOND_CHAIN_PRIME) if q0.numerator % p and q0.denominator % p), None)


def _rsk_count(n: int, m: int) -> int:
    """The sum of (f^lambda)^2 over the partitions lambda of m with at most
    n rows, each f^lambda by the hook length formula.  By RSK it counts the
    permutations of m whose longest decreasing subsequence has at most n
    terms, and it is dim End_U(V^(x)m) (``verify_schur_weyl``).

    >>> [_rsk_count(2, m) for m in range(1, 7)]
    [1, 2, 5, 14, 42, 132]
    """

    def partitions(rest: int, largest: int, rows: int):
        if rest == 0:
            yield ()
        elif rows:
            for part in range(min(rest, largest), 0, -1):
                for tail in partitions(rest - part, part, rows - 1):
                    yield (part,) + tail

    total = 0
    for shape in partitions(m, m, n):
        columns = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
        hooks = prod(part - j + columns[j] - i - 1 for i, part in enumerate(shape) for j in range(part))
        total += (factorial(m) // hooks) ** 2
    return total


# -- the two sides of the duality ---------------------------------------------


def generator_sweep(n: int) -> tuple[UGenerator, ...]:
    """The Chevalley generators E(i) and F(i) for i < n.

    They generate the integral form with every divided power, since E^l =
    [l]! E^(l) and F^l = [l]! F^(l) (``_first_uncommuting_step``), and
    with every Cartan element, by the weight lemma of ``_weight_classes``.
    """
    return tuple(gen for i in range(1, n) for gen in (E(i), F(i)))


def _first_uncommuting_step(n: int, r: int, s: int) -> Optional[tuple[TangleWord, UGenerator]]:
    """Symbolic proof that every basis matrix commutes with the whole algebra.

    The basis matrices are the products of the slice matrices of the
    canonical basis words, the words ``image_rank`` specializes: those of
    the walled type (r, s), and when n < r + s, where ``verify_schur_weyl``
    stops the all-down rank at the RSK count, those of the all-down type on
    r + s points too.  A slice matrix is a local block (a crossing on 2
    points, a valley from 2 points to none, a peak from none to 2) tensored
    with identities.  The distinct local steps of those words are read off
    (r, s) by ``tangle.canonical_steps``, keyed by the points the slice
    touches and the slice moved to position 1, and proved there from the
    canonical layout; the all-down ones are its case (r + s, 0), the Hecke
    block X+(1) on (DOWN, DOWN), added last.  No connector is enumerated and
    no basis word is built.  Each step is checked exactly in q against
    ``generator_sweep(n)``, E(i) and F(i); its matrix is ``rep.local_block``
    on those points alone, and the first failing step in the table's order
    is the one reported.

    That covers K(i)^+-1 and every other Cartan element, by the weight
    lemma of ``_weight_classes``: for a block X with top t and bottom b,
    X.E_b = E_t.X and X.F_b = F_t.X give X.C_b = C_t.X, where C =
    E(i)F(i) - F(i)E(i) is diagonal with entries [d], d = w_i - w_(i+1).
    So X[a, b] ([d_b] - [d_a]) = 0 in the domain Z[q, q^-1]: X keeps every
    weight difference, and as a slice keeps #DOWN - #UP, every weight.  The
    comultiplication puts only E, F and powers of K on the block's legs, so
    ``id ⊗ block ⊗ id`` intertwines E(i) and F(i) on any number of points,
    and so does every product of slice matrices.  This is the functoriality
    argument of Reshetikhin and Turaev, "Ribbon graphs and their invariants
    derived from quantum groups", Comm. Math. Phys. 127 (1990).

    That covers every divided power as well.  If X intertwines E, it
    intertwines E^l = [l]! E^(l), so [l]! (X E^(l) - E^(l) X) = 0; [l]! is
    a nonzero element of Z[q, q^-1], a domain, so X intertwines E^(l), and
    likewise F^(l).  The certificate thus holds identically in q for the
    whole integral form, and so after any specialization to any ring R
    (Lusztig, "Quantum groups at roots of 1", Geom. Dedicata 35 (1990)).
    Returns the first failing step, as a one-slice word, and generator, or
    None.
    """
    steps = dict.fromkeys(canonical_steps(r, s) + (canonical_steps(r + s, 0) if n < r + s else ()))
    sweep = generator_sweep(n)
    actions: dict[tuple, OperatorMatrix] = {}  # (generator, the points of a block's side) -> its action
    for top, unit in steps:
        block = local_block(n, top, unit)
        bottom = block.col_type
        for gen in sweep:
            for side in (top, bottom):
                if (gen, side) not in actions:
                    actions[gen, side] = gen_on_mixed(gen, side, n)
            if block.matmul(actions[gen, bottom]) != actions[gen, top].matmul(block):
                return TangleWord(TangleType(top, bottom), [unit]), gen
    return None


def _weight_classes(n: int, boundary: Sequence[Orientation]) -> list[list[MultiIndex]]:
    """The weight spaces of the boundary: its labels grouped in one pass by
    their weight (``rep.label_weight``), classes in the order of their
    first label, each in label order.

    The weight lemma, which the rest of this module cites: a matrix X
    between two boundaries with the same #DOWN - #UP that intertwines E(i)
    and F(i) for every i < n keeps every weight space and intertwines every
    Cartan element.  X intertwines C = E(i)F(i) - F(i)E(i), which acts on a
    label of weight w by [w_i - w_(i+1)] (Jantzen, Lectures on Quantum
    Groups, 1996, section 4), so X[a, b] ([d_b] - [d_a]) = 0, with d_a and
    d_b those differences at the labels a and b.  k -> [k] is injective on
    the integers in Z[q, q^-1], a domain, and at every nonzero rational q0:
    for q0 > 0, q0 != 1, it is strictly increasing; for q0 < 0 it only
    picks up the sign (-1)^(k+1) of [k] at -q0; at q0 = +-1 it is k or
    (-1)^(k+1) k.  So X keeps apart labels with different w_i - w_(i+1).
    Every weight sums to #DOWN - #UP, so those n - 1 differences fix it: X
    preserves every weight space, and each Cartan element, K(i)^+-1 or any
    q^h, is the same scalar on both ends of every entry of X.
    """
    classes: dict[tuple[int, ...], list[MultiIndex]] = {}
    for label in label_tuples(n, len(boundary)):
        classes.setdefault(label_weight(n, boundary, label), []).append(label)
    return list(classes.values())


def image_rank(n: int, r: int, s: int, q0: ExactRational, upper: Optional[int] = None) -> int:
    """Rank over Q of the span of all basis diagram matrices at q0.

    Each of the (r+s)! connectors is rendered from its canonical basis word
    directly at q0 by ``specialized_word_matrices``, which is exact because
    specializing q is a ring homomorphism.  Each integer matrix, its scale
    dropped, is flattened to a sparse vector over the occupied positions:
    the entry at the label codes (row, col) (``rep.label_code``) goes to
    position row * n^(r+s) + col.

    The rank is first bounded from below by the rows of the most populous
    weight space, rendered alone and ranked mod the prime ``_chain_prime``
    picks for q0 by ``_rank_up_to`` in the order ``ROW_ORDER_SEED``
    shuffles the words into, stopped at the smallest proved upper end:
    (r+s)! when n >= r + s, since (r+s)! matrices span at most (r+s)!
    dimensions, and ``upper``, which a caller passes only when it has
    proved it.  Leaving rows out of every matrix is a linear map on their
    span, and reducing integer rows mod any prime can only lower their
    rank, so a lower end that reaches an upper end is the exact rank over
    Q, and is returned.  Beyond (r+s)! this function proves no upper end of
    its own: it reads no commutant and no RSK count, so a caller that
    compares its rank with one compares two independent numbers.

    Otherwise, or with no upper end or no such prime at all, every word is
    rendered once, and the rank is taken over Q by ``_rank_through_block``:
    the rank of the rows' mu0 block, positions whose row and column labels
    both lie in the most populous weight space, plus the rank of the
    residuals of its left kernel on the full rows.

    A label count n below 1, then a negative strand count, is refused
    first.  The budget is then charged with the (r+s)! basis words and with
    the n^(r+s) labels, before any label is read.
    """
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    ty = algebra_type(r, s)
    m = r + s
    ResourceLimitError.check("the basis dependency system", factorial(m), "variables", VARIABLE_BUDGET)
    ResourceLimitError.check("the label index", n**m, "labels", VARIABLE_BUDGET)
    size = n**m
    words = [canonical_basis_word(connector) for connector in enumerate_connectors(ty)]

    def vectors(batch: list[TangleWord], start=None) -> Iterator[dict[int, int]]:
        for rows, _ in specialized_word_matrices(batch, n, q0, start):
            yield {row * size + col: value for row, cols in rows.items() for col, value in cols.items()}

    weight_space = {label_code(n, label) for label in max(_weight_classes(n, ty.top), key=len)}
    ends = ([factorial(m)] if n >= m else []) + ([upper] if upper is not None else [])
    p = _chain_prime(q0)
    if ends and p is not None:
        bound = min(ends)
        shuffled = words[:]
        random.Random(ROW_ORDER_SEED).shuffle(shuffled)
        # The shuffled rows mostly reach the end within the first bound of them, so the
        # words are rendered 2 * bound at a time, and the rest only if the rank falls short.
        chunks = (vectors(shuffled[i : i + 2 * bound], weight_space) for i in range(0, len(shuffled), 2 * bound))
        if _rank_up_to((row for chunk in chunks for row in chunk), p, bound) == bound:
            return bound
    block = {row * size + col for row in weight_space for col in weight_space}
    return _rank_through_block(vectors(words), block)


def commutant_dim(n: int, r: int, s: int, q0: ExactRational) -> int:
    """Dimension over Q of the space of matrices commuting with the algebra
    at q0, from the blocked system S.

    The weight lemma of ``_weight_classes`` shows that no [k] with k != 0
    vanishes at a nonzero rational q0, and that a matrix commuting with
    every E(i) and F(i) preserves every weight space and commutes with
    every Cartan element.  As the specialized E^l is [l]! E^(l), such a
    matrix commutes with every E^(l) too, likewise F^(l).  So the sweep
    ``generator_sweep(n)`` is enough, and only the entries inside one
    weight space are unknowns.  E(i) and F(i) give the sparse homogeneous
    system S: [X, A] = 0, one row per matrix position it touches, solved by
    exact elimination over Q, and the answer is its nullity.  Each A enters
    as integers over its one denominator, which scales its whole system.

    This is the Q route of ``verify_schur_weyl``, which runs it only when
    the highest-weight count (``_highest_weight_bound``), an upper end for
    nullity_Q(S), is not met.  The weight lemma needs [k] != 0, so S is
    not the commutant over F_p, where [k] vanishes when q0 is a root of
    unity (Lusztig, "Quantum groups at roots of 1", Geom. Dedicata 35
    (1990)).

    A label count n below 1 is refused before any charge.  The budget is
    charged with the blocked unknowns, before E or F is rendered or any row
    is built.  Sorting the labels into weight spaces reads the weight of
    every label, fixed by its n - 1 differences; an instance with more of
    those than the budget is charged with them instead, and refused before
    any weight is read.
    """
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    boundary = algebra_type(r, s).top
    ResourceLimitError.check("the weight signature table", (n - 1) * n ** (r + s), "variables", VARIABLE_BUDGET)
    classes = _weight_classes(n, boundary)
    unknown_count = sum(len(block) ** 2 for block in classes)
    ResourceLimitError.check("the commutant system", unknown_count, "variables", VARIABLE_BUDGET)
    unknowns = [(row, col) for block in classes for row in block for col in block]
    rows = []
    for gen in generator_sweep(n):
        by_row: dict[MultiIndex, list] = {}
        by_col: dict[MultiIndex, list] = {}
        action, _ = gen_on_mixed(gen, boundary, n).evaluate(q0)
        for (row_label, col_label), value in action.items():
            by_row.setdefault(row_label, []).append((col_label, value))
            by_col.setdefault(col_label, []).append((row_label, value))
        system: dict[tuple[MultiIndex, MultiIndex], dict[int, int]] = {}
        for t, (left, right) in enumerate(unknowns):
            # X[left, right] enters (XA)[left, j] through A[right, j] and
            # (AX)[i, right] through A[i, left].
            for j, value in by_row.get(right, ()):
                row = system.setdefault((left, j), {})
                row[t] = row.get(t, 0) + value
            for i, value in by_col.get(left, ()):
                row = system.setdefault((i, right), {})
                row[t] = row.get(t, 0) - value
        rows.extend(system.values())
    return len(unknowns) - _rank_of_rows(rows)


def _highest_weight_bound(n: int, r: int, s: int, q0: ExactRational, p: int) -> Optional[int]:
    """An upper end for dim_Q End_U(M) from ranks on single weight spaces
    mod the prime p: the sum of m_lambda^2, where m_lambda is the dimension
    over F_p of P_lambda = {v in M_lambda : v.E(i) = 0 for every i}, the
    highest-weight vectors of weight lambda.  None when the generation check
    below fails.

    Rows act on the right, v -> v.A, as ``gen_on_mixed`` keys its entries
    (input, output); E(i) and F(i) are its integers at q0 reduced mod p,
    and p divides neither the numerator nor the denominator of q0, so each
    is a unit times the matrix over F_p, which changes no rank below.  Let S be the integer blocked
    system of ``commutant_dim``, whose nullity over Q is dim_Q End_U(M).
    Reducing mod p can only lower a rank, so nullity_Q(S) <= nullity_p(S).
    A solution X of S mod p keeps each weight space M_mu.  As it commutes
    with every E(i), it maps P_lambda into itself; as it commutes with every
    F(i), X is fixed by its restriction to P = sum of the P_lambda wherever
    M is spanned by P.(F-words).  So nullity_p(S) <= sum m_lambda^2.

    The generation check is one test per weight mu.  Let E_mu be the map
    M_mu -> sum_i M_(mu+alpha_i), and F_mu the map back from all labels of
    each M_(mu+alpha_i).  Then M_mu = P_mu + sum_i M_(mu+alpha_i).F(i) holds
    iff rank_p(F_mu E_mu) = rank_p(E_mu), and downward induction over the
    weights gives M = P.U^-.  Every step happens in the same integer
    matrices mod p, so the bound holds at every q0 with p prime to its
    numerator and denominator, q0 = +-1 included, with no appeal to complete
    reducibility.  A bound too low would stop the walled rank short, and
    ``annihilatorMatch`` or ``faithfulness`` would fail.
    """
    boundary = algebra_type(r, s).top
    classes = _weight_classes(n, boundary)
    weight_of = {label: w for w, block in enumerate(classes) for label in block}
    raising: dict[MultiIndex, dict] = {}  # label -> its row of E: (i, output) -> value
    landing: dict[int, list[dict]] = {}  # weight mu -> the rows of F_mu
    for gen in generator_sweep(n):
        action, _ = gen_on_mixed(gen, boundary, n).evaluate(q0)
        lowered: dict[MultiIndex, dict] = {}
        for (source, target), value in action.items():
            if isinstance(gen, E):
                raising.setdefault(source, {})[gen.i, target] = value
            else:
                lowered.setdefault(source, {})[target] = value
        for row in lowered.values():
            landing.setdefault(weight_of[next(iter(row))], []).append(row)
    bound = 0
    for w, block in enumerate(classes):
        top = _rank_up_to([raising.get(label, {}) for label in block], p, len(block))
        if top:
            products = []
            for row in landing.get(w, ()):
                product: dict = {}
                for label, value in row.items():
                    for col, entry in raising.get(label, {}).items():
                        product[col] = product.get(col, 0) + value * entry
                products.append(product)
            if _rank_up_to(products, p, len(products)) != top:
                return None
        bound += (len(block) - top) ** 2
    return bound


# -- the verification report --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ClaimResult:
    name: str
    holds: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class DualityReport:
    n: int
    r: int
    s: int
    q0: Fraction
    image_rank: int
    commutant_dim: int
    annihilator_dim: int
    hecke_annihilator_dim: int
    faithful: bool
    claims: tuple[ClaimResult, ...]
    timings: tuple[tuple[str, float], ...]

    @property
    def all_pass(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "q0": str(self.q0),
            "imageRank": self.image_rank,
            "commutantDim": self.commutant_dim,
            "annihilatorDim": self.annihilator_dim,
            "heckeAnnihilatorDim": self.hecke_annihilator_dim,
            "faithful": self.faithful,
            "allPass": self.all_pass,
            "claims": [dataclasses.asdict(claim) for claim in self.claims],
            "timingsSeconds": {name: seconds for name, seconds in self.timings},
        }


def verify_schur_weyl(n: int, r: int, s: int, q0: ExactRational) -> DualityReport:
    """Run the double-commutant checks and collect the verdicts.

    Four claims: every basis matrix commutes with every sweep generator
    identically in q, proved by ``_first_uncommuting_step`` once per local
    step that ``tangle.canonical_steps`` reads off (r, s); the
    image rank equals the commutant dimension at the specialization; the
    two annihilator defects agree; the action is faithful exactly when n is
    at least r + s.  A failed claim is recorded in the report, never raised.
    The duality holds at every invertible q, so the ranks are compared at
    the requested point only, and a mismatch there is a failure.

    The commutation claim is checked first.  The walled ranks are then
    decided mod the prime p that ``_chain_prime`` picks, ``CHAIN_PRIME``
    unless it divides q0's numerator or denominator, from the chain

        rank_p(mu0 rows) <= rank_Q(image) <= dim_Q End_U(M) <= sum m_lambda^2.

    The image rows are integer matrices, and reducing them mod p, or leaving
    rows out, can only lower their rank: that gives the left step.  The
    middle step is the commutation claim, which puts the image inside the
    commutant.  The right end is the highest-weight count
    ``_highest_weight_bound``, which proves its own step whenever its
    generation check passes.  So when that check and the claim pass and the
    two ends are equal, all four numbers are equal, and the mod-p ones are
    the exact ranks over Q.  ``image_rank`` takes the count as its upper end
    and stops once its rows reach it; when they do not, it ranks its rows
    over Q through their mu0 block, and the commutant dimension is taken
    from the blocked system (``commutant_dim``), over Q too.  Only that
    route can report a mismatch.  With the claim failed, or both primes
    dividing q0's numerator or denominator, there is no chain and no upper
    end is passed: an image rank that does not meet (r+s)! is ranked over Q.
    Each side calls ``image_rank`` once.

    A label count n below 1, then a negative strand count, is refused
    first.  Before any generator or diagram is rendered, the instance is
    charged with its label-weight table, as in ``commutant_dim``, with its
    (r+s)! basis words, as in ``image_rank``, and with the |mu0|^2
    positions each word's mu0 rows occupy, the width of every row and pivot
    of the image rank.  The blocked system's own charge applies on the Q
    route alone.

    The all-down rank behind ``annihilatorMatch`` has the same chain on
    V^(x)m, m = r + s, with the RSK count ``_rsk_count(n, m)`` as its right
    end when n < m; for n >= m, m! needs no certificate.  When n < m the
    commutation pass certifies the Hecke block too, the one local step of
    every all-down basis word (``tangle.canonical_steps(m, 0)``), which puts
    the all-down image inside End_U(V^(x)m), and End_U(V^(x)m) has the RSK count
    as its dimension at every rational q0.  That is quantum Schur-Weyl
    duality (Jimbo, Lett. Math. Phys. 11 (1986); over every ring, Du,
    Parshall and Scott, Comm. Math. Phys. 195 (1998)), and it needs only
    that no [k] vanishes at q0, which holds at every nonzero rational q0
    (``_weight_classes``).  Then the sweep gives every divided power
    (``commutant_dim``) and weight projection (the weight lemma of
    ``_weight_classes``), so End_U(V^(x)m) is the commutant of the
    q-Schur algebra, which Du, Parshall and Scott show to be the image of
    the Hecke algebra H_m(q0).  H_m(q0) is semisimple, since its Poincare
    polynomial, the product of q0^(k-1) [k] for k <= m, does not vanish
    (Gyoja and Uno, J. Math. Soc. Japan 41 (1989)); so the image is the sum
    of End(S^lambda) over the Specht modules S^lambda in V^(x)m, those with
    at most n rows, of dimension f^lambda.  A wrong count cannot pass: one
    too high is never reached, and the rank is taken over Q; one too low
    stops the rank short, and ``annihilatorMatch`` fails.
    """
    if n < 1:
        raise ValueError(f"label count n must be at least 1, got {n}")
    boundary = algebra_type(r, s).top
    q0 = Fraction(q0)
    m = r + s
    p = _chain_prime(q0)
    ResourceLimitError.check("the weight signature table", (n - 1) * n**m, "variables", VARIABLE_BUDGET)
    ResourceLimitError.check("the basis dependency system", factorial(m), "variables", VARIABLE_BUDGET)
    mu0 = max(len(block) for block in _weight_classes(n, boundary))
    ResourceLimitError.check("the weight-space rank", mu0**2, "variables", VARIABLE_BUDGET)
    started = time.perf_counter()
    failure = _first_uncommuting_step(n, r, s)
    commutation_seconds = time.perf_counter() - started

    chain = p is not None and failure is None
    started = time.perf_counter()
    upper = _highest_weight_bound(n, r, s, q0, p) if chain else None
    rank = image_rank(n, r, s, q0, upper)
    dim = rank if rank == upper else commutant_dim(n, r, s, q0)
    ranks_seconds = time.perf_counter() - started

    started = time.perf_counter()
    all_down_rank = image_rank(n, m, 0, q0, _rsk_count(n, m) if chain and n < m else None)
    tangle_ann = factorial(m) - rank
    hecke_ann = factorial(m) - all_down_rank
    timings = (
        ("commutation", commutation_seconds),
        ("ranks", ranks_seconds),
        ("annihilators", time.perf_counter() - started),
    )

    faithful = tangle_ann == 0
    claims = (
        ClaimResult(
            "commutation",
            failure is None,
            "all basis matrices commute with the sweep symbolically"
            if failure is None
            else f"slice block {failure[0]} does not intertwine {failure[1]}",
        ),
        ClaimResult("rankMatch", rank == dim, f"image rank {rank}, commutant dimension {dim} at q = {q0}"),
        ClaimResult(
            "annihilatorMatch",
            tangle_ann == hecke_ann,
            f"walled side {tangle_ann}, all-down side {hecke_ann}",
        ),
        ClaimResult(
            "faithfulness",
            faithful == (n >= r + s),
            f"annihilator {tangle_ann} with n = {n}, r + s = {m}",
        ),
    )
    return DualityReport(
        n=n,
        r=r,
        s=s,
        q0=q0,
        image_rank=rank,
        commutant_dim=dim,
        annihilator_dim=tangle_ann,
        hecke_annihilator_dim=hecke_ann,
        faithful=faithful,
        claims=claims,
        timings=timings,
    )


# -- the classical q = 1 flip -------------------------------------------------


def classical_flip(connector: Connector, r: int, s: int) -> Connector:
    """Flip a permutation diagram across the wall after column r.

    The input is a totally propagating all-down connector on r + s strands.
    To the right of the wall each top vertex trades places with the bottom
    vertex directly below it; the strands keep their endpoints otherwise,
    producing a walled matching.  This is the q = 1 shadow of the strand
    transport realized by ``hecke_to_walled``.
    """
    m = r + s
    if connector.ty != all_down_type(m):
        raise ValueError(f"expected a connector of type {render_type(all_down_type(m))}")
    if not connector.is_totally_propagating():
        raise ValueError("the flip is only defined for totally propagating diagrams")

    def flip_vertex(vertex: tuple) -> tuple:
        side, pos = vertex
        if pos <= r:
            return vertex
        return ("B" if side == "T" else "T", pos)

    edges = [(flip_vertex(start), flip_vertex(end)) for start, end in connector.edges]
    return Connector(algebra_type(r, s), edges)
