"""Double-commutant verification on mixed tensor space.

The diagram algebra and the quantum-group generators act on the same mixed
tensor space and are supposed to be each other's full commutant.  This
module measures both sides exactly: the rank of the span of the basis
diagram matrices, and the dimension of the space of matrices commuting
with every generator in a sweep, both at an exact rational specialization
of q via fraction-free integer elimination.  Containment is proved
identically in q once per elementary slice of the basis words, which by
functoriality covers every basis matrix (``_first_uncommuting_step``).

The bridge to the one-wall-free picture is the strand-bending transport
from the skein module, re-exported here; its classical shadow at q = 1 is
the flip that exchanges top and bottom vertices on one side of the wall.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .laurent import ExactRational
from .qgroup import E, F, K, UGenerator, gen_on_mixed
from .rep import MultiIndex, label_tuples, slice_matrix, specialized_word_matrices
from .skein import bend_element, bend_first, hecke_to_walled
from .tangle import (
    Connector,
    Max,
    TangleType,
    TangleWord,
    algebra_type,
    all_down_type,
    apply_slice,
    canonical_basis_word,
    enumerate_connectors,
    render_type,
)

__all__ = [
    "DualityReport",
    "ResourceLimitError",
    "annihilator_dims",
    "bend_element",
    "bend_first",
    "classical_flip",
    "commutant_dim",
    "generator_sweep",
    "hecke_to_walled",
    "image_rank",
    "verify_schur_weyl",
]

VARIABLE_BUDGET = 10_000


class ResourceLimitError(RuntimeError):
    """A commutant or rank job would exceed the configured size budget."""


# -- exact linear algebra over the rationals ----------------------------------


def _rank_of_rows(rows: Iterable[Mapping[Hashable, ExactRational]]) -> int:
    """Rank over the rationals of sparse rows by fraction-free elimination.

    Each row maps column keys to exact rationals; absent keys are zero.
    Rows are scaled to coprime integers once.  Columns are eliminated in
    sorted order: each step picks the sparsest row holding the column as
    pivot, cross-multiplies it into every other such row and divides out
    the content, so every intermediate entry stays an exact integer of
    moderate size and only occupied positions are ever touched.

    >>> _rank_of_rows([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}, {2: 3}])
    2
    """
    work: dict[int, dict] = {}
    holders: dict[Hashable, set[int]] = {}
    for rid, row in enumerate(rows):
        den = lcm(*(value.denominator for value in row.values()))
        ints = {col: value.numerator * (den // value.denominator) for col, value in row.items() if value}
        if not ints:
            continue
        g = gcd(*ints.values())
        if g > 1:
            ints = {col: value // g for col, value in ints.items()}
        work[rid] = ints
        for col in ints:
            holders.setdefault(col, set()).add(rid)
    rank = 0
    for col in sorted(holders):
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
    return rank


# -- the two sides of the duality ---------------------------------------------


def generator_sweep(n: int, level: int) -> tuple[UGenerator, ...]:
    """Cartan units both ways and all divided powers up to the given level.

    A matrix commutes with the whole acting algebra exactly when it commutes
    with this sweep; on a tensor power of total degree at most ``level`` the
    higher divided powers act as zero, so the sweep is finite.
    """
    gens: list[UGenerator] = []
    for i in range(1, n):
        gens.append(K(i, 1))
        gens.append(K(i, -1))
        for l in range(1, level + 1):
            gens.append(E(i, l))
            gens.append(F(i, l))
    return tuple(gens)


def _first_uncommuting_step(n: int, r: int, s: int) -> Optional[tuple[TangleWord, UGenerator]]:
    """Symbolic proof that every basis matrix commutes with the whole sweep.

    The basis matrices are the products of the slice matrices of the
    canonical basis words, the words ``image_rank`` specializes.  A slice
    matrix is a local block (a crossing on 2 points, a valley from 2 points
    to none, a peak from none to 2) tensored with identities.  Each distinct
    local step is checked exactly in q against ``generator_sweep(n, 2)``:

    * divided powers of level above 2 act as zero on 0 or 2 points;
    * the comultiplication puts only E^(k), F^(k) and powers of K on the
      block's legs, so ``id ⊗ block ⊗ id`` intertwines the whole sweep at
      every level, and so does every product of slice matrices.

    This is the functoriality argument of Reshetikhin and Turaev, "Ribbon
    graphs and their invariants derived from quantum groups", Comm. Math.
    Phys. 127 (1990).  Returns the first failing step and generator, or None.
    """
    steps: dict[TangleWord, None] = {}
    for connector in enumerate_connectors(algebra_type(r, s)):
        word = canonical_basis_word(connector)
        for level, slc in zip(word.levels, word.slices):
            # The slice moved to position 1 of the points it touches.
            local = () if isinstance(slc, Max) else level[slc.pos - 1 : slc.pos + 1]
            unit = dataclasses.replace(slc, pos=1)
            steps.setdefault(TangleWord(TangleType(local, apply_slice(local, unit)), [unit]))
    sweep = generator_sweep(n, 2)
    for step in steps:
        top, bottom = step.ty.top, step.ty.bottom
        block = slice_matrix(n, top, step.slices[0])
        for gen in sweep:
            if block.matmul(gen_on_mixed(gen, bottom, n)) != gen_on_mixed(gen, top, n).matmul(block):
                return step, gen
    return None


def _require_budget(variables: int, what: str) -> None:
    if variables > VARIABLE_BUDGET:
        raise ResourceLimitError(
            f"{what} has {variables} variables, over the budget of {VARIABLE_BUDGET}"
        )


def image_rank(n: int, r: int, s: int, q0: ExactRational) -> int:
    """Rank of the span of all basis diagram matrices at the specialization.

    Each of the (r+s)! connectors is rendered from its canonical basis word
    directly at q0 by ``specialized_word_matrices``, which is exact because
    specializing q is a ring homomorphism.  Each matrix is flattened to a
    sparse vector; elimination runs over the union of the occupied
    positions, so the cost scales with the number of basis elements and
    their support, not with the full matrix square.
    """
    m = r + s
    _require_budget(factorial(m), "the basis dependency system")
    index = {label: t for t, label in enumerate(label_tuples(n, m))}
    size = len(index)
    words = [canonical_basis_word(connector) for connector in enumerate_connectors(algebra_type(r, s))]
    return _rank_of_rows(
        {index[row] * size + index[col]: value for (row, col), value in values.items()}
        for values in specialized_word_matrices(words, n, q0)
    )


def _weight_classes(
    sweep: Sequence[UGenerator], boundary, n: int, q0: ExactRational
) -> list[list[MultiIndex]]:
    """Group the labels by their eigenvalues under every Cartan unit of the sweep.

    Each ``K`` must specialize to a diagonal matrix; a matrix commuting with
    it then vanishes between labels of different eigenvalues.  Away from
    q = 1 and q = -1 the classes are the weight spaces; at those classical
    points the eigenvalues coincide more often and the classes coarsen, down
    to a single class at q = 1.
    """
    labels = list(label_tuples(n, len(boundary)))
    signature: dict[MultiIndex, tuple] = {label: () for label in labels}
    for gen in sweep:
        if not isinstance(gen, K):
            continue
        action = gen_on_mixed(gen, boundary, n).evaluate(q0)
        if any(row != col for row, col in action):
            raise RuntimeError(f"{gen} does not act diagonally on the labels")
        for label in labels:
            signature[label] += (action.get((label, label), 0),)
    classes: dict[tuple, list[MultiIndex]] = {}
    for label in labels:
        classes.setdefault(signature[label], []).append(label)
    return list(classes.values())


def commutant_dim(n: int, r: int, s: int, q0: ExactRational) -> int:
    """Dimension of the space of matrices commuting with every sweep generator.

    Commuting with the Cartan units confines the unknown matrix to the
    blocks of one eigenvalue class each, so only the entries inside a class
    are unknowns.  The raising and lowering generators then give the sparse
    homogeneous system [X, A] = 0, one row per matrix position it touches,
    solved by exact elimination; the answer is the nullity.
    """
    boundary = algebra_type(r, s).top
    size = n ** (r + s)
    _require_budget(size * size, "the commutant system")
    sweep = generator_sweep(n, r + s)
    unknowns = [
        (row, col)
        for block in _weight_classes(sweep, boundary, n, q0)
        for row in block
        for col in block
    ]
    rows = []
    for gen in sweep:
        if isinstance(gen, K):
            continue
        by_row: dict[MultiIndex, list] = {}
        by_col: dict[MultiIndex, list] = {}
        for (row_label, col_label), value in gen_on_mixed(gen, boundary, n).evaluate(q0).items():
            by_row.setdefault(row_label, []).append((col_label, value))
            by_col.setdefault(col_label, []).append((row_label, value))
        system: dict[tuple[MultiIndex, MultiIndex], dict[int, Fraction]] = {}
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


def annihilator_dims(n: int, r: int, s: int, q0: ExactRational) -> tuple[int, int]:
    """Kernel dimensions of the basis-to-matrix maps on both sides.

    The first component is the defect of the walled algebra acting on mixed
    tensor space, the second the defect of the all-down algebra acting on
    the plain tensor power; both equal (r+s)! minus the respective image
    rank, since the basis-to-matrix map is linear over the full basis.
    """
    m = r + s
    return (
        factorial(m) - image_rank(n, r, s, q0),
        factorial(m) - image_rank(n, m, 0, q0),
    )


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
    identically in q, proved per slice by ``_first_uncommuting_step``; the
    image rank equals the commutant dimension at the specialization; the
    two annihilator defects agree; the action is faithful exactly when n is
    at least r + s.  A failed claim is recorded in the report, never raised.
    The duality holds at every invertible q, so the ranks are compared at
    the requested point only, and a mismatch there is a failure.
    """
    q0 = Fraction(q0)
    size = n ** (r + s)
    _require_budget(size * size, "the commutant system")
    timings: list[tuple[str, float]] = []
    claims: list[ClaimResult] = []

    started = time.perf_counter()
    failure = _first_uncommuting_step(n, r, s)
    timings.append(("commutation", time.perf_counter() - started))
    claims.append(
        ClaimResult(
            "commutation",
            failure is None,
            "all basis matrices commute with the sweep symbolically"
            if failure is None
            else f"slice block {failure[0]} does not intertwine {failure[1]}",
        )
    )

    started = time.perf_counter()
    rank = image_rank(n, r, s, q0)
    dim = commutant_dim(n, r, s, q0)
    timings.append(("ranks", time.perf_counter() - started))
    claims.append(
        ClaimResult("rankMatch", rank == dim, f"image rank {rank}, commutant dimension {dim} at q = {q0}")
    )

    started = time.perf_counter()
    tangle_ann = factorial(r + s) - rank
    hecke_ann = factorial(r + s) - image_rank(n, r + s, 0, q0)
    timings.append(("annihilators", time.perf_counter() - started))
    claims.append(
        ClaimResult(
            "annihilatorMatch",
            tangle_ann == hecke_ann,
            f"walled side {tangle_ann}, all-down side {hecke_ann}",
        )
    )

    faithful = tangle_ann == 0
    claims.append(
        ClaimResult(
            "faithfulness",
            faithful == (n >= r + s),
            f"annihilator {tangle_ann} with n = {n}, r + s = {r + s}",
        )
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
        claims=tuple(claims),
        timings=tuple(timings),
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
