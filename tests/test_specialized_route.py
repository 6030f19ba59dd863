"""The q0-specialized rendering route behind ``image_rank``: entry-for-entry
agreement with the label-descent oracle, and the rank checked against an
independent count of permutations."""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction

import pytest
from descent_oracle import matrix_by_descent

from walled_tangles.duality import _rsk_count as hook_length_count
from walled_tangles.duality import _weight_classes, image_rank
from walled_tangles.rep import label_code, label_tuples, specialized_word_matrices
from walled_tangles.skein import structure_constants
from walled_tangles.tangle import algebra_type, canonical_basis_word, enumerate_connectors

POINTS = (Fraction(5, 3), Fraction(-5, 3), Fraction(2), Fraction(1), Fraction(-1))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("width", range(5))
def test_label_code_is_the_position_in_label_order(n, width):
    for position, label in enumerate(label_tuples(n, width)):
        assert label_code(n, label) == position


@pytest.mark.parametrize("q0", POINTS, ids=str)
@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 1)])
def test_specialized_matrices_match_the_symbolic_route(n, r, s, q0):
    ty = algebra_type(r, s)
    connectors = enumerate_connectors(ty)
    words = [canonical_basis_word(c) for c in connectors]
    specialized = specialized_word_matrices(words, n, q0)
    assert len(specialized) == len(connectors)
    # Rows and columns are label codes: positions in label_tuples order on the top and the bottom.
    tops, bottoms = list(label_tuples(n, len(ty.top))), list(label_tuples(n, len(ty.bottom)))
    for connector, (rows, scale) in zip(connectors, specialized):
        entries, den = matrix_by_descent(connector, n).evaluate(q0)
        values = {(tops[i], bottoms[k]): Fraction(v, scale) for i, cols in rows.items() for k, v in cols.items()}
        assert values == {key: Fraction(v, den) for key, v in entries.items()}
        assert all(isinstance(v, int) and v for cols in rows.values() for v in cols.values())


@pytest.mark.parametrize("q0", (Fraction(5, 3), Fraction(-1)), ids=str)
@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 2, 2), (3, 3, 0), (4, 2, 1)])
def test_start_labels_render_exactly_their_rows(n, r, s, q0):
    ty = algebra_type(r, s)
    connectors = enumerate_connectors(ty)
    words = [canonical_basis_word(c) for c in connectors]
    full = specialized_word_matrices(words, n, q0)
    labels = list(label_tuples(n, r + s))
    codes = range(len(labels))
    # A totally propagating connector's matrix is invertible, so it holds a row at every label.
    invertible = [t for t, c in enumerate(connectors) if c.is_totally_propagating()]
    assert invertible and all(set(full[t][0]) == set(codes) for t in invertible)
    weight_space = {labels.index(label) for label in max(_weight_classes(n, ty.top), key=len)}
    rng = random.Random(n * 100 + r * 10 + s)
    seen = 0
    for start in (set(), set(codes), weight_space, set(rng.sample(codes, len(labels) // 3))):
        restricted = specialized_word_matrices(words, n, q0, start)
        assert restricted == [({i: cols for i, cols in rows.items() if i in start}, scale) for rows, scale in full]
        for t in invertible:
            assert set(restricted[t][0]) == start
            seen += len(restricted[t][0])
    # Every label once, the weight space and a third of the labels, on each invertible word.
    assert seen >= len(invertible) * (len(labels) + len(weight_space))


def test_rendering_leaves_no_reference_cycle():
    # A cycle would hold the slice factors and every product until the
    # cyclic collector ran, which made the rendering's peak memory depend on
    # when that happened.
    words = [canonical_basis_word(c) for c in enumerate_connectors(algebra_type(2, 1))]
    specialized_word_matrices(words, 2, Fraction(5, 3))  # warm the memos
    gc.collect()
    gc.disable()
    try:
        specialized_word_matrices(words, 2, Fraction(5, 3))
        assert gc.collect() == 0
        structure_constants(2, 1, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _longest_decreasing(perm: tuple[int, ...]) -> int:
    best = [1] * len(perm)
    for j in range(len(perm)):
        for i in range(j):
            if perm[i] > perm[j]:
                best[j] = max(best[j], best[i] + 1)
    return max(best, default=0)


def _rsk_count(n: int, m: int) -> int:
    """Permutations of m whose longest decreasing subsequence has at most n
    terms: by RSK, the sum of the squared dimensions of the Hecke
    irreducibles with at most n rows, which is the rank of the Hecke image."""
    return sum(1 for perm in itertools.permutations(range(m)) if _longest_decreasing(perm) <= n)


RSK_CASES = [
    (n, r, m - r, q0)
    for n in (1, 2, 3)
    for m in range(1, 5)
    for r in range(m + 1)
    for q0 in (Fraction(5, 3), Fraction(1), Fraction(-1))
] + [(2, r, 5 - r, Fraction(5, 3)) for r in range(6)]
# Faithful instances, certified from the rows of one weight space.
RSK_CASES += [(4, r, 4 - r, q0) for r in range(5) for q0 in (Fraction(5, 3), Fraction(1), Fraction(-1))]
RSK_CASES += [(5, 5, 0, Fraction(5, 3)), (5, 3, 2, Fraction(5, 3))]


@pytest.mark.parametrize("m", range(8))
def test_hook_length_count_matches_the_permutation_count(m):
    # The upper end of the all-down rank in ``verify_schur_weyl``, against RSK counted by brute force.
    lengths = [_longest_decreasing(perm) for perm in itertools.permutations(range(m))]
    for n in range(1, 8):
        assert hook_length_count(n, m) == sum(1 for length in lengths if length <= n), (n, m)


def test_rsk_grid_size():
    assert len(RSK_CASES) == 149


@pytest.mark.parametrize("n,r,s,q0", RSK_CASES, ids=str)
def test_image_rank_matches_the_rsk_count(n, r, s, q0):
    assert image_rank(n, r, s, q0) == _rsk_count(n, r + s)
