"""The q0-specialized rendering route behind ``image_rank``: entry-for-entry
agreement with the label-descent oracle, and the rank checked against an
independent count of permutations."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from descent_oracle import matrix_by_descent

from walled_tangles.duality import image_rank
from walled_tangles.rep import specialized_word_matrices
from walled_tangles.tangle import algebra_type, canonical_basis_word, enumerate_connectors

POINTS = (Fraction(5, 3), Fraction(-5, 3), Fraction(2), Fraction(1), Fraction(-1))


@pytest.mark.parametrize("q0", POINTS, ids=str)
@pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 1)])
def test_specialized_matrices_match_the_symbolic_route(n, r, s, q0):
    connectors = enumerate_connectors(algebra_type(r, s))
    words = [canonical_basis_word(c) for c in connectors]
    specialized = specialized_word_matrices(words, n, q0)
    assert len(specialized) == len(connectors)
    for connector, values in zip(connectors, specialized):
        assert values == matrix_by_descent(connector, n).evaluate(q0)
        assert all(isinstance(v, Fraction) and v for v in values.values())


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


def test_rsk_grid_size():
    assert len(RSK_CASES) == 132


@pytest.mark.parametrize("n,r,s,q0", RSK_CASES, ids=str)
def test_image_rank_matches_the_rsk_count(n, r, s, q0):
    assert image_rank(n, r, s, q0) == _rsk_count(n, r + s)
