from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from walled_tangles.laurent import (
    ONE,
    Q,
    QINV,
    ZERO,
    LaurentPoly,
    quantum_binom,
    quantum_int,
)
from walled_tangles.rep import OperatorMatrix
from walled_tangles.tangle import DOWN

small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
).filter(lambda x: x != 0)


def at(poly: LaurentPoly, q0) -> Fraction:
    """The value at q0 of poly, through the integer form of a 1x1 matrix."""
    entries, den = OperatorMatrix(1, (DOWN,), (DOWN,), {((1,), (1,)): poly}).evaluate(q0)
    return Fraction(entries.get(((1,), (1,)), 0), den)


def quantum_factorial(l: int) -> LaurentPoly:
    out = ONE
    for i in range(1, l + 1):
        out = out * quantum_int(i)
    return out


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 1: 3}) == LaurentPoly({1: 3})
        assert LaurentPoly([(1, 2), (1, -2)]) == ZERO

    def test_any_mapping_or_pairs_builds_the_same_poly(self):
        expected = LaurentPoly({-1: 1, 2: 3})
        assert LaurentPoly(MappingProxyType({-1: 1, 2: 3})) == expected
        assert LaurentPoly([(2, 3), (-1, 1)]) == expected

    @pytest.mark.parametrize("terms", [{1.0: 1}, {1: 1.0}, [(0.5, 2)], [(2, Fraction(1, 2))]])
    def test_non_int_exponent_or_coefficient_rejected(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_structural_equality_and_hash(self):
        a = LaurentPoly({-1: 1, 2: 3})
        b = LaurentPoly([(2, 3), (-1, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != LaurentPoly({2: 3})

    def test_int_coercion(self):
        assert 1 + Q == LaurentPoly({0: 1, 1: 1})
        assert 2 * Q - Q == Q
        assert Q - 1 == LaurentPoly({1: 1, 0: -1})
        assert 1 - Q == LaurentPoly({0: 1, 1: -1})

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO

    @given(small_polys, small_polys)
    def test_results_match_the_validating_constructor(self, a, b):
        def summed(*pairs):
            acc = {}
            for e, c in pairs:
                acc[e] = acc.get(e, 0) + c
            return acc

        products = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
        cases = [
            (a + b, summed(*a.terms, *b.terms)),
            (a - b, summed(*a.terms, *((e, -c) for e, c in b.terms))),
            (a * b, summed(*products)),
            (-a, summed(*((e, -c) for e, c in a.terms))),
        ]
        for result, sums in cases:
            assert result == LaurentPoly(sums)
            assert list(result.terms) == sorted(result.terms)
            assert all(type(e) is int and type(c) is int and c != 0 for e, c in result.terms)

    @given(small_polys, small_polys, rationals)
    def test_eval_is_a_ring_map(self, a, b, q0):
        assert at(a + b, q0) == at(a, q0) + at(b, q0)
        assert at(a * b, q0) == at(a, q0) * at(b, q0)

    def test_eval_rejects_zero(self):
        with pytest.raises(ValueError):
            at(Q, Fraction(0))

    @given(small_polys)
    def test_json_round_trip(self, a):
        assert LaurentPoly.from_json(a.to_json()) == a

    @given(small_polys)
    def test_str_is_sorted_and_uniform(self, a):
        text = str(a)
        if a.is_zero():
            assert text == "0"
            return
        blocks = text.split(" + ")
        exps = [int(b.split("q^")[1]) for b in blocks]
        assert exps == sorted(exps)
        assert all("*q^" in b for b in blocks)


class TestQuantumNumbers:
    def test_quantum_int_values(self):
        assert quantum_int(0) == ZERO
        assert quantum_int(1) == ONE
        assert quantum_int(2) == Q + QINV
        assert quantum_int(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})
        with pytest.raises(ValueError):
            quantum_int(-1)

    def test_quantum_binom_frozen_oracle(self):
        # Independently expanded by hand from the q-Pascal recursion.
        assert quantum_binom(4, 2) == LaurentPoly({-4: 1, -2: 1, 0: 2, 2: 1, 4: 1})

    def test_quantum_binom_edges(self):
        for l in range(5):
            assert quantum_binom(l, 0) == ONE
            assert quantum_binom(l, l) == ONE
        with pytest.raises(ValueError):
            quantum_binom(3, 4)
        with pytest.raises(ValueError):
            quantum_binom(3, -1)

    def test_quantum_binom_against_factorials(self):
        # The quotient definition, verified multiplicatively: binom(l, k)
        # times [k]! [l-k]! must equal [l]! exactly.
        for l in range(9):
            for k in range(l + 1):
                lhs = quantum_binom(l, k) * quantum_factorial(k) * quantum_factorial(l - k)
                assert lhs == quantum_factorial(l), (l, k)

    def test_quantum_binom_symmetry(self):
        for l in range(9):
            for k in range(l + 1):
                assert quantum_binom(l, k) == quantum_binom(l, l - k)

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_quantum_binom_bar_invariant(self, l, k):
        # Balanced form: invariant under q -> q^-1.
        if k > l:
            with pytest.raises(ValueError):
                quantum_binom(l, k)
            return
        p = quantum_binom(l, k)
        assert LaurentPoly([(-e, c) for e, c in p]) == p
