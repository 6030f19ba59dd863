from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType

import pytest

import coproduct_oracle
from conftest import random_word
from dense_commutant import divided_power_sweep
from descent_oracle import matrix_by_descent, procedure_value
from eval_oracle import lp_eval
from walled_tangles.laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from walled_tangles.qgroup import gen_on_mixed
from walled_tangles.rep import (
    OperatorMatrix,
    hecke_action_matrix,
    label_tuples,
    matrix_of_connector,
    matrix_of_element,
    matrix_of_word,
    render_matrix,
)
from walled_tangles.skein import normalize
from walled_tangles.tangle import (
    DOWN,
    UP,
    Cross,
    Hand,
    Max,
    Min,
    PEAK_SWEEP,
    Sweep,
    TangleType,
    TangleWord,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    enumerate_connectors,
    stack,
)

FO = Hand.FIRST_OVER
FU = Hand.FIRST_UNDER
L2R = Sweep.LEFT_TO_RIGHT
R2L = Sweep.RIGHT_TO_LEFT
DU, UD = (DOWN, UP), (UP, DOWN)

WORKED_TYPE = TangleType((DOWN, UP, UP), (UP, DOWN, UP))
WORKED_WORD = TangleWord(WORKED_TYPE, [Cross(2, FO), Cross(1, FO)])

#: The crossing X-(1) on ^v|v^: it moves a dual factor past an ordinary one.
PSI_WORD = TangleWord(TangleType(UD, DU), [Cross(1, FU)])


class TestOperatorMatrix:
    def test_identity_entries(self):
        m = OperatorMatrix.identity(2, (DOWN, UP))
        assert m.entry((1, 2), (1, 2)) == ONE
        assert m.entry((1, 2), (2, 1)) == ZERO
        assert len(m.entries) == 4

    def test_any_mapping_or_pairs_builds_the_same_matrix(self):
        entries = {((1,), (2,)): Q, ((2,), (2,)): ONE}
        expected = OperatorMatrix(2, (DOWN,), (DOWN,), entries)
        assert OperatorMatrix(2, (DOWN,), (DOWN,), MappingProxyType(entries)) == expected
        assert OperatorMatrix(2, (DOWN,), (DOWN,), list(entries.items())) == expected

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(2, (DOWN,), (DOWN,), {((1, 1), (1,)): ONE})
        a = OperatorMatrix.identity(2, (DOWN,))
        b = OperatorMatrix.identity(2, (DOWN, DOWN))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a.matmul(b)

    def test_matmul_identity_neutral(self):
        m = matrix_of_word(PSI_WORD, 2)
        left = OperatorMatrix.identity(2, m.row_type)
        right = OperatorMatrix.identity(2, m.col_type)
        assert left.matmul(m) == m
        assert m.matmul(right) == m

    def test_kron_concatenates_labels(self):
        a = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (2,)): Q})
        b = OperatorMatrix(2, (UP,), (UP,), {((2,), (2,)): QINV})
        prod = coproduct_oracle.kron(a, b)
        assert prod.row_type == (DOWN, UP)
        assert prod.entry((1, 2), (2, 2)) == ONE

    def test_evaluate_drops_zeros(self):
        m = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (1,)): Q - Q})
        assert m.evaluate(Fraction(5, 3)) == ({}, 1)
        m2 = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (2,)): Q})
        assert m2.evaluate(Fraction(5, 3)) == ({((1,), (2,)): 5}, 3)

    def test_json_round_shape(self):
        data = matrix_of_word(PSI_WORD, 2).to_json()
        assert data["rows"] == "^v"
        assert data["cols"] == "v^"
        assert all({"row", "col", "coeff"} <= set(e) for e in data["entries"])

    def test_render_small_is_grid(self):
        text = render_matrix(OperatorMatrix.identity(2, (DOWN,)))
        assert "1*q^0" in text


EVAL_POINTS = (
    Fraction(5, 3), Fraction(-5, 3), Fraction(2), Fraction(1, 2), Fraction(-7, 4), Fraction(1), Fraction(-1)
)


def assert_evaluate_matches_the_oracle(mat: OperatorMatrix, q0: Fraction) -> None:
    """``evaluate`` against ``lp_eval`` entry by entry, and its one
    denominator against a^(-lo) * b^hi."""
    entries, den = mat.evaluate(q0)
    exps = [e for poly in mat.entries.values() for e, _ in poly.terms] + [0]
    assert den == q0.numerator ** -min(exps) * q0.denominator ** max(exps)
    assert den != 0
    assert set(entries) <= set(mat.entries)
    assert all(isinstance(v, int) and v for v in entries.values())
    for key, poly in mat.entries.items():
        assert Fraction(entries.get(key, 0), den) == lp_eval(poly, q0), (key, poly, q0)


class TestEvaluate:
    @pytest.mark.parametrize("q0", EVAL_POINTS, ids=str)
    @pytest.mark.parametrize("seed", [3, 19])
    def test_random_word_matrices(self, seed, q0):
        rng = random.Random(seed)
        for _ in range(12):
            word = random_word(rng, max_crossings=4, max_slices=6)
            assert_evaluate_matches_the_oracle(matrix_of_word(word, rng.randint(1, 3)), q0)

    @pytest.mark.parametrize("q0", EVAL_POINTS, ids=str)
    def test_divided_power_sweep_on_a_mixed_boundary(self, q0):
        for gen in divided_power_sweep(3, 3):
            assert_evaluate_matches_the_oracle(gen_on_mixed(gen, (DOWN, UP, DOWN), 3), q0)

    def test_values_vanishing_at_q0_are_dropped(self):
        m = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (1,)): Q - QINV, ((2,), (2,)): Q + QINV})
        assert m.evaluate(Fraction(1)) == ({((2,), (2,)): 2}, 1)
        assert m.evaluate(Fraction(-1)) == ({((2,), (2,)): 2}, -1)


class TestSliceMatrices:
    def test_identity_word_matrix(self):
        for ty in (all_down_type(1), algebra_type(1, 1)):
            m = matrix_of_word(TangleWord(ty, []), 2)
            assert m == OperatorMatrix.identity(2, ty.top)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("slices", [[], [Cross(1, FO)]], ids=["no slices", "one crossing"])
    def test_a_label_count_below_one_is_refused(self, n, slices):
        # A word with no slices has one label code, 0, even at n = -1: the count is checked before any is decoded.
        with pytest.raises(ValueError, match=f"label count n must be at least 1, got {n}"):
            matrix_of_word(TangleWord(all_down_type(2), slices), n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_turnback_matrix_entries(self, n):
        m = matrix_of_word(TangleWord(TangleType(DU, UD), [Min(1), Max(1, PEAK_SWEEP[UD])]), n)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                expected = LaurentPoly.monomial(1, 2 * (i - k))
                assert m.entry((i, i), (k, k)) == expected
        assert len(m.entries) == n * n

    def test_stacked_turnbacks_scale_by_loop_value(self):
        n = 3
        upper = TangleWord(TangleType(DU, UD), [Min(1), Max(1, PEAK_SWEEP[UD])])
        lower = TangleWord(TangleType(UD, UD), [Min(1), Max(1, PEAK_SWEEP[UD])])
        m = matrix_of_word(stack(upper, lower), n)
        assert m == matrix_of_word(upper, n).scaled(quantum_int(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cup_cap_zigzag_is_identity(self, n):
        word = TangleWord(TangleType((DOWN,), (DOWN,)), [Max(2, L2R), Min(1)])
        assert matrix_of_word(word, n) == OperatorMatrix.identity(n, (DOWN,))


class TestWorkedExample:
    @pytest.mark.parametrize("n", [2, 3])
    def test_frozen_entries(self, n):
        m = matrix_of_word(WORKED_WORD, n)
        assert m.entry((2, 1, 1), (1, 2, 1)) == QINV
        assert m.entry((2, 1, 2), (1, 1, 1)) == LaurentPoly.monomial(1, 3) - Q

    @pytest.mark.parametrize("n", [2, 3])
    def test_element_route_agrees(self, n):
        assert matrix_of_element(normalize(WORKED_WORD, n)) == matrix_of_word(WORKED_WORD, n)


class TestHeckeAction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_crossing_slice(self, m, n):
        ty = all_down_type(m)
        for k in range(1, m):
            word = TangleWord(ty, [Cross(k, FO)])
            assert hecke_action_matrix(m, k, n) == matrix_of_word(word, n)

    def test_explicit_small_cases(self):
        assert hecke_action_matrix(2, 1, 1).entry((1, 1), (1, 1)) == QINV
        t = hecke_action_matrix(2, 1, 2)
        assert t.entry((1, 2), (2, 1)) == ONE
        assert t.entry((2, 1), (1, 2)) == ONE
        assert t.entry((2, 1), (2, 1)) == QINV - Q
        assert t.entry((1, 2), (1, 2)) == ZERO

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadratic_relation(self, n):
        t = hecke_action_matrix(2, 1, n)
        one = OperatorMatrix.identity(n, (DOWN, DOWN))
        assert not (t + one.scaled(Q)).matmul(t - one.scaled(QINV)).entries

    @pytest.mark.parametrize("n", [2, 3])
    def test_inverse_differs_by_skein_term(self, n):
        ty = all_down_type(2)
        t = matrix_of_word(TangleWord(ty, [Cross(1, FO)]), n)
        tinv = matrix_of_word(TangleWord(ty, [Cross(1, FU)]), n)
        one = OperatorMatrix.identity(n, ty.top)
        assert t.matmul(tinv) == one
        assert t - tinv == one.scaled(QINV - Q)

    def test_braid_relation(self):
        n = 2
        t1 = hecke_action_matrix(3, 1, n)
        t2 = hecke_action_matrix(3, 2, n)
        assert t1.matmul(t2).matmul(t1) == t2.matmul(t1).matmul(t2)


class TestPsi:
    def test_frozen_entries(self):
        m = matrix_of_word(PSI_WORD, 3)
        assert m.entry((1, 2), (2, 1)) == ONE
        assert m.entry((2, 2), (2, 2)) == QINV
        assert m.entry((3, 3), (1, 1)) == QINV - Q
        assert m.entry((1, 1), (3, 3)) == ZERO

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_entries_off_diagonal(self, n):
        m = matrix_of_word(PSI_WORD, n)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i != k:
                    assert m.entry((i, k), (k, i)) == ONE

    @pytest.mark.parametrize("n", [2, 3])
    def test_prime_variant_rescales_rows(self, n):
        plain = matrix_of_word(PSI_WORD, n)
        weights = {(idx, idx): LaurentPoly.monomial(1, n + 1 - 2 * idx[0]) for idx in label_tuples(n, 2)}
        primed = OperatorMatrix(n, UD, UD, weights).matmul(plain)
        for (row, col), v in plain.entries.items():
            assert primed.entry(row, col) == v * LaurentPoly.monomial(1, n + 1 - 2 * row[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_invertible(self, n):
        back = matrix_of_word(TangleWord(TangleType(DU, UD), [Cross(1, FO)]), n)
        psi = matrix_of_word(PSI_WORD, n)
        assert psi.matmul(back) == OperatorMatrix.identity(n, UD)
        assert back.matmul(psi) == OperatorMatrix.identity(n, DU)

    @pytest.mark.parametrize("n", [2, 3])
    def test_embeds_at_inner_position(self, n):
        ty = TangleType((DOWN, UP, DOWN), (DOWN, DOWN, UP))
        word = TangleWord(ty, [Cross(2, FU)])
        expected = coproduct_oracle.kron(
            coproduct_oracle.kron(OperatorMatrix.identity(n, (DOWN,)), matrix_of_word(PSI_WORD, n)),
            OperatorMatrix.identity(n, ()),
        )
        assert matrix_of_word(word, n) == expected


class TestProcedureValue:
    def test_identity_word_is_delta(self):
        ty = algebra_type(1, 1)
        word = TangleWord(ty, [])
        assert procedure_value(word, (1, 2), (1, 2), 2) == ONE
        assert procedure_value(word, (1, 2), (2, 1), 2) == ZERO

    def test_zero_on_strand_label_mismatch(self):
        smoothed = TangleWord(WORKED_TYPE, [Cross(1, FO)])
        assert procedure_value(smoothed, (2, 1, 2), (1, 1, 1), 2) == ZERO

    def test_rejects_word_not_descending_for_labels(self):
        switched = TangleWord(WORKED_TYPE, [Cross(2, FU), Cross(1, FO)])
        with pytest.raises(ValueError):
            procedure_value(switched, (2, 1, 1), (1, 2, 1), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_worked_example_entries_via_label_descent(self, n):
        from walled_tangles.skein import _descend
        from walled_tangles.tangle import strand_graph

        g = strand_graph(WORKED_WORD)
        cases = [
            (((2, 1, 1), (1, 2, 1)), QINV),
            (((2, 1, 2), (1, 1, 1)), LaurentPoly.monomial(1, 3) - Q),
        ]
        for (i, j), expected in cases:
            labels = [(i if side == "T" else j)[pos - 1] for side, pos in g.starts]
            order = sorted(range(len(labels)), key=lambda t: (labels[t], t))
            ranks = [0] * len(labels)
            for position, t in enumerate(order):
                ranks[t] = position
            total = ZERO
            for coeff, base in _descend(WORKED_WORD, tuple(ranks)):
                total = total + coeff * procedure_value(base, i, j, n)
            assert total == expected

    def test_rejects_closed_loops(self):
        word = TangleWord(all_down_type(0), [Max(1, L2R), Min(1)])
        with pytest.raises(ValueError):
            procedure_value(word, (), (), 2)

    def test_rejects_non_descending_labels(self):
        word = TangleWord(all_down_type(2), [Cross(1, FO)])
        with pytest.raises(ValueError):
            procedure_value(word, (2, 1), (1, 2), 2)

    def test_descending_crossing_factor(self):
        word = TangleWord(all_down_type(2), [Cross(1, FO)])
        assert procedure_value(word, (1, 2), (2, 1), 2) == ONE
        assert procedure_value(word, (1, 1), (1, 1), 2) == QINV

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_matrix_on_descending_patterns(self, n):
        for r, s in ((1, 1), (2, 0), (2, 1)):
            for connector in enumerate_connectors(algebra_type(r, s)):
                word = canonical_basis_word(connector)
                mat = matrix_of_word(word, n)
                for c in range(1, n + 1):
                    row = (c,) * len(word.ty.top)
                    col = (c,) * len(word.ty.bottom)
                    assert procedure_value(word, row, col, n) == mat.entry(row, col)


class TestConnectorMatrices:
    def test_identity_connector(self):
        ty = algebra_type(1, 1)
        word = TangleWord(ty, [])
        connector = canonical_basis_word  # silence linters; real value below
        from walled_tangles.tangle import connector_of

        assert matrix_of_connector(connector_of(word), 2) == OperatorMatrix.identity(2, ty.top)

    @pytest.mark.parametrize("n", [2, 3])
    def test_turnback_connector_entries(self, n):
        from walled_tangles.tangle import connector_of

        both_arcs_rightward = matrix_of_connector(
            connector_of(TangleWord(TangleType(DU, UD), [Min(1), Max(1, PEAK_SWEEP[UD])])), n
        )
        top_arc_only = matrix_of_connector(
            connector_of(TangleWord(TangleType(DU, DU), [Min(1), Max(1, PEAK_SWEEP[DU])])), n
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert both_arcs_rightward.entry((i, i), (j, j)) == (
                    LaurentPoly.monomial(1, 2 * (i - j))
                )
                assert top_arc_only.entry((i, i), (j, j)) == (
                    LaurentPoly.monomial(1, 2 * i - n - 1)
                )

    @pytest.mark.parametrize("n", [2, 3])
    def test_turnback_squares_to_loop_value_at_matrix_level(self, n):
        m = matrix_of_word(TangleWord(TangleType(DU, DU), [Min(1), Max(1, PEAK_SWEEP[DU])]), n)
        assert m.matmul(m) == m.scaled(quantum_int(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_word_route_on_basis(self, n):
        for r, s in ((1, 1), (2, 1)):
            for connector in enumerate_connectors(algebra_type(r, s)):
                word = canonical_basis_word(connector)
                assert matrix_by_descent(connector, n) == matrix_of_word(word, n)

    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 1), (2, 4, 0)])
    def test_matches_the_descent_oracle(self, n, r, s):
        for connector in enumerate_connectors(algebra_type(r, s)):
            assert matrix_of_connector(connector, n) == matrix_by_descent(connector, n)

    def test_classical_limit_entries_are_zero_or_one(self):
        n = 2
        for connector in enumerate_connectors(algebra_type(1, 1)):
            word = canonical_basis_word(connector)
            entries, den = matrix_of_word(word, n).evaluate(Fraction(1))
            for value in entries.values():
                assert Fraction(value, den) in (Fraction(0), Fraction(1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_random_words(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            word = random_word(rng, max_crossings=4, max_slices=6)
            n = rng.randint(1, 3)
            assert matrix_of_element(normalize(word, n)) == matrix_of_word(word, n)


class TestFunctoriality:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_stacks_compose(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            upper = random_word(rng, max_crossings=3, max_slices=5)
            lower = random_word(rng, top=upper.ty.bottom, max_crossings=3, max_slices=5)
            n = rng.randint(1, 3)
            lhs = matrix_of_word(stack(upper, lower), n)
            rhs = matrix_of_word(upper, n).matmul(matrix_of_word(lower, n))
            assert lhs == rhs
