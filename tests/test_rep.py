from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_word
from descent_oracle import matrix_by_descent, procedure_value
from walled_tangles.laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from walled_tangles.rep import (
    OperatorMatrix,
    hecke_action_matrix,
    label_tuples,
    matrix_of_connector,
    matrix_of_element,
    matrix_of_word,
    psi_matrix,
    psi_prime_matrix,
    render_matrix,
    slice_matrix,
)
from walled_tangles.skein import normalize, turnback_word
from walled_tangles.tangle import (
    DOWN,
    UP,
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


class TestOperatorMatrix:
    def test_identity_entries(self):
        m = OperatorMatrix.identity(2, (DOWN, UP))
        assert m.entry((1, 2), (1, 2)) == ONE
        assert m.entry((1, 2), (2, 1)) == ZERO
        assert len(m.entries) == 4

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
        m = psi_matrix(2)
        left = OperatorMatrix.identity(2, m.row_type)
        right = OperatorMatrix.identity(2, m.col_type)
        assert left.matmul(m) == m
        assert m.matmul(right) == m

    def test_kron_concatenates_labels(self):
        a = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (2,)): Q})
        b = OperatorMatrix(2, (UP,), (UP,), {((2,), (2,)): QINV})
        prod = a.kron(b)
        assert prod.row_type == (DOWN, UP)
        assert prod.entry((1, 2), (2, 2)) == ONE

    def test_transpose_involution(self):
        m = psi_matrix(3)
        assert m.transpose().transpose() == m

    def test_evaluate_drops_zeros(self):
        m = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (1,)): Q - Q})
        assert m.evaluate(Fraction(5, 3)) == {}
        m2 = OperatorMatrix(2, (DOWN,), (DOWN,), {((1,), (2,)): Q})
        assert m2.evaluate(Fraction(5, 3)) == {((1,), (2,)): Fraction(5, 3)}

    def test_json_round_shape(self):
        data = psi_matrix(2).to_json()
        assert data["rows"] == "^v"
        assert data["cols"] == "v^"
        assert all({"row", "col", "coeff"} <= set(e) for e in data["entries"])

    def test_render_small_is_grid(self):
        text = render_matrix(OperatorMatrix.identity(2, (DOWN,)))
        assert "1*q^0" in text


class TestSliceMatrices:
    def test_identity_word_matrix(self):
        for ty in (all_down_type(1), algebra_type(1, 1)):
            m = matrix_of_word(TangleWord(ty, []), 2)
            assert m == OperatorMatrix.identity(2, ty.top)

    @pytest.mark.parametrize("n", [2, 3])
    def test_turnback_matrix_entries(self, n):
        m = matrix_of_word(turnback_word(DU, UD), n)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                expected = LaurentPoly.monomial(1, 2 * (i - k))
                assert m.entry((i, i), (k, k)) == expected
        assert len(m.entries) == n * n

    def test_stacked_turnbacks_scale_by_loop_value(self):
        n = 3
        upper = turnback_word(DU, UD)
        lower = turnback_word(UD, UD)
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
        assert (t + one.scaled(Q)).matmul(t - one.scaled(QINV)).is_zero()

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
        m = psi_matrix(3)
        assert m.entry((1, 2), (2, 1)) == ONE
        assert m.entry((2, 2), (2, 2)) == QINV
        assert m.entry((3, 3), (1, 1)) == QINV - Q
        assert m.entry((1, 1), (3, 3)) == ZERO

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_entries_off_diagonal(self, n):
        m = psi_matrix(n)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i != k:
                    assert m.entry((i, k), (k, i)) == ONE

    @pytest.mark.parametrize("n", [2, 3])
    def test_prime_variant_rescales_rows(self, n):
        plain, primed = psi_matrix(n), psi_prime_matrix(n)
        for (row, col), v in plain.entries.items():
            assert primed.entry(row, col) == v * LaurentPoly.monomial(1, n + 1 - 2 * row[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_invertible(self, n):
        back = matrix_of_word(TangleWord(TangleType(DU, UD), [Cross(1, FO)]), n)
        assert psi_matrix(n).matmul(back) == OperatorMatrix.identity(n, UD)
        assert back.matmul(psi_matrix(n)) == OperatorMatrix.identity(n, DU)

    @pytest.mark.parametrize("n", [2, 3])
    def test_embeds_at_inner_position(self, n):
        ty = TangleType((DOWN, UP, DOWN), (DOWN, DOWN, UP))
        word = TangleWord(ty, [Cross(2, FU)])
        expected = (
            OperatorMatrix.identity(n, (DOWN,))
            .kron(psi_matrix(n))
            .kron(OperatorMatrix.identity(n, ()))
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

        both_arcs_rightward = matrix_of_connector(connector_of(turnback_word(DU, UD)), n)
        top_arc_only = matrix_of_connector(connector_of(turnback_word(DU, DU)), n)
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
        m = matrix_of_word(turnback_word(DU, DU), n)
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
            for value in matrix_of_word(word, n).evaluate(Fraction(1)).values():
                assert value in (Fraction(0), Fraction(1))


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
