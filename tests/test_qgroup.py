from __future__ import annotations

import functools
import itertools

import pytest
import coproduct_oracle

from walled_tangles.laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_binom, quantum_int
from walled_tangles.qgroup import E, F, K, QH, gen_on_mixed
from walled_tangles.rep import OperatorMatrix, label_tuples, label_weight
from walled_tangles.tangle import DOWN, UP


def word_matrix(gens, boundary, n):
    """Matrix of a product of generators; the rightmost factor acts first."""
    out = OperatorMatrix.identity(n, boundary)
    for gen in reversed(tuple(gens)):
        out = out.matmul(gen_on_mixed(gen, boundary, n))
    return out


def alpha(i, n, multiple=1):
    weight = [0] * n
    weight[i - 1] = multiple
    weight[i] = -multiple
    return QH(weight)


class TestVectorAction:
    def test_raising_and_lowering_moves(self):
        assert gen_on_mixed(E(1), (DOWN,), 2).entries == {((2,), (1,)): ONE}
        assert gen_on_mixed(F(1), (DOWN,), 2).entries == {((1,), (2,)): ONE}

    def test_k_is_diagonal_weight(self):
        m = gen_on_mixed(K(1), (DOWN,), 3)
        assert m.entry((1,), (1,)) == Q
        assert m.entry((2,), (2,)) == QINV
        assert m.entry((3,), (3,)) == ONE

    def test_k_equals_its_weight_form(self):
        for n in (2, 3):
            for i in range(1, n):
                assert gen_on_mixed(K(i), (DOWN,), n) == gen_on_mixed(alpha(i, n), (DOWN,), n)
                assert gen_on_mixed(K(i, -1), (DOWN,), n) == gen_on_mixed(alpha(i, n, -1), (DOWN,), n)

    def test_higher_divided_powers_vanish_on_v(self):
        assert not gen_on_mixed(E(1, 2), (DOWN,), 2).entries
        assert not gen_on_mixed(F(1, 3), (DOWN,), 3).entries

    def test_level_zero_is_identity(self):
        assert gen_on_mixed(E(1, 0), (DOWN,), 2) == OperatorMatrix.identity(2, (DOWN,))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            gen_on_mixed(E(2), (DOWN,), 2)
        with pytest.raises(ValueError):
            gen_on_mixed(QH((1, 0)), (DOWN,), 3)


class TestDualAction:
    def test_k_acts_by_inverse_weight(self):
        m = gen_on_mixed(K(1), (UP,), 2)
        assert m.entry((1,), (1,)) == QINV
        assert m.entry((2,), (2,)) == Q

    def test_raising_image(self):
        assert gen_on_mixed(E(1), (UP,), 2).entries == {((1,), (2,)): -QINV}

    def test_lowering_image(self):
        assert gen_on_mixed(F(1), (UP,), 2).entries == {((2,), (1,)): -Q}


class TestMixedAction:
    def test_group_like_diagonal(self):
        m = gen_on_mixed(QH((1, -1)), (DOWN, UP), 2)
        assert m.entry((1, 1), (1, 1)) == ONE
        assert m.entry((1, 2), (1, 2)) == Q * Q
        assert m.entry((2, 1), (2, 1)) == QINV * QINV

    def test_coproduct_on_two_factors(self):
        m = gen_on_mixed(E(1), (DOWN, DOWN), 2)
        assert m.entry((2, 2), (1, 2)) == Q
        assert m.entry((2, 2), (2, 1)) == ONE

    def test_divided_power_on_two_factors(self):
        m = gen_on_mixed(E(1, 2), (DOWN, DOWN), 2)
        assert m.entries == {((2, 2), (1, 1)): ONE}

    def test_empty_boundary_is_counit(self):
        assert not gen_on_mixed(E(1, 1), (), 2).entries
        assert not gen_on_mixed(F(1, 2), (), 2).entries
        scalar = gen_on_mixed(K(1), (), 2)
        assert scalar.entry((), ()) == ONE

    def test_coassociativity_of_splits(self):
        boundary = (DOWN, UP, DOWN)
        n = 2
        for gen in (E(1, 1), E(1, 2), F(1, 1), F(1, 2), K(1), QH((2, -1))):
            direct = gen_on_mixed(gen, boundary, n)
            assert direct == _split_after_two(gen, boundary, n)

    def test_integral_coefficients(self):
        m = gen_on_mixed(E(1, 2), (DOWN, DOWN, DOWN), 3)
        for poly in m.entries.values():
            assert all(isinstance(c, int) for _, c in poly.terms)


class TestClosedForm:
    """The closed form against the recursive coproduct of ``coproduct_oracle``
    on every orientation pattern of at most four points."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_recursive_coproduct(self, n, monkeypatch):
        # Memoize the oracle's own recursion; it never mutates a matrix.
        monkeypatch.setattr(coproduct_oracle, "gen_on_mixed", functools.cache(coproduct_oracle.gen_on_mixed))
        for m in range(5):
            gens = [QH(range(n, 0, -1))]
            for i in range(1, n):
                gens += [K(i), K(i, -1)]
                gens += [x(i, l) for x in (E, F) for l in range(m + 2)]
            for boundary in itertools.product((DOWN, UP), repeat=m):
                for gen in gens:
                    expected = coproduct_oracle.gen_on_mixed(gen, boundary, n)
                    assert gen_on_mixed(gen, boundary, n) == expected, (gen, boundary)


class TestLabelWeight:
    """Every Cartan unit is diagonal, with the exponents the label weights
    give, on every orientation pattern of at most four points."""

    def test_cartan_units_are_diagonal_with_the_weight_exponents(self):
        for n in range(2, 5):
            for m in range(5):
                for boundary in itertools.product((DOWN, UP), repeat=m):
                    weights = {label: label_weight(n, boundary, label) for label in label_tuples(n, m)}
                    for i, sign in itertools.product(range(1, n), (1, -1)):
                        expected = {
                            (label, label): LaurentPoly.monomial(1, sign * (w[i - 1] - w[i]))
                            for label, w in weights.items()
                        }
                        assert gen_on_mixed(K(i, sign), boundary, n).entries == expected, (i, sign, boundary)

    def test_weight_counts_down_minus_up_points_per_value(self):
        assert label_weight(3, (DOWN, UP, DOWN), (1, 2, 1)) == (2, -1, 0)
        assert label_weight(2, (), ()) == (0, 0)
        for n in range(1, 5):
            for m in range(5):
                for boundary in itertools.product((DOWN, UP), repeat=m):
                    for label in label_tuples(n, m):
                        down = [a for o, a in zip(boundary, label) if o is DOWN]
                        up = [a for o, a in zip(boundary, label) if o is UP]
                        expected = tuple(down.count(v) - up.count(v) for v in range(1, n + 1))
                        assert label_weight(n, boundary, label) == expected


def _split_after_two(gen, boundary, n):
    """Recompute a generator's action splitting after the second factor,
    exercising coassociativity against the module's own split point."""
    left, right = boundary[:2], boundary[2:]

    def pair(coeff, left_gens, right_gens):
        product = coproduct_oracle.kron(word_matrix(left_gens, left, n), word_matrix(right_gens, right, n))
        return product.scaled(coeff)

    if isinstance(gen, (K, QH)):
        return pair(ONE, (gen,), (gen,))
    total = OperatorMatrix(n, boundary, boundary)
    l = gen.l
    for k in range(l + 1):
        if isinstance(gen, E):
            term = pair(
                LaurentPoly.monomial(1, k * (l - k)),
                (E(gen.i, l - k),),
                (alpha(gen.i, n, k - l), E(gen.i, k)),
            )
        else:
            term = pair(
                LaurentPoly.monomial(1, -k * (l - k)),
                (F(gen.i, l - k), alpha(gen.i, n, k)),
                (F(gen.i, k),),
            )
        total = total + term
    return total


class TestDefiningRelations:
    BOUNDARIES = [(DOWN,), (UP,), (DOWN, UP), (DOWN, DOWN, UP)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_of_raising_and_lowering(self, n):
        for boundary in self.BOUNDARIES:
            for i in range(1, n):
                for j in range(1, n):
                    ef = word_matrix((E(i), F(j)), boundary, n)
                    fe = word_matrix((F(j), E(i)), boundary, n)
                    lhs = (ef - fe).scaled(Q - QINV)
                    if i == j:
                        rhs = gen_on_mixed(K(i), boundary, n) - gen_on_mixed(K(i, -1), boundary, n)
                    else:
                        rhs = OperatorMatrix(n, boundary, boundary)
                    assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3])
    def test_weight_conjugation(self, n):
        for boundary in self.BOUNDARIES:
            for i in range(1, n):
                for j in range(1, n):
                    pairing = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                    conj = word_matrix((K(i), E(j), K(i, -1)), boundary, n)
                    assert conj == gen_on_mixed(E(j), boundary, n).scaled(
                        LaurentPoly.monomial(1, pairing)
                    )
                    conj = word_matrix((K(i), F(j), K(i, -1)), boundary, n)
                    assert conj == gen_on_mixed(F(j), boundary, n).scaled(
                        LaurentPoly.monomial(1, -pairing)
                    )

    def test_serre_relations(self):
        n = 3
        two = Q + QINV
        for boundary in ((DOWN,), (DOWN, UP)):
            for x in (E, F):
                for i, j in ((1, 2), (2, 1)):
                    lhs = (
                        word_matrix((x(i), x(i), x(j)), boundary, n)
                        - word_matrix((x(i), x(j), x(i)), boundary, n).scaled(two)
                        + word_matrix((x(j), x(i), x(i)), boundary, n)
                    )
                    assert not lhs.entries

    def test_divided_powers_multiply_with_binomials(self):
        """X^(a) X^(b) = [a+b choose a] X^(a+b) and X^l = [l]! X^(l), the
        premise of the level-1 generator sweep, for X = E and F."""
        for n, m in itertools.product((2, 3), (1, 2, 3)):
            cases = itertools.product(itertools.product((DOWN, UP), repeat=m), range(1, n), (E, F))
            for boundary, i, x in cases:
                for a in range(1, m + 1):
                    for b in range(1, m + 2 - a):
                        product = word_matrix((x(i, a), x(i, b)), boundary, n)
                        assert product == gen_on_mixed(x(i, a + b), boundary, n).scaled(
                            quantum_binom(a + b, a)
                        )
                power, factorial = OperatorMatrix.identity(n, boundary), ONE
                for l in range(1, m + 2):
                    power = power.matmul(gen_on_mixed(x(i), boundary, n))
                    factorial = factorial * quantum_int(l)
                    assert power == gen_on_mixed(x(i, l), boundary, n).scaled(factorial)


class TestDividedPowerIdentities:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("right", [(DOWN,), (UP,)])
    def test_both_identities_hold(self, n, l, right):
        for i in range(1, n):
            raising_holds, lowering_holds = coproduct_oracle.check_divpowers(i, l, (DOWN,), right, n)
            assert raising_holds
            assert lowering_holds

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            coproduct_oracle.check_divpowers(1, 0, (DOWN,), (DOWN,), 2)
