"""Frozen ranks, report verdicts, and classical cross-checks for the
double-commutant verification."""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from conftest import compose_brauer, permutation_words
from dense_commutant import dense_commutant_dim
from descent_oracle import matrix_by_descent

import walled_tangles.duality as duality
import walled_tangles.rep as rep
from walled_tangles.cli import main
from walled_tangles.duality import (
    ResourceLimitError,
    annihilator_dims,
    classical_flip,
    commutant_dim,
    generator_sweep,
    hecke_to_walled,
    image_rank,
    verify_schur_weyl,
)
from walled_tangles.laurent import Q, QINV, LaurentPoly, lp_eval
from walled_tangles.qgroup import K, gen_on_mixed
from walled_tangles.rep import OperatorMatrix, matrix_of_connector, matrix_of_element, matrix_of_word
from walled_tangles.skein import identity_element, normalize, structure_constants
from walled_tangles.tangle import (
    DOWN,
    Connector,
    Cross,
    Hand,
    TangleWord,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    enumerate_connectors,
    strand_graph,
)

Q0 = Fraction(5, 3)


class TestExactRanks:
    def test_frozen_commutant_dimensions(self):
        assert commutant_dim(2, 1, 0, Q0) == 1
        assert commutant_dim(2, 1, 1, Q0) == 2
        assert commutant_dim(2, 3, 0, Q0) == 5

    def test_frozen_image_ranks(self):
        assert image_rank(2, 1, 1, Q0) == 2
        assert image_rank(2, 2, 1, Q0) == 5
        assert image_rank(3, 1, 1, Q0) == 2

    def test_frozen_annihilator_dims(self):
        assert annihilator_dims(2, 1, 1, Q0) == (0, 0)
        assert annihilator_dims(2, 2, 1, Q0) == (1, 1)
        assert annihilator_dims(3, 2, 1, Q0) == (0, 0)

    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1)])
    def test_rank_is_preserved_across_the_wall(self, n, r, s):
        assert image_rank(n, r + s, 0, Q0) == image_rank(n, r, s, Q0)

    @pytest.mark.parametrize(
        "q0", [Q0, -Q0, Fraction(2), Fraction(1), Fraction(-1)], ids=str
    )
    @pytest.mark.parametrize(
        "n,r,s",
        [(2, 1, 0), (2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 3, 0), (2, 2, 2), (4, 1, 1)],
    )
    def test_blocked_commutant_matches_the_dense_system(self, n, r, s, q0):
        assert commutant_dim(n, r, s, q0) == dense_commutant_dim(n, r, s, q0)

    @pytest.mark.parametrize("n,r,s,dim", [(3, 2, 1, 6), (2, 3, 2, 42), (3, 2, 2, 23)])
    def test_frozen_larger_instances(self, n, r, s, dim):
        assert commutant_dim(n, r, s, Q0) == dim
        assert image_rank(n, r, s, Q0) == dim

    def test_non_diagonal_cartan_unit_is_rejected(self, monkeypatch):
        exact = duality.gen_on_mixed

        def skewed(gen, boundary, n):
            matrix = exact(gen, boundary, n)
            if isinstance(gen, K):
                labels = sorted({row for row, _ in matrix.entries})
                matrix = matrix + OperatorMatrix(
                    n, boundary, boundary, {(labels[0], labels[1]): LaurentPoly.const(1)}
                )
            return matrix

        monkeypatch.setattr(duality, "gen_on_mixed", skewed)
        with pytest.raises(RuntimeError, match="diagonal"):
            commutant_dim(2, 1, 1, Q0)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            commutant_dim(4, 2, 2, Q0)
        with pytest.raises(ResourceLimitError):
            verify_schur_weyl(4, 2, 2, Q0)
        with pytest.raises(ResourceLimitError):
            image_rank(2, 4, 4, Q0)

    def test_generator_sweep_contents(self):
        assert generator_sweep(1, 3) == ()
        assert len(generator_sweep(2, 2)) == 6
        assert len(generator_sweep(3, 1)) == 8


class TestSymbolicCommutation:
    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_basis_matrices_commute_with_the_sweep(self, n, r, s):
        boundary = algebra_type(r, s).top
        matrices = [
            matrix_of_connector(connector, n)
            for connector in enumerate_connectors(algebra_type(r, s))
        ]
        for gen in generator_sweep(n, r + s):
            action = gen_on_mixed(gen, boundary, n)
            for matrix in matrices:
                assert matrix.commutator(action).is_zero()


class TestSliceCertificate:
    """The per-slice proof of the commutation claim against the full
    per-basis commutator check, and against a broken slice block."""

    @pytest.mark.parametrize(
        "n,r,s", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1)]
    )
    def test_certificate_agrees_with_every_basis_commutator(self, n, r, s):
        assert duality._first_uncommuting_step(n, r, s) is None
        boundary = algebra_type(r, s).top
        connectors = enumerate_connectors(algebra_type(r, s))
        matrices = [matrix_by_descent(c, n) for c in connectors]
        matrices += [matrix_of_word(canonical_basis_word(c), n) for c in connectors]
        for gen in generator_sweep(n, r + s):
            action = gen_on_mixed(gen, boundary, n)
            for matrix in matrices:
                assert matrix.commutator(action).is_zero()

    def test_broken_block_fails_the_claim(self, monkeypatch):
        exact = rep._local_cross
        swap = {Q: QINV, QINV: Q}

        def swapped_diagonal(n, entry, hand):
            local = exact(n, entry, hand)
            if entry != (DOWN, DOWN):
                return local
            return {
                (row, col): swap.get(v, v) if row == col and row[0] == row[1] else v
                for (row, col), v in local.items()
            }

        monkeypatch.setattr(rep, "_local_cross", swapped_diagonal)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "duality", "--n", "2", "--r", "2", "--s", "1", "--q0", "5/3"])
        assert code == 1
        data = json.loads(out.getvalue())
        (claim,) = [c for c in data["claims"] if c["name"] == "commutation"]
        assert claim["holds"] is False
        assert claim["detail"] == "slice block vv|vv : X+(1) does not intertwine E(i=1, l=1)"


class TestVerifyReport:
    def test_faithful_case(self):
        report = verify_schur_weyl(2, 1, 1, Q0)
        assert report.all_pass
        assert (report.image_rank, report.commutant_dim) == (2, 2)
        assert (report.annihilator_dim, report.hecke_annihilator_dim) == (0, 0)
        assert report.faithful

    def test_unfaithful_case(self):
        report = verify_schur_weyl(2, 2, 1, Q0)
        assert report.all_pass
        assert (report.image_rank, report.commutant_dim) == (5, 5)
        assert (report.annihilator_dim, report.hecke_annihilator_dim) == (1, 1)
        assert not report.faithful
        assert report.image_rank + report.annihilator_dim == math.factorial(3)

    def test_ordinary_tensor_space_case(self):
        report = verify_schur_weyl(2, 1, 0, Q0)
        assert report.all_pass
        assert report.image_rank == 1

    def test_other_specialization_point(self):
        report = verify_schur_weyl(2, 1, 1, Fraction(7, 4))
        assert report.all_pass
        assert report.q0 == Fraction(7, 4)

    def test_rank_mismatch_fails_at_the_requested_point(self, monkeypatch):
        exact = duality.commutant_dim

        def drops_rank_at_q0(n, r, s, q0):
            return exact(n, r, s, q0) + (q0 == Q0)

        monkeypatch.setattr(duality, "commutant_dim", drops_rank_at_q0)
        report = verify_schur_weyl(2, 1, 1, Q0)
        assert not report.all_pass
        assert report.q0 == Q0
        (claim,) = [c for c in report.claims if c.name == "rankMatch"]
        assert claim.holds is False
        assert claim.detail == f"image rank 2, commutant dimension 3 at q = {Q0}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "duality", "--n", "2", "--r", "1", "--s", "1"])
        assert code == 1

    def test_json_shape(self):
        report = verify_schur_weyl(2, 1, 1, Q0)
        data = report.to_json()
        assert data["q0"] == "5/3"
        assert data["imageRank"] == 2
        assert data["commutantDim"] == 2
        assert data["annihilatorDim"] == 0
        assert data["heckeAnnihilatorDim"] == 0
        assert data["faithful"] is True
        assert data["allPass"] is True
        assert [claim["name"] for claim in data["claims"]] == [
            "commutation",
            "rankMatch",
            "annihilatorMatch",
            "faithfulness",
        ]
        assert all(isinstance(v, float) for v in data["timingsSeconds"].values())


class TestVanishingCorrespondence:
    def test_kernel_elements_vanish_on_both_sides(self):
        n, r, s = 2, 2, 1
        hecke_sum = None
        walled_sum = None
        for perm, word in permutation_words(3).items():
            coeff = LaurentPoly.monomial((-1) ** len(word.slices), len(word.slices))
            h = normalize(word, n).scaled(coeff)
            w = hecke_to_walled(word, r, s, n).scaled(coeff)
            hecke_sum = h if hecke_sum is None else hecke_sum + h
            walled_sum = w if walled_sum is None else walled_sum + w
        assert not hecke_sum.is_zero()
        assert not walled_sum.is_zero()
        assert matrix_of_element(hecke_sum).is_zero()
        assert matrix_of_element(walled_sum).is_zero()

    def test_nonkernel_elements_vanish_on_neither_side(self):
        n, r, s = 2, 2, 1
        word = TangleWord(all_down_type(3), [])
        assert not matrix_of_element(normalize(word, n)).is_zero()
        assert not matrix_of_element(hecke_to_walled(word, r, s, n)).is_zero()


class TestClassicalFlip:
    def test_identity_matching_is_fixed(self):
        ident = Connector(all_down_type(2), [(("T", 1), ("B", 1)), (("T", 2), ("B", 2))])
        flipped = classical_flip(ident, 1, 1)
        assert flipped == Connector(
            algebra_type(1, 1), [(("T", 1), ("B", 1)), (("B", 2), ("T", 2))]
        )

    def test_transposition_becomes_the_double_arc(self):
        swap = Connector(all_down_type(2), [(("T", 1), ("B", 2)), (("T", 2), ("B", 1))])
        flipped = classical_flip(swap, 1, 1)
        assert flipped == Connector(
            algebra_type(1, 1), [(("T", 1), ("T", 2)), (("B", 2), ("B", 1))]
        )

    def test_vertices_left_of_the_wall_stay_in_place(self):
        conn = Connector(
            all_down_type(3),
            [(("T", 1), ("B", 1)), (("T", 2), ("B", 3)), (("T", 3), ("B", 2))],
        )
        flipped = classical_flip(conn, 2, 1)
        assert set(flipped.edges) == {
            (("T", 1), ("B", 1)),
            (("T", 2), ("T", 3)),
            (("B", 3), ("B", 2)),
        }

    def test_rejects_a_walled_input(self):
        turnback = Connector(
            algebra_type(1, 1), [(("T", 1), ("T", 2)), (("B", 2), ("B", 1))]
        )
        with pytest.raises(ValueError):
            classical_flip(turnback, 1, 1)

    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_transport_at_q_one_is_the_flip(self, r, s, n):
        one = Fraction(1)
        for perm, word in permutation_words(r + s).items():
            element = hecke_to_walled(word, r, s, n)
            at_one: dict = {}
            for connector, coeff in element.terms:
                value = lp_eval(coeff, one)
                if value:
                    at_one[connector] = at_one.get(connector, Fraction(0)) + value
            at_one = {c: v for c, v in at_one.items() if v}
            flipped = classical_flip(strand_graph(word).connector, r, s)
            assert at_one == {flipped: one}


# -- an independent composition oracle for the q = 1 limit ---------------------




class TestBrauerLimit:
    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_structure_constants_at_q_one(self, r, s, n):
        one = Fraction(1)
        table = structure_constants(r, s, n)
        for (c1, c2), product in table.items():
            expected_conn, loops = compose_brauer(c1, c2)
            at_one: dict = {}
            for connector, coeff in product.terms:
                value = lp_eval(coeff, one)
                if value:
                    at_one[connector] = at_one.get(connector, Fraction(0)) + value
            at_one = {c: v for c, v in at_one.items() if v}
            assert at_one == {expected_conn: Fraction(n) ** loops}
