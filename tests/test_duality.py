"""Frozen ranks, report verdicts, and classical cross-checks for the
double-commutant verification."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from conftest import compose_brauer, permutation_words
from cartan_oracle import rendered_unit_classes
from dense_commutant import dense_commutant_dim, dense_rank, dense_rank_mod_p, divided_power_sweep
from descent_oracle import matrix_by_descent
from eval_oracle import lp_eval

import walled_tangles.duality as duality
import walled_tangles.rep as rep
import walled_tangles.tangle as tangle
from walled_tangles.cli import main
from walled_tangles.duality import (
    ResourceLimitError,
    classical_flip,
    commutant_dim,
    generator_sweep,
    image_rank,
    verify_schur_weyl,
)
from walled_tangles.laurent import Q, QINV, LaurentPoly, quantum_int
from walled_tangles.qgroup import E, F, K, gen_on_mixed
from walled_tangles.rep import label_tuples, label_weight, matrix_of_connector, matrix_of_element, matrix_of_word
from walled_tangles.skein import hecke_to_walled, identity_element, normalize, structure_constants
from walled_tangles.tangle import (
    DOWN,
    Connector,
    UP,
    TangleWord,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    enumerate_connectors,
    strand_graph,
)

Q0 = Fraction(5, 3)


def random_integer_rows(rng: random.Random, height: int, width: int, support: int) -> list[dict[int, int]]:
    """Sparse integer rows of a chosen rank deficiency: fresh rows, zero
    rows, duplicates, negations and integer combinations of earlier rows,
    with signed entries, some of them above 2^64."""
    rows: list[dict[int, int]] = []
    for _ in range(height):
        kind = rng.choice(("fresh", "fresh", "zero", "duplicate", "negated", "combination")) if rows else "fresh"
        if kind == "zero":
            rows.append({})
        elif kind == "duplicate":
            rows.append(dict(rng.choice(rows)))
        elif kind == "negated":
            rows.append({c: -v for c, v in rng.choice(rows).items()})
        elif kind == "combination":
            (a, u), (b, v) = ((rng.randint(-5, 5), rng.choice(rows)) for _ in range(2))
            row = {c: a * u.get(c, 0) + b * v.get(c, 0) for c in u.keys() | v.keys()}
            rows.append({c: x for c, x in row.items() if x})
        else:
            cols = rng.sample(range(width), min(support, width))
            row = {c: rng.choice((-1, 1)) * rng.choice((1, 2, 3, 2**64 + rng.randint(1, 2**10))) for c in cols}
            row[cols[0]] = rng.choice((-1, 1)) * (2**64 + rng.randint(1, 2**10))
            rows.append(row)
    return rows


class TestRankOfRows:
    @pytest.mark.parametrize(
        "height,width,support,seed",
        [(6, 5, 3, s) for s in range(4)]
        + [(12, 9, 4, s) for s in range(4)]
        + [(16, 40, 8, s) for s in range(3)]
        + [(24, 2000, 60, s) for s in range(2)],
    )
    def test_matches_the_dense_rank(self, height, width, support, seed):
        rows = random_integer_rows(random.Random(seed), height, width, support)
        assert any(abs(v) > 2**64 for row in rows for v in row.values())
        dense = [[row.get(c, 0) for c in range(width)] for row in rows]
        rank = duality._rank_of_rows(rows)
        assert rank == dense_rank(dense)
        for p in (2, 7, duality.CHAIN_PRIME):
            assert duality._rank_up_to(rows, p, len(rows)) == dense_rank_mod_p(dense, p) <= rank

    def test_empty_and_zero_rows(self):
        assert duality._rank_of_rows([]) == 0
        assert duality._rank_of_rows([{}, {3: 0}]) == 0

    def test_reduction_mod_p_can_lower_the_rank(self):
        rows = [{0: 1}, {1: 7}]
        assert duality._rank_of_rows(rows) == 2
        assert duality._rank_up_to(rows, 7, len(rows)) == 1
        assert duality._rank_up_to([], 7, 0) == duality._rank_up_to([{}, {3: 14}, {1: -7}], 7, 3) == 0

    @pytest.mark.parametrize("p", [None, "stop", "block", 7, duality.CHAIN_PRIME])
    def test_rows_passed_in_are_not_changed(self, p):
        rows = random_integer_rows(random.Random(5), 24, 40, 8)
        before = [dict(row) for row in rows]
        if p is None:
            duality._rank_of_rows(rows)
        elif p == "stop":
            duality._rank_of_rows(rows, 20)
        elif p == "block":
            duality._rank_through_block(rows, set(range(0, 40, 3)))
        else:
            duality._rank_up_to(rows, p, len(rows))
        assert rows == before

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("stop", [0, 7, 20, 40])
    def test_stopped_rank_hands_back_the_rows_left(self, seed, stop):
        rows = random_integer_rows(random.Random(seed), 16, 40, 8)
        dense = [[row.get(c, 0) for c in range(40)] for row in rows]
        pivots, left = duality._rank_of_rows(rows, stop)
        # The pivots are the rank on the columns below stop, and no row left holds one of those.
        assert pivots == dense_rank([line[:stop] for line in dense])
        assert all(left) and all(c >= stop for row in left for c in row)
        # Stopping changes no row operation: the pivots and the rows left have the rank of all rows.
        assert pivots + duality._rank_of_rows(left) == dense_rank(dense)


class TestRankThroughBlock:
    """rank_Q(R) = rank_Q(R|C) + rank_Q(K.R), with K a basis of the left kernel of R|C."""

    def test_residual_adds_what_the_block_misses(self):
        # On C = {0} the rows are dependent, and their residual {5: 2, 7: -1} is not zero.
        assert duality._rank_through_block([{0: 1, 5: 1}, {0: 2, 7: 1}], {0}) == 2
        assert duality._rank_through_block([{0: 1, 5: 1}, {0: 2, 5: 2}], {0}) == 1
        # Two kernel vectors, one of them with residual zero.
        assert duality._rank_through_block([{0: 1, 5: 1}, {0: 2, 7: 1}, {0: -3, 5: -3}], {0}) == 2

    def test_rows_with_an_empty_block(self):
        # A row with nothing in C is its own kernel vector, and its residual is the row.
        assert duality._rank_through_block([{5: 3}, {0: 1, 5: 1}], {0}) == 2
        assert duality._rank_through_block([{5: 3}, {5: -6, 9: 0}], {0}) == 1
        assert duality._rank_through_block([{5: 3}, {7: 1}], set()) == 2
        assert duality._rank_through_block([], {0}) == duality._rank_through_block([{}, {0: 0}], {0}) == 0

    def test_tags_follow_every_block_column(self):
        # The tags start past the largest column of C, not past its size: a tag in column 2 would be
        # taken for the entry of C there.
        assert duality._rank_through_block([{2: 1, 9: 1}, {2: 1, 9: 2}], {0, 2}) == 2

    @pytest.mark.parametrize(
        "height,width,support,seed", [(6, 5, 3, s) for s in range(4)] + [(16, 40, 8, s) for s in range(4)]
    )
    @pytest.mark.parametrize("fraction", [0, 1, 3, 10])
    def test_matches_the_dense_rank(self, height, width, support, seed, fraction):
        rng = random.Random(seed)
        rows = random_integer_rows(rng, height, width, support)
        block = set(rng.sample(range(width), width * fraction // 10))
        dense = [[row.get(c, 0) for c in range(width)] for row in rows]
        assert duality._rank_through_block(rows, block) == dense_rank(dense)


class TestRankUpTo:
    """The stopped mod-p eliminator against the dense rank mod p."""

    @pytest.mark.parametrize(
        "height,width,support,seed",
        [(6, 5, 3, s) for s in range(4)] + [(16, 40, 8, s) for s in range(3)] + [(24, 2000, 60, s) for s in range(2)],
    )
    @pytest.mark.parametrize("p", [2, 7, duality.CHAIN_PRIME])
    def test_unstopped_rank_is_the_rank_mod_p(self, height, width, support, seed, p):
        rows = random_integer_rows(random.Random(seed), height, width, support)
        dense = [[row.get(c, 0) for c in range(width)] for row in rows]
        assert duality._rank_up_to(rows, p, height) == dense_rank_mod_p(dense, p)

    @pytest.mark.parametrize("p", [2, 7, duality.CHAIN_PRIME])
    def test_dense_residues_up_to_p_minus_1(self, p):
        # Every slot takes the largest additions the width has to hold.
        rng = random.Random(p)
        rows = [{c: rng.choice((p - 1, rng.randrange(p))) for c in range(30)} for _ in range(40)]
        dense = [[row[c] for c in range(30)] for row in rows]
        assert duality._rank_up_to(rows, p, 40) == dense_rank_mod_p(dense, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_the_row_that_reaches_the_bound(self, seed):
        rows = random_integer_rows(random.Random(seed), 16, 40, 8)
        p = duality.CHAIN_PRIME
        full = duality._rank_up_to(rows, p, len(rows))
        for bound in range(full + 1):
            read = []

            def reading():
                for row in rows:
                    read.append(row)
                    yield row

            assert duality._rank_up_to(reading(), p, bound) == bound
            prefix = [[row.get(c, 0) for c in range(40)] for row in read]
            # The last row read is the one that brought the rank to the bound.
            assert dense_rank_mod_p(prefix, p) == bound
            assert not read or dense_rank_mod_p(prefix[:-1], p) == bound - 1


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
        for (n, r, s), dims in {(2, 1, 1): (0, 0), (2, 2, 1): (1, 1), (3, 2, 1): (0, 0)}.items():
            report = verify_schur_weyl(n, r, s, Q0)
            assert (report.annihilator_dim, report.hecke_annihilator_dim) == dims

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
        # q0 = +-1: the weight blocks rest on [k] = k or (-1)^(k+1) k, and the level-1 sweep on [l]! != 0.
        for q0 in (Q0, Fraction(1), Fraction(-1)):
            assert commutant_dim(n, r, s, q0) == dim
            assert image_rank(n, r, s, q0) == dim

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            commutant_dim(4, 3, 2, Q0)
        with pytest.raises(ResourceLimitError):
            verify_schur_weyl(2, 4, 4, Q0)
        with pytest.raises(ResourceLimitError):
            verify_schur_weyl(100, 1, 1, Q0)
        with pytest.raises(ResourceLimitError):
            image_rank(2, 4, 4, Q0)

    def test_label_count_below_one_is_refused_before_any_charge(self, monkeypatch):
        def charged(cls, *args):
            raise AssertionError("charged before the label count was checked")

        monkeypatch.setattr(ResourceLimitError, "check", classmethod(charged))
        for n, r, s in ((0, 1, 1), (0, 0, 0), (-1, 2, 2)):
            with pytest.raises(ValueError, match=f"label count n must be at least 1, got {n}"):
                verify_schur_weyl(n, r, s, Q0)
            with pytest.raises(ValueError, match=f"label count n must be at least 1, got {n}"):
                commutant_dim(n, r, s, Q0)
            for upper in (None, 5):
                with pytest.raises(ValueError, match=f"label count n must be at least 1, got {n}"):
                    image_rank(n, r, s, Q0, upper)

    def test_negative_strand_count_is_refused_before_any_charge(self, monkeypatch):
        def charged(cls, *args):
            raise AssertionError("charged before the strand counts were checked")

        monkeypatch.setattr(ResourceLimitError, "check", classmethod(charged))
        # (-1, 0) and (-3, 1) have r + s < 0, where (r+s)! and n^(r+s) are not counts.
        for r, s in ((-1, 0), (-3, 1), (2, -1)):
            with pytest.raises(ValueError, match="strand counts must be nonnegative"):
                verify_schur_weyl(2, r, s, Q0)
            with pytest.raises(ValueError, match="strand counts must be nonnegative"):
                commutant_dim(2, r, s, Q0)
            for upper in (None, 5):
                with pytest.raises(ValueError, match="strand counts must be nonnegative"):
                    image_rank(2, r, s, Q0, upper)

    def test_image_rank_charges_its_labels_before_reading_one(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a label was read before the label charge")

        with monkeypatch.context() as patched:
            patched.setattr(duality, "label_tuples", forbidden)
            patched.setattr(duality, "label_weight", forbidden)
            # 24^4 = 331 776 labels, against 4! = 24 basis words.
            with pytest.raises(ResourceLimitError, match="label index has 331776 labels"):
                image_rank(24, 2, 2, Q0)
        # (3, 2, 2) has 81 labels.
        monkeypatch.setattr(duality, "VARIABLE_BUDGET", 80)
        with pytest.raises(ResourceLimitError, match="81 labels"):
            image_rank(3, 2, 2, Q0)
        monkeypatch.setattr(duality, "VARIABLE_BUDGET", 81)
        assert image_rank(3, 2, 2, Q0) == 23

    def test_budget_charges_the_blocked_unknowns(self, monkeypatch):
        # (2, 2, 2) has 70 blocked unknowns, against 256 in the dense system.
        monkeypatch.setattr(duality, "VARIABLE_BUDGET", 70)
        assert verify_schur_weyl(2, 2, 2, Q0).commutant_dim == 14
        monkeypatch.setattr(duality, "VARIABLE_BUDGET", 69)
        with pytest.raises(ResourceLimitError, match="70 variables"):
            commutant_dim(2, 2, 2, Q0)

    @pytest.mark.parametrize("q0", [Fraction(1), Fraction(-1)], ids=str)
    def test_classical_points_pass_on_the_weight_blocks(self, q0):
        report = verify_schur_weyl(4, 2, 2, q0)
        assert report.image_rank == report.commutant_dim == 24
        assert report.all_pass

    def test_classical_points_are_charged_the_weight_blocks(self, monkeypatch):
        # (4, 2, 2) has 2716 unknowns at every q0, q0 = +-1 included.
        monkeypatch.setattr(duality, "VARIABLE_BUDGET", 2715)
        for q0 in (Q0, Fraction(1), Fraction(-1)):
            with pytest.raises(ResourceLimitError, match="2716 variables"):
                commutant_dim(4, 2, 2, q0)

    def test_refused_instance_renders_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rendered or eliminated before the budget check")

        rendering = (
            "_rank_of_rows",
            "_rank_up_to",
            "local_block",
            "specialized_word_matrices",
            "_first_uncommuting_step",
            "gen_on_mixed",
        )
        for name in rendering:
            monkeypatch.setattr(duality, name, forbidden)
        # The 213 labels of the most populous weight space are read off the label weights: no generator is rendered.
        with pytest.raises(ResourceLimitError, match="weight-space rank has 45369 variables"):
            verify_schur_weyl(3, 4, 3, Q0)
        # Past the budget in the 8! basis words, not one label's weight is read.
        monkeypatch.setattr(duality, "label_weight", forbidden)
        with pytest.raises(ResourceLimitError, match="40320 variables"):
            verify_schur_weyl(2, 4, 4, Q0)
        # Past the budget in the label-weight table, likewise.
        with pytest.raises(ResourceLimitError, match="weight signature"):
            verify_schur_weyl(100, 1, 1, Q0)

    def test_generator_sweep_contents(self):
        assert generator_sweep(1) == ()
        assert generator_sweep(2) == (E(1), F(1))
        assert generator_sweep(3) == (E(1), F(1), E(2), F(2))
        # The level-1 oracle sweep less its Cartan units, which the weight lemma covers.
        assert generator_sweep(3) == tuple(g for g in divided_power_sweep(3, 1) if not isinstance(g, K))


def largest_weight_space(n: int, boundary) -> list:
    """The weight space ``image_rank`` ranks first."""
    return max(duality._weight_classes(n, boundary), key=len)


def record_starts(monkeypatch, render=None) -> list:
    """Spy on ``duality.specialized_word_matrices``: the start of each call,
    in order.  ``render``, given, renders in its place."""
    starts = []
    exact = render or duality.specialized_word_matrices

    def recorded(words, n, q0, start=None):
        starts.append(start)
        return exact(words, n, q0, start)

    monkeypatch.setattr(duality, "specialized_word_matrices", recorded)
    return starts


def decoded_starts(n: int, m: int, starts: list) -> list:
    """Each start, a set of label codes, as the set of its labels: codes are positions in label_tuples order."""
    labels = list(label_tuples(n, m))
    return [{labels[code] for code in start} for start in starts]


def full_rows_rank(n: int, r: int, s: int, q0: Fraction) -> int:
    """Oracle for ``image_rank``: every row of every basis matrix, ranked."""
    words = [canonical_basis_word(c) for c in enumerate_connectors(algebra_type(r, s))]
    return duality._rank_of_rows(
        {(row, col): value for row, cols in rows.items() for col, value in cols.items()}
        for rows, _ in rep.specialized_word_matrices(words, n, q0)
    )


FAITHFUL_CASES = [(n, r, m - r) for m in range(1, 5) for n in range(m, 5) for r in range(m + 1)]

#: Every instance with n <= 4 and r + s <= 5, r + s <= 4 at n >= 3: where n < r + s, ``image_rank``
#: with no upper end is the rank over Q through the mu0 block.
BLOCK_CASES = [(n, r, m - r) for n in range(1, 5) for m in range(6 if n <= 2 else 5) for r in range(m + 1)]


class TestWeightRowCertificate:
    def test_faithful_grid_size(self):
        assert len(FAITHFUL_CASES) == 30

    @pytest.mark.parametrize("n,r,s", FAITHFUL_CASES, ids=str)
    def test_image_rank_matches_all_rows(self, n, r, s):
        for q0 in (Q0, -Q0, Fraction(1), Fraction(-1), Fraction(2)):
            assert image_rank(n, r, s, q0) == full_rows_rank(n, r, s, q0) == math.factorial(r + s)

    def test_block_grid_size(self):
        assert len(BLOCK_CASES) == 72 and sum(n < r + s for n, r, s in BLOCK_CASES) == 38

    @pytest.mark.parametrize("n,r,s", BLOCK_CASES, ids=str)
    def test_image_rank_through_the_block_matches_all_rows(self, n, r, s):
        for q0 in (Q0, -Q0, Fraction(1), Fraction(-1), Fraction(2)):
            assert image_rank(n, r, s, q0) == full_rows_rank(n, r, s, q0)

    def test_short_restricted_rank_falls_back_to_all_rows(self, monkeypatch):
        ranks = record_eliminations(monkeypatch)
        monkeypatch.setattr(duality, "_weight_classes", lambda n, boundary: [[(1, 2, 3, 4)]])
        assert image_rank(4, 2, 2, Q0) == 24
        # The restricted rank mod p stops short of 24, and the rows are then ranked over Q: the
        # one-label block holds rank 1, and the residuals of its kernel the other 23.
        assert [(name, p) for name, p, _, _ in ranks] == [("_rank_up_to", duality.CHAIN_PRIME)] + Q_SIDE
        assert ranks[0][3] < 24 and (ranks[1][3], ranks[2][3]) == (1, 23)

    @pytest.mark.parametrize("n,r,s,restricted", [(4, 2, 2, True), (5, 3, 1, True), (3, 2, 2, False), (2, 3, 0, False)])
    def test_rows_are_restricted_only_when_n_reaches_r_plus_s(self, monkeypatch, n, r, s, restricted):
        starts = record_starts(monkeypatch)
        image_rank(n, r, s, Q0)
        if restricted:
            # 4 * 4! = 96 rows are asked of 28 labels at (4, 2, 2) and of 24 at (5, 3, 1): the first
            # round takes 4 of them, and it closes the rank.
            (start,) = decoded_starts(n, r + s, starts)
            assert len(start) == 4 and start < set(largest_weight_space(n, algebra_type(r, s).top))
        else:
            assert starts == [None]

    def test_rounds_double_inside_the_weight_space(self, monkeypatch):
        starts = record_starts(monkeypatch)
        # 4 * 24 rows are asked of the 66 labels of mu0 at (6, 2, 2): 2 labels stop at rank 14, and 4 close it.
        assert image_rank(6, 2, 2, Q0) == full_rows_rank(6, 2, 2, Q0) == 24
        decoded = decoded_starts(6, 4, starts)
        assert [len(start) for start in decoded] == [2, 4]
        assert decoded[0] < decoded[1] < set(largest_weight_space(6, algebra_type(2, 2).top))

    def test_rounds_stop_at_a_passed_upper_end(self, monkeypatch):
        starts = record_starts(monkeypatch)
        # 4 * 119 rows of 64 labels: 8 labels stop at rank 113, and 16 close it.
        assert image_rank(4, 2, 3, Q0, 119) == 119
        assert [len(start) for start in starts] == [8, 16]

    def test_an_end_no_round_reaches_is_ranked_over_q(self, monkeypatch):
        assert full_rows_rank(3, 2, 2, Q0) == 23
        starts = record_starts(monkeypatch)
        ranks = record_eliminations(monkeypatch)
        # 24 is above the rank 23 at (3, 2, 2): two short rounds, all of mu0, and then every row over Q.
        assert image_rank(3, 2, 2, Q0, 24) == 23
        assert [len(start) for start in starts[:-1]] == [7, 14, 15] and starts[-1] is None
        assert [(name, p) for name, p, _, _ in ranks] == [("_rank_up_to", duality.CHAIN_PRIME)] * 3 + Q_SIDE

    def test_short_rounds_end_in_all_of_the_weight_space(self, monkeypatch):
        mu0 = len(largest_weight_space(6, algebra_type(2, 2).top))
        exact = duality.specialized_word_matrices

        def rowless_below_mu0(words, n, q0, start=None):
            if start is not None and len(start) < mu0:
                return [({}, 1) for _ in words]
            return exact(words, n, q0, start)

        starts = record_starts(monkeypatch, rowless_below_mu0)
        ranks = record_eliminations(monkeypatch)
        assert image_rank(6, 2, 2, Q0) == 24
        # The rounds of 2 to 64 labels rank no row; the last round, all 66 of mu0, closes the rank
        # mod p, and nothing is ranked over Q.
        assert [len(start) for start in starts] == [2, 4, 8, 16, 32, 64, mu0] and mu0 == 66
        assert [(name, p, rank) for name, p, _, rank in ranks] == [("_rank_up_to", duality.CHAIN_PRIME, 0)] * 6 + [
            ("_rank_up_to", duality.CHAIN_PRIME, 24)
        ]

    def test_largest_weight_space_on_two_points(self):
        assert largest_weight_space(2, (DOWN, UP)) == [(1, 1), (2, 2)]
        assert largest_weight_space(3, (DOWN, DOWN)) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("n,r,s", [(2, 2, 2), (3, 2, 1), (3, 1, 2), (4, 3, 1), (4, 4, 0), (3, 0, 3), (5, 2, 2)])
    def test_largest_weight_space_is_the_largest_weight_class(self, n, r, s):
        boundary = algebra_type(r, s).top
        labels = largest_weight_space(n, boundary)
        # Away from q = +-1 the Cartan eigenvalue classes are the weight spaces.
        classes = rendered_unit_classes(n, boundary, Q0)
        assert len(labels) == max(len(block) for block in classes)
        assert labels in classes


#: Every (n, r, s) with n <= 4 and r + s <= 5, at five points, the classical ones included.
CLASS_CASES = [(n, r, m - r) for n in range(1, 5) for m in range(6) for r in range(m + 1)]
CLASS_POINTS = (Q0, -Q0, Fraction(1), Fraction(-1), Fraction(2))


class TestEigenvalueClasses:
    def test_class_grid_size(self):
        assert len(CLASS_CASES) * len(CLASS_POINTS) == 420

    @pytest.mark.parametrize("n,r,s", CLASS_CASES, ids=str)
    def test_weight_classes_match_the_rendered_units(self, n, r, s):
        boundary = algebra_type(r, s).top
        classes = duality._weight_classes(n, boundary)
        for q0 in CLASS_POINTS:
            rendered = rendered_unit_classes(n, boundary, q0)
            if abs(q0) != 1:
                assert classes == rendered
                continue
            # At q0 = +-1 eigenvalues of different weights coincide: every weight
            # space lies inside one rendered class, and together they cover each label once.
            class_of = {label: t for t, block in enumerate(rendered) for label in block}
            assert all(len({class_of[label] for label in block}) == 1 for block in classes)
            assert sorted(label for block in classes for label in block) == sorted(class_of)


def signed_quantum_int(k: int) -> LaurentPoly:
    """[k] for every integer k, with [-k] = -[k]."""
    return quantum_int(k) if k >= 0 else -quantum_int(-k)


#: Every (n, r, s, i) with n <= 4, 1 <= r + s <= 4 and 1 <= i < n.
COMMUTATOR_CASES = [(n, r, m - r, i) for n in range(2, 5) for m in range(1, 5) for r in range(m + 1) for i in range(1, n)]


class TestWeightBlocks:
    """The lemma behind the commutant's weight blocks at every q0."""

    def test_commutator_grid_size(self):
        assert len(COMMUTATOR_CASES) == 84

    @pytest.mark.parametrize("n,r,s,i", COMMUTATOR_CASES, ids=str)
    def test_commutator_of_e_and_f_is_the_weight_quantum_integer(self, n, r, s, i):
        boundary = algebra_type(r, s).top
        e, f = gen_on_mixed(E(i), boundary, n), gen_on_mixed(F(i), boundary, n)
        # matmul applies its left factor first, so this difference is F E - E F: the sign flips.
        diagonal = {}
        for label in label_tuples(n, r + s):
            weight = label_weight(n, boundary, label)
            diagonal[label, label] = -signed_quantum_int(weight[i - 1] - weight[i])
        assert e.matmul(f) - f.matmul(e) == rep.OperatorMatrix(n, boundary, boundary, diagonal)
        # The blocks need k -> [k] injective on every difference a weight can show.
        for q0 in (Q0, -Q0, Fraction(2), Fraction(1), Fraction(-1)):
            values = {lp_eval(signed_quantum_int(k), q0) for k in range(-(r + s), r + s + 1)}
            assert len(values) == 2 * (r + s) + 1


#: Every walled type with 2 <= r + s <= 5, the all-down ones included, at 2 <= n <= 4.  At
#: r + s = 1 the one basis word is the identity, with no step.
CARTAN_ORACLE_CASES = [(n, r, m - r) for n in range(2, 5) for m in range(2, 6) for r in range(m + 1)]


class TestSymbolicCommutation:
    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)])
    def test_basis_matrices_commute_with_the_sweep(self, n, r, s):
        boundary = algebra_type(r, s).top
        matrices = [
            matrix_of_connector(connector, n)
            for connector in enumerate_connectors(algebra_type(r, s))
        ]
        for gen in divided_power_sweep(n, r + s):
            action = gen_on_mixed(gen, boundary, n)
            for matrix in matrices:
                assert matrix.matmul(action) == action.matmul(matrix)


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
        for gen in divided_power_sweep(n, r + s):
            action = gen_on_mixed(gen, boundary, n)
            for matrix in matrices:
                assert matrix.matmul(action) == action.matmul(matrix)

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


    def test_broken_all_down_block_fails_the_claim(self, monkeypatch):
        # No walled basis word of type (1, 2) crosses two DOWN strands; only the
        # all-down steps, certified when n < r + s for the all-down rank, hold that block.
        exact = rep._local_cross

        def swapped_diagonal(n, entry, hand):
            local = exact(n, entry, hand)
            if entry != (DOWN, DOWN):
                return local
            return {(row, col): {Q: QINV, QINV: Q}.get(v, v) if row == col else v for (row, col), v in local.items()}

        monkeypatch.setattr(rep, "_local_cross", swapped_diagonal)
        step, gen = duality._first_uncommuting_step(2, 1, 2)
        assert str(step) == "vv|vv : X+(1)"
        (claim,) = [c for c in verify_schur_weyl(2, 1, 2, Q0).claims if c.name == "commutation"]
        assert claim.holds is False
        # At n >= r + s the all-down rank stops at (r+s)!, which needs no certificate: no all-down step is checked.
        assert duality._first_uncommuting_step(3, 1, 2) is None

    @pytest.mark.parametrize("n,r,s", CARTAN_ORACLE_CASES, ids=str)
    def test_every_certified_step_commutes_with_the_cartan_units(self, monkeypatch, n, r, s):
        # The sweep holds E(i) and F(i) alone; the weight lemma gives K(i) and K'(i).
        blocks = []
        exact = duality.local_block

        def recorded(n, top, unit):
            blocks.append(exact(n, top, unit))
            return blocks[-1]

        monkeypatch.setattr(duality, "local_block", recorded)
        assert duality._first_uncommuting_step(n, r, s) is None
        assert blocks
        for block in blocks:
            for gen in (K(i, sign) for i in range(1, n) for sign in (1, -1)):
                top, bottom = gen_on_mixed(gen, block.row_type, n), gen_on_mixed(gen, block.col_type, n)
                assert block.matmul(bottom) == top.matmul(block)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_block_that_moves_weight_fails_on_e_or_f(self, monkeypatch, n):
        exact = rep._local_cross

        def leaking(n, entry, hand):
            local = exact(n, entry, hand)
            if entry == (DOWN, DOWN):
                # From weight 2 e_1 to e_1 + e_2.
                local[(1, 1), (1, 2)] = Q
            return local

        monkeypatch.setattr(rep, "_local_cross", leaking)
        step, gen = duality._first_uncommuting_step(n, 2, 0)
        assert isinstance(gen, (E, F))
        assert step.ty.top == (DOWN, DOWN)
        # The Cartan units, no longer swept, would have caught the same block.
        block = rep.local_block(n, step.ty.top, step.slices[0])
        k = gen_on_mixed(K(1), step.ty.top, n)
        assert block.matmul(k) != k.matmul(block)

    @pytest.mark.parametrize("n,r,s", [(2, 3, 0), (3, 2, 0), (2, 2, 1), (4, 2, 1), (2, 3, 2), (2, 6, 6)])
    def test_no_connector_or_basis_word_is_built(self, monkeypatch, n, r, s):
        # At (2, 6, 6) enumerating the 12! connectors would not finish.
        called = []

        def spy(module, name):
            exact = getattr(module, name)

            def recorded(*args, **kwargs):
                called.append(name)
                return exact(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        for module in (duality, tangle):
            for name in ("enumerate_connectors", "canonical_basis_word", "TangleWord"):
                spy(module, name)
        assert duality._first_uncommuting_step(n, r, s) is None
        assert called == []

    def test_two_broken_blocks_report_the_first_in_the_lemma_order(self, monkeypatch):
        # X-(1) on (^, ^) precedes X+(1) on (v, v) in tangle.canonical_steps at every (r, s).
        exact = rep._local_cross

        def swapped_diagonal(n, entry, hand):
            local = exact(n, entry, hand)
            if entry not in ((DOWN, DOWN), (UP, UP)):
                return local
            return {
                (row, col): {Q: QINV, QINV: Q}.get(v, v) if row == col and row[0] == row[1] else v
                for (row, col), v in local.items()
            }

        monkeypatch.setattr(rep, "_local_cross", swapped_diagonal)
        (claim,) = [c for c in verify_schur_weyl(2, 2, 2, Q0).claims if c.name == "commutation"]
        assert claim.detail == "slice block ^^|^^ : X-(1) does not intertwine E(i=1, l=1)"
        step, _ = duality._first_uncommuting_step(2, 4, 2)
        assert str(step) == "^^|^^ : X-(1)"


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

        # Both ends of the commutant side say 3: the chain's end is never met, and the Q route reports 3.
        bound = duality._highest_weight_bound
        monkeypatch.setattr(duality, "_highest_weight_bound", lambda n, r, s, q0, p: bound(n, r, s, q0, p) + (q0 == Q0))
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



#: The eliminations of one image rank taken over Q: its tagged mu0 block, stopped at the tags, then
#: the residuals of the block's left kernel.
Q_SIDE = [("_rank_of_rows(stop)", None), ("_rank_of_rows", None)]


def record_eliminations(monkeypatch) -> list:
    """Spy on both eliminators: (name, prime, columns read, rank) of each
    call; the prime is None for ``_rank_of_rows``, which works over Q, and
    its call stopped at a column bound is named ``_rank_of_rows(stop)``,
    with its pivot count as the rank."""
    calls = []
    exact_rows, exact_up_to = duality._rank_of_rows, duality._rank_up_to

    def reading(rows, columns: set):
        for row in rows:
            columns.update(row)
            yield row

    def rank_of_rows(rows, *stop):
        columns: set = set()
        result = exact_rows(reading(rows, columns), *stop)
        rank = result[0] if stop else result
        calls.append(("_rank_of_rows(stop)" if stop else "_rank_of_rows", None, len(columns), rank))
        return result

    def rank_up_to(rows, p, bound):
        columns: set = set()
        rank = exact_up_to(reading(rows, columns), p, bound)
        calls.append(("_rank_up_to", p, len(columns), rank))
        return rank

    monkeypatch.setattr(duality, "_rank_of_rows", rank_of_rows)
    monkeypatch.setattr(duality, "_rank_up_to", rank_up_to)
    return calls


def record_ends(monkeypatch) -> list:
    """Spy on both routes: (name, upper end, value) of each call;
    ``_highest_weight_bound`` and ``commutant_dim`` take no upper end and
    record None."""
    ends = []

    def bound(n, r, s, q0, p, exact=duality._highest_weight_bound):
        ends.append(("_highest_weight_bound", None, exact(n, r, s, q0, p)))
        return ends[-1][2]

    def commutant(n, r, s, q0, exact=duality.commutant_dim):
        ends.append(("commutant_dim", None, exact(n, r, s, q0)))
        return ends[-1][2]

    def rank(n, r, s, q0, upper=None, exact=duality.image_rank):
        ends.append(("image_rank", upper, exact(n, r, s, q0, upper)))
        return ends[-1][2]

    monkeypatch.setattr(duality, "_highest_weight_bound", bound)
    monkeypatch.setattr(duality, "commutant_dim", commutant)
    monkeypatch.setattr(duality, "image_rank", rank)
    return ends


def assert_chain_closes_mod_p(calls: list, report) -> None:
    """The eliminations of a chain that closes: the weight spaces of
    ``_highest_weight_bound``, then the walled and the all-down image rank,
    the reported ones, every one by ``_rank_up_to`` mod ``CHAIN_PRIME``."""
    assert {(name, p) for name, p, _, _ in calls} == {("_rank_up_to", duality.CHAIN_PRIME)}
    m = report.r + report.s
    assert [rank for *_, rank in calls[-2:]] == [report.image_rank, math.factorial(m) - report.hecke_annihilator_dim]


#: The instances of the benchmark's ``duality`` workload, and five more, all with r + s <= 5.
CHAIN_CASES = [(2, 2, 2), (2, 3, 1), (4, 1, 1), (2, 1, 3), (2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 1, 2), (2, 4, 1)]


class TestRankChain:
    """The walled ranks decided mod ``CHAIN_PRIME``, and the Q fallback."""

    @pytest.mark.parametrize("n,r,s", CHAIN_CASES[:4], ids=str)
    def test_walled_ranks_stay_mod_p(self, monkeypatch, n, r, s):
        calls = record_eliminations(monkeypatch)
        report = verify_schur_weyl(n, r, s, Q0)
        assert report.all_pass
        # The weight spaces of the highest-weight count, then the walled image and the
        # all-down image, all mod p: the two images stop at their upper ends, and
        # nothing is ranked over Q.
        assert_chain_closes_mod_p(calls, report)

    def test_unlucky_prime_falls_back_to_q(self, monkeypatch):
        # 5/3 has order 3 mod 7, and the generation check fails: there is no upper end mod 7.
        monkeypatch.setattr(duality, "CHAIN_PRIME", 7)
        calls = record_eliminations(monkeypatch)
        ends = record_ends(monkeypatch)
        report = verify_schur_weyl(2, 3, 2, Q0)
        assert ends[:3] == [("_highest_weight_bound", None, None), ("image_rank", None, 42), ("commutant_dim", None, 42)]
        assert {p for _, p, _, _ in calls} == {7, None}
        assert report.all_pass
        assert (report.image_rank, report.commutant_dim) == (42, 42)

    def test_failed_commutation_claim_falls_back_to_q(self, monkeypatch):
        # Without the containment the chain proves nothing, even where its ends meet.
        monkeypatch.setattr(duality, "_first_uncommuting_step", lambda n, r, s: ("a step", "a generator"))
        calls = record_eliminations(monkeypatch)
        ends = record_ends(monkeypatch)
        report = verify_schur_weyl(2, 2, 2, Q0)
        # No upper end is computed, and both image ranks, the all-down one too, are one rank over Q.
        assert ends == [("image_rank", None, 14), ("commutant_dim", None, 14), ("image_rank", None, 14)]
        assert [(name, p) for name, p, _, _ in calls] == Q_SIDE + [("_rank_of_rows", None)] + Q_SIDE
        assert [claim.holds for claim in report.claims] == [False, True, True, True]

    def test_prime_dividing_q0_goes_straight_to_q(self, monkeypatch):
        expected = verify_schur_weyl(2, 2, 2, Q0).to_json()
        # 5 divides the numerator of 5/3 and 3 its denominator: neither prime gives a chain.
        monkeypatch.setattr(duality, "CHAIN_PRIME", 5)
        monkeypatch.setattr(duality, "SECOND_CHAIN_PRIME", 3)
        calls = record_eliminations(monkeypatch)
        data = verify_schur_weyl(2, 2, 2, Q0).to_json()
        # The walled image over Q, the blocked system, and the all-down image over Q.
        assert [(name, p) for name, p, _, _ in calls] == Q_SIDE + [("_rank_of_rows", None)] + Q_SIDE
        assert {**data, "timingsSeconds": None} == {**expected, "timingsSeconds": None}

    def test_second_prime_closes_the_chain_when_the_first_divides_q0(self, monkeypatch):
        expected = verify_schur_weyl(2, 2, 2, Q0).to_json()
        monkeypatch.setattr(duality, "CHAIN_PRIME", 5)
        calls = record_eliminations(monkeypatch)
        data = verify_schur_weyl(2, 2, 2, Q0).to_json()
        assert {(name, p) for name, p, _, _ in calls} == {("_rank_up_to", duality.SECOND_CHAIN_PRIME)}
        assert {**data, "timingsSeconds": None} == {**expected, "timingsSeconds": None}

    def test_chain_prime_dividing_the_numerator_closes_the_chain_mod_the_second(self, monkeypatch):
        # CHAIN_PRIME divides the numerator, so the chain is taken mod SECOND_CHAIN_PRIME, and the
        # blocked commutant system, which takes minutes at this point, is never built.
        def forbidden(*args):
            raise AssertionError("commutant_dim called where the chain closes")

        monkeypatch.setattr(duality, "commutant_dim", forbidden)
        calls = record_eliminations(monkeypatch)
        report = verify_schur_weyl(3, 3, 2, Fraction(duality.CHAIN_PRIME, 3))
        assert (report.image_rank, report.commutant_dim) == (103, 103)
        assert report.all_pass
        assert {(name, p) for name, p, _, _ in calls} == {("_rank_up_to", duality.SECOND_CHAIN_PRIME)}

    def test_q0_divisible_by_both_primes_takes_the_q_route(self, monkeypatch):
        calls = record_eliminations(monkeypatch)
        report = verify_schur_weyl(2, 2, 2, Fraction(duality.CHAIN_PRIME, duality.SECOND_CHAIN_PRIME))
        assert [(name, p) for name, p, _, _ in calls] == Q_SIDE + [("_rank_of_rows", None)] + Q_SIDE
        assert (report.image_rank, report.commutant_dim) == (14, 14)
        assert report.all_pass

    def test_chain_prime_picks_the_first_prime_to_q0(self):
        p, second = duality.CHAIN_PRIME, duality.SECOND_CHAIN_PRIME
        for q0 in (Q0, -Q0, Fraction(1), Fraction(-1), Fraction(2), Fraction(second, 3), Fraction(2, second)):
            assert duality._chain_prime(q0) == p
        for q0 in (Fraction(p, 3), Fraction(3, p), Fraction(-p * 7, 11), Fraction(p)):
            assert duality._chain_prime(q0) == second
        for q0 in (Fraction(p, second), Fraction(second, p), Fraction(p * second), Fraction(1, p * second)):
            assert duality._chain_prime(q0) is None

    def test_cartan_only_sweep_is_a_mismatch_over_q(self, monkeypatch):
        exact = duality.generator_sweep
        monkeypatch.setattr(duality, "generator_sweep", lambda n: tuple(g for g in exact(n) if isinstance(g, K)))
        ends = record_ends(monkeypatch)
        report = verify_schur_weyl(2, 2, 2, Q0)
        # The walled rows never reach 70, so the walled rank is taken over Q; the all-down rank meets its RSK count.
        assert ends == [
            ("_highest_weight_bound", None, 70),
            ("image_rank", 70, 14),
            ("commutant_dim", None, 70),
            ("image_rank", 14, 14),
        ]
        assert not report.all_pass
        (claim,) = [c for c in report.claims if c.name == "rankMatch"]
        assert claim.holds is False
        assert claim.detail == f"image rank 14, commutant dimension 70 at q = {Q0}"

    @pytest.mark.parametrize("short_side", ["walled", "all-down"])
    def test_a_side_stopped_short_ranks_once_over_q(self, monkeypatch, short_side):
        # The walled rows never reach the Cartan-only sweep's count 70 at (2, 2, 2);
        # the all-down rows never reach an RSK count forced to 43 at (2, 3, 2).
        if short_side == "walled":
            n, r, s, exact = 2, 2, 2, duality.generator_sweep
            monkeypatch.setattr(duality, "generator_sweep", lambda n: tuple(g for g in exact(n) if isinstance(g, K)))
        else:
            n, r, s, exact = 2, 3, 2, duality._rsk_count
            monkeypatch.setattr(duality, "_rsk_count", lambda n, m: exact(n, m) + 1)
        calls = record_eliminations(monkeypatch)
        starts = []
        exact_render = duality.specialized_word_matrices

        def render(words, n, q0, start=None):
            starts.append(start)
            return exact_render(words, n, q0, start)

        monkeypatch.setattr(duality, "specialized_word_matrices", render)
        sides = []

        def rank(n, r, s, q0, *rest, exact=duality.image_rank):
            start, rendered = len(calls), len(starts)
            value = exact(n, r, s, q0, *rest)
            sides.append(((r, s), calls[start:], starts[rendered:], value))
            return value

        monkeypatch.setattr(duality, "image_rank", rank)
        verify_schur_weyl(n, r, s, Q0)
        assert [ty for ty, *_ in sides] == [(r, s), (r + s, 0)]
        p = duality.CHAIN_PRIME
        for (side_r, side_s), eliminations, renders, value in sides:
            stopped_short = (side_s == 0) == (short_side == "all-down")
            routes = [(name, prime) for name, prime, _, _ in eliminations]
            assert routes == [("_rank_up_to", p)] + Q_SIDE * stopped_short
            # The rank mod p reads the most populous weight space's rows alone, never every row.
            weight_space = set(largest_weight_space(n, algebra_type(side_r, side_s).top))
            mu0 = len(weight_space)
            labels = list(label_tuples(n, side_r + side_s))
            renders = [None if start is None else {labels[code] for code in start} for start in renders]
            (width,) = [width for _, prime, width, _ in eliminations if prime is not None]
            assert width <= mu0**2
            # Only the weight space's rows are rendered for it; a side that stops short renders
            # every row once more, last, for the rank over Q.
            assert renders[: len(renders) - stopped_short] == [weight_space] * (len(renders) - stopped_short)
            assert renders[len(renders) - stopped_short :] == [None] * stopped_short
            if stopped_short:
                # Over Q the eliminator reads the mu0 block and one tag per word, and the pivots on
                # the block and the rank of the residuals make up the rank.
                words = math.factorial(side_r + side_s)
                assert eliminations[1][2] <= mu0**2 + words
                assert eliminations[1][3] + eliminations[2][3] == value

    def test_chain_grid_size(self):
        assert len(CHAIN_CASES) >= 9 and all(r + s <= 5 for _, r, s in CHAIN_CASES)

    @pytest.mark.parametrize("q0", [Q0, -Q0, Fraction(1), Fraction(-1), Fraction(2)], ids=str)
    @pytest.mark.parametrize("n,r,s", CHAIN_CASES, ids=str)
    def test_both_routes_agree(self, n, r, s, q0):
        bound = duality._highest_weight_bound(n, r, s, q0, duality.CHAIN_PRIME)
        assert bound == commutant_dim(n, r, s, q0)
        assert image_rank(n, r, s, q0, bound) == image_rank(n, r, s, q0)

    @pytest.mark.parametrize("q0", [Q0, Fraction(1), Fraction(-1), Fraction(2)], ids=str)
    @pytest.mark.parametrize("n,r,s", CHAIN_CASES, ids=str)
    def test_report_matches_the_q_route(self, monkeypatch, n, r, s, q0):
        calls = record_eliminations(monkeypatch)
        report = verify_schur_weyl(n, r, s, q0)
        # Both chains close mod p: nothing is ranked over Q.
        assert all(p is not None for _, p, _, _ in calls)
        m = r + s
        assert report.all_pass
        assert report.image_rank == full_rows_rank(n, r, s, q0)
        assert report.commutant_dim == commutant_dim(n, r, s, q0)
        assert report.hecke_annihilator_dim == math.factorial(m) - full_rows_rank(n, m, 0, q0)

    def test_all_down_rank_is_taken_mod_p_against_the_rsk_count(self, monkeypatch):
        calls = record_eliminations(monkeypatch)
        ends = record_ends(monkeypatch)
        report = verify_schur_weyl(2, 3, 2, Q0)
        assert duality._rsk_count(2, 5) == 42
        # The walled rank stops at the highest-weight count, the all-down rank at the RSK count.
        assert ends == [("_highest_weight_bound", None, 42), ("image_rank", 42, 42), ("image_rank", 42, 42)]
        assert_chain_closes_mod_p(calls, report)
        assert report.all_pass and report.hecke_annihilator_dim == 120 - 42

    def test_rsk_count_too_high_runs_the_q_route(self, monkeypatch):
        expected = verify_schur_weyl(2, 3, 2, Q0).to_json()
        exact = duality._rsk_count
        monkeypatch.setattr(duality, "_rsk_count", lambda n, m: exact(n, m) + 1)
        calls = record_eliminations(monkeypatch)
        ends = record_ends(monkeypatch)
        data = verify_schur_weyl(2, 3, 2, Q0).to_json()
        # 43 is never reached by the weight-space rows mod p, and every row is then ranked over Q.
        assert ends[2:] == [("image_rank", 43, 42)]
        assert [(name, p) for name, p, _, _ in calls[-3:]] == [("_rank_up_to", duality.CHAIN_PRIME)] + Q_SIDE
        assert {**data, "timingsSeconds": None} == {**expected, "timingsSeconds": None}

    def test_rsk_count_too_low_fails_the_annihilator_claim(self, monkeypatch):
        exact = duality._rsk_count
        monkeypatch.setattr(duality, "_rsk_count", lambda n, m: exact(n, m) - 1)
        report = verify_schur_weyl(2, 3, 2, Q0)
        (claim,) = [c for c in report.claims if c.name == "annihilatorMatch"]
        assert claim.holds is False
        assert claim.detail == "walled side 78, all-down side 79"
        assert not report.all_pass

#: Primes small enough that the generation check fails on some instances, and the points tried at each.
SMALL_PRIMES = (3, 5, 7)
SMALL_PRIME_POINTS = [Q0, Fraction(2), Fraction(1), Fraction(-1), Fraction(1, 3)]
SMALL_PRIME_CASES = [(n, r, m - r) for n in (2, 3) for m in range(1, 5) for r in range(m + 1)]
#: ``commutant_dim`` over Q, shared by the three primes.
exact_commutant_dim = functools.cache(commutant_dim)


class TestHighestWeightBound:
    """The walled right end of the chain: the sum of m_lambda^2 mod p."""

    @pytest.mark.parametrize("q0", [Q0, -Q0, Fraction(2), Fraction(1), Fraction(-1)], ids=str)
    @pytest.mark.parametrize("n,r,s,dim", [(3, 2, 1, 6), (2, 3, 2, 42), (3, 2, 2, 23), (3, 3, 1, 23), (4, 2, 2, 24)])
    def test_frozen_larger_instances(self, n, r, s, dim, q0):
        assert duality._highest_weight_bound(n, r, s, q0, duality.CHAIN_PRIME) == dim

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_small_primes_bound_the_dimension_whenever_the_check_passes(self, p):
        failed = passed = 0
        for n, r, s in SMALL_PRIME_CASES:
            for q0 in SMALL_PRIME_POINTS:
                if q0.numerator % p == 0 or q0.denominator % p == 0:
                    continue
                bound = duality._highest_weight_bound(n, r, s, q0, p)
                if bound is None:
                    failed += 1
                else:
                    passed += 1
                    assert bound >= exact_commutant_dim(n, r, s, q0), (n, r, s, q0)
        assert failed and passed

    def test_generation_check_fails_at_a_small_prime(self):
        # q0 = 2 is -1 mod 3, where the check fails on (2, 2, 2).
        assert duality._highest_weight_bound(2, 2, 2, Fraction(2), 3) is None
        # mod 5 the check passes at q0 = 2 on (2, 3, 2), with a bound above the dimension 42 over Q.
        assert duality._highest_weight_bound(2, 3, 2, Fraction(2), 5) == 70

    def test_bound_one_too_high_runs_the_q_route(self, monkeypatch):
        expected = verify_schur_weyl(2, 3, 2, Q0).to_json()
        exact = duality._highest_weight_bound
        monkeypatch.setattr(duality, "_highest_weight_bound", lambda n, r, s, q0, p: exact(n, r, s, q0, p) + 1)
        ends = record_ends(monkeypatch)
        data = verify_schur_weyl(2, 3, 2, Q0).to_json()
        # 43 is never reached: the walled rank is taken over Q, and the commutant from the blocked system.
        assert ends == [
            ("_highest_weight_bound", None, 43),
            ("image_rank", 43, 42),
            ("commutant_dim", None, 42),
            ("image_rank", 42, 42),
        ]
        assert {**data, "timingsSeconds": None} == {**expected, "timingsSeconds": None}

    @pytest.mark.parametrize("n,r,s,failing", [(2, 3, 2, {"annihilatorMatch"}), (3, 2, 1, {"annihilatorMatch", "faithfulness"})])
    def test_bound_one_too_low_fails_a_claim(self, monkeypatch, n, r, s, failing):
        exact = duality._highest_weight_bound
        monkeypatch.setattr(duality, "_highest_weight_bound", lambda n, r, s, q0, p: exact(n, r, s, q0, p) - 1)
        report = verify_schur_weyl(n, r, s, Q0)
        # The walled rank stops one short, where the too-low end says it is met.
        assert report.image_rank == report.commutant_dim == exact(n, r, s, Q0, duality.CHAIN_PRIME) - 1
        assert {claim.name for claim in report.claims if not claim.holds} == failing
        assert not report.all_pass

    def test_zero_lowering_action_fails_the_generation_check(self, monkeypatch):
        expected = verify_schur_weyl(2, 3, 2, Q0).to_json()
        exact, bound_code = duality.gen_on_mixed, duality._highest_weight_bound.__code__

        def lowering_zeroed_in_the_bound(gen, boundary, n):
            action = exact(gen, boundary, n)
            if isinstance(gen, F) and sys._getframe(1).f_code is bound_code:
                return rep.OperatorMatrix(n, action.row_type, action.col_type)
            return action

        monkeypatch.setattr(duality, "gen_on_mixed", lowering_zeroed_in_the_bound)
        ends = record_ends(monkeypatch)
        data = verify_schur_weyl(2, 3, 2, Q0).to_json()
        assert ends == [
            ("_highest_weight_bound", None, None),
            ("image_rank", None, 42),
            ("commutant_dim", None, 42),
            ("image_rank", 42, 42),
        ]
        assert {**data, "timingsSeconds": None} == {**expected, "timingsSeconds": None}

    def test_no_blocked_system_at_r_plus_s_six(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the blocked commutant system was built")

        monkeypatch.setattr(duality, "commutant_dim", forbidden)
        calls = record_eliminations(monkeypatch)
        report = verify_schur_weyl(2, 3, 3, Q0)
        assert report.all_pass and report.image_rank == report.commutant_dim == 132
        assert_chain_closes_mod_p(calls, report)


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
        assert hecke_sum.terms
        assert walled_sum.terms
        assert not matrix_of_element(hecke_sum).entries
        assert not matrix_of_element(walled_sum).entries

    def test_nonkernel_elements_vanish_on_neither_side(self):
        n, r, s = 2, 2, 1
        word = TangleWord(all_down_type(3), [])
        assert matrix_of_element(normalize(word, n)).entries
        assert matrix_of_element(hecke_to_walled(word, r, s, n)).entries


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
