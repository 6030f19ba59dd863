"""The eleven acceptance criteria, one test and one verdict line each.

Every criterion is exercised end to end with exact arithmetic.  Each test
prints a single summary line once its assertions pass, so a captured log
shows the complete checklist alongside the pass/fail status per test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from conftest import compose_brauer, permutation_words, random_word
from coproduct_oracle import check_divpowers
from eval_oracle import lp_eval

from walled_tangles.duality import classical_flip, image_rank, verify_schur_weyl
from walled_tangles.laurent import ONE, Q, QINV, LaurentPoly, quantum_int
from walled_tangles.rep import (
    OperatorMatrix,
    hecke_action_matrix,
    label_tuples,
    matrix_of_element,
    matrix_of_word,
)
from walled_tangles.skein import (
    bend_first,
    hecke_to_walled,
    identity_element,
    multiply,
    normalize,
    presentation_check,
    structure_constants,
)
from walled_tangles.tangle import (
    DOWN,
    UP,
    Cross,
    Hand,
    Max,
    Min,
    PEAK_SWEEP,
    TangleType,
    TangleWord,
    all_down_type,
    stack,
    strand_graph,
)

FO = Hand.FIRST_OVER
DU, UD = (DOWN, UP), (UP, DOWN)
Q0 = Fraction(5, 3)


def verdict(index: int, text: str) -> None:
    print(f"[ok] criterion {index}: {text}")


def test_01_basis_rank():
    for m in range(1, 5):
        for r in range(m + 1):
            s = m - r
            assert image_rank(m, r, s, Q0) == factorial(m), (m, r, s)
    verdict(1, "basis matrices have full rank m! for every type with m <= 4 at n = m")


def test_02_worked_example():
    ty = TangleType((DOWN, UP, UP), (UP, DOWN, UP))
    word = TangleWord(ty, [Cross(2, FO), Cross(1, FO)])
    for n in (2, 3):
        matrix = matrix_of_word(word, n)
        assert matrix.entry((2, 1, 1), (1, 2, 1)) == QINV
        assert matrix.entry((2, 1, 2), (1, 1, 1)) == LaurentPoly.monomial(1, 3) - Q
    verdict(2, "the worked two-crossing tangle has its two frozen entries at n = 2, 3")


def _seeded_pairs(count: int):
    rng = random.Random(20240)
    for _ in range(count):
        n = rng.choice((2, 3))
        first = random_word(rng, max_width=3, max_crossings=5, max_slices=6)
        second = random_word(
            rng, top=first.ty.bottom, max_width=3, max_crossings=5, max_slices=6
        )
        yield n, first, second


def test_03_functoriality():
    for n, first, second in _seeded_pairs(200):
        composed = matrix_of_word(first, n).matmul(matrix_of_word(second, n))
        assert composed == matrix_of_word(stack(first, second), n)
    verdict(3, "matrix of a stack equals the composition on 200 seeded word pairs")


def test_04_oracle_equivalence():
    for n, first, second in _seeded_pairs(200):
        whole = stack(first, second)
        assert matrix_of_element(normalize(whole, n)) == matrix_of_word(whole, n)
    verdict(4, "normalize-then-evaluate equals slice-evaluate on the same 200 samples")


@pytest.mark.parametrize("n", [2, 3])
def test_05_product_table(n):
    ni = quantum_int(n)
    qn = LaurentPoly.monomial(1, n)
    top_of = {"r": DU, "l": UD}
    bot_of = {"r": UD, "l": DU}
    e = {}
    for key in ("rl", "rr", "ll", "lr"):
        top, bottom = top_of[key[0]], bot_of[key[1]]
        e[key] = normalize(TangleWord(TangleType(top, bottom), [Min(1), Max(1, PEAK_SWEEP[bottom])]), n)
    s = {
        "du": normalize(TangleWord(TangleType(DU, UD), [Cross(1, FO)]), n),
        "ud": normalize(TangleWord(TangleType(UD, DU), [Cross(1, FO)]), n),
        "dd": normalize(TangleWord(TangleType((DOWN, DOWN), (DOWN, DOWN)), [Cross(1, FO)]), n),
        "uu": normalize(TangleWord(TangleType((UP, UP), (UP, UP)), [Cross(1, FO)]), n),
    }
    id_du = normalize(TangleWord(TangleType(DU, DU), []), n)
    id_ud = normalize(TangleWord(TangleType(UD, UD), []), n)
    opposite = {"r": "l", "l": "r"}
    checked = 0
    for left in ("rr", "rl", "lr", "ll"):
        for second in ("r", "l"):
            right = opposite[left[1]] + second
            assert multiply(e[left], e[right]) == e[left[0] + second].scaled(ni)
            checked += 1
    crossing_after = [
        (s["du"], e["ll"], e["rl"]),
        (s["du"], e["lr"], e["rr"]),
        (s["ud"], e["rr"], e["lr"]),
        (s["ud"], e["rl"], e["ll"]),
    ]
    crossing_before = [
        (e["rl"], s["du"], e["rr"]),
        (e["ll"], s["du"], e["lr"]),
        (e["rr"], s["ud"], e["rl"]),
        (e["lr"], s["ud"], e["ll"]),
    ]
    for a, b, image in crossing_after + crossing_before:
        assert multiply(a, b) == image.scaled(qn)
        checked += 1
    square_pairs = [
        (s["dd"], s["dd"], identity_element(2, 0, n) + s["dd"].scaled(QINV - Q)),
        (s["uu"], s["uu"], identity_element(0, 2, n) + s["uu"].scaled(QINV - Q)),
        (s["du"], s["ud"], id_du + e["rl"].scaled(qn * (Q - QINV))),
        (s["ud"], s["du"], id_ud + e["lr"].scaled(qn * (Q - QINV))),
    ]
    for a, b, expected in square_pairs:
        assert multiply(a, b) == expected
        checked += 1
    assert checked == 20
    verdict(5, f"all twenty two-strand products match their frozen right sides at n = {n}")


def test_06_presentation():
    for r, s in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for n in (2, 3):
            report = presentation_check(r, s, n)
            assert report.all_pass, (r, s, n, report.to_json())
    verdict(6, "every applicable defining relation holds for the four small types at n = 2, 3")


def test_07_hecke_action():
    for n in (2, 3):
        for m in range(2, 5):
            ty = all_down_type(m)
            ident = OperatorMatrix.identity(n, ty.top)
            for k in range(1, m):
                action = hecke_action_matrix(m, k, n)
                word = TangleWord(ty, [Cross(k, FO)])
                assert action == matrix_of_word(word, n)
                assert not (action.matmul(action) + action.scaled(Q - QINV) - ident).entries
    verdict(7, "the crossing action matches the standard generators and their quadratic relation for m <= 4, n <= 3")


def test_08_duality_quintuple():
    reports = {}
    for n, r, s in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 3, 0)):
        report = verify_schur_weyl(n, r, s, Q0)
        assert report.all_pass, report.to_json()
        assert report.faithful == (n >= r + s)
        reports[(n, r, s)] = report
    assert reports[(2, 1, 1)].image_rank == 2
    assert reports[(2, 1, 1)].commutant_dim == 2
    assert reports[(2, 2, 1)].image_rank == 5
    assert reports[(2, 2, 1)].annihilator_dim == 1
    verdict(8, "double-commutant checks pass on the five desk-scale triples with the frozen ranks")


def _bent_words(count: int):
    rng = random.Random(77)
    words = []
    while len(words) < count:
        width = rng.randint(1, 3)
        top = (DOWN,) + tuple(rng.choice((DOWN, UP)) for _ in range(width - 1))
        word = random_word(rng, top=top, max_width=3, max_crossings=5, max_slices=6)
        if word.ty.bottom and word.ty.bottom[0] is DOWN:
            words.append(word)
    return words


def test_09_bend_identity():
    for word in _bent_words(50):
        bent = bend_first(word)
        for n in (2, 3):
            original = matrix_of_word(word, n)
            bent_matrix = matrix_of_word(bent, n)
            rows = list(label_tuples(n, len(bent.ty.top)))
            cols = list(label_tuples(n, len(bent.ty.bottom)))
            for i in rows:
                for j in cols:
                    i1, itail = i[0], i[1:]
                    j1, jtail = j[0], j[1:]
                    if i1 != j1:
                        expected = LaurentPoly.monomial(1, n + 1 - 2 * j1) * original.entry(
                            (j1,) + itail, (i1,) + jtail
                        )
                    else:
                        expected = LaurentPoly.monomial(1, n - 2 * i1) * original.entry(i, j)
                        for k in range(i1 + 1, n + 1):
                            expected = expected + (QINV - Q) * LaurentPoly.monomial(
                                1, n + 1 - 2 * k
                            ) * original.entry((k,) + itail, (k,) + jtail)
                    assert bent_matrix.entry(i, j) == expected, (word, n, i, j)
    verdict(9, "the bend rewrites every matrix entry by the partial-transpose rule on 50 seeded words")


def _at_one(element) -> dict:
    values = {}
    for connector, coeff in element.terms:
        value = lp_eval(coeff, Fraction(1))
        if value:
            values[connector] = value
    return values


def test_10_classical_limit():
    for r, s in ((1, 1), (2, 1)):
        m = r + s
        words = permutation_words(m)
        for n in (2, 3):
            for word in words.values():
                transported = hecke_to_walled(word, r, s, n)
                flipped = classical_flip(strand_graph(word).connector, r, s)
                assert _at_one(transported) == {flipped: Fraction(1)}, (r, s, n, word)
            table = structure_constants(r, s, n)
            for (c1, c2), element in table.items():
                composed, loops = compose_brauer(c1, c2)
                assert _at_one(element) == {composed: Fraction(n) ** loops}, (r, s, n, c1, c2)
    verdict(10, "at q = 1 the transport is the classical flip and products are Brauer with loop factor n")


def test_11_divided_powers():
    for n in (2, 3):
        for i in range(1, n):
            for l in range(1, 4):
                for right in (DOWN, UP):
                    holds = check_divpowers(i, l, (DOWN,), (right,), n)
                    assert holds == (True, True), (i, l, right, n, holds)
    verdict(11, "divided-power transfer identities hold on both two-factor spaces for l <= 3, n = 2, 3")
