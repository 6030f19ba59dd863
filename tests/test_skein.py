from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from types import MappingProxyType

import pytest

from conftest import random_word, random_word_pair
from descent_oracle import normalize_by_descent
from walled_tangles.laurent import ONE, Q, QINV, ZERO, LaurentPoly, quantum_int
from walled_tangles import skein
from walled_tangles.skein import (
    TangleElement,
    _connector_product,
    _descend,
    _first_violation,
    _step,
    bend_first,
    element_of_connector,
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
    Connector,
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
    apply_slice,
    canonical_basis_word,
    connector_of,
    end_vertices,
    enumerate_connectors,
    parse_word,
    stack,
    start_vertices,
    strand_graph,
    vertex_name,
)

FO = Hand.FIRST_OVER
FU = Hand.FIRST_UNDER
L2R = Sweep.LEFT_TO_RIGHT
R2L = Sweep.RIGHT_TO_LEFT
DU, UD = (DOWN, UP), (UP, DOWN)


def edge_names(connector) -> set[tuple[str, str]]:
    return {(vertex_name(a), vertex_name(b)) for a, b in connector.edges}


def term_map(element: TangleElement) -> dict[frozenset, LaurentPoly]:
    return {frozenset(edge_names(c)): coeff for c, coeff in element.terms}


def assert_canonical(element: TangleElement) -> None:
    """Every coefficient is a nonzero LaurentPoly with no zero entry, in the
    sorted form that the validating constructor builds from its terms."""
    for connector, k in element.terms:
        assert isinstance(k, LaurentPoly) and k.terms, (connector, k)
        assert all(isinstance(c, int) and c != 0 for _, c in k.terms), (connector, k)
        assert k == LaurentPoly(dict(k.terms)), (connector, k)


class TestNormalize:
    def test_identity_is_single_term(self):
        el = identity_element(2, 1, 3)
        assert len(el.terms) == 1
        connector, coeff = el.terms[0]
        assert coeff == ONE
        assert edge_names(connector) == {("T1", "B1"), ("T2", "B2"), ("B3", "T3")}

    def test_quadratic_relation(self):
        ty = all_down_type(2)
        squared = normalize(TangleWord(ty, [Cross(1, FO), Cross(1, FO)]), 2)
        expected = identity_element(2, 0, 2) + normalize(
            TangleWord(ty, [Cross(1, FO)]), 2
        ).scaled(QINV - Q)
        assert squared == expected

    def test_opposite_hands_cancel(self):
        """X+(1) X-(1) is exactly the identity connector with coefficient ONE."""
        ty = all_down_type(2)
        identity = connector_of(TangleWord(ty, ()))
        for n in (1, 2, 3):
            el = normalize(TangleWord(ty, [Cross(1, FO), Cross(1, FU)]), n)
            assert el == identity_element(2, 0, n)
            assert el.terms == ((identity, ONE),)
            assert el.terms[0][1].terms == ((0, 1),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_loop_value(self, n):
        word = TangleWord(all_down_type(0), [Max(1, L2R), Min(1)])
        el = normalize(word, n)
        assert len(el.terms) == 1
        assert el.terms[0][1] == quantum_int(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kink_values(self, n):
        ty = TangleType((DOWN,), (DOWN,))
        straight = connector_of(TangleWord(ty, []))
        kinks = [
            (TangleWord(ty, [Max(2, L2R), Cross(1, FO), Min(1)]), n),
            (TangleWord(ty, [Max(2, L2R), Cross(1, FU), Min(1)]), -n),
            (TangleWord(ty, [Max(1, R2L), Cross(2, FO), Min(2)]), n),
            (TangleWord(ty, [Max(1, R2L), Cross(2, FU), Min(2)]), -n),
        ]
        for word, exponent in kinks:
            el = normalize(word, n)
            assert len(el.terms) == 1
            assert dict(el.terms).get(straight, ZERO) == LaurentPoly.monomial(1, exponent)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_crossing_word(self, n):
        ty = TangleType((DOWN, UP, UP), (UP, DOWN, UP))
        word = TangleWord(ty, [Cross(2, FO), Cross(1, FO)])
        got = term_map(normalize(word, n))
        expected = {
            frozenset({("T1", "B2"), ("B1", "T3"), ("B3", "T2")}): ONE,
            frozenset({("T1", "B2"), ("B1", "T2"), ("B3", "T3")}): QINV - Q,
        }
        assert got == expected

    def test_normal_form_is_descending_fixed_point(self):
        rng = random.Random(20260821)
        for _ in range(25):
            word = random_word(rng, max_crossings=4)
            el = normalize(word, 2)
            for connector, _ in el.terms:
                basis = element_of_connector(connector, 2)
                assert len(basis.terms) == 1
                assert basis.terms[0][1] == ONE


class TestFold:
    """``normalize`` folds a word into the connector basis one slice at a
    time; the whole-word descent of ``tests/descent_oracle.py`` is its
    reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_whole_word_descent(self, n):
        rng = random.Random(15000 + n)
        for _ in range(300):
            word = random_word(rng, max_boundary=4, max_width=6)
            folded = normalize(word, n)
            assert folded == normalize_by_descent(word, n), str(word)
            assert_canonical(folded)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_products_match_descent_of_the_stack(self, n):
        rng = random.Random(25000 + n)
        for _ in range(100):
            upper, lower = random_word_pair(rng, max_boundary=4, max_width=6)
            product = multiply(normalize(upper, n), normalize(lower, n))
            assert product == normalize_by_descent(stack(upper, lower), n), f"{upper} then {lower}"
            assert_canonical(product)

    @pytest.mark.parametrize("ty", [algebra_type(2, 1), algebra_type(2, 2), TangleType((DOWN, UP), (UP, DOWN, DOWN, UP))])
    def test_canonical_words_normalize_to_their_connector(self, ty):
        for connector in enumerate_connectors(ty):
            word = canonical_basis_word(connector)
            assert normalize(word, 2) == element_of_connector(connector, 2)
            assert normalize_by_descent(word, 2) == element_of_connector(connector, 2)

    def test_long_inverse_crossing_powers(self):
        """X-(1)^k = a_k + b_k X+(1), from X+(1)^2 = 1 + (q^-1 - q) X+(1)
        and X-(1) = X+(1) - (q^-1 - q): a_(k+1) = b_k - (q^-1 - q) a_k and
        b_(k+1) = a_k.  Each step of the fold is one memo lookup, so k = 400
        runs at the default recursion limit and barely grows the descent
        memo."""
        ty = all_down_type(2)
        one = identity_element(2, 0, 2)
        positive = normalize(TangleWord(ty, [Cross(1, FO)]), 2)
        before = _descend.cache_info().currsize
        a, b = ONE, ZERO
        for k in range(1, 401):
            a, b = b - (QINV - Q) * a, a
            if k <= 12 or k in (100, 400):
                word = TangleWord(ty, [Cross(1, FU)] * k)
                assert normalize(word, 2) == one.scaled(a) + positive.scaled(b), k
        assert _descend.cache_info().currsize - before <= 10


def _balanced_types(widths):
    """Every type whose (top, bottom) widths are listed and whose strand
    starts match its ends."""
    for top_width, bottom_width in widths:
        for top in itertools.product((DOWN, UP), repeat=top_width):
            for bottom in itertools.product((DOWN, UP), repeat=bottom_width):
                ty = TangleType(top, bottom)
                if 2 * len(start_vertices(ty)) == top_width + bottom_width:
                    yield ty


def _slices_below(bottom):
    """Every crossing, valley and peak that fits under a level."""
    w = len(bottom)
    yield from (Cross(p, hand) for p in range(1, w) for hand in (FO, FU))
    yield from (Min(p) for p in range(1, w) if bottom[p - 1] is not bottom[p])
    yield from (Max(p, sweep) for p in range(1, w + 2) for sweep in (L2R, R2L))


def _branch(connector, s) -> tuple:
    """Which rule of ``_step`` a two-start crossing or a valley falls under,
    read off the traced canonical word and the descent engine, not off the
    rule itself."""
    word = canonical_basis_word(connector)
    # Components of the canonical word are edge indices.
    signs = {frozenset((x.component_a, x.component_b)): x.sign for x in strand_graph(word).crossings}
    a, b = (next(i for i, edge in enumerate(connector.edges) if ("B", q) in edge) for q in (s.pos, s.pos + 1))
    crossed = frozenset((a, b)) in signs
    if isinstance(s, Cross):
        return ("crossed" if crossed else "uncrossed", s.hand)
    if a == b:
        return ("cup",)
    ty = TangleType(connector.ty.top, apply_slice(connector.ty.bottom, s))
    if _first_violation(TangleWord(ty, word.slices + (s,)), tuple(range(len(start_vertices(ty))))):
        return ("violating merge",)
    return ("merge with kink", signs[frozenset((a, b))]) if crossed else ("merge",)


class TestStep:
    """``_step`` reads every column off the connector but that of a merging
    valley whose merged word is not descending; the whole-word descent of
    the canonical word plus the slice is its reference."""

    @staticmethod
    def assert_step_is_descent(connector, s, n):
        ty = TangleType(connector.ty.top, apply_slice(connector.ty.bottom, s))
        word = TangleWord(ty, canonical_basis_word(connector).slices + (s,))
        step = TangleElement(word.ty, n, _step(connector, s, n))
        assert step == normalize_by_descent(word, n), f"{connector} then {s}"
        assert_canonical(step)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_slice_up_to_three_points_per_edge(self, n):
        widths = [(a, b) for a in range(4) for b in range(4)]
        for ty in _balanced_types(widths):
            for connector in enumerate_connectors(ty):
                for s in _slices_below(ty.bottom):
                    self.assert_step_is_descent(connector, s, n)

    def test_every_slice_on_four_points_with_equal_edges(self):
        for top in itertools.product((DOWN, UP), repeat=4):
            ty = TangleType(top, top)
            for connector in enumerate_connectors(ty):
                for s in _slices_below(ty.bottom):
                    self.assert_step_is_descent(connector, s, 2)

    def test_all_down_braid_never_descends(self, monkeypatch):
        calls = []

        def spy(word, ranks):
            calls.append(word)
            return _descend(word, ranks)

        monkeypatch.setattr(skein, "_descend", spy)
        before = _descend.cache_info().currsize
        # n = 7 is used by no other test, so every step misses the step memo.
        word = parse_word("X-(1) X+(2) X-(3) X-(2) X+(1) X-(3) X-(1) X+(2) X-(2)", all_down_type(4))
        assert normalize(word, 7).terms
        assert calls == []
        assert _descend.cache_info().currsize == before

    def test_wide_two_start_crossings_and_valleys(self):
        """Seeded types with 8 or 10 points, where the exhaustive sweeps do
        not reach; every branch of the rule must be hit often."""
        rng = random.Random(36)
        hits = Counter()
        while sum(hits.values()) < 2000:
            size = rng.choice((8, 10))
            top = rng.randint(0, size - 2)
            points = [rng.choice((DOWN, UP)) for _ in range(size)]
            ty = TangleType(tuple(points[:top]), tuple(points[top:]))
            ends = list(end_vertices(ty))
            if len(ends) != len(start_vertices(ty)):
                continue
            rng.shuffle(ends)
            connector = Connector(ty, zip(start_vertices(ty), ends))
            b = ty.bottom
            choices = [
                Cross(p, rng.choice((FO, FU))) if b[p - 1] is b[p] else Min(p)
                for p in range(1, len(b))
                if UP in b[p - 1 : p + 1]
            ]
            if choices:
                s = rng.choice(choices)
                hits[_branch(connector, s)] += 1
                self.assert_step_is_descent(connector, s, 2)
        branches = [(kind, hand) for kind in ("crossed", "uncrossed") for hand in (FO, FU)]
        branches += [("cup",), ("merge",), ("merge with kink", 1), ("merge with kink", -1), ("violating merge",)]
        assert set(hits) == set(branches)
        assert min(hits.values()) >= 100, hits

    def test_only_violating_merges_descend(self, monkeypatch):
        """A fresh step memo, so that every step of these words misses it;
        each call that reaches ``_descent_step`` is recorded."""
        seen = []

        def spy(connector, ty, s, n):
            seen.append((connector, s))
            return descent_step(connector, ty, s, n)

        descent_step = skein._descent_step
        monkeypatch.setattr(skein, "_descent_step", spy)
        monkeypatch.setattr(skein, "_step", functools.cache(_step.__wrapped__))
        # (^,^) at 3, a merging valley at 2, then a peak and (v,^), (^,v) crossings.
        assert normalize(parse_word("X-(1) X+(3) U(2) N<(2) X-(2) X-(2)", algebra_type(2, 2)), 7).terms
        assert seen == []
        # The second valley merges a strand into one that crosses it and starts earlier.
        assert normalize(parse_word("E(2) X+(3) E(2)", algebra_type(2, 2)), 7).terms
        assert [s for _, s in seen] == [Min(2)]
        assert _branch(*seen[0]) == ("violating merge",)
        seen.clear()
        structure_constants(2, 2, 2)
        for ty, text in (
            (algebra_type(2, 2), "E(2) X-(1) X+(3) E(2)"),
            (algebra_type(2, 2), "X+(3) E(2) X-(1) E(2) X-(3)"),
            (algebra_type(3, 1), "E(3) X+(1) E(3)"),
        ):
            element = normalize(parse_word(text, ty), 3)
            assert multiply(element, element).terms
        assert seen
        assert all(_branch(connector, s) == ("violating merge",) for connector, s in seen)


class TestElementArithmetic:
    def test_add_collects_terms(self):
        a = identity_element(1, 1, 2)
        assert dict((a + a).terms).get(a.terms[0][0], ZERO) == ONE + ONE

    def test_any_mapping_or_pairs_builds_the_same_element(self):
        ty = algebra_type(1, 1)
        terms = {c: quantum_int(k + 1) for k, c in enumerate(enumerate_connectors(ty))}
        expected = TangleElement(ty, 2, terms)
        assert TangleElement(ty, 2, MappingProxyType(terms)) == expected
        assert TangleElement(ty, 2, list(terms.items())) == expected

    def test_zero_terms_drop(self):
        a = identity_element(1, 1, 2)
        assert not (a - a).terms

    def test_int_coefficients_coerce_and_merge(self):
        ty = algebra_type(1, 1)
        c, d = enumerate_connectors(ty)[:2]
        two = TangleElement(ty, 2, [(c, 2)])
        assert two == TangleElement(ty, 2, [(c, LaurentPoly.monomial(2, 0))])
        assert_canonical(two)
        assert not two.terms[0][1].is_zero()
        assert TangleElement(ty, 2, [(c, 0)]).terms == ()
        merged = TangleElement(ty, 2, [(c, 2), (d, Q), (c, 3), (c, Q)])
        assert merged == TangleElement(ty, 2, {c: LaurentPoly({0: 5, 1: 1}), d: Q})
        assert_canonical(merged)
        assert TangleElement(ty, 2, [(c, 2), (c, -2)]).terms == ()
        assert TangleElement(ty, 2, [(c, Q), (d, 1), (c, -Q)]).terms == ((d, ONE),)
        with pytest.raises(TypeError):
            TangleElement(ty, 2, [(c, 1.5)])

    def test_scalar_action_both_sides(self):
        a = identity_element(1, 1, 2)
        assert Q * a == a.scaled(Q)
        assert a * Q == a.scaled(Q)

    def test_type_mismatch_rejected(self):
        a = identity_element(1, 1, 2)
        b = identity_element(2, 0, 2)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            multiply(b, a)


class TestProductTable:
    """Every pairwise product of the mixed-pair turnbacks and crossings.

    Keys name the arc arrows: for turnbacks the first letter is the top
    arc (r = left to right), the second the bottom arc; crossings are
    named by their top boundary pair.
    """

    TOP_OF = {"r": DU, "l": UD}
    BOT_OF = {"r": UD, "l": DU}

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_twenty_products(self, n):
        ni = quantum_int(n)
        qn = LaurentPoly.monomial(1, n)
        e = {}
        for key in ("rl", "rr", "ll", "lr"):
            top, bottom = self.TOP_OF[key[0]], self.BOT_OF[key[1]]
            e[key] = normalize(TangleWord(TangleType(top, bottom), [Min(1), Max(1, PEAK_SWEEP[bottom])]), n)
        s = {
            "du": normalize(TangleWord(TangleType(DU, UD), [Cross(1, FO)]), n),
            "ud": normalize(TangleWord(TangleType(UD, DU), [Cross(1, FO)]), n),
            "dd": normalize(TangleWord(TangleType((DOWN, DOWN), (DOWN, DOWN)), [Cross(1, FO)]), n),
            "uu": normalize(TangleWord(TangleType((UP, UP), (UP, UP)), [Cross(1, FO)]), n),
        }
        id_du = normalize(TangleWord(TangleType(DU, DU), []), n)
        id_ud = normalize(TangleWord(TangleType(UD, UD), []), n)
        table = [
            (e["rr"], e["lr"], e["rr"].scaled(ni)),
            (e["rr"], e["ll"], e["rl"].scaled(ni)),
            (e["lr"], e["lr"], e["lr"].scaled(ni)),
            (e["lr"], e["ll"], e["ll"].scaled(ni)),
            (e["rl"], e["rr"], e["rr"].scaled(ni)),
            (e["rl"], e["rl"], e["rl"].scaled(ni)),
            (e["ll"], e["rr"], e["lr"].scaled(ni)),
            (e["ll"], e["rl"], e["ll"].scaled(ni)),
            (s["du"], e["ll"], e["rl"].scaled(qn)),
            (s["du"], e["lr"], e["rr"].scaled(qn)),
            (s["ud"], e["rr"], e["lr"].scaled(qn)),
            (s["ud"], e["rl"], e["ll"].scaled(qn)),
            (e["rl"], s["du"], e["rr"].scaled(qn)),
            (e["ll"], s["du"], e["lr"].scaled(qn)),
            (e["rr"], s["ud"], e["rl"].scaled(qn)),
            (e["lr"], s["ud"], e["ll"].scaled(qn)),
            (s["dd"], s["dd"], identity_element(2, 0, n) + s["dd"].scaled(QINV - Q)),
            (s["uu"], s["uu"], identity_element(0, 2, n) + s["uu"].scaled(QINV - Q)),
            (s["du"], s["ud"], id_du + e["rl"].scaled(qn * (Q - QINV))),
            (s["ud"], s["du"], id_ud + e["lr"].scaled(qn * (Q - QINV))),
        ]
        for a, b, expected in table:
            assert multiply(a, b) == expected


class TestAlgebraStructure:
    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1)])
    def test_identity_is_neutral(self, r, s):
        n = 2
        one = identity_element(r, s, n)
        for connector in enumerate_connectors(algebra_type(r, s)):
            el = element_of_connector(connector, n)
            assert multiply(one, el) == el
            assert multiply(el, one) == el

    def test_associativity_on_random_triples(self):
        rng = random.Random(104729)
        connectors = list(enumerate_connectors(algebra_type(1, 1)))
        for _ in range(20):
            a, b, c = (element_of_connector(rng.choice(connectors), 2) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1)])
    def test_structure_constants_cover_all_pairs(self, r, s):
        n = 2
        table = structure_constants(r, s, n)
        connectors = list(enumerate_connectors(algebra_type(r, s)))
        assert len(table) == len(connectors) ** 2
        for (c1, c2), el in table.items():
            assert el == multiply(element_of_connector(c1, n), element_of_connector(c2, n))

    @pytest.mark.parametrize(
        "r,s,n",
        [(r, s, n) for r, s in [(0, 0), (1, 0), (0, 1), (3, 0), (0, 3), (1, 1), (2, 1), (1, 2), (2, 2)] for n in (1, 2, 3)]
        + [(3, 2, 2)],
    )
    def test_trie_fold_matches_pairwise_products(self, r, s, n):
        # The identity's canonical word is empty, so it ends at the trie root.
        basis = enumerate_connectors(algebra_type(r, s))
        table = structure_constants(r, s, n)
        expected = {(a, b): _connector_product(a, b, n) for a in basis for b in basis}
        assert list(table) == list(expected)
        assert table == expected
        for element in table.values():
            assert_canonical(element)

    def test_multiplication_matches_stacking(self):
        rng = random.Random(7919)
        for _ in range(20):
            upper = random_word(rng, max_crossings=3, max_slices=5)
            lower = random_word(rng, top=upper.ty.bottom, max_crossings=3, max_slices=5)
            stacked = TangleWord(
                TangleType(upper.ty.top, lower.ty.bottom),
                list(upper.slices) + list(lower.slices),
            )
            assert multiply(normalize(upper, 2), normalize(lower, 2)) == normalize(stacked, 2)


class TestPresentation:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_all_relations_hold(self, r, s, n):
        report = presentation_check(r, s, n)
        failed = [res.name for res in report.results if not res.holds]
        assert report.all_pass, f"failed relations: {failed}"

    def test_report_shape(self):
        report = presentation_check(2, 2, 2)
        assert report.r == 2 and report.s == 2 and report.n == 2
        data = report.to_json()
        assert data["allPass"] is True
        assert len(data["relations"]) == len(report.results)


class TestBending:
    def test_identity_strand_bends_to_turnback(self):
        n = 2
        word = TangleWord(TangleType((DOWN,), (DOWN,)), [])
        bent = bend_first(word)
        assert bent.ty == TangleType((UP,), (UP,))
        el = normalize(bent, n)
        assert len(el.terms) == 1
        connector, coeff = el.terms[0]
        assert edge_names(connector) == {("B1", "T1")}
        assert coeff == LaurentPoly.monomial(1, -n)

    def test_bend_requires_down_first_column(self):
        with pytest.raises(ValueError):
            bend_first(TangleWord(TangleType((UP,), (UP,)), []))

    def test_bending_commutes_with_normalization(self):
        # hecke_to_walled bends a whole word and normalizes once; this is the
        # fact that makes that equal to bending every connector of the normal
        # form, the element-level bend kept here as the reference.
        def bend_element(element: TangleElement) -> TangleElement:
            acc: dict = {}
            for connector, coeff in element.terms:
                for c, k in normalize(bend_first(canonical_basis_word(connector)), element.n).terms:
                    acc[c] = acc.get(c, ZERO) + coeff * k
            ty = element.ty
            return TangleElement(TangleType((UP,) + ty.top[1:], (UP,) + ty.bottom[1:]), element.n, acc)

        rng = random.Random(26)
        checked = 0
        while checked < 60:
            top = (DOWN,) + tuple(rng.choice((DOWN, UP)) for _ in range(rng.randint(0, 2)))
            word = random_word(rng, top=top, max_width=5, max_crossings=4, max_slices=7)
            if word.ty.bottom[:1] != (DOWN,):
                continue
            n = rng.randint(1, 3)
            assert normalize(bend_first(word), n) == bend_element(normalize(word, n)), str(word)
            checked += 1


class TestHeckeTransport:
    @pytest.mark.parametrize("r,s", [(3, -1), (-2, 3)])
    def test_negative_strand_count_is_rejected(self, r, s):
        word = TangleWord(all_down_type(r + s), [])
        with pytest.raises(ValueError, match="strand counts must be nonnegative"):
            hecke_to_walled(word, r, s, 2)

    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 2)])
    def test_images_span_the_whole_algebra(self, r, s):
        import math

        n = r + s + 4
        images = []
        for word in _permutation_words(r + s):
            images.append(hecke_to_walled(word, r, s, n))
        connectors = list(enumerate_connectors(algebra_type(r, s)))
        index = {c: k for k, c in enumerate(connectors)}
        rows = []
        for el in images:
            row = [ZERO] * len(connectors)
            for connector, coeff in el.terms:
                row[index[connector]] = coeff
            rows.append(row)
        assert _symbolic_rank(rows) == math.factorial(r + s)

    @pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_maps_to_identity(self, r, s, n):
        el = hecke_to_walled(TangleWord(all_down_type(r + s), []), r, s, n)
        assert el == identity_element(r, s, n)


def _permutation_words(m: int):
    """One positive braid word per permutation of m strands."""
    import itertools

    ty = all_down_type(m)
    for perm in itertools.permutations(range(m)):
        state = list(perm)
        slices = []
        for k in range(m):
            pos = state.index(k)
            while pos > k:
                slices.append(Cross(pos, FO))
                state[pos - 1], state[pos] = state[pos], state[pos - 1]
                pos -= 1
        yield TangleWord(ty, slices)


def _symbolic_rank(rows: list[list[LaurentPoly]]) -> int:
    """Row rank over the fraction field, by clearing a pivot column at a time."""
    rows = [list(row) for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col] != ZERO), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k == rank or rows[k][col] == ZERO:
                continue
            factor_k, factor_r = rows[rank][col], rows[k][col]
            rows[k] = [factor_k * a - factor_r * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank
