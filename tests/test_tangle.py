from __future__ import annotations

import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_word
from strand_oracle import trace_by_events
from walled_tangles.tangle import (
    DOWN,
    UP,
    Connector,
    Cross,
    DslError,
    Hand,
    Max,
    Min,
    SliceError,
    StrandGeometry,
    Sweep,
    TangleType,
    TangleWord,
    _fold_words,
    algebra_type,
    all_down_type,
    canonical_basis_word,
    canonical_steps,
    connector_of,
    enumerate_connectors,
    parse_type,
    parse_word,
    render_type,
    render_word,
    shifted_slices,
    stack,
    start_vertices,
    strand_graph,
    vertex_name,
)

FO = Hand.FIRST_OVER
FU = Hand.FIRST_UNDER
L2R = Sweep.LEFT_TO_RIGHT
R2L = Sweep.RIGHT_TO_LEFT


def edges_by_name(connector: Connector) -> set[tuple[str, str]]:
    return {(vertex_name(a), vertex_name(b)) for a, b in connector.edges}


class TestWordValidation:
    def test_identity_words(self):
        for ty in (algebra_type(2, 1), all_down_type(0), TangleType((UP,), (UP,))):
            w = TangleWord(ty, [])
            assert w.levels == (ty.top,)

    def test_level_tracking(self):
        ty = TangleType((DOWN, UP), (UP, DOWN))
        w = TangleWord(ty, [Cross(1, FO)])
        assert w.levels == ((DOWN, UP), (UP, DOWN))

    def test_bad_positions(self):
        with pytest.raises(SliceError):
            TangleWord(all_down_type(2), [Cross(2, FO)])
        with pytest.raises(SliceError):
            TangleWord(all_down_type(2), [Min(5)])
        with pytest.raises(SliceError):
            TangleWord(all_down_type(2), [Max(4, L2R)])

    def test_valley_needs_opposite_orientations(self):
        with pytest.raises(SliceError):
            TangleWord(all_down_type(2), [Min(1)])

    def test_bottom_mismatch(self):
        with pytest.raises(SliceError):
            TangleWord(TangleType((DOWN, UP), ()), [])
        # a crossing swaps equal orientations invisibly, so this one is fine
        TangleWord(all_down_type(2), [Cross(1, FO)])
        with pytest.raises(SliceError):
            TangleWord(TangleType((DOWN, UP), (DOWN, UP)), [Cross(1, FO)])

    def test_stack_and_shift(self):
        w = TangleWord(all_down_type(2), [Cross(1, FO)])
        ww = stack(w, w)
        assert ww.slices == (Cross(1, FO), Cross(1, FO))
        assert shifted_slices(ww.slices, 2) == (Cross(3, FO), Cross(3, FO))
        with pytest.raises(ValueError):
            stack(w, TangleWord(algebra_type(1, 1), []))


class TestStrandGraph:
    def test_three_strand_example(self):
        ty = TangleType((DOWN, UP, UP), (UP, DOWN, UP))
        w = TangleWord(ty, [Cross(2, FO), Cross(1, FO)])
        g = strand_graph(w)
        assert g.starts == (("T", 1), ("B", 1), ("B", 3))
        assert g.ends == (("B", 2), ("T", 3), ("T", 2))
        assert g.strand_writhes == (0, 0, 0)
        assert g.loops == ()
        by_slice = {c.slice_index: c for c in g.crossings}
        assert by_slice[0].entry == (UP, UP)
        assert by_slice[0].sign == -1
        assert (by_slice[0].component_a, by_slice[0].component_b) == (2, 1)
        assert by_slice[1].entry == (DOWN, UP)
        assert by_slice[1].sign == 1
        assert (by_slice[1].component_a, by_slice[1].component_b) == (0, 1)

    def test_kinked_loop(self):
        w = TangleWord(TangleType((), ()), [Max(1, R2L), Cross(1, FO), Min(1)])
        g = strand_graph(w)
        assert g.starts == ()
        (loop,) = g.loops
        assert loop.creating_slice == 0
        assert loop.orientation is DOWN
        assert loop.writhe == 1
        (c,) = g.crossings
        assert c.is_self_crossing()

    def test_opposite_hands_cancel_writhe(self):
        w = TangleWord(all_down_type(2), [Cross(1, FO), Cross(1, FU)])
        g = strand_graph(w)
        signs = sorted(c.sign for c in g.crossings)
        assert signs == [-1, 1]
        assert g.ends == (("B", 1), ("B", 2))

    def test_nested_loops(self):
        slices = [Max(1, R2L), Max(2, L2R), Min(2), Min(1)]
        g = strand_graph(TangleWord(TangleType((), ()), slices))
        assert len(g.loops) == 2
        assert [l.creating_slice for l in g.loops] == [0, 1]

    def test_loops_crossed_by_an_open_strand_numbered_by_creation(self):
        # Loop 2 is created first, to the right of the open DOWN strand; loop
        # 3 is created second, at the far left, with a kink.  The open strand
        # passes through both loops.
        w = parse_word("N<(2) N<(1) X+(1) X-(2) X+(2) X+(3) X-(3) U(4) U(1)", parse_type("v^|v^"))
        g = strand_graph(w)
        assert g.starts == (("T", 1), ("B", 2))
        assert g.ends == (("B", 1), ("T", 2))
        assert g.strand_writhes == (0, 0)
        assert [(l.creating_slice, l.orientation, l.writhe) for l in g.loops] == [(0, DOWN, 0), (1, DOWN, 1)]
        table = [
            (c.slice_index, c.hand, c.entry, c.sign, c.component_a, c.time_a, c.component_b, c.time_b)
            for c in g.crossings
        ]
        assert table == [
            (2, FO, (DOWN, UP), 1, 3, 0, 3, 3),
            (3, FU, (DOWN, DOWN), 1, 3, 1, 0, 0),
            (4, FO, (DOWN, DOWN), -1, 0, 1, 3, 2),
            (5, FO, (DOWN, DOWN), -1, 0, 2, 2, 0),
            (6, FU, (DOWN, DOWN), 1, 2, 1, 0, 3),
        ]

    def test_matches_event_oracle_on_seeded_words(self):
        rng = random.Random(26)
        loops = self_crossings = 0
        for _ in range(2000):
            w = random_word(
                rng,
                max_boundary=rng.randint(0, 4),
                max_width=rng.randint(2, 7),
                max_crossings=rng.randint(0, 8),
                max_slices=rng.randint(0, 14),
            )
            g = strand_graph(w)
            assert g == trace_by_events(w), str(w)
            loops += len(g.loops)
            self_crossings += sum(c.is_self_crossing() for c in g.crossings)
        # The draws hold hundreds of loops and kinks, so the loop rule and
        # the writhes are exercised, not only open strands.
        assert loops > 500 and self_crossings > 500

    def test_matches_event_oracle_on_canonical_words(self):
        count = 0
        for m in range(6):
            for r in range(m + 1):
                for c in enumerate_connectors(algebra_type(r, m - r)):
                    w = canonical_basis_word(c)
                    assert strand_graph(w) == trace_by_events(w), str(w)
                    count += 1
        assert count == 873

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_each_crossing_has_two_distinct_passes(self, seed):
        w = random_word(random.Random(seed))
        g = strand_graph(w)
        for c in g.crossings:
            if c.component_a == c.component_b:
                assert c.time_a != c.time_b

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_connector_is_a_matching(self, seed):
        w = random_word(random.Random(seed))
        c = connector_of(w)
        assert len(c.edges) == len(start_vertices(w.ty))


class TestMemoKeys:
    """Words and traced connectors key the skein memos; both are built once
    per object and agree with a fresh computation."""

    def test_word_routes_hash_and_compare_equal(self):
        rng = random.Random(4242)
        for _ in range(60):
            w = random_word(rng)
            if not w.slices:
                continue
            cut = rng.randint(0, len(w.slices))
            mid = w.levels[cut]
            upper = TangleWord(TangleType(w.ty.top, mid), w.slices[:cut])
            lower = TangleWord(TangleType(mid, w.ty.bottom), w.slices[cut:])
            # A crossing is put back into the word with the other hand.
            k = rng.randrange(len(w.slices))
            s = w.slices[k]
            base = w.with_hand(k, s.hand.flipped()) if isinstance(s, Cross) else w
            routes = [
                parse_word(render_word(w), w.ty),
                stack(upper, lower),
                base.replace_slice(k, (s,)),
                TangleWord(w.ty, list(w.slices)),
            ]
            for v in routes:
                assert v == w
                assert hash(v) == hash(w) == hash((w.ty, w.slices))
            assert len(set(routes)) == 1

    def test_traced_connector_is_built_once(self):
        rng = random.Random(2424)
        for _ in range(60):
            w = random_word(rng)
            g = strand_graph(w)
            assert g.connector is strand_graph(w).connector
            assert g.connector == Connector(w.ty, zip(g.starts, g.ends))

    def test_traced_connector_keeps_its_validation(self):
        w = TangleWord(all_down_type(2), [Cross(1, FO)])
        g = strand_graph(w)
        broken = StrandGeometry(w, g.starts, (g.ends[0], g.ends[0]), g.strand_writhes, g.loops, g.crossings)
        with pytest.raises(ValueError, match="end vertex"):
            broken.connector


class TestConnectors:
    def test_enumerate_counts(self):
        assert len(enumerate_connectors(algebra_type(2, 1))) == 6
        assert len(enumerate_connectors(all_down_type(4))) == 24
        assert len(enumerate_connectors(TangleType((), ()))) == 1

    def test_unbalanced_type_rejected(self):
        with pytest.raises(ValueError):
            enumerate_connectors(TangleType((DOWN, DOWN), (UP, UP)))

    def test_edges_sorted_by_start(self):
        for c in enumerate_connectors(algebra_type(1, 2)):
            keys = [(0 if v[0] == "T" else 1, v[1]) for v, _ in c.edges]
            assert keys == sorted(keys)

    def test_totally_propagating(self):
        ident = Connector(all_down_type(2), [(("T", 1), ("B", 1)), (("T", 2), ("B", 2))])
        assert ident.is_totally_propagating()
        turn = Connector(algebra_type(1, 1), [(("T", 1), ("T", 2)), (("B", 2), ("B", 1))])
        assert not turn.is_totally_propagating()


class TestFoldWords:
    """The prefix-sharing walk that renders the basis matrices and folds the
    structure constants."""

    @staticmethod
    def counted_fold(words, start):
        calls = []

        def step(value, level, s):
            calls.append((level, s))
            return value + ((level, s),)

        return _fold_words(words, start, step), calls

    @staticmethod
    def plain_fold(word, start):
        return functools.reduce(lambda value, pair: value + (pair,), zip(word.levels, word.slices), start)

    @staticmethod
    def distinct_prefixes(words):
        paths = [tuple(zip(w.levels, w.slices)) for w in words]
        return {path[:k] for path in paths for k in range(1, len(path) + 1)}

    @pytest.mark.parametrize("r,s,prefixes", [(3, 2, 234), (2, 2, 39)])
    def test_each_prefix_is_stepped_once(self, r, s, prefixes):
        words = [canonical_basis_word(c) for c in enumerate_connectors(algebra_type(r, s))]
        out, calls = self.counted_fold(words, ())
        assert out == [self.plain_fold(w, ()) for w in words]
        assert len(calls) == len(self.distinct_prefixes(words)) == prefixes

    def test_input_order_with_duplicate_and_empty_words(self):
        ty = algebra_type(2, 2)
        basis = [canonical_basis_word(c) for c in enumerate_connectors(ty)]
        empty = TangleWord(ty, [])
        words = [basis[5], empty, basis[3], basis[5], empty, basis[0], basis[3]]
        start = ("start",)
        out, calls = self.counted_fold(words, start)
        assert out == [self.plain_fold(w, start) for w in words]
        assert out[1] is start and out[4] is start
        assert len(calls) == len(self.distinct_prefixes(words))

    def test_no_words(self):
        assert self.counted_fold([], ()) == ([], [])


def boundary_circle_positions(ty: TangleType) -> dict:
    """Walk the rectangle boundary clockwise from the top-left corner: top
    left to right, then bottom right to left."""
    order = [("T", k) for k in range(1, len(ty.top) + 1)]
    order += [("B", k) for k in range(len(ty.bottom), 0, -1)]
    return {v: i for i, v in enumerate(order)}


def forced_crossing_pairs(connector: Connector) -> int:
    pos = boundary_circle_positions(connector.ty)
    total = len(pos)
    count = 0
    for (s1, e1), (s2, e2) in combinations(connector.edges, 2):
        a, b = sorted((pos[s1], pos[e1]))
        inside = sum(1 for v in (s2, e2) if a < pos[v] < b)
        if inside == 1:
            count += 1
    assert total == 2 * len(connector.edges)
    return count


class TestCanonicalBasisWord:
    def all_small_connectors(self):
        types = []
        for m in range(0, 4):
            for r in range(m + 1):
                types.append(algebra_type(r, m - r))
        types.append(TangleType((DOWN, UP, UP), (UP, DOWN, UP)))
        types.append(TangleType((UP, DOWN), (DOWN, UP)))
        for ty in types:
            yield from enumerate_connectors(ty)

    def test_round_trip_and_shape(self):
        for c in self.all_small_connectors():
            w = canonical_basis_word(c)
            assert connector_of(w) == c
            g = strand_graph(w)
            assert g.loops == ()
            assert g.strand_writhes == (0,) * len(g.starts)
            seen_pairs = {}
            for x in g.crossings:
                assert not x.is_self_crossing()
                pair = frozenset((x.component_a, x.component_b))
                seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
            assert all(v == 1 for v in seen_pairs.values())

    def test_descending_hands(self):
        for c in self.all_small_connectors():
            for x in strand_graph(canonical_basis_word(c)).crossings:
                earlier_is_a = (x.component_a, x.time_a) < (x.component_b, x.time_b)
                assert (x.hand is Hand.FIRST_OVER) == earlier_is_a

    def test_crossing_count_is_minimal(self):
        for c in self.all_small_connectors():
            w = canonical_basis_word(c)
            crossings = sum(1 for s in w.slices if isinstance(s, Cross))
            assert crossings == forced_crossing_pairs(c)

    def test_permutation_words_are_positive(self):
        # All-down connectors must come out as positive braid words.
        for c in enumerate_connectors(all_down_type(4)):
            w = canonical_basis_word(c)
            assert all(isinstance(s, Cross) and s.hand is FO for s in w.slices)

    @pytest.mark.parametrize("r,s", [(r, m - r) for m in range(8) for r in range(m + 1)], ids=str)
    def test_canonical_steps_are_the_steps_of_every_basis_word(self, r, s):
        enumerated = set()
        for c in enumerate_connectors(algebra_type(r, s)):
            w = canonical_basis_word(c)
            if s == 0:
                assert all(level == (DOWN,) * r for level in w.levels)
            for above, slc in zip(w.levels, w.slices):
                points = () if isinstance(slc, Max) else above[slc.pos - 1 : slc.pos + 1]
                (step,) = shifted_slices((slc,), 1 - slc.pos)
                if s == 0:
                    assert (points, step) == ((DOWN, DOWN), Cross(1, FO))
                enumerated.add((points, step))
        table = canonical_steps(r, s)
        assert len(set(table)) == len(table)
        assert set(table) == enumerated

    def test_spot_check_m4(self):
        ty = algebra_type(2, 2)
        for c in random.Random(7).sample(enumerate_connectors(ty), 8):
            w = canonical_basis_word(c)
            assert connector_of(w) == c


class TestDsl:
    def test_type_round_trip(self):
        for text in ("vv|vv", "v^|^v", "|", "v2^3|v^4^"):
            ty = parse_type(text)
            assert parse_type(render_type(ty)) == ty

    def test_type_errors(self):
        with pytest.raises(DslError):
            parse_type("vv")
        with pytest.raises(DslError):
            parse_type("v|v|v")
        with pytest.raises(DslError):
            parse_type("vx|v")
        with pytest.raises(DslError):
            parse_type("v0|")

    def test_word_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            w = random_word(rng)
            again = parse_word(render_word(w), w.ty)
            assert again == w

    def test_macros(self):
        ty = algebra_type(1, 1)
        assert parse_word("E(1)", ty).slices == (Min(1), Max(1, R2L))
        ty2 = TangleType((UP, DOWN), (UP, DOWN))
        assert parse_word("E(1)", ty2).slices == (Min(1), Max(1, L2R))
        assert parse_word("S+(1) S-(1)", all_down_type(2)).slices == (Cross(1, FO), Cross(1, FU))

    def test_position_out_of_range_reports_offset(self):
        with pytest.raises(DslError) as err:
            parse_word("X+(9)", all_down_type(2))
        assert err.value.position == 0
        with pytest.raises(DslError) as err:
            parse_word("X+(1) U(4)", all_down_type(2))
        assert err.value.position == 6

    def test_unknown_token(self):
        with pytest.raises(DslError) as err:
            parse_word("Y(1)", all_down_type(2))
        assert err.value.position == 0

    def test_macro_orientation_error(self):
        with pytest.raises(DslError):
            parse_word("E(1)", all_down_type(2))

    def test_incomplete_word(self):
        with pytest.raises(DslError) as err:
            parse_word("U(1)", algebra_type(1, 1))
        assert err.value.position == len("U(1)")
