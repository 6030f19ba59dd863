"""Event-table strand tracing, the reference for ``tangle.strand_graph``.

``trace_by_events`` records, for every segment of strand, the event at its
upper end and at its lower end (boundary point, crossing, valley or peak),
and walks with an explicit vertical travel direction that flips at every
valley and peak.  ``strand_graph`` instead gives each segment one successor
and never stores a direction, so the tests compare every field of the two
``StrandGeometry`` values.
"""

from __future__ import annotations

import itertools

from walled_tangles.tangle import (
    DOWN,
    _MAX_CREATES,
    Cross,
    CrossingInfo,
    LoopInfo,
    Min,
    Orientation,
    StrandGeometry,
    TangleWord,
    crossing_sign,
    start_vertices,
)


def trace_by_events(word: TangleWord) -> StrandGeometry:
    """Trace every strand and loop of the word from per-event tables.

    Each edge segment between two events (boundary, crossing, valley, peak)
    gets an id; traversal follows strand orientation, flipping vertical
    direction at valleys and peaks.
    """
    counter = itertools.count()
    orient: dict[int, Orientation] = {}
    up_event: dict[int, tuple] = {}
    down_event: dict[int, tuple] = {}
    cross_at: dict[int, tuple[int, int, int, int]] = {}
    min_at: dict[int, tuple[int, int]] = {}
    max_at: dict[int, tuple[int, int]] = {}

    level: list[int] = []
    for k, o in enumerate(word.ty.top, 1):
        e = next(counter)
        orient[e] = o
        up_event[e] = ("T", k)
        level.append(e)
    top_edges = tuple(level)

    for i, s in enumerate(word.slices):
        if isinstance(s, Cross):
            a, b = level[s.pos - 1], level[s.pos]
            c, d = next(counter), next(counter)
            orient[c], orient[d] = orient[b], orient[a]
            down_event[a] = down_event[b] = ("X", i)
            up_event[c] = up_event[d] = ("X", i)
            cross_at[i] = (a, b, c, d)
            level[s.pos - 1 : s.pos + 1] = [c, d]
        elif isinstance(s, Min):
            a, b = level[s.pos - 1], level[s.pos]
            down_event[a] = down_event[b] = ("U", i)
            min_at[i] = (a, b)
            del level[s.pos - 1 : s.pos + 1]
        else:
            c, d = next(counter), next(counter)
            orient[c], orient[d] = _MAX_CREATES[s.sweep]
            up_event[c] = up_event[d] = ("N", i)
            max_at[i] = (c, d)
            level[s.pos - 1 : s.pos - 1] = [c, d]

    for k, e in enumerate(level, 1):
        down_event[e] = ("B", k)

    def crossing_partner(i: int, e: int) -> tuple[int, str]:
        a, b, c, d = cross_at[i]
        if e == a:
            return d, "A"
        if e == d:
            return a, "A"
        if e == b:
            return c, "B"
        return b, "B"

    arc_visit: dict[tuple[int, str], tuple[int, int]] = {}
    edge_component: dict[int, int] = {}

    def walk(start_edge: int, going_down: bool, component: int):
        """Follow a strand from one of its segments; returns the boundary
        vertex reached, or None when the walk closes up (a loop)."""
        e, down = start_edge, going_down
        time = 0
        while True:
            edge_component[e] = component
            event = down_event[e] if down else up_event[e]
            kind = event[0]
            if kind in ("T", "B"):
                return (kind, event[1])
            if kind == "X":
                partner, arc = crossing_partner(event[1], e)
                arc_visit[(event[1], arc)] = (component, time)
                time += 1
                e = partner
            elif kind == "U":
                a, b = min_at[event[1]]
                e = a if e == b else b
                down = not down
            else:
                c, d = max_at[event[1]]
                e = c if e == d else d
                down = not down
            if e == start_edge and (down == going_down):
                return None

    starts = start_vertices(word.ty)
    ends = []
    for comp, v in enumerate(starts):
        if v[0] == "T":
            first, going_down = top_edges[v[1] - 1], True
        else:
            first, going_down = level[v[1] - 1], False
        ends.append(walk(first, going_down, comp))

    loops = []
    for i, (c, d) in sorted(max_at.items()):
        if c in edge_component:
            continue
        closed = walk(c if orient[c] is DOWN else d, True, len(starts) + len(loops))
        assert closed is None, "loop traversal must close up"
        loops.append((i, orient[c]))

    crossings = []
    for i in sorted(cross_at):
        a, b, _, _ = cross_at[i]
        entry = (orient[a], orient[b])
        s = word.slices[i]
        comp_a, time_a = arc_visit[(i, "A")]
        comp_b, time_b = arc_visit[(i, "B")]
        crossings.append(
            CrossingInfo(
                slice_index=i,
                hand=s.hand,
                entry=entry,
                sign=crossing_sign(entry, s.hand),
                component_a=comp_a,
                time_a=time_a,
                component_b=comp_b,
                time_b=time_b,
            )
        )

    writhes = [0] * (len(starts) + len(loops))
    for c in crossings:
        if c.is_self_crossing():
            writhes[c.component_a] += c.sign

    loop_infos = tuple(
        LoopInfo(creating, tag, writhes[len(starts) + li]) for li, (creating, tag) in enumerate(loops)
    )
    return StrandGeometry(
        word=word,
        starts=starts,
        ends=tuple(ends),
        strand_writhes=tuple(writhes[: len(starts)]),
        loops=loop_infos,
        crossings=tuple(crossings),
    )
