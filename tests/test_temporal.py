import random
import time

import pytest
from hypothesis import given, strategies as st

from mengerian.multigraph import GraphError, Multigraph
from mengerian.menger import _splice_walk
from mengerian.temporal import TemporalGraph, TemporalPath, earliest_arrival, latest_departure
from helpers import mg, random_temporal
from oracles import brute_arrival, brute_temporal_paths, latest_departures, reverse


def tg(pairs_with_labels, vertices=None):
    pairs = [(u, v) for u, v, _ in pairs_with_labels]
    g = mg(pairs, vertices=vertices)
    return TemporalGraph.make(g, {i: lab for i, (_, _, lab) in enumerate(pairs_with_labels)})


# 0-1-2-3 path labeled 1,2,3 with a late shortcut 0-3
LINE = tg([(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 9)])


class TestConstruction:
    def test_labels_must_cover_edges(self):
        g = mg([(0, 1), (1, 2)])
        cover = "^time labels must cover exactly the edges of the graph$"
        with pytest.raises(GraphError, match=cover):
            TemporalGraph.make(g, {0: 1})
        with pytest.raises(GraphError, match=cover):
            TemporalGraph.make(g, {0: 1, 1: 2, 7: 3})
        # a duplicate is named first, even when an id is missing too
        with pytest.raises(GraphError, match="^duplicate edge id in time labels$"):
            TemporalGraph(g, ((0, 1), (0, 2)))

    def test_labels_positive_ints(self):
        g = mg([(0, 1)])
        with pytest.raises(GraphError):
            TemporalGraph.make(g, {0: 0})
        with pytest.raises(GraphError):
            TemporalGraph.make(g, {0: -3})

    def test_duplicate_label_id(self):
        with pytest.raises(GraphError, match="^duplicate edge id in time labels$"):
            TemporalGraph(mg([(0, 1)]), ((0, 1), (0, 2)))

    def test_label_of_unknown_edge(self):
        assert LINE.label(3) == 9
        with pytest.raises(GraphError, match="^no edge with id 7$"):
            LINE.label(7)

    def test_lifetime(self):
        assert LINE.lifetime == 9
        assert TemporalGraph.make(Multigraph.build(2, []), {}).lifetime == 0

    def test_value_semantics(self):
        other = tg([(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 9)])
        assert other == LINE

    def test_path_shape(self):
        assert len(TemporalPath((0, 1, 2), (0, 1))) == 2
        with pytest.raises(GraphError, match="n edges and n\\+1 vertices"):
            TemporalPath((0, 1), (0, 1))
        with pytest.raises(GraphError, match="distinct"):
            TemporalPath((0, 1, 0), (0, 0))


class TestWalkToPath:
    def test_already_a_path(self):
        p = _splice_walk([0, 1, 2], [0, 1])
        assert p.vertices == (0, 1, 2)
        assert p.edge_ids == (0, 1)

    def test_detour_spliced_out(self):
        # 0 -1-> 1 -2-> 2 -3-> 1 -4-> 3 on edges 0, 1, 2, 3
        p = _splice_walk([0, 1, 2, 1, 3], [0, 1, 2, 3])
        assert p.vertices == (0, 1, 3)
        assert p.edge_ids == (0, 3)

    def test_first_repeat_joins_its_first_arrival_to_its_last_departure(self):
        # a x d y d x z d t: d repeats first, so a x d t, where erasing
        # loops in time order would give a x z d t
        a, x, d, y, z, t = range(6)
        p = _splice_walk([a, x, d, y, d, x, z, d, t], list(range(8)))
        assert p.vertices == (a, x, d, t)
        assert p.edge_ids == (0, 1, 7)

    @given(st.data())
    def test_fuzz_always_yields_valid_path(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        t = random_temporal(rng, rng.randint(2, 6), rng.randint(1, 10))
        # grow a random temporal walk greedily
        start = rng.choice(sorted(t.graph.vertices))
        vs, es = [start], []
        cur, lab = start, 0
        for _ in range(rng.randint(0, 8)):
            options = [e for e in t.graph.edges if cur in e.pair and t.label(e.id) >= lab]
            if not options:
                break
            e = rng.choice(options)
            cur = e.u + e.v - cur
            lab = t.label(e.id)
            vs.append(cur)
            es.append(e.id)
        path = _splice_walk(vs, es)
        assert isinstance(path, TemporalPath)
        assert path.vertices[0] == start and path.vertices[-1] == cur
        # the path must itself be a temporal path of the graph
        if start == cur:
            assert path.edge_ids == ()
        else:
            assert (path.vertices, path.edge_ids) in brute_temporal_paths(t, start, cur)


class TestEarliestArrival:
    def test_line(self):
        arr = earliest_arrival(LINE, 0)
        assert arr == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_decreasing_blocks(self):
        t = tg([(0, 1, 5), (1, 2, 1)])
        arr = earliest_arrival(t, 0)
        assert arr == {0: 0, 1: 5}

    def test_same_label_chains(self):
        t = tg([(0, 1, 4), (1, 2, 4), (2, 3, 4)])
        assert earliest_arrival(t, 0)[3] == 4

    def test_long_same_label_chain_against_edge_order(self):
        # edge ids run opposite to the direction of travel
        n = 3000
        g = Multigraph.build(n, [(i, i + 1) for i in range(n - 1)])
        t = TemporalGraph.make(g, {i: 1 for i in range(n - 1)})
        start = time.perf_counter()
        arr = earliest_arrival(t, n - 1)
        assert time.perf_counter() - start < 1.0
        assert arr == {v: 0 if v == n - 1 else 1 for v in range(n)}

    def test_banned(self):
        assert 3 in earliest_arrival(LINE, 0, banned_vertices=[2])
        assert earliest_arrival(LINE, 0, banned_vertices=[2])[3] == 9
        assert earliest_arrival(LINE, 0, banned_vertices=[2], banned_edges=[3]) == {0: 0, 1: 1}
        assert earliest_arrival(LINE, 0, banned_vertices=[0]) == {}
        with pytest.raises(GraphError, match="unknown vertex 7"):
            earliest_arrival(LINE, 7)
        with pytest.raises(GraphError, match="unknown vertex 7"):
            latest_departure(LINE, 7, avoid=0)

    @given(st.integers(0, 5000))
    def test_matches_bruteforce_reachability(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 7), rng.randint(1, 12))
        vs = sorted(t.graph.vertices)
        s = rng.choice(vs)
        bv = rng.sample(vs, rng.randint(0, len(vs) // 2))
        be = rng.sample(sorted(t.times), rng.randint(0, len(t.times) // 2))
        assert earliest_arrival(t, s, bv, be) == brute_arrival(t, s, bv, be)


class TestLatestDepartures:
    @given(st.integers(0, 10_000))
    def test_one_sweep_matches_reversed_arrivals(self, seed):
        # few labels, so many tie; every ordered pair of distinct vertices,
        # the avoided one adjacent to the target included
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        t = random_temporal(rng, n, rng.randint(1, 2 * n), max_label=rng.randint(1, 4))
        for s in sorted(t.graph.vertices):
            for d in sorted(t.graph.vertices - {s}):
                assert latest_departure(t, d, avoid=s) == latest_departures(t, s, d)


class TestReverse:
    def test_labels_flip(self):
        r = reverse(LINE)
        assert r.times == {0: 9, 1: 8, 2: 7, 3: 1}

    def test_involution(self):
        assert reverse(reverse(LINE)) == LINE

    def test_reachability_swaps_direction(self):
        t = tg([(0, 1, 1), (1, 2, 2)])
        assert 2 in earliest_arrival(t, 0)
        r = reverse(t)
        assert 0 in earliest_arrival(r, 2)

    @given(st.integers(0, 3000))
    def test_duality_of_reachability(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 6), rng.randint(1, 9))
        r = reverse(t)
        for s in sorted(t.graph.vertices):
            fwd = earliest_arrival(t, s)
            for v in sorted(t.graph.vertices):
                assert (v in fwd) == (s in earliest_arrival(r, v))


class TestCanonicalize:
    """Only the order of labels matters: dense ranks reach the same vertices."""

    @given(st.integers(0, 3000))
    def test_reachability_invariant(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 6), rng.randint(1, 9), max_label=40)
        rank = {lab: i + 1 for i, lab in enumerate(sorted(set(t.times.values())))}
        c = TemporalGraph.make(t.graph, {i: rank[lab] for i, lab in t.times.items()})
        for s in sorted(t.graph.vertices):
            assert set(earliest_arrival(t, s)) == set(earliest_arrival(c, s))
