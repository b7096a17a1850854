import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from mengerian.cli import random_multigraph
from mengerian.multigraph import (
    Chain,
    Edge,
    GraphError,
    Multigraph,
    biconnected_components,
    find_path,
    identify,
    m_subdivide,
    maximal_chains,
)
from helpers import components, edge_degree, mg, small_multigraphs, with_pendant_trees
from oracles import reference_blocks, shortest_path_order


# a doubled pair inside a small frame, used across several tests
FRAME = mg([(0, 1), (1, 2), (1, 2), (2, 3), (0, 3)])


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"^edge 0: self-loop at vertex 2$"):
            Edge(0, 2, 2)
        with pytest.raises(GraphError, match=r"^edge 0: self-loop at vertex 1$"):
            Multigraph.build(3, [(1, 1)])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError, match=r"^duplicate edge id 0$"):
            Multigraph(frozenset({0, 1}), (Edge(0, 0, 1), Edge(0, 0, 1)))
        # the first fault in id order is the one named
        with pytest.raises(GraphError, match=r"^duplicate edge id 3$"):
            Multigraph(frozenset({0, 1}), (Edge(7, 0, 9), Edge(3, 0, 1), Edge(3, 1, 0)))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match=r"^edge 0: endpoint not a declared vertex$"):
            Multigraph(frozenset({0, 1}), (Edge(0, 0, 5),))
        with pytest.raises(GraphError, match=r"^edge 4: endpoint not a declared vertex$"):
            Multigraph(frozenset({0, 1, 2}), (Edge(6, 7, 8), Edge(4, 0, 3), Edge(2, 0, 1)))

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError, match=r"^vertex ids must be non-negative ints, got -1$"):
            Multigraph(frozenset({-1, 0}), ())

    @pytest.mark.parametrize("bad", ["a", 1.5])
    def test_non_int_vertex_rejected(self, bad):
        with pytest.raises(GraphError,
                           match=rf"^vertex ids must be non-negative ints, got {bad!r}$"):
            Multigraph(frozenset({0, bad}), ())
        # an edge fault is named before a vertex fault
        with pytest.raises(GraphError, match=r"^edge 0: endpoint not a declared vertex$"):
            Multigraph(frozenset({0, 1, bad}), (Edge(0, 0, 2),))

    def test_endpoints_normalized(self):
        e = Edge(0, 5, 2)
        assert (e.u, e.v) == (2, 5)
        assert e == Edge(0, 2, 5)

    def test_edge_is_an_ordered_immutable_value(self):
        e = Edge(4, 9, 2)
        assert (e.id, e.u, e.v, e.pair) == (4, 2, 9, (2, 9))
        with pytest.raises(GraphError, match=r"^edge 4: self-loop at vertex 9$"):
            Edge(4, 9, 9)
        assert e == Edge(4, 2, 9) and hash(e) == hash(Edge(4, 2, 9))
        assert e != Edge(5, 2, 9) and e != Edge(4, 2, 8)
        # the tuple (id, u, v): sorted by id, then by ends, and equal to
        # the plain tuple
        assert sorted([Edge(3, 0, 1), Edge(1, 6, 5), Edge(1, 2, 9)]) == [
            Edge(1, 2, 9), Edge(1, 5, 6), Edge(3, 0, 1)]
        assert e == (4, 2, 9) and hash(e) == hash((4, 2, 9))
        with pytest.raises(AttributeError):
            e.u = 1
        with pytest.raises(AttributeError):
            e.weight = 1
        # copies, and copies with a field replaced, are built as edges are
        assert e._replace(u=12) == Edge(4, 9, 12)
        with pytest.raises(GraphError, match=r"^edge 4: self-loop at vertex 9$"):
            e._replace(u=9)
        for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert type(again) is Edge and again == e

    def test_value_semantics(self):
        assert mg([(0, 1), (0, 1)]) == mg([(1, 0), (0, 1)])
        assert hash(FRAME) == hash(mg([(0, 1), (1, 2), (1, 2), (2, 3), (0, 3)]))


class TestQueries:
    def test_multiplicity(self):
        assert FRAME.multiplicity(1, 2) == 2
        assert FRAME.multiplicity(2, 1) == 2
        assert FRAME.multiplicity(0, 1) == 1
        assert FRAME.multiplicity(0, 2) == 0
        with pytest.raises(GraphError):
            FRAME.multiplicity(0, 9)
        with pytest.raises(GraphError):
            FRAME.multiplicity(1, 1)

    def test_degrees(self):
        assert FRAME.simple_degree(1) == 2
        assert edge_degree(FRAME, 1) == 3
        assert FRAME.simple_degree(0) == 2
        g = mg([(0, 1)], vertices=[0, 1, 2])
        assert g.simple_degree(2) == 0
        assert edge_degree(g, 2) == 0

    def test_neighbors_sorted(self):
        g = mg([(3, 1), (3, 0), (3, 2), (3, 2)])
        assert g.neighbors(3) == (0, 1, 2)
        assert g.parallel_edges(2, 3) == (2, 3)
        assert g.parallel_edges(3, 2) == (2, 3)

    def test_unknown_vertex(self):
        with pytest.raises(GraphError, match=r"^unknown vertex in pair \(0, 9\)$"):
            FRAME.parallel_edges(0, 9)
        with pytest.raises(GraphError, match="^unknown vertex 9$"):
            FRAME.neighbors(9)

    @given(small_multigraphs())
    def test_multiplicity_symmetry_and_total(self, g):
        pairs = {e.pair for e in g.edges}
        assert sum(g.multiplicity(a, b) for a, b in pairs) == len(g.edges)
        for a, b in pairs:
            assert g.multiplicity(a, b) == g.multiplicity(b, a) >= 1


class TestDerivedGraphs:
    def test_underlying_simple_keeps_smallest_id(self):
        u = FRAME.underlying_simple()
        assert len(u.edges) == 4
        assert u.multiplicity(1, 2) == 1
        kept = [e.id for e in u.edges if e.pair == (1, 2)]
        assert kept == [1]

    @given(small_multigraphs())
    def test_underlying_simple_idempotent(self, g):
        u = g.underlying_simple()
        assert u.underlying_simple() == u
        assert {e.pair for e in u.edges} == {e.pair for e in g.edges}

    def test_remove_vertices(self):
        g = FRAME.remove_vertices([1])
        assert g.vertices == frozenset({0, 2, 3})
        assert [e.id for e in g.edges] == [3, 4]
        with pytest.raises(GraphError):
            FRAME.remove_vertices([8])


class TestIdentify:
    def test_path_ends_identified(self):
        g = mg([(0, 1), (1, 2)])
        h, z = identify(g, {0, 2})
        assert z == 3
        assert h.vertices == frozenset({1, 3})
        assert h.multiplicity(1, 3) == 2
        assert sorted(e.id for e in h.edges) == [0, 1]

    def test_internal_edges_dropped(self):
        h, z = identify(FRAME, {1, 2})
        assert z == 4
        assert h.multiplicity(0, z) == 1
        assert h.multiplicity(3, z) == 1
        assert sorted(e.id for e in h.edges) == [0, 3, 4]

    def test_identify_all(self):
        h, z = identify(FRAME, FRAME.vertices)
        assert h.vertices == frozenset({z})
        assert h.edges == ()

    def test_empty_set_rejected(self):
        with pytest.raises(GraphError):
            identify(FRAME, set())
        with pytest.raises(GraphError):
            identify(FRAME, {99})

    @given(small_multigraphs(), st.data())
    def test_edge_bookkeeping(self, g, data):
        zs = data.draw(
            st.sets(st.sampled_from(sorted(g.vertices)), min_size=1, max_size=len(g.vertices))
        )
        h, z = identify(g, zs)
        assert z == max(g.vertices) + 1
        dropped = {e.id for e in g.edges if e.u in zs and e.v in zs}
        assert {e.id for e in h.edges} == {e.id for e in g.edges} - dropped
        by_id = {e.id: e for e in g.edges}
        for e in h.edges:
            old = by_id[e.id]
            if old.u in zs or old.v in zs:
                kept = old.v if old.u in zs else old.u
                assert set(e.pair) == {kept, z}
            else:
                assert e.pair == old.pair


class TestMSubdivide:
    def test_single_edge_becomes_path(self):
        g = mg([(0, 1)])
        h, z = m_subdivide(g, 0, 1)
        assert z == 2
        assert h.multiplicity(0, 1) == 0
        assert h.multiplicity(0, z) == 1
        assert h.multiplicity(z, 1) == 1

    def test_doubled_pair(self):
        h, z = m_subdivide(FRAME, 1, 2)
        assert z == 4
        assert h.multiplicity(1, 2) == 0
        assert h.multiplicity(1, z) == 2
        assert h.multiplicity(2, z) == 2
        assert h.simple_degree(z) == 2
        assert edge_degree(h, z) == 4
        # fresh ids continue past the old maximum
        assert sorted(e.id for e in h.edges)[-4:] == [5, 6, 7, 8]

    def test_non_adjacent_rejected(self):
        with pytest.raises(GraphError):
            m_subdivide(FRAME, 0, 2)

    @given(small_multigraphs().filter(lambda g: g.edges), st.data())
    def test_counts(self, g, data):
        u, v = data.draw(st.sampled_from(sorted({e.pair for e in g.edges})))
        mu = g.multiplicity(u, v)
        h, z = m_subdivide(g, u, v)
        assert len(h.vertices) == len(g.vertices) + 1
        assert len(h.edges) == len(g.edges) + mu
        assert h.simple_degree(z) == 2
        assert edge_degree(h, z) == 2 * mu
        assert not h.adjacent(u, v)
        assert h.simple_degree(u) == g.simple_degree(u)


class TestMaximalChains:
    def test_chain_validation(self):
        with pytest.raises(GraphError, match="^a chain needs at least two vertices$"):
            Chain((0,))
        with pytest.raises(GraphError, match="^chain vertices must be distinct$"):
            Chain((0, 1, 0))

    def test_no_parallels_no_chains(self):
        assert maximal_chains(mg([(0, 1), (1, 2), (2, 0)])) == ()

    def test_isolated_doubled_pair(self):
        assert maximal_chains(mg([(0, 1), (0, 1)])) == (Chain((0, 1)),)

    def test_doubled_path_extends(self):
        g = mg([(0, 1), (0, 1), (1, 2), (1, 2)])
        assert maximal_chains(g) == (Chain((0, 1, 2)),)

    def test_high_degree_interior_splits(self):
        g = mg([(0, 1), (0, 1), (1, 2), (1, 2), (1, 3)])
        assert maximal_chains(g) == (Chain((0, 1)), Chain((1, 2)))

    def test_single_edge_breaks_chain(self):
        g = mg([(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
        assert maximal_chains(g) == (Chain((0, 1)), Chain((2, 3)))

    def test_orientation_smaller_end_first(self):
        g = mg([(5, 4), (4, 5), (4, 2), (2, 4)])
        assert maximal_chains(g) == (Chain((2, 4, 5)),)

    def test_closed_chain_cut_at_smallest(self):
        g = mg([(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
        chains = maximal_chains(g)
        assert chains == (Chain((0, 1, 2)),)
        g4 = mg([(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)])
        assert maximal_chains(g4) == (Chain((0, 1, 2, 3)),)

    def test_cycle_hanging_from_branch_vertex(self):
        # reached tail-first, the head runs back round to vertex 2; the
        # cycle is cut open there, toward 2's smaller neighbor 0
        g = mg([(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2), (2, 3)])
        assert maximal_chains(g) == (Chain((1, 0, 2)),)
        g4 = mg([(0, 1), (0, 1), (1, 4), (1, 4), (4, 3), (4, 3), (3, 0), (3, 0),
                 (4, 5)])
        assert maximal_chains(g4) == (Chain((3, 0, 1, 4)),)

    # two seeded random hosts (7-9 vertices, 9-18 edges, multiplicity
    # <= 3) on which chain growth once came round to its own tail
    @pytest.mark.parametrize("n, pairs", [
        (9, [(0, 2), (6, 7), (2, 4), (4, 5), (1, 8), (3, 5), (6, 8), (6, 7), (2, 5),
             (5, 7), (1, 8), (1, 6), (6, 8), (5, 7), (1, 8), (1, 6)]),
        (8, [(4, 6), (0, 1), (0, 4), (2, 3), (1, 5), (3, 4), (4, 5), (4, 5), (6, 7),
             (3, 4), (1, 5), (3, 7), (0, 4), (6, 7), (3, 4), (2, 6), (0, 1)]),
    ], ids=["1401", "2490"])
    def test_random_cycles_hanging_from_branch_vertices(self, n, pairs):
        assert_chain_partition(Multigraph.build(n, pairs))

    @given(small_multigraphs())
    def test_partition_property(self, g):
        assert_chain_partition(g)

    @given(small_multigraphs())
    def test_maximality(self, g):
        for c in maximal_chains(g):
            for end, inner in ((c.first, c.vertices[1]), (c.last, c.vertices[-2])):
                if g.simple_degree(end) != 2:
                    continue
                a, b = g.neighbors(end)
                nxt = b if a == inner else a
                if nxt in c.vertices:
                    continue  # would close a cycle
                assert g.multiplicity(end, nxt) < 2


def assert_chain_partition(g):
    chains = maximal_chains(g)
    doubled = {e.pair for e in g.edges if g.multiplicity(*e.pair) >= 2}
    covered = []
    for c in chains:
        for a, b in zip(c.vertices, c.vertices[1:]):
            assert g.multiplicity(a, b) >= 2
            covered.append((min(a, b), max(a, b)))
        for x in c.vertices[1:-1]:
            assert g.simple_degree(x) == 2
    assert len(covered) == len(set(covered))
    missing = doubled - set(covered)
    # only the closing pair of a cut-open doubled cycle may stay uncovered;
    # it may touch the one vertex the cycle hangs from
    for a, b in missing:
        assert 2 in (g.simple_degree(a), g.simple_degree(b))
        assert any({a, b} == {c.first, c.last} for c in chains)


def brute_cut_vertices(g):
    cuts = set()
    base = sum(1 for _ in components(g))
    for v in g.vertices:
        rest = g.remove_vertices([v])
        if sum(1 for _ in components(rest)) > base:
            cuts.add(v)
    return cuts


class TestBlocks:
    def test_two_triangles_sharing_a_vertex(self):
        g = mg([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        assert blocks[0].vertices == frozenset({0, 1, 2})
        assert blocks[1].vertices == frozenset({2, 3, 4})

    def test_tree_gives_one_block_per_edge(self):
        g = mg([(0, 1), (1, 2), (1, 3)])
        blocks = biconnected_components(g)
        assert len(blocks) == 3
        assert all(len(b.edges) == 1 for b in blocks)

    def test_parallel_pair_is_a_block(self):
        g = mg([(0, 1), (0, 1), (1, 2)])
        blocks = biconnected_components(g)
        assert [sorted(e.id for e in b.edges) for b in blocks] == [[0, 1], [2]]

    def test_parallels_follow_their_block(self):
        g = mg([(0, 1), (1, 2), (2, 0), (1, 2), (2, 3)])
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        assert sorted(e.id for e in blocks[0].edges) == [0, 1, 2, 3]

    def test_isolated_vertex_in_no_block(self):
        g = mg([(0, 1)], vertices=[0, 1, 5])
        blocks = biconnected_components(g)
        assert len(blocks) == 1
        assert 5 not in blocks[0].vertices
        # a 2-connected graph plus an isolated vertex or a second block is
        # split into new graphs
        (block,) = biconnected_components(Multigraph(FRAME.vertices | {9}, FRAME.edges))
        assert block == FRAME and block is not FRAME
        pendant = Multigraph(FRAME.vertices | {4}, FRAME.edges + (Edge(5, 3, 4),))
        blocks = biconnected_components(pendant)
        assert blocks[0] == FRAME and all(b is not pendant for b in blocks)

    @pytest.mark.parametrize("g", [FRAME, mg([(0, 1), (0, 1)]), mg([(0, 1)])],
                             ids=["frame", "doubled-pair", "one-edge"])
    def test_two_connected_graph_is_its_own_block(self, g):
        assert biconnected_components(g)[0] is g

    @given(small_multigraphs(max_n=12, max_m=30))
    def test_matches_reference_split(self, g):
        assert biconnected_components(g) == reference_blocks(g)

    @given(small_multigraphs(max_n=12, max_m=30))
    def test_blocks_index_as_fresh_blocks_do(self, g):
        # each block takes its parallel classes from g: in the order, and
        # with the adjacency, that the same block built alone would have
        blocks, fresh = biconnected_components(g), reference_blocks(g)
        assert len(blocks) == len(fresh)
        for block, ref in zip(blocks, fresh):
            assert list(block._parallel.items()) == list(ref._parallel.items())
            assert block._adj == ref._adj
        if len(fresh) == 1 and fresh[0].vertices == g.vertices:
            assert blocks[0] is g

    @pytest.mark.parametrize("seed", range(40))
    def test_blocks_around_a_shared_cut_vertex_index_as_built_ones(self, seed):
        # three to five random multigraphs glued at vertex 0, each through
        # a cycle at it, then pendant trees: 0 lies in three or more
        # blocks, and single-edge blocks hang everywhere
        rng = random.Random(seed)
        pairs = []
        for _ in range(rng.randint(3, 5)):
            first = 1 + max((v for p in pairs for v in p), default=0)
            part = [0] + list(range(first, first + rng.randint(2, 5)))
            pairs += list(zip(part, part[1:] + part[:1]))
            pairs += [tuple(rng.sample(part, 2)) for _ in range(rng.randint(0, 6))]
        g = with_pendant_trees(mg(pairs), rng.randint(1, 25), rng)
        blocks = biconnected_components(g)
        assert blocks == reference_blocks(g)
        assert sum(0 in b.vertices for b in blocks) >= 3
        for block in blocks:
            built = Multigraph(block.vertices, block.edges)
            assert block == built
            assert block._adj == built._adj
            assert list(block._parallel.items()) == list(built._parallel.items())

    @given(small_multigraphs())
    def test_edge_partition(self, g):
        blocks = biconnected_components(g)
        ids = [e.id for b in blocks for e in b.edges]
        assert sorted(ids) == [e.id for e in g.edges]

    def test_cut_vertices_match_bruteforce(self):
        rng = random.Random(7)
        for _ in range(150):
            n, m = rng.randint(2, 7), rng.randint(1, 10)
            g = random_multigraph(n, m, m, rng)
            blocks = biconnected_components(g)
            in_blocks = {}
            for b in blocks:
                for v in b.vertices:
                    in_blocks[v] = in_blocks.get(v, 0) + 1
            mine = {v for v, k in in_blocks.items() if k >= 2}
            assert mine == brute_cut_vertices(g), g


class TestConnectivity:
    def test_find_path_prefers_bfs_order(self):
        g = mg([(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
        assert find_path(g, [0], [3]) == (0, 3)
        # of two shortest paths, the one through the smaller neighbour,
        # whatever the edge ids
        assert find_path(mg([(0, 2), (2, 3), (0, 1), (1, 3)]), [0], [3]) == (0, 1, 3)

    def test_find_path_multi_source(self):
        g = mg([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert find_path(g, [0, 2], [4]) == (2, 3, 4)

    def test_find_path_none(self):
        g = mg([(0, 1), (2, 3)])
        assert find_path(g, [0], [3]) is None
        with pytest.raises(GraphError):
            find_path(g, [0], [0, 3])
        with pytest.raises(GraphError, match=r"^unknown vertices \[7\]$"):
            find_path(g, [0, 7], [3])

    @given(small_multigraphs(max_n=7, max_m=14, min_m=4), st.data())
    def test_find_path_matches_reference(self, g, data):
        vs = sorted(g.vertices)
        sources = data.draw(st.sets(st.sampled_from(vs), min_size=1, max_size=2))
        rest = sorted(g.vertices - sources)
        targets = (data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2))
                   if rest else set())
        banned = data.draw(st.sets(st.sampled_from(vs), max_size=2))
        path = find_path(g, sources, targets, banned_vertices=banned)
        want = shortest_path_order(g, sources, targets, banned)
        assert (path is None) == (want is None)
        if path is not None:
            assert len(path) == want
            assert path[0] in sources and path[-1] in targets
            assert len(set(path)) == len(path)
            assert all(g.adjacent(x, y) for x, y in zip(path, path[1:]))
            assert not set(path[1:-1]) & (sources | targets | banned)
            assert not {path[0], path[-1]} & banned
        with pytest.raises(GraphError, match="disjoint"):
            find_path(g, sources, targets | {min(sources)}, banned_vertices=banned)
