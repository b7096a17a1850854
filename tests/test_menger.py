"""Exact temporal connectivity oracles and the labeling falsifier."""

import random
import time
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, strategies as st

from mengerian import menger
from mengerian.cli import random_multigraph
from mengerian.multigraph import GraphError, Multigraph
from mengerian.patterns import PATTERNS
from mengerian.recognizer import recognize
from mengerian.temporal import TemporalGraph
from mengerian.witness import make_witness
from mengerian.menger import (
    CutUndefinedError,
    ResourceLimitError,
    _hop_planes,
    _kept_routes,
    _kept_sets,
    _max_packing,
    _min_hitting,
    _minimal_family,
    _route_paths,
    _sampled_columns,
    _source_trie,
    _weak_order_columns,
    _weak_orders,
    edge_menger,
    falsify_mengerian,
    max_disjoint_paths,
    min_vertex_cut,
)

from helpers import (
    count_listings,
    doubled_k2n,
    mg,
    p_and_c,
    random_temporal,
    with_pendant_trees,
)
from oracles import (
    brute_c,
    brute_edge_c,
    brute_edge_p,
    brute_min_cut_set,
    brute_p,
    brute_reachable,
    brute_temporal_paths,
    hop_planes,
    ordered_routes,
    pair_routes,
    rank_assignments,
    route_trie,
    sampled_labelings,
    subdivided_pattern,
)


def tg(triples, vertices=None):
    pairs = [(u, v) for u, v, _ in triples]
    g = mg(pairs, vertices=vertices)
    return TemporalGraph.make(g, {i: lab for i, (_, _, lab) in enumerate(triples)})


# s=0 u=1 v=2 t=3 apex=4; one of the three obstruction shapes, with the
# labeling that forces a single path against a 2-cut
GEM = tg([
    (0, 1, 1),
    (1, 2, 2),
    (2, 3, 3),
    (4, 0, 2),
    (4, 1, 1),
    (4, 2, 2),
    (4, 3, 1),
])

TWO_ROUTES = tg([
    (0, 1, 1),
    (1, 3, 2),
    (0, 2, 1),
    (2, 3, 2),
])


def labeled_path(n):
    g = Multigraph.build(n, [(i, i + 1) for i in range(n - 1)])
    return TemporalGraph.make(g, {i: i + 1 for i in range(n - 1)})


def theta(paths, hops):
    """paths routes from 0 to 1 of hops hops each, labeled 1..hops."""
    triples, n = [], 2
    for _ in range(paths):
        prev = 0
        for h in range(1, hops):
            triples.append((prev, n, h))
            prev, n = n, n + 1
        triples.append((prev, 1, hops))
    return tg(triples)


def ladders(count, length):
    """count 2 x length ladders side by side from 0 to 1.

    Labels rise along each ladder, so a route crosses each rung or not
    and enters by either rail: 2 ** (length + 1) routes per ladder.
    """
    triples, n = [], 2
    for _ in range(count):
        a = range(n, n + length)
        b = range(n + length, n + 2 * length)
        n += 2 * length
        triples += [(0, a[0], 1), (0, b[0], 1), (a[-1], 1, 2 * length + 1), (b[-1], 1, 2 * length + 1)]
        for i in range(length):
            triples.append((a[i], b[i], 2 * i + 2))
        for i in range(length - 1):
            triples += [(a[i], a[i + 1], 2 * i + 3), (b[i], b[i + 1], 2 * i + 3)]
    return tg(triples)


def answered_or_refused(oracle, t, s, d):
    """The oracle's answer, or None when it names its work budget; timed."""
    start = time.perf_counter()
    try:
        answer = oracle(t, s, d)
    except ResourceLimitError as exc:
        assert "work budget" in str(exc) and f"between {s} and {d}" in str(exc)
        answer = None
    assert time.perf_counter() - start < 2.0
    return answer


class TestRoutes:
    @given(st.integers(0, 10_000))
    def test_one_route_per_brute_vertex_sequence(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 7), rng.randint(1, 12))
        s, d = rng.sample(sorted(t.graph.vertices), 2)
        routes = list(_route_paths(t, s, d))
        brute = brute_temporal_paths(t, s, d)
        for p in routes:
            assert (p.vertices, p.edge_ids) in brute
        seqs = [p.vertices for p in routes]
        assert len(seqs) == len(set(seqs))
        assert set(seqs) == {vs for vs, _ in brute}
        # the order too: `menger` prints the packing chosen by route index
        assert [(p.vertices, p.edge_ids) for p in routes] == ordered_routes(t, s, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_routes_in_depth_first_order(self, seed):
        # a subdivided F1, F2 or F3 with pendant trees, labeled by its
        # witness: the routes between the embedded ends run to hundreds of
        # vertices, and come out in the plain search's order
        rng = random.Random(seed)
        g = with_pendant_trees(subdivided_pattern(PATTERNS[seed % 3].name, 300, rng), 40, rng)
        emb = recognize(g).embedding
        labeled = make_witness(g, emb)
        pairs = [(emb.source, emb.target), (emb.target, emb.source)]
        pairs += [(emb.source, v) for v in rng.sample(sorted(g.vertices - {emb.source}), 2)]
        longest = 0
        for s, t in pairs:
            routes = [(p.vertices, p.edge_ids) for p in _route_paths(labeled, s, t)]
            assert routes == ordered_routes(labeled, s, t)
            longest = max([longest] + [len(vs) for vs, _ in routes])
        assert longest >= 100


def trie_routes(trie, s, slots):
    """Per target slot, the sequences from s ending at nodes of the trie,
    by route index; the sequence of every node; and each hop index with
    the vertex pairs it marks."""
    routes = [{} for _ in range(slots)]
    nodes = set()
    hops = {}
    stack = [(trie, (s,))]
    while stack:
        level, seq = stack.pop()
        for y, (hop, slot, route, children) in level.items():
            nodes.add(seq + (y,))
            hops.setdefault(hop, set()).add((min(seq[-1], y), max(seq[-1], y)))
            if route >= 0:
                routes[slot][route] = seq + (y,)
            stack.append((children, seq + (y,)))
    return [[found[i] for i in range(len(found))] for found in routes], nodes, hops


class TestRouteTrie:
    @given(st.integers(0, 10_000))
    def test_one_walk_lists_each_pairs_routes(self, seed):
        # the walk from s lists, per target, exactly the routes a listing
        # of that pair alone finds, shortest first, each with its
        # interior; its trie keeps only prefixes of routes, so its nodes
        # and hops are those of the pair-by-pair trie
        rng = random.Random(seed)
        n, m = rng.randint(2, 7), rng.randint(1, 12)
        g = random_multigraph(n, m, m, rng)
        vertices = sorted(g.vertices)
        s = rng.choice(vertices)
        others = [t for t in vertices if t != s]
        targets = sorted(rng.sample(others, rng.randint(0, len(others))))
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        hop_of = {}
        trie, interiors = _source_trie(s, targets, [g], hop_of, bit)
        listed, nodes, hops = trie_routes(trie, s, len(targets))
        reference = pair_routes(g, s, targets)
        for seqs, masks, want in zip(listed, interiors, reference):
            assert set(seqs) == set(want) and len(seqs) == len(want)
            assert masks == [sum(bit[v] for v in seq[1:-1]) for seq in seqs]
            sizes = [mask.bit_count() for mask in masks]
            assert sizes == sorted(sizes)
        assert all(len(pairs) == 1 for pairs in hops.values())
        assert {hop: pairs.pop() for hop, pairs in hops.items()} == \
            {hop: pair for pair, hop in hop_of.items()}
        reference_hops = {}
        assert trie_routes(route_trie(reference, reference_hops), s, len(targets))[1] == nodes
        assert set(hop_of) == set(reference_hops)

    @given(st.integers(0, 10_000))
    def test_kept_routes_are_the_brute_temporal_paths(self, seed):
        # one walk of a source's trie decides a batch of labelings for all
        # of its targets; each labeling must keep exactly the static routes
        # that are temporal paths under it, in both orientations: from s
        # to every target, and from every target back to s, as sampling
        # tests the second orientation of a pair
        rng = random.Random(seed)
        n, m = rng.randint(2, 7), rng.randint(1, 12)
        g = random_multigraph(n, m, m, rng)
        vertices = sorted(g.vertices)
        s = rng.choice(vertices)
        targets = [t for t in vertices if t != s]
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        hop_of = {}
        # (source, its targets, trie, interiors) of each walk
        walks = [(s, targets, *_source_trie(s, targets, [g], hop_of, bit))]
        walks += [(t, [s], *_source_trie(t, [s], [g], hop_of, bit)) for t in targets]
        edge_ids = tuple(e.id for e in g.edges)
        top = len(edge_ids) + 2
        chunk = [tuple(rng.randint(1, top) for _ in edge_ids)
                 for _ in range(rng.randint(1, 24))]
        labeled = [TemporalGraph.make(g, dict(zip(edge_ids, labels))) for labels in chunk]
        columns = dict(zip(edge_ids, map(bytes, zip(*chunk))))
        planes = _hop_planes([g.parallel_edges(a, b) for a, b in hop_of], columns, top)
        universe = (1 << len(chunk)) - 1
        # the labelings before a gap found for an earlier target
        below = (1 << rng.randint(1, len(chunk))) - 1
        for source, ends, trie, interiors in walks:
            sizes = [len(masks) for masks in interiors]
            listed = trie_routes(trie, source, len(ends))[0]
            brute = [[{vs for vs, _ in brute_temporal_paths(tk, source, t)} for tk in labeled]
                     for t in ends]
            keeps = _kept_routes(trie, sizes, planes, universe)
            narrow = _kept_routes(trie, sizes, planes, below)
            assert [[bits & below for bits in keep] for keep in keeps] == narrow
            assert [_kept_sets(keep, below) for keep in keeps] == \
                [_kept_sets(keep, below) for keep in narrow]
            for seqs, keep, kept_by_brute in zip(listed, keeps, brute):
                alive = []
                for k, paths in enumerate(kept_by_brute):
                    assert {seqs[i] for i in range(len(seqs)) if keep[i] >> k & 1} == paths
                    alive.append(sum(1 << i for i in range(len(seqs)) if keep[i] >> k & 1))
                # one group per distinct kept set, under its lowest labeling
                firsts = {}
                for k, mask in enumerate(alive):
                    firsts.setdefault(mask, k)
                assert _kept_sets(keep, universe) == sorted((k, mask) for mask, k in firsts.items())


class TestMinimalFamily:
    @given(st.lists(st.integers(1, (1 << 9) - 1), max_size=12), st.integers(0, (1 << 12) - 1))
    def test_minimal_members_have_the_same_packing_and_hitting_sizes(self, masks, alive):
        # falsify decides a kept family by its minimal members: a vertex
        # set meets every interior exactly when it meets every minimal
        # one, and disjoint interiors hold disjoint minimal ones
        masks.sort(key=int.bit_count)
        family = _minimal_family(masks, alive)
        kept = [mask for i, mask in enumerate(masks) if alive >> i & 1]
        assert family == {mask for mask in kept
                          if not any(low & mask == low != mask for low in kept)}
        minimal = sorted(family)
        vertices = list(range(9))
        assert len(_min_hitting(minimal, vertices, 0, 1)) == len(_min_hitting(kept, vertices, 0, 1))
        assert len(_max_packing(minimal, 0, 1)) == len(_max_packing(kept, 0, 1))


class TestHopPlanes:
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=20), st.integers(1, 2048),
           st.integers(1, 255), st.integers(0, 10_000))
    def test_planes_agree_with_one_labeling_at_a_time(self, parallel, count, top, seed):
        # hops of 1-3 parallel edges, labels in 1..top; a chunk holds at
        # most _CHUNK_LABELS labels
        rng = random.Random(seed)
        ids = iter(range(sum(parallel)))
        hops = [tuple(islice(ids, size)) for size in parallel]
        count = min(count, max(1, menger._CHUNK_LABELS // sum(parallel)))
        columns = {eid: bytes(rng.choices(range(1, top + 1), k=count))
                   for eid in range(sum(parallel))}
        assert _hop_planes(hops, columns, top) == hop_planes(hops, columns)


class TestDisjointPaths:
    def test_two_routes(self):
        paths = max_disjoint_paths(TWO_ROUTES, 0, 3)
        assert len(paths) == 2
        seen = set()
        for p in paths:
            assert (p.vertices, p.edge_ids) in brute_temporal_paths(TWO_ROUTES, 0, 3)
            inner = set(p.vertices[1:-1])
            assert not inner & seen
            seen |= inner

    def test_gem_single_path(self):
        assert len(max_disjoint_paths(GEM, 0, 3)) == 1

    def test_label_order_blocks_second_route(self):
        # both static routes exist but one is scrambled in time
        t = tg([(0, 1, 2), (1, 3, 1), (0, 2, 1), (2, 3, 2)])
        assert len(max_disjoint_paths(t, 0, 3)) == 1

    def test_unreachable(self):
        t = tg([(0, 1, 1)], vertices=[0, 1, 2])
        assert max_disjoint_paths(t, 0, 2) == ()

    @pytest.mark.parametrize("oracle", [max_disjoint_paths, min_vertex_cut])
    def test_pair_must_be_two_vertices_of_the_graph(self, oracle):
        with pytest.raises(GraphError, match=r"^unknown vertex in pair \(0, 9\)$"):
            oracle(TWO_ROUTES, 0, 9)
        with pytest.raises(GraphError, match="^source and target must differ$"):
            oracle(TWO_ROUTES, 3, 3)

    def test_long_labeled_path(self):
        assert len(max_disjoint_paths(labeled_path(1500), 0, 1499)) == 1

    def test_size_guard(self, monkeypatch):
        # the guard counts work, not vertices: 20 vertices pass, and a
        # route search past the budget is refused, naming the budget
        g = Multigraph.build(20, [(i, i + 1) for i in range(19)])
        t = TemporalGraph.make(g, {i: 1 for i in range(19)})
        assert len(max_disjoint_paths(t, 0, 19)) == 1
        monkeypatch.setattr(menger, "_WORK_BUDGET", 10)
        with pytest.raises(ResourceLimitError, match="route search between 0 and 19 .* work budget"):
            max_disjoint_paths(t, 0, 19)

    def test_packing_budget(self, monkeypatch):
        # interiors {a, b} for every two of six vertices: three fit, and
        # showing that four do not takes more than 20 candidates
        masks = [(1 << a) | (1 << b) for a, b in combinations(range(6), 2)]
        assert len(_max_packing(masks, 0, 1)) == 3
        monkeypatch.setattr(menger, "_WORK_BUDGET", 20)
        with pytest.raises(ResourceLimitError, match="packing search between 0 and 1"):
            _max_packing(masks, 0, 1)

    def test_many_middles_without_recursion(self):
        # the packing search is as deep as p; 1200 levels overflowed the
        # interpreter's recursion limit when it recursed
        n = 1200
        t = tg([(0, m, 1) for m in range(2, n + 2)] + [(m, 1, 2) for m in range(2, n + 2)])
        paths = max_disjoint_paths(t, 0, 1)
        assert sorted(p.vertices[1] for p in paths) == list(range(2, n + 2))

    def test_parallel_ladders_answer_or_refuse_quickly(self):
        t = ladders(4, 6)
        assert len(t.graph.vertices) == 50 and len(list(_route_paths(t, 0, 1))) == 512
        paths = answered_or_refused(max_disjoint_paths, t, 0, 1)
        assert paths is None or len(paths) == 8

    @given(st.lists(st.integers(1, 63), max_size=9))
    def test_packing_is_first_largest(self, masks):
        # depth first over ascending index tuples: among the largest
        # disjoint subsets, the lexicographically first
        def disjoint(idx):
            return all(not masks[i] & masks[j] for i, j in combinations(idx, 2))

        expected = next(idx for size in range(len(masks), -1, -1)
                        for idx in combinations(range(len(masks)), size) if disjoint(idx))
        assert _max_packing(masks, 0, 1) == expected

    @given(st.lists(st.integers(1, 63), max_size=9), st.integers(0, 3))
    def test_bound_at_or_above_the_largest_changes_nothing(self, masks, slack):
        full = _max_packing(masks, 0, 1)
        assert _max_packing(masks, 0, 1, len(full) + slack) == full

    def test_bound_stops_the_search(self, monkeypatch):
        # as in test_packing_budget, three fit at once, and only showing
        # that four do not runs past 20 candidates
        masks = [(1 << a) | (1 << b) for a, b in combinations(range(6), 2)]
        monkeypatch.setattr(menger, "_WORK_BUDGET", 20)
        assert _max_packing(masks, 0, 1, 3) == (0, 9, 14)

    @given(st.integers(0, 400))
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 6), rng.randint(1, 8))
        vs = sorted(t.graph.vertices)
        s, d = rng.sample(vs, 2)
        assert len(max_disjoint_paths(t, s, d)) == brute_p(t, s, d)


class TestVertexCut:
    def test_gem_cut(self):
        # {u, v} leaves only s-w-t whose labels run 2 then 1
        assert min_vertex_cut(GEM, 0, 3) == frozenset({1, 2})

    def test_cut_kills_reachability(self):
        cut = min_vertex_cut(GEM, 0, 3)
        assert 3 not in brute_reachable(GEM, 0, banned_vertices=cut)

    def test_adjacent_rejected(self):
        with pytest.raises(CutUndefinedError):
            min_vertex_cut(TWO_ROUTES, 0, 1)

    def test_disconnected_is_empty(self):
        t = tg([(0, 1, 1)], vertices=[0, 1, 2])
        assert min_vertex_cut(t, 0, 2) == frozenset()

    def test_two_routes(self):
        assert min_vertex_cut(TWO_ROUTES, 0, 3) == frozenset({1, 2})

    @given(st.integers(0, 400))
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(3, 6), rng.randint(1, 8))
        vs = sorted(t.graph.vertices)
        pairs = [(a, b) for a in vs for b in vs
                 if a != b and not t.graph.adjacent(a, b)]
        if not pairs:
            return
        s, d = pairs[seed % len(pairs)]
        assert len(min_vertex_cut(t, s, d)) == brute_c(t, s, d)

    @given(st.integers(0, 10_000))
    def test_is_first_brute_cut(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(3, 8), rng.randint(1, 14))
        vs = sorted(t.graph.vertices)
        pairs = [(a, b) for a in vs for b in vs
                 if a != b and not t.graph.adjacent(a, b)]
        if not pairs:
            return
        s, d = rng.choice(pairs)
        assert min_vertex_cut(t, s, d) == brute_min_cut_set(t, s, d)

    def test_long_labeled_path(self):
        assert min_vertex_cut(labeled_path(1500), 0, 1499) == frozenset({1})

    def test_hanging_clique_is_pruned(self):
        # one route 0-2-1 and a 10-clique joined only to 0: walks into the
        # clique reach 1 only back through 0, so none is followed
        clique = range(3, 13)
        t = tg([(0, 2, 1), (2, 1, 1)] + [(0, c, 1) for c in clique]
               + [(a, b, 1) for a, b in combinations(clique, 2)])
        start = time.perf_counter()
        assert min_vertex_cut(t, 0, 1) == frozenset({2})
        assert time.perf_counter() - start < 0.1

    def test_hitting_set_budget(self, monkeypatch):
        # six disjoint routes need a 6-cut; sizes 2 and 3 alone try
        # C(12, 2) + C(12, 3) = 286 subsets
        monkeypatch.setattr(menger, "_WORK_BUDGET", 285)
        with pytest.raises(ResourceLimitError, match="hitting-set search between 0 and 1"):
            min_vertex_cut(theta(6, 3), 0, 1)

    def test_long_theta_answers_or_refuses_quickly(self):
        t = theta(6, 20)
        assert len(t.graph.vertices) == 116
        cut = answered_or_refused(min_vertex_cut, t, 0, 1)
        assert cut is None or len(cut) == 6


class TestCutThenPaths:
    """p and c of one pair, asked as `menger` and `verify_witness` ask:
    `min_vertex_cut`, then `max_disjoint_paths`."""

    def test_gem_gap(self):
        assert p_and_c(GEM, 0, 3) == (1, 2)

    def test_two_routes_no_gap(self):
        assert p_and_c(TWO_ROUTES, 0, 3) == (2, 2)

    def test_adjacent_pair_refused_before_listing_and_packing(self, monkeypatch):
        n = 20
        big = tg([(i, (i + 1) % n, i + 1) for i in range(n)] + [(0, 10, 5)])
        listed = count_listings(monkeypatch)

        def no_packing(*args, **kwargs):
            raise AssertionError("packing searched for an adjacent pair")

        monkeypatch.setattr(menger, "_max_packing", no_packing)
        with pytest.raises(CutUndefinedError):
            p_and_c(big, 0, 1)
        assert listed == []


class TestOneListingPerQuery:
    def test_cut_then_paths_lists_once(self, monkeypatch):
        gem = TemporalGraph(GEM.graph, GEM.entries)  # no listing of earlier tests
        listed = count_listings(monkeypatch)
        assert p_and_c(gem, 0, 3) == (1, 2)
        assert [g is gem for g in listed] == [True]

    def test_counterexample_certificate_lists_once(self, monkeypatch):
        # the static graph's listings are the search's own; the labeling
        # found is listed once for both certificates
        listed = count_listings(monkeypatch)
        cx = falsify_mengerian(GEM.graph)
        assert cx is not None
        assert sum(g is cx.labeled for g in listed) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_never_stale(self, seed):
        # one graph asked about (s, t), (t, s), (s, u) and (s, t) again,
        # with the oracles in both orders, answers as a fresh graph does
        rng = random.Random(seed)
        t = TemporalGraph(GEM.graph, GEM.entries) if seed == 0 else random_temporal(rng, 7, 10)
        free = [(a, b) for a, b in permutations(sorted(t.graph.vertices), 2)
                if not t.graph.adjacent(a, b)]
        s, d = next((a, b) for a, b in free if any(x == a and y != b for x, y in free))
        u = next(y for x, y in free if x == s and y != d)
        oracles = (min_vertex_cut, max_disjoint_paths)
        for pair in ((s, d), (d, s), (s, u), (s, d)):
            for order in (oracles, oracles[::-1]):
                for oracle in order:
                    assert oracle(t, *pair) == oracle(TemporalGraph(t.graph, t.entries), *pair)

    def test_refused_listing_is_refused_again(self, monkeypatch):
        # K10 minus the edge 0-1: more than _ROUTE_CAP routes join 0 and 1
        t = tg([(a, b, 1) for a, b in combinations(range(10), 2) if (a, b) != (0, 1)])
        listed = count_listings(monkeypatch)
        for oracle in (min_vertex_cut, max_disjoint_paths, min_vertex_cut):
            with pytest.raises(ResourceLimitError, match="more than 5000 simple routes"):
                oracle(t, 0, 1)
        assert [g is t for g in listed] == [True] * 3


class TestEdgeMenger:
    def test_parallel_pair(self):
        g = mg([(0, 1), (0, 1)])
        t = TemporalGraph.make(g, {0: 1, 1: 5})
        paths, cut = edge_menger(t, 0, 1)
        assert len(paths) == 2
        assert cut == frozenset({0, 1})
        assert sorted(p.edge_ids for p in paths) == [(0,), (1,)]

    def test_line(self):
        t = tg([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        paths, cut = edge_menger(t, 0, 3)
        assert len(paths) == 1
        assert len(cut) == 1

    def test_gem(self):
        paths, cut = edge_menger(GEM, 0, 3)
        assert len(paths) == 2
        assert 3 not in brute_reachable(GEM, 0, banned_edges=cut)

    def test_unreachable(self):
        t = tg([(0, 1, 3), (1, 2, 1)])
        paths, cut = edge_menger(t, 0, 2)
        assert paths == () and cut == frozenset()

    def test_paths_edge_disjoint_and_valid(self):
        t = tg([(0, 1, 1), (0, 1, 2), (1, 2, 2), (1, 2, 3), (0, 2, 1)])
        paths, cut = edge_menger(t, 0, 2)
        assert len(paths) == 3
        used = set()
        for p in paths:
            assert (p.vertices, p.edge_ids) in brute_temporal_paths(t, 0, 2)
            assert not set(p.edge_ids) & used
            used |= set(p.edge_ids)

    def test_flow_walk_back_through_the_source_is_spliced(self, monkeypatch):
        # the unit of flow leaves 0 at label 2, comes back at 6 and takes
        # the 0-3 edge at 8; the 0-4 pair only sets the search order
        walks = []
        splice = menger._splice_walk

        def recorded(vs, es):
            walks.append((vs, es))
            return splice(vs, es)

        monkeypatch.setattr(menger, "_splice_walk", recorded)
        t = tg([(0, 2, 6), (0, 3, 8), (0, 2, 2), (0, 4, 3), (0, 4, 4)])
        paths, cut = edge_menger(t, 0, 3)
        assert walks == [([0, 2, 0, 3], [2, 0, 1])]
        assert [(p.vertices, p.edge_ids) for p in paths] == [((0, 3), (1,))]
        assert cut == frozenset({1})

    @given(st.integers(0, 300))
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        t = random_temporal(rng, rng.randint(2, 6), rng.randint(1, 9))
        vs = sorted(t.graph.vertices)
        s, d = rng.sample(vs, 2)
        paths, cut = edge_menger(t, s, d)
        assert len(paths) == brute_edge_p(t, s, d)
        assert len(cut) == brute_edge_c(t, s, d)
        brute = brute_temporal_paths(t, s, d)
        assert all((p.vertices, p.edge_ids) in brute for p in paths)

    @pytest.mark.parametrize("top", [1, 50])
    def test_large_flow_value(self, top):
        # K2,1200 between hubs 0 and 1: with every label 1, 1200 paths
        # and a cut of 1200 edges; with seeded labels in 1..top, p' = c'
        n = 1200
        g = mg([(hub, m) for hub in (0, 1) for m in range(2, n + 2)])
        rng = random.Random(5)
        t = TemporalGraph.make(g, {e.id: rng.randint(1, top) for e in g.edges})
        start = time.perf_counter()
        paths, cut = edge_menger(t, 0, 1)
        assert time.perf_counter() - start < 2.0
        assert len(paths) == len(cut)
        if top == 1:
            assert len(paths) == n


def column_labelings(chunks):
    """The labelings of (count, columns) chunks, one label tuple each."""
    return [tuple(column[k] for column in columns)
            for count, columns in chunks for k in range(count)]


def naive_search_all_labelings(g):
    """Try every labeling with labels in [1, m] outright.

    Independent of the rank-sequence enumeration: if restricting to
    dense ranks ever missed a gap, this would find it on small inputs.
    """
    vs = sorted(g.vertices)
    ids = sorted(e.id for e in g.edges)
    pairs = [(s, t) for s in vs for t in vs
             if s != t and not g.adjacent(s, t)]
    for labels in product(range(1, len(ids) + 1), repeat=len(ids)):
        t = TemporalGraph.make(g, dict(zip(ids, labels)))
        for s, d in pairs:
            try:
                cut = min_vertex_cut(t, s, d)
            except CutUndefinedError:  # pragma: no cover
                continue
            if len(cut) <= 1:
                continue
            if len(max_disjoint_paths(t, s, d)) < len(cut):
                return t, s, d
    return None


def assert_agrees_with_naive_search(g):
    """falsify_mengerian finds a gap on g exactly when the naive search
    does, and a gap it finds checks out."""
    ours = falsify_mengerian(g)
    if naive_search_all_labelings(g) is None:
        assert ours is None
    else:
        assert ours is not None
        p, c = p_and_c(ours.labeled, ours.s, ours.t)
        assert p < c


def count_decisions(monkeypatch):
    """From now on, the interiors of every family falsify decides, one entry per decision."""
    decided = []
    hitting = menger._min_hitting

    def counted(masks, vertices, s, t):
        decided.append(list(masks))
        return hitting(masks, vertices, s, t)

    monkeypatch.setattr(menger, "_min_hitting", counted)
    return decided


class TestFalsify:
    def test_path_is_mengerian(self):
        assert falsify_mengerian(mg([(0, 1), (1, 2)])) is None

    def test_doubled_triangle_is_mengerian(self):
        assert falsify_mengerian(mg([(0, 1), (0, 1), (1, 2), (0, 2)])) is None

    def test_gem_found_exhaustively(self):
        cx = falsify_mengerian(GEM.graph)
        assert cx is not None
        assert p_and_c(cx.labeled, cx.s, cx.t) == (len(cx.paths), len(cx.cut))
        assert len(cx.paths) < len(cx.cut)
        assert not cx.labeled.graph.adjacent(cx.s, cx.t)
        assert cx.labeled.graph == GEM.graph

    def test_witness_claims_check_out(self):
        cx = falsify_mengerian(GEM.graph)
        brute = brute_temporal_paths(cx.labeled, cx.s, cx.t)
        for p in cx.paths:
            assert (p.vertices, p.edge_ids) in brute
        assert cx.t not in brute_reachable(cx.labeled, cx.s,
                                           banned_vertices=cx.cut)

    def test_gem_found_by_sampling(self):
        cx = falsify_mengerian(GEM.graph, samples=3000, seed=7)
        assert cx is not None
        assert len(cx.paths) < len(cx.cut)

    def test_sampling_deterministic(self):
        a = falsify_mengerian(GEM.graph, samples=500, seed=3)
        b = falsify_mengerian(GEM.graph, samples=500, seed=3)
        if a is None:
            assert b is None
        else:
            assert (a.s, a.t) == (b.s, b.t)
            assert a.labeled.times == b.labeled.times

    def test_edge_budget_guard(self):
        # the work budget bounds the weak orders of the blocks searched:
        # an 8-edge path has no block holding a non-adjacent pair, an
        # 8-cycle's 545835 fit, a 9-cycle's 7087261 do not; a 2000-cycle
        # is refused before its two million non-adjacent pairs are listed
        path = mg([(i, i + 1) for i in range(8)])
        assert falsify_mengerian(path) is None
        assert falsify_mengerian(mg([(i, (i + 1) % 8) for i in range(8)])) is None
        for n in (9, 2000):
            cycle = mg([(i, (i + 1) % n) for i in range(n)])
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match="at least 7087261 labelings, past "
                                                         "the work budget of 1048576"):
                falsify_mengerian(cycle)
            assert time.perf_counter() - start < 0.1

    def test_edge_budget_weighs_every_block(self):
        # two 8-cycles sharing a vertex weigh 2 * 545835 labelings, past
        # the budget although each block alone fits, and are refused
        # before any search; an 8-cycle and a 4-cycle weigh 545910
        def cycle(first, n):
            return [(first + i, first + (i + 1) % n) for i in range(n)]

        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="over 2 blocks of 16 edges would try at "
                                                     "least 1091670 labelings, past the work "
                                                     "budget of 1048576"):
            falsify_mengerian(mg(cycle(0, 8) + cycle(7, 8)))
        assert time.perf_counter() - start < 0.1
        assert falsify_mengerian(mg(cycle(0, 8) + cycle(7, 4))) is None

    def test_sampled_budget_guard(self):
        # sampling weighs its ordered pairs, each times the edges of its
        # block, before it lists a route: a 200-cycle has 39400 ordered
        # non-adjacent pairs on 200 edges
        cycle = mg([(i, (i + 1) % 200) for i in range(200)])
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="weighing 7880000 .* past the work "
                                                     "budget of 1048576"):
            falsify_mengerian(cycle, samples=1)
        assert time.perf_counter() - start < 0.1

    def test_sample_count_guard(self):
        # sampling draws at most the labelings an exhaustive search may
        # try, and a larger count is refused before anything is drawn,
        # even where no pair would be tested
        path = mg([(i, i + 1) for i in range(8)])
        assert falsify_mengerian(path, samples=menger._WORK_BUDGET) is None
        cycle = mg([(i, (i + 1) % 4) for i in range(4)])
        for g in (path, cycle):
            for samples in (menger._WORK_BUDGET + 1, 10 ** 20):
                start = time.perf_counter()
                with pytest.raises(ResourceLimitError, match=f"of {samples} labelings is past "
                                                             "the work budget of 1048576"):
                    falsify_mengerian(g, samples=samples)
                assert time.perf_counter() - start < 0.1

    def test_doubled_path_has_no_pair_to_test(self):
        # every non-adjacent pair is split by a cut vertex, so c <= 1
        g = mg([(i, i + 1) for i in range(6) for _ in range(2)])
        start = time.perf_counter()
        assert falsify_mengerian(g) is None
        assert time.perf_counter() - start < 1.0

    def test_gem_block_with_pendant_path(self):
        # pairs reaching into the pendant path are skipped, and its edges
        # get no rank: they keep label 1, as in the exhaustive search
        g = mg([e.pair for e in GEM.graph.edges] + [(3, 5), (5, 6)])
        cx = falsify_mengerian(g, samples=3000, seed=7)
        assert cx is not None and (cx.s, cx.t) == (0, 3)
        assert [cx.labeled.label(i) for i in range(9)] == [1, 6, 7, 6, 4, 6, 4, 1, 1]
        assert cx.cut == frozenset({1, 2}) and len(cx.paths) == 1
        assert p_and_c(cx.labeled, cx.s, cx.t) == (1, 2)

    def test_long_pendant_path_costs_nothing(self):
        # a 4-cycle with a 2000-edge pendant path: only the 4 cycle edges
        # are ranked, so no label is drawn for the path
        g = mg([(0, 1), (1, 2), (2, 3), (3, 0)] + [(3 + i, 4 + i) for i in range(2000)])
        start = time.perf_counter()
        assert falsify_mengerian(g, samples=2000) is None
        assert time.perf_counter() - start < 0.5

    def test_hundred_cycle_lists_each_source_once(self):
        # 9900 ordered pairs, but one walk per source lists all of them
        cycle = mg([(i, (i + 1) % 100) for i in range(100)])
        start = time.perf_counter()
        assert falsify_mengerian(cycle, samples=1) is None
        assert time.perf_counter() - start < 1.0

    def test_unsearched_block_is_not_walked(self):
        # a 4-cycle sharing vertex 0 with a K11: only the 4-cycle holds a
        # non-adjacent pair, and its routes never enter the K11, whose
        # simple paths would run past the work budget
        k11 = list(combinations([0] + list(range(4, 14)), 2))
        g = mg([(0, 1), (1, 2), (2, 3), (3, 0)] + k11)
        for samples in (None, 2000):
            start = time.perf_counter()
            assert falsify_mengerian(g, samples=samples) is None
            assert time.perf_counter() - start < 0.5

    def test_route_walk_refusal_names_its_source(self, monkeypatch):
        # K5 minus the edge 0-1 weighs 2 * 1 * 9 = 18 against a budget of
        # 20, but the simple paths from 0 take more than 20 pushes
        g = mg([pair for pair in combinations(range(5), 2) if pair != (0, 1)])
        monkeypatch.setattr(menger, "_WORK_BUDGET", 20)
        with pytest.raises(ResourceLimitError, match="^the route search from 0 exceeds the "
                                                     "work budget of 20 steps$") as refused:
            falsify_mengerian(g, samples=1)
        assert refused.value.ends == {"s": 0}

    def test_gem_block_with_pendant_path_exhaustive(self):
        # only the gem block's seven edges get ranks; the pendant edges
        # keep one label, so nine edges cost no more than seven
        g = mg([e.pair for e in GEM.graph.edges] + [(3, 5), (5, 6)])
        start = time.perf_counter()
        cx = falsify_mengerian(g)
        assert time.perf_counter() - start < 1.0
        assert cx is not None and cx.s < cx.t
        assert cx.labeled.graph == g
        assert p_and_c(cx.labeled, cx.s, cx.t) == (len(cx.paths), len(cx.cut))
        assert len(cx.cut) - len(cx.paths) == 1

    def test_gem_block_between_cycles_exhaustive(self):
        # blocks in order: a 4-cycle, the gem (shifted by one), a 4-cycle;
        # each block's weak orders are searched, not only the first's
        gem = [(a + 1, b + 1) for a, b in (e.pair for e in GEM.graph.edges)]
        g = mg([(0, 1), (1, 6), (6, 7), (7, 0)] + gem
               + [(5, 8), (8, 9), (9, 10), (10, 5)])
        cx = falsify_mengerian(g)
        assert cx is not None and 1 <= cx.s < cx.t <= 5
        p, c = p_and_c(cx.labeled, cx.s, cx.t)
        assert c - p == 1
        no_gem = mg([(0, 1), (1, 6), (6, 7), (7, 0), (1, 2), (2, 3), (3, 4), (4, 1)])
        assert falsify_mengerian(no_gem) is None

    def test_memo_cap_changes_no_result(self, monkeypatch):
        # a cap of 0 remembers nothing, so every kept set is decided again;
        # a cap of 3 fills both memos early in the run
        g = mg([e.pair for e in GEM.graph.edges] + [(3, 5), (5, 6)])
        runs = [(g, None, 0), (g, 3000, 7), (g, 500, 3), (doubled_k2n(4), 2000, 0)]
        decisions = count_decisions(monkeypatch)
        remembered = [falsify_mengerian(g, samples=n, seed=seed) for g, n, seed in runs]
        made = {"default": len(decisions)}
        for cap in (3, 0):
            monkeypatch.setattr(menger, "_MEMO_CAP", cap)
            before = len(decisions)
            for (g, n, seed), cx in zip(runs, remembered):
                fresh = falsify_mengerian(g, samples=n, seed=seed)
                assert (fresh is None) == (cx is None)
                if cx is not None:
                    assert (fresh.s, fresh.t, fresh.labeled) == (cx.s, cx.t, cx.labeled)
            made[cap] = len(decisions) - before
        assert made["default"] < made[3] < made[0]

    def test_each_minimal_family_is_decided_once(self, monkeypatch):
        # doubled-side K2,4 has no gap, so every family decided is
        # remembered: no family is decided twice, for one pair or across
        # pairs, and no interior decided holds another
        decisions = count_decisions(monkeypatch)
        assert falsify_mengerian(doubled_k2n(4), samples=4000, seed=1) is None
        assert len({frozenset(masks) for masks in decisions}) == len(decisions)
        for masks in decisions:
            assert not any(a & b == a for a, b in permutations(masks, 2))

    def test_chunk_size_changes_no_result(self, monkeypatch):
        fan = mg([(0, 1), (1, 2), (2, 3), (3, 5)] + [(4, v) for v in (0, 1, 2, 3, 5)])
        runs = [
            (GEM.graph, None, 0),
            # the first gap lies past labeling 2048, in a later chunk of
            # 9 * 2048 labels over F1's 9 edges
            (PATTERNS[0].graph, 20000, 0),
            # (0, 3) and (0, 5) both gap on the first gap labeling
            (fan, 3000, 1),
        ]
        results = {}
        for labels in (menger._CHUNK_LABELS, 1, 27, 9 * 2048):
            monkeypatch.setattr(menger, "_CHUNK_LABELS", labels)
            results[labels] = [falsify_mengerian(g, samples=n, seed=seed)
                               for g, n, seed in runs]
        for got in results.values():
            assert [(cx.s, cx.t, cx.labeled) for cx in got] == \
                [(cx.s, cx.t, cx.labeled) for cx in results[1]]
        fan_cx = results[1][2]
        gapping = []
        for pair in permutations(sorted(fan.vertices), 2):
            if not fan.adjacent(*pair):
                p, c = p_and_c(fan_cx.labeled, *pair)
                if p < c:
                    gapping.append(pair)
        # ties on one labeling go to the first pair in sorted order
        assert (fan_cx.s, fan_cx.t) == gapping[0] == (0, 3) and len(gapping) >= 2

    def test_labels_above_255(self):
        # the gem with its pair 1-2 repeated 300 times ranks 306 edges,
        # and their labels are drawn in 1..255, not 1..306: the labeling
        # is a row of the reference stream over 255 levels
        g = mg([e.pair for e in GEM.graph.edges] + [(1, 2)] * 299)
        cx = falsify_mengerian(g, samples=2000, seed=0)
        assert cx is not None and (cx.s, cx.t) == (0, 3)
        labels = tuple(cx.labeled.label(i) for i in range(306))
        assert labels[:7] == (84, 115, 247, 229, 102, 242, 223)
        assert max(labels) == 255
        assert labels in sampled_labelings(0, 306, 2000)
        assert [p.vertices for p in cx.paths] == [(0, 1, 2, 3)]
        assert cx.cut == frozenset({1, 2})

    def test_many_edges_come_in_smaller_chunks(self, monkeypatch):
        # the gem with its pair 1-2 repeated 1000 times ranks 1006 edges:
        # a chunk of 2048 labelings would hold two million labels, all
        # drawn before the first is tested
        labels = []
        planes = menger._hop_planes

        def counting(hops, columns, top):
            labels.append(sum(map(len, columns.values())))
            return planes(hops, columns, top)

        monkeypatch.setattr(menger, "_hop_planes", counting)
        g = mg([e.pair for e in GEM.graph.edges] + [(1, 2)] * 999)
        cx = falsify_mengerian(g, samples=2000, seed=0)
        assert cx is not None
        p, c = p_and_c(cx.labeled, cx.s, cx.t)
        assert c - p == 1
        assert labels and max(labels) <= menger._CHUNK_LABELS

    @pytest.mark.parametrize("m", range(7))
    def test_rank_assignments_list_each_weak_order_once(self, m):
        listed = column_labelings(_weak_order_columns(m, 2048))
        dense = [r for r in product(range(1, m + 1), repeat=m)
                 if set(r) == set(range(1, max(r, default=0) + 1))]
        assert sorted(listed) == sorted(dense)
        assert len(set(listed)) == len(listed) == [1, 1, 3, 13, 75, 541, 4683][m]
        # the count the exhaustive guard weighs against the work budget
        assert _weak_orders(m) == len(listed)
        # closed under reversal, so one orientation per pair suffices
        assert {tuple(max(r) + 1 - x for x in r) for r in listed if r} == set(listed) - {()}

    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("step", [1, 7, 2048])
    def test_weak_order_columns_follow_the_reference_order(self, m, step):
        # the first counterexample is the first in this order, and every
        # chunk but the last holds exactly step labelings
        chunks = list(_weak_order_columns(m, step))
        assert all(count == step for count, _ in chunks[:-1])
        assert all(len(column) == count for count, columns in chunks for column in columns)
        assert column_labelings(chunks) == list(rank_assignments(m))

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 12, 255, 256, 257, 1007])
    @pytest.mark.parametrize("step", [1, 7, None])
    def test_sampled_columns_follow_the_reference_stream(self, m, step):
        # the bulk draw keeps exactly the labels drawing each alone in
        # 1..min(m, 255) would keep, in the same order (1 edge still
        # rejects half its words), and every chunk but the last holds
        # exactly step labelings
        step = step or max(1, menger._CHUNK_LABELS // m)
        samples = 2 * step + 3
        for seed in (0, 5, 37):
            chunks = list(_sampled_columns(random.Random(seed), m, samples, step))
            assert all(count == step for count, _ in chunks[:-1])
            assert sum(count for count, _ in chunks) == samples
            assert all(len(column) == count for count, columns in chunks for column in columns)
            assert column_labelings(chunks) == sampled_labelings(seed, m, samples)

    def test_weak_order_counts_of_larger_blocks(self):
        # 8 edges fit the work budget of 2^20 labelings, 9 do not; past
        # the budget counting stops, so a long block is weighed at once
        assert [_weak_orders(m) for m in (7, 8, 9)] == [47293, 545835, 7087261]
        start = time.perf_counter()
        assert _weak_orders(3000) > menger._WORK_BUDGET
        assert time.perf_counter() - start < 0.1

    @given(st.integers(0, 60))
    def test_agrees_with_naive_search(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(3, 5), rng.randint(2, 4)
        assert_agrees_with_naive_search(random_multigraph(n, m, m, rng))

    @pytest.mark.parametrize("shuffle", [None, 1])
    def test_agrees_with_naive_search_on_the_gem(self, shuffle):
        # graphs of at most 4 edges have no gap; the gem, with its vertex
        # ids as built or permuted (seed 1 puts the apex at 1), has one
        g = PATTERNS[2].graph
        if shuffle is not None:
            vs = sorted(g.vertices)
            ids = vs[:]
            random.Random(shuffle).shuffle(ids)
            g = Multigraph.build(vs, [(ids[e.u], ids[e.v]) for e in g.edges])
        assert_agrees_with_naive_search(g)
