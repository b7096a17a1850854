"""Pattern constants, embedding verification, gem search, assemblers."""

import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from mengerian.cli import random_multigraph
from mengerian.multigraph import (
    Edge,
    InternalError,
    Multigraph,
    identify,
    m_subdivide,
    maximal_chains,
)
from mengerian.menger import max_disjoint_paths, min_vertex_cut
from mengerian.patterns import (
    F1,
    F2,
    F3,
    PATTERNS,
    AssemblyError,
    MEmbedding,
    _gem_routes,
    assemble_f1,
    assemble_f2,
    check_m_subdivision,
    find_f3_subdivision,
)
from mengerian.recognizer import recognize
from mengerian.temporal import TemporalGraph

from helpers import mg, small_multigraphs
import oracles
from oracles import brute_c, brute_m_minor, brute_p


def identity_embedding(pattern):
    routes = {}
    hops = {}
    for e in pattern.graph.edges:
        routes[e.pair] = e.pair
        hops[e.pair] = (pattern.graph.parallel_edges(*e.pair),)
    return MEmbedding(
        pattern=pattern,
        branch={v: v for v in pattern.graph.vertices},
        routes=routes,
        hop_edges=hops,
    )


class TestPatternConstants:
    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_path_cut_gap(self, pat):
        t = TemporalGraph.make(pat.graph, dict(pat.labels))
        assert len(max_disjoint_paths(t, pat.source, pat.target)) == 1
        assert len(min_vertex_cut(t, pat.source, pat.target)) == 2

    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_gap_confirmed_by_brute(self, pat):
        t = TemporalGraph.make(pat.graph, dict(pat.labels))
        assert brute_p(t, pat.source, pat.target) == 1
        assert brute_c(t, pat.source, pat.target) == 2

    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_terminals_non_adjacent(self, pat):
        assert not pat.graph.adjacent(pat.source, pat.target)

    def test_shapes(self):
        assert len(F1.graph.edges) == len(F2.graph.edges) == 9
        assert len(F3.graph.edges) == 7
        for pat in (F1, F2):
            doubled = [e.pair for e in pat.graph.edges
                       if pat.graph.multiplicity(*e.pair) == 2]
            assert set(doubled) == {(3, 4)}
        assert not F3.graph.has_parallel_edges()

    def test_f1_f2_differ(self):
        pairs1 = sorted(e.pair for e in F1.graph.edges)
        pairs2 = sorted(e.pair for e in F2.graph.edges)
        assert pairs1 != pairs2

    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_reference_labels_cover_edges(self, pat):
        assert sorted(e for e, _ in pat.labels) == sorted(
            e.id for e in pat.graph.edges)


class TestCheckMSubdivision:
    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_identity(self, pat):
        assert check_m_subdivision(pat.graph, identity_embedding(pat)) is None

    def test_subdivided_route(self):
        from mengerian.multigraph import m_subdivide
        host, z = m_subdivide(F3.graph, 0, 1)
        emb = identity_embedding(F3)
        assert check_m_subdivision(host, emb) is not None  # old direct edge is gone
        emb.routes[(0, 1)] = (0, z, 1)
        emb.hop_edges[(0, 1)] = tuple(
            (host.parallel_edges(x, y)[0],) for x, y in ((0, z), (z, 1)))
        assert check_m_subdivision(host, emb) is None

    def test_doubled_pair_needs_both_parallels(self):
        emb = identity_embedding(F1)
        emb.hop_edges[(3, 4)] = ((F1.graph.parallel_edges(3, 4)[0],),)
        reason = check_m_subdivision(F1.graph, emb)
        assert reason is not None and "exactly 2" in reason

    @pytest.mark.parametrize("pattern, pair", [(F3, (0, 1)), (F1, (3, 4))], ids=["F3", "F1"])
    def test_hop_must_carry_its_pairs_lowest_id_edges(self, pattern, pair):
        # a parallel edge that joins the hop's ends as well as the
        # lowest-id one does is refused, with its hop named
        extra = len(pattern.graph.edges)
        host = Multigraph(pattern.graph.vertices, pattern.graph.edges + (Edge(extra, *pair),))
        emb = identity_embedding(pattern)
        ids = host.parallel_edges(*pair)
        emb.hop_edges[pair] = (ids[:-2] + ids[-1:],)
        assert oracles.check_m_subdivision(host, emb) is None
        mu = pattern.graph.multiplicity(*pair)
        assert check_m_subdivision(host, emb) == (
            f"hop {pair[0]},{pair[1]} of {pair} must carry exactly {mu} edges: "
            "its pair's lowest-id ones")
        emb.hop_edges[pair] = (ids[:-1],)
        assert check_m_subdivision(host, emb) is None

    def test_non_injective_branch(self):
        emb = identity_embedding(F3)
        emb.branch[0] = emb.branch[1]
        assert "injective" in check_m_subdivision(F3.graph, emb)

    def test_route_through_branch_vertex(self):
        # route the outer 0-1 hop through the apex
        host = F3.graph
        emb = identity_embedding(F3)
        emb.routes[(0, 1)] = (0, 4, 1)
        emb.hop_edges[(0, 1)] = (
            (host.parallel_edges(0, 4)[0],),
            (host.parallel_edges(1, 4)[0],),
        )
        reason = check_m_subdivision(host, emb)
        assert reason is not None

    def test_wrong_endpoint_edge(self):
        host = mg([(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
        emb = identity_embedding(F3)
        emb.hop_edges[(0, 4)] = ((4,),)  # edge 4 joins 4 and 1, not 4 and 0
        assert check_m_subdivision(host, emb) is not None

    def test_missing_pair(self):
        emb = identity_embedding(F3)
        del emb.routes[(2, 3)]
        assert "pattern has" in check_m_subdivision(F3.graph, emb)

    @pytest.mark.parametrize("fault, reason", [
        (lambda emb: emb.hop_edges.pop((2, 3)),
         "hop edge selections do not cover the pattern pairs"),
        (lambda emb: emb.branch.pop(4), "branch map does not cover the pattern vertices"),
        (lambda emb: emb.branch.update({4: 9}), "branch image 9 is not a host vertex"),
        (lambda emb: emb.routes.update({(0, 1): (0,)}), "route for (0, 1) is malformed"),
        (lambda emb: emb.routes.update({(0, 1): (1, 0)}),
         "route for (0, 1) does not join its branch vertices"),
        (lambda emb: (emb.routes.update({(0, 1): (0, 1, 0, 1)}),
                      emb.hop_edges.update({(0, 1): ((0,), (0,), (0,))})),
         "route for (0, 1) repeats a vertex"),
    ], ids=["hops", "branch-map", "branch-image", "malformed", "unjoined", "repeated"])
    def test_each_fault_is_named(self, fault, reason):
        emb = identity_embedding(F3)
        fault(emb)
        assert check_m_subdivision(F3.graph, emb) == reason


def corrupted(pattern, seed, kind):
    """A subdivided copy of the pattern and its embedding, with one fault of
    the given kind (None and "parallel": none, by the definition; a
    "parallel" hop does not carry its pair's lowest-id edges)."""
    rng = random.Random(seed)
    host = pattern.graph
    for _ in range(rng.randrange(1, 6)):
        host, _ = m_subdivide(host, *rng.choice(host.edges).pair)
    emb = recognize(host).embedding
    assert emb.pattern is pattern and check_m_subdivision(host, emb) is None
    keys = sorted(emb.routes)
    hops = {key: [list(hop) for hop in emb.hop_edges[key]] for key in keys}
    ids = sorted(e.id for e in host.edges)
    key = rng.choice(keys)
    i = rng.randrange(len(hops[key]))
    j = rng.randrange(len(hops[key][i]))
    if kind == "parallel":
        # no fault: one hop takes a new parallel edge, not its pair's lowest id
        x, y = emb.routes[key][i:i + 2]
        host = Multigraph(host.vertices, host.edges + (Edge(ids[-1] + 1, x, y),))
        hops[key][i][j] = ids[-1] + 1
    elif kind == "swap":
        hops[key][i][j] = rng.choice([eid for eid in ids if eid != hops[key][i][j]])
    elif kind == "unknown":
        hops[key][i][j] = ids[-1] + 1
    elif kind == "repeat":
        other = rng.choice([k for k in keys if k != key])
        hops[key][i][j] = rng.choice(rng.choice(hops[other]))
    elif kind == "doubled":
        doubled = [(k, h) for k in keys for h, hop in enumerate(hops[k]) if len(hop) > 1]
        key, i = rng.choice(doubled or [(key, i)])
        if rng.random() < 0.5:
            dropped = hops[key][i].pop(rng.randrange(len(hops[key][i])))
            if rng.random() < 0.5:  # from the host too: the hop keeps its pair's whole class
                host = Multigraph(host.vertices, tuple(e for e in host.edges if e.id != dropped))
        else:
            hops[key][i].append(rng.choice(ids))
    elif kind in ("branch", "shared"):
        # reroute one interior vertex's two hops, by fresh edges as many as
        # the pattern pair's multiplicity, through a branch vertex or
        # through another route's interior; each hop carries its pair's
        # lowest-id edges, which are fresh unless the pair was adjacent
        key = rng.choice([k for k in keys if len(emb.routes[k]) > 2])
        route = list(emb.routes[key])
        i = rng.randrange(1, len(route) - 1)
        elsewhere = set(emb.branch.values())
        if kind == "shared":
            # a branch vertex still, when no other route has an interior
            elsewhere = {v for k in keys if k != key for v in emb.routes[k][1:-1]} or elsewhere
        w = rng.choice(sorted(elsewhere - set(route)))
        mu = len(hops[key][i])
        fresh = [[ids[-1] + 1 + k for k in range(mu)], [ids[-1] + 1 + mu + k for k in range(mu)]]
        host = Multigraph(host.vertices, host.edges
                          + tuple(Edge(eid, route[i - 1], w) for eid in fresh[0])
                          + tuple(Edge(eid, w, route[i + 1]) for eid in fresh[1]))
        route[i] = w
        emb.routes[key] = tuple(route)
        hops[key][i - 1:i + 1] = [host.parallel_edges(route[i - 1], w)[:mu],
                                  host.parallel_edges(w, route[i + 1])[:mu]]
    emb.hop_edges = {k: tuple(map(tuple, hops[k])) for k in keys}
    return host, emb


def heavy_hops(host, emb):
    """The faults of the hops, in pattern pair order, that do not carry
    exactly their pair's lowest-id edges, as `check_m_subdivision` words
    them."""
    mult = emb.pattern.pairs
    return [f"hop {x},{y} of {key} must carry exactly {mult[key]} edges: "
            "its pair's lowest-id ones"
            for key in sorted(emb.routes)
            for x, y, ids in zip(emb.routes[key], emb.routes[key][1:], emb.hop_edges[key])
            if tuple(ids) != host.parallel_edges(x, y)[:mult[key]] or len(ids) != mult[key]]


class TestCheckNamesFirstFault:
    """The one-pass check against the hop-by-hop walk, which takes any
    parallel edges on a hop: it accepts what the walk accepts when every
    hop carries its pair's lowest-id edges, names a faulty hop first, and
    otherwise names the walk's route-level fault."""

    @given(st.sampled_from(PATTERNS), st.integers(0, 10_000),
           st.sampled_from([None, "parallel", "swap", "unknown", "repeat", "doubled", "branch",
                            "shared"]))
    def test_same_message_as_hop_walk(self, pattern, seed, kind):
        host, emb = corrupted(pattern, seed, kind)
        reason = oracles.check_m_subdivision(host, emb)
        assert (reason is None) == (kind in (None, "parallel"))
        heavy = heavy_hops(host, emb)
        # one hop is corrupted, or none is: a rerouted hop takes its pair's lowest ids
        assert len(heavy) == (kind not in (None, "branch", "shared"))
        ours = check_m_subdivision(host, emb)
        assert (ours is None) == (reason is None and not heavy)
        if heavy:
            assert ours == heavy[0]
        elif reason is not None and reason.endswith("is used twice"):
            # a rerouted hop's lowest-id edge is another route's: the walk
            # meets it before the interiors that share it
            assert re.fullmatch(r"route for \(\d, \d\) (passes through a branch vertex"
                                r"|shares interior vertices)", ours)
        else:
            assert ours == reason


WHEEL = mg([(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])


class TestGemSearch:
    def test_finds_itself(self):
        emb = find_f3_subdivision(F3.graph)
        assert emb is not None
        assert emb.pattern is F3
        assert check_m_subdivision(F3.graph, emb) is None

    def test_wheel_contains_gem(self):
        emb = find_f3_subdivision(WHEEL)
        assert emb is not None
        assert emb.branch[4] == 4

    def test_subdivided_gem(self):
        from mengerian.multigraph import m_subdivide
        host = F3.graph
        for pair in [(0, 1), (4, 2)]:
            host, _ = m_subdivide(host, *pair)
        emb = find_f3_subdivision(host)
        assert emb is not None
        # only the apex is forced: degree-2 branch vertices can shift
        # onto subdividing vertices
        assert emb.branch[4] == 4

    def test_apex_restriction(self):
        assert find_f3_subdivision(WHEEL, apex=4) is not None
        assert find_f3_subdivision(WHEEL, apex=0) is None

    @pytest.mark.parametrize("spine, legs", [
        ([0, 2, 1, 3], [(0, 4), (2, 4), (1, 4), (3, 4)]),  # hop 0-2 is no edge
        ([0, 1, 2, 3], [(0, 4), (1, 2, 4), (2, 4), (3, 4)]),  # a leg through a tooth
        ([0, 1, 0, 3], [(0, 4), (1, 4), (0, 4), (3, 4)]),  # a tooth twice
    ], ids=["no-edge", "through-a-tooth", "tooth-twice"])
    def test_bad_gem_is_refused_before_use(self, spine, legs):
        # the routes a pinned search returns are checked on the adjacency
        # alone, with no hop edges to check them by
        assert _gem_routes(WHEEL._adj, 4, [0, 1, 2, 3], [(t, 4) for t in range(4)])
        with pytest.raises(InternalError, match="bad embedding"):
            _gem_routes(WHEEL._adj, 4, spine, legs)

    def test_none_in_small_graphs(self):
        assert find_f3_subdivision(mg([(0, 1), (1, 2), (2, 3)])) is None
        k4 = mg([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert find_f3_subdivision(k4) is None  # max degree 3
        cycle = mg([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_f3_subdivision(cycle) is None

    def test_parallel_edges_do_not_help(self):
        # doubling edges never raises simple degrees
        doubled = mg([(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
        assert find_f3_subdivision(doubled) is None

    @given(st.integers(0, 80), st.booleans())
    def test_agrees_with_brute(self, seed, tail):
        rng = random.Random(seed)
        n, m = rng.randint(5, 7), rng.randint(6, 11)
        g = random_multigraph(n, m, m, rng)
        host = with_tail(g) if tail else g
        ours = find_f3_subdivision(host)
        if ours is not None:
            assert check_m_subdivision(host, ours) is None
        assert (ours is not None) == brute_m_minor(g, F3)

    @given(st.integers(0, 80), st.booleans())
    def test_pinned_agrees_with_brute(self, seed, tail):
        # the recognizer's use: apex pinned to a contracted chain
        rng = random.Random(seed)
        n, m = rng.randint(6, 9), rng.randint(9, 15)
        g = random_multigraph(n, m, m, rng)
        for chain in maximal_chains(g):
            g_l, ell = identify(g, chain.vertices)
            host = with_tail(g_l) if tail else g_l
            ours = find_f3_subdivision(host, apex=ell)
            if ours is not None:
                assert ours.branch[4] == ell
                assert check_m_subdivision(host, ours) is None
            assert (ours is not None) == brute_m_minor(g_l, F3, pin={4: ell})

    @given(small_multigraphs(max_n=12, max_m=30), st.data())
    def test_host_and_underlying_simple_agree(self, g, data):
        # the search reads the host's distinct neighbours, and each hop
        # takes its lowest id, the edge the underlying simple graph keeps
        simple = g.underlying_simple()
        assert find_f3_subdivision(g) == find_f3_subdivision(simple)
        apex = data.draw(st.sampled_from(sorted(g.vertices)))
        assert find_f3_subdivision(g, apex=apex) == find_f3_subdivision(simple, apex=apex)

    def test_every_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            slots = list(combinations(range(n), 2))
            for mask in range(1 << len(slots)):
                pairs = [p for i, p in enumerate(slots) if mask >> i & 1]
                g = Multigraph.build(n, pairs)
                ours = find_f3_subdivision(g)
                if ours is not None:
                    assert check_m_subdivision(g, ours) is None
                assert (ours is not None) == brute_m_minor(g, F3), pairs

    @pytest.mark.parametrize("spokes", [(1, 2, 3, 4), (1, 2, 3, 4, 5)], ids=["deg4", "deg5"])
    def test_every_six_vertex_graph_pinned(self, spokes):
        # every 6-vertex graph whose vertex 0 has degree 4 or more is a
        # relabeling of 1..5 away from one of these
        rim = list(combinations(range(1, 6), 2))
        for mask in range(1 << len(rim)):
            pairs = [(0, x) for x in spokes] + [p for i, p in enumerate(rim) if mask >> i & 1]
            g = Multigraph.build(6, pairs)
            ours = find_f3_subdivision(g, apex=0)
            if ours is not None:
                assert ours.branch[4] == 0
                assert check_m_subdivision(g, ours) is None
            assert (ours is not None) == brute_m_minor(g, F3, pin={4: 0}), pairs

    def test_nineteen_vertex_host_fast(self):
        # linear work per apex takes well under a millisecond here; a
        # search that tries corner choices one by one takes tenths of a second
        host = Multigraph.build(19, [
            (14, 17), (16, 18), (5, 6), (15, 16), (3, 5), (9, 14), (2, 4), (1, 17),
            (12, 14), (0, 5), (2, 16), (6, 7), (0, 14), (10, 14), (6, 18), (7, 16),
            (9, 15), (0, 2), (8, 14), (13, 17), (2, 8), (7, 10), (9, 16), (0, 2),
            (3, 18), (3, 12), (9, 12), (0, 2), (0, 6), (1, 6), (12, 15), (12, 13)])
        start = time.perf_counter()
        emb = find_f3_subdivision(host)
        assert time.perf_counter() - start < 0.05
        assert emb is not None and check_m_subdivision(host, emb) is None

    @staticmethod
    def big_wheel_host():
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0),
                 (4, 0), (4, 1), (4, 2), (4, 3)]
        pairs += [(v, v + 1) for v in range(5, 25)]
        pairs.append((0, 5))
        return mg(pairs)

    def test_large_host_deterministic(self):
        host = self.big_wheel_host()
        first = find_f3_subdivision(host)
        second = find_f3_subdivision(host)
        assert first.branch == second.branch
        assert first.routes == second.routes

    def test_large_host_absence(self):
        cycle = mg([(v, (v + 1) % 30) for v in range(30)])
        assert find_f3_subdivision(cycle) is None


def with_tail(g, length=20):
    """g with a path of `length` new vertices hanging off its smallest
    vertex.  The new edges are bridges, which no gem can use, so the
    answer must not change."""
    first = max(g.vertices) + 1
    tail = list(range(first, first + length))
    pairs = [e.pair for e in g.edges] + list(zip([min(g.vertices)] + tail, tail))
    return Multigraph.build(sorted(g.vertices) + tail, pairs)


def chain_of(g):
    chains = maximal_chains(g)
    assert len(chains) == 1
    return chains[0]


class TestAssembleF1:
    # doubled chain 0-1-2, crossing paths 0-3-4-2 and 0-5-6-2, joint 4-6
    HOST = mg([
        (0, 1), (0, 1), (1, 2), (1, 2),
        (0, 3), (3, 4), (4, 2),
        (0, 5), (5, 6), (6, 2),
        (4, 6),
    ])

    def test_basic(self):
        emb = assemble_f1(self.HOST, chain_of(self.HOST),
                          (0, 3, 4, 2), (0, 5, 6, 2), 4, 6, (4, 6))
        assert emb.pattern is F1
        assert check_m_subdivision(self.HOST, emb) is None
        assert emb.branch[3] == 0 and emb.branch[4] == 2
        assert emb.branch[0] == 3 and emb.branch[5] == 5

    @pytest.mark.parametrize("flip1", [False, True])
    @pytest.mark.parametrize("flip2", [False, True])
    def test_either_direction_of_each_path(self, flip1, flip2):
        # the recognizer hands over its crossing paths in whichever
        # direction it read them off the gem
        c1, c2 = (0, 3, 4, 2), (0, 5, 6, 2)
        want = assemble_f1(self.HOST, chain_of(self.HOST), c1, c2, 4, 6, (4, 6))
        emb = assemble_f1(self.HOST, chain_of(self.HOST),
                          c1[::-1] if flip1 else c1, c2[::-1] if flip2 else c2,
                          4, 6, (4, 6))
        assert (emb.branch, emb.routes, emb.hop_edges) == \
            (want.branch, want.routes, want.hop_edges)

    def test_hub_flips_when_spares_sit_past_the_attachments(self):
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 4), (4, 3), (3, 2),
            (0, 6), (6, 5), (5, 2),
            (4, 6),
        ])
        emb = assemble_f1(host, chain_of(host),
                          (0, 4, 3, 2), (0, 6, 5, 2), 4, 6, (4, 6))
        assert emb.branch[3] == 2
        assert check_m_subdivision(host, emb) is None

    def test_no_spare_anywhere(self):
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 3), (3, 2),
            (0, 4), (4, 2),
            (3, 4),
        ])
        with pytest.raises(AssemblyError, match="^neither chain end leaves a spare vertex "
                           "before both attachments$"):
            assemble_f1(host, chain_of(host), (0, 3, 2), (0, 4, 2), 3, 4, (3, 4))

    def test_first_workable_hub_fails_alone(self):
        # c1 and c2 share the vertex after hub 0, which leaves a spare
        # vertex before both attachments: its one embedding fails the
        # check, and the error names that hub only
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 3), (3, 4), (4, 2),
            (3, 6), (6, 2),
            (4, 6),
        ])
        with pytest.raises(AssemblyError, match="^hub 0: branch map is not injective$"):
            assemble_f1(host, chain_of(host), (0, 3, 4, 2), (0, 3, 6, 2), 4, 6, (4, 6))

    def test_long_joint(self):
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 3), (3, 4), (4, 2),
            (0, 5), (5, 6), (6, 2),
            (4, 7), (7, 6),
        ])
        emb = assemble_f1(host, chain_of(host),
                          (0, 3, 4, 2), (0, 5, 6, 2), 4, 6, (4, 7, 6))
        assert check_m_subdivision(host, emb) is None
        assert 7 in emb.routes[(1, 2)]


class TestAssembleF2:
    # doubled chain 0-1-2, triangle 0-3-4, triangle 2-5-6, joint 4-6
    HOST = mg([
        (0, 1), (0, 1), (1, 2), (1, 2),
        (0, 3), (3, 4), (4, 0),
        (2, 5), (5, 6), (6, 2),
        (4, 6),
    ])

    def test_basic(self):
        emb = assemble_f2(self.HOST, chain_of(self.HOST),
                          (0, 3, 4, 0), 4, (2, 5, 6, 2), 6, (4, 6))
        assert emb.pattern is F2
        assert check_m_subdivision(self.HOST, emb) is None
        assert emb.branch[3] == 0 and emb.branch[4] == 2
        assert emb.branch[1] == 4 and emb.branch[2] == 6

    def test_cycles_accepted_in_either_order(self):
        emb = assemble_f2(self.HOST, chain_of(self.HOST),
                          (2, 5, 6, 2), 6, (0, 3, 4, 0), 4, (4, 6))
        assert check_m_subdivision(self.HOST, emb) is None

    def test_doubled_edge_cycle_rejected(self):
        # extra pendant keeps vertex 0 off the main chain's interior
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 3), (0, 3),
            (2, 5), (5, 6), (6, 2),
            (3, 6), (0, 7),
        ])
        chain = next(c for c in maximal_chains(host)
                     if set(c.vertices) == {0, 1, 2})
        with pytest.raises(AssemblyError, match="^no spare vertex on the first cycle$"):
            assemble_f2(host, chain,
                        (0, 3, 0), 3, (2, 5, 6, 2), 6, (3, 6))

    def test_arc_with_the_spare_vertex_is_taken_either_way_round(self):
        want = assemble_f2(self.HOST, chain_of(self.HOST),
                           (0, 3, 4, 0), 4, (2, 5, 6, 2), 6, (4, 6))
        emb = assemble_f2(self.HOST, chain_of(self.HOST),
                          (0, 4, 3, 0), 4, (2, 6, 5, 2), 6, (4, 6))
        assert (emb.branch, emb.routes) == (want.branch, want.routes)

    def test_first_workable_arcs_fail_alone(self):
        # the joint runs through t, the spare vertex of the second cycle's
        # first arc: the one embedding fails its check with a single reason
        host = mg([
            (0, 1), (0, 1), (1, 2), (1, 2),
            (0, 3), (3, 4), (4, 0),
            (2, 5), (5, 6), (6, 2),
            (4, 5),
        ])
        with pytest.raises(AssemblyError,
                           match=r"^route for \(1, 2\) passes through a branch vertex$"):
            assemble_f2(host, chain_of(host), (0, 3, 4, 0), 4, (2, 5, 6, 2), 6, (4, 5, 6))

    def test_open_cycle_rejected(self):
        with pytest.raises(AssemblyError):
            assemble_f2(self.HOST, chain_of(self.HOST),
                        (0, 3, 4), 4, (2, 5, 6, 2), 6, (4, 6))
