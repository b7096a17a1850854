"""Recognizer verdicts, embeddings, and crossed-structure diagnostics."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mengerian import menger, recognizer
from mengerian.cli import random_multigraph
from mengerian.menger import ResourceLimitError, falsify_mengerian
from mengerian.multigraph import (
    InternalError,
    Multigraph,
    biconnected_components,
    identify,
    m_subdivide,
    maximal_chains,
)
from mengerian.patterns import (
    F1,
    F2,
    F3,
    PATTERNS,
    AssemblyError,
    check_m_subdivision,
    find_f3_subdivision,
    find_gem,
)
from mengerian.recognizer import (
    _contracted_adj,
    _contracted_degrees,
    CrossedStructure,
    Proof,
    Verdict,
    recognize,
    recognize_with_proof,
)

from helpers import doubled_k2n, doubled_ladder, mg, p_and_c
from oracles import brute_m_minor


def edge_ids(g):
    return {e.id for e in g.edges}


def hop_edge_ids(emb):
    """Host edges an embedding uses: the ids in its hop_edges."""
    return {e for hops in emb.hop_edges.values() for hop in hops for e in hop}


def pairs_of(g):
    return [(e.u, e.v) for e in g.edges]


# The 8-vertex 2-crossed graph: doubled chain 0-1-2-3, legs to 4,6 at one
# end and 5,7 at the other, and four connecting parts between the corners.
CROSSED_PAIRS = [
    (0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3),
    (0, 4), (0, 6), (3, 5), (3, 7),
    (4, 5), (6, 7), (5, 6), (4, 7),
]


def crossed_graph():
    return mg(CROSSED_PAIRS)


# (4 6)(5 7) maps the fixture to itself, fixes the chain 0=1=2=3 and
# swaps the 4-5 and 6-7 connections.  A gem search may report a crossed
# shape or its image under that map, so the exact checks below accept
# either; the image of the shape with 6-7 stretched is the one with 4-5
# stretched, and the other way round.
MIRROR = {4: 6, 6: 4, 5: 7, 7: 5}


def mirrored(vs):
    return tuple(MIRROR.get(v, v) for v in vs)


class TestPatternGraphs:
    def test_f1_is_caught_whole(self):
        v = recognize(F1.graph)
        assert not v.mengerian
        emb = v.embedding
        assert emb.pattern.name == "F1"
        assert check_m_subdivision(F1.graph, emb) is None
        assert hop_edge_ids(emb) == edge_ids(F1.graph)
        assert (emb.source, emb.target) == (0, 5)

    def test_f2_is_caught_whole(self):
        v = recognize(F2.graph)
        assert not v.mengerian
        emb = v.embedding
        assert emb.pattern.name == "F2"
        assert check_m_subdivision(F2.graph, emb) is None
        assert hop_edge_ids(emb) == edge_ids(F2.graph)

    def test_f3_is_caught_whole(self):
        v = recognize(F3.graph)
        assert not v.mengerian
        emb = v.embedding
        assert emb.pattern.name == "F3"
        assert emb.branch[4] == 4  # the apex is the unique degree-4 vertex
        assert check_m_subdivision(F3.graph, emb) is None

    def test_verdict_is_deterministic(self):
        a = recognize(F1.graph)
        b = recognize(F1.graph)
        assert a.embedding.branch == b.embedding.branch
        assert a.embedding.routes == b.embedding.routes
        assert a.embedding.hop_edges == b.embedding.hop_edges

    def test_gem_agrees_with_exhaustive_falsifier(self):
        assert falsify_mengerian(F3.graph) is not None
        assert not recognize(F3.graph).mengerian


class TestMengerianGraphs:
    @pytest.mark.parametrize("pairs", [
        [(0, 1), (1, 2), (2, 3)],                          # path
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],          # cycle
        [(0, 1), (0, 1)],                                  # doubled edge
        [(0, 1)] * 5,                                      # fat edge
        [(0, 1), (0, 1), (1, 2), (1, 2)],                  # doubled path
        [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)],  # doubled triangle
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],  # K4
        [(0, 1), (0, 1), (0, 2), (0, 3), (2, 3)],          # parallels + cycle
    ])
    def test_small_fixtures(self, pairs):
        v = recognize(mg(pairs))
        assert v.mengerian
        assert v.embedding is None
        assert v.crossed == ()

    def test_trees_and_low_degree(self):
        star = mg([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        assert recognize(star).mengerian  # degree 5 but no gem, no chain
        grid = mg([(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
        assert recognize(grid).mengerian

    def test_empty_and_tiny(self):
        assert recognize(Multigraph.build(0, [])).mengerian
        assert recognize(Multigraph.build(3, [])).mengerian
        assert recognize(mg([(0, 1)])).mengerian


class TestWheels:
    WHEEL = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]

    def test_wheel_contains_gem(self):
        v = recognize(mg(self.WHEEL))
        assert not v.mengerian
        assert v.embedding.pattern.name == "F3"
        assert v.embedding.branch[4] == 4

    @pytest.mark.parametrize("extra", [(), ((4, 5),), ((0, 5),)],
                             ids=["bare", "hub-pendant", "rim-pendant"])
    def test_exhaustive_falsifier_finds_no_gap(self, extra):
        # the non-adjacent pairs are opposite rim vertices, and no route
        # between them has interior {1, 3} or {0, 2}: routes that meet
        # pairwise then share a vertex, so p = c.  A pendant vertex adds
        # no pair that shares the wheel's block.
        g = mg(self.WHEEL + list(extra))
        assert falsify_mengerian(g) is None

    def test_wheel_terminals_are_adjacent_so_proof_is_unconfirmed(self):
        # every gem in the 4-wheel puts its path ends on a rim edge, so the
        # labeling cannot be certified through a vertex cut
        verdict, proof = recognize_with_proof(mg(self.WHEEL))
        assert not verdict.mengerian
        assert proof is not None and proof.report is not None
        assert not proof.report.cut_defined
        assert not proof.report.confirmed


class TestProofs:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_pattern_proofs_confirm(self, pattern):
        verdict, proof = recognize_with_proof(pattern.graph)
        assert not verdict.mengerian
        report = proof.report
        assert report is not None
        assert report.cut_defined and report.confirmed
        assert (report.path_count, report.cut_size) == (1, 2)
        assert proof.source == verdict.embedding.source
        assert proof.target == verdict.embedding.target

    def test_mengerian_input_has_no_proof(self):
        verdict, proof = recognize_with_proof(mg([(0, 1), (1, 2)]))
        assert verdict.mengerian
        assert proof is None

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_subdivided_pattern_proofs_confirm(self, pattern):
        rng = random.Random(len(pattern.name))
        for _ in range(4):
            g = pattern.graph
            for _ in range(rng.randrange(1, 4)):
                pairs = sorted({e.pair for e in g.edges})
                u, v = pairs[rng.randrange(len(pairs))]
                g, _ = m_subdivide(g, u, v)
            verdict, proof = recognize_with_proof(g)
            assert not verdict.mengerian
            assert check_m_subdivision(g, verdict.embedding) is None
            assert proof.report is not None and proof.report.confirmed

    def test_pendant_growth_keeps_proof_on_full_host(self):
        g = mg(pairs_of(F1.graph) + [(5, 6), (6, 7), (7, 8)])
        verdict, proof = recognize_with_proof(g)
        assert not verdict.mengerian
        assert proof.report is not None
        assert proof.report.confirmed
        assert set(proof.labeled.times) == edge_ids(g)

    def test_large_host_confirms(self):
        # no vertex-count rule: a 14-vertex host is measured like any other
        pairs = pairs_of(F1.graph) + [(v, v + 1) for v in range(5, 13)]
        g = mg(pairs)
        assert len(g.vertices) == 14
        verdict, proof = recognize_with_proof(g)
        assert not verdict.mengerian
        assert proof.refused is None
        assert (proof.report.path_count, proof.report.cut_size) == (1, 2)
        assert set(proof.labeled.times) == edge_ids(g)

    def test_budget_refusal_skips_verification(self, monkeypatch):
        # only the work budgets refuse: the proof then ships unverified,
        # with the refusal that stopped it
        g = mg(pairs_of(F1.graph) + [(5, 6), (6, 7)])
        monkeypatch.setattr(menger, "_WORK_BUDGET", 1)
        verdict, proof = recognize_with_proof(g)
        assert not verdict.mengerian
        assert proof.report is None
        assert isinstance(proof.refused, ResourceLimitError)
        assert "work budget of 1 steps" in str(proof.refused)
        assert set(proof.labeled.times) == edge_ids(g)


class TestClosure:
    def test_augmentation_keeps_nonmengerian(self):
        rng = random.Random(11)
        for pattern in PATTERNS:
            for _ in range(5):
                g = pattern.graph
                for _ in range(rng.randrange(1, 5)):
                    op = rng.randrange(3)
                    if op == 0:
                        pairs = sorted({e.pair for e in g.edges})
                        u, v = pairs[rng.randrange(len(pairs))]
                        g, _ = m_subdivide(g, u, v)
                    elif op == 1:
                        vs = sorted(g.vertices)
                        u = vs[rng.randrange(len(vs))]
                        w = max(vs) + 1
                        g = mg(pairs_of(g) + [(u, w)], vertices=vs + [w])
                    else:
                        vs = sorted(g.vertices)
                        u = vs[rng.randrange(len(vs))]
                        v = vs[rng.randrange(len(vs))]
                        if u == v:
                            continue
                        g = mg(pairs_of(g) + [(u, v)], vertices=vs)
                verdict = recognize(g)
                assert not verdict.mengerian
                assert check_m_subdivision(g, verdict.embedding) is None


class TestCrossedStructure:
    def test_crossed_graph_is_mengerian_with_diagnostic(self):
        v = recognize(crossed_graph())
        assert v.mengerian
        assert v.embedding is None
        assert len(v.crossed) == 1
        assert v.chains_examined == 1
        cs = v.crossed[0]
        assert cs.kind == 2
        assert cs.chain.vertices == (0, 1, 2, 3)
        assert cs.corners in ((4, 7, 6, 5), mirrored((4, 7, 6, 5)))
        assert cs.b1 == frozenset()
        assert cs.b2 == frozenset()
        assert cs.a1 == frozenset() and cs.a2 == frozenset()

    def test_one_crossed_when_back_connection_missing(self):
        pairs = [p for p in CROSSED_PAIRS if p != (4, 7)]
        v = recognize(mg(pairs))
        assert v.mengerian
        assert len(v.crossed) == 1
        assert v.crossed[0].kind == 1
        assert v.crossed[0].b1 is None

    def test_attachment_invariant_on_fixture(self):
        g = crossed_graph()
        cs = recognize(g).crossed[0]
        h1, h2, h3, h4 = cs.corners
        ends = {cs.chain.first, cs.chain.last}
        # corner legs: each corner touches exactly one chain end, and its
        # remaining neighbors stay among the declared partners
        for corner, partners in ((h1, {h2, h4}), (h3, {h4, h2}),
                                 (h2, {h1, h3}), (h4, {h3, h1})):
            nbrs = set(g.neighbors(corner))
            assert len(nbrs & ends) == 1
            assert nbrs - ends <= partners

    def test_mengerian_verdict_lists_every_crossed_shape(self):
        v = recognize(crossed_graph())
        assert v.mengerian and len(v.crossed) == 1
        assert recognize(mg([(0, 1), (1, 2)])).crossed == ()

    def test_cross_part_can_be_long(self):
        g, z = m_subdivide(crossed_graph(), 6, 7)
        v = recognize(g)
        assert v.mengerian
        cs = v.crossed[0]
        assert cs.kind == 2
        assert (cs.b1, cs.b2) in ((frozenset(), frozenset({z})),
                                  (frozenset({z}), frozenset()))

    def test_back_part_can_be_long(self):
        g, z = m_subdivide(crossed_graph(), 4, 5)
        v = recognize(g)
        assert v.mengerian
        cs = v.crossed[0]
        assert cs.kind == 2
        assert (cs.b1, cs.b2) in ((frozenset({z}), frozenset()),
                                  (frozenset(), frozenset({z})))

    def test_side_parts_can_be_long(self):
        g, za = m_subdivide(crossed_graph(), 4, 7)
        g, zb = m_subdivide(g, 5, 6)
        v = recognize(g)
        assert v.mengerian
        cs = v.crossed[0]
        assert cs.kind == 2
        assert (cs.a1, cs.a2) in ((frozenset({za}), frozenset({zb})),
                                  (frozenset({zb}), frozenset({za})))

    def test_corner_connection_makes_free_gem(self):
        # linking the cross part straight to a corner lifts that corner to
        # degree four, so the plain gem check fires before any chain work
        g, z = m_subdivide(crossed_graph(), 6, 7)
        g = mg(pairs_of(g) + [(z, 4)], vertices=sorted(g.vertices))
        v = recognize(g)
        assert not v.mengerian
        assert v.embedding.pattern.name == "F3"
        assert check_m_subdivision(g, v.embedding) is None

    def _assert_f1(self, g):
        v = recognize(g)
        assert not v.mengerian
        assert v.embedding.pattern.name == "F1"
        assert check_m_subdivision(g, v.embedding) is None

    def test_cross_to_near_side_upgrades_to_f1(self):
        # cross-part interior linked to a leg interior on the same crossing
        g, za = m_subdivide(crossed_graph(), 6, 7)
        g, zb = m_subdivide(g, 0, 4)
        self._assert_f1(mg(pairs_of(g) + [(za, zb)],
                           vertices=sorted(g.vertices)))

    def test_cross_to_far_side_upgrades_to_f1(self):
        # cross-part interior linked to the other crossing's side part
        g, za = m_subdivide(crossed_graph(), 6, 7)
        g, zb = m_subdivide(g, 5, 6)
        self._assert_f1(mg(pairs_of(g) + [(za, zb)],
                           vertices=sorted(g.vertices)))

    def test_external_side_path_upgrades_to_f1(self):
        # a connection between the two side parts completes F1
        g, za = m_subdivide(crossed_graph(), 4, 7)
        g, zb = m_subdivide(g, 5, 6)
        self._assert_f1(mg(pairs_of(g) + [(za, zb)],
                           vertices=sorted(g.vertices)))

    def test_leg_subdivision_exposes_f1(self):
        # stretching a leg pushes its corner into a side part, turning the
        # corner-to-corner back connection into a forbidden side link
        g, _ = m_subdivide(crossed_graph(), 0, 4)
        g, _ = m_subdivide(g, 5, 6)
        self._assert_f1(g)

    def test_side_to_side_interior_link_upgrades_to_f1(self):
        pairs = [p for p in CROSSED_PAIRS if p != (4, 5)]
        g, za = m_subdivide(mg(pairs), 0, 4)
        g, zb = m_subdivide(g, 5, 6)
        self._assert_f1(mg(pairs_of(g) + [(za, zb)],
                           vertices=sorted(g.vertices)))

    def test_nontrivial_middle_leg_gives_f1_directly(self):
        g, _ = m_subdivide(crossed_graph(), 3, 7)
        self._assert_f1(g)

    def test_failed_assembly_on_a_stretched_middle_leg_is_a_fault(self, monkeypatch):
        # without the 4-7 back connection, stretching 0-6 gives a crossing
        # whose legs 0 and 2 meet one end and whose middle leg 6..ell has an
        # interior vertex: F1 assembles directly, so an assembly failure
        # there is a fault, not a crossed shape
        g, _ = m_subdivide(mg([p for p in CROSSED_PAIRS if p != (4, 7)]), 0, 6)
        self._assert_f1(g)

        def refuse(*args):
            raise AssemblyError("refused")

        monkeypatch.setattr(recognizer, "assemble_f1", refuse)
        with pytest.raises(AssemblyError, match="refused"):
            recognize(g)

    # A cross part b2 joined to a side by an outside path: to c2's side
    # (F1 through b and the joint's far end), or to a1 or x1 (F1 through
    # the joint's far end and c).  Each pins the one path found from b2,
    # and the corners F1 is assembled on.
    @pytest.mark.parametrize("extra, joint, corners", [
        ([(4, 5), (6, 7), (8, 6), (5, 9), (9, 8), (4, 10), (10, 7), (8, 10)],
         ((10,), (5, 6), (10, 8, 6)), (4, 6)),
        ([(5, 6), (4, 7), (4, 8), (8, 5), (9, 7), (6, 10), (10, 9), (8, 10)],
         ((8,), (6, 7), (8, 10, 6)), (6, 4)),
    ], ids=["c2-side", "a1-or-x1"])
    def test_cross_part_joined_to_a_side_upgrades_to_f1(self, monkeypatch, extra, joint,
                                                         corners):
        g = mg(CROSSED_PAIRS[:10] + extra)
        found, assembled = [], []
        find_path, assemble_f1 = recognizer.find_path, recognizer.assemble_f1

        def logged_find(graph, sources, targets, **kw):
            vs = find_path(graph, sources, targets, **kw)
            found.append((tuple(sources), tuple(targets), vs))
            return vs

        def logged_assemble(block, chain, c1, c2, b, c, seg_bc):
            emb = assemble_f1(block, chain, c1, c2, b, c, seg_bc)
            assembled.append((b, c))
            return emb

        monkeypatch.setattr(recognizer, "find_path", logged_find)
        monkeypatch.setattr(recognizer, "assemble_f1", logged_assemble)
        self._assert_f1(g)
        assert found == [joint] and assembled == [corners]
        verdict, proof = recognize_with_proof(g)
        assert verdict.embedding.pattern.name == "F1"
        assert proof.report is not None and proof.report.confirmed
        assert (proof.report.path_count, proof.report.cut_size) == (1, 2)


    # The smallest crossed graphs: one doubled 0-1 chain, 9 edges with no
    # corner-to-corner back connection, 10 with the 4-7 one.
    SMALLEST_CROSSED = [(0, 1), (0, 1), (0, 4), (0, 6), (1, 5), (1, 7), (4, 5), (6, 7), (5, 6)]

    @pytest.mark.parametrize("extra, kind, corners, b1", [
        ([], 1, (4, 5, 6, 7), None),
        ([(4, 7)], 2, (6, 5, 4, 7), frozenset()),
    ], ids=["9-edges", "10-edges"])
    def test_smallest_crossed_graphs(self, extra, kind, corners, b1):
        v = recognize(mg(self.SMALLEST_CROSSED + extra))
        assert v.mengerian and v.chains_examined == 1
        (cs,) = v.crossed
        assert (cs.kind, cs.chain.vertices, cs.corners, cs.b1) == (kind, (0, 1), corners, b1)

class TestLegEnds:
    """Each leg of a pinned gem reaches one chain end, two legs each end.

    Any other split is a gem in the block pinned at a chain end, so the
    block search finds it first; with that search bypassed, the chain
    analysis names the case."""

    CASES = {
        "a leg reaches both chain ends": (
            Multigraph.build(6, [(1, 3), (0, 1), (1, 2), (0, 4), (2, 5), (4, 5), (1, 4), (0, 5),
                                 (1, 4), (2, 3)]), (1, 4)),
        "an uneven split": (
            Multigraph.build(6, [(3, 4), (0, 3), (0, 5), (0, 2), (1, 5), (4, 5), (0, 1), (0, 2),
                                 (2, 4)]), (0, 2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_block_search_finds_the_gem_at_a_chain_end(self, case):
        g, chain = self.CASES[case]
        assert [c.vertices for c in maximal_chains(g)] == [chain]
        v = recognize(g)
        assert v.embedding.pattern.name == "F3" and v.chains_examined == 0
        assert v.embedding.branch[4] in chain

    @pytest.mark.parametrize("case", CASES)
    def test_chain_analysis_names_the_case(self, monkeypatch, case):
        g, _ = self.CASES[case]
        monkeypatch.setattr(recognizer, "find_f3_subdivision", lambda host: None)
        with pytest.raises(InternalError, match=f"^{case}"):
            recognize(g)


class TestBlocks:
    def test_gem_found_behind_a_bridge(self):
        pairs = [(0, 1), (1, 2)] + [(x + 2, y + 2) for x, y in
                 [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]]
        v = recognize(mg(pairs))
        assert not v.mengerian
        assert v.embedding.pattern.name == "F3"

    def test_disconnected_components(self):
        pairs = pairs_of(F3.graph) + [(10, 11), (11, 12)]
        assert not recognize(mg(pairs)).mengerian
        g2 = mg([(0, 1), (1, 2), (10, 11), (10, 11)],
                vertices=[0, 1, 2, 10, 11])
        assert recognize(g2).mengerian

    def test_two_blocks_one_bad(self):
        # a clean doubled-triangle block plus an F2 block sharing vertex 0
        shift = {v: v + 10 if v != 0 else 0 for v in F2.graph.vertices}
        pairs = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
        pairs += [(shift[a], shift[b]) for a, b in pairs_of(F2.graph)]
        v = recognize(mg(pairs))
        assert not v.mengerian
        assert v.embedding.pattern.name == "F2"


def long_spoke_k25(hops):
    """K2,5 on hubs 0, 1 whose spokes are paths of `hops` hops, the first
    doubled along its length: one chain from hub to hub."""
    pairs, n = [], 2
    for spoke in range(5):
        path = [0] + list(range(n, n + hops - 1)) + [1]
        n += hops - 1
        pairs += [p for p in zip(path, path[1:]) for _ in range(2 if spoke == 0 else 1)]
    return mg(pairs)


class TestContractedDegrees:
    """The degrees a chain's contraction would have, read off its ends."""

    @staticmethod
    def chains(seed):
        """(block, chain, branching) for each chain of a seeded random multigraph."""
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        g = random_multigraph(n, rng.randint(n, 3 * n), 3, rng)
        for block in biconnected_components(g):
            if not block.has_parallel_edges():
                continue
            branching = sum(block.simple_degree(v) >= 3 for v in block.vertices)
            for chain in maximal_chains(block):
                yield block, chain, branching

    @given(st.integers(0, 100_000))
    @settings(max_examples=300)
    def test_exact_and_never_skips_a_gem(self, seed):
        for block, chain, branching in self.chains(seed):
            g_l, ell = identify(block, chain.vertices)
            got = _contracted_degrees(block, chain, branching)
            others = sum(g_l.simple_degree(v) >= 3 for v in g_l.vertices if v != ell)
            assert got == (g_l.simple_degree(ell), others)
            if got[0] < 4 or got[1] < 2:
                assert find_f3_subdivision(g_l, apex=ell) is None
                if len(g_l.vertices) <= 7:
                    assert not brute_m_minor(g_l, F3, pin={4: ell})

    @given(st.integers(0, 100_000))
    @settings(max_examples=300)
    def test_adjacency_and_pinned_search_match_the_built_contraction(self, seed):
        for block, chain, _ in self.chains(seed):
            g_l, ell = identify(block, chain.vertices)
            adj, got_ell = _contracted_adj(block, chain)
            assert (adj, got_ell) == (g_l._adj, ell)
            emb = find_f3_subdivision(g_l, apex=ell)
            assert find_gem(adj, ell) == (None if emb is None else (emb.branch, emb.routes))

    def test_pinned_search_can_come_back_empty(self):
        # chain 0=4 passes the degree check, yet its contraction holds no
        # gem with the contracted vertex as apex (found by a seeded sweep
        # of random_multigraph)
        g = Multigraph.build(8, [(1, 5), (5, 7), (0, 1), (0, 4), (2, 4), (2, 3), (0, 4),
                                 (1, 7), (0, 3), (4, 5)])
        (block,) = [b for b in biconnected_components(g) if b.has_parallel_edges()]
        (chain,) = maximal_chains(block)
        assert chain.vertices == (0, 4)
        branching = sum(block.simple_degree(v) >= 3 for v in block.vertices)
        apex_degree, others = _contracted_degrees(block, chain, branching)
        assert apex_degree >= 4 and others >= 2
        g_l, ell = identify(block, chain.vertices)
        assert find_f3_subdivision(g_l, apex=ell) is None
        verdict = recognize(g)
        assert verdict.mengerian and verdict.crossed == () and verdict.chains_examined == 1
        assert falsify_mengerian(g, samples=20000, seed=0) is None


def fully_subdivided(pattern):
    """The pattern with every parallel class m-subdivided once."""
    g = pattern.graph
    for u, v in sorted({e.pair for e in pattern.graph.edges}):
        g, _ = m_subdivide(g, u, v)
    return g


# graphs whose chains pass the degree check, so each gets a pinned search
SEARCHED = pytest.mark.parametrize("make, pattern", [
    (lambda: fully_subdivided(F1), F1),
    (lambda: fully_subdivided(F2), F2),
    (crossed_graph, None),
], ids=["subdivided-F1", "subdivided-F2", "crossed"])


class TestChainWork:
    """No chain is contracted into a graph of its own: chains whose
    contraction cannot hold a pinned gem are not searched, and the others
    are searched on an adjacency."""

    @pytest.fixture
    def identified(self, monkeypatch):
        calls = []
        real = recognizer.identify

        def counted(g, zset):
            calls.append(tuple(zset))
            return real(g, zset)

        monkeypatch.setattr(recognizer, "identify", counted)
        return calls

    @pytest.mark.parametrize("n", [5, 50])
    def test_doubled_k2n_builds_nothing(self, identified, n):
        verdict = recognize(doubled_k2n(n))
        assert verdict.mengerian and verdict.chains_examined == n
        assert identified == []

    def test_long_spoke_builds_nothing(self, identified):
        verdict = recognize(long_spoke_k25(12))
        assert verdict.mengerian and verdict.chains_examined == 1
        assert identified == []

    @SEARCHED
    def test_searched_chains_build_nothing(self, monkeypatch, identified, make, pattern):
        searched = []
        real = recognizer.find_gem

        def counted(adj, w):
            searched.append(w)
            return real(adj, w)

        monkeypatch.setattr(recognizer, "find_gem", counted)
        verdict = recognize(make())
        assert getattr(verdict.embedding, "pattern", None) is pattern
        assert searched and identified == []

    def test_doubled_ladder_is_quick(self):
        # every rung is a chain, and every inner rung passes the degree
        # check; each is searched on a copy of the block's adjacency
        g = doubled_ladder(800)
        start = time.perf_counter()
        verdict = recognize(g)
        assert time.perf_counter() - start < 1.5
        assert verdict.mengerian and verdict.chains_examined == 800 and verdict.crossed == ()

    def test_small_doubled_ladder_agrees_with_brute_force(self):
        g = doubled_ladder(3)
        assert recognize(g).mengerian
        assert not any(brute_m_minor(g, p) for p in PATTERNS)


class TestNoThrowawayGraphs:
    """Recognition searches the graphs it has; it copies none to search them."""

    @pytest.fixture
    def copies(self, monkeypatch):
        calls = []
        for name in ("underlying_simple", "remove_vertices"):
            real = getattr(Multigraph, name)

            def counted(g, *args, name=name, real=real):
                calls.append(name)
                return real(g, *args)

            monkeypatch.setattr(Multigraph, name, counted)
        return calls

    @pytest.mark.parametrize("make, crossed", [
        (lambda: doubled_k2n(50), 0),
        (lambda: long_spoke_k25(12), 0),
        (crossed_graph, 1),
    ], ids=["doubled-k2n-50", "long-spoke-k25", "crossed"])
    def test_recognize_copies_nothing(self, copies, make, crossed):
        verdict = recognize(make())
        assert verdict.mengerian and len(verdict.crossed) == crossed
        assert copies == []

    @SEARCHED
    def test_no_graph_is_built_after_the_block_split(self, monkeypatch, make, pattern):
        built, split = [], []
        init, blocks = Multigraph.__post_init__, recognizer.biconnected_components

        def counted(g):
            if split:
                built.append(g)
            init(g)

        def split_once(g):
            out = blocks(g)
            split.append(len(out))
            return out

        monkeypatch.setattr(Multigraph, "__post_init__", counted)
        monkeypatch.setattr(recognizer, "biconnected_components", split_once)
        verdict = recognize(make())
        assert verdict.chains_examined >= 1 and split == [1]
        assert built == []

    def test_proof_on_subdivided_f1_runs_no_arrival_search(self, monkeypatch):
        # route listing bounds its branches by one sweep of its own, not by
        # an earliest-arrival search on a reversed copy of the witness
        calls = []
        real = menger.earliest_arrival

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(menger, "earliest_arrival", counted)
        verdict, proof = recognize_with_proof(fully_subdivided(F1))
        assert verdict.embedding.pattern is F1
        assert proof.report is not None and proof.report.confirmed
        assert calls == []


class TestFalsifierAgreement:
    MENGERIAN_SEVEN_EDGE = [
        [(0, 1)] * 2 + [(1, 2)] * 2 + [(2, 3)] * 3,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)],
        [(0, 1)] * 3 + [(1, 2), (2, 3), (3, 4), (4, 1)],
    ]

    @pytest.mark.parametrize("idx", range(len(MENGERIAN_SEVEN_EDGE)))
    def test_mengerian_seven_edge_fixtures(self, idx):
        g = mg(self.MENGERIAN_SEVEN_EDGE[idx])
        assert recognize(g).mengerian
        assert falsify_mengerian(g) is None

    def test_random_seven_edge_graphs_agree(self):
        for seed in range(18):
            rng = random.Random(seed)
            g = random_multigraph(rng.randrange(4, 6), 7, 3, rng)
            assert recognize(g).mengerian == (falsify_mengerian(g) is None)

    def test_relabeled_gems_agree(self):
        # both routes must find the gem under any vertex numbering
        base = pairs_of(F3.graph)
        for seed in range(5):
            rng = random.Random(seed)
            perm = list(range(5))
            rng.shuffle(perm)
            g = mg([(perm[a], perm[b]) for a, b in base])
            assert not recognize(g).mengerian
            cx = falsify_mengerian(g)
            # exhaustive search tests each pair in the orientation s < t
            assert cx is not None and cx.s < cx.t
            assert p_and_c(cx.labeled, cx.s, cx.t) == (len(cx.paths), len(cx.cut))
            assert len(cx.paths) < len(cx.cut)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_small_graphs_are_all_mengerian_both_ways(self, seed):
        # below seven edges neither route can find anything
        rng = random.Random(seed)
        n, m = rng.randrange(2, 6), rng.randrange(1, 6)
        g = random_multigraph(n, m, m, rng)
        assert recognize(g).mengerian
        assert falsify_mengerian(g) is None
