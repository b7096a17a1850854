"""Whole-package checks: every layer exercised end to end on fixtures,
seeded random inputs, and an exhaustive small-graph sweep, with hard
time budgets where speed is part of the contract."""

import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings

from mengerian import cli
from mengerian.cli import random_multigraph
from mengerian.menger import (
    CutUndefinedError,
    edge_menger,
    falsify_mengerian,
    max_disjoint_paths,
    min_vertex_cut,
)
from mengerian.multigraph import m_subdivide
from mengerian.patterns import F3, PATTERNS, check_m_subdivision
from mengerian.recognizer import recognize, recognize_with_proof
from mengerian.temporal import TemporalGraph

from helpers import (
    canonical_key,
    doubled_k2n,
    is_connected,
    mg,
    small_multigraphs,
    without_edge,
)
from oracles import brute_c, brute_edge_c, brute_edge_p, brute_m_minor, brute_p, reverse


class TestPatternGaps:
    """The three forbidden shapes really are counterexamples."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_one_path_two_cut(self, pattern):
        start = time.perf_counter()
        tg = TemporalGraph.make(pattern.graph, dict(pattern.labels))
        s, t = pattern.source, pattern.target
        assert len(max_disjoint_paths(tg, s, t)) == 1
        assert len(min_vertex_cut(tg, s, t)) == 2
        # independent route to the same numbers
        assert brute_p(tg, s, t) == 1
        assert brute_c(tg, s, t) == 2
        assert time.perf_counter() - start < 1.0


def subdivided_pattern(seed):
    """Pattern chosen by seed with up to four seeded m-subdivisions."""
    rng = random.Random(seed)
    g = PATTERNS[seed % 3].graph
    for _ in range(rng.randrange(5)):
        pairs = sorted({e.pair for e in g.edges})
        g, _ = m_subdivide(g, *pairs[rng.randrange(len(pairs))])
    return g


class TestSubdividedPatterns:
    """Recognition with a machine-checked counterexample labeling."""

    def assert_refuted(self, g, seed=None):
        verdict, proof = recognize_with_proof(g)
        assert not verdict.mengerian, seed
        assert check_m_subdivision(g, verdict.embedding) is None, seed
        assert proof is not None and proof.report is not None, seed
        assert proof.report.confirmed, seed

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_bare_pattern(self, pattern):
        self.assert_refuted(pattern.graph)

    def test_hundred_seeded_subdivisions(self):
        start = time.perf_counter()
        for seed in range(100):
            self.assert_refuted(subdivided_pattern(seed), seed)
        assert time.perf_counter() - start < 60.0

    def test_thousand_vertex_host(self):
        # verification has no vertex-count rule, only work budgets
        g = cli.subdivided_pattern("F1", 1000, random.Random(3))
        assert len(g.vertices) == 1006
        self.assert_refuted(g)


class TestChordedPattern:
    """Chords on a large subdivided pattern give the gem search many
    candidate corners; it must not try them one by one."""

    def test_thousand_vertex_f1_with_twenty_chords(self):
        rng = random.Random(1)
        g = cli.subdivided_pattern("F1", 994, rng)
        n = len(g.vertices)
        pairs = [e.pair for e in g.edges]
        present = set(pairs)
        while len(pairs) < len(g.edges) + 20:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in present:
                present.add((u, v))
                pairs.append((u, v))
        g = mg(pairs, vertices=range(n))
        start = time.perf_counter()
        verdict, proof = recognize_with_proof(g)
        assert time.perf_counter() - start < 5.0
        assert not verdict.mengerian
        assert check_m_subdivision(g, verdict.embedding) is None
        assert proof.report is not None and proof.report.confirmed


# connected multigraph isomorphism classes with <= 5 vertices and
# <= 7 edges, counted by edge number
EXPECTED_CLASSES = {0: 1, 1: 1, 2: 2, 3: 5, 4: 12, 5: 27, 6: 63, 7: 130}


def small_connected_classes():
    seen = {}
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for m in range(0, 8):
            for combo in combinations_with_replacement(slots, m):
                g = mg(list(combo), vertices=range(n))
                if is_connected(g):
                    seen.setdefault(canonical_key(g), g)
    return list(seen.values())


class TestSmallGraphSweep:
    """recognize agrees with exhaustive labeling search on every small graph."""

    def test_structural_verdict_matches_falsifier(self):
        start = time.perf_counter()
        classes = small_connected_classes()
        by_edges = Counter(len(g.edges) for g in classes)
        assert dict(by_edges) == EXPECTED_CLASSES
        assert len(classes) == 241
        negative = []
        for g in classes:
            verdict = recognize(g)
            found = falsify_mengerian(g)
            assert verdict.mengerian == (found is None)
            if found is not None:
                assert len(found.paths) < len(found.cut)
                negative.append((g, verdict))
        # the smallest forbidden shape, the gem, is the only one with at
        # most seven edges
        assert len(negative) == 1
        (g, verdict), = negative
        assert canonical_key(g) == canonical_key(F3.graph)
        assert verdict.embedding.pattern.name == "F3"
        assert time.perf_counter() - start < 1800.0


class TestStructuralReference:
    """recognize agrees with the definition: a multigraph is Mengerian
    exactly when none of F1, F2, F3 is an m-topological minor of it."""

    @settings(max_examples=100)
    @given(small_multigraphs(max_n=7, max_m=12))
    def test_mengerian_exactly_when_no_pattern_is_an_m_minor(self, g):
        verdict = recognize(g)
        minors = [p for p in PATTERNS if brute_m_minor(g, p)]
        assert verdict.mengerian == (not minors)
        if not verdict.mengerian:
            assert verdict.embedding.pattern in minors

    def test_thousand_seeded_multigraphs_reach_every_verdict(self):
        # denser than the property's graphs, so that each pattern is the
        # verdict's now and then: both sides of the equality are exercised
        verdicts = Counter()
        for seed in range(1000):
            rng = random.Random(seed)
            g = random_multigraph(rng.randint(6, 7), rng.randint(9, 12), 3, rng)
            verdict = recognize(g)
            minors = [p for p in PATTERNS if brute_m_minor(g, p)]
            assert verdict.mengerian == (not minors), seed
            if not verdict.mengerian:
                assert verdict.embedding.pattern in minors, seed
            verdicts[verdict.embedding.pattern.name if minors else "Mengerian"] += 1
        assert set(verdicts) == {"Mengerian", "F1", "F2", "F3"}, verdicts


def labeled_instance(seed):
    """Seeded temporal multigraph with a chosen endpoint pair."""
    rng = random.Random(1000 + seed)
    n = rng.randrange(3, 8)
    m = rng.randrange(2, 13)
    g = random_multigraph(n, m, m, rng)
    times = {e.id: rng.randrange(1, m + 2) for e in g.edges}
    s, t = rng.sample(range(n), 2)
    return TemporalGraph.make(g, times), s, t


class TestEdgeVariantEquality:
    """Disjoint path count always meets the edge cut, on both routes."""

    def test_two_hundred_seeded_instances(self):
        for seed in range(200):
            tg, s, t = labeled_instance(seed)
            paths, cut = edge_menger(tg, s, t)
            k = len(paths)
            assert k == len(cut), seed
            assert k == brute_edge_p(tg, s, t), seed
            assert k == brute_edge_c(tg, s, t), seed


class TestOracleInvariants:
    """Cross-oracle inequalities, time reversal, deletion monotonicity."""

    def test_two_hundred_seeded_instances(self):
        for seed in range(200):
            tg, s, t = labeled_instance(seed)
            rng = random.Random(5000 + seed)
            p = len(max_disjoint_paths(tg, s, t))
            pe = len(edge_menger(tg, s, t)[0])
            assert p <= pe, seed
            try:
                c = len(min_vertex_cut(tg, s, t))
            except CutUndefinedError:
                c = None
            if c is not None:
                assert p <= c, seed

            # reversing time swaps the endpoints, nothing else
            rtg = reverse(tg)
            assert len(max_disjoint_paths(rtg, t, s)) == p, seed
            if c is not None:
                assert len(min_vertex_cut(rtg, t, s)) == c, seed

            # an edge deletion never helps; the cut stays defined since
            # removing an edge cannot make the endpoints adjacent
            ids = sorted(tg.times)
            for eid in rng.sample(ids, min(3, len(ids))):
                sub = without_edge(tg, eid)
                assert len(max_disjoint_paths(sub, s, t)) <= p, seed
                assert len(edge_menger(sub, s, t)[0]) <= pe, seed
                if c is not None:
                    assert len(min_vertex_cut(sub, s, t)) <= c, seed


# doubled chain 0-1-2-3 pinched between crossings 0-4-5-3 and 0-6-7-3,
# cross connection 5-6, back connection 4-7: Mengerian, yet no single
# vertex ever cuts 0 from 3
CROSSED_PAIRS = [
    (0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3),
    (0, 4), (0, 6), (3, 5), (3, 7),
    (4, 5), (6, 7), (5, 6), (4, 7),
]


class TestCrossedFixture:
    def test_recognized_mengerian_with_double_crossed_chain(self):
        verdict = recognize(mg(CROSSED_PAIRS))
        assert verdict.mengerian
        assert len(verdict.crossed) == 1
        struct = verdict.crossed[0]
        assert struct.kind == 2
        assert struct.chain.vertices == (0, 1, 2, 3)

    def test_hundred_thousand_labelings_find_no_gap(self):
        start = time.perf_counter()
        assert falsify_mengerian(mg(CROSSED_PAIRS), samples=100_000, seed=0) is None
        assert time.perf_counter() - start < 6.0


class TestDoubledSideK2n:
    """K2,n with every edge at one hub doubled: n one-hop chains, and the
    pinned gem search around each must come back empty."""

    def test_three_hundred_middles(self):
        self._recognized_within(300, 1.0)

    def test_twelve_hundred_middles(self):
        self._recognized_within(1200, 1.0)

    def _recognized_within(self, n, seconds):
        g = doubled_k2n(n)
        start = time.perf_counter()
        verdict = recognize(g)
        assert time.perf_counter() - start < seconds
        assert verdict.mengerian
        assert verdict.chains_examined == n


class TestLargeRandomInstances:
    """Dense hundred-vertex graphs resolve inside the time budget."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hundred_vertices_three_hundred_edges(self, seed):
        g = random_multigraph(100, 300, 3, random.Random(seed))
        start = time.perf_counter()
        verdict, proof = recognize_with_proof(g)
        assert time.perf_counter() - start < 10.0
        # this dense: parallel pairs and high degrees everywhere
        assert not verdict.mengerian
        assert check_m_subdivision(g, verdict.embedding) is None
        assert proof.report is not None and proof.report.confirmed
