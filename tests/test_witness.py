"""Witness labelings (the lift onto the embedding and its extension to the
host) and their oracle verification."""

import random

from hypothesis import given, strategies as st

from mengerian.multigraph import Multigraph, m_subdivide
from mengerian.patterns import F1, PATTERNS, MEmbedding, check_m_subdivision
from mengerian.witness import make_witness, verify_witness

import pytest

from helpers import count_listings
from oracles import brute_c, brute_p
from test_patterns import identity_embedding


def subdivide_hop(host, emb, key, hop_idx):
    """Subdivide one hop of one route, keeping the embedding in step."""
    route = emb.routes[key]
    x, y = route[hop_idx], route[hop_idx + 1]
    mu = len(emb.hop_edges[key][hop_idx])
    host2, z = m_subdivide(host, x, y)
    routes = dict(emb.routes)
    routes[key] = route[: hop_idx + 1] + (z,) + route[hop_idx + 1:]
    hops = dict(emb.hop_edges)
    old = emb.hop_edges[key]
    hops[key] = (
        old[:hop_idx]
        + (tuple(host2.parallel_edges(x, z)[:mu]),
           tuple(host2.parallel_edges(z, y)[:mu]))
        + old[hop_idx + 1:]
    )
    return host2, MEmbedding(emb.pattern, dict(emb.branch), routes, hops)


class TestLift:
    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_identity_reproduces_reference(self, pat):
        # a pendant edge off the source leaves the embedded labels as they are
        n = len(pat.graph.vertices)
        host = Multigraph.build(n + 1, [e.pair for e in pat.graph.edges] + [(pat.source, n)])
        times = make_witness(host, identity_embedding(pat)).times
        assert {e: times[e] - 1 for e, _ in pat.labels} == dict(pat.labels)

    def test_subdivided_chain_hops_share_the_pair_labels(self):
        host, emb = subdivide_hop(F1.graph, identity_embedding(F1), (3, 4), 0)
        times = make_witness(host, emb).times
        for hop in emb.hop_edges[(3, 4)]:
            assert sorted(times[e] - 1 for e in hop) == [3, 6]


class TestExtend:
    def test_unused_edges_split_by_target(self):
        base = F1.graph
        host = Multigraph.build(
            7, [e.pair for e in base.edges] + [(5, 6), (6, 0)])
        tg = make_witness(host, identity_embedding(F1))
        assert [e for e, _ in tg.entries] == [e.id for e in host.edges]  # in host order
        times = tg.times
        assert times[9] == 1        # touches the target
        assert times[10] == 11      # beyond every embedded label
        assert min(times[e.id] for e in base.edges) == 2

    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_pure_pattern_just_shifts(self, pat):
        times = make_witness(pat.graph, identity_embedding(pat)).times
        assert times == {e: lab + 1 for e, lab in pat.labels}


class TestVerify:
    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: p.name)
    def test_patterns_confirm(self, pat):
        tg = make_witness(pat.graph, identity_embedding(pat))
        report = verify_witness(tg, pat.source, pat.target)
        assert report.confirmed
        assert (report.path_count, report.cut_size) == (1, 2)

    def test_extra_routes_stay_dead(self):
        # a detour around the embedding: too late out, too early back in
        base = F1.graph
        host = Multigraph.build(
            7, [e.pair for e in base.edges] + [(5, 6), (6, 0)])
        tg = make_witness(host, identity_embedding(F1))
        report = verify_witness(tg, 0, 5)
        assert report.confirmed
        assert (report.path_count, report.cut_size) == (1, 2)
        assert brute_p(tg, 0, 5) == 1 and brute_c(tg, 0, 5) == 2

    def test_one_route_listing_per_verification(self, monkeypatch):
        # the packing lists the pair's routes and the cut reuses them; with
        # a source-target chord the packing lists once and the cut is refused
        listed = count_listings(monkeypatch)
        for pat in PATTERNS:
            verify_witness(make_witness(pat.graph, identity_embedding(pat)),
                           pat.source, pat.target)
        chorded = Multigraph.build(6, [e.pair for e in F1.graph.edges] + [(0, 5)])
        verify_witness(make_witness(chorded, identity_embedding(F1)), 0, 5)
        assert len(listed) == len(PATTERNS) + 1

    def test_source_target_chord_leaves_cut_undefined(self):
        base = F1.graph
        host = Multigraph.build(6, [e.pair for e in base.edges] + [(0, 5)])
        tg = make_witness(host, identity_embedding(F1))
        report = verify_witness(tg, 0, 5)
        assert not report.cut_defined
        assert not report.confirmed
        assert report.cut_size is None

    @given(st.integers(0, 120))
    def test_random_subdivisions_keep_the_gap(self, seed):
        rng = random.Random(seed)
        pat = PATTERNS[seed % 3]
        host, emb = pat.graph, identity_embedding(pat)
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(sorted(emb.routes))
            hop_idx = rng.randrange(len(emb.routes[key]) - 1)
            host, emb = subdivide_hop(host, emb, key, hop_idx)
        assert check_m_subdivision(host, emb) is None
        tg = make_witness(host, emb)
        report = verify_witness(tg, emb.source, emb.target)
        assert report.confirmed
        assert (report.path_count, report.cut_size) == (1, 2)
