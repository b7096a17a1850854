"""Shared construction and brute-force comparison helpers for the tests."""

from collections import Counter
from itertools import permutations

from hypothesis import strategies as st

from mengerian import menger
from mengerian.cli import random_multigraph
from mengerian.menger import max_disjoint_paths, min_vertex_cut
from mengerian.multigraph import Edge, Multigraph
from mengerian.temporal import TemporalGraph


def mg(pairs, vertices=None):
    """Multigraph from endpoint pairs; vertex set defaults to the endpoints."""
    if vertices is None:
        vertices = sorted({x for p in pairs for x in p})
    return Multigraph.build(vertices, pairs)


def doubled_k2n(n):
    """K2,n on hubs 0, 1 with every edge at hub 0 doubled: n one-hop chains."""
    return mg([p for m in range(2, n + 2) for p in ((0, m), (0, m), (m, 1))])


def doubled_ladder(k):
    """A ladder of k rungs i-(k+i) on rails 0..k-1 and k..2k-1, every rung
    doubled and the rails single: k one-hop chains."""
    rails = [p for i in range(k - 1) for p in ((i, i + 1), (k + i, k + i + 1))]
    return mg(rails + [(i, k + i) for i in range(k) for _ in range(2)])


def with_pendant_trees(g, k, rng):
    """g with k fresh vertices, each hung by one new edge from a random
    vertex present before it: every new edge is a block of its own."""
    vertices, edges = set(g.vertices), list(g.edges)
    fresh, next_id = max(vertices) + 1, max((e.id for e in edges), default=-1) + 1
    for i in range(k):
        edges.append(Edge(next_id + i, rng.choice(sorted(vertices)), fresh + i))
        vertices.add(fresh + i)
    return Multigraph(frozenset(vertices), tuple(edges))


def mult_map(g):
    """Multiplicity of each adjacent pair."""
    return dict(Counter(e.pair for e in g.edges))


def edge_degree(g, v):
    """Number of edges at v, each parallel edge counted."""
    return sum(v in e.pair for e in g.edges)


def components(g):
    """Vertex sets of the connected components, by breadth-first search."""
    left = set(g.vertices)
    while left:
        comp = {min(left)}
        queue = list(comp)
        while queue:
            for y in g.neighbors(queue.pop()):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        left -= comp
        yield comp


def is_connected(g):
    return sum(1 for _ in components(g)) <= 1


def without_edge(tg, eid):
    """tg with edge eid deleted; every vertex and every other label stays."""
    kept = tuple(e for e in tg.graph.edges if e.id != eid)
    return TemporalGraph.make(Multigraph(tg.graph.vertices, kept),
                              {e.id: tg.label(e.id) for e in kept})


def count_listings(monkeypatch):
    """From now on, the graph of every route listing, one entry per listing."""
    listed = []
    engine = menger._route_paths

    def counted(tg, s, t):
        listed.append(tg)
        return engine(tg, s, t)

    monkeypatch.setattr(menger, "_route_paths", counted)
    return listed


def multigraph_isomorphic(g1, g2, max_vertices=9):
    """Brute-force isomorphism respecting multiplicities.  Small graphs only."""
    v1, v2 = sorted(g1.vertices), sorted(g2.vertices)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False
    if len(v1) > max_vertices:
        raise ValueError(f"refusing brute-force isomorphism beyond {max_vertices} vertices")
    deg1 = sorted((g1.simple_degree(v), edge_degree(g1, v)) for v in v1)
    deg2 = sorted((g2.simple_degree(v), edge_degree(g2, v)) for v in v2)
    if deg1 != deg2:
        return False
    m2 = mult_map(g2)
    for perm in permutations(v2):
        img = dict(zip(v1, perm))
        ok = True
        for (a, b), m in mult_map(g1).items():
            x, y = img[a], img[b]
            if m2.get((x, y) if x < y else (y, x), 0) != m:
                ok = False
                break
        if ok:
            return True
    return False


def canonical_key(g):
    """Canonical form usable for deduplicating small multigraphs up to isomorphism."""
    vs = sorted(g.vertices)
    n = len(vs)
    if n > 7:
        raise ValueError("canonical_key is for small graphs")
    best = None
    base = {v: i for i, v in enumerate(vs)}
    mm = mult_map(g)
    for perm in permutations(range(n)):
        entries = []
        for (a, b), m in mm.items():
            x, y = perm[base[a]], perm[base[b]]
            entries.append((min(x, y), max(x, y), m))
        key = (n, tuple(sorted(entries)))
        if best is None or key < best:
            best = key
    return best


def random_temporal(rng, n, m, max_label=None):
    """`cli.random_multigraph(n, m, m, rng)`, each edge labeled at random
    in 1..max_label, which defaults to the edge count."""
    g = random_multigraph(n, m, m, rng)
    top = max_label or m
    return TemporalGraph.make(g, {e.id: rng.randint(1, top) for e in g.edges})


def p_and_c(tg, s, t):
    """(p, c) of a non-adjacent pair, asked in the order `menger` and
    `verify_witness` ask: the cut first, so an adjacent pair raises
    CutUndefinedError before any route is listed."""
    c = len(min_vertex_cut(tg, s, t))
    return len(max_disjoint_paths(tg, s, t)), c


@st.composite
def small_multigraphs(draw, max_n=6, max_m=9, min_m=0):
    """Multigraphs on 0..n-1, n <= max_n, with min_m to max_m edges drawn at
    random (none on one vertex): parallel edges and isolated vertices come
    up often."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    if n == 1:
        return Multigraph.build(1, [])
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            min_size=min_m,
            max_size=m,
        )
    )
    return Multigraph.build(n, pairs)
