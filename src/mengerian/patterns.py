"""Forbidden substructures that break the temporal path/cut equality.

Three fixed multigraphs F1, F2, F3, each with a reference labeling
under which its terminal pair has one more cut vertex than disjoint
paths.  A host graph inherits such a labeling exactly when it contains
one of them as an m-topological minor: a subgraph obtained from the
pattern by replacing each pair of endpoints (with its multiplicity mu)
by a path of hops that each carry exactly mu parallel edges, with fresh
interior vertices.

`MEmbedding` records such a containment explicitly; `check_m_subdivision`
verifies one against a host graph edge by edge.  `find_f3_subdivision`
searches for the F3 shape, and `assemble_f1` / `assemble_f2` build
certified embeddings of the other two patterns out of path material.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .multigraph import Chain, GraphError, InternalError, Multigraph
from .temporal import TemporalGraph


@dataclass(frozen=True)
class Pattern:
    """A fixed forbidden multigraph with its reference labeling."""

    name: str
    graph: Multigraph
    labels: tuple[tuple[int, int], ...]
    source: int
    target: int
    vertex_names: tuple[tuple[int, str], ...]

    def temporal(self) -> TemporalGraph:
        """The pattern under its reference labeling."""
        return TemporalGraph.make(self.graph, dict(self.labels))

    def pair_labels(self, a: int, b: int) -> tuple[int, ...]:
        """Reference labels of the a,b parallel class, by ascending edge id."""
        lab = dict(self.labels)
        return tuple(lab[e] for e in self.graph.parallel_edges(a, b))

    def display_name(self, v: int) -> str:
        return dict(self.vertex_names).get(v, str(v))


F1 = Pattern(
    name="F1",
    graph=Multigraph.build(6, [
        (0, 1), (1, 4), (3, 4), (3, 5), (0, 3), (3, 4), (1, 2), (4, 2), (2, 5),
    ]),
    labels=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)),
    source=0,
    target=5,
    vertex_names=((0, "source"), (1, "inner1"), (2, "inner2"),
                  (3, "hub"), (4, "hub'"), (5, "target")),
)

F2 = Pattern(
    name="F2",
    graph=Multigraph.build(6, [
        (0, 1), (1, 3), (3, 4), (4, 5), (0, 3), (3, 4), (1, 2), (4, 2), (2, 5),
    ]),
    labels=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)),
    source=0,
    target=5,
    vertex_names=((0, "source"), (1, "inner1"), (2, "inner2"),
                  (3, "hub"), (4, "hub'"), (5, "target")),
)

F3 = Pattern(
    name="F3",
    graph=Multigraph.build(5, [
        (0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3),
    ]),
    labels=((0, 1), (1, 2), (2, 3), (3, 2), (4, 1), (5, 2), (6, 1)),
    source=0,
    target=3,
    vertex_names=((0, "source"), (1, "mid1"), (2, "mid2"),
                  (3, "target"), (4, "apex")),
)

PATTERNS = (F1, F2, F3)


class AssemblyError(RuntimeError):
    """Path material did not assemble into a certified embedding."""


@dataclass
class MEmbedding:
    """An m-topological-minor containment of a pattern in a host graph.

    branch maps pattern vertices to host vertices.  routes maps each
    pattern pair (a, b), a < b, to the host path from branch[a] to
    branch[b]; hop_edges gives, per hop of that path, the chosen host
    edge ids (exactly the pair's multiplicity many).
    """

    pattern: Pattern
    branch: dict[int, int]
    routes: dict[tuple[int, int], tuple[int, ...]]
    hop_edges: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = field(repr=False)

    @property
    def source(self) -> int:
        return self.branch[self.pattern.source]

    @property
    def target(self) -> int:
        return self.branch[self.pattern.target]

    def used_edges(self) -> frozenset[int]:
        return frozenset(e for hops in self.hop_edges.values() for h in hops for e in h)


def _pattern_pairs(pattern: Pattern) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for e in pattern.graph.edges:
        out[e.pair] = pattern.graph.multiplicity(*e.pair)
    return out


def check_m_subdivision(host: Multigraph, emb: MEmbedding) -> str | None:
    """Why `emb` is not an m-subdivision embedding, or None when it is."""
    pat = emb.pattern
    want = _pattern_pairs(pat)
    if set(emb.routes) != set(want):
        return f"routes cover {sorted(emb.routes)}, pattern has {sorted(want)}"
    if set(emb.hop_edges) != set(want):
        return "hop edge selections do not cover the pattern pairs"
    if sorted(emb.branch) != sorted(pat.graph.vertices):
        return "branch map does not cover the pattern vertices"
    if len(set(emb.branch.values())) != len(emb.branch):
        return "branch map is not injective"
    for v in emb.branch.values():
        if not host.has_vertex(v):
            return f"branch image {v} is not a host vertex"

    branch_img = set(emb.branch.values())
    seen_interior: set[int] = set()
    seen_edges: set[int] = set()
    for (a, b), mu in sorted(want.items()):
        route = emb.routes[(a, b)]
        hops = emb.hop_edges[(a, b)]
        if len(route) < 2 or len(hops) != len(route) - 1:
            return f"route for {(a, b)} is malformed"
        if route[0] != emb.branch[a] or route[-1] != emb.branch[b]:
            return f"route for {(a, b)} does not join its branch vertices"
        if len(set(route)) != len(route):
            return f"route for {(a, b)} repeats a vertex"
        for x, y, ids in zip(route, route[1:], hops):
            if len(set(ids)) != mu:
                return f"hop {x},{y} of {(a, b)} needs exactly {mu} edges"
            for eid in ids:
                try:
                    e = host.edge(eid)
                except GraphError:
                    return f"edge {eid} does not exist in the host"
                if e.pair != (min(x, y), max(x, y)):
                    return f"edge {eid} does not join {x} and {y}"
                if eid in seen_edges:
                    return f"edge {eid} is used twice"
                seen_edges.add(eid)
        interior = set(route[1:-1])
        if interior & branch_img:
            return f"route for {(a, b)} passes through a branch vertex"
        if interior & seen_interior:
            return f"route for {(a, b)} shares interior vertices"
        seen_interior |= interior
    return None


def is_m_subdivision(host: Multigraph, emb: MEmbedding) -> bool:
    return check_m_subdivision(host, emb) is None


# ----------------------------------------------------------------------
# F3: a topological-minor search, exact backtracking


def _segment_paths(U: Multigraph, x: int, y: int, banned: frozenset[int]):
    """Simple x..y paths, interior avoiding `banned`, direct edges first."""

    def dfs(cur: int, vpath: list[int]):
        if cur == y:
            yield tuple(vpath)
            return
        nbrs = U.neighbors(cur)
        ordered = ([y] if y in nbrs else []) + [n for n in nbrs if n != y]
        for nxt in ordered:
            if nxt in vpath or (nxt != y and nxt in banned):
                continue
            vpath.append(nxt)
            yield from dfs(nxt, vpath)
            vpath.pop()

    yield from dfs(x, [x])


def _place_segments(U, segs, banned, used, out):
    if not segs:
        return True
    x, y = segs[0]
    for path in _segment_paths(U, x, y, banned):
        interior = set(path[1:-1])
        if interior & used:
            continue
        out.append(path)
        if _place_segments(U, segs[1:], banned, used | interior, out):
            return True
        out.pop()
    return False


def _min_parallels(host: Multigraph, route: tuple[int, ...], mu: int):
    hops = []
    for x, y in zip(route, route[1:]):
        par = host.parallel_edges(x, y)
        if len(par) < mu:
            raise AssemblyError(f"pair {x},{y} has multiplicity below {mu}")
        hops.append(tuple(par[:mu]))
    return tuple(hops)


_GREEDY_MIN_VERTICES = 20


def _corner_zones(U: Multigraph, w: int) -> dict[int, int]:
    """Where the corners of a gem with apex w can sit.

    Maps every vertex of H = U - w that lies in a component of H holding
    at least four neighbours of w to a key of that component.  In a gem
    with apex w the outer path avoids w, and the four fan paths leave w
    through four distinct neighbours and then stay in H, so all four
    corners lie in one such component.
    """
    nbrs = set(U.neighbors(w))
    zone: dict[int, int] = {}
    seen = {w}
    for root in U.neighbors(w):
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for x in comp:
            for y in U.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        if len(nbrs.intersection(comp)) >= 4:
            zone.update(dict.fromkeys(comp, root))
    return zone


def _zone(U: Multigraph, w: int, zones: dict[int, dict[int, int]]) -> dict[int, int]:
    """`_corner_zones(U, w)`, computed once per apex."""
    if w not in zones:
        zones[w] = _corner_zones(U, w)
    return zones[w]


def _shortest_avoiding(U: Multigraph, x: int, y: int, used: set[int]):
    """Shortest simple x..y path whose interior avoids `used`, or None."""
    prev: dict[int, int | None] = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for n in U.neighbors(v):
            if n == y:
                path = [y]
                cur: int | None = v
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                return tuple(reversed(path))
            if n in used or n in prev:
                continue
            prev[n] = v
            queue.append(n)
    return None


def _greedy_gem(host: Multigraph, U: Multigraph, apexes: list[int],
                zones: dict[int, dict[int, int]],
                attempts: int = 500) -> MEmbedding | None:
    """Seeded randomized fast path for large hosts: corners drawn from the
    apex neighborhood, outer path segments filled by shortest paths.  Finds
    only; absence still needs the exhaustive search.

    A sample a, b, c, d around apex w can only succeed when the middle
    corners b and c have degree at least 3 (w plus both outer segments)
    and all four corners share a component of U - w (`_corner_zones`).
    Samples failing that are drawn but not searched, and when no apex has
    two neighbours of degree 3 or more the pass returns before drawing at
    all.  Neither changes which embedding comes back.
    """
    deg = U.simple_degree
    if not any(sum(deg(x) >= 3 for x in U.neighbors(w)) >= 2 for w in apexes):
        return None
    rng = random.Random(0xF3)
    for k in range(attempts):
        w = apexes[k % len(apexes)]
        a, b, c, d = rng.sample(U.neighbors(w), 4)
        if deg(b) < 3 or deg(c) < 3:
            continue
        zone = _zone(U, w, zones)
        z = zone.get(a)
        if z is None or any(zone.get(x) != z for x in (b, c, d)):
            continue
        used = {w, a, b, c, d}
        placed = []
        for x, y in ((a, b), (b, c), (c, d)):
            path = _shortest_avoiding(U, x, y, used)
            if path is None:
                break
            used |= set(path[1:-1])
            placed.append(path)
        if len(placed) < 3:
            continue
        ab, bc, cd = placed
        routes = {
            (0, 1): ab,
            (1, 2): bc,
            (2, 3): cd,
            (0, 4): (a, w),
            (1, 4): (b, w),
            (2, 4): (c, w),
            (3, 4): (d, w),
        }
        emb = MEmbedding(
            pattern=F3,
            branch={0: a, 1: b, 2: c, 3: d, 4: w},
            routes=routes,
            hop_edges={key: _min_parallels(host, r, 1) for key, r in routes.items()},
        )
        reason = check_m_subdivision(host, emb)
        if reason is not None:
            raise InternalError(f"greedy gem search produced a bad embedding: {reason}")
        return emb
    return None


def find_f3_subdivision(host: Multigraph, apex: int | None = None) -> MEmbedding | None:
    """An F3 embedding in the host, or None.

    The search runs on the underlying simple graph U: F3 has no parallel
    pairs, so containment only depends on adjacency.  With `apex` given,
    only embeddings whose apex lands there are considered.  On large
    hosts a seeded greedy pass runs first; it only ever finds, so the
    exhaustive sweep below stays the authority on absence.

    Both passes skip candidates that fail a necessary condition: an apex
    w needs degree 4; the middle corners need degree 3 and the end
    corners degree 2; and all four corners lie in one component of U - w
    that holds at least four neighbours of w.  Skipped candidates are
    exactly ones the search would have rejected, so the enumeration
    order, the greedy pass's random stream and the embedding returned
    are the same as without the pruning.
    """
    U = host.underlying_simple()
    apexes = [w for w in ([apex] if apex is not None else sorted(U.vertices))
              if U.simple_degree(w) >= 4]
    zones: dict[int, dict[int, int]] = {}
    if len(U.vertices) >= _GREEDY_MIN_VERTICES:
        emb = _greedy_gem(host, U, apexes, zones)
        if emb is not None:
            return emb
    for w in apexes:
        emb = _gem_with_apex(host, U, w, _zone(U, w, zones))
        if emb is not None:
            return emb
    return None


def _gem_with_apex(host: Multigraph, U: Multigraph, w: int,
                   zone: dict[int, int]) -> MEmbedding | None:
    deg = U.simple_degree
    ends = [v for v in sorted(zone) if deg(v) >= 2]
    mids = [v for v in ends if deg(v) >= 3]
    if len(mids) < 2:
        return None
    for a in ends:
        for d in ends:
            # d > a by reversal symmetry of the outer path
            if d <= a or zone[d] != zone[a]:
                continue
            for b in mids:
                if b in (a, d) or zone[b] != zone[a]:
                    continue
                for c in mids:
                    if c in (a, b, d) or zone[c] != zone[a]:
                        continue
                    branches = frozenset((w, a, b, c, d))
                    segs = [(a, b), (b, c), (c, d), (w, a), (w, b), (w, c), (w, d)]
                    placed: list[tuple[int, ...]] = []
                    if not _place_segments(U, segs, branches, set(), placed):
                        continue
                    ab, bc, cd, wa, wb, wc, wd = placed
                    routes = {
                        (0, 1): ab,
                        (1, 2): bc,
                        (2, 3): cd,
                        (0, 4): tuple(reversed(wa)),
                        (1, 4): tuple(reversed(wb)),
                        (2, 4): tuple(reversed(wc)),
                        (3, 4): tuple(reversed(wd)),
                    }
                    emb = MEmbedding(
                        pattern=F3,
                        branch={0: a, 1: b, 2: c, 3: d, 4: w},
                        routes=routes,
                        hop_edges={k: _min_parallels(host, r, 1) for k, r in routes.items()},
                    )
                    reason = check_m_subdivision(host, emb)
                    if reason is not None:
                        raise InternalError(f"gem search produced a bad embedding: {reason}")
                    return emb
    return None


# ----------------------------------------------------------------------
# F1 and F2 out of path material around a doubled chain


def _oriented(route: tuple[int, ...], start: int) -> tuple[int, ...]:
    if route[0] == start:
        return route
    if route[-1] == start:
        return tuple(reversed(route))
    raise AssemblyError(f"route {route} does not start or end at {start}")


def _chain_hops(host: Multigraph, chain: Chain, start: int):
    route = _oriented(chain.vertices, start)
    return route, _min_parallels(host, route, 2)


def assemble_f1(
    host: Multigraph,
    chain: Chain,
    c1: tuple[int, ...],
    c2: tuple[int, ...],
    j1: int,
    j2: int,
    joint: tuple[int, ...],
) -> MEmbedding:
    """Certified F1 embedding from two crossing chains and a connector.

    c1 and c2 run between the ends of the doubled chain, internally
    disjoint; j1 sits inside c1 and j2 inside c2; joint runs j1 to j2
    avoiding both.  The hub ends up at whichever chain end leaves a
    spare interior vertex before each attachment point.
    """
    z0, zq = chain.first, chain.last
    joint = _oriented(joint, j1)
    reasons = []
    for hub in (z0, zq):
        r1 = _oriented(c1, hub)
        r2 = _oriented(c2, hub)
        i1 = r1.index(j1)
        i2 = r2.index(j2)
        if i1 < 2 or i2 < 2:
            reasons.append(f"hub {hub}: no spare vertex before an attachment")
            continue
        other = zq if hub == z0 else z0
        s, t = r1[1], r2[1]
        chain_route, chain_edges = _chain_hops(host, chain, hub)
        routes = {
            (0, 1): r1[1:i1 + 1],
            (0, 3): (s, hub),
            (1, 4): r1[i1:],
            (3, 5): (hub, t),
            (2, 5): tuple(reversed(r2[1:i2 + 1])),
            (2, 4): r2[i2:],
            (1, 2): joint,
            (3, 4): chain_route,
        }
        emb = MEmbedding(
            pattern=F1,
            branch={0: s, 1: j1, 2: j2, 3: hub, 4: other, 5: t},
            routes=routes,
            hop_edges={
                k: (chain_edges if k == (3, 4) else _min_parallels(host, r, 1))
                for k, r in routes.items()
            },
        )
        reason = check_m_subdivision(host, emb)
        if reason is None:
            return emb
        reasons.append(f"hub {hub}: {reason}")
    raise AssemblyError("; ".join(reasons))


def assemble_f2(
    host: Multigraph,
    chain: Chain,
    cycle1: tuple[int, ...],
    j1: int,
    cycle2: tuple[int, ...],
    j2: int,
    joint: tuple[int, ...],
) -> MEmbedding:
    """Certified F2 embedding from a cycle at each chain end and a connector.

    cycle1 passes through the first chain end and is written closed
    (first == last); j1 is one of its interior vertices, likewise cycle2
    and j2 at the other end; joint runs j1 to j2.  One arc of each cycle
    must hold a spare interior vertex beyond the attachment point.
    """
    z0, zq = chain.first, chain.last
    if cycle1[0] != cycle1[-1] or cycle2[0] != cycle2[-1]:
        raise AssemblyError("cycles must be written closed")
    cyc1 = cycle1 if cycle1[0] == z0 else cycle2
    cyc2 = cycle2 if cycle1[0] == z0 else cycle1
    if cyc1[0] != z0 or cyc2[0] != zq:
        raise AssemblyError("need one cycle through each chain end")
    jj1, jj2 = (j1, j2) if cycle1[0] == z0 else (j2, j1)
    joint = _oriented(joint, jj1)

    k1 = cyc1.index(jj1)
    arc_a = cyc1[: k1 + 1]                       # z0 .. j1
    arc_b = cyc1[k1:]                             # j1 .. z0
    k2 = cyc2.index(jj2)
    arc_c = cyc2[: k2 + 1]                       # zq .. j2
    arc_d = cyc2[k2:]                             # j2 .. zq

    chain_route, chain_edges = _chain_hops(host, chain, z0)
    reasons = []
    for s_arc, u_arc in ((arc_a, arc_b), (tuple(reversed(arc_b)), tuple(reversed(arc_a)))):
        if len(s_arc) < 3:
            reasons.append("no spare vertex on the first cycle")
            continue
        for t_arc, v_arc in ((arc_c, arc_d), (tuple(reversed(arc_d)), tuple(reversed(arc_c)))):
            if len(t_arc) < 3:
                reasons.append("no spare vertex on the second cycle")
                continue
            s, t = s_arc[1], t_arc[1]
            routes = {
                (0, 1): s_arc[1:],
                (0, 3): (s, z0),
                (1, 3): u_arc,
                (1, 2): joint,
                (3, 4): chain_route,
                (4, 5): (zq, t),
                (2, 5): tuple(reversed(t_arc[1:])),
                (2, 4): v_arc,
            }
            emb = MEmbedding(
                pattern=F2,
                branch={0: s, 1: jj1, 2: jj2, 3: z0, 4: zq, 5: t},
                routes=routes,
                hop_edges={
                    k: (chain_edges if k == (3, 4) else _min_parallels(host, r, 1))
                    for k, r in routes.items()
                },
            )
            reason = check_m_subdivision(host, emb)
            if reason is None:
                return emb
            reasons.append(reason)
    raise AssemblyError("; ".join(reasons))
