"""Forbidden substructures that break the temporal path/cut equality.

Three fixed multigraphs F1, F2, F3, each with a reference labeling
under which its terminal pair has one more cut vertex than disjoint
paths.  A host graph inherits such a labeling exactly when it contains
one of them as an m-topological minor: a subgraph obtained from the
pattern by replacing each pair of endpoints (with its multiplicity mu)
by a path of hops that each carry exactly mu parallel edges, with fresh
interior vertices.

The parallel edges of one host pair are interchangeable, so an
embedding takes, on every hop, the lowest-id mu edges of the hop's host
pair.  `MEmbedding` records such a containment explicitly, and
`check_m_subdivision` verifies one against a host graph, naming the
first fault.  `assemble_f1` / `assemble_f2` build certified embeddings
of F1 and F2 out of path material.  Every embedding found here gets its
hops' edges, and the check, from one constructor.

`find_f3_subdivision` searches for the F3 shape, a gem: a path through
four teeth, each joined to an apex.  Per apex w it takes the BFS tree of
each component of the graph minus w, cut down to the smallest subtree
holding w's neighbours, and reads a gem off its shape.  When the tree is
a spider, one more BFS around its centre either links two arms into a
gem or shows that the centre separates w's neighbours from one another,
which leaves no room for a gem.  The work is linear per apex, with no
randomness and no backtracking.  `find_gem` is the search at one apex
of a bare adjacency, as the recognizer's contracted chains have.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .multigraph import Chain, InternalError, Multigraph


@dataclass(frozen=True)
class Pattern:
    """A fixed forbidden multigraph with its reference labeling."""

    name: str
    graph: Multigraph
    labels: tuple[tuple[int, int], ...]
    source: int
    target: int
    vertex_names: tuple[tuple[int, str], ...]

    @cached_property
    def pairs(self) -> dict[tuple[int, int], int]:
        """Each adjacent pair (a, b), a < b, in ascending order, with its multiplicity."""
        return {pair: self.graph.multiplicity(*pair)
                for pair in sorted({e.pair for e in self.graph.edges})}

    @cached_property
    def pair_labels(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each adjacent pair (a, b), a < b, with its reference labels, ascending."""
        lab = dict(self.labels)
        return {p: tuple(sorted(lab[e] for e in ids)) for p, ids in self.graph._parallel.items()}

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
    branch[b]; hop_edges gives, per hop of that path, the host edge ids
    it carries: the lowest-id ones of the hop's host pair, exactly the
    pattern pair's multiplicity many.
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


def check_m_subdivision(host: Multigraph, emb: MEmbedding) -> str | None:
    """Why `emb` is not an m-subdivision embedding, or None when it is.

    The routes are checked in pattern pair order and the first fault is
    named.  Each route must join its branch vertices without repeating a
    vertex, and each of its hops carry the lowest-id edges of the hop's
    host pair, exactly its pattern pair's multiplicity of them; the
    routes' interiors must be disjoint and avoid the branch vertices.
    Two hops then join different pairs, so no edge serves twice.  A
    route's hops are compared with the host's parallel classes all at
    once; only when they differ is the first bad hop looked for.
    """
    pat = emb.pattern
    want = pat.pairs
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

    branch, parallel = emb.branch, host._parallel
    branch_img = set(branch.values())
    taken = set(branch_img)  # and every interior vertex of the routes so far
    for (a, b), mu in want.items():
        route, hops = emb.routes[(a, b)], emb.hop_edges[(a, b)]
        if len(route) < 2 or len(hops) != len(route) - 1:
            return f"route for {(a, b)} is malformed"
        if route[0] != branch[a] or route[-1] != branch[b]:
            return f"route for {(a, b)} does not join its branch vertices"
        if len(set(route)) != len(route):
            return f"route for {(a, b)} repeats a vertex"
        lowest = [parallel.get((x, y) if x < y else (y, x), ())[:mu]
                  for x, y in zip(route, route[1:])]
        if set(map(len, hops)) != {mu} or list(hops) != lowest:
            for x, y, ids, low in zip(route, route[1:], hops, lowest):
                if len(ids) != mu or tuple(ids) != low:
                    return (f"hop {x},{y} of {(a, b)} must carry exactly {mu} edges: "
                            "its pair's lowest-id ones")
        interior = route[1:-1]
        if not taken.isdisjoint(interior):
            if not branch_img.isdisjoint(interior):
                return f"route for {(a, b)} passes through a branch vertex"
            return f"route for {(a, b)} shares interior vertices"
        taken.update(interior)
    return None


def _embedding(host: Multigraph, pattern: Pattern, branch: dict[int, int],
               routes: dict[tuple[int, int], tuple[int, ...]]) -> tuple[MEmbedding, str | None]:
    """The embedding along `routes`, with `check_m_subdivision`'s reason.

    Each hop takes its lowest-id parallel edges, as many as its pattern
    pair's multiplicity.
    """
    mult = pattern.pairs
    parallel = host._parallel
    hop_edges = {}
    for key, route in routes.items():
        mu = mult[key]
        hops = []
        for x, y in zip(route, route[1:]):
            par = parallel.get((x, y) if x < y else (y, x), ())
            if len(par) < mu:
                raise AssemblyError(f"pair {x},{y} has multiplicity below {mu}")
            hops.append(tuple(par[:mu]))
        hop_edges[key] = tuple(hops)
    emb = MEmbedding(pattern, branch, routes, hop_edges)
    return emb, check_m_subdivision(host, emb)


# ----------------------------------------------------------------------
# F3: one linear gem search per apex


def find_f3_subdivision(host: Multigraph, apex: int | None = None) -> MEmbedding | None:
    """An F3 embedding in the host, or None.

    F3 has no parallel pairs, so containment only depends on adjacency:
    the search reads the host's distinct neighbours, which are the
    underlying simple graph U, without building U.  With `apex` given,
    only embeddings whose apex lands there are considered.  An F3 with
    apex w is a gem: a spine path in U - w through four teeth, the ends
    of the spine among them, and four legs from the teeth to w that meet
    only at w and leave the spine at once.  Let T = N(w).

    For each w of degree 4 or more and each component C of U - w that
    holds at least four vertices of T and two vertices of degree 3 or
    more (a spine, its teeth and all legs but their last hop lie in one
    such component, and the middle teeth have degree 3), let tau be the
    BFS tree of C cut down to the smallest subtree holding T; its leaves
    lie in T.  `_gem_in` reads a gem off tau, or finds none:

    - two branch vertices u, v: the spine runs from a T vertex behind u
      through the tree path u..v to a T vertex behind v; a third branch
      at u and at v carries the legs of teeth u and v;
    - a spider (one branch vertex c) with two vertices x, y of T on one
      arm: the spine runs from another arm's T vertex through c, x and
      y, and c's leg follows a third arm (or is the edge c-w);
    - a path: its first four T vertices are the teeth;
    - a spider whose arms hold one T vertex each, the leaf: one BFS of
      C - c from all arm vertices.  A path R from arm i at r_i to arm j
      at r_j gives the spine t_i..r_i, R, r_j..c..t_k along a third arm
      k, with teeth t_i, r_j, c and t_k; r_j's leg runs out along arm j,
      c's is the edge c-w or a fourth arm, which exists because C holds
      four vertices of T.  With no such R every component of C - c
      holds at most one vertex of T, and then C holds no gem: remove c
      from a gem's spine and legs.  If c is not on the spine, the spine
      with three legs stays connected; if it is, one side of the spine
      keeps two teeth other than c, and their legs avoid c.  Either way
      one component of C - c holds two legs' last vertices before w,
      which are distinct vertices of T.

    So a gem is returned exactly when one exists.  Each apex costs one
    pass over each component and at most one more BFS of it: no
    recursion and no search per candidate vertex.  Every embedding is
    checked edge by edge before it is returned.
    """
    for w in ([apex] if apex is not None else sorted(host.vertices)):
        found = find_gem(host._adj, w)
        if found is not None:
            emb, reason = _embedding(host, F3, *found)
            if reason is not None:
                raise InternalError(f"gem search produced a bad embedding: {reason}")
            return emb
    return None


def find_gem(adj: dict[int, tuple[int, ...]], w: int):
    """Checked (branch, routes) of an F3 with apex w, or None: the search
    of `find_f3_subdivision` on an adjacency like `Multigraph._adj`."""
    if len(adj[w]) < 4:
        return None
    T = set(adj[w])
    seen = {w}
    # any root finds a gem when there is one; the root only picks among
    # symmetric gems.  Entering each component at a vertex of T with the
    # most neighbours in T reports the crossed shapes that
    # tests/test_recognizer.py pins.
    for root in sorted(T, key=lambda t: (-len(T.intersection(adj[t])), t)):
        if root in seen:
            continue
        seen.add(root)
        parent: dict[int, int | None] = {root: None}
        order = [root]
        in_t = branching = 0
        for x in order:
            ns = adj[x]
            in_t += x in T
            branching += len(ns) >= 3
            for y in ns:
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    order.append(y)
        if in_t >= 4 and branching >= 2:
            found = _gem_in(adj, w, T, order, parent)
            if found is not None:
                return _gem_routes(adj, w, *found)
    return None


def _gem_in(adj: dict[int, tuple[int, ...]], w: int, T: set[int], order: list[int],
            parent: dict[int, int | None]):
    """A gem with apex w inside one component of U - w, or None.

    `order` and `parent` give the component's BFS tree, rooted in T.
    """
    # tau keeps a vertex exactly when its subtree meets T (the root is in T)
    below = dict.fromkeys(order, 0)
    for v in reversed(order):
        below[v] += v in T
        if parent[v] is not None:
            below[parent[v]] += below[v]
    tau: dict[int, list[int]] = {v: [] for v in order if below[v]}
    for v in order[1:]:
        if below[v]:
            tau[v].append(parent[v])
            tau[parent[v]].append(v)
    leaves = {v for v, nbrs in tau.items() if len(nbrs) == 1}

    def walk(prev: int, x: int, stop: set[int]) -> list[int]:
        """The tau path from x away from prev to the first vertex in stop."""
        path = [x]
        while x not in stop:
            prev, x = x, next(y for y in tau[x] if y != prev)
            path.append(x)
        return path

    branch = [v for v, nbrs in tau.items() if len(nbrs) >= 3]
    if not branch:
        end = min(leaves)
        line = [end] + walk(end, tau[end][0], leaves)
        teeth = [x for x in line if x in T][:4]
        return line[:line.index(teeth[3]) + 1], [(t, w) for t in teeth]

    if len(branch) >= 2:
        u, v = branch[:2]
        up = [u]
        while parent[up[-1]] is not None:
            up.append(parent[up[-1]])
        height = {x: i for i, x in enumerate(up)}
        down = [v]
        while down[-1] not in height:
            down.append(parent[down[-1]])
        mid = up[:height[down[-1]]] + down[::-1]
        a_side, b_side = [walk(u, y, T) for y in tau[u] if y != mid[1]][:2]
        c_side, d_side = [walk(v, y, T) for y in tau[v] if y != mid[-2]][:2]
        spine = a_side[::-1] + mid + d_side
        return spine, [(spine[0], w), (u, *b_side, w), (v, *c_side, w), (spine[-1], w)]

    c = branch[0]
    arms = [walk(c, y, leaves) for y in tau[c]]

    def c_leg(skip: tuple[int, ...]) -> tuple[int, ...]:
        if c in T:
            return (c, w)
        arm = next(a for i, a in enumerate(arms) if i not in skip)
        return (c, *walk(c, arm[0], T), w)

    for i, arm in enumerate(arms):
        hits = [x for x in arm if x in T]
        if len(hits) >= 2:
            j = next(n for n in range(len(arms)) if n != i)
            x, y = hits[:2]
            spine = walk(c, arms[j][0], T)[::-1] + [c] + arm[:arm.index(y) + 1]
            return spine, [(spine[0], w), c_leg((i, j)), (x, w), (y, w)]

    # each arm holds one vertex of T, its leaf
    owner = {x: i for i, arm in enumerate(arms) for x in arm}
    via: dict[int, int] = {}

    def back(x: int) -> list[int]:
        path = [x]
        while path[-1] in via:
            path.append(via[path[-1]])
        return path

    queue = deque(owner)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y == c or y == w:
                continue
            if y not in owner:
                owner[y], via[y] = owner[x], x
                queue.append(y)
            elif owner[y] != owner[x]:
                link = back(x)[::-1] + back(y)
                i, j = owner[x], owner[y]
                k = next(n for n in range(len(arms)) if n not in (i, j))
                ri = arms[i].index(link[0])
                rj = arms[j].index(link[-1])
                spine = (arms[i][ri:][::-1] + link[1:-1] + arms[j][rj::-1]
                         + [c] + arms[k])
                return spine, [(spine[0], w), (*arms[j][rj:], w),
                               c_leg((i, j, k)), (spine[-1], w)]
    return None  # c is a star centre


def _gem_routes(adj: dict[int, tuple[int, ...]], w: int, spine: list[int],
                legs: list[tuple[int, ...]]):
    """F3's branch map and routes: the teeth legs[k][0] lie on the spine in order.

    The spine runs from its smaller end and is cut at the teeth.  Each
    route must be a path of `adj` that repeats no vertex, the interiors
    disjoint and clear of the branch vertices: for F3, whose pairs are
    all single, `check_m_subdivision` without edge ids.
    """
    if spine[0] > spine[-1]:
        spine, legs = spine[::-1], legs[::-1]
    cut = [spine.index(leg[0]) for leg in legs]
    routes = {(k, k + 1): tuple(spine[cut[k]:cut[k + 1] + 1]) for k in range(3)}
    routes.update({(k, 4): tuple(leg) for k, leg in enumerate(legs)})
    branch = {**{k: leg[0] for k, leg in enumerate(legs)}, 4: w}
    taken = set(branch.values())
    for key in F3.pairs:
        route = routes[key]
        if (len(route) < 2 or len(set(route)) != len(route) or not taken.isdisjoint(route[1:-1])
                or any(y not in adj[x] for x, y in zip(route, route[1:]))):
            raise InternalError(f"gem search produced a bad embedding: route for {key}"
                                " is not a simple path clear of the others")
        taken.update(route[1:-1])
    return branch, routes


# ----------------------------------------------------------------------
# F1 and F2 out of path material around a doubled chain


def _oriented(route: tuple[int, ...], start: int) -> tuple[int, ...]:
    if route[0] == start:
        return route
    if route[-1] == start:
        return tuple(reversed(route))
    raise AssemblyError(f"route {route} does not start or end at {start}")


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
    avoiding both.  The hub is the first chain end, z0 then zq, that
    leaves a spare interior vertex before each attachment point; the
    embedding on it is built and checked once.
    """
    z0, zq = chain.first, chain.last
    joint = _oriented(joint, j1)
    for hub, other in ((z0, zq), (zq, z0)):
        r1, r2 = _oriented(c1, hub), _oriented(c2, hub)
        i1, i2 = r1.index(j1), r2.index(j2)
        if i1 >= 2 and i2 >= 2:
            break
    else:
        raise AssemblyError("neither chain end leaves a spare vertex before both attachments")
    s, t = r1[1], r2[1]
    emb, reason = _embedding(host, F1, {0: s, 1: j1, 2: j2, 3: hub, 4: other, 5: t}, {
        (0, 1): r1[1:i1 + 1],
        (0, 3): (s, hub),
        (1, 4): r1[i1:],
        (3, 5): (hub, t),
        (2, 5): r2[i2:0:-1],
        (2, 4): r2[i2:],
        (1, 2): joint,
        (3, 4): _oriented(chain.vertices, hub),
    })
    if reason is not None:
        raise AssemblyError(f"hub {hub}: {reason}")
    return emb


def _spare_arcs(cycle: tuple[int, ...], j: int,
                which: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The arc of a closed cycle from its start to j, and the arc from j
    back, oriented so that the first holds a spare interior vertex: the
    way the cycle is written when that works, else the other way."""
    k = cycle.index(j)
    out, back = cycle[:k + 1], cycle[k:]
    if len(out) >= 3:
        return out, back
    if len(back) >= 3:
        return back[::-1], out[::-1]
    raise AssemblyError(f"no spare vertex on the {which} cycle")


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
    and j2 at the other end; joint runs j1 to j2.  On each cycle the
    first arc to its attachment point that holds a spare interior vertex
    is taken, and the embedding on them is built and checked once.
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
    s_arc, u_arc = _spare_arcs(cyc1, jj1, "first")
    t_arc, v_arc = _spare_arcs(cyc2, jj2, "second")
    s, t = s_arc[1], t_arc[1]
    emb, reason = _embedding(host, F2, {0: s, 1: jj1, 2: jj2, 3: z0, 4: zq, 5: t}, {
        (0, 1): s_arc[1:],
        (0, 3): (s, z0),
        (1, 3): u_arc,
        (1, 2): joint,
        (3, 4): _oriented(chain.vertices, z0),
        (4, 5): (zq, t),
        (2, 5): t_arc[:0:-1],
        (2, 4): v_arc,
    })
    if reason is not None:
        raise AssemblyError(reason)
    return emb
