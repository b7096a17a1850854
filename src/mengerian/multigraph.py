"""Undirected multigraphs with stable integer ids.

Vertices are non-negative ints, edges carry an id and an unordered pair of
distinct endpoints (self-loops are rejected).  All values are immutable
and compare by value; a transformation that changes the graph returns a
new one, and `biconnected_components` returns a 2-connected graph itself
as its one block, indexes and all.  Edge ids survive transformations
that keep the edge, which lets embeddings and labelings refer to edges of
the original graph no matter how many derived graphs sit in between.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-domain arguments."""


class InternalError(RuntimeError):
    """A result failed the package's own consistency check: a bug, not bad input.

    Raised where an `assert` would be stripped by `python -O`.
    """


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class _EdgeFields(NamedTuple):
    id: int
    u: int
    v: int


class Edge(_EdgeFields):
    """One edge: its id and its ends, ordered so that u < v.

    A tuple (id, u, v), so edges compare, hash and sort as those tuples
    do; building one from ends in either order gives the same value.
    """

    __slots__ = ()

    def __new__(cls, id: int, u: int, v: int) -> "Edge":
        if u < v:
            return tuple.__new__(cls, (id, u, v))
        if u > v:
            return tuple.__new__(cls, (id, v, u))
        raise GraphError(f"edge {id}: self-loop at vertex {u}")

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Edge":
        # `_replace` builds through here, so it orders the ends too
        return cls(*iterable)

    pair = property(itemgetter(slice(1, 3)), doc="(u, v)")


_ID, _U, _V = itemgetter(0), itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class Multigraph:
    vertices: frozenset[int] = field(default_factory=frozenset)
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        vs = frozenset(self.vertices)
        es = tuple(sorted(self.edges, key=_ID))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        # set-wide checks first; the per-edge loop only names what failed
        if (len(set(map(_ID, es))) == len(es)
                and vs.issuperset(map(_U, es)) and vs.issuperset(map(_V, es))
                and not set(map(type, vs)) - {int} and (not vs or min(vs) >= 0)):
            return
        seen: set[int] = set()
        for e in es:
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if e.u not in vs or e.v not in vs:
                raise GraphError(f"edge {e.id}: endpoint not a declared vertex")
        for v in vs:
            if not isinstance(v, int) or v < 0:
                raise GraphError(f"vertex ids must be non-negative ints, got {v!r}")

    # ------------------------------------------------------------------
    # construction helpers

    @staticmethod
    def build(vertices: Iterable[int] | int, pairs: Iterable[tuple[int, int]] = ()) -> "Multigraph":
        """Build from a vertex set (or a count n meaning 0..n-1) and endpoint pairs.

        Edge ids are assigned densely in the order the pairs are given.
        """
        if isinstance(vertices, int):
            vs = frozenset(range(vertices))
        else:
            vs = frozenset(vertices)
        es = tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs))
        return Multigraph(vs, es)

    @staticmethod
    def prechecked(vertices: frozenset[int], edges: tuple[Edge, ...], **indexes) -> "Multigraph":
        """The graph as given, with no checks: its caller makes sure that edge
        ids are distinct and ascending and ends lie among the vertices (ints,
        not negative).  `indexes` may hold `_parallel` and `_adj` as those
        would be built; an index not given is built when first read."""
        g = object.__new__(Multigraph)
        vars(g).update(vertices=vertices, edges=edges, **indexes)
        return g

    # ------------------------------------------------------------------
    # cached structure

    @cached_property
    def _by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        """Distinct neighbours of each vertex, ascending: the adjacency of
        the underlying simple graph."""
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        # in sorted pair order each list grows in ascending order
        for u, v in sorted(self._parallel):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(ns) for v, ns in nbrs.items()}

    @cached_property
    def _parallel(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Edge ids of each adjacent pair, ascending."""
        groups: dict[tuple[int, int], list[int]] = {}
        for e in self.edges:
            groups.setdefault((e.u, e.v), []).append(e.id)
        return {p: tuple(ids) for p, ids in groups.items()}

    # ------------------------------------------------------------------
    # queries

    def has_vertex(self, v: int) -> bool:
        return v in self.vertices

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between u and v (0 when non-adjacent)."""
        if u not in self.vertices or v not in self.vertices:
            raise GraphError(f"unknown vertex in pair ({u}, {v})")
        if u == v:
            raise GraphError("multiplicity is undefined for a single vertex")
        return len(self._parallel.get(_norm(u, v), ()))

    def adjacent(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def parallel_edges(self, u: int, v: int) -> tuple[int, ...]:
        """Ids of the u-v parallel class, ascending (empty when non-adjacent)."""
        if u not in self.vertices or v not in self.vertices:
            raise GraphError(f"unknown vertex in pair ({u}, {v})")
        return self._parallel.get(_norm(u, v), ())

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def simple_degree(self, v: int) -> int:
        """Number of distinct neighbors."""
        return len(self.neighbors(v))

    def has_parallel_edges(self) -> bool:
        return any(len(ids) >= 2 for ids in self._parallel.values())

    def max_simple_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    # ------------------------------------------------------------------
    # derived graphs

    def underlying_simple(self) -> "Multigraph":
        """Keep one edge per adjacent pair: the one with the smallest id."""
        keep = [self._by_id[ids[0]] for ids in self._parallel.values()]
        return Multigraph(self.vertices, tuple(keep))

    def remove_vertices(self, drop: Iterable[int]) -> "Multigraph":
        ds = set(drop)
        unknown = ds - self.vertices
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        keep_edges = tuple(e for e in self.edges if e.u not in ds and e.v not in ds)
        return Multigraph(self.vertices - ds, keep_edges)


# ----------------------------------------------------------------------
# transformations


def identify(g: Multigraph, zset: Iterable[int]) -> tuple[Multigraph, int]:
    """Merge the vertices of zset into one fresh vertex.

    Edges inside zset are dropped, edges with exactly one endpoint in zset
    are re-attached to the fresh vertex keeping their ids, the rest are
    untouched.  Returns (graph, fresh vertex id).
    """
    zs = frozenset(zset)
    if not zs:
        raise GraphError("cannot identify an empty vertex set")
    unknown = zs - g.vertices
    if unknown:
        raise GraphError(f"unknown vertices {sorted(unknown)}")
    z = max(g.vertices) + 1
    new_edges = []
    for e in g.edges:
        inside = (e.u in zs) + (e.v in zs)
        if inside == 2:
            continue
        if inside == 1:
            out = e.v if e.u in zs else e.u
            new_edges.append(Edge(e.id, out, z))
        else:
            new_edges.append(e)
    return Multigraph((g.vertices - zs) | {z}, tuple(new_edges)), z


def m_subdivide(g: Multigraph, u: int, v: int) -> tuple[Multigraph, int]:
    """Subdivide the whole u-v parallel class through a fresh vertex.

    The mu parallel u-v edges are replaced by mu u-z edges followed by mu
    z-v edges, all with fresh ids.  Returns (graph, z).
    """
    mu = g.multiplicity(u, v)
    if mu == 0:
        raise GraphError(f"vertices {u} and {v} are not adjacent")
    z = max(g.vertices) + 1
    next_id = max((e.id for e in g.edges), default=-1) + 1
    old = set(g.parallel_edges(u, v))
    kept = [e for e in g.edges if e.id not in old]
    for k in range(mu):
        kept.append(Edge(next_id + k, u, z))
    for k in range(mu):
        kept.append(Edge(next_id + mu + k, z, v))
    return Multigraph(g.vertices | {z}, tuple(kept)), z


# ----------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class Chain:
    """A path whose every consecutive pair has multiplicity >= 2.

    Internal vertices have exactly two distinct neighbors in the ambient
    graph; that constraint is what makes the chain usable for
    identification.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise GraphError("a chain needs at least two vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("chain vertices must be distinct")

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]


def maximal_chains(g: Multigraph) -> tuple[Chain, ...]:
    """All maximal chains, each multiplicity->=2 pair covered at most once.

    A cycle of doubled pairs is returned cut open at one vertex, heading
    toward that vertex's smaller neighbor on the cycle; the closing pair
    then belongs to no chain.  The cut vertex is the cycle's one vertex
    with other than two neighbors when it hangs from such a vertex, and
    its smallest vertex otherwise.  Chains are oriented smaller-end-first
    and returned sorted.

    Each chain is one walk through inner vertices (two neighbors, both
    across doubled pairs): first from every other end of a doubled pair,
    where a walk back to its start is a hanging cycle, then from the
    inner vertices left, which lie on bare cycles, in ascending order.
    """
    # each vertex's neighbors across doubled pairs, ascending, since the
    # pairs come sorted
    along: dict[int, list[int]] = {}
    for u, v in sorted(p for p, ids in g._parallel.items() if len(ids) >= 2):
        along.setdefault(u, []).append(v)
        along.setdefault(v, []).append(u)
    inner = {v for v, ws in along.items() if len(ws) == 2 and len(g._adj[v]) == 2}
    covered: set[tuple[int, int]] = set()
    chains: list[Chain] = []
    for start in sorted(along.keys() - inner) + sorted(inner):
        for first in along[start]:
            if _norm(start, first) in covered:
                continue
            seq = [start]
            prev, cur = start, first
            while True:
                covered.add(_norm(prev, cur))
                if cur == start:
                    break  # the closing pair of a cycle
                seq.append(cur)
                if cur not in inner:
                    break
                a, b = along[cur]
                prev, cur = cur, b if a == prev else a
            if seq[0] > seq[-1]:
                seq.reverse()
            chains.append(Chain(tuple(seq)))
    chains.sort(key=lambda c: c.vertices)
    return tuple(chains)


# ----------------------------------------------------------------------
# connectivity


def find_path(
    g: Multigraph,
    sources: Iterable[int],
    targets: Iterable[int],
    banned_vertices: Iterable[int] = (),
) -> tuple[int, ...] | None:
    """Vertices of a shortest path from any source to any target.

    Sources and targets must be disjoint.  The search never walks through
    a source or a target, so interior vertices lie outside both sets.
    Deterministic: breadth-first, sources in sorted order, each vertex's
    distinct neighbours in ascending order, so parallel edges count once.
    """
    src = sorted(set(sources))
    tgt = set(targets)
    bv = set(banned_vertices)
    if tgt & set(src):
        raise GraphError("sources and targets must be disjoint")
    if not g.vertices.issuperset(src):
        raise GraphError(f"unknown vertices {sorted(set(src) - g.vertices)}")
    parent: dict[int, int] = {}
    seen = set(s for s in src if s not in bv)
    queue = deque(s for s in src if s not in bv)
    adj = g._adj
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in bv or y in seen:
                continue
            parent[y] = x
            if y in tgt:
                vs = [y]
                while vs[-1] not in src:
                    vs.append(parent[vs[-1]])
                return tuple(reversed(vs))
            seen.add(y)
            queue.append(y)
    return None


def biconnected_components(g: Multigraph) -> tuple[Multigraph, ...]:
    """Blocks of g as sub-multigraphs carrying every parallel edge.

    A pair of parallel edges forms a block of its own; isolated vertices
    belong to no block.  Blocks are sorted by their smallest vertex id,
    then smallest edge id.  When g is one block with no isolated vertex,
    the result is `(g,)`: g itself, with the indexes it has cached.
    Otherwise each block's parallel classes are g's, not regrouped, and
    so are its vertices' neighbour tuples, split by block only at the
    vertices that close a block, the only ones that can lie in two or
    more blocks.

    Hopcroft and Tarjan's depth-first search over g's distinct neighbours
    (the underlying simple graph, without building it) keeps low points
    and a stack of vertices.  When a child's subtree reaches no vertex
    above its parent, the vertices stacked since that child, with the
    parent, form one block.  Each edge lies in the block that its deeper
    end, the one found later, leaves the stack with.
    """
    adj = g._adj
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    block_of: dict[int, int] = {}  # a vertex's block: the one it leaves the stack with
    blocks: list[list[int]] = []  # each block's vertices, its closing vertex first
    vstack: list[int] = []

    for root in sorted(g.vertices):
        if root in index:
            continue
        # iterative DFS so deep graphs cannot overflow the stack; a frame
        # keeps where its vertex sits on the vertex stack
        index[root] = low[root] = len(index)
        stack: list[tuple[int, Iterator[int], int | None, int]] = [(root, iter(adj[root]), None, 0)]
        while stack:
            x, it, parent, _ = stack[-1]
            for y in it:
                # one pair back to the parent; a doubled pair to the parent
                # still forms its own block
                if y == parent:
                    continue
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append((y, iter(adj[y]), x, len(vstack)))
                    vstack.append(y)
                    break
                if index[y] < low[x]:
                    low[x] = index[y]
            else:
                at = stack.pop()[3]
                if stack:
                    px = stack[-1][0]
                    if low[x] < low[px]:
                        low[px] = low[x]
                    if low[x] >= index[px]:
                        block_of.update(dict.fromkeys(vstack[at:], len(blocks)))
                        blocks.append([px, *vstack[at:]])
                        del vstack[at:]

    if len(blocks) == 1 and all(adj.values()):
        return (g,)
    # g's parallel classes and edges, each placed by its deeper end, in g's
    # order, so each block's edges stay sorted by id
    classes: list[dict[tuple[int, int], tuple[int, ...]]] = [{} for _ in blocks]
    for p, ids in g._parallel.items():
        u, v = p
        classes[block_of[u if index[u] > index[v] else v]][p] = ids
    block_edges: list[list[Edge]] = [[] for _ in blocks]
    for e in g.edges:
        _, u, v = e
        block_edges[block_of[u if index[u] > index[v] else v]].append(e)
    # only a vertex that closes a block can lie in two or more; its
    # neighbours, split by block in one pass, stay ascending
    split: dict[tuple[int, int], list[int]] = {}
    for v in {vs[0] for vs in blocks}:
        for y in adj[v]:
            split.setdefault((v, block_of[y] if index[y] > index[v] else block_of[v]), []).append(y)
    # a block of a valid graph is valid
    out = [Multigraph.prechecked(frozenset(vs), tuple(es), _parallel=parallel, _adj={
               v: tuple(split[v, k]) if (v, k) in split else adj[v] for v in vs})
           for k, (vs, es, parallel) in enumerate(zip(blocks, block_edges, classes))]
    out.sort(key=lambda b: (min(b.vertices), b.edges[0].id))
    return tuple(out)
