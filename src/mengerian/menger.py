"""Exact temporal Menger oracles and the labeling falsifier.

For a labeled multigraph and distinct vertices s, t:

* p(s, t): maximum number of internally vertex-disjoint temporal s,t-paths;
* c(s, t): minimum number of vertices (excluding s, t) whose removal leaves
  no temporal s,t-path, defined only when s and t are non-adjacent;
* the edge-disjoint analogues, which always coincide; both certificates
  come out of one max flow in the time-expanded network, with one node
  per vertex and label at it and one unit arc per edge (`edge_menger`).

The vertex-disjoint side rests on one route engine.  `_route_paths`
lists the temporal s,t-routes, one per realizable vertex sequence,
pruned by `temporal.latest_departure`, and each route's interior
becomes an int bitmask over the vertices.  p is the size of a largest
pairwise-disjoint set of interiors, and c the size of a smallest vertex
set meeting every interior (a minimum hitting set), because a vertex set
destroys every temporal s,t-path exactly when it meets every route.  One
query lists its pair's routes once: the graph keeps its last listing, so
the cut and the packing share it.

Both problems are NP-hard, so guards bound the work, not the graph: at
most _ROUTE_CAP routes per pair, and _WORK_BUDGET steps for each search
that can explode.  A search past its guard raises ResourceLimitError
naming the guard and the pair, or the source of a falsifier's route walk.

`falsify_mengerian` searches time-functions for a pair with p < c, either
exhaustively over all label weak orders (ordered set partitions of the
edges, labeled 1, 2, ... by rank, as only the relative order of labels
matters) or by seeded random sampling.  Pairs without a common block are
skipped: a cut vertex between them forces c <= 1.  Every route of a pair
that shares a block stays inside it, so both modes rank only the edges
of the blocks they search, give every other edge label 1, and list
routes by one walk per source over the simple paths inside its blocks.
The modes differ in a source's targets: exhaustive search tests t > s
only, since time reversal swaps source and target, sampling every t.
p and c depend only on the inclusion-minimal interiors a labeling keeps,
and interiors are bitmasks over the same vertices for every pair, so
each minimal family found gap-free is decided once in a run.

Labelings are tested a chunk at a time, carried as one byte column per
ranked edge: byte k is the edge's label under labeling k, so labels
stay in 1..255.  Exhaustive columns are cut from tables of the
permutations of 1..n, sampled ones are slices of one bulk draw of
random words per chunk.  A source's walk leaves the prefix trie of its
routes, and one walk of that trie carries, per label L, the set of the
chunk's labelings (an int, one bit each) under which the prefix can
arrive by L; those sets are read off the columns in C.  A node ending a
route then holds the labelings that keep it, and per pair the chunk
splits into groups by kept set, each decided once.
"""

from __future__ import annotations

import random
from math import comb, factorial
from dataclasses import dataclass
from bisect import bisect_left
from functools import cache
from itertools import chain, combinations, islice, permutations
from typing import Callable, Iterator

from .multigraph import GraphError, InternalError, Multigraph, biconnected_components
from .temporal import (
    TemporalGraph,
    TemporalPath,
    earliest_arrival,
    latest_departure,
)

# Routes one pair may have before the graph is refused as too dense: the
# oracles keep every route's interior, and every chunk of the falsifier's
# labelings walks every source's route trie.
_ROUTE_CAP = 5000
# Steps each exact search may take: stack pushes of the route engine,
# candidates the packing search tries and subsets the hitting-set search
# tries, each on one pair, and pushes of the falsifier's route walk from
# one source.  On a shared 2-vCPU Xeon VM, on inputs that run each search
# to the budget, a push cost 1.0-2.0 us (a whole listing on a 6-vertex
# graph 35-60 us, set-up included), a subset 1.1-1.5 us and a candidate
# about 0.1 us, so a refused search has run for up to about 2 s.  A walk
# push cost 2.0-2.9 us (whole walks on K8 minus an edge and a 100-cycle),
# but _ROUTE_CAP has refused every walk seen so far long before this.
# Exhaustive falsification may try as many labelings over all the blocks
# it searches (0.55-0.8 us each on W4 and an 8-cycle, on the same VM in a
# slow spell), and is refused before it starts otherwise.  Sampling
# weighs its ordered pairs times block edges against it (a 100-cycle
# weighs 970,000 and takes 0.08-0.09 s) and draws at most this many
# labelings, the most the exhaustive search may try.
_WORK_BUDGET = 1 << 20
# Entries the two falsify memos hold together in one run: gap-free kept
# route sets, one bit per static route of a pair, so at most _ROUTE_CAP / 8
# bytes each; and gap-free minimal interior families, which count one
# entry per member, a member holding one bit per vertex.  So the memos
# stay within about 25 MB on graphs of a few hundred vertices, however
# many labelings a run draws.  Past the cap a kept set or family is
# decided afresh each time, which costs time only.
_MEMO_CAP = 1 << 15
# Labels one falsify step decides together, one bit per labeling in the
# route feasibility planes: a chunk holds _CHUNK_LABELS // m labelings of
# m ranked edges (at least one), so memory and the labels drawn past a
# gap stay bounded however many edges a search ranks.
_CHUNK_LABELS = 1 << 16
_ZEROS = b"0" * 256


class ResourceLimitError(RuntimeError):
    """An exact search was refused because the instance exceeds its guard.

    A search on one pair, or from one source, keeps its ends as `ends`
    ({"s": s, "t": t} or {"s": s}); the message template names them {s}
    and {t}, shown by vertex id, or by name(v) in `named`.
    """

    def __init__(self, template: str, **ends: int):
        self.template, self.ends = template, ends
        super().__init__(self.named(str))

    def named(self, name: Callable[[int], str]) -> str:
        if not self.ends:
            return self.template
        return self.template.format(**{k: name(v) for k, v in self.ends.items()})


class CutUndefinedError(ValueError):
    """Vertex cuts are undefined for adjacent endpoints."""


def _check_pair(tg: TemporalGraph, s: int, t: int) -> None:
    if not tg.graph.has_vertex(s) or not tg.graph.has_vertex(t):
        raise GraphError(f"unknown vertex in pair ({s}, {t})")
    if s == t:
        raise GraphError("source and target must differ")


def _over_budget(search: str, **ends: int) -> ResourceLimitError:
    where = "between {s} and {t}" if "t" in ends else "from {s}"
    return ResourceLimitError(f"the {search} {where} exceeds the work budget "
                              f"of {_WORK_BUDGET} steps", **ends)


def _too_many_routes(s: int, t: int) -> ResourceLimitError:
    return ResourceLimitError(f"more than {_ROUTE_CAP} simple routes between {{s}} and {{t}}; "
                              "the graph is too dense for exact search", s=s, t=t)


# ----------------------------------------------------------------------
# the temporal route engine: routes, interiors as bitmasks, packing, cut


def _route_paths(tg: TemporalGraph, s: int, t: int) -> Iterator[TemporalPath]:
    """All temporal s,t-paths, one per realizable vertex sequence.

    Per hop the smallest feasible label is taken (smallest edge id on
    ties); greedy minimal arrivals realize every realizable sequence, so
    nothing is missed.  Paths come out in depth-first order with
    neighbors visited by ascending vertex id.  The walk keeps an explicit
    stack, and drops a branch that reaches y after `late[y]`, the latest
    label a walk avoiding s can leave y by and still reach t
    (`temporal.latest_departure`): a route's suffix never returns to s,
    so no such walk means no route either.  Only s and the vertices with
    a `late` bound get options: their neighbours that have one, read off
    the graph's cached adjacency, each with its parallel class read off
    the graph's `_parallel` as (label, id) pairs, sorted when the class
    has two or more edges.  Past _WORK_BUDGET pushes it raises
    ResourceLimitError.
    """
    late = latest_departure(tg, t, avoid=s)
    times, adj, parallel = tg.times, tg.graph._adj, tg.graph._parallel
    options: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}
    for v in late.keys() | {s}:
        options[v] = branches = []
        for y in adj[v]:
            if y in late:
                ids = parallel[(v, y) if v < y else (y, v)]
                branches.append((y, [(times[ids[0]], ids[0])] if len(ids) == 1
                                 else sorted((times[i], i) for i in ids)))

    vpath = [s]
    epath: list[int] = []
    on_path = {s}
    stack = [(iter(options[s]), 0)]
    pushes = 0
    while stack:
        branches, arrived = stack[-1]
        for y, labeled in branches:
            if y in on_path:
                continue
            i = bisect_left(labeled, (arrived,))
            if i == len(labeled) or labeled[i][0] > late[y]:
                continue
            lab, eid = labeled[i]
            if y == t:
                yield TemporalPath((*vpath, t), (*epath, eid))
                continue
            pushes += 1
            if pushes > _WORK_BUDGET:
                raise _over_budget("route search", s=s, t=t)
            vpath.append(y)
            epath.append(eid)
            on_path.add(y)
            stack.append((iter(options[y]), lab))
            break
        else:
            stack.pop()
            if epath:
                on_path.discard(vpath.pop())
                epath.pop()


def _max_packing(masks: list[int], s: int, t: int,
                 bound: int | None = None) -> tuple[int, ...]:
    """Indices of a largest pairwise-disjoint subset; deterministic first optimum.

    Index tuples are searched depth first in lexicographic order, with
    the chosen indices as the stack: a tuple is not extended when the
    candidates after it cannot beat the best, and a level tried out pops
    its index and resumes after it.  Past _WORK_BUDGET candidates tried
    it raises ResourceLimitError for the pair s, t.

    `bound`, when given, is at least the largest size (the cut size is,
    as p <= c), and the search stops at the first subset that reaches
    it: the best only ever grows, so the lexicographic search would have
    kept that one.
    """
    n = len(masks)
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    used = start = tried = 0
    while True:
        for i in range(start, n):
            if not used & masks[i]:
                chosen.append(i)
                if len(chosen) > len(best):
                    best = tuple(chosen)
                    if len(best) == bound:
                        return best
                if len(chosen) + n - i - 1 > len(best):
                    used |= masks[i]
                    tried += i + 1 - start
                    start = i + 1
                    break
                chosen.pop()
        else:
            tried += n - start
            if not chosen:
                return best
            start = chosen.pop()
            used ^= masks[start]
            start += 1
        if tried > _WORK_BUDGET:
            raise _over_budget("packing search", s=s, t=t)


def _min_hitting(masks: list[int], vertices: list[int], s: int, t: int) -> tuple[int, ...]:
    """The lexicographically first smallest vertex set meeting every mask.

    Bit i of a mask stands for vertices[i], in ascending vertex order.
    Only vertices inside some mask can belong to a minimum hitting set,
    so subsets of those are tried in size order, as `combinations`
    lists them; a vertex in every mask answers at once.  Past _WORK_BUDGET
    subsets tried it raises ResourceLimitError for the pair s, t.
    """
    if not masks:
        return ()
    common = -1
    union = 0
    for mask in masks:
        common &= mask
        union |= mask
    if common:
        return (vertices[(common & -common).bit_length() - 1],)
    bits = [1 << i for i in range(union.bit_length()) if union >> i & 1]
    distinct = set(masks)
    left = _WORK_BUDGET
    for size in range(2, len(bits) + 1):
        for subset in islice(combinations(bits, size), left):
            hit = sum(subset)
            if all(mask & hit for mask in distinct):
                return tuple(vertices[b.bit_length() - 1] for b in subset)
        left -= comb(len(bits), size)
        if left < 0:
            raise _over_budget("hitting-set search", s=s, t=t)
    raise InternalError("a route with an empty interior cannot be hit")


@dataclass
class _Listing:
    """One pair's routes, their interior bitmasks over the sorted vertices,
    and its cut size once known."""

    key: tuple[int, int, int, int]
    paths: list[TemporalPath]
    masks: list[int]
    vertices: list[int]
    cut: int | None = None


def _listing(tg: TemporalGraph, s: int, t: int) -> _Listing:
    """The routes of `_route_paths`, refused past _ROUTE_CAP, and their
    interior bitmasks (bit i for the i-th vertex), listed once per query.

    The cut and the packing of one query ask for the same pair in turn,
    so the last listing is kept on the frozen instance, where its cached
    properties live, keyed by the pair and the guards it ran under.  It
    dies with tg and holds one pair; a listing under other guards is not
    reused, and a refused one is not kept.  The cut's size rides on it,
    so a packing after the cut stops once it reaches that size.
    """
    key = (s, t, _ROUTE_CAP, _WORK_BUDGET)
    last = vars(tg).get("_last_listing")
    if last is None or last.key != key:
        paths = list(islice(_route_paths(tg, s, t), _ROUTE_CAP + 1))
        if len(paths) > _ROUTE_CAP:
            raise _too_many_routes(s, t)
        vertices = sorted(tg.graph.vertices)
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        masks = []
        for p in paths:
            mask = 0
            for v in p.vertices[1:-1]:
                mask |= bit[v]
            masks.append(mask)
        last = vars(tg)["_last_listing"] = _Listing(key, paths, masks, vertices)
    return last


def max_disjoint_paths(tg: TemporalGraph, s: int, t: int) -> tuple[TemporalPath, ...]:
    """A maximum set of internally vertex-disjoint temporal s,t-paths.

    A query lists its pair's routes once: after `min_vertex_cut` on the
    same graph and pair, the packing reuses that listing, and stops as
    soon as it holds as many paths as the cut has vertices.
    """
    _check_pair(tg, s, t)
    listing = _listing(tg, s, t)
    return tuple(listing.paths[i] for i in _max_packing(listing.masks, s, t, listing.cut))


def min_vertex_cut(tg: TemporalGraph, s: int, t: int) -> frozenset[int]:
    """A minimum temporal s,t-cut; smallest size, then lexicographically first.

    A vertex set separates s from t exactly when it meets the interior of
    every route, so the cut is the first minimum hitting set of the route
    interiors (empty when t is unreachable).  Undefined (raises
    CutUndefinedError) when s and t are adjacent: no vertex set can
    separate endpoints that share an edge.  A query lists its pair's
    routes once: after `max_disjoint_paths` on the same graph and pair,
    the cut reuses that listing.
    """
    _check_pair(tg, s, t)
    if tg.graph.adjacent(s, t):
        raise CutUndefinedError(f"vertices {s} and {t} are adjacent")
    listing = _listing(tg, s, t)
    cut = frozenset(_min_hitting(listing.masks, listing.vertices, s, t))
    listing.cut = len(cut)
    return cut


# ----------------------------------------------------------------------
# edge-disjoint paths and cuts via time-expanded max flow


def edge_menger(
    tg: TemporalGraph, s: int, t: int
) -> tuple[tuple[TemporalPath, ...], frozenset[int]]:
    """Maximum edge-disjoint temporal s,t-paths and a matching minimum edge cut.

    The time-expanded network has one node per vertex and label at it,
    an uncapacitated waiting arc from each label of a vertex to its next,
    and each edge with label L as one unit of capacity between its ends'
    L nodes, usable in either direction.  Flow enters at the first node
    of s and leaves at any node of t.  Each augmenting path comes from a
    breadth-first search that stops as soon as it pushes a node of t.
    The flow is one signed value per edge id (+1 carries a unit from e.u
    to e.v) and one value per waiting arc.

    The last, failed search reaches the source side of the minimal
    minimum cut, which only edges cross: the cut is the edges with
    exactly one end node reached.  Each path follows positive flow from
    s, leaving each vertex by its flow edge of smallest label (then id)
    not before the arrival, up to t; `_splice_walk` splices out revisits.
    """
    _check_pair(tg, s, t)
    g = tg.graph
    times = tg.times
    # node ids run through each vertex's labels in ascending order, so a
    # node's waiting arc leads to the next id when that has the same vertex
    nodes = sorted({(v, times[e.id]) for e in g.edges for v in e.pair})
    index = {vl: i for i, vl in enumerate(nodes)}
    vertex_of = [v for v, _ in nodes] + [-1]  # the last node waits nowhere
    if s not in vertex_of or t not in vertex_of:
        return (), frozenset()
    arcs: list[list[tuple[int, int, int]]] = [[] for _ in vertex_of]
    for e in g.edges:
        a, b = index[(e.u, times[e.id])], index[(e.v, times[e.id])]
        arcs[a].append((b, e.id, 1))
        arcs[b].append((a, e.id, -1))
    flow = dict.fromkeys(times, 0)
    wait = [0] * len(vertex_of)  # flow on the waiting arc out of each node
    src = vertex_of.index(s)

    value = 0
    while True:
        # parent[y] = (x, edge id or None for a waiting arc, direction)
        parent: dict[int, tuple[int, int | None, int]] = {src: (src, None, 0)}
        queue = [src]
        end = None
        for x in queue:
            steps = [(y, eid, sign) for y, eid, sign in arcs[x] if flow[eid] * sign < 1]
            if vertex_of[x + 1] == vertex_of[x]:
                steps.append((x + 1, None, 1))
            if wait[x - 1] > 0:
                steps.append((x - 1, None, -1))
            for y, eid, sign in steps:
                if y not in parent:
                    parent[y] = (x, eid, sign)
                    if vertex_of[y] == t:
                        end = y
                        break
                    queue.append(y)
            if end is not None:
                break
        if end is None:
            break
        value += 1
        while end != src:
            x, eid, sign = parent[end]
            if eid is None:
                wait[min(x, end)] += sign
            else:
                flow[eid] += sign
            end = x
    cut = frozenset(eid for x in parent for y, eid, _ in arcs[x] if y not in parent)

    # each vertex's edges carrying flow away from it, by label then id
    leaving: dict[int, list[tuple[int, int, int]]] = {}
    for e in g.edges:
        if flow[e.id]:
            a, b = e.pair if flow[e.id] > 0 else e.pair[::-1]
            leaving.setdefault(a, []).append((times[e.id], e.id, b))
    for out in leaving.values():
        out.sort()
    paths = []
    for _ in range(value):
        vs, es, v, arrived = [s], [], s, 0
        while v != t:
            out = leaving.get(v, [])
            i = bisect_left(out, (arrived,))
            if i == len(out):
                raise InternalError("flow conservation")
            arrived, eid, v = out.pop(i)
            vs.append(v)
            es.append(eid)
        paths.append(_splice_walk(vs, es))

    if len(cut) != value:
        raise InternalError("max flow must equal the edge cut")
    if t in earliest_arrival(tg, s, banned_edges=cut):
        raise InternalError("the edge cut must separate the pair")
    used = [e for p in paths for e in p.edge_ids]
    if len(used) != len(set(used)):
        raise InternalError("paths must be edge-disjoint")
    return tuple(paths), cut


def _splice_walk(vs: list[int], es: list[int]) -> TemporalPath:
    """The path left when revisits are spliced out of the temporal walk
    with vertices vs and edge ids es.

    Each splice joins the first arrival at the first repeated vertex to
    the last departure from it, and repeats; the label chain stays
    non-decreasing because the removed stretch sat between the two.
    """
    while True:
        seen = set()
        for v in vs:
            if v in seen:
                break
            seen.add(v)
        else:
            return TemporalPath(tuple(vs), tuple(es))
        i, j = vs.index(v), len(vs) - 1 - vs[::-1].index(v)
        vs, es = vs[: i + 1] + vs[j + 1 :], es[:i] + es[j:]


# ----------------------------------------------------------------------
# falsification


@dataclass(frozen=True)
class Counterexample:
    """A time-function and a pair witnessing p < c, with certificates."""

    labeled: TemporalGraph
    s: int
    t: int
    paths: tuple[TemporalPath, ...]
    cut: frozenset[int]


@cache
def _permutation_columns(n: int) -> tuple[bytes, ...]:
    """Position i of every permutation of 1..n, in `permutations` order, as bytes."""
    flat = bytes(chain.from_iterable(permutations(range(1, n + 1))))
    return tuple(flat[i::n] for i in range(n))


def _weak_order_columns(m: int, step: int) -> Iterator[tuple[int, list[bytes]]]:
    """Each weak order on m edges once, labeled by rank, step labelings a chunk.

    Yields (count, columns), one column per edge: byte k is the edge's
    label under labeling k.  Restricted-growth strings r list the set
    partitions depth first in lexicographic order, and permuting each
    one's parts ranks them, so edge j takes position r[j] of the
    permutation table: one slice per edge and string.  The list is
    closed under reversal (rank q becomes top + 1 - q), which the
    one-orientation search relies on.
    """
    parts: list[list[bytes]] = [[] for _ in range(m)]
    filled = 0
    stack: list[tuple[tuple[int, ...], int]] = [((), -1)]
    while stack:
        rgs, top = stack.pop()
        if len(rgs) < m:
            stack.extend((rgs + (val,), max(top, val)) for val in reversed(range(top + 2)))
            continue
        table = _permutation_columns(top + 1)
        start, size = 0, factorial(top + 1)
        while start < size:
            end = min(size, start + step - filled)
            for part, rank in zip(parts, rgs):
                part.append(table[rank][start:end])
            filled += end - start
            start = end
            if filled == step:
                yield filled, [b"".join(part) for part in parts]
                parts, filled = [[] for _ in range(m)], 0
    if filled:
        yield filled, [b"".join(part) for part in parts]


def _sampled_columns(
    rng: random.Random, m: int, samples: int, step: int
) -> Iterator[tuple[int, list[bytes]]]:
    """samples seeded labelings of m edges in 1..r, r = min(m, 255), step a chunk.

    Yields (count, columns) as `_weak_order_columns` does.  The labels
    are those of drawing each one alone, edge by edge and labeling by
    labeling, as `Random` draws an int in 1..r: the top k = r.bit_length()
    bits of one 32-bit word, drawn again while they reach r.
    getrandbits(32 * n) returns n such words in that order, the first in
    the lowest bits, so each chunk draws its words in one call, and
    accepted labels past its end carry into the next chunk.  As k <= 8,
    the top byte of each word holds the value, and one translate accepts
    and labels them all in C.
    """
    r = min(m, 255)
    k = r.bit_length()
    # top byte t holds the label (t >> (8 - k)) + 1; rejected bytes are deleted
    table = bytes(min((t >> (8 - k)) + 1, r) for t in range(256))
    reject = bytes(range(r << (8 - k), 256))
    flat = b""
    for start in range(0, samples, step):
        count = min(step, samples - start)
        need = count * m
        while len(flat) < need:
            # an eighth more words than the expected need, so one call nearly always does
            n = ((need - len(flat)) << k) // r * 9 // 8 + 8
            raw = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
            flat += raw[3::4].translate(table, reject)
        chunk, flat = flat[:need], flat[need:]
        yield count, [chunk[j::m] for j in range(m)]


def _weak_orders(m: int) -> int:
    """How many labelings `_weak_order_columns` lists: the weak orders on m edges.

    A weak order ranks some k >= 1 edges first, then orders the rest.
    Counting stops past _WORK_BUDGET, at a lower bound for larger m.
    """
    counts = [1]
    while len(counts) <= m and counts[-1] <= _WORK_BUDGET:
        n = len(counts)
        counts.append(sum(comb(n, k) * counts[n - k] for k in range(1, n + 1)))
    return counts[-1]


def _source_trie(
    s: int, targets: list[int], blocks: list[Multigraph],
    hop_of: dict[tuple[int, int], int], bit: dict[int, int]
) -> tuple[dict[int, list], list[list[int]]]:
    """The routes from s to its targets as one prefix trie, and their interiors.

    One depth-first walk per block (each holds s) follows the simple
    paths from s in ascending vertex order; a node ends a route when its
    vertex is a target, the walk goes on past it, and a node on no route
    is dropped.  Nodes are [hop, slot, route, children]: hop indexes in
    hop_of the vertex pair the node's last step crosses, slot and route
    locate the route ending there or are -1, and children map the next
    vertex to its node.  Per slot, the interiors come back as bitmasks
    (bit[v] per vertex) in route order, ascending in size.  More than
    _ROUTE_CAP routes to one target, or _WORK_BUDGET pushes in all, raise
    ResourceLimitError.
    """
    slot_of = {t: j for j, t in enumerate(targets)}
    # per slot, (path length, interior, node) of each route in walk order
    ends: list[list[tuple[int, int, list]]] = [[] for _ in targets]
    root: dict[int, list] = {}
    pushes = 0
    for block in blocks:
        adj = block._adj
        on_path = {s}
        stack = [(s, iter(adj[s]), root, 0)]
        while stack:
            a, branches, level, inside = stack[-1]
            for y in branches:
                if y in on_path:
                    continue
                pushes += 1
                if pushes > _WORK_BUDGET:
                    raise _over_budget("route search", s=s)
                node = level[y] = [-1, slot_of.get(y, -1), -1, {}]
                if node[1] >= 0:
                    if len(ends[node[1]]) == _ROUTE_CAP:
                        raise _too_many_routes(s, y)
                    ends[node[1]].append((len(stack), inside, node))
                on_path.add(y)
                stack.append((y, iter(adj[y]), node[3], inside | bit[y]))
                break
            else:
                stack.pop()
                on_path.discard(a)
                if stack:
                    x, _, level, _ = stack[-1]
                    if level[a][1] < 0 and not level[a][3]:
                        del level[a]
                    else:
                        level[a][0] = hop_of.setdefault((x, a) if x < a else (a, x), len(hop_of))
    masks = []
    for found in ends:
        # by length, as _minimal_family takes them; p and c do not depend
        # on the order of a pair's routes
        found.sort(key=lambda end: end[0])
        for i, (_, _, node) in enumerate(found):
            node[2] = i
        masks.append([inside for _, inside, _ in found])
    return root, masks


def _hop_planes(
    hops: list[tuple[int, ...]], columns: dict[int, bytes], top: int
) -> list[list[tuple[int, int]]]:
    """Per hop, (label L, labelings) pairs by ascending L.

    columns maps each edge id to its column: under labeling k of the
    chunk the edge has label columns[eid][k], in 1..top.  Bit k of
    labelings is set when labeling k gives some edge of the hop label L.
    Only labels that occur get an entry, so a plane has at most one
    entry per labeling.  Each entry is found and built in C: a byte
    search for L, then the column, reversed, translated to '1' at L and
    '0' elsewhere, and read as a base-2 int.
    """
    planes = []
    for hop in hops:
        plane: dict[int, int] = {}
        for eid in hop:
            column = columns[eid]
            backwards = column[::-1]  # int(..., 2) reads its last digit as bit 0
            for lab in range(1, top + 1):
                if lab in column:
                    bits = int(backwards.translate(_ZEROS[:lab] + b"1" + _ZEROS[lab + 1:]), 2)
                    plane[lab] = plane.get(lab, 0) | bits
        planes.append(sorted(plane.items()))
    return planes


def _advance(reach: list[tuple[int, int]], plane: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arrivals after one more hop, from the arrivals before it.

    An entry (L, labelings) of reach lists the labelings under which the
    walk so far can arrive by label L; entries ascend in L and each
    holds the ones before it.  A labeling crosses the hop at label L
    when it gives an edge of the hop label L and arrived by L.  The
    result has the same form; empty means no labeling crosses.
    """
    out = []
    ready = arrived = 0
    i = 0
    full = reach[-1][1]
    for lab, bits in plane:
        while i < len(reach) and reach[i][0] <= lab:
            ready = reach[i][1]
            i += 1
        got = arrived | bits & ready
        if got != arrived:
            arrived = got
            out.append((lab, got))
            if got == full:
                break
    return out


def _kept_routes(
    trie: dict[int, list], sizes: list[int], planes: list[list[tuple[int, int]]], universe: int
) -> list[list[int]]:
    """Per target slot and route, the labelings in universe that make it a temporal path.

    sizes[j] is the number of routes of slot j.  One walk of the trie
    serves every target and labeling: a prefix carries the labelings
    that can realize it, and a prefix that none can realize cuts its
    whole subtree.
    """
    keeps = [[0] * size for size in sizes]
    stack = [(trie, [(0, universe)])]
    while stack:
        level, reach = stack.pop()
        for hop, slot, route, children in level.values():
            after = _advance(reach, planes[hop])
            if not after:
                continue
            if route >= 0:
                keeps[slot][route] = after[-1][1]
            if children:
                stack.append((children, after))
    return keeps


def _kept_sets(keep: list[int], universe: int) -> list[tuple[int, int]]:
    """The labelings in universe (not empty) grouped by the routes they keep.

    keep[i] holds the labelings that keep route i, and may hold some
    outside universe, which are ignored.  Returns, per group, its lowest
    labeling index and its kept set as a bitmask over routes, by lowest
    index.
    """
    groups = [[universe, 0]]
    for i, bits in enumerate(keep):
        bits &= universe
        if bits:
            split = []
            for group in groups:
                inside = group[0] & bits
                if inside == group[0]:
                    group[1] |= 1 << i
                elif inside:
                    group[0] ^= inside
                    split.append([inside, group[1] | 1 << i])
            groups += split
    return sorted(((labs & -labs).bit_length() - 1, kept) for labs, kept in groups)


def _minimal_family(masks: list[int], alive: int) -> frozenset[int]:
    """The inclusion-minimal interiors among masks[i] for the bits i of alive.

    masks ascend in size, so an interior is minimal unless one found
    minimal before it lies inside it.  A vertex set meets every interior
    exactly when it meets every minimal one, and pairwise-disjoint
    interiors hold pairwise-disjoint minimal ones, one inside each, so
    the family and its minimal members have the same packing and hitting
    numbers.
    """
    minimal: list[int] = []
    for i, mask in enumerate(masks):
        if alive >> i & 1:
            for low in minimal:
                if low & mask == low:
                    break
            else:
                minimal.append(mask)
    return frozenset(minimal)


def _free_pairs(block: Multigraph) -> int:
    """How many non-adjacent vertex pairs a block holds, none of them listed.

    An edge between two vertices of a block lies in that block, so a
    block of n vertices holds C(n, 2) less its adjacent pairs.
    """
    return comb(len(block.vertices), 2) - len({e.pair for e in block.edges})


def _searched_blocks(g: Multigraph) -> list[Multigraph]:
    """The blocks that hold a non-adjacent vertex pair.

    Any pair outside a common block is split by a cut vertex (or lies in
    two components), so c <= 1 under every labeling and p < c cannot
    happen.  Two vertices share at most one block, and every simple
    route between them stays inside it.
    """
    return [block for block in biconnected_components(g) if _free_pairs(block)]


def falsify_mengerian(
    g: Multigraph, samples: int | None = None, seed: int = 0
) -> Counterexample | None:
    """Search time-functions for a non-adjacent pair with p < c.

    Only blocks holding a non-adjacent pair are searched; a graph with
    none returns None.  Both modes rank only the edges of those blocks,
    since every route between two vertices of a block stays inside it;
    every other edge gets label 1.  Before any labeling, one walk per
    source (`_source_trie`) lists its routes to all of its targets, or
    raises ResourceLimitError naming the pair or the source.

    samples=None enumerates every weak order of labels, block by block,
    ranking only the block's edges.  Before any search, blocks with more
    weak orders than _WORK_BUDGET in all raise ResourceLimitError, which
    gives the total (8 edges have 545,835, 9 edges 7,087,261, so one
    8-edge block is searched, two are refused).  It tests only the orientation
    s < t of each pair: time reversal maps a counterexample for (t, s)
    to one for (s, t), and reversing a weak order gives a weak order.
    The first counterexample is the first over blocks, then labelings,
    then pairs s < t.

    An integer draws that many seeded uniform assignments of the m
    ranked edges, in id order, with labels in 1..min(m, 255), and tests
    both orientations of each pair, in sorted order; the first
    counterexample is the first in that order.  p and c depend only on
    the relative order of labels, and 255 levels still give every weak
    order with up to 255 ranks.  The labels are those
    `random.Random(seed)` gives when each is drawn alone, edge by edge,
    labeling by labeling; they are drawn in bulk, one call per chunk
    (see `_sampled_columns`).  A count above _WORK_BUDGET raises
    ResourceLimitError before anything is drawn.  Before any route is
    listed, sampling weighs the ordered pairs, each times the edges of
    its block, and past _WORK_BUDGET raises ResourceLimitError (a
    100-cycle weighs 970,000 and takes about 0.08 s; a 200-cycle weighs
    7,880,000).  Returns None when the search finds none.

    A labeling keeps the routes whose hops admit non-decreasing labels,
    and p and c are the packing and hitting numbers of the kept
    interiors.  They depend only on the kept interiors that hold no
    other kept interior (_minimal_family), so a pair's kept set already
    found gap-free is not looked at again, and a minimal family found
    gap-free, for any pair, is not decided again.  Labelings of m ranked
    edges are taken _CHUNK_LABELS // m at a time: one walk of a source's
    route trie gives, for all of its targets, the labelings that keep
    each route, each pair's chunk splits by kept set, and the gap with
    the lowest labeling, then the first pair, wins, as it would one
    labeling at a time.
    """
    if samples is not None and samples > _WORK_BUDGET:
        raise ResourceLimitError(
            f"sampled falsification of {samples} labelings is past the work budget "
            f"of {_WORK_BUDGET} labelings")
    searched = _searched_blocks(g)
    if not searched:
        return None
    if samples is None:
        orders = sum(_weak_orders(len(block.edges)) for block in searched)
        if orders > _WORK_BUDGET:
            which = f"{len(searched)} blocks" if len(searched) > 1 else "a block"
            raise ResourceLimitError(
                f"exhaustive falsification over {which} of "
                f"{sum(len(block.edges) for block in searched)} edges would try at least "
                f"{orders} labelings, past the work budget of {_WORK_BUDGET}")
    else:
        weight = sum(2 * _free_pairs(block) * len(block.edges) for block in searched)
        if weight > _WORK_BUDGET:
            raise ResourceLimitError(
                f"sampled falsification would list routes for ordered pairs weighing {weight} "
                f"(pairs times the edges of their block), past the work budget of {_WORK_BUDGET}")
    # a search ranks its blocks' edges: exhaustive search one block at a
    # time, testing pairs s < t, sampling all at once, testing every pair
    vertices = sorted(g.vertices)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    searches = []
    for blocks in ([[block] for block in searched] if samples is None else [searched]):
        # each source's targets, sources and targets in ascending order
        sources: dict[int, list[int]] = {}
        for s, t in sorted((s, t) for block in blocks for s, t in permutations(block.vertices, 2)
                           if (samples is not None or s < t) and not g.adjacent(s, t)):
            sources.setdefault(s, []).append(t)
        hop_of: dict[tuple[int, int], int] = {}
        walks = [(s, targets, *_source_trie(s, targets, [b for b in blocks if s in b.vertices],
                                            hop_of, bit))
                 for s, targets in sources.items()]
        searches.append((tuple(sorted(e.id for block in blocks for e in block.edges)),
                         walks, [g.parallel_edges(a, b) for a, b in hop_of]))

    # kept route sets found gap-free, as bitmasks over a pair's routes, and
    # minimal interior families found gap-free, shared by every pair: bit i
    # of an interior stands for vertices[i] whatever the pair
    gap_free: dict[tuple[int, int], set[int]] = {}
    decided: set[frozenset[int]] = set()
    remembered = 0
    for edge_ids, walks, hops in searches:
        m = len(edge_ids)
        step = max(1, _CHUNK_LABELS // m)
        labelings = (_weak_order_columns(m, step) if samples is None
                     else _sampled_columns(random.Random(seed), m, samples, step))
        for count, columns in labelings:
            planes = _hop_planes(hops, dict(zip(edge_ids, columns)), min(m, 255))
            first, found = count, None
            for s, targets, trie, interiors in walks:
                if not first:
                    break
                keeps = _kept_routes(trie, list(map(len, interiors)), planes, (1 << first) - 1)
                for t, masks, keep in zip(targets, interiors, keeps):
                    if not first:
                        break
                    # only labelings before the first gap so far can hold an earlier
                    # one; keep may hold later ones, which _kept_sets ignores
                    universe = (1 << first) - 1
                    known = gap_free.setdefault((s, t), set())
                    for k, alive in _kept_sets(keep, universe):
                        if alive in known:
                            continue
                        family = _minimal_family(masks, alive)
                        if family not in decided:
                            minimal = sorted(family)
                            c = len(_min_hitting(minimal, vertices, s, t))
                            # c <= 1: p = c = 0, or one path exists and p >= 1 = c
                            p = len(_max_packing(minimal, s, t, c)) if c > 1 else c
                            if p < c:
                                first, found = k, (s, t, p, c)
                                break
                            if remembered < _MEMO_CAP:
                                decided.add(family)
                                remembered += len(family)
                        if remembered < _MEMO_CAP:
                            known.add(alive)
                            remembered += 1
            if found is None:
                continue
            s, t, p, c = found
            label_of = {eid: column[first] for eid, column in zip(edge_ids, columns)}
            tg = TemporalGraph.make(g, {e.id: label_of.get(e.id, 1) for e in g.edges})
            cut_cert = min_vertex_cut(tg, s, t)
            path_cert = max_disjoint_paths(tg, s, t)
            if len(path_cert) != p or len(cut_cert) != c:
                raise InternalError("route engine disagrees with the exact oracles")
            return Counterexample(tg, s, t, path_cert, cut_cert)
    return None
