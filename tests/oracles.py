"""Independent brute-force reference implementations.

Deliberately written against the definitions, with no reuse of the
library's search strategies: path enumeration walks raw edge sequences,
reachability grows (vertex, arrival) states, and cuts try subsets
directly.  Slow but safe on small instances.

Some references are the library's own earlier, plainer forms of code a
faster one replaced: the block split on a built simple graph, time
reversal with the latest-departure bound read off it, the hop-by-hop
embedding check, the falsifier's per-pair route listing with its
route trie built one sequence at a time, the graph-file reader that
strips and splits every line, and the subdivided-pattern generator that
rebuilds the graph after every step.
"""

import io
import random
from itertools import combinations, permutations
from operator import itemgetter

from mengerian.cli import GraphFileError
from mengerian.menger import _route_paths
from mengerian.multigraph import Multigraph, m_subdivide
from mengerian.patterns import PATTERNS
from mengerian.temporal import TemporalGraph


def brute_reachable(tg, s, banned_vertices=(), banned_edges=()):
    return set(brute_arrival(tg, s, banned_vertices, banned_edges))


def brute_arrival(tg, s, banned_vertices=(), banned_edges=()):
    """Each reachable vertex's earliest arrival label: the smallest over its
    (vertex, arrival) states; s arrives at 0."""
    bv = set(banned_vertices)
    be = set(banned_edges)
    if s in bv:
        return {}
    states = {(s, 0)}
    frontier = [(s, 0)]
    while frontier:
        v, a = frontier.pop()
        for e in tg.graph.edges:
            if v not in e.pair or e.id in be:
                continue
            lab = tg.label(e.id)
            if lab < a:
                continue
            w = e.u + e.v - v
            if w in bv:
                continue
            if (w, lab) not in states:
                states.add((w, lab))
                frontier.append((w, lab))
    arrival = {}
    for v, a in states:
        arrival[v] = min(a, arrival.get(v, a))
    return arrival


def shortest_path_order(g, sources, targets, banned_vertices=()):
    """How many vertices a shortest path has from a source to a target
    whose interior avoids the sources, the targets and the banned
    vertices, or None when there is none: breadth-first by whole layers,
    each layer grown by scanning every edge in both directions."""
    tgt, bv = set(targets), set(banned_vertices)
    seen = set(sources) | bv
    layer = set(sources) - bv
    order = 1
    while layer:
        order += 1
        grown = set()
        for e in g.edges:
            for a, b in (e.pair, e.pair[::-1]):
                if a in layer and b not in seen:
                    if b in tgt:
                        return order
                    grown.add(b)
        seen |= grown
        layer = grown
    return None


def reverse(tg):
    """Flip time: label t becomes lifetime + 1 - t.

    A temporal walk read backwards is temporal in the reversed graph, so
    source/target questions swap roles.
    """
    t = tg.lifetime
    return TemporalGraph(tg.graph, tuple((i, t + 1 - lab) for i, lab in tg.entries))


def latest_departures(tg, s, t):
    """Each vertex's latest label at which a walk avoiding s can leave it
    and still reach t, t at lifetime + 1: the brute-force earliest arrival
    from t in the reversed graph, with s banned, flipped back."""
    arrivals = brute_arrival(reverse(tg), t, banned_vertices=(s,))
    return {v: tg.lifetime + 1 - arrival for v, arrival in arrivals.items()}


def brute_temporal_paths(tg, s, t):
    """Every temporal s,t-path as (vertex tuple, edge id tuple)."""
    out = []

    def dfs(cur, last, vpath, epath):
        if cur == t:
            out.append((tuple(vpath), tuple(epath)))
            return
        for e in tg.graph.edges:
            if cur not in e.pair:
                continue
            lab = tg.label(e.id)
            if lab < last:
                continue
            y = e.u + e.v - cur
            if y in vpath:
                continue
            dfs(y, lab, vpath + [y], epath + [e.id])

    if s != t:
        dfs(s, 0, [s], [])
    return out


def ordered_routes(tg, s, t):
    """Every temporal s,t-route as (vertex tuple, edge id tuple), in
    depth-first order: a plain recursive search with no pruning that
    tries neighbours by ascending vertex id and takes each hop on its
    smallest label not below the arrival, the smallest edge id among
    those.  One route per realizable vertex sequence."""
    hops = {}
    for e in tg.graph.edges:
        for x, y in (e.pair, e.pair[::-1]):
            hops.setdefault(x, {}).setdefault(y, []).append((tg.label(e.id), e.id))
    out = []
    vpath, epath = [s], []

    def dfs(cur, arrived):
        for y in sorted(hops.get(cur, {})):
            fits = [hop for hop in hops[cur][y] if hop[0] >= arrived]
            if not fits or y in vpath:
                continue
            lab, eid = min(fits)
            vpath.append(y)
            epath.append(eid)
            if y == t:
                out.append((tuple(vpath), tuple(epath)))
            else:
                dfs(y, lab)
            vpath.pop()
            epath.pop()

    if s != t:
        dfs(s, 0)
    return out


def rank_assignments(m):
    """All dense label sequences on m edges, each weak order exactly once,
    in the order exhaustive falsification lists them.

    Restricted-growth strings enumerate the set partitions; permuting the
    blocks then assigns their ranks.  Plain growth strings alone would
    conflate orders like (1,2) and (2,1).  The list is closed under
    reversal (rank r becomes top + 1 - r).
    """
    if m < 2:
        yield (1,) * m
        return
    # growth strings depth first, in lexicographic order, with their top
    stack = [((0,), 0)]
    while stack:
        rgs, top = stack.pop()
        if len(rgs) < m:
            stack.extend((rgs + (val,), max(top, val)) for val in reversed(range(top + 2)))
        else:
            yield from map(itemgetter(*rgs), permutations(range(1, top + 2)))


def reference_blocks(g):
    """The blocks of g, each a new graph, in `biconnected_components`'
    order: a depth-first search with low points and a stack of pairs on
    the built underlying simple graph, each block then the subgraph on its
    pairs' parallel edges, looked up by id, blocks sorted by smallest
    vertex, then smallest edge id."""
    simple = g.underlying_simple()
    index, low = {}, {}
    blocks_pairs, edge_stack = [], []
    for root in sorted(g.vertices):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, iter(simple.neighbors(root)), None)]
        while stack:
            x, it, parent = stack[-1]
            for y in it:
                if y == parent:
                    continue
                if y not in index:
                    index[y] = low[y] = len(index)
                    edge_stack.append((min(x, y), max(x, y)))
                    stack.append((y, iter(simple.neighbors(y)), x))
                    break
                if index[y] < index[x]:
                    edge_stack.append((min(x, y), max(x, y)))
                    low[x] = min(low[x], index[y])
            else:
                stack.pop()
                if stack:
                    px = stack[-1][0]
                    low[px] = min(low[px], low[x])
                    if low[x] >= index[px]:
                        comp = []
                        while True:
                            pe = edge_stack.pop()
                            comp.append(pe)
                            if pe == (min(px, x), max(px, x)):
                                break
                        blocks_pairs.append(comp)
    by_id = {e.id: e for e in g.edges}
    out = []
    for comp in blocks_pairs:
        es = tuple(by_id[i] for i in sorted(i for p in comp for i in g.parallel_edges(*p)))
        out.append(Multigraph(frozenset(x for e in es for x in e.pair), es))
    out.sort(key=lambda b: (min(b.vertices), b.edges[0].id))
    return tuple(out)


def sampled_labelings(seed, m, samples):
    """The labelings sampled falsification lists: samples seeded uniform
    labelings of m edges in 1..min(m, 255), each label drawn alone by
    randint, edge by edge, labeling by labeling."""
    rng = random.Random(seed)
    r = min(m, 255)
    return [tuple(rng.randint(1, r) for _ in range(m)) for _ in range(samples)]


def hop_planes(hops, columns):
    """Per hop, (label, labelings) pairs by ascending label, one labeling
    at a time: bit k is set when labeling k gives some edge of the hop
    that label.  columns maps an edge id to its labels, one per
    labeling."""
    count = len(next(iter(columns.values())))
    planes = []
    for hop in hops:
        plane = {}
        for k in range(count):
            for eid in hop:
                lab = columns[eid][k]
                plane[lab] = plane.get(lab, 0) | 1 << k
        planes.append(sorted(plane.items()))
    return planes


def pair_routes(g, s, targets):
    """Each target's static routes from s, listed pair by pair: the
    temporal routes under label 1 on every edge of g, as vertex
    sequences, by ascending length."""
    static = TemporalGraph.make(g, {e.id: 1 for e in g.edges})
    return [[p.vertices for p in sorted(_route_paths(static, s, t), key=lambda p: len(p.vertices))]
            for t in targets]


def route_trie(targets, hop_of):
    """targets[j]'s sequences inserted one at a time into a prefix trie of
    [hop, slot, route, children] nodes: hop numbers the vertex pair of
    the node's last step in hop_of on first sight, slot and route locate
    the sequence ending at the node (route indexes targets[slot]) or are
    -1, and children map the next vertex to its node."""
    root = {}
    for slot, seqs in enumerate(targets):
        for i, seq in enumerate(seqs):
            level = root
            for a, b in zip(seq, seq[1:]):
                node = level.get(b)
                if node is None:
                    node = level[b] = [hop_of.setdefault((min(a, b), max(a, b)), len(hop_of)),
                                       -1, -1, {}]
                level = node[3]
            node[1:3] = slot, i
    return root


def brute_p(tg, s, t):
    """Maximum internally vertex-disjoint temporal s,t-paths."""
    internals = sorted({frozenset(vs[1:-1]) for vs, _ in brute_temporal_paths(tg, s, t)},
                       key=sorted)

    best = 0

    def rec(idx, used, k):
        nonlocal best
        best = max(best, k)
        if k + len(internals) - idx <= best:
            return
        for i in range(idx, len(internals)):
            if not internals[i] & used:
                rec(i + 1, used | internals[i], k + 1)

    rec(0, frozenset(), 0)
    return best


def brute_c(tg, s, t):
    """Minimum temporal s,t vertex cut (s, t non-adjacent)."""
    assert not tg.graph.adjacent(s, t)
    if t not in brute_reachable(tg, s):
        return 0
    others = sorted(tg.graph.vertices - {s, t})
    for size in range(1, len(others) + 1):
        for sub in combinations(others, size):
            if t not in brute_reachable(tg, s, banned_vertices=sub):
                return size
    raise AssertionError("unreachable: removing all internals separates")


def brute_min_cut_set(tg, s, t):
    """The lexicographically first smallest vertex set (s, t excluded)
    whose removal leaves t unreachable from s; s, t non-adjacent."""
    assert not tg.graph.adjacent(s, t)
    others = sorted(tg.graph.vertices - {s, t})
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            if t not in brute_reachable(tg, s, banned_vertices=sub):
                return frozenset(sub)
    raise AssertionError("unreachable: removing all internals separates")


def brute_edge_p(tg, s, t):
    paths = [es for _, es in brute_temporal_paths(tg, s, t)]
    edge_sets = sorted({frozenset(es) for es in paths}, key=sorted)
    best = 0

    def rec(idx, used, k):
        nonlocal best
        best = max(best, k)
        if k + len(edge_sets) - idx <= best:
            return
        for i in range(idx, len(edge_sets)):
            if not edge_sets[i] & used:
                rec(i + 1, used | edge_sets[i], k + 1)

    rec(0, frozenset(), 0)
    return best


def brute_edge_c(tg, s, t):
    if t not in brute_reachable(tg, s):
        return 0
    ids = sorted(e.id for e in tg.graph.edges)
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            if t not in brute_reachable(tg, s, banned_edges=sub):
                return size
    raise AssertionError("unreachable: removing all edges separates")


# ----------------------------------------------------------------------
# m-topological minors, by the definition


def brute_m_minor(g, pattern, pin=None):
    """Does the multigraph g hold `pattern` as an m-topological minor: an
    injective map of the pattern's vertices into g's, and per pattern
    pair of multiplicity mu a path of g between the pair's images whose
    every hop has multiplicity mu or more, the paths internally disjoint
    and avoiding the images?  pin maps pattern vertices to the host
    vertices they must land on.

    The routes leave a branch vertex to distinct neighbours, so it needs,
    per incident pattern pair, a distinct neighbour joined to it by at
    least the pair's multiplicity; every injective map onto such vertices
    is tried, and per map every path of each pair, pair by pair."""
    pairs = sorted({e.pair: pattern.graph.multiplicity(*e.pair)
                    for e in pattern.graph.edges}.items())
    pvs = sorted(pattern.graph.vertices)
    pin = pin or {}

    def roomy(x, needs):
        # the largest need against the largest multiplicity, and so on down
        have = sorted((g.multiplicity(x, y) for y in g.neighbors(x)), reverse=True)
        return len(have) >= len(needs) and all(h >= n for h, n in zip(have, needs))

    candidates = []
    for p in pvs:
        needs = sorted((mu for pair, mu in pairs if p in pair), reverse=True)
        candidates.append([x for x in sorted(g.vertices)
                           if roomy(x, needs) and pin.get(p, x) == x])

    def paths(x, y, mu, banned):
        """Every x..y path whose hops have multiplicity mu or more and
        whose interior avoids banned."""
        stack = [(x, (x,))]
        while stack:
            cur, path = stack.pop()
            for nxt in g.neighbors(cur):
                if g.multiplicity(cur, nxt) < mu:
                    continue
                if nxt == y:
                    yield path + (y,)
                elif nxt not in banned and nxt not in path:
                    stack.append((nxt, path + (nxt,)))

    def route(i, branch, banned):
        if i == len(pairs):
            return True
        (a, b), mu = pairs[i]
        return any(route(i + 1, branch, banned | set(path[1:-1]))
                   for path in paths(branch[a], branch[b], mu, banned))

    def place(k, branch):
        if k == len(pvs):
            return route(0, branch, frozenset(branch.values()))
        for x in candidates[k]:
            if x not in branch.values():
                branch[pvs[k]] = x
                if place(k + 1, branch):
                    return True
                del branch[pvs[k]]
        return False

    return place(0, {})


# ----------------------------------------------------------------------
# embeddings, checked hop by hop


def check_m_subdivision(host, emb):
    """Why `emb` is not an m-subdivision embedding, or None when it is:
    every route walked hop by hop, in pattern pair order, and its first
    fault named."""
    pat = emb.pattern
    want = {e.pair: pat.graph.multiplicity(*e.pair) for e in pat.graph.edges}
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
    by_id = {e.id: e for e in host.edges}
    seen_interior = set()
    seen_edges = set()
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
                e = by_id.get(eid)
                if e is None:
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


# ----------------------------------------------------------------------
# graph files and generated inputs, as first written


def read_graphfile(text):
    """(vertex names, endpoint pairs in file order, labels or None) of a
    graph file in `mengerian.cli`'s format, or GraphFileError naming the
    line of the first fault: the text is read line by line in Python's
    universal newlines mode, every line has its comment cut, is stripped
    and split, and each check runs in the order the format lists it."""
    names = []
    ids = {}
    pairs = []
    labels = []
    labeled = None

    def fail(lineno, msg):
        return GraphFileError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v":
            if len(fields) != 2:
                raise fail(lineno, "expected: v <name>")
            name = fields[1]
            if name in ids:
                raise fail(lineno, f"duplicate vertex {name!r}")
            ids[name] = len(names)
            names.append(name)
        elif fields[0] == "e":
            if len(fields) not in (3, 4):
                raise fail(lineno, "expected: e <u> <v> [<label>]")
            for name in fields[1:3]:
                if name not in ids:
                    raise fail(lineno, f"undeclared vertex {name!r}")
            u, v = ids[fields[1]], ids[fields[2]]
            if u == v:
                raise fail(lineno, f"self-loop at {fields[1]!r}")
            has_label = len(fields) == 4
            if labeled is None:
                labeled = has_label
            elif labeled != has_label:
                raise fail(lineno, "labels must appear on all edges or on none")
            if has_label:
                text_label = fields[3]
                ok = len(text_label) <= 4300 and text_label.isascii() and text_label.isdigit()
                lab = int(text_label) if ok else -1
                if lab < 1:
                    raise fail(lineno, f"label must be a positive integer, got {fields[3]!r}")
                labels.append(lab)
            pairs.append((u, v))
        else:
            raise fail(lineno, f"unknown directive {fields[0]!r}")
    return names, pairs, (labels if labeled else None)


def subdivided_pattern(name, ops, rng):
    """A pattern after `ops` random m-subdivisions: each step lists the
    distinct adjacent pairs of the graph built so far, sorted, picks one
    with `rng.randrange` and subdivides it with `m_subdivide`."""
    g = {p.name: p for p in PATTERNS}[name].graph
    for _ in range(ops):
        choices = sorted({e.pair for e in g.edges})
        u, v = choices[rng.randrange(len(choices))]
        g, _ = m_subdivide(g, u, v)
    return g
