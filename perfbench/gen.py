"""Seeded graph generators for the benchmark.

Every generator works on plain endpoint-pair lists and takes its
randomness from the `random.Random` it is given, so the bytes of every
input file depend only on the seed and on this file, never on the code
under test.  A graph is `(n, pairs)` with vertices 0..n-1 and one pair
per edge (repeat a pair for parallel edges); labeled graphs add one
label per edge.
"""

from __future__ import annotations

import random

# The forbidden shapes, with the same vertex numbering as the program's
# patterns: F1 and F2 carry one doubled pair (3, 4), F3 is the gem.
SHAPES = {
    "F1": (6, [(0, 1), (1, 4), (3, 4), (3, 5), (0, 3), (3, 4), (1, 2), (4, 2), (2, 5)]),
    "F2": (6, [(0, 1), (1, 3), (3, 4), (4, 5), (0, 3), (3, 4), (1, 2), (4, 2), (2, 5)]),
    "F3": (5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
}

# Doubled chain 0-1-2-3 pinched between crossings 0-4-5-3 and 0-6-7-3:
# Mengerian, with one 2-crossed structure around the chain.  The legs
# join the chain ends to the corners; the four other simple pairs are
# the parts that may be subdivided without exposing F1.
CROSSED_CHAIN = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3)]
CROSSED_LEGS = [(0, 4), (0, 6), (3, 5), (3, 7)]
CROSSED_PARTS = [(4, 5), (6, 7), (5, 6), (4, 7)]


def classes(pairs):
    """Distinct endpoint pairs with their multiplicities, in first-seen order."""
    mult: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    return list(mult.items())


def m_subdivide(n, pairs, key):
    """Route the whole parallel class `key` through a fresh vertex n."""
    u, v = key
    mu = sum(1 for p in pairs if (min(p), max(p)) == key)
    kept = [p for p in pairs if (min(p), max(p)) != key]
    return n + 1, kept + [(u, n)] * mu + [(n, v)] * mu


def subdivide_path(n, pairs, key, hops):
    """Replace the class `key` by a path of `hops` hops of the same multiplicity."""
    for _ in range(hops - 1):
        n, pairs = m_subdivide(n, pairs, key)
        key = (min(key[0], n - 1), max(key[0], n - 1))
    return n, pairs


def subdivided_shape(name, n_target, rng):
    """The shape with its classes stretched into paths until it has
    n_target vertices.  Each class takes a random share of the new
    vertices, between a half and one and a half of an even split, so
    hosts of one size cost the program about the same."""
    n, pairs = SHAPES[name]
    keys = [key for key, _ in classes(pairs)]
    weights = [rng.uniform(0.5, 1.5) for _ in keys]
    extra = max(0, n_target - n)
    hops = [int(extra * w / sum(weights)) for w in weights]
    for i in rng.sample(range(len(keys)), extra - sum(hops)):
        hops[i] += 1
    for key, h in zip(keys, hops):
        n, pairs = subdivide_path(n, pairs, key, h + 1)
    return n, pairs


def add_chords(n, pairs, k, rng):
    """k extra simple edges between non-adjacent vertices; a supergraph
    keeps every m-topological minor of the host."""
    present = {(min(p), max(p)) for p in pairs}
    out = list(pairs)
    while k > 0:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        out.append(key)
        k -= 1
    return n, out


def add_pendant_trees(n, pairs, k, rng):
    """k fresh vertices, each hung from a random earlier vertex: the
    bridges become extra blocks without touching the existing ones."""
    out = list(pairs)
    for _ in range(k):
        out.append((rng.randrange(n), n))
        n += 1
    return n, out


def dense_multigraph(n, m, max_mult, rng):
    """Random multigraph: a random spanning tree, then random pairs up to m
    edges with multiplicity at most max_mult."""
    mult: dict[tuple[int, int], int] = {}
    pairs = []

    def put(u, v):
        key = (min(u, v), max(u, v))
        if mult.get(key, 0) >= max_mult:
            return
        mult[key] = mult.get(key, 0) + 1
        pairs.append(key)

    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        put(order[rng.randrange(i)], order[i])
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            put(u, v)
    return n, pairs


def k2n_doubled_side(k):
    """K2,k on hubs 0, 1 and middles 2..k+1, every edge at hub 0 doubled.
    Each doubled pair is a chain of its own whose pinned gem search must
    come back empty."""
    pairs = []
    for m in range(2, k + 2):
        pairs += [(0, m), (0, m), (m, 1)]
    return k + 2, pairs


def long_spoke_k25(hops, rng):
    """K2,5 on hubs 0, 1 whose five spokes are paths of about `hops` hops;
    the first spoke is doubled along its whole length."""
    n, pairs = 2, []
    for spoke in range(5):
        spread = hops // 4
        length = hops + rng.randrange(-spread, spread + 1)
        mu = 2 if spoke == 0 else 1
        prev = 0
        for _ in range(length - 1):
            pairs += [(prev, n)] * mu
            prev, n = n, n + 1
        pairs += [(prev, 1)] * mu
    return n, pairs


def crossed_subdivided(rng, max_hops):
    """The crossed fixture with each of its four parts stretched to a path
    of 1..max_hops hops.  The chain and the legs stay as they are."""
    n, pairs = 8, CROSSED_CHAIN + CROSSED_LEGS + CROSSED_PARTS
    for key in CROSSED_PARTS:
        n, pairs = subdivide_path(n, pairs, key, rng.randint(1, max_hops))
    return n, pairs


def labeled_multigraph(n, m, max_label, rng):
    """A connected random multigraph (max multiplicity 2) with labels in
    1..max_label."""
    n, pairs = dense_multigraph(n, m, 2, rng)
    return n, pairs, [rng.randint(1, max_label) for _ in pairs]


def doubled_corridor(hops, rng):
    """A path of `hops` doubled hops; labels never decrease along it, so
    two edge-disjoint temporal paths run end to end."""
    pairs, labels = [], []
    lab = 1
    for i in range(hops):
        lab += rng.randrange(2)
        pairs += [(i, i + 1)] * 2
        labels += [lab, lab + rng.randrange(2)]
    return hops + 1, pairs, labels


def nonadjacent_pairs(n, pairs, k, rng):
    """k distinct ordered pairs of distinct, non-adjacent vertices."""
    present = {(min(p), max(p)) for p in pairs}
    cand = [(s, t) for s in range(n) for t in range(n)
            if s != t and (min(s, t), max(s, t)) not in present]
    return rng.sample(cand, min(k, len(cand)))


def graph_text(n, pairs, labels=None):
    """The graph file format: `v <name>` lines, then `e <u> <v> [<label>]`."""
    out = [f"v v{i}" for i in range(n)]
    for i, (u, v) in enumerate(pairs):
        out.append(f"e v{u} v{v}" + ("" if labels is None else f" {labels[i]}"))
    return "\n".join(out) + "\n"


def temporal_route_count(n, pairs, labels, s, t, cap):
    """Number of temporal s-t paths (one per realizable vertex sequence),
    counted up to cap + 1.  Used to keep the vertex queries inside a band
    of route counts, which is what their cost follows."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for (u, v), lab in zip(pairs, labels):
        adj[u].append((v, lab))
        adj[v].append((u, lab))
    count = 0
    on_path = [False] * n
    stack = [(s, 0, None)]
    # iterative DFS: (vertex, arrival label, None) enters, (vertex, _, True) leaves
    while stack and count <= cap:
        x, arrived, leaving = stack.pop()
        if leaving:
            on_path[x] = False
            continue
        if x == t:
            count += 1
            continue
        on_path[x] = True
        stack.append((x, 0, True))
        earliest: dict[int, int] = {}
        for y, lab in adj[x]:
            if lab >= arrived and not on_path[y] and lab < earliest.get(y, lab + 1):
                earliest[y] = lab
        stack.extend((y, lab, None) for y, lab in earliest.items())
    return count
