"""Deciding whether every labeling of a multigraph obeys path = cut.

The test runs per 2-connected block.  A block fails outright when it
contains the F3 shape.  Otherwise each maximal doubled chain is asked
for a gem with the chain, contracted to a single vertex, as its apex:
four legs from the contracted chain to four teeth along a spine outside
it.  Such a gem needs the contracted vertex to have four distinct
neighbours and two other vertices to have three.  Both counts are read
off the chain's ends without building anything, and a chain short of
either is settled there.  Any other chain is contracted on a copy of
its block's adjacency, not as a graph, and an F3 search pinned to its
vertex looks for the gem there.  Each leg of a hit
reaches one chain end, two legs each end: anything else is a gem in the
block, pinned at a chain end, that the block check would have found.  So
legs 0 and 1 with the spine between their teeth make one path between
chain ends, and legs 2 and 3 another.  When legs 0 and 1 meet the same
end, the two paths are cycles, one through each end, and they assemble
into a certified F2 embedding.  Otherwise the paths cross the chain and
assemble into F1, except when legs 0 and 2 meet the same end and both
middle legs are bare edges.  Then F1 needs a connection outside the two
paths; without one the block is pinched around the chain in a crossed
shape that cannot carry F1 or F2 and is kept as a diagnostic.  Which
construction applies is read off the legs, so an assembly that fails is
a fault, not a verdict: its AssemblyError propagates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import (
    Chain,
    InternalError,
    Multigraph,
    biconnected_components,
    find_path,
    identify,  # unused here: the benchmark's tracer rebinds recognizer.identify
    maximal_chains,
)
from .patterns import (
    MEmbedding,
    assemble_f1,
    assemble_f2,
    check_m_subdivision,
    find_f3_subdivision,
    find_gem,
)
from .temporal import TemporalGraph
from .witness import WitnessReport, make_witness, verify_witness
from .menger import ResourceLimitError


@dataclass(frozen=True)
class CrossedStructure:
    """A chain pinched between two crossing paths; F1/F2 cannot use it.

    One crossing path runs end to end through corners[0] and corners[1],
    the other through corners[2] and corners[3].  b2 holds the interior
    of the built-in cross connection; b1 is the interior of an extra
    corner-to-corner connection when one exists (an empty set means a
    direct edge), or None when there is none.
    """

    chain: Chain
    corners: tuple[int, int, int, int]
    a1: frozenset[int]
    a2: frozenset[int]
    b2: frozenset[int]
    b1: frozenset[int] | None

    @property
    def kind(self) -> int:
        return 1 if self.b1 is None else 2


@dataclass
class Verdict:
    mengerian: bool
    embedding: MEmbedding | None = None
    crossed: tuple[CrossedStructure, ...] = ()
    chains_examined: int = 0


@dataclass
class Proof:
    """A counterexample labeling for a non-Mengerian verdict."""

    labeled: TemporalGraph
    source: int
    target: int
    report: WitnessReport | None  # None when verification was refused
    refused: ResourceLimitError | None  # why, when it was


def recognize(g: Multigraph) -> Verdict:
    """Mengerian verdict or the first forbidden embedding found, with the
    crossed shapes met before it: all of them on a Mengerian verdict."""
    crossed: list[CrossedStructure] = []
    examined = 0
    for block in biconnected_components(g):
        if len(block.edges) < 2:
            continue
        if block.max_simple_degree() >= 4:
            emb = find_f3_subdivision(block)
            if emb is not None:
                return Verdict(False, emb, tuple(crossed), examined)
        if not block.has_parallel_edges():
            continue
        branching = sum(len(ns) >= 3 for ns in block._adj.values())
        for chain in maximal_chains(block):
            examined += 1
            apex_degree, others = _contracted_degrees(block, chain, branching)
            if apex_degree < 4 or others < 2:
                continue  # no gem can have the contracted chain as its apex
            got = _analyze_chain(block, chain)
            if isinstance(got, MEmbedding):
                return Verdict(False, got, tuple(crossed), examined)
            if got is not None:
                crossed.append(got)
    return Verdict(True, None, tuple(crossed), examined)


def recognize_with_proof(g: Multigraph) -> tuple[Verdict, Proof | None]:
    """recognize(), plus a labeled counterexample for negative verdicts.

    The labeling is measured by the exact oracles, on a host of any size.
    When an oracle refuses work past its budget, the proof ships
    unverified (report None) and keeps the refusal.
    """
    verdict = recognize(g)
    if verdict.mengerian:
        return verdict, None
    emb = verdict.embedding
    reason = check_m_subdivision(g, emb)
    if reason is not None:
        raise InternalError(f"embedding does not hold in the full graph: {reason}")
    labeled = make_witness(g, emb)
    try:
        report, refused = verify_witness(labeled, emb.source, emb.target), None
    except ResourceLimitError as exc:
        report, refused = None, exc
    return verdict, Proof(labeled, emb.source, emb.target, report, refused)


# ----------------------------------------------------------------------


def _contracted_degrees(block: Multigraph, chain: Chain, branching: int) -> tuple[int, int]:
    """Two simple degrees of the block with the chain contracted, unbuilt.

    Returns the contracted vertex ell's number of distinct neighbours,
    and how many vertices other than ell have 3 or more; `branching`
    counts the block's vertices with 3 or more.

    Both come from the chain's two ends.  An inner chain vertex has two
    neighbours, both on the chain, so ell's neighbours are the ends'
    neighbours off the chain.  A vertex off the chain keeps its
    neighbours, except that its edges to both ends (when it has both)
    become parallel edges to ell: it loses one distinct neighbour
    exactly when it is adjacent to both ends.  Those common neighbours
    are read off the end of smaller degree, each tested against the
    other end, so a chain costs O(|chain| + that degree), however many
    neighbours a hub at its other end has.

    A gem with apex ell needs ell's degree to be 4 or more: its four
    legs meet only at ell, so they reach it through four distinct
    neighbours.  It also needs two vertices other than ell of degree 3
    or more: each middle tooth is not an end of the spine, so it has two
    spine neighbours and the next vertex of its leg, which leaves the
    spine at once, and the spine avoids ell.  So when either number
    falls short, the pinned search `find_gem` on `_contracted_adj`
    returns None, and the chain is never contracted.
    """
    z0, zq = chain.first, chain.last
    degree = block.simple_degree
    small, big = (z0, zq) if degree(z0) <= degree(zq) else (zq, z0)
    on_chain = set(chain.vertices)
    shared = [x for x in block.neighbors(small)
              if x not in on_chain and block.adjacent(x, big)]
    off_chain = sum(degree(z) - sum(block.adjacent(z, y) for y in chain.vertices if y != z)
                    for z in (z0, zq))
    others = (branching - sum(degree(v) >= 3 for v in chain.vertices)
              - sum(degree(x) == 3 for x in shared))
    return off_chain - len(shared), others


def _contracted_adj(block: Multigraph, chain: Chain) -> tuple[dict[int, tuple[int, ...]], int]:
    """`identify(block, chain.vertices)`'s adjacency and fresh vertex ell, unbuilt.

    Only the chain's ends have neighbours off the chain: ell gets them,
    and each ends its list with ell in place of the chain, so every list
    stays ascending, as in a built graph, since ell is the largest vertex.
    """
    on_chain = set(chain.vertices)
    outside = sorted({x for z in (chain.first, chain.last) for x in block._adj[z]} - on_chain)
    ell = max(block.vertices) + 1
    adj = {**block._adj, ell: tuple(outside)}
    for z in on_chain:
        del adj[z]
    adj.update((x, tuple(y for y in adj[x] if y not in on_chain) + (ell,)) for x in outside)
    return adj, ell


def _analyze_chain(block: Multigraph, chain: Chain):
    """One chain's verdict: an embedding, a crossed structure, or None.

    `recognize` calls it only on chains that pass the degree check of
    `_contracted_degrees`; on the others the pinned search below would
    come back empty.  It runs on `_contracted_adj` and checks its routes
    there; an F1 or F2 assembled from them takes its edges from the block.

    Each leg's last vertex before ell is adjacent to exactly one chain
    end, and two legs meet each end; anything else raises InternalError.
    For otherwise some end E gets three legs (two of the others, plus
    the leg with both ends when there is one), and the remaining leg
    reaches E directly or through the other end and the chain's
    interior, which no spine or leg uses.  That is a gem in the block
    with apex E, and E has four neighbours, so the block search
    `find_f3_subdivision(block)` ran before any chain was analyzed and
    would have returned it.

    c1 runs from leg 0's end along leg 0, the spine to tooth 1 and leg 1
    to its end; c2 likewise along legs 2 and 3.  Closed c1 and c2 give
    F2.  Open ones cross.  When legs 0 and 3 meet the same end, or a
    middle leg has an interior vertex, a chain end leaves a spare vertex
    before both attachments, and they give F1 with the spine between
    teeth 1 and 2 as the joint.  When both middle legs are bare edges
    (legs 0 and 2 then meet the same end), F1 needs a connection outside
    the two paths.  Without one the shape is crossed.
    """
    gem = find_gem(*_contracted_adj(block, chain))
    if gem is None:
        return None
    branch, routes = gem
    legs = [routes[(i, 4)] for i in range(4)]  # tooth i .. ell
    b, c, seg_bc = branch[1], branch[2], routes[(1, 2)]
    z0, zq = chain.first, chain.last

    ends = []
    for leg in legs:
        reach = [e for e in (z0, zq) if block.adjacent(e, leg[-2])]
        if len(reach) != 1:
            raise InternalError(f"a leg reaches {'both chain ends' if reach else 'no chain end'},"
                                " which would re-create an F3 the block check excluded")
        ends += reach
    if ends.count(z0) != 2:
        raise InternalError("an uneven split would re-create an F3 the block check excluded")

    def path(i: int) -> tuple[int, ...]:
        """Chain end, leg i, the spine to tooth i+1, leg i+1, chain end."""
        return ((ends[i],) + legs[i][-2::-1] + routes[(i, i + 1)][1:]
                + legs[i + 1][1:-1] + (ends[i + 1],))

    c1, c2 = path(0), path(2)
    if ends[0] == ends[1]:
        return assemble_f2(block, chain, c1, b, c2, c, seg_bc)
    if ends[0] == ends[3] or len(legs[1]) > 2 or len(legs[2]) > 2:
        return assemble_f1(block, chain, c1, c2, b, c, seg_bc)
    # legs 0 and 2 share an end, and both middle legs are bare edges
    return _external_connections(block, chain, c1, c2, b, c, seg_bc,
                                 legs[0][-2], legs[3][-2])


def _external_connections(
    block: Multigraph,
    chain: Chain,
    c1: tuple[int, ...],
    c2: tuple[int, ...],
    b: int,
    c: int,
    seg_bc: tuple[int, ...],
    x1: int,
    x4: int,
):
    """Hunt for outside paths that upgrade a crossing to F1.

    c1 and c2 are the two crossing end-to-end paths with their middle
    attachments b and c bare (c1 = end, x1, .., b, end; c2 = end, c,
    .., x4, end).  A connection from the cross segment to either path,
    or between the paths anywhere except corner to corner, yields F1;
    a corner-to-corner one makes the shape 2-crossed, none 1-crossed.
    """
    a1 = set(c1[2:c1.index(b)])
    a2 = set(c2[2:c2.index(x4)])
    b2 = set(seg_bc[1:-1])
    banned = set(chain.vertices) | {b, c}  # every search avoids these
    aside = a1 | {x1} | a2 | {x4}

    vs = find_path(block, sorted(b2), sorted(aside), banned_vertices=banned)
    if vs is not None:
        y_b, y_a = vs[0], vs[-1]
        k = seg_bc.index(y_b)
        if y_a in a1 or y_a == x1:
            joint = tuple(reversed(vs)) + seg_bc[k + 1:]
            return assemble_f1(block, chain, c1, c2, y_a, c, joint)
        joint = seg_bc[:k] + vs
        return assemble_f1(block, chain, c1, c2, b, y_a, joint)

    vs = find_path(block, sorted(a1), sorted(a2 | {x4}), banned_vertices=banned | b2 | {x1})
    if vs is not None:
        return assemble_f1(block, chain, c1, c2, vs[0], vs[-1], vs)

    vs = find_path(block, [x1], sorted(a2), banned_vertices=banned | b2 | a1 | {x4})
    if vs is not None:
        return assemble_f1(block, chain, c1, c2, x1, vs[-1], vs)

    vs = find_path(block, [x1], [x4], banned_vertices=banned | b2 | a1 | a2)
    b1 = frozenset(vs[1:-1]) if vs is not None else None
    return CrossedStructure(
        chain=chain,
        corners=(x1, b, c, x4),
        a1=frozenset(a1),
        a2=frozenset(a2),
        b2=frozenset(b2),
        b1=b1,
    )
