"""Deciding whether every labeling of a multigraph obeys path = cut.

The test runs per 2-connected block.  A block fails outright when it
contains the F3 shape.  Otherwise each maximal doubled chain gets
contracted to a single vertex, and an F3 search pinned to that vertex
looks for four attachment legs plus an outer path around the chain.  A
hit splits two legs to each chain end (any other split would mean an F3
the block check already excluded); the split pattern either assembles
into a certified F1 or F2 embedding, or the block is pinched around the
chain in a crossed shape that cannot carry those patterns and is kept
as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .multigraph import (
    Chain,
    InternalError,
    Multigraph,
    biconnected_components,
    find_path,
    identify,
    maximal_chains,
)
from .patterns import (
    AssemblyError,
    MEmbedding,
    assemble_f1,
    assemble_f2,
    check_m_subdivision,
    find_f3_subdivision,
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
        for chain in maximal_chains(block):
            examined += 1
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


def _leg_path(end: int, leg: tuple[int, ...]) -> tuple[int, ...]:
    """Leg rerooted at a concrete chain end instead of the contraction."""
    return (end,) + leg[1:]


def _analyze_chain(block: Multigraph, chain: Chain):
    """One chain's verdict: an embedding, a crossed structure, or None."""
    g_l, ell = identify(block, chain.vertices)
    gem = find_f3_subdivision(g_l, apex=ell)
    if gem is None:
        return None
    corner = [gem.branch[i] for i in range(4)]
    legs = [tuple(reversed(gem.routes[(i, 4)])) for i in range(4)]
    seg_ab = gem.routes[(0, 1)]
    seg_bc = gem.routes[(1, 2)]
    seg_cd = gem.routes[(2, 3)]
    z0, zq = chain.first, chain.last

    options = []
    for leg in legs:
        x = leg[1]
        opts = [e for e in (z0, zq) if block.adjacent(e, x)]
        if not opts:
            raise InternalError("every leg must reach a chain end")
        options.append(opts)

    fallback: CrossedStructure | None = None
    for assign in product(*options):
        u1, u2, u3, u4 = assign
        if assign.count(z0) != 2:
            raise InternalError(
                "an uneven split would re-create an F3 the block check excluded"
            )
        if u1 == u4:
            c1 = (_leg_path(u1, legs[0]) + seg_ab[1:]
                  + tuple(reversed(legs[1]))[1:-1] + (u2,))
            c2 = (_leg_path(u4, legs[3]) + tuple(reversed(seg_cd))[1:]
                  + tuple(reversed(legs[2]))[1:-1] + (u3,))
            return assemble_f1(block, chain, c1, c2, corner[1], corner[2], seg_bc)
        if u1 == u2:
            cyc1 = (_leg_path(u1, legs[0]) + seg_ab[1:]
                    + tuple(reversed(legs[1]))[1:-1] + (u1,))
            cyc2 = (_leg_path(u3, legs[2]) + seg_cd[1:]
                    + tuple(reversed(legs[3]))[1:-1] + (u3,))
            return assemble_f2(block, chain, cyc1, corner[1], cyc2, corner[2], seg_bc)

        # alternating: legs 1 and 3 on one end, 2 and 4 on the other
        c1 = (_leg_path(u1, legs[0]) + seg_ab[1:]
              + tuple(reversed(legs[1]))[1:-1] + (u2,))
        c2 = (_leg_path(u3, legs[2]) + seg_cd[1:]
              + tuple(reversed(legs[3]))[1:-1] + (u4,))
        try:
            return assemble_f1(block, chain, c1, c2, corner[1], corner[2], seg_bc)
        except AssemblyError:
            pass  # both middle legs are bare edges; look outside the shape
        got = _external_connections(
            block, chain, c1, c2, corner[1], corner[2], seg_bc,
            legs[0][1], legs[3][1],
        )
        if isinstance(got, MEmbedding):
            return got
        if fallback is None:
            fallback = got
    return fallback


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
    search = block.remove_vertices(set(chain.vertices) | {b, c})
    aside = a1 | {x1} | a2 | {x4}

    vs = find_path(search, sorted(b2), sorted(aside))
    if vs is not None:
        y_b, y_a = vs[0], vs[-1]
        k = seg_bc.index(y_b)
        if y_a in a1 or y_a == x1:
            joint = tuple(reversed(vs)) + seg_bc[k + 1:]
            return assemble_f1(block, chain, c1, c2, y_a, c, joint)
        joint = seg_bc[:k] + vs
        return assemble_f1(block, chain, c1, c2, b, y_a, joint)

    vs = find_path(search, sorted(a1), sorted(a2 | {x4}), banned_vertices=b2 | {x1})
    if vs is not None:
        return assemble_f1(block, chain, c1, c2, vs[0], vs[-1], vs)

    vs = find_path(search, [x1], sorted(a2), banned_vertices=b2 | a1 | {x4})
    if vs is not None:
        return assemble_f1(block, chain, c1, c2, x1, vs[-1], vs)

    vs = find_path(search, [x1], [x4], banned_vertices=b2 | a1 | a2)
    b1 = frozenset(vs[1:-1]) if vs is not None else None
    return CrossedStructure(
        chain=chain,
        corners=(x1, b, c, x4),
        a1=frozenset(a1),
        a2=frozenset(a2),
        b2=frozenset(b2),
        b1=b1,
    )
