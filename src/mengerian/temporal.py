"""Time labels on multigraphs, temporal walks and reachability.

A time-function assigns a positive integer label to every edge.  A walk
is temporal when consecutive edge labels never decrease, so an edge can
be traversed at its own label after arriving at the same label
(non-strict model).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .multigraph import GraphError, Multigraph


class WalkError(ValueError):
    """A sequence failed to be a temporal walk; `index` names the spot."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"position {index}: {message}")


@dataclass(frozen=True)
class TemporalGraph:
    graph: Multigraph
    entries: tuple[tuple[int, int], ...]  # (edge id, label), sorted by id

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge id in time labels")
        if set(ids) != {e.id for e in self.graph.edges}:
            raise GraphError("time labels must cover exactly the edges of the graph")
        for i, lab in self.entries:
            if not isinstance(lab, int) or lab < 1:
                raise GraphError(f"edge {i}: labels must be positive integers, got {lab!r}")

    @staticmethod
    def make(graph: Multigraph, times: Mapping[int, int]) -> "TemporalGraph":
        return TemporalGraph(graph, tuple(times.items()))

    @cached_property
    def times(self) -> dict[int, int]:
        return dict(self.entries)

    def label(self, edge_id: int) -> int:
        try:
            return self.times[edge_id]
        except KeyError:
            raise GraphError(f"no edge with id {edge_id}") from None

    @property
    def lifetime(self) -> int:
        return max((lab for _, lab in self.entries), default=0)


@dataclass(frozen=True)
class TemporalWalk:
    """Alternating vertex/edge sequence; may revisit vertices."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edge_ids) + 1 or not self.vertices:
            raise GraphError("walk needs n edges and n+1 vertices")

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class TemporalPath(TemporalWalk):
    """A temporal walk with pairwise distinct vertices."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("path vertices must be distinct")


def validate_walk(tg: TemporalGraph, seq: Sequence[int]) -> TemporalWalk:
    """Check an alternating sequence v0, e1, v1, e2, v2, ... and wrap it.

    Raises WalkError naming the first offending position.
    """
    if len(seq) % 2 == 0 or not seq:
        raise WalkError(len(seq), "sequence must alternate v0, e1, v1, ... (odd length)")
    vertices = list(seq[0::2])
    edge_ids = list(seq[1::2])
    for i, v in enumerate(vertices):
        if not tg.graph.has_vertex(v):
            raise WalkError(2 * i, f"unknown vertex {v}")
    prev_label = None
    for i, eid in enumerate(edge_ids):
        pos = 2 * i + 1
        try:
            e = tg.graph.edge(eid)
        except GraphError:
            raise WalkError(pos, f"unknown edge {eid}") from None
        if {e.u, e.v} != {vertices[i], vertices[i + 1]}:
            raise WalkError(pos, f"edge {eid} does not join {vertices[i]} and {vertices[i + 1]}")
        lab = tg.label(eid)
        if prev_label is not None and lab < prev_label:
            raise WalkError(pos, f"label {lab} after {prev_label} decreases")
        prev_label = lab
    return TemporalWalk(tuple(vertices), tuple(edge_ids))


def walk_to_path(tg: TemporalGraph, walk: TemporalWalk) -> TemporalPath:
    """Splice out revisits until the walk is a path.

    Each splice joins the first arrival at a repeated vertex to the last
    departure from it; the label chain stays non-decreasing because the
    removed stretch sat between the two.
    """
    vs = list(walk.vertices)
    es = list(walk.edge_ids)
    while True:
        seen: dict[int, int] = {}
        dup = None
        for i, v in enumerate(vs):
            if v in seen:
                dup = v
                break
            seen[v] = i
        if dup is None:
            break
        i = seen[dup]
        j = len(vs) - 1 - vs[::-1].index(dup)
        vs = vs[: i + 1] + vs[j + 1 :]
        es = es[:i] + es[j:]
    return TemporalPath(tuple(vs), tuple(es))


def earliest_arrival(
    tg: TemporalGraph,
    source: int,
    banned_vertices: Iterable[int] = (),
    banned_edges: Iterable[int] = (),
) -> dict[int, int]:
    """Earliest arrival label at each reachable vertex (source maps to 0).

    Edges are processed label by label; within one label, every edge
    reachable from an arrival so far is followed, because an arrival can
    be extended at the same label.
    """
    if not tg.graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source}")
    bv = set(banned_vertices)
    be = set(banned_edges)
    arr: dict[int, int] = {}
    if source in bv:
        return arr
    arr[source] = 0
    ordered = sorted(tg.entries, key=lambda it: (it[1], it[0]))
    i = 0
    while i < len(ordered):
        j = i
        lab = ordered[i][1]
        while j < len(ordered) and ordered[j][1] == lab:
            j += 1
        # an arrival can be extended at the same label: search the
        # group's usable edges from every vertex reached so far
        links: dict[int, list[tuple[int, int]]] = {}
        for eid, _ in ordered[i:j]:
            if eid in be:
                continue
            e = tg.graph.edge(eid)
            if e.u in bv or e.v in bv:
                continue
            links.setdefault(e.u, []).append((e.v, eid))
            links.setdefault(e.v, []).append((e.u, eid))
        frontier = [v for v in links if v in arr]
        while frontier:
            a = frontier.pop()
            for b, eid in links[a]:
                if b not in arr:
                    arr[b] = lab
                    frontier.append(b)
        i = j
    return arr

