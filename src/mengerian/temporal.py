"""Time labels on multigraphs, temporal walks and reachability.

A time-function assigns a positive integer label to every edge.  A walk
is temporal when consecutive edge labels never decrease, so an edge can
be traversed at its own label after arriving at the same label
(non-strict model).  `earliest_arrival` and `latest_departure` share one
sweep over the label groups, upward from a source and downward from a
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .multigraph import Edge, GraphError, Multigraph


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


def _label_sweep(tg: TemporalGraph, start: int, start_label: int,
                 edges: Iterable[Edge], descending: bool = False) -> dict[int, int]:
    """Each vertex a walk over `edges` joins to `start`, mapped to the label
    of the first group of equal labels, lowest first or highest first when
    `descending`, that reaches it; `start` maps to `start_label`.  In each
    group every vertex reached so far floods the group, since a walk may
    leave a vertex at the label it arrived by."""
    groups: dict[int, list[Edge]] = {}
    times = tg.times
    for e in edges:
        groups.setdefault(times[e.id], []).append(e)
    reached = {start: start_label}
    for lab in sorted(groups, reverse=descending):
        links: dict[int, list[int]] = {}
        for e in groups[lab]:
            links.setdefault(e.u, []).append(e.v)
            links.setdefault(e.v, []).append(e.u)
        frontier = [v for v in links if v in reached]
        while frontier:
            for b in links[frontier.pop()]:
                if b not in reached:
                    reached[b] = lab
                    frontier.append(b)
    return reached


def earliest_arrival(tg: TemporalGraph, source: int, banned_vertices: Iterable[int] = (),
                     banned_edges: Iterable[int] = ()) -> dict[int, int]:
    """Earliest arrival label at each vertex a temporal walk from `source`
    reaches without the banned vertices and edges (source maps to 0)."""
    if not tg.graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source}")
    bv = set(banned_vertices)
    if source in bv:
        return {}
    be = set(banned_edges)
    edges = [e for e in tg.graph.edges if e.id not in be and e.u not in bv and e.v not in bv]
    return _label_sweep(tg, source, 0, edges)


def latest_departure(tg: TemporalGraph, target: int, avoid: int) -> dict[int, int]:
    """Latest label at which a temporal walk that never meets `avoid` can
    leave each vertex and still reach `target` (target maps to lifetime
    + 1); a vertex no such walk leaves has no entry."""
    if not tg.graph.has_vertex(target):
        raise GraphError(f"unknown vertex {target}")
    edges = [e for e in tg.graph.edges if e.u != avoid and e.v != avoid]
    return _label_sweep(tg, target, tg.lifetime + 1, edges, descending=True)
