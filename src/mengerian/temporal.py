"""Time labels on multigraphs, temporal paths and reachability.

A time-function assigns a positive integer label to every edge.  A walk
is temporal when consecutive edge labels never decrease, so an edge can
be traversed at its own label after arriving at the same label
(non-strict model); a temporal path is such a walk that visits no
vertex twice.  `earliest_arrival` and `latest_departure` share one
sweep over the label groups, upward from a source and downward from a
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .multigraph import Edge, GraphError, Multigraph


@dataclass(frozen=True)
class TemporalGraph:
    graph: Multigraph
    entries: tuple[tuple[int, int], ...]  # (edge id, label), sorted by id

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        # the graph's edge ids are sorted and distinct, so equal id lists
        # mean no duplicate and an exact cover
        ids = [i for i, _ in self.entries]
        if ids != [e.id for e in self.graph.edges]:
            if len(set(ids)) != len(ids):
                raise GraphError("duplicate edge id in time labels")
            raise GraphError("time labels must cover exactly the edges of the graph")
        for i, lab in self.entries:
            if not isinstance(lab, int) or lab < 1:
                raise GraphError(f"edge {i}: labels must be positive integers, got {lab!r}")

    @staticmethod
    def make(graph: Multigraph, times: Mapping[int, int]) -> "TemporalGraph":
        return TemporalGraph(graph, tuple(times.items()))

    @staticmethod
    def prechecked(graph: Multigraph, times: dict[int, int]) -> "TemporalGraph":
        """`make` unchecked: `times` maps the edge ids, ascending, to positive ints."""
        tg = object.__new__(TemporalGraph)
        vars(tg).update(graph=graph, entries=tuple(times.items()), times=dict(times))
        return tg

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
class TemporalPath:
    """Alternating vertex/edge sequence with pairwise distinct vertices."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise GraphError("path needs n edges and n+1 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("path vertices must be distinct")

    def __len__(self) -> int:
        return len(self.edge_ids)


def _label_sweep(tg: TemporalGraph, start: int, start_label: int,
                 edges: Iterable[Edge], descending: bool = False) -> dict[int, int]:
    """Each vertex a walk over `edges` joins to `start`, mapped to the label
    of the first group of equal labels, lowest first or highest first when
    `descending`, that reaches it; `start` maps to `start_label`.  In each
    group every vertex reached so far floods the group, since a walk may
    leave a vertex at the label it arrived by."""
    groups: dict[int, list[tuple[int, int]]] = {}
    times = tg.times
    for i, u, v in edges:
        groups.setdefault(times[i], []).append((u, v))
    reached = {start: start_label}
    for lab in sorted(groups, reverse=descending):
        links: dict[int, list[int]] = {}
        for u, v in groups[lab]:
            links.setdefault(u, []).append(v)
            links.setdefault(v, []).append(u)
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
    edges = (e for e in tg.graph.edges if e.u != avoid and e.v != avoid)
    return _label_sweep(tg, target, tg.lifetime + 1, edges, descending=True)
