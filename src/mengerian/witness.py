"""From an embedding to a concrete counterexample labeling.

An m-subdivision inherits the pattern's reference labeling hop by hop:
every hop of a route receives the label set of its pattern pair, so the
subdivided conduit admits exactly the same arrival times as the pattern
edges it replaces.  The rest of the host is then labeled so it cannot
participate: everything touching the embedded target fires too early,
everything else too late to ever reach the target again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .menger import CutUndefinedError, max_disjoint_paths, min_vertex_cut
from .multigraph import Multigraph
from .patterns import MEmbedding
from .temporal import TemporalGraph


def make_witness(host: Multigraph, emb: MEmbedding) -> TemporalGraph:
    """A labeling of every host edge preserving the embedded gap.

    Per hop, the chosen host edges in ascending id order take the
    pattern pair's reference labels in ascending order, shifted up by
    one so that label 1 stays free.  Unused edges at the embedded target
    get 1 (nothing arrives that early, so they are dead ends), all other
    unused edges get a label above the whole embedded range (walks
    entering them can never come back down).  `emb` must pass
    `check_m_subdivision`, so each hop's ids already ascend.
    """
    lifted: dict[int, int] = {}
    for pair, hops in emb.hop_edges.items():
        labels = [lab + 1 for lab in emb.pattern.pair_labels[pair]]
        lifted.update(zip(chain.from_iterable(hops), labels * len(hops)))
    late = max(lifted.values()) + 1
    target = emb.target
    return TemporalGraph.make(host, {
        i: lifted[i] if i in lifted else (1 if target == u or target == v else late)
        for i, u, v in host.edges})


@dataclass(frozen=True)
class WitnessReport:
    """Oracle measurements of a claimed counterexample."""

    source: int
    target: int
    path_count: int
    cut_size: int | None  # None: endpoints adjacent, no cut exists

    @property
    def cut_defined(self) -> bool:
        return self.cut_size is not None

    @property
    def confirmed(self) -> bool:
        return self.cut_size is not None and self.path_count < self.cut_size


def verify_witness(tg: TemporalGraph, s: int, t: int) -> WitnessReport:
    """Measure a claimed counterexample with the exact oracles.

    The cut comes first, so the packing stops once it reaches the cut's
    size; when the ends are adjacent the packing runs unbounded.  An
    oracle past its work budget raises ResourceLimitError; the host's
    size alone never does.
    """
    try:
        cut_size = len(min_vertex_cut(tg, s, t))
    except CutUndefinedError:
        cut_size = None
    return WitnessReport(s, t, len(max_disjoint_paths(tg, s, t)), cut_size)
