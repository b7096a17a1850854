"""Mengerian multigraph recognition and temporal Menger oracles.

A multigraph is Mengerian when, under every assignment of times to its
edges, every non-adjacent vertex pair has as many internally disjoint
temporal paths as the size of a smallest temporal vertex cut.  This
package decides that property structurally (`recognize`), produces a
labeled counterexample for negative verdicts (`recognize_with_proof`),
and ships the exact oracles the verdicts are checked against
(`max_disjoint_paths`, `min_vertex_cut`, `edge_menger`,
`falsify_mengerian`).
"""

from .multigraph import (
    Chain,
    Edge,
    GraphError,
    InternalError,
    Multigraph,
    biconnected_components,
    identify,
    m_subdivide,
    maximal_chains,
)
from .temporal import TemporalGraph, TemporalPath
from .menger import (
    Counterexample,
    CutUndefinedError,
    ResourceLimitError,
    edge_menger,
    falsify_mengerian,
    max_disjoint_paths,
    min_vertex_cut,
)
from .patterns import (
    F1,
    F2,
    F3,
    MEmbedding,
    PATTERNS,
    Pattern,
    check_m_subdivision,
    find_f3_subdivision,
)
from .witness import WitnessReport, make_witness, verify_witness
from .recognizer import (
    CrossedStructure,
    Proof,
    Verdict,
    recognize,
    recognize_with_proof,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "Counterexample",
    "CrossedStructure",
    "CutUndefinedError",
    "Edge",
    "F1",
    "F2",
    "F3",
    "GraphError",
    "InternalError",
    "MEmbedding",
    "Multigraph",
    "PATTERNS",
    "Pattern",
    "Proof",
    "ResourceLimitError",
    "TemporalGraph",
    "TemporalPath",
    "Verdict",
    "WitnessReport",
    "biconnected_components",
    "check_m_subdivision",
    "edge_menger",
    "falsify_mengerian",
    "find_f3_subdivision",
    "identify",
    "m_subdivide",
    "make_witness",
    "max_disjoint_paths",
    "maximal_chains",
    "min_vertex_cut",
    "recognize",
    "recognize_with_proof",
    "verify_witness",
    "__version__",
]
