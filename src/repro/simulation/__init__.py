"""Graph simulation, candidate sets and relevant sets."""

from repro.simulation.candidates import (
    WILDCARD_LABEL,
    CandidateSets,
    candidate_statistics,
    compute_candidates,
)
from repro.simulation.match import (
    SimulationResult,
    matches,
    maximal_simulation,
)
from repro.simulation.relevant import (
    induced_result_graph,
    relevance_values,
    relevant_sets,
)

__all__ = [
    "CandidateSets",
    "SimulationResult",
    "WILDCARD_LABEL",
    "candidate_statistics",
    "compute_candidates",
    "induced_result_graph",
    "matches",
    "maximal_simulation",
    "relevance_values",
    "relevant_sets",
]
