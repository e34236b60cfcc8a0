"""Top-k matching algorithms: Match, TopKDAG, TopK and their machinery."""

from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.engine import TopKEngine
from repro.topk.match_all import match_baseline
from repro.topk.policies import DiversifiedPolicy, RelevancePolicy, SelectionPolicy
from repro.topk.result import EngineStats, TopKResult

__all__ = [
    "DiversifiedPolicy",
    "EngineStats",
    "RelevancePolicy",
    "SelectionPolicy",
    "TopKEngine",
    "TopKResult",
    "match_baseline",
    "top_k",
    "top_k_dag",
]
