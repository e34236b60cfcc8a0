"""repro — a reproduction of *Diversified Top-k Graph Pattern Matching*
(Wenfei Fan, Xin Wang, Yinghui Wu; PVLDB 6(13), 2013).

The library implements graph pattern matching by graph simulation with a
designated output node, relevance/diversity ranking of matches, and the
paper's full algorithm suite:

* ``Match`` — the find-all-then-rank baseline;
* ``TopKDAG`` / ``TopK`` — early-terminating top-k matching for DAG and
  cyclic patterns (plus the ``nopt`` ablations);
* ``TopKDiv`` — the 2-approximation for diversified top-k;
* ``TopKDH`` / ``TopKDAGDH`` — the early-terminating diversified
  heuristic;

together with the substrates those algorithms need: a directed labelled
graph store, the simulation fixpoint, relevant-set computation, bound
indexes, dataset surrogates and an experiment harness reproducing every
figure of the paper's evaluation.

Beyond the paper's one-shot algorithms, :mod:`repro.incremental`
materializes *match views*: registered patterns whose match relation
and ranking stay consistent while the graph mutates (``add_edge`` /
``remove_edge`` / ``add_node`` / ``remove_node`` / ``apply_delta``),
maintained by delta simulation instead of per-query recomputation.

For batched multi-query serving, :mod:`repro.session` pins one
compiled snapshot generation and amortises candidates, simulation
and top-k evaluations across a heterogeneous query batch::

    from repro import MatchSession, QuerySpec

    with MatchSession(g) as session:
        results = session.run_batch([QuerySpec(q1, k=10), QuerySpec(q2, k=5)])

Quickstart::

    from repro import Graph, PatternBuilder, api

    g = Graph()
    ...
    q = PatternBuilder().node("pm", "PM", output=True).node("db", "DB") \
        .edge("pm", "db").build()
    top = api.top_k_matches(q, g, k=10)
"""

from repro import api
from repro.errors import (
    BenchmarkError,
    DatasetError,
    GraphError,
    MatchingError,
    PatternError,
    RankingError,
    ReproError,
    StaleSessionError,
)
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph
from repro.graph.labels import LabelTable
from repro.incremental.manager import MatchViewManager
from repro.incremental.view import MatchView
from repro.patterns.builder import PatternBuilder
from repro.patterns.pattern import Pattern, pattern_from_edges
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.session import ExecutionConfig, MatchSession, QueryHandle, QuerySpec
from repro.topk.result import EngineStats, TopKResult

__version__ = "1.0.0"

__all__ = [
    "BenchmarkError",
    "DatasetError",
    "DeltaOp",
    "DiversificationObjective",
    "EngineStats",
    "ExecutionConfig",
    "Graph",
    "GraphError",
    "LabelTable",
    "MatchSession",
    "MatchView",
    "MatchViewManager",
    "MatchingError",
    "Pattern",
    "PatternBuilder",
    "PatternError",
    "QueryHandle",
    "QuerySpec",
    "RankingContext",
    "RankingError",
    "ReproError",
    "StaleSessionError",
    "TopKResult",
    "api",
    "pattern_from_edges",
    "__version__",
]
