"""The high-level public API of the library.

Most downstream users need only four calls:

>>> from repro import api
>>> result = api.find_matches(pattern, graph)          # M(Q, G)   # doctest: +SKIP
>>> top = api.top_k_matches(pattern, graph, k=10)      # topKP     # doctest: +SKIP
>>> div = api.diversified_matches(pattern, graph, k=10, lam=0.5)   # doctest: +SKIP
>>> base = api.baseline_matches(pattern, graph, k=10)  # Match     # doctest: +SKIP

``top_k_matches`` routes to ``TopKDAG`` for DAG patterns and ``TopK``
otherwise, exactly the split the paper draws.  ``diversified_matches``
picks the early-terminating heuristic by default (``method="heuristic"``)
and the 2-approximation with ``method="approx"``.

Since PR 5 every one-shot query function is a thin shim over an
implicit, per-call :class:`repro.session.MatchSession` — one pinned
snapshot generation, the same engine wrappers — so a one-shot call and
a session query are literally the same code path.  To serve *batches*
(and amortise candidates, simulation and evaluations across queries)
open the session yourself:

>>> from repro.session import MatchSession, QuerySpec               # doctest: +SKIP
>>> with MatchSession(graph) as session:                            # doctest: +SKIP
...     results = session.run_batch([QuerySpec(q1, k=10), QuerySpec(q2, k=5)])

Execution settings are one :class:`repro.session.ExecutionConfig`
(``config=``); the paper's TopK/TopKnopt kwargs ``optimized`` / ``seed``
remain accepted through :meth:`~repro.session.ExecutionConfig.adapt`,
which maps them onto the same config.

For update streams, keep one session open with
``on_mutation="refresh"`` and mutate the graph: its cache repairs each
cached match relation at every write, and the next query acknowledges
the writes and ranks from the repaired relation:

>>> session = MatchSession(graph, on_mutation="refresh")            # doctest: +SKIP
>>> session.baseline(pattern, 10)                                   # doctest: +SKIP
>>> graph.apply_delta(ops)                                          # doctest: +SKIP
>>> top = session.baseline(pattern, 10)                             # doctest: +SKIP

**Observability.**  Every one-shot call (and every session query) runs
through the instrumented engine wrappers of :mod:`repro.obs`.  A run
slower than ``ExecutionConfig(slow_query_seconds=...)`` WARNs on the
``repro.slowquery`` logger — one-shot shims included, not just
batches.  Phase spans, engine counters, cache hit/miss ratios and
latency histograms go to the ambient collectors, which
:func:`repro.obs.use_tracer` / :func:`repro.obs.use_metrics` install:

>>> from repro.obs import Tracer, use_tracer                        # doctest: +SKIP
>>> with use_tracer(Tracer()) as t:                                 # doctest: +SKIP
...     api.top_k_matches(pattern, graph, k=10)
...     t.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.relevance import RelevanceFunction
from repro.session import ExecutionConfig, MatchSession
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.topk.result import TopKResult


def find_matches(pattern: Pattern, graph: Graph) -> SimulationResult:
    """Compute the full match relation ``M(Q, G)`` by graph simulation.

    The fixpoint runs over the graph's compiled CSR snapshot.
    """
    pattern.validate(require_output=False)
    return maximal_simulation(pattern, graph)


def output_matches(pattern: Pattern, graph: Graph) -> set[int]:
    """``Mu(Q, G, uo)`` — all matches of the designated output node."""
    pattern.validate()
    return find_matches(pattern, graph).output_matches()


def top_k_matches(
    pattern: Pattern,
    graph: Graph,
    k: int,
    optimized: bool = True,
    relevance_fn: RelevanceFunction | None = None,
    config: ExecutionConfig | None = None,
    *,
    seed: int = 0,
) -> TopKResult:
    """topKP with early termination: ``TopKDAG`` or ``TopK`` as appropriate.

    A thin shim over an implicit per-call :class:`MatchSession`.  Pass
    ``config=`` (an :class:`ExecutionConfig`) for the session-era
    surface, or the kwargs ``optimized`` / ``seed``, adapted onto the
    same config.
    """
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    with MatchSession(graph, config=cfg) as session:
        return session.top_k(pattern, k, relevance_fn=relevance_fn)


def baseline_matches(
    pattern: Pattern,
    graph: Graph,
    k: int,
    relevance_fn: RelevanceFunction | None = None,
    config: ExecutionConfig | None = None,
) -> TopKResult:
    """The ``Match`` baseline: compute everything, then rank."""
    with MatchSession(graph, config=config) as session:
        return session.baseline(pattern, k, relevance_fn=relevance_fn)


def diversified_matches(
    pattern: Pattern,
    graph: Graph,
    k: int,
    lam: float = 0.5,
    method: str = "heuristic",
    objective: DiversificationObjective | None = None,
    optimized: bool = True,
    config: ExecutionConfig | None = None,
    *,
    seed: int = 0,
) -> TopKResult:
    """topKDP: diversified top-k matches of the output node.

    ``method="heuristic"`` runs the early-terminating ``TopKDH`` /
    ``TopKDAGDH``; ``method="approx"`` runs the 2-approximation
    ``TopKDiv``.  ``optimized=False`` selects the heuristic's seeded
    random visiting order (``TopKDiv`` scores every match, so it
    ignores the visiting order).  A thin shim over an implicit per-call
    :class:`MatchSession`; execution settings pass through ``config=``
    or the kwargs ``optimized`` / ``seed``, and both methods accept the
    same options regardless of ``method``.
    """
    if method not in ("heuristic", "approx"):
        raise MatchingError(f"unknown diversification method {method!r}")
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    with MatchSession(graph, config=cfg) as session:
        return session.diversified(
            pattern, k, lam=lam, method=method, objective=objective
        )


def ranking_context(pattern: Pattern, graph: Graph) -> RankingContext:
    """A fully evaluated :class:`RankingContext` (relevant sets, ``C_uo``)."""
    pattern.validate()
    return RankingContext(pattern, graph)


def top_k_matches_multi(
    pattern: Pattern,
    graph: Graph,
    k: int,
    optimized: bool = True,
    relevance_fn: RelevanceFunction | None = None,
    config: ExecutionConfig | None = None,
    *,
    seed: int = 0,
) -> dict[int, TopKResult]:
    """topKP for patterns with *multiple* output nodes (Section 2.2).

    Runs the early-terminating engine once per designated output node
    through **one** :class:`MatchSession`, so the pattern's candidates
    and simulation are built once and shared across the fan-out — each
    extra output node costs only its own evaluation and ranking.
    Returns ``{output_node: TopKResult}``.  Like
    :func:`top_k_matches`, DAG patterns route through ``TopKDAG`` and
    cyclic ones through ``TopK``, and a generalised ``relevance_fn``
    (Section 3.4) applies to every output node's ranking.
    """
    if not pattern.output_nodes:
        raise MatchingError("pattern has no designated output nodes")
    cfg = ExecutionConfig.adapt(config, optimized=optimized, seed=seed)
    with MatchSession(graph, config=cfg) as session:
        return session.top_k_multi(pattern, k, relevance_fn=relevance_fn)
