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
remain accepted through an adapter that maps them onto the same config.

For update streams, register the pattern once and mutate the graph —
the materialized view follows along without per-query recomputation:

>>> view = api.register_view(pattern, graph, k=10)     # doctest: +SKIP
>>> api.update_graph(graph, ops)                       # doctest: +SKIP
>>> top = view.top_k()                                 # doctest: +SKIP

**Observability.**  Every one-shot call (and every session query) runs
through the instrumented engine wrappers of :mod:`repro.obs`:
``ExecutionConfig(trace=True)`` records phase spans into the
process-default tracer, ``ExecutionConfig(metrics=True)`` publishes
engine counters, cache hit/miss ratios and latency histograms to the
process-default registry, and a run slower than
``ExecutionConfig(slow_query_seconds=...)`` (or the
``REPRO_SLOW_QUERY_SECONDS`` environment default) WARNs on the
``repro.slowquery`` logger — one-shot shims included, not just
batches.  Install your own collectors with
:func:`repro.obs.use_tracer` / :func:`repro.obs.use_metrics`:

>>> from repro.obs import Tracer, use_tracer                        # doctest: +SKIP
>>> with use_tracer(Tracer()) as t:                                 # doctest: +SKIP
...     api.top_k_matches(pattern, graph, k=10)
...     t.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import MatchingError
from repro.graph.delta import DeltaOp
from repro.incremental.manager import MatchViewManager
from repro.incremental.view import MatchView
from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.heuristic import top_k_diversified_heuristic
from repro.graph.digraph import Graph
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.relevance import RelevanceFunction
from repro.session import ExecutionConfig, MatchSession
from repro.simulation.match import SimulationResult, maximal_simulation
from repro.topk.cyclic import top_k
from repro.topk.dag import top_k_dag
from repro.topk.match_all import match_baseline
from repro.topk.result import TopKResult

#: Engine kwargs the adapter can express as an :class:`ExecutionConfig`.
#: Anything else (``candidates=...``) bypasses the implicit session and
#: goes straight to the engine wrapper.
_CONFIG_KEYS = frozenset(("seed",))


def _adapt_options(
    optimized: bool,
    config: ExecutionConfig | None,
    options: dict[str, Any],
) -> ExecutionConfig | None:
    """Map the engine kwargs onto one :class:`ExecutionConfig`.

    Returns ``None`` when ``options`` carries keys a config cannot
    express — the caller then falls back to the direct wrapper call
    (which still accepts every historical kwarg).
    """
    if not set(options) <= _CONFIG_KEYS:
        return None
    return ExecutionConfig.adapt(config, optimized=optimized, **options)


def execution_session(
    graph: Graph,
    config: ExecutionConfig | None = None,
    on_mutation: str = "refuse",
) -> MatchSession:
    """Open a :class:`MatchSession` over ``graph`` (batched serving).

    Convenience re-export so ``api`` stays a one-stop facade::

        with api.execution_session(graph) as session:
            results = session.run_batch(specs)
    """
    return MatchSession(graph, config=config, on_mutation=on_mutation)


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
    **engine_options: Any,
) -> TopKResult:
    """topKP with early termination: ``TopKDAG`` or ``TopK`` as appropriate.

    A thin shim over an implicit per-call :class:`MatchSession`.  Pass
    ``config=`` (an :class:`ExecutionConfig`) for the session-era
    surface; the ``engine_options`` kwarg ``seed`` is accepted via the
    adapter.  Options a config cannot express (``candidates=...``) fall
    through to the engine wrapper directly.
    """
    cfg = _adapt_options(optimized, config, engine_options)
    if cfg is None:
        runner = top_k_dag if pattern.is_dag() else top_k
        return runner(
            pattern, graph, k, optimized=optimized, relevance_fn=relevance_fn,
            config=config, **engine_options,
        )
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
    **options: Any,
) -> TopKResult:
    """topKDP: diversified top-k matches of the output node.

    ``method="heuristic"`` runs the early-terminating ``TopKDH`` /
    ``TopKDAGDH``; ``method="approx"`` runs the 2-approximation
    ``TopKDiv``.  ``optimized=False`` selects the heuristic's seeded
    random visiting order (``TopKDiv`` scores every match, so it
    ignores the visiting order).  A thin shim over an implicit per-call
    :class:`MatchSession`; execution settings pass through ``config=``
    or the ``options`` kwargs, and both methods accept the same option
    set regardless of ``method``.
    """
    if method not in ("heuristic", "approx"):
        raise MatchingError(f"unknown diversification method {method!r}")
    cfg = _adapt_options(optimized, config, options)
    if cfg is None:
        if method == "approx":
            return top_k_diversified_approx(
                pattern, graph, k, lam=lam, objective=objective,
                config=config, **options,
            )
        return top_k_diversified_heuristic(
            pattern, graph, k, lam=lam, objective=objective,
            optimized=optimized, config=config, **options,
        )
    with MatchSession(graph, config=cfg) as session:
        return session.diversified(
            pattern, k, lam=lam, method=method, objective=objective
        )


def view_manager(graph: Graph) -> MatchViewManager:
    """The shared :class:`MatchViewManager` of ``graph`` (created lazily)."""
    return MatchViewManager.for_graph(graph)


def register_view(
    pattern: Pattern,
    graph: Graph,
    k: int = 10,
    name: str | None = None,
    **view_options: Any,
) -> MatchView:
    """Materialize a :class:`MatchView` of ``pattern`` over ``graph``.

    The view's match relation and ranking stay consistent under every
    subsequent mutation of ``graph`` (``add_edge`` / ``remove_edge`` /
    ``add_node`` / ``remove_node`` / ``apply_delta``), maintained by
    delta simulation instead of per-query recomputation.  ``graph`` must
    be mutable — call :meth:`Graph.thaw` on frozen dataset graphs first.
    Options forward to :class:`MatchView` (``lam``, ``relevance_fn``,
    ``recompute_threshold``, ``cache``).  To share
    rebuild work with a serving session, register through
    :meth:`MatchSession.register_view` instead.
    """
    return view_manager(graph).register(pattern, k=k, name=name, **view_options)


def update_graph(graph: Graph, ops: Iterable[DeltaOp]) -> list[int | None]:
    """Apply a batched delta to ``graph``, updating every registered view.

    Returns the per-op results: the assigned node id for ``add_node``
    ops, ``None`` otherwise.  Equivalent to ``graph.apply_delta(ops)`` —
    views subscribe to the graph's change events, so direct mutation
    calls keep them consistent too.
    """
    return graph.apply_delta(ops)


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
    **engine_options: Any,
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
    cfg = _adapt_options(optimized, config, engine_options)
    if cfg is None:
        engine = top_k_dag if pattern.is_dag() else top_k
        results: dict[int, TopKResult] = {}
        for node in pattern.output_nodes:
            results[node] = engine(
                pattern,
                graph,
                k,
                optimized=optimized,
                relevance_fn=relevance_fn,
                output_node=node,
                config=config,
                **engine_options,
            )
        return results
    with MatchSession(graph, config=cfg) as session:
        return session.top_k_multi(pattern, k, relevance_fn=relevance_fn)
