"""Random-but-valid graph update streams for the incremental workloads.

The write-path tests and the ``repro update-stream`` CLI replay a
sequence of :class:`repro.graph.delta.DeltaOp`; this module generates
such sequences against a *snapshot* of a graph, tracking the evolving
edge set and live-node set locally so that every emitted op is valid at
its application time (no duplicate edge insertions, no removal of an
absent edge, no edges at removed nodes).

``churn_labels`` restricts edge endpoints to nodes carrying the given
labels — pointing the churn at a cached pattern's labels is how a stream
stresses its repair instead of generating mostly-skipped ops.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.errors import BenchmarkError
from repro.graph.delta import DeltaOp
from repro.graph.digraph import Graph


def random_update_stream(
    graph: Graph,
    num_ops: int,
    seed: int = 0,
    p_add_edge: float = 0.45,
    p_remove_edge: float = 0.45,
    p_add_node: float = 0.05,
    p_remove_node: float = 0.05,
    churn_labels: Sequence[str] | None = None,
    node_labels: Sequence[str] | None = None,
) -> list[DeltaOp]:
    """Generate ``num_ops`` valid delta ops for ``graph``.

    The op mix follows the four probabilities (normalised); when a drawn
    kind has no valid move left (e.g. no removable edge), another kind
    is drawn.  A stream that cannot make progress at all (every kind
    stuck — e.g. edges-only churn on labels with no possible edge)
    raises :class:`BenchmarkError` instead of spinning.  ``churn_labels``
    restricts edge endpoints by label; ``node_labels`` is the label
    alphabet for ``add_node`` ops (defaults to the graph's own labels).
    Deterministic in ``seed``.
    """
    weights = [p_add_edge, p_remove_edge, p_add_node, p_remove_node]
    if min(weights) < 0 or sum(weights) <= 0:
        raise BenchmarkError(f"bad op mix {weights}")
    rng = random.Random(seed)

    # Local projection of the evolving graph.
    labels_of = {v: graph.label(v) for v in graph.live_nodes()}
    edges = set(graph.edges())
    out_of: dict[int, set[int]] = {v: set() for v in labels_of}
    in_of: dict[int, set[int]] = {v: set() for v in labels_of}
    for src, dst in edges:
        out_of[src].add(dst)
        in_of[dst].add(src)
    next_node = graph.num_nodes

    alphabet = list(node_labels) if node_labels is not None else sorted(
        {label for label in labels_of.values()}
    )
    if not alphabet:
        alphabet = ["A"]

    def endpoint_pool() -> list[int]:
        if churn_labels is None:
            return list(labels_of)
        allowed = set(churn_labels)
        return [v for v, label in labels_of.items() if label in allowed]

    ops: list[DeltaOp] = []
    kinds = ("add_edge", "remove_edge", "add_node", "remove_node")
    # Guard against unsatisfiable streams: every iteration that fails to
    # emit an op bumps the stall counter; any emitted op resets it.
    stalled = 0
    max_stall = 512
    while len(ops) < num_ops:
        if stalled > max_stall:
            raise BenchmarkError(
                f"update stream stalled after {len(ops)}/{num_ops} ops: "
                "no op kind in the requested mix has a valid move "
                "(check churn_labels and the graph's label population)"
            )
        emitted = len(ops)
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "add_edge":
            pool = endpoint_pool()
            if len(pool) >= 2:
                for _ in range(64):
                    src, dst = rng.choice(pool), rng.choice(pool)
                    if src != dst and dst not in out_of[src]:
                        edges.add((src, dst))
                        out_of[src].add(dst)
                        in_of[dst].add(src)
                        ops.append(DeltaOp.add_edge(src, dst))
                        break
        elif kind == "remove_edge":
            if churn_labels is None:
                candidates = list(edges)
            else:
                allowed = set(churn_labels)
                candidates = [
                    (src, dst)
                    for src, dst in edges
                    if labels_of[src] in allowed and labels_of[dst] in allowed
                ]
            if candidates:
                src, dst = rng.choice(candidates)
                edges.discard((src, dst))
                out_of[src].discard(dst)
                in_of[dst].discard(src)
                ops.append(DeltaOp.remove_edge(src, dst))
        elif kind == "add_node":
            node = next_node
            next_node += 1
            label = rng.choice(alphabet)
            labels_of[node] = label
            out_of[node] = set()
            in_of[node] = set()
            ops.append(DeltaOp.add_node(label))
        else:  # remove_node
            if len(labels_of) > 2:
                node = rng.choice(list(labels_of))
                for dst in out_of[node]:
                    edges.discard((node, dst))
                    in_of[dst].discard(node)
                for src in in_of[node]:
                    edges.discard((src, node))
                    out_of[src].discard(node)
                del labels_of[node], out_of[node], in_of[node]
                ops.append(DeltaOp.remove_node(node))
        stalled = 0 if len(ops) > emitted else stalled + 1
    return ops


def single_edge_stream(
    graph: Graph,
    num_ops: int,
    seed: int = 0,
    churn_labels: Sequence[str] | None = None,
) -> list[DeltaOp]:
    """An edges-only stream (the single-edge-delta regime)."""
    return random_update_stream(
        graph,
        num_ops,
        seed=seed,
        p_add_edge=0.5,
        p_remove_edge=0.5,
        p_add_node=0.0,
        p_remove_node=0.0,
        churn_labels=churn_labels,
    )


def stream_summary(ops: Iterable[DeltaOp]) -> dict[str, int]:
    """Op-kind histogram of a stream."""
    summary: dict[str, int] = {}
    for op in ops:
        summary[op.kind] = summary.get(op.kind, 0) + 1
    return summary
