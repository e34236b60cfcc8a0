"""A long single-edge stream: the repaired answer equals a recompute.

One cyclic (4, 8) pattern on a 1,500-node, 6,000-edge synthetic graph,
200 single-edge ops aimed at the pattern's labels.  After **every** op,
the ``Match`` answer of a refresh-mode ``MatchSession``, which ranks
from the relation its cache repaired, must equal ranking a fresh
``maximal_simulation`` of an identical twin graph.  The twin keeps the
oracle's snapshot compiles off the session's graph, so the session's
evaluations gather from the live adjacency, as under a real write
stream.
"""

import pickle

from repro.datasets.synthetic import synthetic_graph
from repro.ranking.context import RankingContext
from repro.ranking.relevance import top_k_by_relevance
from repro.session import MatchSession
from repro.simulation.match import maximal_simulation
from repro.workloads.pattern_gen import random_cyclic_pattern
from repro.workloads.update_stream import single_edge_stream

K = 10


def test_repaired_answer_equals_recompute_after_every_op():
    graph = synthetic_graph(1500, 6000, seed=0).thaw()
    pattern = random_cyclic_pattern(graph, 4, 8, seed=0, min_matches=K)
    churn = sorted({pattern.label(u) for u in pattern.nodes()})
    ops = single_edge_stream(graph, 200, seed=1, churn_labels=churn)
    twin = pickle.loads(pickle.dumps(graph))
    with MatchSession(graph, on_mutation="refresh") as session:
        session.cache.simulation(pattern)  # cached: every op repairs it
        for index, op in enumerate(ops):
            graph.apply_delta([op])
            twin.apply_delta([op])
            fresh = maximal_simulation(pattern, twin)
            relation, hit = session.cache.simulation(pattern)
            assert hit
            assert relation.sim == fresh.sim, f"relation diverged at op {index}"
            expected = (
                top_k_by_relevance(RankingContext(pattern, twin, simulation=fresh), K)
                if fresh.total
                else []
            )
            assert session.baseline(pattern, K).matches == expected, (
                f"answer diverged at op {index}"
            )
        stats = session.cache.repair_stats(pattern)
    assert stats.ops_applied + stats.ops_skipped == len(ops)
    # The stream must move the relation, or the loop checked nothing new.
    assert stats.relation_changes >= 1
