"""Upper-bound estimation for ``δr`` — the paper's descendant-count index.

Section 4.1: *"The initialization takes O(|Q||G|) time, by using an index.
For each node v in G, the index records the numbers of its descendants with
a same label, and efficiently estimates v.h by aggregating the numbers."*

The only property Proposition 3 needs from ``v.h`` is soundness:
``v.h ≥ δr(u, v)`` for every candidate that may still become a match.
Tighter bounds fire the termination test earlier.  Four strategies:

``global``
    ``v.h = C_u = Σ_{u' : u ⇝ u'} |can(u')|`` — no per-node index at all;
    every candidate of ``u`` shares one bound.  O(1) per candidate.

``counting``
    Over-counting descendant label counts via a condensation DP (shared
    descendants are counted once per path — sound but loose on graphs
    with many parallel paths).

``exact``
    Exact distinct-descendant counts per label, any depth (bitset DP on
    the condensation; see :mod:`repro.index.descendants`).

``hop`` (default)
    Exact distinct-descendant counts *within the pattern-path radius*:
    matches of a query node ``u'`` at longest pattern-path distance ``d``
    from ``u`` can only sit within ``d`` graph hops, so the bound
    ``Σ_{u'} min(|can(u')|, D(v, ℓ(u'), d(u')))`` is far tighter than the
    unbounded count.  Query nodes behind pattern cycles (unbounded
    radius) fall back to the exact unbounded count.  This is the strategy
    that reproduces the tight ``C_u(v)`` values of Example 7.

The per-label count arrays are graph-level caches (built lazily, reused
across queries), so per-query initialisation is the ``O(|Q||G|)``
aggregation the paper quotes.

No query path builds these indexes: the top-k engine reads its bound off
its match-pair condensation (:mod:`repro.topk.engine`).  The module stays
while the benchmark's tracer names ``SimBoundIndex.__init__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import MatchingError
from repro.graph.algorithms import condensation
from repro.graph.digraph import Graph
from repro.index.descendants import hop_counts, unbounded_counts
from repro.patterns.pattern import Pattern
from repro.simulation.candidates import WILDCARD_LABEL, CandidateSets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.algorithms import Condensation
    from repro.graph.csr import CSRSnapshot

BOUND_STRATEGIES = ("global", "counting", "exact", "hop")

_COUNTING_KEY = "descendant-index:counting"


class BoundIndex:
    """Sound upper bounds ``v.h`` on ``δr(u, v)`` for every candidate."""

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        candidates: CandidateSets,
        strategy: str = "hop",
    ) -> None:
        if strategy not in BOUND_STRATEGIES:
            raise MatchingError(
                f"unknown bound strategy {strategy!r}; expected one of {BOUND_STRATEGIES}"
            )
        self.pattern = pattern
        self.graph = graph
        self.candidates = candidates
        self.strategy = strategy

        analysis = pattern.analysis
        # C_u per query node: total candidates of everything u reaches.
        self._global_bound: list[int] = []
        for u in pattern.nodes():
            reach = analysis.reachable_from(u)
            self._global_bound.append(sum(candidates.count(x) for x in reach))
        # Per query node: [(can_count, counts_array)] — built lazily since
        # the engine only ever asks about the output node.
        self._sources: dict[int, list[tuple[int, Sequence[int]]]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def global_bound(self, u: int) -> int:
        """``C_u`` — the normalisation constant doubling as a crude bound."""
        return self._global_bound[u]

    def upper(self, u: int, v: int) -> int:
        """A sound upper bound on ``δr(u, v) = |R(u, v)|``."""
        cap = self._global_bound[u]
        if self.strategy == "global":
            return cap
        sources = self._sources.get(u)
        if sources is None:
            sources = self._build_sources(u)
            self._sources[u] = sources
        total = 0
        for can_count, counts in sources:
            d = counts[v]
            total += d if d < can_count else can_count
            if total >= cap:
                return cap
        return total

    # ------------------------------------------------------------------
    # per-query-node bound sources
    # ------------------------------------------------------------------
    def _build_sources(self, u: int) -> list[tuple[int, Sequence[int]]]:
        analysis = self.pattern.analysis
        graph = self.graph
        depths = (
            analysis.max_path_lengths_from(u) if self.strategy == "hop" else {}
        )
        counting = (
            self._counting_counts() if self.strategy == "counting" else None
        )
        # Group the reachable query nodes by label: distinct relevant-set
        # members with label ℓ are bounded by ONE descendant count (taken
        # at the deepest radius of the group), not one count per query
        # node — summing per query node would double-count every shared
        # label.
        grouped: dict[int, tuple[int, int | None]] = {}
        for target in analysis.reachable_from(u):
            label_id = graph.labels.get(self.pattern.label(target))
            if label_id is None:
                continue
            can_count = self.candidates.count(target)
            depth = depths.get(target) if self.strategy == "hop" else None
            prior = grouped.get(label_id)
            if prior is None:
                grouped[label_id] = (can_count, depth)
            else:
                prior_can, prior_depth = prior
                merged_depth = (
                    None
                    if depth is None or prior_depth is None
                    else max(depth, prior_depth)
                )
                grouped[label_id] = (prior_can + can_count, merged_depth)

        # Match paths can only traverse pattern-labelled nodes, so the
        # "hop" strategy restricts reachability to that label set — unless
        # a wildcard query node can sit on a path (then any label may).
        within: frozenset[int] | None = None
        if self.strategy == "hop":
            label_ids: set[int] = set()
            wildcard = False
            for node in self.pattern.nodes():
                name = self.pattern.label(node)
                if name == WILDCARD_LABEL:
                    wildcard = True
                    break
                lid = graph.labels.get(name)
                if lid is not None:
                    label_ids.add(lid)
            if not wildcard:
                within = frozenset(label_ids)

        sources: list[tuple[int, Sequence[int]]] = []
        for label_id, (can_count, depth) in grouped.items():
            if self.strategy == "counting":
                assert counting is not None
                counts: Sequence[int] = counting.get(label_id, _ZEROS(graph.num_nodes))
            elif self.strategy == "exact":
                counts = unbounded_counts(graph, label_id)
            elif depth is None:
                counts = unbounded_counts(graph, label_id, within)
            else:  # hop with a finite radius
                counts = hop_counts(graph, label_id, max(1, depth), within)
            sources.append((can_count, counts))
        return sources

    def _counting_counts(self) -> dict[int, list[int]]:
        """Over-counting descendant label counts (graph-level cache)."""
        cached = self.graph.derived.get(_COUNTING_KEY)
        if cached is not None:
            return cached
        graph = self.graph
        cond = condensation(graph)
        self_loops = {v for v in graph.nodes() if graph.has_edge(v, v)}

        comp_label: list[dict[int, int]] = []
        for members in cond.components:
            counter: dict[int, int] = {}
            for v in members:
                lid = graph.label_id(v)
                counter[lid] = counter.get(lid, 0) + 1
            comp_label.append(counter)

        full: list[dict[int, int]] = [dict() for _ in cond.components]
        for comp in range(cond.num_components):
            acc: dict[int, int] = {}
            members = cond.components[comp]
            nontrivial = len(members) > 1 or (
                len(members) == 1 and members[0] in self_loops
            )
            if nontrivial:
                for lid, count in comp_label[comp].items():
                    acc[lid] = acc.get(lid, 0) + count
            for child in cond.comp_succ[comp]:
                for lid, count in comp_label[child].items():
                    acc[lid] = acc.get(lid, 0) + count
                for lid, count in full[child].items():
                    acc[lid] = acc.get(lid, 0) + count
            full[comp] = acc

        per_label: dict[int, list[int]] = {}
        for v in graph.nodes():
            for lid, count in full[cond.comp_of[v]].items():
                column = per_label.get(lid)
                if column is None:
                    column = [0] * graph.num_nodes
                    per_label[lid] = column
                column[v] = count
        self.graph.derived[_COUNTING_KEY] = per_label
        return per_label


class _ZEROS(Sequence[int]):
    """An all-zero virtual column (labels absent from the graph)."""

    def __init__(self, length: int) -> None:
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: Any) -> int:  # type: ignore[override]
        return 0


class SimBoundIndex:
    """Upper bounds computed over the *simulation* instead of label classes.

    When the engine pre-runs the simulation fixpoint (its default — the
    fixpoint is the same ``O(|Q||G|)`` work as the paper's formula
    initialisation), much tighter sound bounds are available:

        ``v.h = Σ_{label groups} min(Σ|sim(u')|,
                #{w ∈ ∪ sim(u') reachable from v via match nodes
                  within the group's pattern-path radius})``

    Reachability is restricted to nodes that match *some* query node
    (match paths can only step on matches), and the targets counted are
    actual matches of the group's query nodes, not mere label twins.
    This is what keeps ``v.h`` within a small factor of ``δr(u, v)`` and
    lets Proposition 3 fire while most matches are still unexamined.
    """

    strategy = "sim"

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        sim: list[set[int]],
        snapshot: "CSRSnapshot | None" = None,
    ) -> None:
        self.pattern = pattern
        self.graph = graph
        self.sim = sim
        #: Optional :class:`repro.graph.csr.CSRSnapshot`; when present the
        #: restricted-reachability structures and the hop-count DP run as
        #: vectorised array scans (identical values, numpy speed).
        self.snapshot = snapshot
        analysis = pattern.analysis
        self._global_bound: list[int] = []
        for u in pattern.nodes():
            reach = analysis.reachable_from(u)
            self._global_bound.append(sum(len(sim[x]) for x in reach))
        self._sources: dict[int, list[tuple[int, Sequence[int]]]] = {}
        self._allowed: list[int] | None = None
        self._adjacency: list[tuple[int, ...]] | None = None
        self._restricted: tuple[Any, Any] | None = None
        self._condensation: (
            "tuple[list[int], Condensation, set[int]] | None"
        ) = None

    # -- shared restricted structure ----------------------------------
    def _restricted_csr(self) -> tuple[Any, Any]:
        """Match-restricted adjacency as CSR arrays (snapshot mode only)."""
        if self._restricted is None:
            import numpy as np

            snap = self.snapshot
            n = snap.num_nodes
            allowed = np.zeros(n, dtype=np.uint8)
            for matched in self.sim:
                if matched:
                    allowed[list(matched)] = 1
            # Delegate to the snapshot: the overlay (patched) form must
            # filter tombstoned slots and append segments, which a raw
            # ``out_targets`` slice here would silently miss.
            self._restricted = snap.restricted_out_csr(allowed)
        return self._restricted

    def _restricted_adjacency(self) -> list[tuple[int, ...]]:
        if self._adjacency is None:
            if self.snapshot is not None:
                r_offsets, r_targets = self._restricted_csr()
                offsets = r_offsets.tolist()
                targets = r_targets.tolist()
                self._adjacency = [
                    tuple(targets[offsets[v] : offsets[v + 1]])
                    for v in range(self.graph.num_nodes)
                ]
            else:
                allowed: set[int] = set()
                for matched in self.sim:
                    allowed |= matched
                graph = self.graph
                # Only hops landing on match nodes are traversable (any
                # source may take its first hop; everything beyond is a
                # match path).
                self._adjacency = [
                    tuple(c for c in graph.successors(v) if c in allowed)
                    for v in graph.nodes()
                ]
        return self._adjacency

    def _restricted_condensation(
        self,
    ) -> "tuple[list[int], Condensation, set[int]]":
        """Condensation of the *match-node* subgraph (plus self-loop comps).

        Restricted-reachability structures are only ever consulted for
        match nodes (``upper`` is queried for output candidates, which
        are matches once the engine pre-simulates), and every restricted
        hop beyond the first lands on a match node — so the condensation
        runs over the allowed-node induced subgraph instead of all of
        ``G``, which is typically several times smaller.

        Returns ``(allowed_nodes, cond, self_loop_comps)`` where
        ``cond`` indexes the compact subgraph (``allowed_nodes[i]`` is
        the original id of sub-node ``i``).
        """
        if self._condensation is None:
            adjacency = self._restricted_adjacency()
            allowed: set[int] = set()
            for matched in self.sim:
                allowed |= matched
            allowed_nodes = sorted(allowed)
            sub_of = {v: i for i, v in enumerate(allowed_nodes)}
            sub_adj = [
                [sub_of[child] for child in adjacency[v]] for v in allowed_nodes
            ]
            cond = condensation(len(allowed_nodes), lambda i: sub_adj[i])
            self_loop_comps = {
                cond.comp_of[i]
                for i in range(len(allowed_nodes))
                if i in sub_adj[i]
            }
            self._condensation = (allowed_nodes, cond, self_loop_comps)
        return self._condensation

    # -- public API -----------------------------------------------------
    def global_bound(self, u: int) -> int:
        return self._global_bound[u]

    def upper(self, u: int, v: int) -> int:
        cap = self._global_bound[u]
        sources = self._sources.get(u)
        if sources is None:
            sources = self._build_sources(u)
            self._sources[u] = sources
        total = 0
        for can_count, counts in sources:
            d = counts[v]
            total += d if d < can_count else can_count
            if total >= cap:
                return cap
        return total

    # -- per-query-node bound construction ------------------------------
    def _build_sources(self, u: int) -> list[tuple[int, Sequence[int]]]:
        pattern, graph = self.pattern, self.graph
        analysis = pattern.analysis
        depths = analysis.max_path_lengths_from(u)

        # Group reachable query nodes by label; targets are the union of
        # their match sets, radius is the group's deepest pattern path.
        grouped: dict[str, tuple[set[int], int | None, int]] = {}
        for target in analysis.reachable_from(u):
            label = pattern.label(target)
            depth = depths.get(target)
            prior = grouped.get(label)
            if prior is None:
                grouped[label] = (set(self.sim[target]), depth, len(self.sim[target]))
                continue
            members, prior_depth, can_sum = prior
            merged_depth = (
                None if depth is None or prior_depth is None else max(depth, prior_depth)
            )
            grouped[label] = (
                members | self.sim[target],
                merged_depth,
                can_sum + len(self.sim[target]),
            )

        n = graph.num_nodes
        adjacency: list[tuple[int, ...]] | None = None
        sources: list[tuple[int, Sequence[int]]] = []
        for label, (targets, depth, can_sum) in grouped.items():
            positions = {node: i for i, node in enumerate(sorted(targets))}
            if depth is not None:
                if self.snapshot is not None:
                    counts = self._hop_counts_csr(positions, depth, n)
                else:
                    if adjacency is None:
                        adjacency = self._restricted_adjacency()
                    counts = self._hop_counts(adjacency, positions, depth, n)
            else:
                counts = self._unbounded_counts(positions)
            sources.append((can_sum, counts))
        return sources

    def _hop_counts_csr(
        self, positions: dict[int, int], depth: int, n: int
    ) -> Sequence[int]:
        """Vectorised counterpart of :meth:`_hop_counts` (identical values).

        The per-node reachable-target bitsets become a packed ``uint64``
        matrix; one hop is a gather of the child rows plus a segmented
        OR over the restricted CSR (``bitwise_or.reduceat`` on the
        starts of the non-empty adjacency slices).
        """
        import numpy as np

        num_bits = len(positions)
        if num_bits == 0:
            return np.zeros(n, dtype=np.int64)
        r_offsets, r_targets = self._restricted_csr()
        words = (num_bits + 63) // 64
        bit_rows = np.zeros((n, words), dtype=np.uint64)
        nodes = np.fromiter(positions.keys(), dtype=np.int64, count=num_bits)
        bits = np.fromiter(positions.values(), dtype=np.int64, count=num_bits)
        bit_rows[nodes, bits >> 6] = np.uint64(1) << (bits & 63).astype(np.uint64)
        starts = r_offsets[:-1]
        nonempty = (r_offsets[1:] - starts) > 0
        ne_starts = starts[nonempty]
        masks = np.zeros((n, words), dtype=np.uint64)
        for _ in range(max(1, depth)):
            fresh = np.zeros((n, words), dtype=np.uint64)
            if r_targets.size:
                gathered = (masks | bit_rows)[r_targets]
                fresh[nonempty] = np.bitwise_or.reduceat(gathered, ne_starts, axis=0)
            masks = fresh
        if hasattr(np, "bitwise_count"):
            return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
        bytes_view = masks.view(np.uint8).reshape(n, words * 8)
        return np.unpackbits(bytes_view, axis=1).sum(axis=1, dtype=np.int64)

    def _hop_counts(
        self,
        adjacency: list[tuple[int, ...]],
        positions: dict[int, int],
        depth: int,
        n: int,
    ) -> Sequence[int]:
        masks = [0] * n
        for _ in range(max(1, depth)):
            fresh = [0] * n
            for v in range(n):
                mask = 0
                for child in adjacency[v]:
                    bit = positions.get(child)
                    if bit is not None:
                        mask |= 1 << bit
                    mask |= masks[child]
                fresh[v] = mask
            masks = fresh
        from array import array

        return array("l", (m.bit_count() for m in masks))

    def _unbounded_counts(self, positions: dict[int, int]) -> Sequence[int]:
        """Reachable-target counts per *match node* (0 elsewhere).

        Sound for every node the index is consulted about: ``upper`` is
        only queried for output-node candidates, which are match nodes
        under the pre-simulated engine this class serves.
        """
        allowed_nodes, cond, self_loop_comps = self._restricted_condensation()
        comp_mask: list[int] = []
        for members in cond.components:
            mask = 0
            for i in members:
                bit = positions.get(allowed_nodes[i])
                if bit is not None:
                    mask |= 1 << bit
            comp_mask.append(mask)
        num_comps = cond.num_components
        full_mask = [0] * num_comps
        from array import array

        zero = array("l", [0])
        comp_count = zero * num_comps
        remaining = [len(cond.comp_pred[c]) for c in range(num_comps)]
        for comp in range(num_comps):
            members = cond.components[comp]
            acc = 0
            if len(members) > 1 or comp in self_loop_comps:
                acc |= comp_mask[comp]
            for child in cond.comp_succ[comp]:
                acc |= comp_mask[child] | full_mask[child]
                remaining[child] -= 1
                if remaining[child] == 0:
                    full_mask[child] = 0
            full_mask[comp] = acc
            comp_count[comp] = acc.bit_count()
        counts = zero * self.graph.num_nodes
        comp_of = cond.comp_of
        for i, v in enumerate(allowed_nodes):
            counts[v] = comp_count[comp_of[i]]
        return counts
