"""Compiled CSR snapshots of a :class:`~repro.graph.digraph.Graph`.

The matching hot paths — candidate computation, the HHK simulation
fixpoint, and the top-k engine's pair-graph build — are ``O(|Q||G|)``
scans over adjacency.  The mutable graph stores adjacency as Python list-of-lists,
which is the right shape for the incremental update API but the wrong
shape for those scans: every inner step pays a dict/set lookup and a
pointer chase.

A :class:`CSRSnapshot` is a *frozen*, array-backed view of one graph
state:

* ``int32`` CSR arrays for out- and in-adjacency (``out_offsets`` /
  ``out_targets``, ``in_offsets`` / ``in_sources``);
* a contiguous ``int32`` label-id array (``label_ids``);
* a live mask plus a dense remap of live node ids (``live_mask``,
  ``live_nodes``, ``compact_of``) so tombstoned slots cost nothing;
* a label-bucket CSR (``label_offsets`` / ``label_nodes``) replacing the
  per-label dict index with one contiguous scan per label.

Snapshots are produced by :meth:`Graph.snapshot` and cached under
``graph.derived``, which every structural mutation clears, while
attribute-only updates leave it warm (snapshots carry no attribute
state).

NumPy backs every array; it is a declared dependency.
"""

from __future__ import annotations

import itertools
from collections.abc import Set as _AbstractSet
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.graph.delta import ADD_NODE, REMOVE_EDGE, REMOVE_NODE, SET_ATTRS, DeltaOp
from repro.obs import current_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.digraph import Graph

#: The ``graph.derived`` key of the graph's primary snapshot.
CSR_SNAPSHOT_KEY = "csr-snapshot:graph"

#: The ``graph.derived`` key of the graph's patched snapshot, when one
#: is current.
CSR_OVERLAY_SNAPSHOT_KEY = "csr-overlay:graph"

#: ``graph.extensions`` key of an attached :class:`SnapshotPatcher`.
PATCHER_EXTENSION_KEY = "csr:snapshot-patcher"

#: Process-unique identity tokens for snapshot (and bucket) sharing —
#: see :meth:`CSRSnapshot.bucket_token`.  Assigned in ``__init__`` so
#: unpickled snapshots never collide with locally built ones.
_token_counter = itertools.count(1)


def _run_sums(flags: "np.ndarray", offsets: "np.ndarray") -> "np.ndarray":
    """Per run ``[offsets[i], offsets[i + 1])``: the sum of ``flags`` over it.

    The counting scans' prefix sum.  Its buffer is allocated per call:
    every session and one-shot call on a graph shares the graph's
    cached snapshot, so a buffer kept on the snapshot would let
    concurrent scans overwrite each other's sums.
    """
    cum = np.empty(flags.size + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(flags, dtype=np.int64, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


class CSRSnapshot:
    """A frozen, array-backed view of one graph state.

    Instances are immutable by convention: every array is owned by the
    snapshot and must not be written to.  Build through
    :meth:`Graph.snapshot` (cached) or :meth:`CSRSnapshot.build`.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "num_labels",
        "num_live",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "label_ids",
        "live_mask",
        "live_nodes",
        "compact_of",
        "label_offsets",
        "label_nodes",
        "token",
        "_in_lists",
    )

    #: Slots that are derived, process-local conveniences — rebuilt on
    #: demand, and deliberately excluded from pickling so a snapshot
    #: shipped to a worker process carries only the core arrays.
    #: (``token`` is an identity, not state: an unpickled snapshot gets
    #: a fresh one from the receiving process's counter.)
    _TRANSIENT_SLOTS = (
        "token",
        "_in_lists",
    )

    def __init__(self) -> None:
        # Populated by build(); kept assignable for __slots__.
        self.token: int = next(_token_counter)
        self._in_lists: tuple[list[int], list[int]] | None = None

    # ------------------------------------------------------------------
    # pickling (worker processes receive snapshots by value)
    # ------------------------------------------------------------------
    def _pickled_slots(self) -> list[str]:
        """All non-transient slots across the MRO (subclasses included).

        ``self.__slots__`` alone would miss inherited slots on a
        subclass such as :class:`PatchedCSRSnapshot`.
        """
        transient = self._TRANSIENT_SLOTS
        names: list[str] = []
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name not in transient and name not in names:
                    names.append(name)
        return names

    def __getstate__(self) -> dict:
        """Core arrays only — the scalar-mirror cache is local."""
        return {name: getattr(self, name) for name in self._pickled_slots()}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        for name, value in state.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: "Graph") -> "CSRSnapshot":
        """Compile ``graph``'s current state into a snapshot."""
        snap = cls()
        n = graph.num_nodes
        out_adj = graph._out
        in_adj = graph._in
        snap.num_nodes = n
        snap.num_labels = len(graph.labels)

        out_deg = np.fromiter((len(a) for a in out_adj), dtype=np.int64, count=n)
        in_deg = np.fromiter((len(a) for a in in_adj), dtype=np.int64, count=n)
        m = int(out_deg.sum())
        snap.num_edges = m

        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_deg, out=out_offsets[1:])
        in_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_deg, out=in_offsets[1:])
        snap.out_offsets = out_offsets
        snap.in_offsets = in_offsets
        snap.out_targets = np.fromiter(
            (dst for adj in out_adj for dst in adj), dtype=np.int32, count=m
        )
        snap.in_sources = np.fromiter(
            (src for adj in in_adj for src in adj), dtype=np.int32, count=m
        )

        snap.label_ids = np.fromiter(graph._label_of, dtype=np.int32, count=n)
        live_mask = np.ones(n, dtype=np.uint8)
        if graph._removed:
            live_mask[list(graph._removed)] = 0
        snap.live_mask = live_mask
        live_nodes = np.nonzero(live_mask)[0].astype(np.int32)
        snap.live_nodes = live_nodes
        snap.num_live = int(live_nodes.size)
        compact_of = np.full(n, -1, dtype=np.int32)
        compact_of[live_nodes] = np.arange(live_nodes.size, dtype=np.int32)
        snap.compact_of = compact_of

        # Label buckets: live nodes sorted by (label id, node id).  A
        # stable sort on label ids preserves ascending node order inside
        # each bucket, matching the mutable graph's label index.
        live_labels = snap.label_ids[live_nodes]
        order = np.argsort(live_labels, kind="stable")
        snap.label_nodes = live_nodes[order]
        counts = np.bincount(live_labels, minlength=snap.num_labels)
        label_offsets = np.zeros(snap.num_labels + 1, dtype=np.int64)
        if counts.size:
            np.cumsum(counts, out=label_offsets[1 : counts.size + 1])
            label_offsets[counts.size + 1 :] = label_offsets[counts.size]
        snap.label_offsets = label_offsets
        return snap

    # ------------------------------------------------------------------
    # array accessors
    # ------------------------------------------------------------------
    def successors(self, node: int):
        """The out-neighbours of ``node`` as an ``int32`` array view."""
        return self.out_targets[self.out_offsets[node] : self.out_offsets[node + 1]]

    def predecessors(self, node: int):
        """The in-neighbours of ``node`` as an ``int32`` array view."""
        return self.in_sources[self.in_offsets[node] : self.in_offsets[node + 1]]

    def out_csr(self) -> tuple["np.ndarray", "np.ndarray"]:
        """``(offsets, targets)``: the out-adjacency as one flat CSR.

        ``targets[offsets[v]:offsets[v + 1]]`` equals ``successors(v)``
        for every node, so one index expansion gathers the runs of many
        nodes at once.  A flat snapshot returns its own arrays.
        """
        return self.out_offsets, self.out_targets

    def nodes_with_label_id(self, label_id: int):
        """Live nodes carrying ``label_id``, ascending, as an array view."""
        if not (0 <= label_id < self.num_labels):
            return self.label_nodes[0:0]
        return self.label_nodes[
            self.label_offsets[label_id] : self.label_offsets[label_id + 1]
        ]

    def label_bucket_list(self, label_id: int) -> list[int]:
        """Live nodes carrying ``label_id`` as a plain list of ints."""
        return self.nodes_with_label_id(label_id).tolist()

    def live_list(self) -> list[int]:
        """All live node ids, ascending, as a plain list of ints."""
        return self.live_nodes.tolist()

    # ------------------------------------------------------------------
    # identity tokens (bucket-level cache keys)
    # ------------------------------------------------------------------
    def bucket_token(self, label_id: int) -> int:
        """Identity of the ``label_id`` bucket's backing data.

        Two snapshots that share a bucket — a patched snapshot whose
        delta left the label untouched inherits its base's buckets —
        report the *same* token, so bucket-keyed caches survive the
        patch; any change to the bucket's membership changes the token.
        A flat snapshot owns all its buckets, so its own token stands
        for every label.
        """
        return self.token

    def live_token(self) -> int:
        """Identity of the live-node set (changes on any node op)."""
        return self.token

    # ------------------------------------------------------------------
    # bulk kernels
    # ------------------------------------------------------------------
    def out_counts(self, membership) -> "np.ndarray":
        """Per node: how many successors have a nonzero ``membership`` flag.

        ``membership`` is a length-``num_nodes`` ``uint8`` array.  This is
        the vectorised form of the simulation fixpoint's counter
        initialisation.
        """
        return _run_sums(membership[self.out_targets], self.out_offsets)

    def in_counts(self, membership) -> "np.ndarray":
        """Per node: how many predecessors have a nonzero ``membership`` flag."""
        return _run_sums(membership[self.in_sources], self.in_offsets)

    def gather_in_slices(self, nodes) -> "np.ndarray":
        """Concatenated predecessor slices of ``nodes`` (with multiplicity).

        Equivalent to ``np.concatenate([predecessors(v) for v in nodes])``
        but built with one vectorised index expansion — the batched
        removal cascade feeds whole fronts through this.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if not nodes.size:
            return self.in_sources[0:0]
        starts = self.in_offsets[nodes]
        lengths = self.in_offsets[nodes + 1] - starts
        nonempty = lengths > 0
        starts = starts[nonempty]
        lengths = lengths[nonempty]
        total = int(lengths.sum())
        if total == 0:
            return self.in_sources[0:0]
        step = np.ones(total, dtype=np.int64)
        step[0] = starts[0]
        if starts.size > 1:
            boundaries = np.cumsum(lengths[:-1])
            step[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
        return self.in_sources[np.cumsum(step)]

    def restricted_out_csr(self, allowed) -> tuple:
        """Out-adjacency restricted to targets with a nonzero ``allowed`` flag.

        Returns ``(offsets, targets)``: ``offsets`` is ``int64`` of
        length ``num_nodes + 1`` and ``targets`` keeps adjacency order.
        Restriction-based consumers (the bound index's match-restricted
        reachability) must build through here rather than slicing
        ``out_targets`` directly: it reads :meth:`out_csr`, which on the
        overlay form excludes tombstoned base slots and includes
        appended segments.
        """
        offsets, targets = self.out_csr()
        keep = allowed[targets] != 0
        cum = np.zeros(targets.size + 1, dtype=np.int64)
        np.cumsum(keep, out=cum[1:])
        return cum[offsets], targets[keep]

    # ------------------------------------------------------------------
    # scalar-loop mirror
    # ------------------------------------------------------------------
    def in_csr_lists(self) -> tuple[list[int], list[int]]:
        """``(offsets, sources)`` as plain Python int lists (cached).

        Scalar loops iterate ``sources[offsets[v]:offsets[v+1]]``; list
        slices of Python ints iterate several times faster than numpy
        views in the interpreter.
        """
        if self._in_lists is None:
            self._in_lists = (self.in_offsets.tolist(), self.in_sources.tolist())
        return self._in_lists

    def __repr__(self) -> str:
        return (
            f"CSRSnapshot(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"live={self.num_live}, labels={self.num_labels})"
        )


class PatchedCSRSnapshot(CSRSnapshot):
    """An overlay-form snapshot: a flat base plus a small delta.

    Instead of recompiling every array, :meth:`patch` overlays a replayed
    op log on an existing flat :class:`CSRSnapshot`:

    * **edge tombstones** — ``uint8`` masks over the base edge slots
      (``_out_dead`` / ``_in_dead``) mark in-delta removals of base
      edges;
    * **append-only segments** — per-node arrays of in-delta edge
      additions (``_seg_out`` / ``_seg_in``), appended after the node's
      surviving base run.  Appending (never re-animating a dead base
      slot) reproduces the mutable graph's ``list.remove`` +
      ``list.append`` ordering, so per-node adjacency equals a fresh
      rebuild's element for element;
    * **node extensions** — ``label_ids`` / offsets / ``live_mask``
      extended (or copy-edited) only when the delta contains node ops;
      edge-only deltas share the base node arrays outright;
    * **label buckets** — the global ``label_offsets`` / ``label_nodes``
      CSR is re-spliced with only the *touched* labels' buckets
      recomputed; untouched buckets are views into the base bucket
      array, and :meth:`bucket_token` reports the base's token for them
      so bucket-keyed caches survive the patch.

    Every public accessor and bulk kernel reads through the overlay, so
    downstream consumers (CSR-kernel scans, the evaluation's pair graph,
    the bound index's restricted CSR) are unchanged.
    """

    __slots__ = (
        "_base",
        "_base_m",
        "_out_dead",
        "_in_dead",
        "_dead_src",
        "_dead_dst",
        "_seg_out",
        "_seg_in",
        "_out_touched",
        "_in_touched",
        "_node_ops",
        "_bucket_tokens",
        "num_ops",
        "_out_csr",
    )

    _TRANSIENT_SLOTS = CSRSnapshot._TRANSIENT_SLOTS + ("_out_csr",)

    def __init__(self) -> None:
        super().__init__()
        self._out_csr: tuple | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def patch(
        cls, base: CSRSnapshot, ops: Sequence[DeltaOp], graph: "Graph"
    ) -> "PatchedCSRSnapshot":
        """Overlay ``ops`` (replayed in order) on the flat ``base``.

        ``base`` must be the snapshot of the graph state immediately
        before the first op, and ``ops`` the complete structural op log
        from there to ``graph``'s current state (``set_attrs`` ops are
        ignored: snapshots carry no attribute state).  Work is
        proportional to the delta plus one ``O(n)`` splice when node or
        label state changed — never ``O(m)``.
        """
        if isinstance(base, PatchedCSRSnapshot):
            raise ValueError(
                "patch() requires a flat base snapshot; overlays do not stack "
                "(the patcher replays the full accumulated log on the flat "
                "base instead)"
            )
        snap = cls()
        base_n = base.num_nodes
        base_m = int(base.out_targets.size)

        out_dead = np.zeros(base_m, dtype=np.uint8)
        in_dead = np.zeros(base_m, dtype=np.uint8)
        seg_out: dict[int, list[int]] = {}
        seg_in: dict[int, list[int]] = {}
        new_label_ids: list[int] = []
        removed: list[int] = []
        touched_labels: set[int] = set()
        node_ops = False

        def label_of(node: int) -> int:
            if node < base_n:
                return int(base.label_ids[node])
            return new_label_ids[node - base_n]

        for op in ops:
            kind = op.kind
            if kind == SET_ATTRS:
                continue
            if kind == ADD_NODE:
                assert op.node == base_n + len(new_label_ids), (
                    "op log is inconsistent with the base snapshot"
                )
                label_id = graph.labels.get(op.label or "")
                assert label_id is not None
                new_label_ids.append(label_id)
                touched_labels.add(label_id)
                node_ops = True
            elif kind == REMOVE_NODE:
                assert op.node is not None
                touched_labels.add(label_of(op.node))
                removed.append(op.node)
                node_ops = True
            elif kind == REMOVE_EDGE:
                assert op.src is not None and op.dst is not None
                src, dst = op.src, op.dst
                seg = seg_out.get(src)
                if seg is not None and dst in seg:
                    seg.remove(dst)
                    seg_in[dst].remove(src)
                else:
                    o0, o1 = int(base.out_offsets[src]), int(base.out_offsets[src + 1])
                    run = base.out_targets[o0:o1]
                    hits = np.nonzero((run == dst) & (out_dead[o0:o1] == 0))[0]
                    out_dead[o0 + int(hits[0])] = 1
                    i0, i1 = int(base.in_offsets[dst]), int(base.in_offsets[dst + 1])
                    run = base.in_sources[i0:i1]
                    hits = np.nonzero((run == src) & (in_dead[i0:i1] == 0))[0]
                    in_dead[i0 + int(hits[0])] = 1
            else:  # ADD_EDGE — always an append, matching list.append order
                assert op.src is not None and op.dst is not None
                seg_out.setdefault(op.src, []).append(op.dst)
                seg_in.setdefault(op.dst, []).append(op.src)

        n = base_n + len(new_label_ids)
        snap._base = base
        snap._base_m = base_m
        snap._out_dead = out_dead
        snap._in_dead = in_dead
        snap._node_ops = node_ops
        snap.num_ops = len(ops)
        snap.num_nodes = n

        dead_slots = np.nonzero(out_dead)[0]
        if dead_slots.size:
            snap._dead_src = (
                np.searchsorted(base.out_offsets, dead_slots, side="right") - 1
            ).astype(np.int64)
            snap._dead_dst = base.out_targets[dead_slots].astype(np.int64)
        else:
            snap._dead_src = np.empty(0, dtype=np.int64)
            snap._dead_dst = np.empty(0, dtype=np.int64)
        snap._seg_out = {
            v: np.asarray(lst, dtype=np.int32) for v, lst in seg_out.items() if lst
        }
        snap._seg_in = {
            v: np.asarray(lst, dtype=np.int32) for v, lst in seg_in.items() if lst
        }

        out_touched = np.zeros(n, dtype=bool)
        in_touched = np.zeros(n, dtype=bool)
        if dead_slots.size:
            out_touched[snap._dead_src] = True
            in_touched[snap._dead_dst] = True
        for v in snap._seg_out:
            out_touched[v] = True
        for v in snap._seg_in:
            in_touched[v] = True
        snap._out_touched = out_touched
        snap._in_touched = in_touched

        # Node arrays: shared outright for edge-only deltas, extended /
        # copy-edited otherwise (O(n) vectorised, no Python loops).
        if node_ops:
            if new_label_ids:
                snap.label_ids = np.concatenate(
                    [base.label_ids, np.asarray(new_label_ids, dtype=np.int32)]
                )
                pad = len(new_label_ids)
                snap.out_offsets = np.concatenate(
                    [base.out_offsets,
                     np.full(pad, base.out_offsets[-1], dtype=np.int64)]
                )
                snap.in_offsets = np.concatenate(
                    [base.in_offsets,
                     np.full(pad, base.in_offsets[-1], dtype=np.int64)]
                )
                live_mask = np.concatenate(
                    [base.live_mask, np.ones(pad, dtype=np.uint8)]
                )
            else:
                snap.label_ids = base.label_ids
                snap.out_offsets = base.out_offsets
                snap.in_offsets = base.in_offsets
                live_mask = base.live_mask.copy()
            if removed:
                live_mask[removed] = 0
            snap.live_mask = live_mask
            live_nodes = np.nonzero(live_mask)[0].astype(np.int32)
            snap.live_nodes = live_nodes
            snap.num_live = int(live_nodes.size)
            compact_of = np.full(n, -1, dtype=np.int32)
            compact_of[live_nodes] = np.arange(live_nodes.size, dtype=np.int32)
            snap.compact_of = compact_of
        else:
            snap.label_ids = base.label_ids
            snap.out_offsets = base.out_offsets
            snap.in_offsets = base.in_offsets
            snap.live_mask = base.live_mask
            snap.live_nodes = base.live_nodes
            snap.num_live = base.num_live
            snap.compact_of = base.compact_of

        # Edge views: the base flat arrays, read through the overlay.
        snap.out_targets = base.out_targets
        snap.in_sources = base.in_sources
        snap.num_edges = (
            base.num_edges
            - int(dead_slots.size)
            + sum(seg.size for seg in snap._seg_out.values())
        )

        # Label buckets: splice only the touched labels' buckets; the
        # rest are views into the base bucket array, keeping the global
        # (label_offsets, label_nodes) CSR every inherited bucket method
        # reads.  A label table that grew past the base (labels interned
        # since the base build) extends the offsets with empty buckets.
        num_labels = max(len(graph.labels), base.num_labels)
        snap.num_labels = num_labels
        if touched_labels or num_labels != base.num_labels:
            buckets = []
            label_ids_arr = snap.label_ids
            live = snap.live_mask
            for label_id in range(num_labels):
                if label_id in touched_labels or label_id >= base.num_labels:
                    bucket = np.nonzero(
                        (label_ids_arr == label_id) & (live != 0)
                    )[0].astype(np.int32)
                else:
                    bucket = base.nodes_with_label_id(label_id)
                buckets.append(bucket)
            label_offsets = np.zeros(num_labels + 1, dtype=np.int64)
            if buckets:
                sizes = np.fromiter(
                    (b.size for b in buckets), dtype=np.int64, count=num_labels
                )
                np.cumsum(sizes, out=label_offsets[1:])
                snap.label_nodes = np.concatenate(buckets)
            else:
                snap.label_nodes = np.empty(0, dtype=np.int32)
            snap.label_offsets = label_offsets
        else:
            snap.label_offsets = base.label_offsets
            snap.label_nodes = base.label_nodes

        bucket_tokens = {label_id: snap.token for label_id in touched_labels}
        for label_id in range(base.num_labels, num_labels):
            bucket_tokens[label_id] = snap.token
        snap._bucket_tokens = bucket_tokens
        return snap

    # ------------------------------------------------------------------
    # identity tokens
    # ------------------------------------------------------------------
    def bucket_token(self, label_id: int) -> int:
        token = self._bucket_tokens.get(label_id)
        return token if token is not None else self._base.token

    def live_token(self) -> int:
        return self.token if self._node_ops else self._base.token

    # ------------------------------------------------------------------
    # overlay-aware accessors
    # ------------------------------------------------------------------
    def successors(self, node: int):
        base = self._base
        if node < base.num_nodes:
            if not self._out_touched[node]:
                return base.successors(node)
            o0, o1 = int(base.out_offsets[node]), int(base.out_offsets[node + 1])
            run = base.out_targets[o0:o1]
            dead = self._out_dead[o0:o1]
            if dead.any():
                run = run[dead == 0]
        else:
            run = base.out_targets[0:0]
        seg = self._seg_out.get(node)
        if seg is None:
            return run
        if not run.size:
            return seg
        return np.concatenate([run, seg])

    def predecessors(self, node: int):
        base = self._base
        if node < base.num_nodes:
            if not self._in_touched[node]:
                return base.predecessors(node)
            i0, i1 = int(base.in_offsets[node]), int(base.in_offsets[node + 1])
            run = base.in_sources[i0:i1]
            dead = self._in_dead[i0:i1]
            if dead.any():
                run = run[dead == 0]
        else:
            run = base.in_sources[0:0]
        seg = self._seg_in.get(node)
        if seg is None:
            return run
        if not run.size:
            return seg
        return np.concatenate([run, seg])

    # ------------------------------------------------------------------
    # overlay-aware bulk kernels
    # ------------------------------------------------------------------
    def out_counts(self, membership) -> "np.ndarray":
        # The scan covers the full base edge arrays, dead slots included;
        # the tombstone pass below takes the dead slots back out.
        base = self._base
        result = np.zeros(self.num_nodes, dtype=np.int64)
        result[: base.num_nodes] = _run_sums(
            membership[base.out_targets], base.out_offsets
        )
        if self._dead_src.size:
            np.subtract.at(
                result, self._dead_src, membership[self._dead_dst].astype(np.int64)
            )
        for v, seg in self._seg_out.items():
            result[v] += int(membership[seg].sum(dtype=np.int64))
        return result

    def in_counts(self, membership) -> "np.ndarray":
        base = self._base
        result = np.zeros(self.num_nodes, dtype=np.int64)
        result[: base.num_nodes] = _run_sums(
            membership[base.in_sources], base.in_offsets
        )
        if self._dead_src.size:
            np.subtract.at(
                result, self._dead_dst, membership[self._dead_src].astype(np.int64)
            )
        for v, seg in self._seg_in.items():
            result[v] += int(membership[seg].sum(dtype=np.int64))
        return result

    def gather_in_slices(self, nodes) -> "np.ndarray":
        nodes = np.asarray(nodes, dtype=np.int64)
        base = self._base
        if not nodes.size:
            return base.in_sources[0:0]
        if int(nodes.max()) < base.num_nodes and not self._in_touched[nodes].any():
            return base.gather_in_slices(nodes)
        parts = [self.predecessors(int(v)) for v in nodes]
        parts = [p for p in parts if p.size]
        if not parts:
            return base.in_sources[0:0]
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # compacted forms
    # ------------------------------------------------------------------
    def _compacted(self, base_offsets, base_targets, dead, segments) -> tuple:
        """One direction of the overlay as a flat ``(offsets, targets)`` CSR.

        Each node's run is its surviving base run followed by its
        segment, the order :meth:`successors` / :meth:`predecessors`
        return.
        """
        base_n = self._base.num_nodes
        keep = dead == 0
        cum = np.zeros(self._base_m + 1, dtype=np.int64)
        np.cumsum(keep, out=cum[1:])
        ends = cum[base_offsets]
        kept = base_targets[keep]
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        counts[:base_n] = np.diff(ends)
        for v, seg in segments.items():
            counts[v] += seg.size
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if not segments:
            return offsets, kept
        parts = []
        prev = 0
        for v in sorted(segments):
            end = int(ends[min(v + 1, base_n)])
            parts.append(kept[prev:end])
            parts.append(segments[v])
            prev = end
        parts.append(kept[prev:])
        return offsets, np.concatenate(parts)

    def out_csr(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The overlay's out-adjacency, compacted once and cached."""
        if self._out_csr is None:
            base = self._base
            self._out_csr = self._compacted(
                base.out_offsets, base.out_targets, self._out_dead, self._seg_out
            )
        return self._out_csr

    def in_csr_lists(self) -> tuple[list[int], list[int]]:
        if self._in_lists is None:
            base = self._base
            offsets, sources = self._compacted(
                base.in_offsets, base.in_sources, self._in_dead, self._seg_in
            )
            self._in_lists = (offsets.tolist(), sources.tolist())
        return self._in_lists

    def __repr__(self) -> str:
        return (
            f"PatchedCSRSnapshot(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"live={self.num_live}, labels={self.num_labels}, "
            f"ops={self.num_ops})"
        )


class NodeInterner:
    """Dense bit-index assignment over a fixed universe of node ids.

    Relevant sets only ever contain matches of the query nodes the
    output node reaches, so their members can be interned into a
    contiguous bit space once per evaluation: bit ``i``
    stands for ``node_of[i]``, and ``bit_of[v]`` maps a node id back to
    its bit (``-1`` for nodes outside the universe).  The layout is
    deterministic (ascending node id).

    Pure Python (no numpy): the packed sets built on top of this are
    arbitrary-precision ints, whose word-at-a-time union/popcount are
    exactly the "packed bitset" kernel the engine needs.
    """

    __slots__ = ("node_of", "bit_of")

    def __init__(self, universe: Iterable[int], num_nodes: int | None = None) -> None:
        self.node_of: list[int] = sorted(set(universe))
        size = num_nodes if num_nodes is not None else (
            self.node_of[-1] + 1 if self.node_of else 0
        )
        bit_of = [-1] * size
        for i, v in enumerate(self.node_of):
            bit_of[v] = i
        self.bit_of: list[int] = bit_of

    def __len__(self) -> int:
        return len(self.node_of)


class FrozenBitset(_AbstractSet):
    """An immutable set-of-nodes view over a packed bitmask.

    Wraps one big-int ``mask`` plus the :class:`NodeInterner` that
    defines its bit layout.  Python ints are immutable, so the view is
    frozen by construction.

    Implements :class:`collections.abc.Set`, so it is interchangeable
    with ``frozenset`` everywhere relevance / distance functions take an
    ``AbstractSet`` — with word-parallel fast paths when both operands
    are views over the same interner (Jaccard's ``len(a & b)`` becomes a
    mask AND plus one popcount instead of element-wise hashing).
    """

    __slots__ = ("mask", "interner", "_length")

    def __init__(self, mask: int, interner: NodeInterner) -> None:
        self.mask = mask
        self.interner = interner
        self._length = -1

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        # Mixed-operand set algebra falls back to plain frozensets.
        return frozenset(iterable)

    def __len__(self) -> int:
        if self._length < 0:
            self._length = self.mask.bit_count()
        return self._length

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, node) -> bool:
        bit_of = self.interner.bit_of
        return (
            isinstance(node, int)
            and 0 <= node < len(bit_of)
            and (bit := bit_of[node]) >= 0
            and (self.mask >> bit) & 1 == 1
        )

    def __iter__(self) -> Iterator[int]:
        # Decode 64 bits at a time: keeps the low-bit isolation on small
        # ints instead of repeating it on the full arbitrary-width mask.
        node_of = self.interner.node_of
        mask = self.mask
        base = 0
        while mask:
            word = mask & 0xFFFFFFFFFFFFFFFF
            while word:
                low = word & -word
                yield node_of[base + low.bit_length() - 1]
                word ^= low
            mask >>= 64
            base += 64

    def _same_layout(self, other) -> bool:
        return isinstance(other, FrozenBitset) and other.interner is self.interner

    def __eq__(self, other) -> bool:
        if self._same_layout(other):
            return self.mask == other.mask
        return super().__eq__(other)

    def __ne__(self, other) -> bool:
        if self._same_layout(other):
            return self.mask != other.mask
        return super().__ne__(other)

    def __and__(self, other):
        if self._same_layout(other):
            return FrozenBitset(self.mask & other.mask, self.interner)
        return super().__and__(other)

    def __or__(self, other):
        if self._same_layout(other):
            return FrozenBitset(self.mask | other.mask, self.interner)
        return super().__or__(other)

    def __sub__(self, other):
        if self._same_layout(other):
            return FrozenBitset(self.mask & ~other.mask, self.interner)
        return super().__sub__(other)

    def __xor__(self, other):
        if self._same_layout(other):
            return FrozenBitset(self.mask ^ other.mask, self.interner)
        return super().__xor__(other)

    def __le__(self, other) -> bool:
        if self._same_layout(other):
            return self.mask & ~other.mask == 0
        return super().__le__(other)

    def __ge__(self, other) -> bool:
        if self._same_layout(other):
            return other.mask & ~self.mask == 0
        return super().__ge__(other)

    def isdisjoint(self, other) -> bool:
        if self._same_layout(other):
            return self.mask & other.mask == 0
        return super().isdisjoint(other)

    # Matches frozenset's hash for equal element sets (Set._hash contract),
    # so a view and its frozenset twin collide correctly as dict keys.
    __hash__ = _AbstractSet._hash

    def __repr__(self) -> str:
        return f"FrozenBitset({{{', '.join(map(str, sorted(self)))}}})"


class SnapshotPatcher:
    """Accumulates structural deltas and patches the graph's snapshot.

    Attached to ``graph.extensions`` (persistent, never cleared) by
    :func:`attach_snapshot_patching`.  While attached it records every
    structural :class:`DeltaOp`; when :func:`snapshot_of` needs a
    snapshot and the cache is cold, the patcher overlays the accumulated
    log on the last flat base (:meth:`PatchedCSRSnapshot.patch`) when
    the delta is small, and compacts back to a flat
    :meth:`CSRSnapshot.build` once the overlay grows past
    ``compact_ratio`` of the base size.  The flat rebuild stays the
    oracle: with the patcher detached (or the ratio at zero) behaviour
    is byte-identical to the unpatched path.
    """

    __slots__ = ("graph", "compact_ratio", "_base", "_pending", "_unsubscribe")

    def __init__(self, graph: "Graph", compact_ratio: float = 0.25) -> None:
        self.graph = graph
        self.compact_ratio = float(compact_ratio)
        #: The flat snapshot the pending log is relative to.  Held here
        #: (not only in ``graph.derived``) so invalidation dropping the
        #: cache entry does not lose the patch base.
        self._base: CSRSnapshot | None = graph.derived.get(CSR_SNAPSHOT_KEY)
        self._pending: list[DeltaOp] = []
        self._unsubscribe = graph.add_listener(self._on_op)

    def _on_op(self, op: DeltaOp) -> None:
        if op.kind != SET_ATTRS:
            self._pending.append(op)

    @property
    def pending_ops(self) -> int:
        """Structural ops accumulated since the current flat base."""
        return len(self._pending)

    def detach(self) -> None:
        """Stop listening and drop the patch state."""
        self._unsubscribe()
        self._base = None
        self._pending.clear()
        self.graph.extensions.pop(PATCHER_EXTENSION_KEY, None)

    def build(self) -> CSRSnapshot:
        """The graph's current snapshot: cached, patched, or rebuilt."""
        graph = self.graph
        cached = graph.derived.get(CSR_SNAPSHOT_KEY)
        if cached is None:
            cached = graph.derived.get(CSR_OVERLAY_SNAPSHOT_KEY)
        if cached is not None:
            return cached
        base = self._base
        if base is not None and not self._pending:
            # The cache entry was dropped without a recorded structural
            # op (e.g. an external derived.clear()); the base still
            # matches the graph state, so restore it.
            graph.derived[CSR_SNAPSHOT_KEY] = base
            return base
        snap: CSRSnapshot | None = None
        outcome = "rebuilt"
        if base is not None:
            budget = self.compact_ratio * (
                base.num_nodes + int(base.out_targets.size)
            )
            if len(self._pending) <= budget:
                snap = PatchedCSRSnapshot.patch(base, self._pending, graph)
                graph.derived[CSR_OVERLAY_SNAPSHOT_KEY] = snap
                outcome = "patched"
            else:
                outcome = "compacted"
        if snap is None:
            snap = CSRSnapshot.build(graph)
            graph.derived[CSR_SNAPSHOT_KEY] = snap
            self._base = snap
            self._pending.clear()
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_snapshot_patch_total",
                "Snapshot builds by outcome (patched/compacted/rebuilt).",
            ).inc(1, outcome=outcome)
        return snap


def attach_snapshot_patching(
    graph: "Graph", compact_ratio: float = 0.25
) -> SnapshotPatcher:
    """Attach (or retune) delta-aware snapshot patching on ``graph``.

    Idempotent: a second call updates ``compact_ratio`` on the existing
    patcher.  Once attached, :func:`snapshot_of` (and therefore
    :meth:`Graph.snapshot`) routes through the patcher.
    """
    patcher = graph.extensions.get(PATCHER_EXTENSION_KEY)
    if patcher is None:
        patcher = SnapshotPatcher(graph, compact_ratio)
        graph.extensions[PATCHER_EXTENSION_KEY] = patcher
    else:
        patcher.compact_ratio = float(compact_ratio)
    return patcher


def patcher_of(graph: "Graph") -> SnapshotPatcher | None:
    """The graph's attached :class:`SnapshotPatcher`, if any."""
    return graph.extensions.get(PATCHER_EXTENSION_KEY)


def has_cached_snapshot(graph: "Graph") -> bool:
    """True when a current snapshot (flat or patched) is cached."""
    return (
        CSR_SNAPSHOT_KEY in graph.derived
        or CSR_OVERLAY_SNAPSHOT_KEY in graph.derived
    )


def snapshot_of(graph: "Graph") -> CSRSnapshot:
    """The cached snapshot of ``graph``, building it on first use.

    The cache lives in ``graph.derived`` under :data:`CSR_SNAPSHOT_KEY`
    (flat) or :data:`CSR_OVERLAY_SNAPSHOT_KEY` (patched), which every
    structural mutation clears, so it is dropped exactly when it goes
    stale.  With a :class:`SnapshotPatcher` attached, a
    cold cache patches the previous flat base instead of recompiling
    when the accumulated delta is small.
    """
    snap = graph.derived.get(CSR_SNAPSHOT_KEY)
    if snap is None:
        snap = graph.derived.get(CSR_OVERLAY_SNAPSHOT_KEY)
    if snap is not None:
        return snap
    patcher = graph.extensions.get(PATCHER_EXTENSION_KEY)
    if patcher is not None:
        return patcher.build()
    snap = CSRSnapshot.build(graph)
    graph.derived[CSR_SNAPSHOT_KEY] = snap
    return snap
