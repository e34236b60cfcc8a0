"""Graph deltas: the update vocabulary of the incremental subsystem.

A *delta* is a sequence of :class:`DeltaOp` values — the unit of change
the mutation API of :class:`repro.graph.digraph.Graph` understands and
the unit of notification it emits to listeners (every
:class:`repro.session.cache.SessionCache`, which repairs its cached
match relations per op, chiefly).  Four op
kinds cover the edit operations of incremental graph pattern matching
(Fan et al., "Incremental Graph Pattern Matching", SIGMOD 2011 use the
same vocabulary):

``add_node(label, attrs)``
    Create a node.  The id is assigned at application time (dense ids),
    and recorded on the emitted event.
``remove_node(node)``
    Delete a node and all incident edges (the edge removals are emitted
    individually before the node removal, so listeners can maintain
    state edge-by-edge).
``add_edge(src, dst)`` / ``remove_edge(src, dst)``
    Insert / delete one directed edge.
``set_attrs(node, attrs)``
    Merge attribute values into a node.  Structure is untouched, but
    attribute predicates (Section 2.2 patterns) read these values, so
    session caches re-evaluate the node's candidacy for cached predicate
    patterns.

The module also provides a line-oriented JSON serialisation (one op per
line) that ``repro update-stream`` replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import GraphError

ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"
ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"
SET_ATTRS = "set_attrs"

OP_KINDS = (ADD_NODE, REMOVE_NODE, ADD_EDGE, REMOVE_EDGE, SET_ATTRS)


@dataclass(frozen=True)
class DeltaOp:
    """One atomic graph update.

    Only the fields relevant to ``kind`` are set: ``src``/``dst`` for the
    edge ops, ``node`` for ``remove_node`` (and on emitted ``add_node``
    events, where it records the id the graph assigned), ``label`` and
    ``attrs`` for ``add_node``.
    """

    kind: str
    src: int | None = None
    dst: int | None = None
    node: int | None = None
    label: str | None = None
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise GraphError(f"unknown delta op kind {self.kind!r}; expected one of {OP_KINDS}")
        if self.kind == ADD_NODE:
            if not isinstance(self.label, str):
                raise GraphError(f"{self.kind} op needs a string label")
        elif self.kind in (REMOVE_NODE, SET_ATTRS):
            if self.node is None:
                raise GraphError(f"{self.kind} op needs a node")
        elif self.src is None or self.dst is None:
            raise GraphError(f"{self.kind} op needs src and dst")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def add_node(label: str, **attrs: Any) -> "DeltaOp":
        return DeltaOp(ADD_NODE, label=label, attrs=attrs)

    @staticmethod
    def remove_node(node: int) -> "DeltaOp":
        return DeltaOp(REMOVE_NODE, node=node)

    @staticmethod
    def add_edge(src: int, dst: int) -> "DeltaOp":
        return DeltaOp(ADD_EDGE, src=src, dst=dst)

    @staticmethod
    def remove_edge(src: int, dst: int) -> "DeltaOp":
        return DeltaOp(REMOVE_EDGE, src=src, dst=dst)

    @staticmethod
    def set_attrs(node: int, **attrs: Any) -> "DeltaOp":
        return DeltaOp(SET_ATTRS, node=node, attrs=attrs)

    # -- serialisation --------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Plain-dict form; inverse of :func:`op_from_json_dict`."""
        payload: dict[str, Any] = {"op": self.kind}
        if self.kind == ADD_NODE:
            payload["label"] = self.label
            if self.attrs:
                payload["attrs"] = dict(self.attrs)
        elif self.kind == REMOVE_NODE:
            payload["node"] = self.node
        elif self.kind == SET_ATTRS:
            payload["node"] = self.node
            payload["attrs"] = dict(self.attrs)
        else:
            payload["src"] = self.src
            payload["dst"] = self.dst
        return payload


def op_from_json_dict(payload: Mapping[str, Any]) -> DeltaOp:
    """Parse one op from its JSON-dict form (see :meth:`DeltaOp.to_json_dict`)."""
    kind = payload.get("op")
    if kind == ADD_NODE:
        label = payload.get("label")
        if not isinstance(label, str):
            raise GraphError(f"add_node op needs a string label: {payload!r}")
        return DeltaOp(ADD_NODE, label=label, attrs=dict(payload.get("attrs", {})))
    if kind == REMOVE_NODE:
        return DeltaOp(REMOVE_NODE, node=int(payload["node"]))
    if kind == SET_ATTRS:
        return DeltaOp(SET_ATTRS, node=int(payload["node"]), attrs=dict(payload["attrs"]))
    if kind in (ADD_EDGE, REMOVE_EDGE):
        return DeltaOp(kind, src=int(payload["src"]), dst=int(payload["dst"]))
    raise GraphError(f"unknown delta op {payload!r}")


def save_delta_file(ops: Iterable[DeltaOp], path: str | Path) -> None:
    """Write ``ops`` as JSON lines (one op per line)."""
    lines = [json.dumps(op.to_json_dict()) for op in ops]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_delta_file(path: str | Path) -> list[DeltaOp]:
    """Read a delta stream previously written by :func:`save_delta_file`."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text: {exc}") from exc
    ops: list[DeltaOp] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ops.append(op_from_json_dict(json.loads(line)))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise GraphError(f"{path}:{lineno}: bad delta line: {exc}") from exc
    return ops


def iter_edge_ops(ops: Iterable[DeltaOp]) -> Iterator[DeltaOp]:
    """Only the edge ops of a stream (what label-based dispatch inspects)."""
    for op in ops:
        if op.kind in (ADD_EDGE, REMOVE_EDGE):
            yield op
