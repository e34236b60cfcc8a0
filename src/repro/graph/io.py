"""Serialisation of data graphs.

Two formats are supported:

* a simple line-oriented edge-list format with a node-label header, handy
  for eyeballing small graphs and interchange with external tools;
* a JSON document that round-trips labels, edges *and* node attributes
  (the case-study graphs carry attributes like ``views`` and ``rate``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import GraphError
from repro.graph.digraph import Graph

_EDGE_LIST_HEADER = "# repro-graph v1"


def to_json_dict(graph: Graph) -> dict[str, Any]:
    """Graph -> plain JSON-serialisable dictionary."""
    payload = {
        "format": "repro-graph-json",
        "version": 1,
        "labels": [graph.label(v) for v in graph.nodes()],
        "edges": [[src, dst] for src, dst in graph.edges()],
        "attrs": {str(v): dict(graph.attrs(v)) for v in graph.nodes() if graph.attrs(v)},
    }
    removed = [v for v in graph.nodes() if not graph.is_live(v)]
    if removed:
        # Tombstoned slots of an update session: kept so ids stay dense
        # and the round trip preserves live-node semantics.
        payload["removed"] = removed
    return payload


def from_json_dict(payload: dict[str, Any]) -> Graph:
    """Inverse of :func:`to_json_dict`.

    A document of any other shape raises :class:`GraphError`.
    """
    try:
        if payload.get("format") != "repro-graph-json":
            raise GraphError("not a repro graph JSON document")
        graph = Graph()
        for label in payload["labels"]:
            graph.add_node(label)
        for src, dst in payload["edges"]:
            graph.add_edge(int(src), int(dst))
        for node_str, attrs in payload.get("attrs", {}).items():
            graph.set_attrs(int(node_str), **attrs)
        for node in payload.get("removed", ()):
            graph.remove_node(int(node))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed repro graph JSON document: {exc!r}") from exc
    return graph


def save_json(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(to_json_dict(graph)))


def load_json(path: str | Path) -> Graph:
    """Read a graph previously written by :func:`save_json`.

    A file that is not JSON, or not a repro graph document, raises
    :class:`GraphError` naming ``path``.
    """
    try:
        return from_json_dict(json.loads(Path(path).read_text()))
    except (GraphError, ValueError) as exc:
        raise GraphError(f"{path}: {exc}") from exc


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` as a text edge list.

    Format: a header line, one ``v <id> <label>`` line per node, one
    ``x <id>`` line per tombstoned (removed) slot, then one
    ``e <src> <dst>`` line per edge.  Node attributes are *not* stored in
    this format; use JSON when attributes matter.
    """
    lines = [_EDGE_LIST_HEADER]
    for node in graph.nodes():
        lines.append(f"v {node} {graph.label(node)}")
    for node in graph.nodes():
        if not graph.is_live(node):
            lines.append(f"x {node}")
    for src, dst in graph.edges():
        lines.append(f"e {src} {dst}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> Graph:
    """Read a graph previously written by :func:`save_edge_list`."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0] != _EDGE_LIST_HEADER:
        raise GraphError(f"{path}: missing edge-list header")
    graph = Graph()
    expected = 0
    line_no = 1
    try:
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "v":
                if len(parts) < 3:
                    raise GraphError(f"{path}:{line_no}: malformed node line")
                node_id = int(parts[1])
                if node_id != expected:
                    raise GraphError(f"{path}:{line_no}: node ids must be dense and ordered")
                graph.add_node(" ".join(parts[2:]))
                expected += 1
            elif kind == "x":
                if len(parts) != 2 or not parts[1].isdigit():
                    raise GraphError(f"{path}:{line_no}: malformed tombstone line")
                graph.remove_node(int(parts[1]))
            elif kind == "e":
                if len(parts) != 3:
                    raise GraphError(f"{path}:{line_no}: malformed edge line")
                graph.add_edge(int(parts[1]), int(parts[2]))
            else:
                raise GraphError(f"{path}:{line_no}: unknown record kind {kind!r}")
    except ValueError as exc:
        raise GraphError(f"{path}:{line_no}: bad record: {exc}") from exc
    return graph
