"""Pattern serialisation (JSON).

A pattern document::

    {
      "format": "repro-pattern-json",
      "nodes": [
        {"name": "music", "label": "music", "conditions": "rate>2", "output": true},
        {"name": "ent", "label": "entertainment"}
      ],
      "edges": [["music", "ent"], ["ent", "music"]]
    }

``conditions`` uses the paper's inline syntax (see
:func:`repro.patterns.predicates.parse_conditions`).  Node names default
to positional ids; labels default to names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import PatternError
from repro.patterns.builder import PatternBuilder
from repro.patterns.pattern import Pattern

FORMAT = "repro-pattern-json"


def pattern_to_dict(pattern: Pattern) -> dict[str, Any]:
    """Pattern -> plain JSON-serialisable dictionary.

    Predicates round-trip only when they were parsed from ``conditions``
    (arbitrary Python predicates have no canonical text form — they are
    emitted as their ``str()`` for inspection, flagged non-portable).
    """
    nodes = []
    outputs = set(pattern.output_nodes)
    for u in pattern.nodes():
        entry: dict[str, Any] = {"name": f"n{u}", "label": pattern.label(u)}
        predicate = pattern.predicate(u)
        if predicate is not None:
            entry["conditions"] = str(predicate)
        if u in outputs:
            entry["output"] = True
        nodes.append(entry)
    return {
        "format": FORMAT,
        "nodes": nodes,
        "edges": [[f"n{a}", f"n{b}"] for a, b in pattern.edges()],
    }


def pattern_from_dict(payload: dict[str, Any]) -> Pattern:
    """Inverse of :func:`pattern_to_dict` / hand-written pattern files.

    A document of any other shape raises :class:`PatternError`.
    """
    try:
        if payload.get("format") != FORMAT:
            raise PatternError("not a repro pattern JSON document")
        builder = PatternBuilder()
        for index, node in enumerate(payload.get("nodes", [])):
            name = str(node.get("name", f"n{index}"))
            builder.node(
                name,
                label=node.get("label"),
                conditions=node.get("conditions"),
                output=bool(node.get("output", False)),
            )
        for src, dst in payload.get("edges", []):
            builder.edge(str(src), str(dst))
        return builder.build()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PatternError(f"malformed repro pattern JSON document: {exc!r}") from exc


def save_pattern(pattern: Pattern, path: str | Path) -> None:
    """Write ``pattern`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(pattern_to_dict(pattern), indent=2))


def load_pattern(path: str | Path) -> Pattern:
    """Read a pattern previously written by :func:`save_pattern`.

    A file that is not JSON, or not a repro pattern document, raises
    :class:`PatternError` naming ``path``.
    """
    try:
        return pattern_from_dict(json.loads(Path(path).read_text()))
    except (PatternError, ValueError) as exc:
        raise PatternError(f"{path}: {exc}") from exc
