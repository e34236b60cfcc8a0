"""Malformed input files raise typed errors, never a bare builtin one.

Each loader is fed arbitrary JSON values and valid documents with one
entry somewhere inside replaced or dropped; every input must either
load or raise a :class:`ReproError` subclass.  A fixed set of bad files
pins the error type and that the message names the file.
"""

from __future__ import annotations

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.examples import figure1
from repro.errors import GraphError, PatternError, ReproError
from repro.graph.delta import DeltaOp, load_delta_file
from repro.graph.io import (
    from_json_dict,
    load_edge_list,
    load_json,
    save_edge_list,
    to_json_dict,
)
from repro.patterns.io import load_pattern, pattern_from_dict, pattern_to_dict
from repro.workloads.paper_queries import youtube_q1
from tests.conftest import rich_random_graph

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, document):
    """``document`` with one entry somewhere inside replaced or dropped."""
    document = copy.deepcopy(document)
    container = document
    while True:
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        key = draw(st.sampled_from(keys))
        child = container[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            container = child
            continue
        if draw(st.booleans()):
            container[key] = draw(JSON_VALUES)
        else:
            del container[key]
        return document


def _graph_document():
    graph = rich_random_graph(3)
    graph.set_attrs(next(iter(graph.live_nodes())), tags=["a", "b"])
    return to_json_dict(graph)


GRAPH_DOCUMENT = _graph_document()
PATTERN_DOCUMENTS = [pattern_to_dict(figure1().pattern), pattern_to_dict(youtube_q1())]
DELTA_OPS = [
    DeltaOp.add_node("DB", rate=4.5).to_json_dict(),
    DeltaOp.add_edge(0, 1).to_json_dict(),
    DeltaOp.remove_edge(0, 1).to_json_dict(),
    DeltaOp.set_attrs(1, rate=2.5).to_json_dict(),
    DeltaOp.remove_node(0).to_json_dict(),
]


def _loads_or_raises_typed(load, value):
    try:
        load(value)
    except ReproError:
        pass


@SETTINGS
@given(JSON_VALUES | mutated(GRAPH_DOCUMENT))
def test_graph_json_loads_or_raises_graph_error(document):
    _loads_or_raises_typed(from_json_dict, document)


@SETTINGS
@given(JSON_VALUES | st.sampled_from(PATTERN_DOCUMENTS).flatmap(mutated))
def test_pattern_json_loads_or_raises_pattern_error(document):
    _loads_or_raises_typed(pattern_from_dict, document)


@SETTINGS
@given(st.lists(JSON_VALUES | st.sampled_from(DELTA_OPS).flatmap(mutated), max_size=4))
def test_delta_file_loads_or_raises_graph_error(tmp_path, lines):
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines))
    _loads_or_raises_typed(load_delta_file, path)


EDGE_LIST_TOKENS = st.sampled_from(["v", "x", "e", "0", "1", "2", "-1", "7", "A", "1.5", "²"])


@st.composite
def edge_list_lines(draw, valid):
    """Random records, or ``valid`` with one line replaced or dropped."""
    random_line = st.lists(EDGE_LIST_TOKENS, min_size=1, max_size=4).map(" ".join)
    if draw(st.booleans()):
        return draw(st.lists(random_line, max_size=6))
    lines = list(valid)
    index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    if draw(st.booleans()):
        lines[index] = draw(random_line)
    else:
        del lines[index]
    return lines


@SETTINGS
@given(data=st.data())
def test_edge_list_loads_or_raises_graph_error(tmp_path, data):
    valid_path = tmp_path / "valid.txt"
    save_edge_list(rich_random_graph(3), valid_path)
    header, *valid = valid_path.read_text().splitlines()
    lines = data.draw(edge_list_lines(valid))
    path = tmp_path / "g.txt"
    path.write_text("\n".join([header, *lines]) + "\n")
    _loads_or_raises_typed(load_edge_list, path)


#: One file per shape that used to escape as a builtin error: loader,
#: file content (text, or bytes that are not UTF-8), and the error type
#: it must raise.
BAD_FILES = {
    "graph-not-an-object": (load_json, "[]", GraphError),
    "graph-no-labels": (load_json, '{"format": "repro-graph-json", "edges": []}', GraphError),
    "graph-edge-not-a-pair": (
        load_json,
        '{"format": "repro-graph-json", "labels": ["A", "B"], "edges": [[0, 1, 1]]}',
        GraphError,
    ),
    "graph-edge-id-not-int": (
        load_json,
        '{"format": "repro-graph-json", "labels": ["A", "B"], "edges": [["a", 1]]}',
        GraphError,
    ),
    "graph-attrs-not-an-object": (
        load_json,
        '{"format": "repro-graph-json", "labels": ["A"], "edges": [], "attrs": [1]}',
        GraphError,
    ),
    "graph-not-json": (load_json, "{", GraphError),
    "pattern-not-an-object": (load_pattern, '"x"', PatternError),
    "pattern-node-not-an-object": (
        load_pattern, '{"format": "repro-pattern-json", "nodes": [1]}', PatternError
    ),
    "pattern-edge-not-a-pair": (
        load_pattern,
        '{"format": "repro-pattern-json", "nodes": [{"name": "a", "output": true}],'
        ' "edges": [["a"]]}',
        PatternError,
    ),
    "delta-line-not-an-object": (load_delta_file, "[1, 2]\n", GraphError),
    "delta-attrs-not-an-object": (
        load_delta_file, '{"op": "set_attrs", "node": 0, "attrs": [1]}\n', GraphError
    ),
    "edge-list-id-not-int": (load_edge_list, "# repro-graph v1\nv a A\n", GraphError),
    "edge-list-not-utf8": (load_edge_list, b"# repro-graph v1\nv 0 \xff\n", GraphError),
    "delta-not-utf8": (load_delta_file, b'{"op": "remove_node", "node": 0}\n\xff\n', GraphError),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_file_raises_typed_error_naming_it(case, tmp_path):
    load, text, error = BAD_FILES[case]
    path = tmp_path / "input"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(error, match=re.escape(str(path))):
        load(path)
