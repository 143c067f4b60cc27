"""Codec round-trips and format parsing."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from conftest import graphs
from ptl.embedding import Graph, embed, is_isomorphic
from ptl.io import (
    FormatError,
    graph6_bytes_length,
    graph6_decode,
    graph6_encode,
    load_plane_graph_json,
    parse_graph_line,
    read_graph_lines,
    sparse6_decode,
    sparse6_encode,
)


def _same_graph(a: Graph, b: Graph) -> bool:
    if a.n != b.n:
        return False
    return {tuple(sorted(e)) for e in _edges(a)} == {
        tuple(sorted(e)) for e in _edges(b)
    }


def _edges(g: Graph):
    return [(u, v) for u in range(g.n) for v in g.adjacency[u] if u < v]


# -- frozen encodings ------------------------------------------------------

def test_known_graph6_forms():
    # ex_P(4, Theta4) witnesses, fixed by the exhaustive oracle.
    c4 = graph6_decode("Cr")
    paw_complement = graph6_decode("CN")
    assert c4.n == 4 and c4.m == 4
    assert paw_complement.n == 4 and paw_complement.m == 4
    assert graph6_encode(c4) == b"Cr"
    assert graph6_encode(paw_complement) == b"CN"


def test_graph6_k4():
    g = Graph.complete(4)
    form = graph6_encode(g)
    assert form == b"C~"
    assert graph6_decode(form.decode("ascii")).m == 6
    # one size byte plus the body
    assert len(form) == 1 + graph6_bytes_length(4)


def test_empty_and_single_vertex():
    for n in (1, 2, 3):
        g = Graph.from_edges(n, [])
        assert _same_graph(graph6_decode(graph6_encode(g).decode()), g)
        assert _same_graph(sparse6_decode(sparse6_encode(g).decode()), g)


# -- property round-trips --------------------------------------------------

@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert _same_graph(graph6_decode(graph6_encode(g).decode("ascii")), g)


@given(graphs(max_n=12))
def test_sparse6_round_trip(g):
    assert _same_graph(sparse6_decode(sparse6_encode(g).decode("ascii")), g)


@given(graphs(max_n=9))
def test_line_file_round_trip(g):
    line = graph6_encode(g).decode("ascii") + "\n"
    back = list(read_graph_lines(line + line))
    assert len(back) == 2
    assert _same_graph(back[0], g) and _same_graph(back[1], g)
    text_s = sparse6_encode(g).decode("ascii") + "\n"
    assert _same_graph(next(iter(read_graph_lines(text_s))), g)


def test_parse_graph_line_dispatch():
    g = Graph.cycle(5)
    assert _same_graph(parse_graph_line(graph6_encode(g).decode()), g)
    assert _same_graph(parse_graph_line(sparse6_encode(g).decode()), g)


def test_read_graph_lines_skips_blank_lines():
    g = Graph.path(4)
    text = "\n" + graph6_encode(g).decode() + "\n\n"
    assert len(list(read_graph_lines(text))) == 1


def test_read_graph_lines_names_line_and_offset_once():
    with pytest.raises(FormatError) as info:
        list(read_graph_lines("!!!not-a-graph!!!\n"))
    text = str(info.value)
    assert text.startswith("line 1: ")
    assert text.count("byte offset") == 1
    assert info.value.offset == 0


# -- plane-graph JSON ------------------------------------------------------

def test_plane_json_round_trip():
    pg = embed(Graph.complete(4))
    back = load_plane_graph_json(pg.to_json())
    assert back.n == pg.n and back.m == pg.m
    assert back.canonical_plane_code() == pg.canonical_plane_code()


def test_plane_json_preserves_outer_face():
    pg = embed(Graph.cycle(6))
    back = load_plane_graph_json(pg.to_json())
    assert back.outer.vertices == pg.outer.vertices


# -- error paths -----------------------------------------------------------

@pytest.mark.parametrize(
    "junk",
    ["", "~~~~~", ":", "C", "\x01\x02", "C" + chr(200)],
)
def test_format_errors(junk):
    with pytest.raises(FormatError):
        parse_graph_line(junk)


@pytest.mark.parametrize(
    "field,message,offset",
    [
        ("~??", "truncated 18-bit size field", 1),
        ("~? ?", "invalid size byte 32", 2),
        ("~~?????", "truncated 36-bit size field", 2),
        ("~~???\x7f??", "invalid size byte 127", 5),
    ],
)
def test_long_size_field_errors(field, message, offset):
    # offsets count from the record start, so sparse6's ':' shifts them
    for decode, record, shift in (
        (graph6_decode, field, 0),
        (sparse6_decode, ":" + field, 1),
    ):
        with pytest.raises(FormatError) as info:
            decode(record.encode("latin-1"))
        assert info.value.message == message
        assert info.value.offset == offset + shift


def test_json_errors():
    with pytest.raises(FormatError):
        load_plane_graph_json("not json")
    with pytest.raises(FormatError):
        load_plane_graph_json("{}")


@pytest.mark.parametrize(
    "record",
    [
        {"n": True, "rotation": [[]], "outer_face": [0]},
        {"n": 3, "rotation": [[1, 2], [2, 0], [0, True]],
         "outer_face": [0, 1, 2]},
        {"n": 3, "rotation": [[1, 2], [2, 0], [0, 1]],
         "outer_face": [False, 1, 2]},
    ],
    ids=["n", "rotation", "outer_face"],
)
def test_json_rejects_booleans(record):
    # JSON true/false decode to bool, a subclass of int
    with pytest.raises(FormatError):
        load_plane_graph_json(json.dumps(record))
