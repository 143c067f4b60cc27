"""Graph serialisation: graph6, sparse6, and embedding JSON.

The graph6/sparse6 codecs are written from the formal format description
so that parse failures can report exact byte offsets; the test suite
cross-checks them against an independent implementation.  Embedding JSON
records a plane graph as ``{"n": ..., "rotation": [[...], ...],
"outer_face": [...]}`` where ``rotation[v]`` is the clockwise neighbour
order and ``outer_face`` is the boundary walk of the designated outer
face.
"""

from __future__ import annotations

import json
from typing import Iterator

from .embedding import Graph, PlaneGraph

__all__ = [
    "FormatError",
    "graph6_bytes_length",
    "graph6_decode",
    "graph6_encode",
    "load_plane_graph_json",
    "parse_graph_line",
    "read_graph_lines",
    "sparse6_decode",
    "sparse6_encode",
]

GRAPH6_HEADER = b">>graph6<<"
SPARSE6_HEADER = b">>sparse6<<"


class FormatError(ValueError):
    """Malformed serialised graph data.

    Attributes:
        message: The description without the offset.
        offset: Byte offset of the first offending byte within the record
            (after any header has been stripped), or ``None`` when the
            problem is a length mismatch.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.message = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


# =========================================================================
# Size field  N(n)
# =========================================================================


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        return bytes(
            [126, 126]
            + [((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)]
        )
    raise ValueError(f"vertex count {n} too large for graph6/sparse6")


def _ascii_bytes(data: str) -> bytes:
    """Encode record text as ASCII, mapping bad characters to FormatError."""
    try:
        return data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(
            f"non-ASCII character {data[exc.start]!r} in graph record",
            offset=exc.start,
        ) from exc


def _decode_size(data: bytes, start: int) -> tuple[int, int]:
    """Decode ``N(n)`` at ``start``; return ``(n, next_offset)``."""
    if start >= len(data):
        raise FormatError("truncated size field", offset=start)
    b0 = data[start]
    if not 63 <= b0 <= 126:
        raise FormatError(f"invalid size byte {b0}", offset=start)
    if b0 != 126:
        return b0 - 63, start + 1
    wide = start + 1 < len(data) and data[start + 1] == 126
    first, width = (start + 2, 6) if wide else (start + 1, 3)
    chunk = data[first : first + width]
    if len(chunk) != width:
        raise FormatError(f"truncated {6 * width}-bit size field", offset=first)
    n = 0
    for i, b in enumerate(chunk):
        if not 63 <= b <= 126:
            raise FormatError(f"invalid size byte {b}", offset=first + i)
        n = (n << 6) | (b - 63)
    return n, first + width


def graph6_bytes_length(n: int) -> int:
    """Length in bytes of the graph6 body (size field excluded)."""
    return (n * (n - 1) // 2 + 5) // 6


# =========================================================================
# graph6
# =========================================================================


def graph6_encode(g: Graph) -> bytes:
    """Encode a graph in graph6 (no header, no trailing newline)."""
    n = g.n
    out = bytearray(_encode_size(n))
    bits = 0
    nbits = 0
    adj = g.adj_bits
    for j in range(1, n):
        row = adj[j]
        for i in range(j):
            bits = (bits << 1) | ((row >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


def graph6_decode(data: bytes | str) -> Graph:
    """Decode a graph6 record (optionally with the ``>>graph6<<`` header).

    Raises:
        FormatError: With the byte offset of the first bad byte, on
            invalid characters, truncated or oversized data, or nonzero
            padding bits.
    """
    if isinstance(data, str):
        data = _ascii_bytes(data)
    data = data.rstrip(b"\r\n")
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER) :]
    if data.startswith(b":"):
        raise FormatError("sparse6 record passed to graph6 decoder", offset=0)
    n, pos = _decode_size(data, 0)
    body = data[pos:]
    expected = graph6_bytes_length(n)
    if len(body) != expected:
        raise FormatError(
            f"graph6 body for n={n} must be {expected} bytes, got {len(body)}",
            offset=None,
        )
    edges: list[tuple[int, int]] = []
    i, j = 0, 1
    nbits = n * (n - 1) // 2
    for k, b in enumerate(body):
        if not 63 <= b <= 126:
            raise FormatError(f"invalid graph6 byte {b}", offset=pos + k)
        group = b - 63
        for t in range(5, -1, -1):
            bit_index = k * 6 + (5 - t)
            bit = (group >> t) & 1
            if bit_index >= nbits:
                if bit:
                    raise FormatError(
                        "nonzero padding bit", offset=pos + k
                    )
                continue
            if bit:
                edges.append((i, j))
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph.from_edges(n, edges)


# =========================================================================
# sparse6
# =========================================================================


def _sparse6_k(n: int) -> int:
    """Bits needed to represent ``n - 1`` (at least 1)."""
    return max(1, (n - 1).bit_length())


def sparse6_encode(g: Graph) -> bytes:
    """Encode a graph in sparse6 (leading ``:``, no trailing newline)."""
    n = g.n
    k = _sparse6_k(n)
    bits: list[int] = []

    def emit(b: int, x: int) -> None:
        bits.append(b)
        for t in range(k - 1, -1, -1):
            bits.append((x >> t) & 1)

    v_cur = 0
    for u, v in sorted(g.edges, key=lambda e: (e[1], e[0])):
        if v == v_cur:
            emit(0, u)
        elif v == v_cur + 1:
            v_cur = v
            emit(1, u)
        else:
            v_cur = v
            emit(0, v)
            emit(0, u)
    pad = (6 - len(bits) % 6) % 6
    if (
        pad >= k + 1
        and k < 6
        and n == (1 << k)
        and v_cur == n - 2
    ):
        bits.append(0)
        pad -= 1
    bits.extend([1] * pad)
    out = bytearray(b":" + _encode_size(n))
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = (group << 1) | b
        out.append(group + 63)
    return bytes(out)


def sparse6_decode(data: bytes | str) -> Graph:
    """Decode a sparse6 record (optionally with the ``>>sparse6<<`` header).

    Raises:
        FormatError: With a byte offset, on records not starting with
            ``:`` or containing invalid bytes.
    """
    if isinstance(data, str):
        data = _ascii_bytes(data)
    data = data.rstrip(b"\r\n")
    if data.startswith(SPARSE6_HEADER):
        data = data[len(SPARSE6_HEADER) :]
    if not data.startswith(b":"):
        raise FormatError("sparse6 record must start with ':'", offset=0)
    n, pos = _decode_size(data, 1)
    bits: list[int] = []
    for i, b in enumerate(data[pos:]):
        if not 63 <= b <= 126:
            raise FormatError(f"invalid sparse6 byte {b}", offset=pos + i)
        group = b - 63
        bits.extend(((group >> t) & 1) for t in range(5, -1, -1))
    k = _sparse6_k(n)
    edges: list[tuple[int, int]] = []
    v = 0
    idx = 0
    while idx + k < len(bits):
        b = bits[idx]
        x = 0
        for t in range(k):
            x = (x << 1) | bits[idx + 1 + t]
        idx += k + 1
        if b:
            v += 1
        if v >= n:
            break
        if x > v:
            v = x
        elif x < v:
            edges.append((x, v))
        # x == v would be a loop: treated as padding noise and skipped.
    return Graph.from_edges(n, edges)


# =========================================================================
# Line-based helpers
# =========================================================================


def parse_graph_line(line: str | bytes) -> Graph:
    """Parse one graph6 or sparse6 record, auto-detected by prefix."""
    if isinstance(line, str):
        line = _ascii_bytes(line)
    stripped = line.strip()
    if stripped.startswith(SPARSE6_HEADER) or stripped.startswith(b":"):
        return sparse6_decode(stripped)
    return graph6_decode(stripped)


def read_graph_lines(text: str | bytes) -> Iterator[Graph]:
    """Iterate graphs from newline-separated graph6/sparse6 records.

    Blank lines are skipped.  Errors are re-raised with the 1-based line
    number prepended.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph_line(line)
        except FormatError as exc:
            raise FormatError(
                f"line {lineno}: {exc.message}", offset=exc.offset
            ) from exc


# =========================================================================
# Embedding JSON
# =========================================================================


def _is_int(x: object) -> bool:
    """A JSON integer; ``true`` and ``false`` decode to ``bool``, an
    ``int`` subclass, and are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_plane_graph_json(text: str) -> PlaneGraph:
    """Load a plane graph from embedding JSON.

    The record must contain ``n``, ``rotation`` (clockwise neighbour
    lists) and ``outer_face`` (a boundary walk of one face).  The data is
    fully revalidated: the rotation must be a plane embedding of a
    connected graph and ``outer_face`` must be one of its faces.

    Raises:
        FormatError: On malformed JSON or missing/ill-typed fields.
        ValueError: If the rotation system fails validation.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(obj, dict):
        raise FormatError("embedding JSON must be an object")
    try:
        n = obj["n"]
        rotation = obj["rotation"]
        outer = obj["outer_face"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from exc
    if not _is_int(n) or n < 1:
        raise FormatError("field 'n' must be a positive integer")
    if (
        not isinstance(rotation, list)
        or len(rotation) != n
        or not all(
            isinstance(r, list) and all(_is_int(x) for x in r)
            for r in rotation
        )
    ):
        raise FormatError("field 'rotation' must be a list of n integer lists")
    if not isinstance(outer, list) or not all(_is_int(x) for x in outer):
        raise FormatError("field 'outer_face' must be an integer list")
    edges = [
        (v, u) for v in range(n) for u in rotation[v] if v < u
    ]
    mirrored = {
        (min(v, u), max(v, u))
        for v in range(n)
        for u in rotation[v]
    }
    if set(edges) != mirrored:
        raise FormatError("rotation lists are not symmetric")
    graph = Graph.from_edges(n, edges)
    return PlaneGraph.build(graph, rotation, outer)
