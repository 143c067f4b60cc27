"""Shared fixtures, hypothesis strategies, and the acceptance reporter."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ptl.embedding import Graph, PlaneGraph

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    """Arbitrary simple graphs with ``min_n <= n <= max_n``."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph.from_edges(n, [])
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(n, edges)


@st.composite
def permutations_of(draw, n: int):
    return draw(st.permutations(range(n)))


def mirrored(pg: PlaneGraph) -> PlaneGraph:
    """The reflected embedding: every rotation reversed, and as outer face
    the mirror of ``pg``'s, which is walked the other way round."""
    rotation = [tuple(reversed(r)) for r in pg.rotation]
    outer = tuple(reversed(pg.outer.walk))
    return PlaneGraph.build(pg.graph, rotation, outer)


# ---------------------------------------------------------------------------
# Acceptance criterion reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def criterion_reporter():
    """Record exactly one PASS/FAIL line per acceptance criterion.

    The recorded lines are echoed in the terminal summary so the verdict
    of every criterion is visible in a plain ``pytest -v`` run.
    """

    def report(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"{status} criterion {number}: {detail}"
        _ACCEPTANCE_LINES.append((number, line))
        print(line, flush=True)

    return report


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
