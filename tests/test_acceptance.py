"""Acceptance gate: one test and one PASS/FAIL line per criterion.

Every numbered criterion runs at its stated tolerance.  Census reports
produced for criterion 2 are cached and reused by the determinism rerun
in criterion 7, which compares byte-identical JSON modulo timing fields;
the oracle's reports come from one pass per pattern.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from plane_reference import plane_embeddings
from ptl import families, search
from ptl.embedding import PlaneGraph
from ptl.patterns import is_free

PATTERNS = ("C3", "Theta4", "H4", "H5", "H6")

_CENSUS_CACHE: dict[tuple[str, int, int], search.TBCatalogReport] = {}


def _census(pattern: str, max_order: int, workers: int = 1):
    key = (pattern, max_order, workers)
    if key not in _CENSUS_CACHE:
        _CENSUS_CACHE[key] = search.enumerate_solid_tbs(
            max_order, pattern, workers=workers
        )
    return _CENSUS_CACHE[key]


# -- criterion 1 ---------------------------------------------------------------

_TABLE_1 = {
    "B1": Fraction(1, 3), "B2": Fraction(3, 4), "B3": Fraction(4, 5),
    "B4": Fraction(4, 5), "B5": Fraction(1), "B6": Fraction(2, 3),
    "B7": Fraction(5, 6), "B8": Fraction(1), "B9": Fraction(7, 6),
    "B10": Fraction(6, 7), "B11(4)": Fraction(1, 2),
    "B12(5)": Fraction(3, 5), "B13(7)": Fraction(6, 7),
    "B14(8)": Fraction(7, 8), "B15(8)": Fraction(1),
}
_TABLE_2 = {
    "B1p": Fraction(5, 6), "B2p": Fraction(1), "B3p": Fraction(6, 7),
    "W(6)": Fraction(5, 6), "F(6)": Fraction(2, 3),
}
_PARAMETRIC_FORMULAS = {
    "B11(4)": "(n-2)/n", "B12(5)": "(n-2)/n", "B13(7)": "(n-1)/n",
    "B14(8)": "(n-1)/n", "B15(8)": "1", "W(6)": "(n-1)/n",
    "F(6)": "(n-2)/n",
}


def test_criterion_1_density_tables(criterion_reporter):
    start = time.monotonic()
    problems = []
    rows = {r.name: r for r in families.density_table_rows("all")}
    expected = {**_TABLE_1, **_TABLE_2}
    if set(rows) != set(expected):
        problems.append(f"row set mismatch: {sorted(set(rows) ^ set(expected))}")
    for name, density in expected.items():
        row = rows.get(name)
        if row is None:
            continue
        if row.density != density:
            problems.append(f"{name}: {row.density} != {density}")
        if row.density != Fraction(row.delta, row.order):
            problems.append(f"{name}: density is not delta/order")
        want_formula = _PARAMETRIC_FORMULAS.get(name, "")
        if row.formula != want_formula:
            problems.append(f"{name}: formula {row.formula!r}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (limit 1s)")
    ok = not problems
    criterion_reporter(
        1,
        ok,
        f"density tables, {len(expected)} rows exact as rationals in "
        f"{elapsed * 1000:.0f} ms"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_catalog_completeness(criterion_reporter):
    start = time.monotonic()
    h4 = _census("H4", 8)
    h5 = _census("H5", 9)
    elapsed = time.monotonic() - start
    problems = []
    if not h4.diff_is_empty:
        problems.append(
            f"H4<=8 diff not empty: missing="
            f"{ {k: v for k, v in h4.missing.items() if v} } unexpected="
            f"{ {k: v for k, v in h4.unexpected.items() if v} }"
        )
    if not h5.diff_is_empty:
        problems.append(
            f"H5<=9 diff not empty: missing="
            f"{ {k: v for k, v in h5.missing.items() if v} } unexpected="
            f"{ {k: v for k, v in h5.unexpected.items() if v} } "
            "(the order-7 list holds B4p beyond the paper's; see "
            "ptl.families._draw_b4p)"
        )
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s (limit 600s)")
    ok = not problems
    criterion_reporter(
        2,
        ok,
        f"catalog completeness H4<=8 and H5<=9 in {elapsed:.1f}s"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_3_exact_oracle(criterion_reporter):
    start = time.monotonic()
    problems = []

    # every (n <= 7, pattern) run terminates
    reports = {
        (report.n, pattern): report
        for pattern in PATTERNS
        for report in search.exact_planar_turan_orders(7, pattern)
    }
    values = {key: report.ex for key, report in reports.items()}

    # (a) agreement with the naive all-labelings oracle at n <= 5
    for pattern in PATTERNS:
        for n in range(1, 6):
            naive_ex, naive_forms = search.naive_planar_turan(n, pattern)
            report = reports[(n, pattern)]
            if report.ex != naive_ex:
                problems.append(
                    f"(a) {pattern} n={n}: oracle {report.ex} != naive {naive_ex}"
                )
            elif not set(report.witnesses) <= {
                form.decode("ascii") for form in naive_forms
            }:
                problems.append(
                    f"(a) {pattern} n={n}: witnesses are not maximisers"
                )

    # (b) the C3 line, derived independently of the catalog machinery
    for n in (5, 6, 7):
        if values[(n, "C3")] != 2 * n - 4:
            problems.append(
                f"(b) ex_P({n}, C3) = {values[(n, 'C3')]} != {2 * n - 4}"
            )

    # (c) every family generator at matching order stays <= the oracle
    instances = [
        ("k2_plus_matching", families.k2_plus_matching(6), 6),
        ("k2_vee_matching", families.k2_vee_matching(7), 7),
        ("apex_outerplanar", families.apex_outerplanar(7), 7),
    ]
    for name, instance, n in instances:
        for pattern in ("H5", "H6"):
            if instance.plane.m > values[(n, pattern)]:
                problems.append(
                    f"(c) {name}({n}) has {instance.plane.m} edges > "
                    f"ex_P({n}, {pattern}) = {values[(n, pattern)]}"
                )

    elapsed = time.monotonic() - start
    ok = not problems
    ex7 = {p: values[(7, p)] for p in PATTERNS}
    criterion_reporter(
        3,
        ok,
        f"exact oracle n<=7 x {len(PATTERNS)} patterns in {elapsed:.1f}s; "
        f"ex_P(7, .) = {ex7}; naive agreement at n<=5; C3 line; "
        "constructions <= oracle"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_4_construction_suite(criterion_reporter):
    start = time.monotonic()
    problems = []

    for n in range(6, 31, 2):
        inst = families.k2_plus_matching(n)
        if inst.plane.m != (5 * n) // 2 - 4:
            problems.append(f"k2_plus_matching({n}): {inst.plane.m} edges")

    for n in range(7, 32, 2):
        for builder in (families.k2_vee_matching, families.apex_outerplanar):
            inst = builder(n)
            if inst.plane.m != (5 * n) // 2 - 4:
                problems.append(f"{builder.__name__}({n}): {inst.plane.m} edges")

    for k in range(3, 21):
        inst = families.wheel_ring(k)
        if (inst.plane.n, inst.plane.m) != (5 * k + 2, 13 * k):
            problems.append(
                f"wheel_ring({k}): ({inst.plane.n}, {inst.plane.m})"
            )

    equality_cases = 0
    for x in (2, 3):
        for y in range(5):
            inst = families.b5_ring_augmented(x, y)
            n = 10 * x + 6 * y
            if (inst.plane.n, inst.plane.m) != (n, (5 * n) // 2 - 4):
                problems.append(
                    f"b5_ring_augmented({x}, {y}): "
                    f"({inst.plane.n}, {inst.plane.m})"
                )
                continue
            report = families.verify_h5_extremal(inst.plane)
            if not report.ok:
                problems.append(
                    f"b5_ring_augmented({x}, {y}): {report.failures}"
                )
            else:
                equality_cases += 1

    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"took {elapsed:.0f}s (limit 120s)")
    ok = not problems
    criterion_reporter(
        4,
        ok,
        f"construction suite (13 even + 26 odd + 18 wheel-ring + "
        f"{equality_cases} extremal) in {elapsed:.1f}s"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_lemma_property_suites(criterion_reporter):
    start = time.monotonic()
    problems = []

    h4_violations = search.scan_h4_component_density()
    if h4_violations:
        problems.append(
            f"(a) {len(h4_violations)} density violations: {h4_violations[:3]}"
        )

    h5_violations, equality_hits = search.scan_h5_component_density()
    if h5_violations:
        problems.append(
            f"(b) {len(h5_violations)} violations: {h5_violations[:3]}"
        )
    if equality_hits == 0:
        problems.append("(b) equality case never exercised")

    theta_violations = search.scan_theta_pairs()
    if theta_violations:
        problems.append(
            f"(c) {len(theta_violations)} violations: {theta_violations[:3]}"
        )

    elapsed = time.monotonic() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s (limit 600s)")
    ok = not problems
    criterion_reporter(
        5,
        ok,
        "lemma suites: (a) H4 component density at n=7, (b) H5 density <= 1 "
        f"with {equality_hits} equality components all B5/B2p at n<=6, "
        f"(c) theta-pair laws at n<=7 -- zero violations in {elapsed:.1f}s"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 6 ---------------------------------------------------------------

def _identity_corpora():
    catalog: list[PlaneGraph] = []
    for row in families.density_table_rows("all"):
        base = row.name.partition("(")[0]
        catalog.append(families.catalog_block(base, row.order).plane)
    yield "catalog blocks", catalog

    constructions = [
        families.k2_plus_matching(n).plane for n in range(6, 31, 2)
    ]
    constructions += [
        builder(n).plane
        for n in range(7, 32, 2)
        for builder in (families.k2_vee_matching, families.apex_outerplanar)
    ]
    constructions += [families.wheel_ring(k).plane for k in range(3, 21)]
    constructions += [
        families.b5_ring_augmented(x, y).plane
        for x in (2, 3)
        for y in range(5)
    ]
    yield "construction suite", constructions

    for pattern in PATTERNS:
        exhaustive: list[PlaneGraph] = []
        for n in range(3, 7):
            for g in search.enumerate_graphs(n, connected=True, planar=True):
                if is_free(g, pattern):
                    for pg in plane_embeddings(g):
                        exhaustive.extend(search.outer_variants(pg))
        yield f"{pattern}-free corpus n<=6", exhaustive

    yield "random planar", search.random_plane_corpus(
        10_000, max_n=12, seed=0
    )


def test_criterion_6_counting_identity(criterion_reporter):
    start = time.monotonic()
    problems = []
    totals = {}
    for label, corpus in _identity_corpora():
        planes = list(corpus)
        violations = search.verify_counting_identity(planes)
        totals[label] = len(planes)
        if violations:
            problems.append(
                f"{label}: {len(violations)} violations: {violations[:3]}"
            )
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.0f}s (limit 60s)")
    ok = not problems
    checked = sum(totals.values())
    criterion_reporter(
        6,
        ok,
        f"3f3 = |E'| + 2|E_I| on {checked} plane graphs across "
        f"{len(totals)} corpora (incl. 10^4 random, n<=12) in {elapsed:.1f}s"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_7_determinism(criterion_reporter):
    start = time.monotonic()
    problems = []
    worker_counts = (1, 4, 8)

    for pattern, max_order in (("H4", 8), ("H5", 9)):
        reports = [
            _census(pattern, max_order, workers=w).comparable_json()
            for w in worker_counts
        ]
        if len(set(reports)) != 1:
            problems.append(f"census {pattern}<={max_order} differs by workers")

    # a pass grows only its last order at its worker count, so each order
    # is solved at each count by its own call, against one serial pass
    for pattern in PATTERNS:
        for report in search.exact_planar_turan_orders(7, pattern):
            n = report.n
            reports = [report.comparable_json()] + [
                search.exact_planar_turan(n, pattern, workers=w).comparable_json()
                for w in worker_counts[1:]
            ]
            if len(set(reports)) != 1:
                problems.append(f"oracle ({n}, {pattern}) differs by workers")

    elapsed = time.monotonic() - start
    ok = not problems
    criterion_reporter(
        7,
        ok,
        f"criteria 2-3 reruns at workers {worker_counts} byte-identical "
        f"modulo timing ({2 * len(worker_counts)} census + "
        f"{len(PATTERNS) * 7 * len(worker_counts)} oracle reports) "
        f"in {elapsed:.1f}s"
        + ("" if ok else f" -- {'; '.join(problems)}"),
    )
    assert ok, problems
