"""Command-line surface tying the library together.

One binary, subcommand style::

    ptl family gen --name wheel_ring --param k=3 --out artifacts/
    ptl check free --pattern H6 --in graphs.g6
    ptl decompose --in drawing.json
    ptl density table --set H4
    ptl turan exact --n 4 --pattern Theta4
    ptl tb enumerate --pattern H4 --max 8
    ptl verify thm2

All numeric output is exact -- rationals are printed ``p/q``; no floating
point appears in any report.  Configuration precedence is flags, then the
environment (``PTL_CEILING``, ``PTL_WORKERS``), then defaults; a variable
applies only to commands that take its flag.  The exit code is 0 exactly
when every requested check passed; usage and input errors exit 2.

Each leaf subcommand's parser names its handler (``run``).  :func:`main`
resolves the ceiling, the worker count, the pattern and the family
parameters on argparse's namespace and hands the namespace to the
handler, which calls the library directly.  Library errors are
``ValueError`` subclasses; :func:`main` prints them like usage errors.

Pattern arguments accept the pattern grammar plus a CLI convenience: a
``+`` joins disjoint-union parts, so ``C3+Theta4`` means ``C3|Theta4``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import families, search
from .decomposition import decompose, e_i_analysis
from .embedding import Graph, NonPlanarError, PlaneGraph, embed
from .families import FamilyError
from .io import graph6_encode, load_plane_graph_json, read_graph_lines
from .patterns import build_pattern, contains_subgraph, is_free

__all__ = ["main"]


class CliError(Exception):
    """Invalid invocation or unusable input; exits with status 2."""


# =========================================================================
# Option and input plumbing
# =========================================================================


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"environment {name}={raw!r} is not an integer") from exc


def _resolve_ceiling(flag: int | None) -> int | None:
    ceiling = flag if flag is not None else _env_int("PTL_CEILING")
    if ceiling is not None and ceiling < 3:
        raise CliError(f"ceiling must be at least 3, got {ceiling}")
    return ceiling


def _resolve_workers(flag: int | None) -> int:
    workers = flag if flag is not None else _env_int("PTL_WORKERS")
    if workers is None:
        workers = 1
    if workers < 1:
        raise CliError(f"worker count must be at least 1, got {workers}")
    return workers


def _parse_params(raw: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in raw:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CliError(f"--param expects name=value, got {item!r}")
        if name in out:
            raise CliError(f"--param {name} is given more than once")
        try:
            out[name] = int(value)
        except ValueError as exc:
            raise CliError(
                f"--param {name} expects an integer, got {value!r}"
            ) from exc
    return dict(sorted(out.items()))


def _pattern_file_tag(name: str) -> str:
    """Pattern name as a filesystem-safe tag."""
    return name.replace("|", "+")


def _read_graphs(path: Path) -> list[Graph | PlaneGraph]:
    """The graphs of a ``.g6``/``.s6`` line file, or the plane graph of an
    embedding JSON; at least one."""
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        if path.suffix == ".json":
            graphs: list[Graph | PlaneGraph] = [load_plane_graph_json(text)]
        else:
            graphs = list(read_graph_lines(text))
    except ValueError as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc
    if not graphs:
        raise CliError(f"no graphs in {path}")
    return graphs


def _load_plane_graphs(path: Path) -> list[PlaneGraph]:
    """Plane graphs from an embedding JSON or an abstract-graph file.

    Abstract graphs are embedded with the deterministic embedder; they
    must be connected and planar.
    """
    out = []
    for idx, g in enumerate(_read_graphs(path)):
        if isinstance(g, PlaneGraph):
            out.append(g)
            continue
        try:
            out.append(embed(g))
        except NonPlanarError as exc:
            raise CliError(f"graph {idx} in {path} is not planar: {exc}") from exc
        except ValueError as exc:
            raise CliError(f"graph {idx} in {path}: {exc}") from exc
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# =========================================================================
# family gen
# =========================================================================


def cmd_family(args: argparse.Namespace) -> int:
    params = args.param
    instance = families.family_instance(args.name, **params)
    stem = args.name
    if params:
        stem += "_" + "_".join(f"{k}{v}" for k, v in params.items())
    out_dir = args.out if args.out is not None else Path(".")
    g6_path = out_dir / f"{stem}.g6"
    json_path = out_dir / f"{stem}.json"
    _write_text(
        g6_path, graph6_encode(instance.plane.graph).decode("ascii") + "\n"
    )
    _write_text(json_path, instance.plane.to_json() + "\n")

    checks = [
        ("order", str(instance.expected_order), str(instance.plane.n)),
        ("size", str(instance.expected_size), str(instance.plane.m)),
    ]
    if instance.freeness is not None:
        free = "yes" if is_free(instance.plane.graph, instance.freeness) else "no"
        checks.append((f"{instance.freeness}-free", "yes", free))
    width = max(len(c[0]) for c in checks)
    print(f"{args.name}({params}):")
    for name, expected, actual in checks:
        verdict = "pass" if expected == actual else "fail"
        print(f"  {name:<{width}}  expected={expected}  actual={actual}  {verdict}")
    print(f"wrote {g6_path}")
    print(f"wrote {json_path}")
    return 0 if all(expected == actual for _, expected, actual in checks) else 1


# =========================================================================
# check free
# =========================================================================


def cmd_check(args: argparse.Namespace) -> int:
    all_free = True
    for g in _read_graphs(args.input_path):
        if isinstance(g, PlaneGraph):
            g = g.graph
        witness = contains_subgraph(g, args.pattern)
        if witness is None:
            print("free")
        else:
            all_free = False
            mapping = " ".join(
                f"{p}->{h}" for p, h in sorted(witness.items())
            )
            print(f"contains {args.pattern.name}: {mapping}")
    return 0 if all_free else 1


# =========================================================================
# decompose
# =========================================================================


def cmd_decompose(args: argparse.Namespace) -> int:
    ok = True
    for idx, pg in enumerate(_load_plane_graphs(args.input_path)):
        dec = decompose(pg)
        # holes and solidity of each block as drawn; both lists are sorted
        # by vertex set, which solidifying keeps, so they line up
        drawn = decompose(pg, solid=False).blocks
        print(f"graph {idx}: n={pg.n} m={pg.m} faces={len(pg.faces())}")
        print(f"  blocks: {len(dec.blocks)}")
        for b_idx, (block, raw) in enumerate(zip(dec.blocks, drawn)):
            solid = "yes" if raw.is_solid else "no"
            print(
                f"    [{b_idx}] order={len(block.vertices)} "
                f"delta={block.delta} density={block.density} "
                f"holes={len(raw.holes)} solid={solid} "
                f"vertices={tuple(sorted(block.vertices))}"
            )
        print(f"  components: {len(dec.components)}")
        for c_idx, comp in enumerate(dec.components):
            print(
                f"    [{c_idx}] blocks={len(comp.blocks)} "
                f"order={len(comp.vertices)} delta={comp.delta} "
                f"density={comp.density}"
            )
        print(f"  junctions: {tuple(sorted(dec.junctions))}")
        report = e_i_analysis(pg)
        verdict = "ok" if report.identity_holds else "VIOLATED"
        print(
            f"  identity 3*f3 == |E'| + 2*|E_I|: "
            f"3*{report.f3} == {len(report.e_prime)} + "
            f"2*{len(report.e_i)}  {verdict}"
        )
        ok = ok and report.identity_holds
    return 0 if ok else 1


# =========================================================================
# density table
# =========================================================================


def cmd_density(args: argparse.Namespace) -> int:
    rows = families.density_table_rows(args.table_set)
    lines = ["table,name,order,delta,density,formula"]
    lines += [
        f"{r.table},{r.name},{r.order},{r.delta},{r.density},{r.formula}"
        for r in rows
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


# =========================================================================
# turan exact
# =========================================================================


def _config_hash(pattern_name: str, ceiling: int) -> str:
    payload = json.dumps(
        {"ceiling": ceiling, "pattern": pattern_name}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


def _append_jsonl(path: Path, record: dict) -> bool:
    """Append one record unless its (n, pattern, config) key is already
    present; returns False in that case.

    An exclusive ``flock`` on the results file is held across the
    duplicate check and the append, so concurrent runs sharing one file
    record each key once.  Lines that are not JSON objects are kept and
    skipped by the check.
    """
    key = (record["n"], record["pattern"], record["config"])
    payload = (json.dumps(record, sort_keys=True) + "\n").encode("ascii")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.seek(0)
            for line in fh.read().decode("utf-8", "replace").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    old = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(old, dict):
                    continue
                if (old.get("n"), old.get("pattern"), old.get("config")) == key:
                    return False
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot append to {path}: {exc}") from exc
    return True


def cmd_turan(args: argparse.Namespace) -> int:
    n, pattern, ceiling = args.n, args.pattern, args.ceiling
    report = search.exact_planar_turan(
        n, pattern, workers=args.workers, ceiling=ceiling
    )
    effective_ceiling = (
        ceiling if ceiling is not None else search.ORACLE_DEFAULT_CEILING
    )
    record = report.jsonl_record()
    record["config"] = _config_hash(pattern.name, effective_ceiling)

    out = args.out if args.out is not None else Path("results.jsonl")
    appended = _append_jsonl(out, record)

    tag = _pattern_file_tag(pattern.name)
    witness_dir = (
        args.witness_dir
        if args.witness_dir is not None
        else out.parent / f"{out.stem}_witnesses"
    )
    for i, g6 in enumerate(report.witnesses):
        _write_text(witness_dir / f"{tag}_n{n}_{i}.g6", g6 + "\n")

    print(json.dumps(record, sort_keys=True))
    bound_note = ""
    if report.bound_value is not None:
        applies = "holds for" if report.bound_in_range else "outside range of"
        bound_note = (
            f"; {report.bound_name} bound {report.bound_value} "
            f"({applies} n={n})"
        )
    print(
        f"ex_P({n}, {pattern.name}) = {report.ex}; "
        f"witnesses: {len(report.witnesses)}; "
        f"enumerated: {report.enumerated}{bound_note}"
    )
    print(
        f"{'appended to' if appended else 'already recorded in'} {out}; "
        f"witnesses in {witness_dir}"
    )
    return 0


# =========================================================================
# tb enumerate
# =========================================================================


def cmd_tb(args: argparse.Namespace) -> int:
    report = search.enumerate_solid_tbs(
        args.max_order, args.pattern, workers=args.workers, ceiling=args.ceiling
    )
    for order in sorted(report.found):
        found = report.found[order]
        expected = report.expected.get(order, {})
        line = (
            f"order {order}: found {len(found)}, expected {len(expected)}"
        )
        missing = report.missing.get(order, ())
        unexpected = report.unexpected.get(order, ())
        if missing:
            line += f"; missing: {', '.join(missing)}"
        if unexpected:
            line += f"; unexpected forms: {', '.join(unexpected)}"
        print(line)
    verdict = "empty" if report.diff_is_empty else "NOT EMPTY"
    print(f"catalog diff: {verdict} ({report.elapsed_ms} ms)")
    if args.out is not None:
        _write_text(
            args.out, json.dumps(report.to_record(), sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.diff_is_empty else 1


# =========================================================================
# verify bundles
# =========================================================================

#: Expected density-table rows: display name -> exact density.
_EXPECTED_H4_DENSITIES = {
    "B1": Fraction(1, 3), "B2": Fraction(3, 4), "B3": Fraction(4, 5),
    "B4": Fraction(4, 5), "B5": Fraction(1), "B6": Fraction(2, 3),
    "B7": Fraction(5, 6), "B8": Fraction(1), "B9": Fraction(7, 6),
    "B10": Fraction(6, 7), "B11(4)": Fraction(1, 2),
    "B12(5)": Fraction(3, 5), "B13(7)": Fraction(6, 7),
    "B14(8)": Fraction(7, 8), "B15(8)": Fraction(1),
}

_EXPECTED_H5_DENSITIES = {
    "B1p": Fraction(5, 6), "B2p": Fraction(1), "B3p": Fraction(6, 7),
    "W(6)": Fraction(5, 6), "F(6)": Fraction(2, 3),
}


class CheckFailure(Exception):
    """A verify-bundle check failed; the message is the detail line."""


def _check_density_rows(which: str, expected: dict[str, Fraction]) -> str:
    rows = {r.name: r.density for r in families.density_table_rows(which)}
    if set(rows) != set(expected):
        raise CheckFailure(
            f"row names {sorted(rows)} != expected {sorted(expected)}"
        )
    bad = {
        name: (str(rows[name]), str(expected[name]))
        for name in expected
        if rows[name] != expected[name]
    }
    if bad:
        raise CheckFailure(f"wrong densities: {bad}")
    return f"{len(rows)} rows exact"


def _check_tb_catalog(pattern: str, workers: int) -> str:
    report = search.enumerate_solid_tbs(
        search.TB_DEFAULT_CEILING, pattern, workers=workers
    )
    if not report.diff_is_empty:
        raise CheckFailure(
            f"missing={ {k: v for k, v in report.missing.items() if v} } "
            f"unexpected={ {k: v for k, v in report.unexpected.items() if v} }"
        )
    counts = {k: len(v) for k, v in sorted(report.found.items())}
    return f"orders {counts} all match"


def _check_naive_agreement(pattern: str, workers: int) -> str:
    values = []
    for report in search.exact_planar_turan_orders(5, pattern, workers=workers):
        n = report.n
        naive_ex, naive_forms = search.naive_planar_turan(n, pattern)
        if report.ex != naive_ex:
            raise CheckFailure(
                f"n={n}: oracle {report.ex} != naive {naive_ex}"
            )
        maximisers = {form.decode("ascii") for form in naive_forms}
        if not set(report.witnesses) <= maximisers:
            raise CheckFailure(f"n={n}: oracle witnesses not maximisers")
        values.append(report.ex)
    return f"ex values n=1..5: {values}"


def _oracle_to_10(pattern: str, workers: int) -> Iterator[search.SearchReport]:
    """The oracle's reports of orders 1..10, from one pass."""
    return search.exact_planar_turan_orders(10, pattern, workers=workers)


def _check_c3_line(workers: int) -> str:
    for report in _oracle_to_10("C3", workers):
        n, got = report.n, report.ex
        if n >= 5 and got != 2 * n - 4:
            raise CheckFailure(f"ex_P({n}, C3) = {got}, expected {2 * n - 4}")
    return "ex_P(n, C3) = 2n-4 for n in 5..10"


def _check_wheel_ring_suite() -> str:
    for k in range(3, 21):
        instance = families.wheel_ring(k)  # self-verifies
        n = instance.plane.n
        if n != 5 * k + 2 or instance.plane.m != 13 * k:
            raise CheckFailure(
                f"k={k}: got ({n}, {instance.plane.m}), "
                f"expected ({5 * k + 2}, {13 * k})"
            )
        value = families.bound(n, "thm1")
        if value.in_range and value.value != instance.plane.m:
            raise CheckFailure(
                f"k={k}: bound {value.value} != size {instance.plane.m}"
            )
    return "k in 3..20: order 5k+2, size 13k, H4-free; meets bound in range"


def _check_h4_density_law() -> str:
    violations = search.scan_h4_component_density()
    if violations:
        raise CheckFailure(f"{len(violations)} violations: {violations[:3]}")
    return "order-7 corpus: no component above (6|D|-12)/(5|D|)"


def _check_counting_identity() -> str:
    planes: list[PlaneGraph] = []
    for row in families.density_table_rows("all"):
        base = row.name.partition("(")[0]
        planes.append(families.catalog_block(base, row.order).plane)
    for k in (3, 5):
        planes.append(families.wheel_ring(k).plane)
    planes.extend(search.random_plane_corpus(1000, max_n=12, seed=0))
    violations = search.verify_counting_identity(planes)
    if violations:
        raise CheckFailure(f"{len(violations)} violations: {violations[:3]}")
    return f"3*f3 == |E'| + 2*|E_I| on {len(planes)} plane graphs"


def _check_thm2_small_bound(workers: int) -> str:
    notes = []
    for report in _oracle_to_10("H5", workers):
        if report.n < 6:
            continue
        n, got, limit = report.n, report.ex, report.bound_value
        if not report.bound_in_range or got > limit:
            raise CheckFailure(f"n={n}: ex {got} exceeds bound {limit}")
        notes.append(f"ex_P({n}, H5) = {got} <= {limit}")
    return "; ".join(notes)


def _check_b5_ring_suite() -> str:
    for x in (2, 3):
        for y in range(5):
            instance = families.b5_ring_augmented(x, y)  # self-verifies
            n = 10 * x + 6 * y
            want = (5 * n) // 2 - 4
            if instance.plane.n != n or instance.plane.m != want:
                raise CheckFailure(
                    f"(x={x}, y={y}): got ({instance.plane.n}, "
                    f"{instance.plane.m}), expected ({n}, {want})"
                )
            report = families.verify_h5_extremal(instance.plane)
            if not report.ok:
                raise CheckFailure(
                    f"(x={x}, y={y}): structure check failed: "
                    f"{report.failures}"
                )
    return "x in {2,3}, y in 0..4: order 10x+6y, size floor(5n/2)-4, extremal structure"


def _check_h5_density_law() -> str:
    violations, hits = search.scan_h5_component_density()
    if violations:
        raise CheckFailure(f"{len(violations)} violations: {violations[:3]}")
    if hits == 0:
        raise CheckFailure("no density-1 component seen; law held vacuously")
    return f"orders 3..6: density <= 1 everywhere; {hits} density-1 components, all B5/B2p"


def _check_even_constructions() -> str:
    for n in range(6, 31, 2):
        instance = families.k2_plus_matching(n)  # self-verifies
        want = (5 * n) // 2 - 4
        if instance.plane.m != want:
            raise CheckFailure(
                f"k2_plus_matching({n}): size {instance.plane.m} != {want}"
            )
    return "k2_plus_matching, even n in 6..30: size floor(5n/2)-4, C3|Theta4-free"


def _check_odd_constructions() -> str:
    for n in range(7, 32, 2):
        for builder in (families.k2_vee_matching, families.apex_outerplanar):
            instance = builder(n)  # self-verifies
            want = (5 * n) // 2 - 4
            if instance.plane.m != want:
                raise CheckFailure(
                    f"{builder.__name__}({n}): size "
                    f"{instance.plane.m} != {want}"
                )
    return "k2_vee_matching + apex_outerplanar, odd n in 7..31: size floor(5n/2)-4"


def _check_family_le_oracle(workers: int) -> str:
    notes = []
    for report in _oracle_to_10("H6", workers):
        n, ex = report.n, report.ex
        if n < 6:
            continue
        odd = (families.k2_vee_matching, families.apex_outerplanar)
        builders = odd if n % 2 else (families.k2_plus_matching,)
        sizes = [builder(n).plane.m for builder in builders]
        if max(sizes) > ex:
            raise CheckFailure(
                f"n={n}: construction size {max(sizes)} exceeds oracle {ex}"
            )
        notes.append(f"n={n}: max construction {max(sizes)} <= ex {ex}")
    return "; ".join(notes)


def _check_theta_pair_law() -> str:
    violations = search.scan_theta_pairs()
    if violations:
        raise CheckFailure(f"{len(violations)} violations: {violations[:3]}")
    return "orders <= 7: independent pairs share >= 2; detached pairs classify D1/D2/D3"


def _bundle(theorem: str, workers: int) -> list[tuple[str, Callable[[], str]]]:
    """The named checks of ``thm1``, ``thm2`` or ``thm3``."""
    if theorem == "thm1":
        return [
            ("density-table-H4",
             lambda: _check_density_rows("H4", _EXPECTED_H4_DENSITIES)),
            ("tb-catalog-H4", lambda: _check_tb_catalog("H4", workers)),
            ("naive-agreement-C3",
             lambda: _check_naive_agreement("C3", workers)),
            ("naive-agreement-Theta4",
             lambda: _check_naive_agreement("Theta4", workers)),
            ("naive-agreement-H4",
             lambda: _check_naive_agreement("H4", workers)),
            ("c3-exact-line", lambda: _check_c3_line(workers)),
            ("wheel-ring-suite", _check_wheel_ring_suite),
            ("h4-density-law", _check_h4_density_law),
            ("counting-identity", _check_counting_identity),
        ]
    if theorem == "thm2":
        return [
            ("density-table-H5",
             lambda: _check_density_rows("H5", _EXPECTED_H5_DENSITIES)),
            ("tb-catalog-H5", lambda: _check_tb_catalog("H5", workers)),
            ("naive-agreement-H5",
             lambda: _check_naive_agreement("H5", workers)),
            ("small-n-bound", lambda: _check_thm2_small_bound(workers)),
            ("b5-ring-suite", _check_b5_ring_suite),
            ("h5-density-law", _check_h5_density_law),
        ]
    return [
        ("even-constructions", _check_even_constructions),
        ("odd-constructions", _check_odd_constructions),
        ("naive-agreement-H6", lambda: _check_naive_agreement("H6", workers)),
        ("family-le-oracle", lambda: _check_family_le_oracle(workers)),
        ("theta-pair-law", _check_theta_pair_law),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _bundle(args.theorem, args.workers)
    failures = 0
    for name, fn in checks:
        start = time.monotonic()
        try:
            detail = fn()
            status = "PASS"
        except CheckFailure as exc:
            detail = str(exc)
            status = "FAIL"
            failures += 1
        except FamilyError as exc:
            detail = f"construction self-check failed: {exc}"
            status = "FAIL"
            failures += 1
        elapsed = int((time.monotonic() - start) * 1000)
        print(f"{status} {name}: {detail} ({elapsed} ms)")
    total = len(checks)
    print(
        f"{args.theorem}: {total - failures}/{total} checks passed"
        + ("" if failures == 0 else f", {failures} FAILED")
    )
    return 0 if failures == 0 else 1


# =========================================================================
# Argument parsing
# =========================================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptl",
        description=(
            "Triangular-block analysis of plane graphs: constructions, "
            "freeness checks, decompositions, density tables, exact "
            "small-order searches, and verification bundles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_options(p: argparse.ArgumentParser, ceiling: bool = True) -> None:
        if ceiling:
            p.add_argument(
                "--ceiling", type=int, default=None,
                help="enumeration ceiling (default: PTL_CEILING or library default)",
            )
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: PTL_WORKERS or 1)",
        )

    p_family = sub.add_parser("family", help="extremal-family constructions")
    family_sub = p_family.add_subparsers(dest="action", required=True)
    p_gen = family_sub.add_parser("gen", help="build one family member")
    p_gen.add_argument("--name", required=True,
                       help=f"one of: {', '.join(sorted(families.FAMILY_BUILDERS))}")
    p_gen.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="family parameter (repeatable)")
    p_gen.add_argument("--out", type=Path, default=None,
                       help="output directory (default: .)")
    p_gen.set_defaults(run=cmd_family)

    p_check = sub.add_parser("check", help="pattern-freeness verdicts")
    check_sub = p_check.add_subparsers(dest="action", required=True)
    p_free = check_sub.add_parser("free", help="is the graph pattern-free?")
    p_free.add_argument("--pattern", required=True)
    p_free.add_argument("--in", dest="input_path", type=Path, required=True,
                        help=".g6/.s6 line file or embedding .json")
    p_free.set_defaults(run=cmd_check)

    p_dec = sub.add_parser("decompose",
                           help="triangular block/component summary")
    p_dec.add_argument("--in", dest="input_path", type=Path, required=True,
                       help=".g6/.s6 line file or embedding .json")
    p_dec.set_defaults(run=cmd_decompose)

    p_density = sub.add_parser("density", help="block density tables")
    density_sub = p_density.add_subparsers(dest="action", required=True)
    p_table = density_sub.add_parser("table", help="emit the density CSV")
    p_table.add_argument("--set", dest="table_set", default="all",
                         choices=["H4", "H5", "all"])
    p_table.add_argument("--out", type=Path, default=None,
                         help="also write the CSV here")
    p_table.set_defaults(run=cmd_density)

    p_turan = sub.add_parser("turan", help="exact planar Turan oracle")
    turan_sub = p_turan.add_subparsers(dest="action", required=True)
    p_exact = turan_sub.add_parser("exact", help="compute ex_P(n, pattern)")
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--pattern", required=True)
    p_exact.add_argument("--out", type=Path, default=None,
                         help="JSONL result catalog (default: results.jsonl)")
    p_exact.add_argument("--witness-dir", type=Path, default=None,
                         help="directory for witness .g6 files")
    add_search_options(p_exact)
    p_exact.set_defaults(run=cmd_turan)

    p_tb = sub.add_parser("tb", help="solid triangular-block census")
    tb_sub = p_tb.add_subparsers(dest="action", required=True)
    p_enum = tb_sub.add_parser("enumerate",
                               help="census up to an order, diffed")
    p_enum.add_argument("--pattern", required=True, help="H4 or H5")
    p_enum.add_argument("--max", dest="max_order", type=int, required=True)
    p_enum.add_argument("--out", type=Path, default=None,
                        help="write the full report JSON here")
    add_search_options(p_enum)
    p_enum.set_defaults(run=cmd_tb)

    p_verify = sub.add_parser("verify", help="acceptance bundles")
    p_verify.add_argument("theorem", choices=["thm1", "thm2", "thm3"])
    # The bundles need orders up to 10 whatever the ceiling, so they take none.
    add_search_options(p_verify, ceiling=False)
    p_verify.set_defaults(run=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Of several bad inputs, the first in this order is reported.  The
        # environment applies only to commands that take the flag.
        if "ceiling" in args:
            args.ceiling = _resolve_ceiling(args.ceiling)
        if "workers" in args:
            args.workers = _resolve_workers(args.workers)
        if "pattern" in args:
            args.pattern = build_pattern(args.pattern.replace("+", "|"))
        if "param" in args:
            args.param = _parse_params(args.param)
        return args.run(args)
    except (CliError, ValueError) as exc:
        # SearchError, FamilyError and FormatError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
