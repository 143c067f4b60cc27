"""End-to-end command-line behavior (in-process)."""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ptl
from ptl import cli, families
from ptl.cli import (
    _append_jsonl,
    _build_parser,
    _check_c3_line,
    _check_thm2_small_bound,
    main,
)
from ptl.io import read_graph_lines
from ptl.patterns import is_free


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _leaf_parsers(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(command words, parser) for every subcommand that takes no further
    subcommand."""
    groups = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_leaf_command_has_a_handler():
    handlers = {
        " ".join(words): parser.get_default("run")
        for words, parser in _leaf_parsers(_build_parser())
    }
    assert handlers == {
        "family gen": cli.cmd_family,
        "check free": cli.cmd_check,
        "decompose": cli.cmd_decompose,
        "density table": cli.cmd_density,
        "turan exact": cli.cmd_turan,
        "tb enumerate": cli.cmd_tb,
        "verify": cli.cmd_verify,
    }
    assert cli.__all__ == ["main"]


# -- density table ------------------------------------------------------------

def test_density_table_h4(capsys):
    code, out, _ = run(capsys, "density", "table", "--set", "H4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,name,order,delta,density,formula"
    assert "H4,B2,4,3,3/4," in lines
    assert "H4,B15(8),8,8,1,1" in lines
    assert len(lines) == 16


def test_density_table_all_writes_csv(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "density", "table", "--set", "all",
                       "--out", str(target))
    assert code == 0
    assert target.read_text().strip().splitlines()[0].startswith("table,name")
    assert len(target.read_text().strip().splitlines()) == 21


def test_density_table_ignores_search_env(capsys, monkeypatch):
    # the environment applies only to commands that take the flag
    for name, value in (("PTL_CEILING", "2"), ("PTL_WORKERS", "zero")):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, "density", "table", "--set", "H5")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 6
        monkeypatch.delenv(name)


def test_verify_takes_no_ceiling():
    # the bundles need orders up to 9 whatever the ceiling is
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["verify", "thm1", "--ceiling", "5"])
    args = _build_parser().parse_args(["verify", "thm1", "--workers", "2"])
    assert args.workers == 2


# -- family gen + check free ---------------------------------------------------

def test_family_gen_and_check_chain(capsys, tmp_path):
    code, out, _ = run(
        capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=10", "--out", str(tmp_path),
    )
    assert code == 0
    assert "pass" in out and "fail" not in out
    g6 = tmp_path / "k2_plus_matching_n10.g6"
    assert g6.exists()
    (g,) = read_graph_lines(g6.read_text())
    assert g.n == 10 and g.m == 21
    assert is_free(g, "H6")

    code, out, _ = run(capsys, "check", "free", "--pattern", "H6",
                       "--in", str(g6))
    assert code == 0
    assert out.strip() == "free"

    code, out, _ = run(capsys, "check", "free", "--pattern", "C3",
                       "--in", str(g6))
    assert code == 1
    assert out.startswith("contains C3:")


def test_family_gen_json_embedding(capsys, tmp_path):
    code, out, _ = run(
        capsys, "family", "gen", "--name", "wheel_ring",
        "--param", "k=3", "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "wheel_ring_k3.json").read_text())
    assert payload  # embedding JSON round-trips through the loader
    from ptl.io import load_plane_graph_json

    pg = load_plane_graph_json((tmp_path / "wheel_ring_k3.json").read_text())
    assert pg.n == 17


def test_family_gen_refuses_a_failed_self_check(capsys, tmp_path, monkeypatch):
    # the construction tests its own freeness; a failure is a usage error
    # that prints the FamilyError and writes no file
    monkeypatch.setattr(families, "is_free", lambda graph, pattern: False)
    code, out, err = run(
        capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=10", "--out", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: k2_plus_matching({'n': 10}): graph contains a copy of H6\n"
    )
    assert not any(tmp_path.iterdir())


def test_family_gen_bad_params(capsys, tmp_path):
    code, _, err = run(
        capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=abc", "--out", str(tmp_path),
    )
    assert code == 2
    assert "integer" in err

    code, _, err = run(
        capsys, "family", "gen", "--name", "nonesuch", "--param", "n=8",
        "--out", str(tmp_path),
    )
    assert code == 2


def test_family_gen_repeated_param(capsys, tmp_path):
    # the last value must not silently win
    code, _, err = run(
        capsys, "family", "gen", "--name", "wheel_ring",
        "--param", "k=3", "--param", "k=4", "--out", str(tmp_path),
    )
    assert code == 2
    assert "more than once" in err
    assert list(tmp_path.iterdir()) == []


def test_family_gen_refuses_a_parameter_past_the_limit(capsys, tmp_path):
    # refused before anything is built: a ring of 10^8 wheels would run
    # for hours
    code, out, err = run(
        capsys, "family", "gen", "--name", "wheel_ring",
        "--param", "k=99999999", "--out", str(tmp_path),
    )
    assert code == 2 and not out
    assert "k=99999999 exceeds the limit 1000" in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(families.FamilyError, match="y=1001"):
        families.family_instance("b5_ring_augmented", x=2, y=1001)


def test_check_pattern_alias(capsys, tmp_path):
    code, _, _ = run(
        capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=8", "--out", str(tmp_path),
    )
    assert code == 0
    g6 = str(tmp_path / "k2_plus_matching_n8.g6")
    code, out, _ = run(capsys, "check", "free", "--pattern", "C3+Theta4",
                       "--in", g6)
    assert code == 0 and out.strip() == "free"


def test_check_refuses_a_pattern_index_past_the_limit(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    code, out, err = run(capsys, "check", "free", "--pattern", "K1001",
                         "--in", str(path))
    assert code == 2 and not out
    assert "exceeds the limit 1000" in err


def test_check_reports_non_ascii_line_files_by_line(capsys, tmp_path):
    # a line file is read as bytes, whatever the locale's encoding
    path = tmp_path / "bom.g6"
    path.write_bytes(b"\xff\xfeBw\n")
    code, out, err = run(capsys, "check", "free", "--pattern", "C3",
                         "--in", str(path))
    assert code == 2 and not out
    assert f"cannot parse {path}: line 1: non-ASCII character" in err


def test_decompose_refuses_json_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(
        b'{"n": 3, "rotation": [[1, 2], [2, 0], [0, 1]], '
        b'"outer_face": [0, 1, 2], "note": "\xe9"}'
    )
    code, out, err = run(capsys, "decompose", "--in", str(path))
    assert code == 2 and not out
    assert f"cannot parse {path}: 'utf-8' codec" in err


# -- decompose ------------------------------------------------------------------

def test_decompose_output(capsys, tmp_path):
    run(capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=10", "--out", str(tmp_path))
    code, out, _ = run(
        capsys, "decompose", "--in", str(tmp_path / "k2_plus_matching_n10.json")
    )
    assert code == 0
    assert "blocks: 4" in out
    assert "components: 1" in out
    assert "junctions: (0, 1)" in out
    assert "3*10 == 12 + 2*9  ok" in out


def test_decompose_reports_holes_of_the_block_as_drawn(capsys, tmp_path):
    # the pendant's host 3-face is a triangular hole of the drawn block,
    # so the block is not solid; order, delta and density are the solid
    # block's, with the hole counted as a 3-face
    from test_decomposition import _octahedron_with_inner_pendant

    path = tmp_path / "pendant.json"
    path.write_text(_octahedron_with_inner_pendant().to_json())
    code, out, _ = run(capsys, "decompose", "--in", str(path))
    assert code == 0
    assert "blocks: 1" in out
    assert "order=6 delta=7 density=7/6 holes=1 solid=no" in out


def test_decompose_rejects_boolean_vertex(capsys, tmp_path):
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps({
        "n": 3, "rotation": [[1, 2], [2, 0], [0, True]],
        "outer_face": [0, 1, 2],
    }))
    code, out, err = run(capsys, "decompose", "--in", str(bad))
    assert code == 2
    assert not out
    assert "rotation" in err


def test_decompose_embeds_abstract_input(capsys, tmp_path):
    run(capsys, "family", "gen", "--name", "k2_plus_matching",
        "--param", "n=10", "--out", str(tmp_path))
    code, out, _ = run(
        capsys, "decompose", "--in", str(tmp_path / "k2_plus_matching_n10.g6")
    )
    assert code == 0
    assert "identity" in out and "ok" in out


# -- turan exact ------------------------------------------------------------------

def test_turan_exact_catalog_and_witnesses(capsys, tmp_path):
    out_file = tmp_path / "results.jsonl"
    wdir = tmp_path / "wit"
    code, out, _ = run(
        capsys, "turan", "exact", "--n", "4", "--pattern", "Theta4",
        "--out", str(out_file), "--witness-dir", str(wdir),
    )
    assert code == 0
    assert "ex_P(4, Theta4) = 4" in out
    record = json.loads(out_file.read_text())
    assert record["ex"] == 4
    assert record["witnesses"] == ["CN", "Cr"]
    assert set(record) == {
        "n", "pattern", "ex", "witnesses", "enumerated", "elapsed_ms",
        "config",
    }
    files = sorted(p.name for p in wdir.iterdir())
    assert files == ["Theta4_n4_0.g6", "Theta4_n4_1.g6"]

    # identical invocation is deduplicated
    code, out, _ = run(
        capsys, "turan", "exact", "--n", "4", "--pattern", "Theta4",
        "--out", str(out_file), "--witness-dir", str(wdir),
    )
    assert code == 0
    assert "already recorded" in out
    assert len(out_file.read_text().strip().splitlines()) == 1


def test_turan_refuses_pattern_with_a_bridge(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    wdir = tmp_path / "wit"
    code, out, err = run(capsys, "turan", "exact", "--n", "6", "--pattern",
                         "P4", "--out", str(out_file),
                         "--witness-dir", str(wdir))
    assert code == 2
    assert "bridge" in err
    assert not out
    assert not out_file.exists() and not wdir.exists()


def test_turan_ceiling_env(capsys, tmp_path, monkeypatch):
    out_file = tmp_path / "r.jsonl"
    monkeypatch.setenv("PTL_CEILING", "4")
    code, *_ = run(capsys, "turan", "exact", "--n", "4", "--pattern", "C3",
                   "--out", str(out_file))
    assert code == 0
    monkeypatch.setenv("PTL_CEILING", "2")
    code, _, err = run(capsys, "turan", "exact", "--n", "4", "--pattern",
                       "C3", "--out", str(out_file))
    assert code == 2
    assert "ceiling" in err


def test_turan_config_hash_tracks_ceiling(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    code, *_ = run(capsys, "turan", "exact", "--n", "4", "--pattern", "C3",
                   "--out", str(out_file))
    assert code == 0
    code, *_ = run(capsys, "turan", "exact", "--n", "4", "--pattern", "C3",
                   "--ceiling", "5", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2  # different config hash -> second record kept
    configs = {json.loads(line)["config"] for line in lines}
    assert len(configs) == 2


def test_turan_worker_flag_does_not_change_config(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    run(capsys, "turan", "exact", "--n", "5", "--pattern", "C3",
        "--out", str(out_file))
    code, out, _ = run(capsys, "turan", "exact", "--n", "5", "--pattern",
                       "C3", "--workers", "2", "--out", str(out_file))
    assert code == 0
    assert "already recorded" in out


def test_turan_skips_log_lines_that_are_not_objects(capsys, tmp_path):
    out_file = tmp_path / "results.jsonl"
    out_file.write_text('[1, 2]\n"x"\n')
    code, out, _ = run(capsys, "turan", "exact", "--n", "4", "--pattern",
                       "C3", "--out", str(out_file),
                       "--witness-dir", str(tmp_path / "wit"))
    assert code == 0
    assert "already recorded" not in out
    lines = out_file.read_text().splitlines()
    assert lines[:2] == ["[1, 2]", '"x"']
    assert len(lines) == 3 and json.loads(lines[2])["ex"] == 4


_APPEND_CHILD = """
import sys
from pathlib import Path
from ptl.cli import _append_jsonl
print("ready", flush=True)
print(_append_jsonl(Path(sys.argv[1]), {"n": 4, "pattern": "C3", "config": "k"}))
"""


def test_append_jsonl_holds_a_file_lock(tmp_path):
    out_file = tmp_path / "r.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ptl.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    with open(out_file, "a+b") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        child = subprocess.Popen(
            [sys.executable, "-c", _APPEND_CHILD, str(out_file)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert child.stdout.readline().strip() == "ready"
            time.sleep(0.5)
            assert child.poll() is None  # still waiting for the lock
            assert out_file.read_text() == ""
        finally:
            fcntl.flock(held, fcntl.LOCK_UN)
    out, _ = child.communicate(timeout=60)
    assert child.returncode == 0 and out.strip() == "True"
    record = {"n": 4, "pattern": "C3", "config": "k"}
    assert _append_jsonl(out_file, record) is False
    lines = out_file.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [record]


def test_turan_invalid_workers_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PTL_WORKERS", "zero")
    code, _, err = run(capsys, "turan", "exact", "--n", "4", "--pattern",
                       "C3", "--out", str(tmp_path / "r.jsonl"))
    assert code == 2
    assert "PTL_WORKERS" in err


# -- tb enumerate -----------------------------------------------------------------

def test_tb_enumerate_h4(capsys, tmp_path):
    out_file = tmp_path / "tb.json"
    code, out, _ = run(capsys, "tb", "enumerate", "--pattern", "H4",
                       "--max", "6", "--out", str(out_file))
    assert code == 0
    assert "catalog diff: empty" in out
    record = json.loads(out_file.read_text())
    assert record["diff_is_empty"] is True


def test_tb_enumerate_h5_gap(capsys):
    # the order-7 block F?l~w beyond the paper's list is catalogued as B4p
    code, out, _ = run(capsys, "tb", "enumerate", "--pattern", "H5",
                       "--max", "7")
    assert code == 0
    assert "order 7: found 4, expected 4" in out.splitlines()
    assert "catalog diff: empty" in out


def test_tb_enumerate_h5_to_its_default_ceiling(capsys):
    code, out, _ = run(capsys, "tb", "enumerate", "--pattern", "H5",
                       "--max", "16")
    assert code == 0
    assert "catalog diff: empty" in out


def test_tb_enumerate_bad_pattern(capsys):
    code, _, err = run(capsys, "tb", "enumerate", "--pattern", "C3",
                       "--max", "6")
    assert code == 2


# -- verify ----------------------------------------------------------------------

def test_verify_bundles_certify_the_growth_census():
    # the direct census at order 7 is pinned in test_search; here only
    # that thm1 and thm2 run it after their growth census
    for theorem, pattern in (("thm1", "H4"), ("thm2", "H5")):
        names = [name for name, _ in cli._bundle(theorem, 1)]
        assert names[1:3] == [f"tb-catalog-{pattern}", f"direct-census-{pattern}"]


def test_verify_c3_line_runs_to_order_10():
    assert _check_c3_line(1) == "ex_P(n, C3) = 2n-4 for n in 5..10"


def test_verify_thm2_small_bound_runs_to_order_10():
    assert _check_thm2_small_bound(1) == (
        "ex_P(6, H5) = 11 <= 11; ex_P(7, H5) = 13 <= 13; "
        "ex_P(8, H5) = 15 <= 16; ex_P(9, H5) = 18 <= 18; "
        "ex_P(10, H5) = 21 <= 21"
    )


# -- errors ------------------------------------------------------------------------

def test_unknown_pattern_exits_2(capsys, tmp_path):
    g6 = tmp_path / "x.g6"
    g6.write_text("C~\n")
    code, _, err = run(capsys, "check", "free", "--pattern", "Zilch",
                       "--in", str(g6))
    assert code == 2
    assert "error:" in err


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "--in", "/nonexistent/y.g6")
    assert code == 2


@pytest.mark.parametrize(
    "argv", [("check", "free", "--pattern", "C3"), ("decompose",)]
)
def test_unreadable_input_exits_2(capsys, tmp_path, argv):
    # exit 1 means "pattern found" or "identity violated", never a crash
    code, out, err = run(capsys, *argv, "--in", str(tmp_path))
    assert code == 2
    assert not out
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_nonplanar_input_exits_2(capsys, tmp_path):
    from ptl.embedding import Graph
    from ptl.io import graph6_encode

    g6 = tmp_path / "k5.g6"
    g6.write_text(graph6_encode(Graph.complete(5)).decode() + "\n")
    code, _, err = run(capsys, "decompose", "--in", str(g6))
    assert code == 2
    assert "planar" in err


def test_malformed_graph_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("!!!not-a-graph!!!\n")
    code, _, err = run(capsys, "check", "free", "--pattern", "C3",
                       "--in", str(bad))
    assert code == 2


_WITHOUT_NETWORKX = """
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None  # any import of networkx now fails
import ptl
from ptl import cli

for info in pkgutil.walk_packages(ptl.__path__, "ptl."):
    importlib.import_module(info.name)
for argv in (
    ["turan", "exact", "--n", "6", "--pattern", "H5"],
    ["tb", "enumerate", "--pattern", "H4", "--max", "8"],
    ["family", "gen", "--name", "wheel_ring", "--param", "k=3"],
):
    code = cli.main(argv)
    assert code == 0, (argv, code)
print("ok")
"""


def test_ptl_needs_no_networkx(tmp_path):
    # ptl has no runtime dependency: with networkx unimportable, every
    # module imports and the oracle, the census and a family builder run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ptl.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "ok"
