"""CLI behaviour: commands, exports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diagfree.cli import main

GOLDEN = Path(__file__).parent / "golden"
# Trees that span only an induced subgraph of the Graham-Houghton graph.
INDUCED_TREES = ("lex", "fd", "fc")
IG_31 = ["--family", "ig", "--n", "3", "--rank", "1", "--tree"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def c4_graph(tmp_path):
    graph = tmp_path / "c4.edges"
    graph.write_text("a b\nb c\nc d\nd a\n")
    return str(graph)


def test_stats_counts(capsys):
    code, out = run(capsys, "stats", "--monoid", "pn", "--n", "4", "--rank", "3")
    assert code == 0
    assert "|P_D| = 10" in out and "|E_D| = 34" in out


def test_stats_p3_r2(capsys):
    code, out = run(capsys, "stats", "--monoid", "pn", "--n", "3", "--rank", "2")
    assert code == 0
    assert "|P_D| = 6" in out and "|E_D| = 18" in out


def test_stats_brauer(capsys):
    code, out = run(capsys, "stats", "--monoid", "brauer", "--n", "4", "--rank", "0")
    assert code == 0
    assert "|P_D| = 3" in out and "|E_D| = 9" in out


def test_identify_ig_rank0(capsys):
    code, out = run(capsys, "identify", "--family", "ig", "--n", "3", "--rank", "0")
    assert code == 0
    assert "Z (free rank 1)" in out


def test_identify_pg_linked_rank0(capsys):
    code, out = run(
        capsys, "identify", "--family", "pg-linked", "--n", "3", "--rank", "0",
    )
    assert code == 0
    assert "trivial" in out


def test_identify_pg_42_certified(capsys):
    code, out = run(capsys, "identify", "--family", "pg", "--n", "4", "--rank", "2")
    assert code == 0
    assert "S_2 (order 2, certified)" in out


def test_identify_json_format(capsys):
    code, out = run(
        capsys, "identify", "--family", "pg-linked", "--n", "2", "--rank", "0",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["order"] == 1


def test_presentation_golden_ig(capsys):
    code, out = run(
        capsys, "presentation", "--family", "ig", "--n", "3", "--rank", "1",
        "--tree", "s",
    )
    assert code == 0
    assert out == (GOLDEN / "ig_p3_r1.txt").read_text()


def test_presentation_golden_pg(capsys):
    code, out = run(capsys, "presentation", "--family", "pg", "--n", "3", "--rank", "1")
    assert code == 0
    assert out == (GOLDEN / "pg_p3_r1.txt").read_text()


def test_presentation_golden_linked_json(capsys):
    code, out = run(
        capsys, "presentation", "--family", "pg-linked", "--n", "3", "--rank", "0",
        "--format", "json",
    )
    assert json.loads(out) == json.loads((GOLDEN / "pg_linked_p3_r0.json").read_text())


def test_presentation_deterministic(capsys):
    args = ("presentation", "--family", "ig", "--n", "3", "--rank", "0")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_squares_dump(capsys):
    code, out = run(
        capsys, "squares", "--monoid", "pn", "--n", "3", "--rank", "1",
        "--diamonds",
    )
    doc = json.loads(out)
    assert doc["squares"] and doc["diamonds"]
    first = doc["squares"][0]
    assert set(first) == {"rows", "cols", "oclass", "corners", "orientation", "witness"}


def test_graph_dot(capsys):
    code, out = run(
        capsys, "graph", "--monoid", "pn", "--n", "3", "--rank", "2",
        "--tree", "bfs",
    )
    assert code == 0
    assert out.startswith("graph gh {") and "color=red" in out


@pytest.mark.parametrize("kind", INDUCED_TREES)
def test_graph_draws_induced_trees(kind, capsys):
    code, out = run(capsys, "graph", "--n", "3", "--rank", "1", "--tree", kind)
    assert code == 0
    assert out.startswith("graph gh {") and "color=red" in out


def test_adjacency_from_file(tmp_path, capsys):
    code, out = run(
        capsys, "identify", "--monoid", "adjacency", "--graph", c4_graph(tmp_path),
        "--family", "pg", "--rank", "0",
    )
    assert code == 0
    assert "Z (free rank 1)" in out


@pytest.mark.parametrize("kind", ("bfs", "pg", "auto"))
def test_adjacency_degree_free_trees(kind, tmp_path, capsys):
    code, out = run(
        capsys, "graph", "--monoid", "adjacency", "--graph", c4_graph(tmp_path),
        "--rank", "0", "--tree", kind,
    )
    assert code == 0
    assert out.startswith("graph gh {") and "color=red" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["stats", "--monoid", "bogus", "--n", "3", "--rank", "1"])
    assert err.value.code == 2


def test_bad_rank_is_error(capsys):
    code = main(["stats", "--monoid", "pn", "--n", "3", "--rank", "7"])
    assert code == 2


def test_identify_ig_31_exact_z(capsys):
    code, out = run(capsys, "identify", "--family", "ig", "--n", "3", "--rank", "1")
    assert code == 0
    assert "Z (free rank 1)" in out
    assert "label homomorphism valid=True" in out


ADJACENCY_GRAPH = ["graph", "--monoid", "adjacency", "--graph", "C4", "--rank", "0"]
DEGREE_TREES = ("s", "lex", "fd", "fc", "rank0")


@pytest.mark.parametrize("argv", (
    ["presentation", "--family", "ig", "--n", "3", "--rank", "0", "--tree", "s"],
    ["stats", "--n", "3", "--rank", "1", "--no-cache"],
    ["stats", "--n", "3", "--rank", "1", "--cache-dir", "cache"],
    *(ADJACENCY_GRAPH + ["--tree", kind] for kind in DEGREE_TREES),
    ["squares", "--monoid", "tn", "--n", "3", "--rank", "1"],
    ["identify", "--monoid", "tn", "--n", "3", "--rank", "1"],
    ["presentation", "--monoid", "tn", "--family", "ig", "--n", "3", "--rank", "1"],
    *(["presentation", *IG_31, kind] for kind in INDUCED_TREES),
    *(["identify", *IG_31, kind] for kind in INDUCED_TREES),
), ids=(
    "tree-s-rank0", "no-cache", "cache-dir",
    *(f"adjacency-tree-{kind}" for kind in DEGREE_TREES),
    "tn-squares", "tn-identify", "tn-presentation",
    *(f"presentation-ig-tree-{kind}" for kind in INDUCED_TREES),
    *(f"identify-ig-tree-{kind}" for kind in INDUCED_TREES),
))
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    argv = [c4_graph(tmp_path) if a == "C4" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "tn" in argv:
        assert "needs an involution" in err


@pytest.mark.parametrize("command", (
    ["stats", "--n", "3", "--rank", "1"],
    ["identify", "--family", "ig", "--n", "3", "--rank", "1"],
    ["squares", "--n", "3", "--rank", "1"],
), ids=("stats", "identify", "squares"))
def test_commands_write_nothing(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *command)
    assert code == 0 and out
    assert list(tmp_path.iterdir()) == []


def test_python_m_diagfree():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "diagfree", "stats", "--n", "2", "--rank", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("monoid: P_2  rank: 0")
