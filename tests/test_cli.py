"""CLI behaviour: commands, exports, determinism, exit codes."""

import hashlib
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
PG_42 = ["--family", "pg", "--n", "4", "--rank", "2", "--tree"]
# Trees that miss a projection of the rank-2 class of P_4, which pg needs.
NON_PG_TREES = ("bfs", "s", "rank0")
PAIR_FAMILIES = ("pg-linked", "pg-triangles")


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


@pytest.mark.parametrize("rank,rows,cols", ((1, 1, 3), (2, 3, 3)))
def test_stats_tn_has_no_projections(capsys, rank, rows, cols):
    """T_n has no involution, so stats prints no P_D; its R- and L-class
    counts are the two sides of the GH graph."""
    code, out = run(capsys, "stats", "--monoid", "tn", "--n", "3", "--rank", str(rank))
    assert code == 0
    assert "P_D" not in out
    assert f"GH graph: {rows}+{cols} vertices" in out


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


def test_identify_max_cosets_one(capsys):
    """The smallest accepted cap runs, and its verdict is unknown."""
    code, out = run(
        capsys, "identify", "--family", "pg", "--n", "4", "--rank", "2",
        "--max-cosets", "1",
    )
    assert code == 0
    assert out.startswith("unknown")
    assert "coset enumeration exceeded 1 cosets" in out


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


def test_verify_reports_failures_and_exit_code(capsys, monkeypatch):
    from diagfree import verify

    ok = verify.CriterionResult(1, "passes", True, "pass detail")
    bad = verify.CriterionResult(2, "fails", False, "fail detail")
    monkeypatch.setattr(verify, "ALL_CRITERIA", [lambda: ok, lambda: bad])
    code, out = run(capsys, "verify")
    assert code == 1
    assert "[PASS] criterion 1: passes\n" in out and "pass detail" not in out
    assert "[FAIL] criterion 2: fails\n        fail detail\n" in out
    assert out.endswith("1/2 criteria passed\n")
    monkeypatch.setattr(verify, "ALL_CRITERIA", [lambda: ok])
    code, out = run(capsys, "verify")
    assert code == 0 and out.endswith("1/1 criteria passed\n")


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


# sha256 of `diagfree squares` stdout, the one output that prints corners.
SQUARES_STDOUT_DIGESTS = {
    "--n 3 --rank 1 --diamonds": "1e5c192eff3cb4d1440798961a3a61c4277e01dcfb070049b0f557e0d3eeb166",
    "--n 4 --rank 2": "a3488333daf297405b2d2172a1b18993b23ae13edeae765c9bae8a2a74d273c4",
    "--monoid brauer --n 5 --rank 1": "b82660d46baa61240949ee3407dc4370513054c7b153b9fa5943b9b84d1f5ff2",
}


@pytest.mark.parametrize("args", SQUARES_STDOUT_DIGESTS)
def test_squares_stdout_pinned(capsys, args):
    code, out = run(capsys, "squares", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SQUARES_STDOUT_DIGESTS[args]


@pytest.mark.parametrize("command", ["identify", "presentation"])
def test_p1_rank0_default_tree(capsys, command):
    """auto picks bfs on P_1, where T_rank0 is undefined."""
    code, out = run(capsys, command, "--n", "1", "--rank", "0")
    assert code == 0
    if command == "identify":
        assert out.startswith("trivial")


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
    """Rank 1 is the non-zero class of the 4-cycle's adjacency semigroup,
    and rank 0 the zero class."""
    argv = ["identify", "--monoid", "adjacency", "--graph", c4_graph(tmp_path), "--family", "pg"]
    code, out = run(capsys, *argv, "--rank", "1")
    assert code == 0 and out.startswith("Z (free rank 1)\n")
    code, out = run(capsys, *argv, "--rank", "0")
    assert code == 0 and out.startswith("trivial\n")


@pytest.mark.parametrize("kind", ("bfs", "pg", "auto"))
def test_adjacency_degree_free_trees(kind, tmp_path, capsys):
    code, out = run(
        capsys, "graph", "--monoid", "adjacency", "--graph", c4_graph(tmp_path),
        "--rank", "1", "--tree", kind,
    )
    assert code == 0
    assert out.startswith("graph gh {") and "color=red" in out


def test_usage_error_exit_code(capsys):
    assert main(["stats", "--monoid", "bogus", "--n", "3", "--rank", "1"]) == 2
    assert capsys.readouterr().err == "error: unknown monoid kind 'bogus'\n"


def test_bad_rank_is_error(capsys):
    code = main(["stats", "--monoid", "pn", "--n", "3", "--rank", "7"])
    assert code == 2


def test_degree_over_the_cap_names_the_cli_flag(capsys):
    """A degree past the cap is a usage error whose message names the
    command-line flag that lifts it."""
    code = main(["identify", "--n", "9", "--rank", "1"])
    assert code == 2
    assert "--allow-large" in capsys.readouterr().err


def test_identify_ig_31_exact_z(capsys):
    code, out = run(capsys, "identify", "--family", "ig", "--n", "3", "--rank", "1")
    assert code == 0
    assert "Z (free rank 1)" in out
    assert "label homomorphism valid=True" in out


ADJACENCY_GRAPH = ["graph", "--monoid", "adjacency", "--graph", "C4", "--rank", "1"]
DEGREE_TREES = ("s", "lex", "fd", "fc", "rank0")
BRAUER_42 = ["--monoid", "brauer", "--n", "4", "--rank", "2"]


def test_brauer_default_tree_is_bfs(capsys):
    """P_n's trees are not trees of B_n's classes: auto is bfs for ig."""
    argv = ["identify", "--monoid", "brauer", "--n", "4", "--rank", "0", "--family", "ig"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--tree", "bfs")
    assert out.startswith("free of rank 4")
    code, out = run(capsys, "identify", *BRAUER_42, "--family", "pg")
    assert code == 0


def test_brauer_gets_no_partition_hints(capsys):
    """The S_r label map and the P_1 quotient generator are P_n's."""
    code, out = run(capsys, "identify", *BRAUER_42, "--family", "ig", "--tree", "bfs")
    assert code == 0
    assert out.startswith("free of rank 19")
    assert "label homomorphism" not in out
    assert "quotient by" not in out


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
    *(["presentation", *PG_42, kind] for kind in NON_PG_TREES),
    *(["identify", *PG_42, kind] for kind in NON_PG_TREES),
    *(
        [command, "--family", family, "--n", "3", "--rank", "0", "--tree", kind]
        for command in ("presentation", "identify")
        for family in PAIR_FAMILIES
        for kind in ("bfs", "pg")
    ),
    ["stats", "--monoid", "adjacency", "--graph", "MISSING", "--rank", "1"],
    ["identify", "--monoid", "adjacency", "--graph", "C4", "--rank", "5", "--family", "pg"],
    ["presentation", "--n", "3", "--rank", "1", "-o", "UNWRITABLE"],
    ["identify", "--n", "4", "--rank", "2", "--family", "pg", "--max-cosets", "0"],
    *(["identify", *BRAUER_42, "--family", "ig", "--tree", kind] for kind in ("s", "rank0")),
    *(["graph", *BRAUER_42, "--tree", kind] for kind in DEGREE_TREES),
    ["graph", "--n", "4", "--rank", "2", "--tree", "rank0"],
), ids=(
    "tree-s-rank0", "no-cache", "cache-dir",
    *(f"adjacency-tree-{kind}" for kind in DEGREE_TREES),
    "tn-squares", "tn-identify", "tn-presentation",
    *(f"presentation-ig-tree-{kind}" for kind in INDUCED_TREES),
    *(f"identify-ig-tree-{kind}" for kind in INDUCED_TREES),
    *(f"presentation-pg-tree-{kind}" for kind in NON_PG_TREES),
    *(f"identify-pg-tree-{kind}" for kind in NON_PG_TREES),
    *(
        f"{command}-{family}-tree-{kind}"
        for command in ("presentation", "identify")
        for family in PAIR_FAMILIES
        for kind in ("bfs", "pg")
    ),
    "missing-graph-file", "adjacency-rank-5", "unwritable-output", "max-cosets-below-1",
    *(f"brauer-identify-tree-{kind}" for kind in ("s", "rank0")),
    *(f"brauer-graph-tree-{kind}" for kind in DEGREE_TREES),
    "graph-tree-rank0-at-rank-2",
))
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    paths = {"MISSING": tmp_path / "missing.edges", "UNWRITABLE": tmp_path / "missing" / "x"}
    argv = [c4_graph(tmp_path) if a == "C4" else str(paths.get(a, a)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "tn" in argv:
        assert "needs an involution" in err
    if "--max-cosets" in argv:
        assert "--max-cosets" in err
    if "-o" in argv:
        assert "cannot write -o file" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    """An exception that is not a usage error exits 3 with its traceback,
    never 2."""
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr("diagfree.cli.dclass_data", broken)
    assert main(["stats", "--n", "3", "--rank", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError('internal')")
    assert "Traceback" in err


def test_closed_stdout_is_not_an_error(capsys, monkeypatch):
    """A reader that closes stdout early, as `| head` does, gets exit 0 and
    nothing on stderr; the rest of the output goes to os.devnull."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["stats", "--n", "3", "--rank", "1"]) == 0
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


# The (4, 2) IG verdict depends on the spanning tree today.  Over s and bfs
# the quotient by the first P_1 projection has order 2!; over bfs the raw
# labels fail on the full presentation but hold on Q, where identify checks
# them.  Over pg that projection is a tree edge, so the quotient is Q
# itself, whose abelianization Z x Z_2 is infinite, and it is not enumerated.
IG_42_BY_TREE = {
    "s": ("consistent with Z x S_2", "quotient by a[1 2 1' 2'; 3 3'; 4; 4']: order 2"),
    "bfs": ("consistent with Z x S_2", "quotient by a[1 2 1' 2'; 3 3'; 4; 4']: order 2"),
    "pg": ("unknown", "quotient by a[1 2 1' 2'; 3 3'; 4; 4'] is infinite: "
                      "abelianization Z x Z_2"),
}


@pytest.mark.parametrize("tree", IG_42_BY_TREE)
def test_identify_ig_42_by_tree(tree, capsys, monkeypatch):
    from diagfree import groupid

    enumerated = []
    todd_coxeter = groupid.todd_coxeter
    monkeypatch.setattr(
        groupid, "todd_coxeter", lambda *a: enumerated.append(a) or todd_coxeter(*a)
    )
    code, out = run(
        capsys, "identify", "--family", "ig", "--n", "4", "--rank", "2", "--tree", tree
    )
    verdict, evidence = IG_42_BY_TREE[tree]
    assert code == 0
    assert out.startswith(verdict) and f"  - {evidence}" in out
    assert ("certification: partial" in out) == (tree != "pg")
    assert bool(enumerated) == (tree != "pg")


def test_identify_z_cross_route_stops_at_failed_label_premise(capsys, monkeypatch):
    """Over bfs at (5, 3) the raw labels fail on Q, so the Z x S_r route
    ends in unknown after the torsion line: no quotient is simplified or
    enumerated."""
    from diagfree import groupid

    calls = []
    for name in ("todd_coxeter", "tietze_simplify"):
        fn = getattr(groupid, name)
        monkeypatch.setattr(
            groupid, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
        )
    code, out = run(
        capsys, "identify", "--family", "ig", "--n", "5", "--rank", "3", "--tree", "bfs"
    )
    assert code == 0
    assert out.startswith("unknown")
    assert "  - label homomorphism valid=False, image order 3" in out
    assert out.rstrip().endswith("the direct-product target (2,)")
    assert calls == ["tietze_simplify"]


# sha256 of `presentation` stdout, taken before the tree and family choice
# moved into the library: every family with its default tree, and ig over
# three named trees.
PRESENTATION_DIGESTS = {
    ("ig", 3, 0, None): "637452356701ee5fd3f142c45ad9300e32ce353660f0a39c604a37de30d3a744",
    ("pg", 3, 0, None): "30c52aee40729b632d0273f9431d408db0d07e45a3bad4c936b1cd4bfcbd5971",
    ("pg-linked", 3, 0, None): "a39368addb7371248f0f5133b4dc74c51b2107bc1e92ae6959c7b475c549fbe3",
    ("pg-triangles", 3, 0, None): "a740926200719366fd6c62c5bbc202d900810505fc80c488d3d197e512596395",
    ("ig", 3, 1, None): "c40623ef48280f0b3170750a76e5e68241c9dd6cbd0346557c81311f885ffb05",
    ("pg", 3, 1, None): "3ebb3234251bcdbe06f23942d720c1dac10fd17aee715e325585d69493949462",
    ("pg-linked", 3, 1, None): "2e8490dd510de94181dba44d440ac90bd61015f1097853c380e8c94247e52425",
    ("pg-triangles", 3, 1, None): "474b85a1df30f412399f67e64bb06bb8913fc233bebf461c85199502fdd92c7b",
    ("ig", 3, 2, None): "8d4eb07f40dc3ff2ae4aece5bf0197e2c5b4369931f63e7c37f241f41b310c03",
    ("pg", 3, 2, None): "867e2958119b33e93ddac9594a45143ee358dbf012dfbd7bf9562dc7f5a5c9ca",
    ("pg-linked", 3, 2, None): "da898ba9389200498b05557d6fefa0979a675a819ffadac9888116217f7b1fc7",
    ("pg-triangles", 3, 2, None): "0c2ee1f1ddd8ade4d05e6dbe1c68b132b121fd490633750404856f764ac0d060",
    ("ig", 4, 2, None): "71ae6e58f3b3b3c6863080846f35129dbd6f26b07015266e5d0256ff655b1a46",
    ("pg", 4, 2, None): "8eb8d0c4a0d928a88650e4265d04cea5035acb56bb982313716688d8e5ff4e24",
    ("pg-linked", 4, 2, None): "8ed6fe8c59362c8fa65acd7266a9c64016c4422932e25a87089f120dda57efc1",
    ("pg-triangles", 4, 2, None): "50c3dae5efd875feeef727d78c73cb73aba5e763e20373ee00215e93e831aaba",
    ("ig", 3, 1, "bfs"): "c40623ef48280f0b3170750a76e5e68241c9dd6cbd0346557c81311f885ffb05",
    ("ig", 3, 1, "s"): "c40623ef48280f0b3170750a76e5e68241c9dd6cbd0346557c81311f885ffb05",
    ("ig", 3, 1, "pg"): "781395bc7ef1d539599a76f227e2f3bfe8b09f656fbcb1f6b532332febc16279",
}


def test_presentation_bytes_pinned(capsys):
    for (family, n, r, tree), digest in PRESENTATION_DIGESTS.items():
        argv = ["presentation", "--family", family, "--n", str(n), "--rank", str(r)]
        code, out = run(capsys, *argv, *(["--tree", tree] if tree else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, n, r, tree)


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
