"""README's stated outputs: every CLI line in README.md whose comment
states an output, and the library example, are run, and each stated
output is checked against both what the code prints and what README says.
The CLI lines run in an empty directory that holds the files README's
`printf` lines write."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from diagfree.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# README's CLI lines that state an output, and the output each states.
STATED = {
    "identify --family ig --n 3 --rank 0": "Z (free rank 1)",
    "identify --family pg-linked --n 3 --rank 0": "trivial",
    "identify --family pg --n 4 --rank 2": "S_2 (order 2, certified)",
    "stats --monoid tn --n 3 --rank 2": "GH graph: 3+3 vertices",
    "identify --monoid adjacency --graph c4.edges --family pg --rank 1": "Z (free rank 1)",
}
LIBRARY_OUTPUT = "S_2 (order 2, certified)"


def _fenced(lang, text=README):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_readme_states_these_outputs():
    """Each `diagfree ...  # comment` line of the shell blocks in README's
    CLI section is one of STATED, with its output as the comment, quoted
    or not."""
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    lines = [line for block in _fenced("sh", section) for line in block.splitlines()]
    stated = {
        m[1].strip(): m[2].strip().strip('"')
        for m in map(re.compile(r"diagfree (.+?)\s+# (.+)").fullmatch, lines)
        if m
    }
    assert stated == STATED


@pytest.mark.parametrize("command", STATED)
def test_readme_cli_output(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for text, name in re.findall(r"^printf '(.*)' > (\S+)$", README, re.M):
        (tmp_path / name).write_text(text.replace("\\n", "\n"))
    assert main(command.split()) == 0
    assert STATED[command] in capsys.readouterr().out


def test_readme_library_example():
    (example,) = _fenced("python")
    assert example.rstrip().endswith(f"# {LIBRARY_OUTPUT}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert out.getvalue() == LIBRARY_OUTPUT + "\n"
