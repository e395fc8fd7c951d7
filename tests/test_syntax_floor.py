"""The oldest Python that pyproject.toml admits parses every source file of
the package, the benchmarks and the tests, so syntax newer than the floor
fails here and not only on a CI runner with the older interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)
FILES = sorted(
    path
    for top in ("src/diagfree", "benchmarks", "tests")
    for path in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
