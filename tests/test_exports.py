"""The package namespace: what `import diagfree` loads, and the names it
exports, eagerly from `diagram` and lazily from the pipeline modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagfree

# Every name the package exported when all its imports were eager, by the
# module that defines it.
EXPORTS = {
    "diagram": (
        "AdjacencySemigroup",
        "BrauerMonoid",
        "Partition",
        "PartitionMonoid",
        "TransformationMonoid",
        "TwistedElement",
        "identity",
        "involution",
        "multiply",
        "multiply_with_floats",
        "partition_from_blocks",
        "partition_from_text",
        "twisted_multiply",
    ),
    "green": ("DClassData", "dclass_data", "sandwich_set"),
    "groupid": (
        "IdentifyHints",
        "Verdict",
        "abelianization",
        "check_label_homomorphism",
        "identify",
        "smith_normal_form",
        "todd_coxeter",
    ),
    "present": (
        "GroupPresentation",
        "presn_ig",
        "presn_pg_linked",
        "presn_pg_squares",
        "tietze_simplify",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# The submodules that `import diagfree` bound as attributes, and so exported
# to `from diagfree import *`, when all its imports were eager.
SUBMODULES = ("biorder", "diagram", "ghgraph", "green", "groupid", "present")

# Run in a fresh interpreter: the modules that a handle adds to sys.modules.
HANDLE_PROBE = """
import json, sys
before = set(sys.modules)
import diagfree
diagfree.PartitionMonoid(4).elements()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Run in a fresh interpreter: each submodule as a package attribute, with
# nothing imported by name first, and what a star-import binds.
SUBMODULE_PROBE = """
import json
import diagfree
mods = [getattr(diagfree, m).__name__ for m in %r]
star = {}
exec("from diagfree import *", star)
print(json.dumps([mods, sorted(k for k in star if not k.startswith("_"))]))
""" % (SUBMODULES,)


def _fresh(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_handle_loads_only_diagram():
    added = _fresh(HANDLE_PROBE)
    ours = [m for m in added if m == "diagfree" or m.startswith("diagfree.")]
    assert ours == ["diagfree", "diagfree.diagram"]
    assert "dataclasses" not in added


def test_submodules_are_package_attributes():
    mods, star = _fresh(SUBMODULE_PROBE)
    assert mods == [f"diagfree.{m}" for m in SUBMODULES]
    assert star == sorted([*SUBMODULES, *(name for _, name in NAMES)])
    assert diagfree.present.subgroup_presentation  # noqa: B018


def test_export_count():
    assert len(NAMES) == 28
    assert sorted(diagfree.__all__) == sorted([*SUBMODULES, *(name for _, name in NAMES)])


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_home_object(module, name):
    home = getattr(importlib.import_module(f"diagfree.{module}"), name)
    assert getattr(diagfree, name) is home
    namespace = {}
    exec(f"from diagfree import {name}", namespace)
    assert namespace[name] is home
    assert name in diagfree.__all__


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diagfree.no_such_name  # noqa: B018
    assert not hasattr(diagfree, "no_such_name")
    with pytest.raises(ImportError):
        exec("from diagfree import no_such_name", {})


def test_submodules_still_import_by_name():
    from diagfree import biorder, ghgraph

    assert biorder is sys.modules["diagfree.biorder"]
    assert ghgraph is sys.modules["diagfree.ghgraph"]
