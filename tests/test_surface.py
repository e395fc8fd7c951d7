"""Guard against dead public API: every public module-level function or class
of the package, every public method or property of its classes, and every
public annotated field of its classes is used somewhere else in the package,
or is kept for a stated reason.  Package imports sit at module level unless
kept local for a stated reason."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diagfree"

# Public names that nothing else in the package calls, each kept because it
# states a definition or a result of the paper.
PAPER_OBJECTS = (
    "is_linked_pair",  # the linked-pair condition s = spups, u = upspu
    "is_linked_diamond",  # the linked-diamond condition over P_D
    "is_coxeter_idempotent",  # idempotents labelled by adjacent transpositions
    "r_projection",  # the right projection R(a) = id_coker(a), with a R(a) = a
    "relator_key",  # relators up to rotation and inversion, the Tietze key
    "emit_semigroup_presentation",  # the defining presentations of IG, RIG, PG
)


# Public methods that nothing in the package reads, each with its reason.
KEPT_METHODS = (
    "ranks",  # each handle's D-class ranks, which the tests parametrise over
    "render",  # SemigroupPresentationDoc's text: the paper's presentation of IG, RIG, PG
)


# Public annotated fields that nothing in the package reads, each with its
# reason.
KEPT_FIELDS = (
    "cosets_defined",  # the coset counter that `benchmarks/spans.py` and the tests read
)


# Package imports made inside a function body, each with its reason.
LOCAL_IMPORTS = (
    # `diagfree verify` alone compiles verify.py; the other commands do not.
    ("cli.py", "cmd_verify", "verify"),
)


# The package's modules: `ghgraph.build_gh_graph` uses a module-level name,
# while a method call such as `self.is_idempotent(x)` does not.
MODULES = {path.stem for path in SRC.glob("*.py")}


def _references(node: ast.AST) -> set[str]:
    """Names that node uses: plain names, imported names, and attributes
    read off a package module by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in MODULES
        ):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _public_names_and_uses():
    """(module, index, name) of each public top-level def or class, index
    being its place in the module body, and the names each top-level
    statement uses, keyed (module, index).  A definition's own statement
    does not count as a use, so recursion alone does not keep a name."""
    defs, uses = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for k, stmt in enumerate(tree.body):
            uses[(path.name, k)] = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs.append((path.name, k, stmt.name))
    return defs, uses


def test_public_api_is_used_or_a_paper_object():
    defs, uses = _public_names_and_uses()
    unused = [
        f"{module}:{name}"
        for module, k, name in defs
        if name not in PAPER_OBJECTS
        and not any(name in names for where, names in uses.items() if where != (module, k))
    ]
    assert not unused, f"public names used nowhere else in the package: {unused}"
    assert set(PAPER_OBJECTS) <= {name for _, _, name in defs}


def _attribute_reads(node: ast.AST) -> Counter:
    """How often node reads each attribute name, as in `h.rank(x)`."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def test_public_methods_are_read_or_kept():
    """A method or property counts as used when `.name` is read somewhere
    in the package outside its own body."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    methods = [
        (f"{module}:{cls.name}.{node.name}", node)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unused = [
        where
        for where, node in methods
        if node.name not in KEPT_METHODS
        and reads[node.name] == _attribute_reads(node)[node.name]
    ]
    assert not unused, f"public methods read nowhere else in the package: {unused}"
    assert set(KEPT_METHODS) <= {node.name for _, node in methods}


def test_public_fields_are_read_or_kept():
    """An annotated field counts as used when `.name` is read anywhere in
    the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    fields = [
        (f"{module}:{cls.name}.{node.target.id}", node.target.id)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
    ]
    unused = [where for where, name in fields if name not in KEPT_FIELDS and not reads[name]]
    assert not unused, f"public fields read nowhere in the package: {unused}"
    assert set(KEPT_FIELDS) <= {name for _, name in fields}


def _local_imports(node: ast.AST, where: str | None = None):
    """(function, module) for each relative import inside a function body,
    named by the innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _local_imports(child, child.name)
        elif isinstance(child, ast.ImportFrom) and child.level and where:
            yield where, child.module
        else:
            yield from _local_imports(child, where)


def test_package_imports_are_module_level_or_kept():
    """A `from .x import` inside a function hides a module dependency in a
    body; only the imports in LOCAL_IMPORTS may do so."""
    found = [
        (path.name, fn, module)
        for path in sorted(SRC.glob("*.py"))
        for fn, module in _local_imports(ast.parse(path.read_text()))
    ]
    flagged = [
        f"{module}:{fn} imports .{imported}"
        for module, fn, imported in found
        if (module, fn, imported) not in LOCAL_IMPORTS
    ]
    assert not flagged, f"function-local package imports: {flagged}"
    assert set(LOCAL_IMPORTS) <= set(found)
