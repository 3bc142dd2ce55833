import ast
import sys
from pathlib import Path

import affa

PACKAGE = Path(affa.__file__).parent


def _imports(path: Path):
    """Every module or module attribute a file imports, as an absolute
    dotted name (`from a import b` names both a and a.b)."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["affa", base]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_affa_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every import in the package
    # names a standard-library module or affa itself
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for name in _imports(path):
            top = name.split(".")[0]
            assert top == "affa" or top in sys.stdlib_module_names, \
                (path.name, name)


def test_fusion_does_not_import_the_labeling():
    # a simple class is an int in Z_N, so the fusion layer needs nothing
    # from the region labeling, the evaluator's independent check
    names = list(_imports(PACKAGE / "fusion.py"))
    assert "affa.theory" in names
    assert not [n for n in names
                if n == "affa.labeling" or n.startswith("affa.labeling.")]


def _defined(tree):
    """The package's own names: every top-level function and class, and
    every method of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("__"))


def _used(node, inside=frozenset()):
    """Every name a subtree reads: identifiers, attributes, imported names
    and the string constants a tracer wraps by name.  A function that
    calls itself does not count as its own caller."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else node.value if isinstance(node, ast.Constant)
            and isinstance(node.value, str) else None)
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _used(child, inside)


def test_every_name_has_a_caller_outside_the_tests():
    # a name only the tests call is an API nothing uses: the package, the
    # demos or the benchmark must read each function, class and method
    root = PACKAGE.parent.parent
    callers = [*PACKAGE.glob("*.py"), *(root / "demos").glob("*.py"),
               *(root / "perfbench").rglob("*.py")]
    used = set()
    for path in callers:
        if "tests" not in path.relative_to(root).parts:
            used.update(_used(ast.parse(path.read_text(), str(path))))
    defined = {name for path in PACKAGE.glob("*.py")
               for name in _defined(ast.parse(path.read_text(), str(path)))}
    assert len(defined) > 100
    assert sorted(defined - used) == []
