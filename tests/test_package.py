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
