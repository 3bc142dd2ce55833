import ast
import sys
from pathlib import Path

import affa


def test_affa_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every absolute import in the
    # package names a standard-library module or affa itself
    files = sorted(Path(affa.__file__).parent.glob("*.py"))
    assert len(files) > 10
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "affa" or top in sys.stdlib_module_names, \
                    (path.name, name)
