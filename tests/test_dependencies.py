"""The package has no runtime dependencies: it imports only the standard
library and itself, and its metadata declares none."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "heckepieces").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"heckepieces"}]
    assert outside == []


def test_package_imports_only_at_module_level():
    """No import sits inside a function, class or branch, so a module's
    imports all run when it is loaded."""
    nested = []
    for path in sorted((ROOT / "src" / "heckepieces").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.M)
