"""The third-party modules that src/quaddyn imports, at module load or
inside functions, are exactly the dependencies that pyproject.toml declares
(their distribution and module names coincide)."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels():
    names = set()
    for path in sorted((ROOT / "src" / "quaddyn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)[1]
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block))


def test_imports_are_the_declared_dependencies():
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) - {"quaddyn"}
    assert third_party == _declared_dependencies()
