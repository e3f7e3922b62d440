"""The package imports nothing outside the standard library.

README and ``pyproject.toml`` (``dependencies = []``) promise a
stdlib-only package; this parses every module and checks each absolute
import's top-level name against ``sys.stdlib_module_names``.
"""

import ast
import sys
from pathlib import Path

import butterfly_agents

PACKAGE_DIR = Path(butterfly_agents.__file__).parent


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) >= 10
    foreign = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
