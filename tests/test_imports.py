"""Every name a module imports is used in that module.

A plain `ast` walk over the package sources and the tests: the names an
import binds against the names the module reads.  Package `__init__.py`
files are exempt, since their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in (ROOT / "src", ROOT / "tests")
    for path in folder.rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by imports in `source` that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_checker_flags_only_unread_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from itertools import product as prod\n"
        "print(loads, osp.join, prod)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
