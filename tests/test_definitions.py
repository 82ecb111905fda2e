"""Every module-level name the package defines is read in the package or exported.

A plain `ast` walk over `src/evalcodes/*.py`: the functions, classes and
constants each module defines at top level against the names read anywhere
in the package and the names listed in `__all__`.  A definition that only
the tests use belongs in the tests.  Dunder names are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evalcodes"


def _defined(tree):
    """(line, name) of each function, class and constant bound at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unread_definitions(sources):
    """(module, line, name) of top-level definitions that nothing reads.

    `sources` maps module names to source text.  A name counts as read when
    any module loads it as a plain name or lists it in `__all__`.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _exported(tree)
        read |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for line, name in _defined(tree)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


def test_checker_flags_only_unread_definitions():
    sources = {
        "__init__": '__all__ = ["exported"]\n__version__ = "1"\n',
        "a": (
            "LIMIT = 3\n"
            "UNUSED, (_PAIR, TAIL) = 1, (2, 3)\n"
            "def exported(): return _helper()\n"
            "def _helper(): return LIMIT + TAIL\n"
            "def orphan(): pass\n"
            "class Reader: pass\n"
            "class Lonely: pass\n"
        ),
        "b": "from .a import Reader\nalias = Reader\n",
    }
    assert unread_definitions(sources) == [
        ("a", 2, "UNUSED"),
        ("a", 2, "_PAIR"),
        ("a", 5, "orphan"),
        ("a", 7, "Lonely"),
        ("b", 2, "alias"),
    ]


def test_every_definition_is_read_or_exported():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []
