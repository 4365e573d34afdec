"""Every name a library module imports is used in that module, and every
name `special` declares in `__all__` is exported by the package.

No linter ships with the project, so this parses each module with the
standard library's `ast`.  `__init__.py` is skipped: it imports names only
to re-export them.
"""
import ast
from pathlib import Path

import pytest

import binomci
from binomci import special

SRC = Path(__file__).resolve().parent.parent / "src" / "binomci"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its objects in a string, and so does __all__
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = [node.returns, *(arg.annotation for arg in args)]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            notes = list(ast.walk(node.value))
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                quoted = ast.walk(ast.parse(note.value))
                used.update(n.id for n in quoted if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = (
        "import math\nfrom .special import BetaParams, log_gamma\n"
        "def f(x: 'BetaParams') -> float:\n    return log_gamma(x.a)\n"
        "__all__ = ['unquoted']\nmessage = 'math'\n"
    )
    assert unused_imports(source) == ["math (line 1)"]


def test_special_exports_every_declared_name():
    assert [name for name in special.__all__ if not hasattr(binomci, name)] == []
