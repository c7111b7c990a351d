"""Every module of the package uses every name it imports, and a CLI call
imports no module it does not need.

A name left imported after its last use goes unnoticed by the other tests;
this check reads each module's syntax tree with the standard `ast` module.
The package's `__init__.py` is left out, since its imports are its API.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import abelianize

PACKAGE = Path(abelianize.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in the source that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os, sys as system\nfrom math import comb, prod\nprint(os.sep, comb(3, 2))\n"
    assert unused_imports(source) == ["system", "prod"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_cli_imports_neither_dataclasses_nor_inspect():
    # `dataclasses` pulls in `inspect`, a noticeable share of every CLI
    # call's start-up, for records a `NamedTuple` holds as well
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import abelianize.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
