"""Every name a module under ``src/sigtest/`` imports is used in that module.

``__init__.py`` is exempt: it imports names only to re-export them. A name
counts as used when it appears as an identifier anywhere in the module,
annotations included. Names inside quoted annotations are not read; the
package has none.
"""

import ast
from pathlib import Path

import pytest

import sigtest

PACKAGE = Path(sigtest.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a".
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b, c\nb()\n", ["c (line 1)"]),
    ("from a import b as d\nb\n", ["d (line 1)"]),
    ("from __future__ import annotations\nfrom t import T\ndef f(x: T): pass\n", []),
    ("from t import T\nprint('T')\n", ["T (line 1)"]),
])
def test_checker_examples(source, unused):
    assert unused_imports(source) == unused
