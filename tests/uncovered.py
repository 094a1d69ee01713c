"""List the statements of ``src/sigtest`` that the test suite never executes.

Usage, from the root of a checkout:

    python3 tests/uncovered.py

Runs ``pytest tests -q -p no:cacheprovider`` in this process under a
``sys.settrace`` line tracer, then prints every statement of
``src/sigtest/*.py`` that no test reached, as ``path:line: source``, and the
total. Standard library only. Docstrings and ``def``, ``class`` and
``import`` lines are not counted; a statement counts as run when any line of
it (the header only, for a compound statement) produced a line event. Code
that only runs in a subprocess (``python -m sigtest``, a process pool) is
not seen. The name does not start with ``test_``, so pytest never collects
this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sigtest"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try)  # a try line holds no code of its own; its body is counted


def statements(path: Path) -> dict[int, range]:
    """Each counted statement of a module: its first line -> the lines it spans."""
    spans = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return spans


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, _arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        # At interpreter exit a frame's code may have no filename left.
        name = getattr(getattr(frame, "f_code", None), "co_filename", None)
        return local if name in hit else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)

    missed = []
    for name, path in files.items():
        source = path.read_text().splitlines()
        for first, lines in sorted(statements(path).items()):
            if hit[name].isdisjoint(lines):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} statements of src/sigtest never executed (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
