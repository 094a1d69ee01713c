"""``src/`` holds its size: ``wc -l src/sigtest/*.py`` may not pass a cap.

ROADMAP item 5 holds the source from one greedy walk for every family on: a
change does not grow ``src/`` on net. A change that has to grow it raises
``MAX_SOURCE_LINES`` in the same diff and says why in ``CHANGES.md``; a change
that shrinks it may lower the cap.
"""

from pathlib import Path

import sigtest

MAX_SOURCE_LINES = 2514


def test_source_does_not_pass_its_cap():
    modules = sorted(Path(sigtest.__file__).resolve().parent.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in modules)  # as wc -l counts
    assert len(modules) > 1 and lines > 0
    assert lines <= MAX_SOURCE_LINES, (
        f"src/sigtest/*.py has {lines} lines, over the cap of {MAX_SOURCE_LINES}: ROADMAP "
        "item 5 holds src/ from here on; raise MAX_SOURCE_LINES only with a reason in CHANGES.md")
