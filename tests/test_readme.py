"""The README's library example runs and prints the values its comments state."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_stated_values():
    block = library_block()
    for stated in ("# 0.0178", "# exp(-3) = 0.0498", "# [1.5, 0, 0]"):
        assert stated in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    gumbel_p, cov_p, beta = out.getvalue().splitlines()
    assert f"{float(gumbel_p):.4f}" == "0.0178"
    assert float(cov_p) == pytest.approx(math.exp(-3), abs=1e-12)
    assert f"{float(cov_p):.4f}" == "0.0498"
    np.testing.assert_allclose(np.array(beta.strip("[]").split(), dtype=float), [1.5, 0, 0],
                               atol=1e-12)

