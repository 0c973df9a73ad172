"""The README's library quick tour runs as written and prints what its
comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    norm, infidelity, value = printed.getvalue().split("\n")[:3]
    # the truncated expansion against the ODE reference, and the kernel
    assert float(norm) < 1e-7
    assert abs(float(infidelity)) < 1e-7
    value = complex(value)
    assert math.isfinite(value.real) and math.isfinite(value.imag)
