"""The traced benchmark runs on the program as it stands.

One round of each workload of ``bench/workloads.py`` under
``bench/tracing.Tracer``, both imported from ``bench/`` as the benchmark
imports them.  The tracer keeps each wrapped kernel call as (t, nodes)
and reads ``float(t)`` and ``np.asarray(nodes)`` after the round, so a
call through a traced name with one time per row, or a call site that no
longer exists, shows here.
"""

import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_cli_round(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    ops = workloads.build("cli", 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            op.collect(op.call())
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    figures = tracer.end_round("round 0", len(ops))
    assert figures["divdiff.calls"] > 0
    assert all(math.isfinite(value) for value in figures.values()), figures


@pytest.mark.parametrize("workload", ["orders", "ti-high"])
def test_traced_engine_round(workload, tmp_path, monkeypatch):
    # the two workloads whose kernel rows come from evolve_by_order
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    ops = workloads.build(workload, 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            op.collect(op.call())
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    figures = tracer.end_round("round 0", len(ops))
    assert figures["divdiff.calls"] > 0
    assert all(math.isfinite(value) for value in figures.values()), figures
