"""Spans around the calls into each ddyson layer, for the traced run.

The tracer replaces module attributes with wrappers that record a span
(layer, name, start, end, parent).  The attributes are the names through
which one ddyson module calls another, and through which the benchmark
calls the program; nothing in ddyson changes, and ``uninstall`` puts the
originals back.  Spans are kept in memory and written out when the run ends.

Only the outermost call into a layer makes a span: ``evolve`` calls
``evolve_by_order`` through a wrapped name, and that inner call is part of
the outer span.  A span's self time is its duration minus that of its child
spans.

A call site listed below that no longer exists is reported as unmeasured,
and every metric that reads its layer is printed as null, never as 0: a
call moved elsewhere must not read as a layer that became free.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np

ENGINE = ("evolve_by_order", "evolve", "evolve_ti", "amplitude_by_order",
          "transition_amplitude")
BUILDERS = ("build_named", "load_model", "build_single_spin", "build_anharmonic",
            "build_fermi")

# layer -> (module of the call site, attribute name) pairs
CALL_SITES = {
    "divdiff": [("engine", "exp_dd"), ("engine", "exp_dd_batch"),
                ("models", "exp_dd"), ("validate", "exp_dd")],
    "engine": [("engine", n) for n in ENGINE]
              + [("cli", "evolve"), ("cli", "evolve_by_order"),
                 ("cli", "amplitude_by_order"), ("validate", "evolve"),
                 ("validate", "evolve_ti")],
    "oracles": [("cli", "ode_evolve"), ("cli", "infidelity"),
                ("validate", "simplex_integral"), ("validate", "mat_exp_evolve")],
    "validate": [("cli", "run_suites")],
    "models": [("models", n) for n in BUILDERS]
              + [("cli", "build_named"), ("cli", "load_model")],
    "cli": [("cli", "run")],
}

# per-layer metric -> (unit, layers it reads)
METRICS = {
    "divdiff.calls": ("count", {"divdiff"}),
    "divdiff.rows": ("count", {"divdiff"}),
    "divdiff.busy_s": ("s", {"divdiff"}),
    "divdiff.rows_per_s": ("rows/s", {"divdiff"}),
    "divdiff.rows_per_call": ("rows", {"divdiff"}),
    "divdiff.width_mean": ("nodes", {"divdiff"}),
    "divdiff.t_spread_max": ("1", {"divdiff"}),
    "engine.calls": ("count", {"engine"}),
    "engine.busy_s": ("s", {"engine"}),
    "engine.self_s": ("s", {"engine", "divdiff"}),
    "engine.kernel_calls_per_op": ("count", {"engine", "divdiff"}),
    "engine.kernel_rows_per_op": ("count", {"engine", "divdiff"}),
    "oracles.calls": ("count", {"oracles"}),
    "oracles.busy_s": ("s", {"oracles"}),
    "validate.busy_s": ("s", {"validate"}),
    "validate.cases": ("count", {"validate"}),
    "models.busy_s": ("s", {"models"}),
    "cli.busy_s": ("s", {"cli"}),
    "cli.self_s": ("s", set(CALL_SITES)),
    "cli.output_bytes": ("bytes", {"cli"}),
}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "detail")

    def __init__(self, layer: str, name: str, parent: int):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.detail = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _out_path(argv):
    argv = list(argv or [])
    if "--out" in argv[:-1]:
        return Path(argv[argv.index("--out") + 1])
    return None


class Tracer:
    """Wraps the call sites of ``CALL_SITES`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.log: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer, sites in CALL_SITES.items():
            for mod_name, attr in sites:
                module = importlib.import_module(f"ddyson.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"ddyson.{mod_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, f"{mod_name}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def unmeasured_layers(self) -> set[str]:
        return {layer for layer, sites in CALL_SITES.items()
                if any(f"ddyson.{m}.{a}" in self.missing for m, a in sites)}

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            span = Span(layer, name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            # what the counters need, kept by reference; read after the round
            if layer == "divdiff":
                span.detail = args if len(args) >= 2 else (
                    kwargs.get("t", args[0] if args else None),
                    kwargs.get("inputs", kwargs.get("node_rows")))
            elif layer == "validate":
                span.detail = sum(r.cases for r in out)
            elif layer == "cli":
                out_path = _out_path(args[0] if args else kwargs.get("argv"))
                span.detail = out_path.stat().st_size if (
                    out_path is not None and out_path.exists()) else 0
            return out
        return traced

    # -- per-round figures --------------------------------------------------

    def end_round(self, label: str, n_ops: int) -> dict:
        """Per-layer figures of the spans since the last call; clears them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        self_time = [s.duration - c for s, c in zip(spans, child)]

        def layer(name):
            return [i for i, s in enumerate(spans) if s.layer == name]

        dd = layer("divdiff")
        rows = width = 0
        spread = 0.0
        rows_in_engine = calls_in_engine = 0
        for i in dd:
            t, nodes = spans[i].detail
            x = np.atleast_2d(np.asarray(nodes, dtype=complex))
            rows += x.shape[0]
            width += x.size
            if x.size:
                box = np.hypot(np.ptp(x.real, axis=1), np.ptp(x.imag, axis=1))
                spread = max(spread, abs(float(t)) * float(box.max()))
            parent = spans[i].parent
            if parent >= 0 and spans[parent].layer == "engine":
                calls_in_engine += 1
                rows_in_engine += x.shape[0]
        dd_busy = sum(spans[i].duration for i in dd)
        figures = {
            "divdiff.calls": len(dd),
            "divdiff.rows": rows,
            "divdiff.busy_s": dd_busy,
            "divdiff.rows_per_s": rows / dd_busy if dd_busy > 0 else 0.0,
            "divdiff.rows_per_call": rows / len(dd) if dd else 0.0,
            "divdiff.width_mean": width / rows if rows else 0.0,
            "divdiff.t_spread_max": spread,
            "engine.calls": len(layer("engine")),
            "engine.busy_s": sum(spans[i].duration for i in layer("engine")),
            "engine.self_s": sum(self_time[i] for i in layer("engine")),
            "engine.kernel_calls_per_op": calls_in_engine / n_ops,
            "engine.kernel_rows_per_op": rows_in_engine / n_ops,
            "oracles.calls": len(layer("oracles")),
            "oracles.busy_s": sum(spans[i].duration for i in layer("oracles")),
            "validate.busy_s": sum(spans[i].duration for i in layer("validate")),
            "validate.cases": sum(spans[i].detail for i in layer("validate")),
            "models.busy_s": sum(spans[i].duration for i in layer("models")),
            "cli.busy_s": sum(spans[i].duration for i in layer("cli")),
            "cli.self_s": sum(self_time[i] for i in layer("cli")),
            "cli.output_bytes": sum(spans[i].detail for i in layer("cli")),
        }
        base = len(self.log)
        for s in spans:
            self.log.append({"round": label, "layer": s.layer, "name": s.name,
                             "start": s.start, "end": s.end,
                             "parent": base + s.parent if s.parent >= 0 else None})
        spans.clear()
        return figures

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unmeasured": self.missing, "spans": self.log}),
                        encoding="utf-8")
