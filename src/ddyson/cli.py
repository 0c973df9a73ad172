"""Command-line driver: evolve states, sweep infidelity and list amplitudes
(CSV or JSON tables, ``--format``), and run the validation battery (a JSON
report of the suites drawn from ``--seed``).

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 capacity exceeded.  Output files are deterministic for a fixed
command line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from .engine import StateVector, amplitude_by_order, evolve, evolve_by_order
from .errors import CapacityError, ModelError, StiffnessError
from .models import (
    BUILTIN_MODELS,
    anharmonic_default_dimension,
    build_named,
    fermi_amplitude_closed_form,
    fermi_params,
    load_model,
)
from .oracles import infidelity, ode_evolve
from .validate import run_suites

PROB_FLAG_LIMIT = 1.0 + 1e-6
# Most points a time grid may ask for; every point is one engine run.
_MAX_TIME_STEPS = 10_000


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_time_grid(text: str) -> list[float]:
    """'0.5' -> [0.5]; '0:0.08:9' -> 9 evenly spaced points, strictly increasing."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError("time grid must be 'start:stop:steps'")
    ends = [float(v) for v in parts[:2]]
    # a non-finite start, stop or span gives a nan or inf difference
    if not math.isfinite(ends[-1] - ends[0]):
        raise argparse.ArgumentTypeError(f"times must be finite, got '{text}'")
    if len(parts) == 1:
        return ends
    steps = int(parts[2])
    if not 2 <= steps <= _MAX_TIME_STEPS or not ends[1] > ends[0]:
        raise argparse.ArgumentTypeError(
            f"time grid needs 2 <= steps <= {_MAX_TIME_STEPS} and stop > start")
    return [float(v) for v in np.linspace(*ends, steps)]


def _parse_time(text: str) -> float:
    t = float(text)
    if not math.isfinite(t):
        raise argparse.ArgumentTypeError(f"time must be finite, got '{text}'")
    return t


def _parse_order(text: str) -> int:
    try:
        q = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order '{text}'") from exc
    if q < 0:
        raise argparse.ArgumentTypeError("orders must be >= 0")
    return q


def _parse_order_list(text: str) -> list[int]:
    return [_parse_order(v) for v in text.split(",")]


def _parse_param(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--param expects k=v, got '{text}'")
    key, raw = text.split("=", 1)
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"--param value for '{key}' must be numeric") from exc
    return key.strip(), value


def _resolve_model(model_arg: str, params: dict, z0: int | None = None,
                   max_order: int | None = None):
    """Built-in name with params, or a JSON config path."""
    path = FsPath(model_arg)
    if path.exists():
        if params:
            raise ModelError("--param applies to built-in models only")
        return load_model(path.read_text(encoding="utf-8"))
    if model_arg in BUILTIN_MODELS:
        params = dict(params)
        if (model_arg == "anharmonic" and "n_max" not in params
                and z0 is not None and max_order is not None):
            params["n_max"] = anharmonic_default_dimension(z0, max_order)
        return build_named(model_arg, params)
    raise ModelError(
        f"'{model_arg}' is neither a config file nor a built-in model "
        f"({sorted(BUILTIN_MODELS)})")


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------

def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(rows: list[dict], columns: list[str], fmt: str, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps([{c: row.get(c) for c in columns} for row in rows],
                          indent=2) + "\n"
    if out_path:
        FsPath(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_evolve(args) -> int:
    model = _resolve_model(args.model, dict(args.param), z0=args.z0,
                           max_order=args.Q)
    rows = []
    for t in args.t:
        state = evolve(model, args.z0, t, args.Q)
        oracle = ode_evolve(model, args.z0, t) if args.oracle else None
        probs = state.probabilities()
        for z in range(model.dimension):
            if probs[z] > PROB_FLAG_LIMIT:
                print(f"warning: probability {probs[z]:.6g} at z={z}, t={t:g} "
                      f"exceeds 1 + 1e-6 (truncated series)", file=sys.stderr)
            row = {
                "t": float(t),
                "z": z,
                "re": float(state.amplitudes[z].real),
                "im": float(state.amplitudes[z].imag),
                "prob": float(probs[z]),
            }
            if oracle is not None:
                row["oracle_re"] = float(oracle.amplitudes[z].real)
                row["oracle_im"] = float(oracle.amplitudes[z].imag)
                row["oracle_prob"] = float(abs(oracle.amplitudes[z]) ** 2)
            rows.append(row)
    columns = ["t", "z", "re", "im", "prob"]
    if args.oracle:
        columns += ["oracle_re", "oracle_im", "oracle_prob"]
    _write_rows(rows, columns, args.format, args.out)
    return 0


def _cmd_infidelity_sweep(args) -> int:
    q_list = sorted(set(args.Q))
    q_top = q_list[-1]
    model = _resolve_model(args.model, dict(args.param), z0=args.z0,
                           max_order=q_top)
    rows = []
    for t in args.t:
        reference = ode_evolve(model, args.z0, t)
        orders = evolve_by_order(model, args.z0, t, q_top)
        for q in q_list:
            truncated = StateVector(amplitudes=orders[: q + 1].sum(axis=0),
                                    time=float(t))
            rows.append({"t": float(t), "Q": q,
                         "infidelity": float(infidelity(reference, truncated))})
    _write_rows(rows, ["t", "Q", "infidelity"], args.format, args.out)
    return 0


def _cmd_amplitude(args) -> int:
    t, q_max = args.t, args.Q
    model = _resolve_model(args.model, dict(args.param), z0=args.zin,
                           max_order=q_max)

    closed = None
    if args.model == "fermi":
        fp = fermi_params(dict(args.param))
        closed = [fermi_amplitude_closed_form(fp, q, t) for q in range(q_max + 1)]

    amps = amplitude_by_order(model, args.zin, args.zfin, t, q_max)
    cum = np.cumsum(amps)
    rows = []
    for q in range(q_max + 1):
        row = {
            "order": q,
            "re": float(amps[q].real),
            "im": float(amps[q].imag),
            "cum_re": float(cum[q].real),
            "cum_im": float(cum[q].imag),
            "closed_re": None,
            "closed_im": None,
        }
        if closed is not None:
            row["closed_re"] = float(closed[q].real)
            row["closed_im"] = float(closed[q].imag)
        rows.append(row)
    _write_rows(rows, ["order", "re", "im", "cum_re", "cum_im",
                       "closed_re", "closed_im"], args.format, args.out)
    return 0


def _cmd_validate(args) -> int:
    model = None
    if args.model is not None:
        model = _resolve_model(args.model, dict(args.param))
    results = run_suites(seed=args.seed, model=model)
    report = {
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        FsPath(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status:4s} {r.name}: max error {r.max_error:.3e} "
              f"(tolerance {r.tolerance:.0e}, {r.cases} cases)",
              file=sys.stderr)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddyson",
        description="Integral-free Dyson-series propagation via divided "
                    "differences of the exponential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_model=True):
        if need_model:
            p.add_argument("--model", required=True,
                           help="built-in name or JSON config path")
        else:
            p.add_argument("--model", default=None,
                           help="optional model to include in the checks")
        p.add_argument("--param", action="append", type=_parse_param,
                       default=[], metavar="k=v",
                       help="built-in model parameter (repeatable)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_table_command(name, summary):
        p = sub.add_parser(name, help=summary)
        add_common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = add_table_command("evolve", "per-state amplitudes and populations")
    p.add_argument("--z0", type=int, required=True)
    p.add_argument("--t", type=_parse_time_grid, required=True,
                   metavar="val|start:stop:steps")
    p.add_argument("--Q", type=_parse_order, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="add adaptive-integration reference columns")
    p.set_defaults(func=_cmd_evolve)

    p = add_table_command("infidelity-sweep",
                          "1 - |<psi|psi_Q>|^2 against the ODE reference")
    p.add_argument("--z0", type=int, required=True)
    p.add_argument("--t", type=_parse_time_grid, required=True)
    p.add_argument("--Q", type=_parse_order_list, required=True,
                   help="comma-separated truncation orders")
    p.set_defaults(func=_cmd_infidelity_sweep)

    p = add_table_command("amplitude", "order-resolved transition amplitudes")
    p.add_argument("--zin", type=int, required=True)
    p.add_argument("--zfin", type=int, required=True)
    p.add_argument("--t", type=_parse_time, required=True)
    p.add_argument("--Q", type=_parse_order, required=True)
    p.set_defaults(func=_cmd_amplitude)

    p = sub.add_parser("validate", help="run the randomized cross-check suites")
    add_common(p, need_model=False)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random cases")
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StiffnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
