"""Benchmark of ddyson: three workloads, one caller each, checked outputs.

    python3 bench/run.py --workload orders --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, each in a fresh process

A run of one workload:

1. times set-up in fresh interpreters: each probe starts Python, imports
   ddyson and builds the workload's inputs, and is timed until it reports
   ready.  One warm-up probe is discarded; ``setup_s`` is the median of the
   rest.
2. builds the same inputs in this process and runs whole rounds of the
   workload's fixed operation list, one operation after another, until
   ``--seconds`` have passed (at least one round).
3. checks every result of every round against an independent computation
   (``checks.py``), outside the timed region, and shows that each check
   rejects a perturbed copy of a result.
4. prints one JSON object as the last line of standard output: with
   ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
   metrics of a run that alternates untraced and traced rounds.

Human-readable detail goes to standard error.  Exit code 0 means the run
finished; ``correct`` in the JSON says whether every result passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("orders", "ti-high", "cli")
SETUP_PROBES = 5
CALIBRATION_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def _load_program() -> None:
    """Make ``src/ddyson`` and the benchmark's modules importable."""
    if not (ROOT / "src" / "ddyson" / "__init__.py").is_file():
        sys.exit(f"error: no ddyson sources under {ROOT / 'src'}; run the "
                 "benchmark from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, build inputs, report ready."""
    start = time.perf_counter()
    import ddyson  # noqa: F401
    imported = time.perf_counter()
    import workloads
    workloads.build(workload, seed, OUT)
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": ready - imported}),
          flush=True)


def _probe_once(workload: str, seed: int) -> tuple[float, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready, json.loads(line)


def measure_setup(workload: str, seed: int) -> dict:
    _probe_once(workload, seed)  # warm-up: byte-compiles, fills the file cache
    samples = [_probe_once(workload, seed) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "import_s": statistics.median(s[1]["import_s"] for s in samples),
        "inputs_s": statistics.median(s[1]["inputs_s"] for s in samples),
        "samples": [s[0] for s in samples],
    }


def calibrate_ms() -> float:
    """Median time of a fixed pure-Python loop that runs no ddyson code."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds and checks
# ---------------------------------------------------------------------------

def run_round(ops) -> tuple[list[float], list]:
    """Run every operation once, in order; time only the program call."""
    times, results = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            ret, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            ret, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        results.append((op.collect(ret) if error is None else None, error))
    return times, results


def check_rounds(ops, rounds) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, notes) over every result of every round."""
    import checks

    refs, passing, notes = {}, {}, []
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for i, (op, (result, error)) in enumerate(zip(ops, rnd["results"])):
            attempted += 1
            why = error
            if why is None:
                if i not in refs:
                    refs[i] = checks.reference(op)
                try:
                    parsed = checks.parse(op, result)
                    why = checks.verify(op, parsed, refs[i])
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    why = f"unreadable result: {type(exc).__name__}: {exc}"
                if why is None:
                    passing.setdefault(i, parsed)
            if why is None:
                continue
            failed += 1
            note = f"FAIL {op.label}: {why}"
            if op.known_fault:
                note += f" [known fault: {op.known_fault}]"
            else:
                correct = False
            if note not in notes:
                notes.append(note)
    for i, op in enumerate(ops):
        if op.known_fault and i in passing:
            notes.append(f"note: {op.label} passes; the known fault no longer shows")
    rejected = 0
    for i, parsed in passing.items():
        for name, altered in checks.perturbations(ops[i], parsed):
            if checks.verify(ops[i], altered, refs[i]) is None:
                correct = False
                notes.append(f"SELF-TEST {ops[i].label}: check accepted {name}")
            else:
                rejected += 1
    notes.append(f"self-test: the checks rejected {rejected} perturbed results")
    return attempted, failed, correct, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = measure_setup(workload, seed)

    import workloads
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build(workload, seed, OUT)
    setup_models_s = 0.0
    if tracer:
        setup_models_s = tracer.end_round("setup", len(ops))["models.busy_s"]
        tracer.uninstall()

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            times, results = run_round(ops)
            figures = None
            if traced:
                figures = tracer.end_round(f"round {len(rounds)}", len(ops))
                tracer.uninstall()
            rounds.append({"traced": traced, "times": times, "results": results,
                           "figures": figures})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, correct, notes = check_rounds(ops, rounds)

    plain = [r for r in rounds if not r["traced"]]
    run_s = statistics.median(sum(r["times"]) for r in plain)
    op_times = [t for r in plain for t in r["times"]]
    _report(workload, seed, ops, plain, setup, notes)

    if not trace:
        values = {"setup_s": setup["setup_s"], "run_s": run_s,
                  "op_p50_ms": statistics.median(op_times) * 1e3,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = _per_layer(tracer, [r for r in rounds if r["traced"]], run_s,
                             setup, setup_models_s)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _per_layer(tracer, traced_rounds, plain_run_s, setup, setup_models_s) -> dict:
    import tracing

    unmeasured = tracer.unmeasured_layers()
    if tracer.missing:
        print(f"unmeasured call sites: {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = {}
    for name, (unit, reads) in tracing.METRICS.items():
        value = statistics.median(r["figures"][name] for r in traced_rounds)
        if name == "models.busy_s":
            value += setup_models_s
        metrics[name] = {"value": None if reads & unmeasured else value, "unit": unit}
    traced_run_s = statistics.median(sum(r["times"]) for r in traced_rounds)
    metrics["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
    metrics["setup.inputs_s"] = {"value": setup["inputs_s"], "unit": "s"}
    metrics["machine.calib_ms"] = {"value": calibrate_ms(), "unit": "ms"}
    metrics["trace.overhead_s"] = {"value": traced_run_s - plain_run_s, "unit": "s"}
    return metrics


def _report(workload, seed, ops, rounds, setup, notes) -> None:
    err = sys.stderr
    print(f"== {workload} seed {seed}: {len(rounds)} untraced round(s); set-up "
          "probes " + " ".join(f"{s:.3f}" for s in setup["samples"]) + " s", file=err)
    for i, op in enumerate(ops):
        times = [r["times"][i] for r in rounds]
        print(f"  {statistics.median(times) * 1e3:9.1f} ms  {op.label}", file=err)
    for note in notes:
        print(f"  {note}", file=err)


# ---------------------------------------------------------------------------
# every workload, each in a fresh process
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: int) -> int:
    results, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        if not results[workload]["correct"]:
            status = 1
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:28s} {value:>14s} {m['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    _load_program()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
