"""Command-line driver: output contracts, determinism, exit codes."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ddyson
from ddyson import (
    SingleSpinParams,
    StateVector,
    build_single_spin,
    evolve,
    infidelity,
    mat_exp_evolve,
    model_to_json,
    ode_evolve,
)
from ddyson import cli, oracles, validate
from ddyson.cli import run
from ddyson.validate import random_ti_model

SPIN_ARGS = ["--model", "single_spin", "--param", "a=1", "--param", "b=0.5",
             "--param", "gamma=0.2"]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- evolve ---------------------------------------------------------------------

def test_evolve_csv_columns_and_values(tmp_path):
    out = tmp_path / "evolve.csv"
    code = run(["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "6",
                "--oracle", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert list(rows[0].keys()) == ["t", "z", "re", "im", "prob",
                                    "oracle_re", "oracle_im", "oracle_prob"]
    assert len(rows) == 2
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))
    st = evolve(m, 0, 0.5, 6)
    for row in rows:
        z = int(row["z"])
        assert float(row["re"]) == pytest.approx(st.amplitudes[z].real, abs=1e-15)
        assert float(row["prob"]) == pytest.approx(abs(st.amplitudes[z]) ** 2,
                                                   abs=1e-15)
        assert 0.0 <= float(row["prob"]) <= 1.0 + 1e-6


def test_evolve_free_model_single_occupied_state(tmp_path):
    cfg = {
        "dimension": 3,
        "energies": [0.0, 1.0, 2.0],
        "terms": [{"shift_map": 0, "factors": [{"lambda": 0, "d": 0}]}],
    }
    cfg_path = tmp_path / "free.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "free.csv"
    assert run(["evolve", "--model", str(cfg_path), "--z0", "1",
                "--t", "0.8", "--Q", "3", "--out", str(out)]) == 0
    rows = read_csv(out)
    probs = {int(r["z"]): float(r["prob"]) for r in rows}
    assert probs[1] == pytest.approx(1.0, abs=1e-14)
    assert probs[0] == 0.0 and probs[2] == 0.0


def test_evolve_time_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0:0.4:3",
                "--Q", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["t"]) for r in rows] == [0.0, 0.0, 0.2, 0.2, 0.4, 0.4]


def test_evolve_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "5"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_json_format(tmp_path):
    out = tmp_path / "evolve.json"
    assert run(["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "3",
                "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(rows, list) and set(rows[0]) == {"t", "z", "re", "im", "prob"}


def strict_json(path):
    # NaN and Infinity are not JSON: a strict parser rejects them
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_json_rows_write_non_finite_as_null(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "infidelity", lambda reference, state: float("nan"))
    out = tmp_path / "sweep.json"
    assert run(["infidelity-sweep", *SPIN_ARGS, "--z0", "0", "--t", "0.5",
                "--Q", "0,1", "--format", "json", "--out", str(out)]) == 0
    assert strict_json(out) == [{"t": 0.5, "Q": 0, "infidelity": None},
                                {"t": 0.5, "Q": 1, "infidelity": None}]


def test_evolve_flags_probabilities_above_one(tmp_path, capsys):
    # strong coupling at long time blows the truncated series past unit norm;
    # values are emitted raw and flagged on stderr
    out = tmp_path / "blow.csv"
    assert run(["evolve", "--model", "single_spin", "--param", "a=0",
                "--param", "b=5", "--z0", "0", "--t", "2.0", "--Q", "3",
                "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "exceeds 1 + 1e-6" in err
    assert any(float(r["prob"]) > 1 + 1e-6 for r in read_csv(out))


@pytest.fixture
def oracle_calls(monkeypatch):
    """The arguments of each ``cli.ode_evolve`` call, in order."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ode_evolve(*args, **kwargs)
    monkeypatch.setattr(cli, "ode_evolve", counted)
    return calls


def test_evolve_makes_one_oracle_call_per_grid(tmp_path, oracle_calls):
    out = tmp_path / "grid.csv"
    argv = ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0:0.5:5", "--Q", "4",
            "--out", str(out)]
    assert run([*argv, "--oracle"]) == 0
    assert len(oracle_calls) == 1
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))
    for row in read_csv(out):
        want = ode_evolve(m, 0, float(row["t"])).amplitudes[int(row["z"])]
        assert abs(complex(float(row["oracle_re"]), float(row["oracle_im"]))
                   - want) <= 1e-10
    assert run(argv) == 0
    assert len(oracle_calls) == 1


def test_evolve_oracle_grid_through_zero_matches_the_exponential(tmp_path, oracle_calls):
    # negative times run backward from 0 in the same call
    m = random_ti_model(np.random.default_rng(3), 1.0, dim=5)
    cfg = tmp_path / "ti.json"
    cfg.write_text(model_to_json(m), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert run(["evolve", "--model", str(cfg), "--z0", "0", "--t=-0.2:0.2:5",
                "--Q", "3", "--oracle", "--out", str(out)]) == 0
    assert len(oracle_calls) == 1
    rows = read_csv(out)
    assert sorted({float(r["t"]) for r in rows}) == list(np.linspace(-0.2, 0.2, 5))
    for row in rows:
        want = mat_exp_evolve(m, 0, float(row["t"])).amplitudes[int(row["z"])]
        assert abs(complex(float(row["oracle_re"]), float(row["oracle_im"]))
                   - want) <= 1e-9


# -- infidelity sweep -------------------------------------------------------------

def test_sweep_rows_match_direct_computation(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["infidelity-sweep", *SPIN_ARGS, "--z0", "0",
                "--t", "0.1:0.5:3", "--Q", "0,2,4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0].keys()) == ["t", "Q", "infidelity"]
    assert len(rows) == 9
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))
    for row in rows:
        t, q = float(row["t"]), int(row["Q"])
        expected = infidelity(ode_evolve(m, 0, t), evolve(m, 0, t, q))
        assert float(row["infidelity"]) == pytest.approx(expected, abs=1e-12)


def test_sweep_makes_one_oracle_call_per_grid(tmp_path, oracle_calls):
    assert run(["infidelity-sweep", *SPIN_ARGS, "--z0", "0", "--t", "0.1:0.5:3",
                "--Q", "0,2", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(oracle_calls) == 1


@pytest.mark.parametrize("argv, code", [
    # the top order's output is past the budget
    ([*SPIN_ARGS, "--t", "0:1:3", "--Q", "0,10000000000"], 3),
    # t * spread = 2e300 is past the kernel's range
    (["--model", "single_spin", "--param", "a=1e300", "--t", "0:1:3", "--Q", "2"], 2)],
    ids=["budget", "range"])
def test_sweep_runs_the_engine_before_the_oracle(argv, code, tmp_path, oracle_calls, capsys):
    # the engine's refusal comes before an oracle pass over the grid is
    # spent (it came after it)
    out = tmp_path / "sweep.csv"
    assert run(["infidelity-sweep", *argv, "--z0", "0", "--out", str(out)]) == code
    assert oracle_calls == []
    assert _one_line_error(capsys)
    assert not out.exists()


# -- amplitude --------------------------------------------------------------------

def test_amplitude_annotates_closed_forms(tmp_path):
    out = tmp_path / "amp.csv"
    assert run(["amplitude", "--model", "fermi",
                "--param", "e_in=0.3", "--param", "e_fin=1.1",
                "--param", "e_drive=0.45", "--param", "gamma=0.02",
                "--zin", "0", "--zfin", "1", "--t", "0.7", "--Q", "5",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert list(rows[0].keys()) == ["order", "re", "im", "cum_re", "cum_im",
                                    "closed_re", "closed_im"]
    for row in rows:
        if int(row["order"]) % 2 == 1:
            assert float(row["re"]) == pytest.approx(float(row["closed_re"]),
                                                     rel=1e-12, abs=1e-300)
        else:
            assert float(row["re"]) == 0.0
    cum = sum(float(r["re"]) for r in rows)
    assert cum == pytest.approx(float(rows[-1]["cum_re"]), abs=1e-15)


def test_amplitude_closed_forms_use_the_model_defaults(tmp_path):
    # only gamma is given: the closed form must see the same defaulted levels
    # and drive (resonant, e_in + e_drive = e_fin) as the model
    out = tmp_path / "amp.csv"
    assert run(["amplitude", "--model", "fermi", "--param", "gamma=0.02",
                "--zin", "0", "--zfin", "1", "--t", "0.7", "--Q", "5",
                "--out", str(out)]) == 0
    odd = [r for r in read_csv(out) if int(r["order"]) % 2 == 1]
    assert len(odd) == 3
    for row in odd:
        for part in ("re", "im"):
            assert float(row[part]) == pytest.approx(
                float(row[f"closed_{part}"]), rel=1e-12, abs=1e-300)


def test_amplitude_no_annotation_for_config_models(tmp_path):
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.0))
    cfg_path = tmp_path / "spin.json"
    cfg_path.write_text(model_to_json(m), encoding="utf-8")
    out = tmp_path / "amp.csv"
    assert run(["amplitude", "--model", str(cfg_path), "--zin", "0",
                "--zfin", "1", "--t", "0.5", "--Q", "3",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert all(row["closed_re"] == "" for row in rows)


# -- validate ---------------------------------------------------------------------

def test_validate_passes_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_passed"] is True
    assert report["seed"] == 7
    assert [s["name"] for s in report["suites"]] == [
        "identity1_simplex_vs_kernel", "identity2_shift", "alpha_beta_bridge",
        "ti_vs_matrix_exponential"]
    assert all(s["passed"] for s in report["suites"])


def test_validate_suite_fails_on_a_nan_case(monkeypatch):
    # a running max(worst, err) from 0.0 dropped a NaN that was not the
    # first error, and the suite passed
    simplex, calls = validate.simplex_integral, []

    def nan_in_fifth_case(t, g):
        calls.append(t)
        return complex("nan") if len(calls) == 5 else simplex(t, g)

    monkeypatch.setattr(validate, "simplex_integral", nan_in_fifth_case)
    result = validate.suite_identity1(0)
    assert (np.isnan(result.max_error), result.passed) == (True, False)
    assert result.cases == 125


def test_validate_exits_1_on_nan_amplitudes(tmp_path, monkeypatch):
    # NaN dense amplitudes read as max_error 0.0 and a pass
    def nan_amplitudes(model, z0, t):
        return StateVector(amplitudes=np.full(model.dimension, complex("nan")),
                           time=t)

    monkeypatch.setattr(validate, "mat_exp_evolve", nan_amplitudes)
    out = tmp_path / "report.json"
    assert run(["validate", "--seed", "0", "--out", str(out)]) == 1
    report = strict_json(out)
    assert report["all_passed"] is False
    assert [s["passed"] for s in report["suites"]] == [True, True, True, False]
    assert report["suites"][3]["max_error"] is None


def test_validate_rejects_corrupt_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "energies": [0.0, 1.0],
        "terms": [{"mapping": [1, 1], "factors": [{"lambda": 0, "d": 1}]}],
    }), encoding="utf-8")
    assert run(["validate", "--model", str(bad)]) == 2


# -- exit codes ---------------------------------------------------------------------

def test_capacity_exit_code(capsys):
    assert run(["evolve", "--model", "anharmonic", "--param", "n_max=9",
                "--z0", "4", "--t", "0.1", "--Q", "80"]) == 3
    # a truncation past 2^16 states, given or implied by z0, fails before
    # anything is allocated
    for argv in (["--param", "n_max=1e8", "--z0", "0"], ["--z0", "100000000"]):
        start = time.perf_counter()
        assert run(["evolve", "--model", "anharmonic", *argv,
                    "--t", "0.1", "--Q", "1"]) == 3
        assert time.perf_counter() - start < 1.0
    # so does an order whose per-order output would pass the budget's
    # entries, with one error line
    capsys.readouterr()
    for q in ("10000000000", "10000000000000000000"):
        assert run(["amplitude", "--model", "single_spin", "--zin", "0",
                    "--zfin", "1", "--t", "0.5", "--Q", q]) == 3
        assert _one_line_error(capsys)


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_ode_oracle_capacity_exit_code(capsys):
    # the oracle counts its right-hand-side evaluations: past the cap, or
    # where the energy scale overflows the step-size control, it stops
    for argv in (["evolve", "--model", "single_spin", "--z0", "0", "--t", "1e6",
                  "--Q", "2", "--oracle"],
                 # t * spread = 2e10 is inside the kernel's range, so the
                 # engine, which runs first, admits it
                 ["infidelity-sweep", "--model", "single_spin", "--z0", "0",
                  "--t", "0:1e-290:3", "--Q", "2", "--param", "a=1e300"]):
        start = time.perf_counter()
        assert run(argv) == 3
        assert time.perf_counter() - start < 5.0
        assert _one_line_error(capsys)


def test_failed_oracle_exit_code(capsys, tmp_path, monkeypatch):
    # a solve whose step falls below the spacing of floats (here every step
    # fails the error test) is a StiffnessError: exit 1, no output file
    monkeypatch.setattr(oracles, "_error_norm", lambda K, h, scale: np.inf)
    out = tmp_path / "out.csv"
    for argv in (["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0:0.5:3", "--Q", "2",
                  "--oracle"],
                 ["infidelity-sweep", *SPIN_ARGS, "--z0", "0", "--t", "0:0.5:3",
                  "--Q", "0,2"]):
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: adaptive integration failed: Required step size "
                       "is less than spacing between numbers.\n")
        assert not out.exists()


# a two-level flip whose envelope e^{i lam t} grows, lam = -i
GROWING_FLIP = {
    "dimension": 2,
    "energies": [0.0, 1.0],
    "terms": [{"mapping": [1, 0], "factors": [{"lambda": [[0, -1], [0, -1]], "d": 1}]}],
}


@pytest.mark.parametrize("argv", [
    ["evolve", "--model", "single_spin", "--z0", "0", "--t", "0.5", "--Q", "2",
     "--param", "a=1e300"],
    ["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
     "--t", "1e308", "--Q", "3"],
    ["evolve", "--model", "single_spin", "--z0", "0", "--t", "1e308", "--Q", "0"],
    ["evolve", "--model", "growing-flip.json", "--z0", "0", "--t", "800", "--Q", "2"]],
    ids=["spin-a=1e300", "fermi-t=1e308", "spin-t=1e308", "growing-flip-t=800"])
def test_past_the_kernel_range_exit_code(argv, capsys, tmp_path, monkeypatch):
    # these printed nan rows or amplitudes with no significant digit, with
    # exit 0, or an OverflowError traceback
    monkeypatch.chdir(tmp_path)
    Path("growing-flip.json").write_text(json.dumps(GROWING_FLIP), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert _one_line_error(capsys)
    assert not out.exists()
    # the fermi amplitude at a long time inside the range still runs
    assert run(["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
                "--t", "6e4", "--Q", "3", "--out", str(out)]) == 0


def test_amplitude_budget_is_checked_before_closed_forms(capsys, tmp_path):
    # the fermi closed forms are unbudgeted kernel calls: run before the
    # engine, they took ~28 s on 2 cores where the engine alone refuses in ~3 s
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    assert run(["amplitude", "--model", "fermi", "--param", "e_in=0.0",
                "--param", "e_fin=0.8", "--param", "e_drive=0.8",
                "--param", "gamma=1e-5", "--zin", "0", "--zfin", "1",
                "--t", "6e4", "--Q", "161", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 10.0
    assert _one_line_error(capsys)
    assert not out.exists()


def test_builtin_model_name_wins_over_a_same_named_path(tmp_path, monkeypatch):
    # the path was tried first: a folder named fermi made `--model fermi`
    # exit 2 ("Is a directory"), and a file named single_spin was read as JSON
    monkeypatch.chdir(tmp_path)
    Path("fermi").mkdir()
    assert run(["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
                "--t", "0.7", "--Q", "3", "--out", "amp.csv"]) == 0
    assert read_csv("amp.csv")[1]["closed_re"] != ""
    builtin = build_single_spin(SingleSpinParams(a=1.0, b=0.5))
    config = build_single_spin(SingleSpinParams(a=0.3, b=0.9))
    Path("single_spin").write_text(model_to_json(config), encoding="utf-8")
    # the config stays reachable by an explicit path
    for name, model in (("single_spin", builtin), ("./single_spin", config)):
        assert run(["evolve", "--model", name, "--z0", "0", "--t", "0.5",
                    "--Q", "4", "--out", "evolve.csv"]) == 0
        rows = read_csv("evolve.csv")
        want = evolve(model, 0, 0.5, 4).amplitudes
        assert [complex(float(r["re"]), float(r["im"])) for r in rows] == (
            pytest.approx(list(want), abs=1e-15))


def test_config_error_exit_code(tmp_path):
    assert run(["evolve", "--model", "unknown_model", "--z0", "0",
                "--t", "0.1", "--Q", "1"]) == 2
    missing = tmp_path / "missing_params.json"
    missing.write_text("{}", encoding="utf-8")
    assert run(["evolve", "--model", str(missing), "--z0", "0",
                "--t", "0.1", "--Q", "1"]) == 2
    assert run(["evolve", "--model", "anharmonic", "--param", "n_max=9.7",
                "--z0", "0", "--t", "0.1", "--Q", "1"]) == 2
    # --param sets built-in parameters only
    cfg = tmp_path / "spin.json"
    cfg.write_text(model_to_json(build_single_spin(SingleSpinParams(a=1.0, b=0.5))),
                   encoding="utf-8")
    argv = ["evolve", "--model", str(cfg), "--z0", "0", "--t", "0.1", "--Q", "1",
            "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 0
    assert run([*argv, "--param", "a=1"]) == 2


@pytest.mark.parametrize("term", [{"mapping": [10 ** 23, None]}, {"shift_map": 10 ** 23}],
                         ids=["mapping", "shift_map"])
def test_config_integer_past_int64_exit_code(term, tmp_path, capsys):
    # an OverflowError traceback with exit 1 before; a config error now
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "dimension": 2, "energies": [0.0, 1.0],
        "terms": [dict(term, factors=[{"lambda": 0, "d": 1}])]}), encoding="utf-8")
    assert run(["evolve", "--model", str(cfg), "--z0", "0", "--t", "0.1", "--Q", "1"]) == 2
    assert _one_line_error(capsys)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--model", "single_spin"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "3,4"],
    ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "-1"],
    ["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
     "--t", "0.5", "--Q", "3,4"],
    ["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
     "--t", "0:1:3", "--Q", "3"],
    ["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
     "--t", "inf", "--Q", "3"],
    ["evolve", "--model", "single_spin", "--param", "a", "--z0", "0",
     "--t", "0.5", "--Q", "1"],
    ["evolve", "--model", "single_spin", "--param", "a=x", "--z0", "0",
     "--t", "0.5", "--Q", "1"],
], ids=["evolve-Q-list", "evolve-Q-negative", "amplitude-Q-list",
        "amplitude-t-grid", "amplitude-t-inf", "param-no-equals",
        "param-non-numeric"])
def test_single_value_options_are_usage_errors(argv, capsys):
    # evolve --Q, amplitude --t and amplitude --Q take one value each, and
    # --param one k=v with a number v; the parser refuses anything else
    # before any model is built
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["amplitude", "--model", "fermi", "--zin", "0", "--zfin", "1",
     "--t", "abc", "--Q", "3"],
    ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "abc", "--Q", "1"],
    ["infidelity-sweep", *SPIN_ARGS, "--z0", "0", "--t", "0:1:x", "--Q", "1"],
    ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0:1", "--Q", "1"],
], ids=["amplitude-t", "evolve-t", "sweep-steps", "evolve-t-two-parts"])
def test_non_numeric_times_are_usage_errors(argv, capsys):
    # the message reads as the option's, not the parser function's name
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --t:" in err and "_parse" not in err


@pytest.mark.parametrize("grid", ["inf", "nan", "0:inf:3", "-inf:0:3",
                                  "0:nan:3", "-1e308:1e308:3"])
def test_nonfinite_times_are_usage_errors(grid):
    # checked before the grid is built, so np.linspace warns about nothing
    with pytest.raises(SystemExit) as exc:
        run(["evolve", *SPIN_ARGS, "--z0", "0", "--t", grid, "--Q", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["0:1:10001", "0:1:1000000000000000"])
def test_time_grid_step_count_is_capped(grid):
    # rejected before any grid is built, however many steps are asked for
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["evolve", *SPIN_ARGS, "--z0", "0", "--t", grid, "--Q", "1"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["evolve", *SPIN_ARGS, "--z0", "0", "--t", "0.5", "--Q", "3",
     "--seed", "1"],
    ["validate", "--format", "csv"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_console_entry_point_runs():
    # run from the directory holding the package, so the child process finds
    # the one under test without an installed copy or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "ddyson", "evolve", "--model", "single_spin",
         "--z0", "0", "--t", "0.3", "--Q", "2"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(ddyson.__file__).parents[1])
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,z,re,im,prob")


def test_oracle_commands_run_without_scipy(tmp_path):
    # with scipy unimportable, each command that runs an oracle exits 0
    code = f"""
import sys
sys.modules["scipy"] = None
from ddyson.cli import run
out = {str(tmp_path)!r}
codes = [
    run(["evolve", "--model", "anharmonic", "--z0", "4", "--t", "0.05", "--Q", "5",
         "--oracle", "--out", out + "/evolve.csv"]),
    run(["infidelity-sweep", "--model", "anharmonic", "--z0", "4", "--t", "0:0.08:9",
         "--Q", "0,1,2,3", "--out", out + "/sweep.csv"]),
    run(["validate", "--seed", "0", "--out", out + "/report.json"]),
]
print(codes)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=Path(ddyson.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"
