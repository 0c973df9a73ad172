"""Oracles: simplex quadrature vs the kernel, ODE integration against
closed forms, matrix exponentials, and the infidelity figure of merit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddyson import (
    SingleSpinParams,
    StateVector,
    build_single_spin,
    dd_nodes_from_rates,
    exp_dd,
    infidelity,
    mat_exp_evolve,
    ode_evolve,
    simplex_integral,
)
import ddyson
from ddyson import oracles
from ddyson.validate import random_ti_model


# -- simplex quadrature --------------------------------------------------------

def test_depth_one_closed_form():
    t, g = 0.8, 1.7
    expected = (np.exp(-1j * t * g) - 1.0) / g
    assert simplex_integral(t, [g]) == pytest.approx(expected, abs=1e-12)


def test_zero_rates_give_simplex_volume():
    t = 0.9
    for q in range(1, 13):
        expected = (-1j * t) ** q / math.factorial(q)
        assert simplex_integral(t, np.zeros(q)) == pytest.approx(expected,
                                                                 rel=1e-12)


def test_depth_three_matches_kernel():
    rng = np.random.default_rng(51)
    for _ in range(5):
        g = rng.uniform(-3, 3, 3) + 1j * rng.uniform(-1, 1, 3)
        t = float(rng.uniform(0.1, 1.0))
        lhs = simplex_integral(t, g)
        rhs = exp_dd(t, dd_nodes_from_rates(g))
        assert abs(lhs - rhs) <= 1e-8


def test_rate_nodes_are_suffix_sums():
    nodes = dd_nodes_from_rates([1.0, 2.0, 4.0])
    assert np.allclose(nodes, [7.0, 6.0, 4.0, 0.0])


def test_deep_integrals_match_highprec_recursion():
    # draws shaped like validate's identity-1 draws, past its depth of 4
    rng = np.random.default_rng(54)
    for case in range(40):
        q = case % 8 + 1
        g = rng.uniform(-2.0, 2.0, q).astype(complex)
        if case % 2:
            g += 1j * rng.uniform(-1.0, 1.0, q)
        t = float(rng.uniform(0.05, 1.0))
        expected = oracles.exp_dd_highprec(t, dd_nodes_from_rates(g))
        assert abs(simplex_integral(t, g) - expected) <= 1e-13 * abs(expected)


def test_fixed_rule_is_converged_on_identity1_draws():
    # draws like those of validate's identity1_simplex_vs_kernel suite,
    # against a finer 40-point rule
    rng = np.random.default_rng(52)
    for _ in range(12):
        q = int(rng.integers(1, 5))
        g = rng.uniform(-2.0, 2.0, q) + 1j * rng.uniform(-1.0, 1.0, q)
        t = float(rng.uniform(0.0, 1.0))
        finer = oracles._nested_gl(t, g, 40)
        assert abs(simplex_integral(t, g) - finer) <= 1e-13 * abs(finer)


# -- ODE integration -----------------------------------------------------------

def test_free_phase(free_model):
    m = free_model([0.7, -0.3])
    st = ode_evolve(m, 0, 1.1, tol=1e-11)
    assert st.amplitudes[0] == pytest.approx(np.exp(-1j * 1.1 * 0.7), abs=1e-9)
    assert abs(st.amplitudes[1]) <= 1e-12


def test_two_level_rotation_closed_form():
    a, b, t = 0.9, 0.4, 0.8
    m = build_single_spin(SingleSpinParams(a=a, b=b, gamma=0.0))
    st = ode_evolve(m, 0, t, tol=1e-11)
    w = math.hypot(a, b)
    expected0 = math.cos(w * t) - 1j * (a / w) * math.sin(w * t)
    expected1 = -1j * (b / w) * math.sin(w * t)
    assert st.amplitudes[0] == pytest.approx(expected0, abs=1e-9)
    assert st.amplitudes[1] == pytest.approx(expected1, abs=1e-9)


def test_norm_preserved_for_hermitian_drive():
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))
    tol = 1e-10
    st = ode_evolve(m, 0, 2.0, tol=tol)
    assert abs(st.norm() - 1.0) <= 10 * tol


def test_dimension_cap(free_model):
    m = free_model(np.zeros(513))
    with pytest.raises(ValueError):
        ode_evolve(m, 0, 0.1)
    with pytest.raises(ValueError):
        mat_exp_evolve(m, 0, 0.1)


# -- dense matrix exponential ----------------------------------------------------

def test_diagonal_exponential_phases(free_model):
    energies = [0.5, -1.5, 3.0]
    m = free_model(energies)
    st = mat_exp_evolve(m, 2, 0.7)
    assert st.amplitudes[2] == pytest.approx(np.exp(-1j * 0.7 * 3.0), rel=1e-13)
    assert abs(st.amplitudes[0]) == 0


def test_matrix_exponential_matches_rotation():
    a, b, t = 0.9, 0.4, 0.8
    m = build_single_spin(SingleSpinParams(a=a, b=b, gamma=0.0))
    st = mat_exp_evolve(m, 0, t)
    w = math.hypot(a, b)
    assert st.amplitudes[0] == pytest.approx(
        math.cos(w * t) - 1j * (a / w) * math.sin(w * t), rel=1e-12)


def test_matrix_exponential_unitary_on_hermitian_model():
    m = build_single_spin(SingleSpinParams(a=1.3, b=0.6, gamma=0.0))
    st = mat_exp_evolve(m, 1, 2.5)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_matrix_exponential_rejects_time_dependence():
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.3))
    with pytest.raises(ValueError):
        mat_exp_evolve(m, 0, 0.5)


def test_matrix_exponential_agrees_with_ode():
    rng = np.random.default_rng(53)
    m = random_ti_model(rng, t=0.4)
    a = mat_exp_evolve(m, 0, 0.4)
    b = ode_evolve(m, 0, 0.4, tol=1e-11)
    assert np.abs(a.amplitudes - b.amplitudes).max() <= 1e-9


# -- infidelity -----------------------------------------------------------------

def test_identical_states_zero():
    st = StateVector(np.array([1 / np.sqrt(2), 1j / np.sqrt(2)]), 0.0)
    assert infidelity(st, st) == pytest.approx(0.0, abs=1e-15)


def test_orthogonal_states_one():
    a = StateVector(np.array([1.0 + 0j, 0.0]), 0.0)
    b = StateVector(np.array([0.0, 0.7 + 0j]), 0.0)
    assert infidelity(a, b) == pytest.approx(1.0)


def test_reference_is_normalized_target_is_not():
    ref = StateVector(np.array([2.0 + 0j, 0.0]), 0.0)      # normalized internally
    target = StateVector(np.array([0.5 + 0j, 0.0]), 0.0)   # used raw
    assert infidelity(ref, target) == pytest.approx(1 - 0.25)


def test_overshooting_target_goes_negative():
    # |psi_Q| > 1 can push the squared overlap past one: the figure of merit
    # is signed by construction
    ref = StateVector(np.array([1.0 + 0j, 0.0]), 0.0)
    target = StateVector(np.array([1.1 + 0j, 0.0]), 0.0)
    assert infidelity(ref, target) < 0


def test_zero_reference_rejected():
    z = StateVector(np.zeros(2, complex), 0.0)
    ok = StateVector(np.array([1.0 + 0j, 0.0]), 0.0)
    with pytest.raises(ValueError):
        infidelity(z, ok)
    with pytest.raises(ValueError):
        infidelity(ok, StateVector(np.zeros(3, complex), 0.0))


# -- imports -------------------------------------------------------------------

def test_import_does_not_load_scipy_or_mpmath():
    # the oracles import scipy and mpmath when called, not at package import
    src = str(Path(ddyson.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ddyson, ddyson.cli, ddyson.validate; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
