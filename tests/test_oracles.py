"""Oracles: simplex quadrature vs the kernel, ODE integration against
closed forms, matrix exponentials, and the infidelity figure of merit."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ddyson import (
    CapacityError,
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
    SingleSpinParams,
    StateVector,
    build_anharmonic,
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
from ddyson.models import AnharmonicParams
from ddyson.validate import random_model, random_ti_model


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


@pytest.mark.parametrize("tol", [0.0, np.nan, np.inf, -1e-10])
def test_ode_rejects_bad_tolerance(tol):
    # each raises before any integration step
    start = time.perf_counter()
    with pytest.raises(ValueError):
        ode_evolve(build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2)),
                   0, 0.5, tol=tol)
    assert time.perf_counter() - start < 1.0


def _loop_ode_evolve(model, z0, t, tol=1e-10):
    """The right-hand side as one scatter block per (term, factor), added
    in a Python loop, under the same solver settings as ``ode_evolve``."""
    from scipy.integrate import solve_ivp

    psi0 = np.zeros(model.dimension, dtype=complex)
    psi0[z0] = 1.0
    blocks = []
    for tm in model.terms:
        src = np.nonzero(tm.perm.targets >= 0)[0]
        if src.size == 0:
            continue
        dst = tm.perm.targets[src]
        for f in tm.factors:
            blocks.append((dst, src, f.d[dst], f.lam[dst]))
    energies = model.energies

    def rhs(tt, psi):
        hpsi = energies * psi
        for dst, src, d, lam in blocks:
            hpsi[dst] += np.exp(1j * lam * tt) * d * psi[src]
        return -1j * hpsi

    sol = solve_ivp(rhs, (0.0, t), psi0, method="RK45", rtol=tol, atol=tol * 1e-3)
    return sol.y[:, -1]


def _cases_for_the_stacked_rhs(free_model):
    oscillator = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                                   gamma_eff=0.02, n_max=28))
    cases = [(oscillator, 4, t) for t in (0.01, 0.045, 0.065)]
    cases += [(random_model(np.random.default_rng(s)), 1, 0.7) for s in (55, 56)]
    cases.append((free_model([0.7, -0.3, 1.9]), 2, 1.3))
    # a term with no defined image beside one with a partial image
    dim = 3
    nowhere = PermutationTerm(perm=PermutationMap(np.full(dim, -1)), factors=(
        ExpSumFactor(lam=np.full(dim, 0.5), d=np.full(dim, 0.4)),))
    shift = PermutationTerm(perm=PermutationMap.from_shift(dim, 1), factors=(
        ExpSumFactor(lam=np.array([0.3, -0.2, 0.1j]), d=np.array([0.2, 0.5j, -0.3])),))
    cases.append((HamiltonianModel(energies=np.array([0.0, 1.0, -0.5]),
                                   terms=(nowhere, shift)), 0, 2.0))
    return cases


def test_stacked_rhs_matches_the_loop(free_model):
    for model, z0, t in _cases_for_the_stacked_rhs(free_model):
        got = ode_evolve(model, z0, t).amplitudes
        want = _loop_ode_evolve(model, z0, t)
        assert np.abs(got - want).max() <= 1e-14


def test_ode_evaluations_are_capped(monkeypatch):
    # with the cap lowered to 2000, the oscillator at t = 0.065 (~800
    # evaluations) still runs, and the spin at t = 1000 (~2e5) stops at it
    monkeypatch.setattr(oracles, "_ODE_MAX_EVALUATIONS", 2000)
    oscillator = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                                   gamma_eff=0.02, n_max=28))
    ode_evolve(oscillator, 4, 0.065)
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="2000 right-hand-side evaluations"):
        ode_evolve(m, 0, 1000.0)
    assert time.perf_counter() - start < 1.0


def test_ode_overflow_is_a_capacity_error():
    # energies near the float range overflow the step-size control at once
    m = build_single_spin(SingleSpinParams(a=1e300, b=0.5, gamma=0.2))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="overflows"):
        ode_evolve(m, 0, 0.5)
    assert time.perf_counter() - start < 1.0


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
