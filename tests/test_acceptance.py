"""Acceptance gate: one test per pinned criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 5-7 check the truncated Dyson series against what it promises.
The order-q row of ``evolve_by_order`` is the exact order-q term of the
series, so a truncation at Q misses the exact state by exactly the
remainder sum_{q>Q} psi^(q):

* criteria 5 and 7 measure convergence by the truncation error
  eps_Q = ||psi - psi_Q||_2, the norm of that remainder.  Criterion 5 also
  bounds it by the Dyson tail sum_{q>Q} Phi^q / q!, Phi = int_0^t ||V|| ds.
  The signed figure 1 - |<psi|psi_Q>|^2 from ``ddyson.oracles.infidelity``
  is printed but not asserted: it keeps psi_Q unnormalized on purpose, the
  series overshoots unit norm at odd orders, and so the figure changes
  sign with Q.  It is not monotone for any correct evaluator.
* criterion 6 compares the order-5 populations with an order-5 truncation
  integrated independently from the order hierarchy
  i d/dt psi_q = H_0 psi_q + V(t) psi_{q-1}.  The gap to the full
  Schrodinger solution is printed: it is the size of the truncation at the
  pinned coupling, not a property of the engine.
"""

import math
import time
from itertools import islice

import numpy as np
from scipy.integrate import solve_ivp

from ddyson import (
    AnharmonicParams,
    StateVector,
    amplitude_by_order,
    anharmonic_default_dimension,
    beta,
    build_anharmonic,
    build_fermi,
    build_single_spin,
    enumerate_paths,
    eval_H,
    eval_V,
    evolve,
    evolve_by_order,
    evolve_ti,
    exp_dd,
    infidelity,
    mat_exp_evolve,
    ode_evolve,
    path_coefficients,
    quartic_amplitude,
    SingleSpinParams,
)
from ddyson import divdiff
from ddyson.engine import _BLOCK_ROWS
from ddyson.models import FermiParams
from ddyson.oracles import exp_dd_highprec
from ddyson.validate import random_ti_model, suite_identity1, suite_identity2


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


# -- 1: time-ordered integrals equal the kernel -------------------------------

def test_criterion_1_simplex_equivalence():
    start = time.monotonic()
    result = suite_identity1(seed=101)
    elapsed = time.monotonic() - start
    ok = result.passed and elapsed < 60.0
    _report(1, "simplex integral vs kernel", ok,
            f"max |diff| {result.max_error:.3e} over {result.cases} cases "
            f"in {elapsed:.1f}s")
    assert (result.cases, result.tolerance) == (125, 1e-8)
    assert result.max_error <= 1e-8
    assert elapsed < 60.0


# -- 2: shift identity ----------------------------------------------------------

def test_criterion_2_shift_identity():
    result = suite_identity2(seed=102)
    _report(2, "shift identity", result.passed,
            f"max rel err {result.max_error:.3e} over {result.cases} cases")
    assert (result.cases, result.tolerance) == (200, 1e-10)
    assert result.max_error <= 1e-10


# -- 3: golden-rule first order --------------------------------------------------

def test_criterion_3_golden_rule_first_order():
    t = 0.7
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.02)
    amp = amplitude_by_order(build_fermi(fp), 0, 1, t, 1)[1]
    closed = fp.gamma * exp_dd(t, [fp.e_in + fp.e_drive, fp.e_fin])
    errors = [abs(amp - closed) / abs(closed)]

    # resonant limit: gap -> 0 approaches -i t gamma e^{-i t E_fin} smoothly
    limit_ok = True
    details = []
    for gap in (1e-3, 1e-6, 1e-9):
        fpg = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.8 - gap, gamma=0.02)
        a1 = amplitude_by_order(build_fermi(fpg), 0, 1, t, 1)[1]
        closed_g = fpg.gamma * exp_dd(t, [fpg.e_in + fpg.e_drive, fpg.e_fin])
        errors.append(abs(a1 - closed_g) / abs(closed_g))
        deviation = abs(a1 - (-1j * t * fpg.gamma * np.exp(-1j * t * fpg.e_fin)))
        limit_ok &= np.isfinite(a1) and deviation <= fpg.gamma * gap * t ** 2
        details.append(f"gap {gap:.0e}: dev {deviation:.2e}")
    worst = np.max(errors)
    ok = worst <= 1e-12 and limit_ok
    _report(3, "golden rule first order", ok,
            f"max rel err {worst:.3e}; " + "; ".join(details))
    assert worst <= 1e-12
    assert limit_ok


# -- 4: higher-order drive ladder -------------------------------------------------

def test_criterion_4_higher_order_amplitudes():
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.05)
    t = 0.9
    amps = amplitude_by_order(build_fermi(fp), 0, 1, t, 5)
    E, F, drv, g = fp.e_in, fp.e_fin, fp.e_drive, fp.gamma
    closed = {
        1: g * exp_dd(t, [E + drv, F]),
        3: g ** 3 * exp_dd(t, [E + 3 * drv, F + 2 * drv, E + drv, F]),
        5: g ** 5 * exp_dd(t, [E + 5 * drv, F + 4 * drv, E + 3 * drv,
                               F + 2 * drv, E + drv, F]),
    }
    worst = np.max([abs(amps[q] - v) / abs(v) for q, v in closed.items()])
    _report(4, "drive-ladder amplitudes (orders 1, 3, 5)", worst <= 1e-12,
            f"max rel err {worst:.3e}")
    assert worst <= 1e-12


# -- 5: single-spin truncation-error convergence ----------------------------------

def _truncation_errors(reference: StateVector, partial: np.ndarray) -> list[float]:
    """eps_Q = ||psi - psi_Q||_2 for each row psi_Q of ``partial``."""
    return [float(np.linalg.norm(reference.amplitudes - p)) for p in partial]


def _dyson_tail_bound(phi: float, order: int) -> float:
    """sum_{q > order} phi^q / q!, the remainder bound for ||V|| integral phi."""
    terms = [phi ** q / math.factorial(q) for q in range(order + 1, order + 40)]
    return math.fsum(terms)


def test_criterion_5_single_spin_convergence():
    start = time.monotonic()
    a, b, gamma = 1.0, 0.5, 0.2
    m = build_single_spin(SingleSpinParams(a=a, b=b, gamma=gamma))
    t = 0.5
    reference = ode_evolve(m, 0, t, tol=1e-12)
    partial = np.cumsum(evolve_by_order(m, 0, t, 6), axis=0)
    errors = _truncation_errors(reference, partial)
    elapsed = time.monotonic() - start
    # ||V(s)|| = b e^{-gamma s} for the flip term
    phi = b * (1.0 - math.exp(-gamma * t)) / gamma
    bounds = [_dyson_tail_bound(phi, q) for q in range(7)]
    signed = [infidelity(reference, StateVector(p, t)) for p in partial]
    normalized = [infidelity(reference, StateVector(p / np.linalg.norm(p), t))
                  for p in partial]

    decreasing = all(errors[q + 1] < errors[q] for q in range(6))
    bounded = all(e <= bound for e, bound in zip(errors, bounds))
    final_ok = errors[6] <= 1e-8
    # the normalized figure at Q = 6 sits at rounding level (~eps_6^2)
    norm_monotone = all(normalized[q + 1] <= normalized[q] + 1e-15
                        for q in range(6))
    norm_final_ok = normalized[6] <= 1e-8
    ok = (decreasing and bounded and final_ok and norm_monotone
          and norm_final_ok and elapsed < 5.0)
    _report(5, "single-spin truncation-error convergence", ok,
            "||psi - psi_Q|| Q0..Q6 = " + " ".join(f"{v:.2e}" for v in errors)
            + "; tail bound = " + " ".join(f"{v:.2e}" for v in bounds)
            + "; normalized infidelity = "
            + " ".join(f"{v:.1e}" for v in normalized)
            + "; signed figure (psi_Q unnormalized, not asserted) = "
            + " ".join(f"{v:.1e}" for v in signed)
            + f"; runtime {elapsed:.2f}s")
    assert decreasing, (
        "truncation error ||psi - psi_Q|| is not strictly decreasing in Q: "
        + ", ".join(f"{v:.3e}" for v in errors))
    assert bounded, (
        "truncation error exceeds the Dyson tail bound sum_{q>Q} Phi^q/q!: "
        + ", ".join(f"Q{q}: {e:.3e} > {bd:.3e}"
                    for q, (e, bd) in enumerate(zip(errors, bounds)) if e > bd))
    assert final_ok, f"order-6 truncation error {errors[6]:.3e} exceeds 1e-8"
    assert norm_monotone, (
        "normalized-state infidelity is not monotone non-increasing: "
        + ", ".join(f"{v:.3e}" for v in normalized))
    assert norm_final_ok, (
        f"order-6 normalized-state infidelity {normalized[6]:.3e} exceeds 1e-8")
    assert elapsed < 5.0


# -- 6: driven-oscillator populations ----------------------------------------------

def _hierarchy_orders(model, z0: int, t: float, max_order: int) -> np.ndarray:
    """Order-resolved Dyson terms by direct integration, shape (Q + 1, D).

    Integrates i d/dt psi_q = H_0 psi_q + V(t) psi_{q-1} with psi_0(0) = |z0>
    and psi_q(0) = 0 on dense matrices: a route through no path enumeration
    and no divided difference.
    """
    dim = model.dimension
    free = np.diag(eval_H(model, 0.0) - eval_V(model, 0.0)).real

    def rhs(tt, y):
        psi = y.reshape(max_order + 1, dim)
        out = free * psi
        out[1:] += psi[:-1] @ eval_V(model, tt).T
        return -1j * out.ravel()

    y0 = np.zeros((max_order + 1) * dim, dtype=complex)
    y0[z0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(max_order + 1, dim)


def test_criterion_6_oscillator_populations():
    start = time.monotonic()
    params = AnharmonicParams(omega=1.0, Omega=2.0, gamma_eff=0.02,
                              n_max=anharmonic_default_dimension(4, 5))
    m = build_anharmonic(params)
    state = evolve(m, 4, 0.04, 5)
    truncation = _hierarchy_orders(m, 4, 0.04, 5).sum(axis=0)
    gap = np.abs(state.probabilities() - np.abs(truncation) ** 2)
    reference = ode_evolve(m, 4, 0.04, tol=1e-10)
    elapsed = time.monotonic() - start
    full_gap = np.abs(state.probabilities() - reference.probabilities())
    ok = gap.max() <= 1e-10 and elapsed < 120.0
    _report(6, "driven-oscillator populations (order 5, t = 0.04)", ok,
            f"max |pop - order-5 hierarchy| {gap.max():.3e} at "
            f"z={int(gap.argmax())}; runtime {elapsed:.1f}s; gap to the full "
            f"solution (order-5 truncation, not asserted) {full_gap.max():.3e} "
            f"at z={int(full_gap.argmax())}")
    assert elapsed < 120.0
    assert gap.max() <= 1e-10, (
        f"order-5 populations differ from the independently integrated "
        f"order-5 truncation by {gap.max():.3e} (> 1e-10)")


# -- 7: truncation-error ordering across truncation orders --------------------------

def test_criterion_7_infidelity_ordering():
    params = AnharmonicParams(omega=1.0, Omega=2.0, gamma_eff=0.02,
                              n_max=anharmonic_default_dimension(4, 3))
    m = build_anharmonic(params)
    grid = np.linspace(0.0, 0.08, 9)
    table = []
    ordered = True
    for t in grid:
        reference = ode_evolve(m, 4, t)
        partial = np.cumsum(evolve_by_order(m, 4, t, 3), axis=0)
        errors = _truncation_errors(reference, partial)
        signed = [infidelity(reference, StateVector(p, t)) for p in partial]
        table.append((t, errors, signed))
        # at t = 0 every error is 0: the slack absorbs rounding only
        ordered &= all(errors[q + 1] <= errors[q] + 1e-12 for q in range(3))
    lines = "; ".join(
        f"t={t:.2f}: " + "/".join(f"{v:.1e}" for v in errors)
        + " (signed " + "/".join(f"{v:.1e}" for v in signed) + ")"
        for t, errors, signed in table)
    _report(7, "truncation-error ordering in truncation order "
            "(||psi - psi_Q||; signed figure not asserted)", ordered, lines)
    assert ordered, (
        "truncation error ||psi - psi_Q|| is not ordered in Q at every grid "
        "point: " + "; ".join(
            f"t={t:.2f}: " + ", ".join(f"{v:.3e}" for v in errors)
            for t, errors, _ in table))


# -- 8: tabulated oscillator coefficients --------------------------------------------

def test_criterion_8_tabulated_coefficients():
    omega, W, gamma = 1.0, 2.0, 0.02
    m = build_anharmonic(AnharmonicParams(omega, W, gamma, n_max=16))
    t = 0.3
    E = lambda n: omega * (n + 0.5)
    term_of = {-4: 1, -2: 2, 0: 3, 2: 4, 4: 5}

    def aggregated(n, walk):
        return sum(beta(m, p, t)
                   for p in enumerate_paths(m, n, len(walk)) if p.terms == walk)

    errors = []
    # order 0
    for n in range(4, 9):
        got = aggregated(n, ())
        expected = np.exp(-1j * t * E(n))
        errors.append(abs(got - expected) / abs(expected))
    # order 1: unit-weight two-phase rows for every ladder shift
    for n in range(4, 9):
        for shift in (-4, -2, 0, 2, 4):
            expected = gamma * quartic_amplitude(shift, n) * (
                exp_dd(t, [E(n) + W, E(n + shift)])
                + exp_dd(t, [E(n) - W, E(n + shift)]))
            got = aggregated(n, (term_of[shift],))
            errors.append(abs(got - expected) / abs(expected))
    # order 2: drive phases accumulate along the walk (suffix sums)
    rows = [((-4, -4), 8), ((-4, -2), 6), ((-4, 0), 4)]
    for (s1, s2), n_min in rows:
        for n in range(max(n_min, 4), 9):
            dprod = gamma ** 2 * quartic_amplitude(s1, n) * quartic_amplitude(s2, n + s1)
            phases = sum(
                exp_dd(t, [E(n) + (k1 + k2) * W, E(n + s1) + k2 * W, E(n + s1 + s2)])
                for k1 in (+1, -1) for k2 in (+1, -1))
            expected = dprod * phases
            got = aggregated(n, (term_of[s1], term_of[s2]))
            errors.append(abs(got - expected) / abs(expected))
            # the half-angle bookkeeping is settled: no factor-2 residue
            assert abs(got / expected - 1.0) < 0.5
    worst = np.max(errors)
    _report(8, "tabulated ladder coefficients (orders 0-2, n = 4..8)",
            worst <= 1e-12, f"max rel err {worst:.3e}")
    assert worst <= 1e-12


# -- 9: time-independent reduction ----------------------------------------------------

def test_criterion_9_time_independent_reduction():
    rng = np.random.default_rng(109)
    errors_expm, errors_engine = [], []
    for _ in range(3):
        t = float(rng.uniform(0.1, 0.5))
        m = random_ti_model(rng, t)
        assert (m.dimension, len(m.terms)) == (4, 2)
        z0 = int(rng.integers(0, 4))
        series = evolve_ti(m, z0, t, 20)
        dense = mat_exp_evolve(m, z0, t)
        errors_expm.append(np.abs(series.amplitudes - dense.amplitudes).max())
        # path-for-path agreement with the per-path oracle: beta summed over
        # every enumerated path (one kernel call per order and block of
        # paths); order 12 keeps the exhaustive (M K)^Q enumeration tractable
        a = evolve_ti(m, z0, t, 12)
        b = np.zeros(m.dimension, complex)
        paths = enumerate_paths(m, z0, 12)
        while block := list(islice(paths, _BLOCK_ROWS)):
            np.add.at(b, [p.trajectory[-1] for p in block],
                      path_coefficients(m, block, t))
        errors_engine.append(np.abs(a.amplitudes - b).max())
    worst_expm, worst_engine = np.max(errors_expm), np.max(errors_engine)
    ok = worst_expm <= 1e-8 and worst_engine <= 1e-12
    _report(9, "time-independent reduction", ok,
            f"vs expm {worst_expm:.3e}; vs per-path sum {worst_engine:.3e}")
    assert worst_expm <= 1e-8
    assert worst_engine <= 1e-12


# -- 10: kernel stress -------------------------------------------------------------------

def test_criterion_10_kernel_stress():
    rng = np.random.default_rng(110)
    q = 20
    errors, ops = [], []
    for _ in range(30):
        nodes = rng.uniform(-50.0, 50.0, q + 1)
        t = float(rng.uniform(0.05, 1.0))
        reference = exp_dd_highprec(t, nodes, digits=60)
        errors.append(abs(exp_dd(t, nodes) - reference) / abs(reference))
        # the kernel's own count, as the work budget reads it
        plan = divdiff._plan(t, nodes[None])
        (chunk,) = plan.chunks
        ops.append(plan.work / chunk.n_slices / (q + 1) ** 2)
    worst, worst_ops = np.max(errors), np.max(ops)
    # per-slice work: one table row product (<= (q+1)^2 / 2 madds) plus the
    # Taylor build amortized over slices; <= 96 (q+1)^2 covers the
    # worst case of a single slice with the full Taylor budget
    per_slice_ok = worst_ops <= 96.0
    _report(10, "kernel stress (order 20, |x| <= 50)",
            worst <= 1e-10 and per_slice_ok,
            f"max rel err {worst:.3e} vs 60-digit recursion; "
            f"ops per slice <= {worst_ops:.1f} x (q+1)^2")
    assert worst <= 1e-10
    assert per_slice_ok
