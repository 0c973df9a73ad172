"""Independent reference computations for validating the expansion machinery.

Everything here recomputes quantities the divided-difference engine
produces, by entirely different numerical routes:

* ``simplex_integral``: the nested time-ordered integral
  (-i)^q \\int_0^t dt_q ... \\int_0^{t_2} dt_1 e^{-i(g_q t_q + ... + g_1 t_1)}
  as q spectral antiderivatives on one 32-point Gauss-Legendre rule: the
  Hermite-Genocchi left-hand side that the kernel evaluates in closed form.
* ``ode_evolve``: direct integration of i dpsi/dt = H(t) psi by the
  adaptive 8th-order Dormand-Prince pair (DOP853), at one time or over a
  grid of times, each sign of t one solve outward from 0 read at the
  grid's times from the dense output.  Its right-hand side is one sum over
  a stack of gather rows indexed by landing state, the diagonal first, and
  it raises ``CapacityError`` past ``_ODE_MAX_EVALUATIONS`` evaluations in
  one call or where the model's energy scale overflows the step-size
  control.
* ``mat_exp_evolve``: e^{-i H t} |z0> by a dense matrix exponential for
  time-independent models.
* ``infidelity``: 1 - |<psi|psi_Q>|^2 against a normalized reference.
* ``exp_dd_highprec``: the divided-difference recursion in extended
  precision, raised until two evaluations agree (distinct nodes only).

Dense oracles are capped at dimension 512: they exist for verification,
not production scale.  scipy and mpmath are imported inside the oracles
that use them, so ``import ddyson`` does not load them.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .divdiff import _check_int, _check_real, _check_time, as_nodes
from .engine import StateVector
from .errors import (CapacityError, DegenerateNodesError, ModelError,
                     StiffnessError)
from .hamiltonian import HamiltonianModel, _check_index, eval_H, is_time_independent

DENSE_DIMENSION_CAP = 512
# Gauss-Legendre points of the simplex rule.  On validate's identity-1 draws
# a 24-point rule agrees to 7e-16 and a 40-point rule to 3e-15 relative.
_SIMPLEX_POINTS = 32
_HIGHPREC_MAX_DIGITS = 4000
# Right-hand-side evaluations one ``ode_evolve`` call may make, over all of
# its times.  DOP853 takes 12 per step and 3 more for the dense output of a
# step that holds an interior grid time.  The tests and the benchmark's cli
# round use at most 326 (the sweep's 9-point grid to t = 0.08); the single
# spin at t = 1000 needs 38,045.  Past the cap the oracle raises, after
# ~1.1 s on 2 cores for the spin at t = 1e4.
_ODE_MAX_EVALUATIONS = 100_000


def dd_nodes_from_rates(gammas) -> np.ndarray:
    """Divided-difference nodes matching the time-ordered integral.

    For phase rates (g_1, ..., g_q) the nodes are the suffix sums
    x_j = g_{j+1} + ... + g_q for j = 0..q-1, followed by a literal 0.
    """
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    nodes = np.zeros(g.size + 1, dtype=complex)
    nodes[:-1] = np.cumsum(g[::-1])[::-1]
    return nodes


@functools.lru_cache(maxsize=None)
def _gauss_antiderivative(n: int):
    """Nodes, weights and spectral antiderivative matrix of the n-point rule on [0, 1]."""
    x, w = leggauss(n)
    v = legvander(x, n)
    k = np.arange(n)
    # int_{-1}^x P_k = (P_{k+1} - P_{k-1}) / (2k + 1), and x + 1 for k = 0
    prim = np.column_stack([x + 1.0, (v[:, 2:] - v[:, :-2]) / (2 * k[1:] + 1)])
    # Legendre coefficients from values, exact by Gauss orthogonality
    coeffs = (k + 0.5)[:, None] * v[:, :n].T * w
    return 0.5 * (x + 1.0), 0.5 * w, 0.5 * prim @ coeffs


def _nested_gl(t: float, gammas: np.ndarray, n: int) -> complex:
    # unit-simplex form (-it)^q level_q(1), with level_0 = 1 and
    # level_j(s) = int_0^s e^{-it g_j u} level_{j-1}(u) du
    u, w, antiderivative = _gauss_antiderivative(n)
    phases = np.exp(-1j * t * np.multiply.outer(gammas, u))
    level = np.ones(n, dtype=complex)
    for phase in phases[:-1]:
        level = antiderivative @ (phase * level)
    return complex((-1j * t) ** gammas.size * (w @ (phases[-1] * level)))


def simplex_integral(t, gammas) -> complex:
    """Nested time-ordered integral: q antiderivatives on a 32-point rule."""
    t = _check_time(t)
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gammas must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(g)):
        raise ValueError("gammas must be finite")
    return _nested_gl(t, g, _SIMPLEX_POINTS)


def _check_dense(model: HamiltonianModel) -> None:
    if model.dimension > DENSE_DIMENSION_CAP:
        raise ValueError(
            f"dense oracles support dimension <= {DENSE_DIMENSION_CAP}, "
            f"got {model.dimension}")


def ode_evolve(model: HamiltonianModel, z0: int, t,
               tol: float = 1e-10) -> StateVector | list[StateVector]:
    """Schrodinger solution |psi(t)> from |z0> by adaptive 8th-order stepping.

    ``t`` is one time, for one ``StateVector``, or a 1-D array of times, for
    a list of them in input order.  The times may be unsorted, repeated,
    negative or 0 (which gives |z0> exactly); each sign is one DOP853 solve
    outward from 0 that reads its sorted distinct |t| from the dense output,
    so a grid costs about its farthest time.  A non-finite or 2-D ``t`` is a
    ValueError, and a complex one a TypeError.

    H(t) psi is one sum over a stack of gather rows indexed by landing
    state: the diagonal first, then one row per (term, factor).  Raises
    CapacityError after ``_ODE_MAX_EVALUATIONS`` right-hand-side
    evaluations over the whole call, or where the integration overflows.
    """
    from scipy.integrate import solve_ivp

    _check_dense(model)
    z0 = _check_index(model, z0)
    _check_real(t)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise ValueError("t must be one finite time or a 1-D array of them")
    grid = times.reshape(-1)
    if not 0.0 < float(tol) < np.inf:
        raise ValueError("tol must be finite and > 0")

    psi0 = np.zeros(model.dimension, dtype=complex)
    psi0[z0] = 1.0
    # gather rows indexed by landing state, each a source, a coefficient
    # and a rate: row 0 is the diagonal (z, E_z, 0), then one row per
    # (term, factor) with the preimage, d and i lam there, all zero where
    # the state has no preimage
    targets, lam, d = model.step_tables
    M, K, D = d.shape
    preimage = np.full((M, K, D), -1)
    term, src = np.nonzero(targets >= 0)
    preimage[term, :, targets[term, src]] = src[:, None]
    hit = preimage >= 0
    source, coeff, rate = (
        np.vstack([first, np.where(hit, rows, 0).reshape(M * K, D)]) for first, rows in
        ((np.arange(D), preimage), (model.energies, d), (np.zeros(D), 1j * lam)))
    far = float(max(grid, key=abs, default=0.0))
    calls = 0

    def rhs(tt, psi):
        nonlocal calls
        calls += 1
        if calls > _ODE_MAX_EVALUATIONS:
            raise CapacityError(
                f"adaptive integration to t = {far:g} took more than "
                f"{_ODE_MAX_EVALUATIONS} right-hand-side evaluations; "
                "reduce the time or the model's energy scale")
        # H psi: the rows summed in order, diagonal first
        return -1j * (np.exp(rate * tt) * coeff * psi[source]).sum(axis=0)

    states = np.tile(psi0, (grid.size, 1))
    for sign in (1.0, -1.0):
        ahead = sign * grid > 0.0
        if not ahead.any():
            continue
        span, where = np.unique(np.abs(grid[ahead]), return_inverse=True)
        try:
            # an energy scale near the float range overflows the step-size
            # control at once; the solve would need ~t * |H| steps anyway
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sol = solve_ivp(rhs, (0.0, sign * span[-1]), psi0, method="DOP853",
                                t_eval=sign * span, rtol=tol, atol=tol * 1e-3)
        except FloatingPointError as exc:
            raise CapacityError(
                f"adaptive integration to t = {far:g} overflows ({exc}); "
                "reduce the time or the model's energy scale") from exc
        if not sol.success:
            raise StiffnessError(f"adaptive integration failed: {sol.message}")
        states[ahead] = sol.y.T[where]
    if times.ndim == 0:
        return StateVector(amplitudes=states[0], time=float(times))
    return [StateVector(amplitudes=psi, time=float(ti)) for psi, ti in zip(states, grid)]


def mat_exp_evolve(model: HamiltonianModel, z0: int, t) -> StateVector:
    """e^{-i H t} |z0> by dense scaling-and-squaring (time-independent only)."""
    from scipy.linalg import expm

    _check_dense(model)
    if not is_time_independent(model):
        raise ModelError("mat_exp_evolve requires a time-independent model")
    z0 = _check_index(model, z0)
    t = _check_time(t)
    U = expm(-1j * t * eval_H(model, 0.0))
    return StateVector(amplitudes=U[:, z0].copy(), time=t)


def infidelity(psi: StateVector, psi_q: StateVector) -> float:
    """1 - |<psi|psi_Q>|^2 with psi normalized and psi_Q used as is.

    Not symmetric: the reference is normalized, the truncated-series state
    is deliberately left raw.
    """
    if psi.dimension != psi_q.dimension:
        raise ValueError("states must share a dimension")
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("reference state must be nonzero")
    overlap = np.vdot(psi.amplitudes / nrm, psi_q.amplitudes)
    return float(1.0 - abs(overlap) ** 2)


def exp_dd_highprec(t, inputs, digits: int = 60) -> complex:
    """e^{-i t [x_0, ..., x_q]} by the recursion in extended precision.

    Extended-precision oracle for the production kernel; nodes must be
    pairwise distinct (the recursion divides by gaps).  The recursion
    cancels away about q log10(1 / (t gap)) digits, so a fixed precision is
    no reference at high order or small t * spread.  Starting at ``digits``,
    the working precision doubles until two successive evaluations agree to
    1e-24 relative; the finer one is returned.  ``digits`` must be an
    integer >= 1, or ValueError.  Raises ``CapacityError``
    if they still disagree at 4000 digits; no recursion runs past that.
    """
    import mpmath as mp

    t = _check_time(t)
    digits = _check_int(digits, "digits", 1)
    x = as_nodes(inputs)
    if np.unique(x).size != x.size:
        raise DegenerateNodesError(
            "extended-precision recursion requires distinct nodes")

    def recursion(dps):
        with mp.workdps(dps):
            tt = mp.mpf(t)
            xs = [mp.mpc(complex(v)) for v in x]
            col = [mp.exp(-1j * tt * z) for z in xs]
            for span in range(1, len(xs)):
                col = [(col[i + 1] - col[i]) / (xs[i + span] - xs[i])
                       for i in range(len(col) - 1)]
            return col[0]

    if t == 0.0:
        return complex(x.size == 1)
    digits = min(digits, _HIGHPREC_MAX_DIGITS)
    coarse = recursion(digits)
    while digits < _HIGHPREC_MAX_DIGITS:
        digits = min(2 * digits, _HIGHPREC_MAX_DIGITS)
        fine = recursion(digits)
        # too few digits can give an exact 0 at both precisions
        with mp.workdps(digits):
            if fine != 0 and abs(fine - coarse) <= mp.mpf("1e-24") * abs(fine):
                return complex(fine)
        coarse = fine
    raise CapacityError(
        f"extended-precision recursion did not settle by {digits} digits")
