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
  grid's times from the dense output.  The solver is numpy code that does
  scipy's ``solve_ivp(method="DOP853")`` arithmetic step for step, so its
  states match scipy's (bit for bit on the tests' cases).  Its right-hand side is one sum over
  a stack of gather rows indexed by landing state, the diagonal first, and
  it raises ``CapacityError`` past ``_ODE_MAX_EVALUATIONS`` evaluations in
  one call or where the model's energy scale overflows the step-size
  control.
* ``mat_exp_evolve``: e^{-i H t} |z0> by a dense matrix exponential for
  time-independent models, a Pade-13 scaling and squaring.
* ``infidelity``: 1 - |<psi|psi_Q>|^2 against a normalized reference.
* ``exp_dd_highprec``: the divided-difference recursion in extended
  precision, raised until two evaluations agree (distinct nodes only).

Dense oracles are capped at dimension 512: they exist for verification,
not production scale.  No oracle needs scipy, which the tests hold them
to; mpmath is imported inside ``exp_dd_highprec``, so ``import ddyson``
does not load it.
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
# its times.  DOP853 takes 2 to start a solve, 12 per step tried and 3 more
# for the dense output of a step that passes a grid time, its last step
# included.  The tests and the benchmark's cli round use at most 326 (the
# sweep's 9-point grid to t = 0.08; one call at t = 0.08 alone takes 305);
# the single spin at t = 1000 needs 38,045.  Past the cap the oracle
# raises, after ~1.6 s on 2 cores for the spin at t = 1e4.
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


def _table(rows, width: int) -> np.ndarray:
    """Rows of {column: coefficient} as one dense (len(rows), width) array."""
    table = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        table[i, list(row)] = list(row.values())
    return table


# DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations
# I, II.10) with the coefficients scipy's solve_ivp(method="DOP853") uses.
# Rows 1-11 of A make the step's stages, row 12 is the weights of the 8th-
# order solution and rows 13-15 make the stages of the 7th-order dense
# output; E5 and E3 are the 5th- and 3rd-order error estimates and D the
# dense output's last four coefficient rows
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = _table([
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
], 16)
_E5, _E3 = _table([
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.02265179219836082},
], 13)
_D = _table([
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
], 16)


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """A step's error relative to ``scale``: the 5th-order estimate damped by
    the 3rd-order one, |h| |e5|^2 / sqrt(n (|e5|^2 + |e3|^2 / 100))."""
    err5_2 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    err3_2 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _dop853(fun, y0: np.ndarray, reads: np.ndarray, rtol: float,
            atol: float) -> np.ndarray:
    """y(t) at each of ``reads`` for y' = fun(t, y), y(0) = y0: one DOP853
    solve from 0 to the last of ``reads``, which are nonzero, of one sign and
    sorted outward.  Each step that passes some of them reads them from its
    dense output, three evaluations more.  A step the error control would
    take below 10 float spacings of t is a StiffnessError.

    The arithmetic is scipy's, operation for operation: the same tableau, the
    same initial step, the step-size factor 0.9 err^(-1/8) held to [0.2, 10]
    (at most 1 after a rejection), and the same dense output.
    """
    t_bound = float(reads[-1])
    direction = np.sign(t_bound)
    reach = np.abs(reads)
    t, y, f = 0.0, y0, fun(0.0, y0)
    # the initial step of Hairer, Norsett & Wanner II.4
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_bound))
    d2 = _rms((fun(h0 * direction, y0 + h0 * direction * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, abs(t_bound))

    K = np.empty((len(_C), y0.size), dtype=complex)
    states = np.empty((reads.size, y0.size), dtype=complex)
    done = 0
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError("adaptive integration failed: Required step "
                                     "size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _A[12, :12])
            K[12] = f_new = fun(t + h, y_new)
            error = _error_norm(K[:13], h, atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
            if error < 1:
                break
            h_abs *= max(0.2, 0.9 * error ** (-1 / 8))
            rejected = True
        factor = 10 if error == 0 else min(10, 0.9 * error ** (-1 / 8))
        h_abs *= min(1, factor) if rejected else factor
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        stop = np.searchsorted(reach, abs(t), side="right")
        if stop == done:
            continue
        for s in range(13, 16):
            K[s] = fun(t_old + _C[s] * h, y_old + np.dot(K[:s].T, _A[s, :s]) * h)
        dy = y - y_old
        # the interpolant's rows, innermost last, alternately times x and 1 - x
        rows = [dy, h * K[0] - dy, 2 * dy - h * (f + K[0]), *(h * np.dot(_D, K))]
        x = ((reads[done:stop] - t_old) / h)[:, None]
        out = np.zeros((stop - done, y0.size), dtype=complex)
        for i, row in enumerate(reversed(rows)):
            out += row
            out *= x if i % 2 == 0 else 1 - x
        states[done:stop] = out + y_old
        done = stop
    return states


def ode_evolve(model: HamiltonianModel, z0: int, t,
               tol: float = 1e-10) -> StateVector | list[StateVector]:
    """Schrodinger solution |psi(t)> from |z0> by adaptive 8th-order stepping.

    ``t`` is one time, for one ``StateVector``, or a 1-D array of times, for
    a list of them in input order.  The times may be unsorted, repeated,
    negative or 0 (which gives |z0> exactly); each sign is one DOP853 solve
    outward from 0 that reads its sorted distinct |t| from the dense output,
    so a grid costs about its farthest time.  The local error is held to
    ``tol`` relative (at least 100 float epsilons) and ``tol * 1e-3``
    absolute.  A non-finite or 2-D ``t`` is a ValueError, and a complex one
    a TypeError.

    H(t) psi is one sum over a stack of gather rows indexed by landing
    state: the diagonal first, then one row per (term, factor).  Raises
    CapacityError after ``_ODE_MAX_EVALUATIONS`` right-hand-side
    evaluations over the whole call, or where the integration overflows,
    and StiffnessError where the step would fall below the float spacing.
    """
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

    rtol = max(float(tol), 100 * np.finfo(float).eps)
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
                states[ahead] = _dop853(rhs, psi0, sign * span, rtol, tol * 1e-3)[where]
        except FloatingPointError as exc:
            raise CapacityError(
                f"adaptive integration to t = {far:g} overflows ({exc}); "
                "reduce the time or the model's energy scale") from exc
    if times.ndim == 0:
        return StateVector(amplitudes=states[0], time=float(times))
    return [StateVector(amplitudes=psi, time=float(ti)) for psi, ti in zip(states, grid)]


# Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
# the [13/13] Pade numerator's coefficients, and the largest 1-norm at which
# it meets double precision unscaled
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a: a scaled by 2^-s to 1-norm <= theta_13, the [13/13] Pade
    approximant, squared s times."""
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(len(a))
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def mat_exp_evolve(model: HamiltonianModel, z0: int, t) -> StateVector:
    """e^{-i H t} |z0> by dense scaling-and-squaring (time-independent only)."""
    _check_dense(model)
    if not is_time_independent(model):
        raise ModelError("mat_exp_evolve requires a time-independent model")
    z0 = _check_index(model, z0)
    t = _check_time(t)
    U = _expm(-1j * t * eval_H(model, 0.0))
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
