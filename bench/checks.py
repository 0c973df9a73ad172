"""Independent checks of every benchmark result, run outside the timing.

Each check recomputes what an operation should return by a route that
shares no code with the expansion engine or the divided-difference kernel:

* ``orders``: the order hierarchy i d/dt psi_q = H_0 psi_q + V(t) psi_{q-1}
  (psi_0(0) = |z0>, psi_q(0) = 0), integrated with ``solve_ivp`` DOP853 at
  rtol 1e-13.  Row q of ``evolve_by_order`` must match psi_q(t).
* ``ti``: e^{-iHt}|z0> by ``scipy.linalg.expm``; the truncation at Q may
  miss it by at most the Dyson tail sum_{q>Q} (||V||_2 t)^q / q!.
* ``cli-*``: the written files are parsed and checked against the same
  references, or against a property the method must have (|c_1| = gamma t
  for the resonant two-level drive).

Matrices are built here: the oscillator's from its physics, a random
model's from its data (energies, permutation targets, factor diagonals).

``perturbations`` gives, for each kind of result, altered copies that its
check must reject; a run fails if any of them passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

RTOL, ATOL = 1e-13, 1e-15
ORDER_TOL = 1e-10        # engine rows against the integrated hierarchy
TI_SLACK = 1e-11         # rounding allowance on top of the Dyson tail
ORACLE_TOL = 1e-9        # the CLI's RK45 oracle column (tol 1e-10) vs DOP853
SWEEP_TOL = 1e-10        # printed infidelity against its recomputation
FERMI_RTOL = 1e-9        # |c_1| against gamma t
PERTURB = 1e-6


# ---------------------------------------------------------------------------
# dense models
# ---------------------------------------------------------------------------

def _quartic(dim: int) -> np.ndarray:
    """<m|(a + a^dag)^4|n> for m, n < dim, from a basis four states larger."""
    big = dim + 4
    a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
    x = a + a.T
    return np.linalg.matrix_power(x, 4)[:dim, :dim]


def dense(system):
    """(free energies, V(t) as a function) of a workload system."""
    kind, data = system
    if kind == "oscillator":
        dim = data["dim"]
        energies = data["omega"] * (np.arange(dim) + 0.5)
        x4 = 2.0 * data["gamma_eff"] * _quartic(dim)
        return energies, lambda t: math.cos(data["Omega"] * t) * x4
    if kind == "spin":
        v = np.array([[0.0, data["b"]], [data["b"], 0.0]], dtype=complex)
        return np.array([data["a"], -data["a"]]), lambda t: v
    if kind == "model":
        model = data
        blocks = []
        for tm in model.terms:
            src = np.nonzero(tm.perm.targets >= 0)[0]
            dst = tm.perm.targets[src]
            for f in tm.factors:
                blocks.append((dst, src, f.lam[dst], f.d[dst]))
        dim = model.dimension

        def v_of_t(t):
            v = np.zeros((dim, dim), dtype=complex)
            for dst, src, lam, d in blocks:
                v[dst, src] += np.exp(1j * lam * t) * d
            return v
        return np.asarray(model.energies, dtype=float), v_of_t
    raise ValueError(f"unknown system {kind!r}")


def _integrate(rhs, y0, t):
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def hierarchy(system, z0: int, t: float, Q: int) -> np.ndarray:
    """Order-resolved Dyson terms psi_q(t), shape (Q + 1, dim)."""
    energies, v_of_t = dense(system)
    dim = energies.size
    y0 = np.zeros((Q + 1) * dim, dtype=complex)
    y0[z0] = 1.0
    if t == 0.0:
        return y0.reshape(Q + 1, dim)

    def rhs(tt, y):
        psi = y.reshape(Q + 1, dim)
        out = energies * psi
        out[1:] += psi[:-1] @ v_of_t(tt).T
        return -1j * out.ravel()
    return _integrate(rhs, y0, t).reshape(Q + 1, dim)


def exact(system, z0: int, t: float) -> np.ndarray:
    """psi(t) of i d/dt psi = (H_0 + V(t)) psi from |z0>."""
    energies, v_of_t = dense(system)
    y0 = np.zeros(energies.size, dtype=complex)
    y0[z0] = 1.0
    if t == 0.0:
        return y0
    return _integrate(lambda tt, y: -1j * (energies * y + v_of_t(tt) @ y), y0, t)


def dyson_tail(phi: float, Q: int) -> float:
    """sum_{q > Q} phi^q / q!, the bound on a truncation at order Q when
    phi = int_0^t ||V(s)||_2 ds."""
    total, q = 0.0, Q + 1
    term = phi ** q / math.factorial(q)
    while term > 1e-30 * max(total, 1e-300) and q < Q + 400:
        total += term
        q += 1
        term *= phi / q
    return total


def _phi(system, t: float) -> float:
    """An upper bound on int_0^t ||V(s)||_2 ds: t times the largest norm on
    a 65-point grid of [0, t] (the oscillator's largest is at s = 0)."""
    _, v_of_t = dense(system)
    grid = np.linspace(0.0, t, 65)
    return t * max(np.linalg.norm(v_of_t(s), 2) for s in grid)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def reference(op):
    """What ``op`` should return, recomputed apart from the program."""
    s = op.spec
    if op.kind == "orders":
        return hierarchy(s["system"], s["z0"], s["t"], s["Q"])
    if op.kind == "ti":
        energies, v_of_t = dense(s["system"])
        h = np.diag(energies).astype(complex) + v_of_t(0.0)
        psi = expm(-1j * s["t"] * h)[:, s["z0"]]
        vt = np.linalg.norm(v_of_t(0.0), 2) * s["t"]
        return psi, dyson_tail(vt, s["Q"])
    if op.kind == "cli-evolve":
        system, z0, t, Q = s["system"], s["z0"], s["t"], s["Q"]
        return (hierarchy(system, z0, t, Q).sum(axis=0), exact(system, z0, t),
                dyson_tail(_phi(system, t), Q))
    if op.kind == "cli-sweep":
        table = {}
        for t in s["times"]:
            psi = exact(s["system"], s["z0"], t)
            psi = psi / np.linalg.norm(psi)
            partial = np.cumsum(hierarchy(s["system"], s["z0"], t, max(s["Q"])), axis=0)
            for q in s["Q"]:
                table[(t, q)] = 1.0 - abs(np.vdot(psi, partial[q])) ** 2
        return table
    if op.kind == "cli-amplitude":
        return s["gamma"] * s["t"]
    if op.kind == "cli-validate":
        return None
    raise ValueError(f"unknown kind {op.kind!r}")


# ---------------------------------------------------------------------------
# parsing and checking
# ---------------------------------------------------------------------------

def parse(op, result):
    """Engine results are arrays; CLI results are (exit code, file text)."""
    if not op.kind.startswith("cli-"):
        return np.asarray(result)
    rc, text = result
    if op.kind == "cli-validate":
        return rc, json.loads(text) if text else None
    rows = [{k: float(v) if v != "" else None for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]
    return rc, rows


def _fail(name: str, err: float, tol: float) -> str | None:
    return None if err <= tol else f"{name} {err:.3e} > {tol:.1e}"


def verify(op, parsed, ref) -> str | None:
    """None when the parsed result passes its check, else why it does not."""
    kind = op.kind
    if kind == "orders":
        if parsed.shape != ref.shape:
            return f"shape {parsed.shape} != {ref.shape}"
        return _fail("max |row - hierarchy|", float(np.abs(parsed - ref).max()),
                     ORDER_TOL)
    if kind == "ti":
        psi, tail = ref
        if parsed.shape != psi.shape:
            return f"shape {parsed.shape} != {psi.shape}"
        return _fail("||psi_Q - expm|| - Dyson tail",
                     float(np.linalg.norm(parsed - psi)) - tail, TI_SLACK)
    rc, data = parsed
    if rc != 0:
        return f"exit code {rc}"
    if kind == "cli-validate":
        if not data or not data.get("all_passed"):
            return "validate report missing or not all_passed"
        failed = [x["name"] for x in data["suites"] if not x["passed"]]
        return f"suites failed: {failed}" if failed else None
    if kind == "cli-evolve":
        truncated, psi, tail = ref
        if len(data) != psi.size:
            return f"{len(data)} rows for dimension {psi.size}"
        amp = np.array([complex(r["re"], r["im"]) for r in data])
        oracle = np.array([complex(r["oracle_re"], r["oracle_im"]) for r in data])
        prob = np.array([r["prob"] for r in data])
        return (_fail("max |amplitude - hierarchy truncation|",
                      float(np.abs(amp - truncated).max()), ORDER_TOL)
                or _fail("max |amplitude - exact| - Dyson tail",
                         float(np.abs(amp - psi).max()) - tail, ORDER_TOL)
                or _fail("max |oracle - exact|", float(np.abs(oracle - psi).max()),
                         ORACLE_TOL)
                or _fail("max |prob - |amplitude|^2|",
                         float(np.abs(prob - np.abs(amp) ** 2).max()), 1e-15))
    if kind == "cli-sweep":
        if len(data) != len(ref):
            return f"{len(data)} rows, expected {len(ref)}"
        worst = 0.0
        for r in data:
            key = (r["t"], int(r["Q"]))
            if key not in ref:
                return f"unexpected row t={r['t']} Q={r['Q']}"
            worst = max(worst, abs(r["infidelity"] - ref[key]))
        return _fail("max |infidelity - recomputed|", worst, SWEEP_TOL)
    if kind == "cli-amplitude":
        gamma_t = ref
        if len(data) != op.spec["Q"] + 1:
            return f"{len(data)} rows, expected {op.spec['Q'] + 1}"
        amps = [complex(r["re"], r["im"]) for r in data]
        for q, c in enumerate(amps):
            if q % 2 == 0 and c != 0:
                return f"even order {q} is {c}, parity makes it 0"
            if q % 2 == 1 and abs(c) > gamma_t ** q / math.factorial(q) * (1 + FERMI_RTOL):
                return f"|c_{q}| = {abs(c):.6e} exceeds (gamma t)^q/q!"
        cum = np.cumsum(amps)
        return (_fail("| |c_1| / (gamma t) - 1 |", abs(abs(amps[1]) / gamma_t - 1),
                      FERMI_RTOL)
                or _fail("max |cum - cumsum|", max(
                    abs(complex(r["cum_re"], r["cum_im"]) - c) for r, c in zip(data, cum)),
                    1e-15))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# self-test: altered results that the checks must reject
# ---------------------------------------------------------------------------

def _scale_largest(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    i = np.unravel_index(np.abs(out).argmax(), out.shape)
    out[i] *= 1 + PERTURB
    return out


def perturbations(op, parsed):
    """(name, altered copy) pairs of one parsed result."""
    kind = op.kind
    if kind == "orders":
        conj = parsed.copy()
        conj[1] = conj[1].conj()
        return [("largest amplitude x(1+1e-6)", _scale_largest(parsed)),
                ("order 1 conjugated", conj)]
    if kind == "ti":
        return [("largest amplitude x(1+1e-6)", _scale_largest(parsed))]
    rc, data = parsed
    if kind == "cli-validate":
        return [("exit code 1", (1, data)),
                ("all_passed false", (rc, dict(data, all_passed=False)))]
    rows = [dict(r) for r in data]
    if kind == "cli-evolve":
        r = max(rows, key=lambda r: abs(complex(r["re"], r["im"])))
        r["re"] *= 1 + PERTURB
        r["im"] *= 1 + PERTURB
        return [("largest amplitude x(1+1e-6)", (rc, rows))]
    if kind == "cli-sweep":
        r = max(rows, key=lambda r: abs(r["infidelity"]))
        r["infidelity"] *= 1 + PERTURB
        return [("largest infidelity x(1+1e-6)", (rc, rows))]
    if kind == "cli-amplitude":
        rows[1]["re"] *= 1 + PERTURB
        rows[1]["im"] *= 1 + PERTURB
        return [("order-1 amplitude x(1+1e-6)", (rc, rows))]
    raise ValueError(f"unknown kind {kind!r}")
