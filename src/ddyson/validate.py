"""Randomized cross-check suites wiring the engine against its oracles.

Each suite draws seeded random cases, compares two independent routes and
passes when its worst error is at most a fixed tolerance (a NaN fails):

* ``identity1_simplex_vs_kernel``: the kernel against the nested simplex
  integral (Hermite-Genocchi);
* ``identity2_shift``: the exponential shift identity;
* ``alpha_beta_bridge``: the two pictures of every enumerated path;
* ``ti_vs_matrix_exponential``: the engine at order 20 against a dense
  matrix exponential.

The first three draw every case first, in a fixed order, then evaluate
the kernel in batches: by node count with one time per row, or one order
of a block of paths at a time (``path_coefficients``).  Batched kernel
values equal case-by-case ``exp_dd`` calls bit for bit, and the errors are
formed case by case, so a seed reports the same ``max_error``.
The CLI ``validate`` command runs all of them and emits a JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

# ``exp_dd`` and ``evolve`` have no caller here; the benchmark's tracer
# wraps validate.exp_dd and validate.evolve
from .divdiff import exp_dd, exp_dd_batch, shift_inputs  # noqa: F401
from .engine import (_BLOCK_ROWS, enumerate_paths, evolve,  # noqa: F401
                     evolve_ti, path_coefficients)
from .hamiltonian import (
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
    eval_V,
)
from .oracles import dd_nodes_from_rates, mat_exp_evolve, simplex_integral


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float
    cases: int

    @property
    def passed(self) -> bool:
        """The worst error is at most the tolerance; a NaN error fails."""
        return self.max_error <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "cases": int(self.cases),
        }


def random_model(rng: np.random.Generator, dim: int = 4, n_terms: int = 2,
                 n_factors: int = 2,
                 time_independent: bool = False) -> HamiltonianModel:
    """Random dense-spectrum model with full random permutations.

    Time-independent variants get one factor with lam = 0; otherwise each
    factor draws a complex lam (positive imaginary part, so envelopes decay).
    """
    energies = rng.uniform(-2.0, 2.0, dim)
    terms = []
    k = 1 if time_independent else n_factors
    for _ in range(n_terms):
        perm = PermutationMap(rng.permutation(dim).astype(np.int64))
        factors = []
        for _ in range(k):
            if time_independent:
                lam = np.zeros(dim, dtype=complex)
            else:
                lam = (rng.uniform(-1.5, 1.5, dim)
                       + 1j * rng.uniform(0.0, 0.5, dim))
            d = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
            factors.append(ExpSumFactor(lam=lam, d=d))
        terms.append(PermutationTerm(perm=perm, factors=tuple(factors)))
    return HamiltonianModel(energies=energies, terms=tuple(terms))


def _result(name: str, errors: list, tolerance: float) -> SuiteResult:
    """A suite's result from its errors, one per case; ``np.max`` keeps a NaN."""
    return SuiteResult(name, float(np.max(errors)), tolerance, len(errors))


def _kernel_by_width(times: list, node_rows: list) -> list:
    """``exp_dd`` of each (time, nodes) case, one ``exp_dd_batch`` call per
    node count; the values equal one ``exp_dd`` call per case bit for bit."""
    out = [0j] * len(node_rows)
    widths = [len(nodes) for nodes in node_rows]
    for n in set(widths):
        index = [i for i, w in enumerate(widths) if w == n]
        values = exp_dd_batch(np.array([times[i] for i in index]),
                              [node_rows[i] for i in index])
        for i, v in zip(index, values.tolist()):
            out[i] = v
    return out


def suite_identity1(seed: int = 0) -> SuiteResult:
    """Kernel vs simplex quadrature at depth 1-4: 100 real, then 25 complex draws."""
    rng = np.random.default_rng(seed)
    real_cases, total, tolerance = 100, 125, 1e-8
    cases = []
    for case in range(total):
        q = int(rng.integers(1, 5))
        g = rng.uniform(-2.0, 2.0, q).astype(complex)
        if case >= real_cases:
            g += 1j * rng.uniform(-1.0, 1.0, q)
        cases.append((float(rng.uniform(0.0, 1.0)), g))
    rhs = _kernel_by_width([t for t, _ in cases],
                           [dd_nodes_from_rates(g) for _, g in cases])
    errors = [abs(simplex_integral(t, g) - r) for (t, g), r in zip(cases, rhs)]
    return _result("identity1_simplex_vs_kernel", errors, tolerance)


def suite_identity2(seed: int = 0) -> SuiteResult:
    """Shift identity e^{-it[x]} = e^{-itc} e^{-it[x - c]} on 200 random inputs."""
    rng = np.random.default_rng(seed)
    cases, tolerance = 200, 1e-10
    draws = []
    for _ in range(cases):
        q = int(rng.integers(0, 11))
        nodes = rng.uniform(-5.0, 5.0, q + 1) + 1j * rng.uniform(-2.0, 2.0, q + 1)
        c = complex(rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0))
        draws.append((nodes, c, float(rng.uniform(0.0, 1.0))))
    times = [t for _, _, t in draws]
    direct = _kernel_by_width(times, [nodes for nodes, _, _ in draws])
    shifted = _kernel_by_width(times, [shift_inputs(nodes, c)
                                       for nodes, c, _ in draws])
    errors = [abs(a - np.exp(-1j * t * c) * b) / max(abs(a), 1e-300)
              for (_, c, t), a, b in zip(draws, direct, shifted)]
    return _result("identity2_shift", errors, tolerance)


def suite_alpha_beta(seed: int = 0,
                     model: HamiltonianModel | None = None) -> SuiteResult:
    """beta = alpha * e^{-i t E_final} on every path of order <= 3 (4 random
    models), evaluated a block of paths and one order at a time."""
    rng = np.random.default_rng(seed)
    tolerance = 1e-10
    models = [model] if model is not None else [
        random_model(rng) for _ in range(4)]
    errors = []
    for m in models:
        t = float(rng.uniform(0.1, 1.0))
        z0 = int(rng.integers(0, m.dimension))
        paths = enumerate_paths(m, z0, 3)
        while block := list(islice(paths, _BLOCK_ROWS)):
            betas = path_coefficients(m, block, t, "schrodinger").tolist()
            alphas = path_coefficients(m, block, t, "interaction").tolist()
            for path, b, a in zip(block, betas, alphas):
                bridged = a * np.exp(-1j * t * m.energies[path.trajectory[-1]])
                errors.append(abs(b - bridged) / max(abs(b), 1e-300))
    return _result("alpha_beta_bridge", errors, tolerance)


def scale_perturbation(model: HamiltonianModel, factor: float) -> HamiltonianModel:
    """Copy of the model with every d diagonal scaled by ``factor``."""
    terms = tuple(
        PermutationTerm(perm=tm.perm, factors=tuple(
            ExpSumFactor(lam=f.lam, d=f.d * factor) for f in tm.factors))
        for tm in model.terms)
    return HamiltonianModel(energies=model.energies, terms=terms)


def random_ti_model(rng: np.random.Generator, t: float,
                    dim: int = 4) -> HamiltonianModel:
    """Random time-independent two-term model rescaled so that ||V|| * t <= 0.5."""
    model = random_model(rng, dim=dim, time_independent=True)
    vnorm = float(np.linalg.norm(eval_V(model, 0.0), 2))
    if vnorm * t > 0.5:
        model = scale_perturbation(model, 0.5 / (vnorm * t))
    return model


def suite_ti_vs_expm(seed: int = 0) -> SuiteResult:
    """Time-independent engine at order 20 vs dense matrix exponential, 3 models."""
    rng = np.random.default_rng(seed)
    errors, tolerance = [], 1e-8
    for _ in range(3):
        t = float(rng.uniform(0.1, 0.5))
        model = random_ti_model(rng, t)
        z0 = int(rng.integers(0, model.dimension))
        via_series = evolve_ti(model, z0, t, 20)
        via_expm = mat_exp_evolve(model, z0, t)
        errors.append(np.abs(via_series.amplitudes - via_expm.amplitudes).max())
    return _result("ti_vs_matrix_exponential", errors, tolerance)


def run_suites(seed: int = 0,
               model: HamiltonianModel | None = None) -> list[SuiteResult]:
    return [
        suite_identity1(seed),
        suite_identity2(seed),
        suite_alpha_beta(seed, model=model),
        suite_ti_vs_expm(seed),
    ]
