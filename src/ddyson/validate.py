"""Randomized cross-check suites wiring the engine against its oracles.

Each suite draws seeded random cases, compares two independent evaluation
routes, and reports the worst observed error against a fixed tolerance.
The CLI ``validate`` command runs all of them and emits a machine-readable
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divdiff import exp_dd, shift_inputs
from .engine import beta, alpha, enumerate_paths, evolve, evolve_ti
from .hamiltonian import (
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
    eval_V,
)
from .oracles import (
    QuadratureSpec,
    dd_nodes_from_rates,
    mat_exp_evolve,
    simplex_integral,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    cases: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_error": float(self.max_error),
            "tolerance": float(self.tolerance),
            "cases": int(self.cases),
        }


def random_model(rng: np.random.Generator, dim: int = 4, n_terms: int = 2,
                 n_factors: int = 2, time_independent: bool = False,
                 v_scale: float = 1.0) -> HamiltonianModel:
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
            d = v_scale * (rng.uniform(-1.0, 1.0, dim)
                           + 1j * rng.uniform(-1.0, 1.0, dim))
            factors.append(ExpSumFactor(lam=lam, d=d))
        terms.append(PermutationTerm(perm=perm, factors=tuple(factors)))
    return HamiltonianModel(energies=energies, terms=tuple(terms))


def suite_identity1(seed: int = 0, real_cases: int = 100,
                    complex_cases: int = 25,
                    tolerance: float = 1e-8) -> SuiteResult:
    """Kernel vs nested simplex quadrature (the Hermite-Genocchi route)."""
    rng = np.random.default_rng(seed)
    spec = QuadratureSpec(nodes_per_dim=24)
    worst = 0.0
    total = real_cases + complex_cases
    for case in range(total):
        q = int(rng.integers(1, 5))
        g = rng.uniform(-2.0, 2.0, q).astype(complex)
        if case >= real_cases:
            g += 1j * rng.uniform(-1.0, 1.0, q)
        t = float(rng.uniform(0.0, 1.0))
        lhs = simplex_integral(t, g, spec).value
        rhs = exp_dd(t, dd_nodes_from_rates(g))
        worst = max(worst, abs(lhs - rhs))
    return SuiteResult("identity1_simplex_vs_kernel", worst <= tolerance,
                       worst, tolerance, total)


def suite_identity2(seed: int = 0, cases: int = 200,
                    tolerance: float = 1e-10) -> SuiteResult:
    """Shift identity e^{-it[x]} = e^{-itc} e^{-it[x - c]} on random inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        q = int(rng.integers(0, 11))
        nodes = rng.uniform(-5.0, 5.0, q + 1) + 1j * rng.uniform(-2.0, 2.0, q + 1)
        c = complex(rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 1.0))
        direct = exp_dd(t, nodes)
        shifted = np.exp(-1j * t * c) * exp_dd(t, shift_inputs(nodes, c))
        worst = max(worst, abs(direct - shifted) / max(abs(direct), 1e-300))
    return SuiteResult("identity2_shift", worst <= tolerance, worst,
                       tolerance, cases)


def suite_alpha_beta(seed: int = 0, n_models: int = 4, max_order: int = 3,
                     tolerance: float = 1e-10,
                     model: HamiltonianModel | None = None) -> SuiteResult:
    """beta = alpha * e^{-i t E_final} for every enumerated path."""
    rng = np.random.default_rng(seed)
    models = [model] if model is not None else [
        random_model(rng) for _ in range(n_models)]
    worst = 0.0
    count = 0
    for m in models:
        t = float(rng.uniform(0.1, 1.0))
        z0 = int(rng.integers(0, m.dimension))
        for path in enumerate_paths(m, z0, max_order):
            b = beta(m, path, t)
            bridged = alpha(m, path, t) * np.exp(
                -1j * t * m.energies[path.trajectory[-1]])
            worst = max(worst, abs(b - bridged) / max(abs(b), 1e-300))
            count += 1
    return SuiteResult("alpha_beta_bridge", worst <= tolerance, worst,
                       tolerance, count)


def scale_perturbation(model: HamiltonianModel, factor: float) -> HamiltonianModel:
    """Copy of the model with every d diagonal scaled by ``factor``."""
    terms = tuple(
        PermutationTerm(perm=tm.perm, factors=tuple(
            ExpSumFactor(lam=f.lam, d=f.d * factor) for f in tm.factors))
        for tm in model.terms)
    return HamiltonianModel(energies=model.energies, terms=terms)


def random_ti_model(rng: np.random.Generator, t: float, dim: int = 4,
                    n_terms: int = 2, vt_cap: float = 0.5) -> HamiltonianModel:
    """Random time-independent model rescaled so that ||V|| * t <= vt_cap."""
    model = random_model(rng, dim=dim, n_terms=n_terms, time_independent=True)
    vnorm = float(np.linalg.norm(eval_V(model, 0.0), 2))
    if vnorm * t > vt_cap:
        model = scale_perturbation(model, vt_cap / (vnorm * t))
    return model


def suite_ti_vs_expm(seed: int = 0, n_models: int = 3, max_order: int = 20,
                     tolerance: float = 1e-8) -> SuiteResult:
    """Time-independent engine at high order vs dense matrix exponential."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        t = float(rng.uniform(0.1, 0.5))
        model = random_ti_model(rng, t)
        z0 = int(rng.integers(0, model.dimension))
        via_series = evolve_ti(model, z0, t, max_order)
        via_expm = mat_exp_evolve(model, z0, t)
        worst = max(worst, float(np.abs(via_series.amplitudes
                                        - via_expm.amplitudes).max()))
    return SuiteResult("ti_vs_matrix_exponential", worst <= tolerance, worst,
                       tolerance, n_models)


def suite_ti_vs_engine(seed: int = 0, n_models: int = 3, max_order: int = 10,
                       tolerance: float = 1e-12) -> SuiteResult:
    """``evolve_ti`` vs ``evolve`` on time-independent models.

    Both run the same frontier engine, so this guards the ``evolve_ti``
    entry point, not the arithmetic; ``ti_vs_matrix_exponential`` is the
    independent check of the time-independent reduction.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        t = float(rng.uniform(0.1, 0.5))
        model = random_ti_model(rng, t)
        z0 = int(rng.integers(0, model.dimension))
        via_ti = evolve_ti(model, z0, t, max_order)
        via_general = evolve(model, z0, t, max_order)
        worst = max(worst, float(np.abs(via_ti.amplitudes
                                        - via_general.amplitudes).max()))
    return SuiteResult("ti_vs_general_engine", worst <= tolerance, worst,
                       tolerance, n_models)


def run_suites(seed: int = 0,
               model: HamiltonianModel | None = None) -> list[SuiteResult]:
    results = [
        suite_identity1(seed),
        suite_identity2(seed),
        suite_alpha_beta(seed, model=model),
        suite_ti_vs_expm(seed),
        suite_ti_vs_engine(seed),
    ]
    return results
