"""Integral-free Dyson expansion over permutation-term paths.

Each expansion order q contributes one path per multi-index
(i_1..i_q, k_1..k_q): a walk through the basis picking one permutation
term and one exponential-sum factor at every step.  The time-ordered
Dyson integral for a path collapses to a single divided-difference
exponential over the Schrodinger-picture nodes y_j = E_j - sum_{l>j} lam_l
(energies and diagonals read along the trajectory), or over the
interaction-picture nodes x_j = y_j - E_final, whose last is 0:

    alpha = (prod_j d_j) * e^{-i t [x_0, ..., x_{q-1}, 0]}
    beta  = alpha * e^{-i t E_final} = (prod_j d_j) * e^{-i t [y_0, ..., y_q]}

``enumerate_paths`` with ``alpha``/``beta`` evaluates this one path at a
time, as a readable oracle; ``path_coefficients`` gives the same values
for a block of paths with one kernel call per order.  ``evolve_by_order`` evaluates it order by
order on a frontier of rows, each holding an endpoint z, the sorted
Schrodinger-picture nodes y and a weight.  A step with rate lam landing
on z' makes the child y' = sort((y - lam) u {E_z'}): every earlier node
shifts by the step's rate and the landing energy joins the list.  Divided
differences are symmetric in their nodes, so rows whose (z, y) are
bit-identical merge by summing their weights, which changes no value.  A
step off the basis, or whose d diagonal vanishes at the landing state,
is pruned by one rule (``_steps``) over the model's ``step_tables``, the
one format every route reads.  Children are visited depth-first in
blocks of ``_BLOCK_ROWS`` rows, so the working set stays bounded.

Time is bounded by one budget, ``_WORK_LIMIT`` kernel table operations
per call.  ``evolve_by_order`` adds each child's cost at the kernel's own
slice count (``divdiff._slice_exponents``, ``_table_ops``) when it builds
it, and ``enumerate_paths`` the one-slice cost of each path it yields;
either raises ``CapacityError`` before the kernel runs past the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divdiff import (_check_time, _slice_exponents, _table_ops, exp_dd,
                      exp_dd_batch)
from .errors import CapacityError, ModelError
from .hamiltonian import (HamiltonianModel, _check_index, is_time_independent,
                          path_energies)

# Kernel table operations one call may spend, ~2.0e8.  The oscillator
# (z0 = 4, t = 0.06) passes at Q = 7 (1.67e8 operations at the banded
# one-slice count, ~1.3 s on 2 cores); inputs past the budget raise within
# ~1 s.
_WORK_LIMIT = 3 * 2 ** 26
# Frontier rows expanded and merged together before the next order.
_BLOCK_ROWS = 4096
PICTURES = ("schrodinger", "interaction")


@dataclass(frozen=True)
class Path:
    """One expansion summand: term choices, factor choices, basis walk.

    ``terms`` holds 1-based permutation-term indices (i_1..i_q) and
    ``factors`` the aligned 1-based exponential-sum factor indices
    (k_1..k_q); ``trajectory`` the q + 1 visited states, from the start.
    """

    terms: tuple
    factors: tuple
    trajectory: tuple

    def __post_init__(self):
        if len(self.terms) != len(self.factors):
            raise ValueError("terms and factors must have equal length")
        if len(self.trajectory) != len(self.terms) + 1:
            raise ValueError("trajectory must hold one state per step plus the start")

    @property
    def order(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the basis at a fixed time.

    Truncated-series output is not exactly unitary, so no norm constraint
    is imposed.
    """

    amplitudes: np.ndarray
    time: float

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _step_entries(table: np.ndarray, path: Path) -> list:
    """Entry [i - 1, k - 1, z] of an (M, K, D) step table (``step_tables``)
    for each step (i, k) of the path, read at its landing state z."""
    M, K, _ = table.shape
    if not all(1 <= i <= M and 1 <= k <= K for i, k in zip(path.terms, path.factors)):
        raise ValueError(f"path term or factor index outside [1, {M}] x [1, {K}]")
    return [table[i - 1, k - 1, z]
            for i, k, z in zip(path.terms, path.factors, path.trajectory[1:])]


def _suffix_lambda_sums(model: HamiltonianModel, path: Path) -> np.ndarray:
    """S_j = sum_{l > j} lam_l for j = 0..q (S_q = 0)."""
    lam = np.array(_step_entries(model.step_tables[1], path), dtype=complex)
    return np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])


def y_inputs(model: HamiltonianModel, path: Path) -> np.ndarray:
    """Schrodinger-picture nodes y_j = E_j - sum_{l>j} lam_l, j = 0..q."""
    energies = path_energies(model, path.trajectory).astype(complex)
    return energies - _suffix_lambda_sums(model, path)


def x_inputs(model: HamiltonianModel, path: Path) -> np.ndarray:
    """Interaction-picture nodes x_j = y_j - E_q, j = 0..q.

    The last node, y_q - E_q = E_q - E_q, is exactly 0.
    """
    return y_inputs(model, path) - model.energies[path.trajectory[-1]]


def d_product(model: HamiltonianModel, path: Path) -> complex:
    """Product of the d diagonals read at each step's landing state."""
    out = 1.0 + 0j
    for d in _step_entries(model.step_tables[2], path):
        out *= d
    return complex(out)


def alpha(model: HamiltonianModel, path: Path, t) -> complex:
    """Interaction-picture coefficient of one (i_q, k_q) path."""
    return d_product(model, path) * exp_dd(t, x_inputs(model, path))


def beta(model: HamiltonianModel, path: Path, t) -> complex:
    """Schrodinger-picture coefficient: alpha times e^{-i t E_final}."""
    return d_product(model, path) * exp_dd(t, y_inputs(model, path))


def path_coefficients(model: HamiltonianModel, paths, t,
                      picture: str = "schrodinger") -> np.ndarray:
    """``beta`` (or ``alpha`` in the interaction picture) of each of a
    sequence of paths, with one ``exp_dd_batch`` call per order.

    Nodes and d products come from the one-path functions, and each value
    is their product as in ``beta``/``alpha``, so the coefficients equal
    theirs bit for bit.  Take the paths of ``enumerate_paths`` in bounded
    chunks (e.g. of ``_BLOCK_ROWS``): it can yield up to the work budget.
    """
    t = _check_time(t)
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    nodes_of = x_inputs if picture == "interaction" else y_inputs
    out = np.empty(len(paths), dtype=complex)
    by_order = {}
    for i, path in enumerate(paths):
        by_order.setdefault(path.order, []).append(i)
    for index in by_order.values():
        chosen = [paths[i] for i in index]
        values = exp_dd_batch(t, [nodes_of(model, p) for p in chosen])
        out[index] = [d_product(model, p) * v
                      for p, v in zip(chosen, values.tolist())]
    return out


def _over_budget(work: int, order: int) -> CapacityError:
    return CapacityError(
        f"kernel work reached {work:.3g} table operations by order {order}, "
        f"past the budget of {_WORK_LIMIT:.3g}; "
        "reduce the expansion order or the time")


def enumerate_paths(model: HamiltonianModel, z: int, max_order: int):
    """All defined, non-vanishing paths of order <= max_order from |z>.

    Depth-first over (term, factor) steps in term-then-factor order, by the
    frontier's step rule (``_steps``): a step off the basis, or whose d
    diagonal vanishes at the landing state, is pruned with its subtree.
    Each path counts its one-slice kernel cost against the work budget; the
    generator raises CapacityError at the path that passes it.
    """
    _check_index(model, z)
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    targets, _, d = model.step_tables
    landing, _, kept = _steps(targets, d, np.arange(model.dimension))
    landing = landing.tolist()
    # each state's (i, k, landing state) steps, as Python ints
    steps = [[] for _ in range(model.dimension)]
    for m, k, source in np.transpose(kept).tolist():
        steps[source].append((m + 1, k + 1, landing[m][source]))
    work = 0

    def walk(terms, factors, trajectory):
        nonlocal work
        work += _table_ops(len(trajectory), 1)
        if work > _WORK_LIMIT:
            raise _over_budget(work, len(terms))
        yield Path(terms=terms, factors=factors, trajectory=trajectory)
        if len(terms) == max_order:
            return
        for i, k, nxt in steps[trajectory[-1]]:
            yield from walk(terms + (i,), factors + (k,), trajectory + (nxt,))

    yield from walk((), (), (z,))


class _Rows(NamedTuple):
    """Frontier rows: endpoint z, sorted Schrodinger-picture nodes y, weight."""

    z: np.ndarray
    y: np.ndarray
    weight: np.ndarray

    def take(self, index) -> "_Rows":
        return _Rows(*(a[index] for a in self))


def _merged(rows: _Rows) -> _Rows:
    """One row per bit-identical (z, y) key, with the weights summed."""
    key = np.column_stack([rows.z.astype(complex), rows.y])
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    weight = (np.bincount(inverse, rows.weight.real)
              + 1j * np.bincount(inverse, rows.weight.imag))
    return rows.take(first)._replace(weight=weight)


def _steps(targets, d, z: np.ndarray):
    """The step rule: landing states (M, R) and d there (M, K, R) from each
    state in z (R,), and the (term, factor, row) of the steps with target
    >= 0 and d != 0, in that order."""
    M, K, _ = d.shape
    zc = targets[:, z]
    dc = d[np.arange(M)[:, None, None], np.arange(K)[:, None], zc[:, None, :]]
    return zc, dc, np.nonzero((zc[:, None, :] >= 0) & (dc != 0))


def _children(rows: _Rows, energies: np.ndarray, targets, lam, d) -> _Rows:
    """Every defined, non-vanishing (term, factor) step from every row."""
    zc, dc, (m, k, r) = _steps(targets, d, rows.z)
    z = zc[m, r]
    y = np.sort(np.column_stack([rows.y[r] - lam[m, k, z][:, None],
                                 energies[z]]), axis=1)
    return _merged(_Rows(z, y, rows.weight[r] * dc[m, k, r]))


def evolve_by_order(model: HamiltonianModel, z0: int, t, max_order: int,
                    picture: str = "schrodinger") -> np.ndarray:
    """Per-order state contributions, shape (max_order + 1, dimension).

    Row q holds the endpoint-summed coefficients of all order-q paths, so
    partial sums over rows give every truncation at once.  Each frontier
    block is one ``exp_dd_batch`` call: row (z, y, weight) adds
    weight * e^{-it[y]} at z, with the nodes shifted by -E_z in the
    interaction picture.  Deterministic for fixed arguments.  Raises
    CapacityError once the children built so far would cost the kernel more
    than the work budget, and ValueError where a row's t * spread is past
    the kernel's range.
    """
    _check_index(model, z0)
    t = _check_time(t)
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")

    energies = model.energies
    tables = model.step_tables
    D = model.dimension
    out = np.zeros((max_order + 1, D), dtype=complex)
    root = _Rows(np.array([z0]), np.full((1, 1), energies[z0], complex),
                 np.ones(1, complex))
    stack = [(0, root)]
    work = _table_ops(1, 1)
    while stack:
        q, rows = stack.pop()
        nodes = rows.y
        if picture == "interaction":
            nodes = nodes - energies[rows.z][:, None]
        values = rows.weight * exp_dd_batch(t, nodes)
        out[q] += (np.bincount(rows.z, values.real, D)
                   + 1j * np.bincount(rows.z, values.imag, D))
        if q < max_order:
            kids = _children(rows, energies, *tables)
            if kids.z.size == 0:
                continue
            # each row's kernel cost at its own slice count (E_z shifts a
            # row by a constant, which the slicing does not see)
            rows_by_exponent = np.bincount(_slice_exponents(t, kids.y))
            work += sum(int(c) * _table_ops(q + 2, 1 << m)
                        for m, c in enumerate(rows_by_exponent))
            if work > _WORK_LIMIT:
                raise _over_budget(work, q + 1)
            starts = range(0, kids.z.size, _BLOCK_ROWS)
            stack.extend((q + 1, kids.take(slice(s, s + _BLOCK_ROWS)))
                         for s in reversed(starts))
    return out


def evolve(model: HamiltonianModel, z0: int, t, max_order: int,
           picture: str = "schrodinger") -> StateVector:
    """State from |z0> summed over all paths of order <= max_order."""
    orders = evolve_by_order(model, z0, t, max_order, picture)
    return StateVector(amplitudes=orders.sum(axis=0), time=float(t))


def transition_amplitude(model: HamiltonianModel, z_in: int, z_fin: int,
                         t, max_order: int) -> complex:
    """<z_fin| state |z_in>: exactly the evolved amplitude at z_fin."""
    _check_index(model, z_fin)
    return complex(evolve(model, z_in, t, max_order).amplitudes[z_fin])


def amplitude_by_order(model: HamiltonianModel, z_in: int, z_fin: int,
                       t, max_order: int) -> np.ndarray:
    """Order-resolved transition amplitudes, length max_order + 1."""
    _check_index(model, z_fin)
    orders = evolve_by_order(model, z_in, t, max_order)
    return orders[:, z_fin].copy()


def evolve_ti(model: HamiltonianModel, z0: int, t, max_order: int) -> StateVector:
    """``evolve`` restricted to time-independent models (K = 1, all lam = 0)."""
    if not is_time_independent(model):
        raise ModelError(
            "evolve_ti requires a time-independent model (K = 1, all lam = 0)")
    return evolve(model, z0, t, max_order)
