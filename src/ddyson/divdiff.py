"""Numerically stable divided differences of the exponential function.

The central primitive is ``exp_dd(t, nodes)``, the divided difference
e^{-i t [x_0, ..., x_q]} of f(x) = exp(-i t x) over a multiset of complex
nodes.  The textbook recursion divides by node gaps and cancels
catastrophically for clustered inputs, so ``exp_dd`` instead accumulates
the triangular table of the exponential by a Taylor series of the
centroid-shifted argument, with the time interval split into 2^s slices
whose tables are chained by the table product rule.  Repeated nodes are
handled implicitly (no gap is ever divided by), and the cost is O(q^2)
table operations per time slice.

The generic recursion survives as ``dd_recursive``, a cross-check oracle
restricted to well-separated nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodesError

# Taylor terms past the table order needed to exhaust double precision for
# a shifted, sliced argument with |tau * (x_j - mu)| <= _SLICE_CAP.
_EXTRA_TAYLOR_TERMS = 48
_SLICE_CAP = 1.0
# Work budget of one kernel call: at most this many B * n^2 elements in its
# (B, n, n) Taylor stack.  ``exp_dd_batch`` splits larger batches into row
# chunks under it (one row per chunk once n^2 alone exceeds it).
_CHUNK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class DdEvalStats:
    """Work accounting for one ``exp_dd`` evaluation (per input row)."""

    n_slices: int
    table_ops: int
    taylor_terms: int

    @property
    def ops_per_slice(self) -> float:
        return self.table_ops / self.n_slices


@dataclass(frozen=True)
class DdTable:
    """Triangular divided-difference table: entry (i, j) = f[x_i, ..., x_j].

    Only the upper triangle i <= j is meaningful; the diagonal holds the
    plain function values f(x_i).
    """

    entries: np.ndarray
    f_label: str

    @property
    def order(self) -> int:
        return self.entries.shape[0] - 1

    def entry(self, i: int, j: int) -> complex:
        if not 0 <= i <= j <= self.order:
            raise IndexError(f"table entry ({i}, {j}) outside upper triangle")
        return complex(self.entries[i, j])

    def top_row(self) -> np.ndarray:
        return self.entries[0].copy()


def as_nodes(inputs) -> np.ndarray:
    """Validate and return a 1-D complex node array (nonempty, finite)."""
    arr = np.atleast_1d(np.asarray(inputs, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("divided-difference inputs must be one-dimensional")
    if arr.size == 0:
        raise ValueError("divided-difference inputs must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("divided-difference inputs must be finite")
    return arr


def _check_time(t) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    return t


def _exp_dd_core(t: float, x: np.ndarray) -> tuple[np.ndarray, DdEvalStats]:
    """Top rows of exp(-i t [.]) tables for each row of a node batch.

    ``x`` has shape (B, n); returns (rows, stats) where rows[b, j] is
    e^{-i t [x_b0, ..., x_bj]}.  All rows share one slicing (chosen from
    the worst row), which only ever over-resolves.
    """
    B, n = x.shape
    stats_ops = 0

    if n == 1:
        rows = np.exp(-1j * t * x)
        return rows, DdEvalStats(n_slices=1, table_ops=B, taylor_terms=0)

    # Shift each row to its centroid: exp(-it Z) = e^{-it mu} exp(-it (Z - mu)).
    mu = x.mean(axis=1)
    delta = x - mu[:, None]

    amax = float(np.abs(t * delta).max())
    n_slices = 1
    while amax / n_slices > _SLICE_CAP:
        n_slices *= 2
    tau = t / n_slices

    # Slice table T = e^{-i tau mu} exp(-i tau (diag(delta) + S)) with S the
    # superdiagonal of ones; Taylor terms M_k = M_{k-1} B / k with
    # B = -i tau (diag(delta) + S), each a bidiagonal multiply.
    bd = -1j * tau * delta
    bs = -1j * tau
    eye = np.zeros((B, n, n), dtype=complex)
    idx = np.arange(n)
    eye[:, idx, idx] = 1.0
    T = eye.copy()
    M = eye
    terms_used = 0
    for k in range(1, n + _EXTRA_TAYLOR_TERMS + 1):
        Mn = M * bd[:, None, :]
        Mn[:, :, 1:] += M[:, :, :-1] * bs
        M = Mn / k
        T += M
        terms_used = k
        # 2 multiply-adds per upper-triangle entry per term
        stats_ops += n * (n + 1)
        if np.abs(M).max() <= 1e-20 * max(1.0, np.abs(T).max()):
            break
    T *= np.exp(-1j * tau * mu)[:, None, None]

    rows = T[:, 0, :].copy()
    for _ in range(n_slices - 1):
        rows = np.einsum("bk,bkj->bj", rows, T)
        stats_ops += n * (n + 1) // 2

    return rows, DdEvalStats(n_slices=n_slices, table_ops=stats_ops,
                             taylor_terms=terms_used)


def exp_dd(t, inputs) -> complex:
    """Divided difference e^{-i t [x_0, ..., x_q]} of exp(-i t x).

    Exact for a single node (plain exponential); repeated nodes evaluate to
    the confluent limit, e.g. q+1 equal nodes give (-it)^q e^{-itx} / q!.
    The value is invariant under permutation of the inputs.
    """
    t = _check_time(t)
    x = as_nodes(inputs)
    rows, _ = _exp_dd_core(t, x[None, :])
    return complex(rows[0, -1])


def exp_dd_stats(t, inputs) -> tuple[complex, DdEvalStats]:
    """``exp_dd`` plus work accounting (slice count, table operations)."""
    t = _check_time(t)
    x = as_nodes(inputs)
    rows, stats = _exp_dd_core(t, x[None, :])
    return complex(rows[0, -1]), stats


def exp_dd_batch(t, node_rows) -> np.ndarray:
    """``exp_dd`` applied to each row of a 2-D node array, in budgeted chunks."""
    t = _check_time(t)
    x = np.asarray(node_rows, dtype=complex)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a nonempty 2-D array of node rows")
    if x.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(np.isfinite(x)):
        raise ValueError("divided-difference inputs must be finite")
    step = max(1, _CHUNK_ELEMENTS // x.shape[1] ** 2)
    return np.concatenate([_exp_dd_core(t, x[s:s + step])[0][:, -1]
                           for s in range(0, x.shape[0], step)])


def exp_dd_table(t, inputs) -> DdTable:
    """Full triangular table of e^{-i t [x_i, ..., x_j]} over the inputs.

    Row i is the top row of the table for the suffix multiset
    {x_i, ..., x_q}, so every entry uses the same stable evaluation as
    ``exp_dd``.
    """
    t = _check_time(t)
    x = as_nodes(inputs)
    n = x.size
    entries = np.full((n, n), np.nan + 0j, dtype=complex)
    for i in range(n):
        rows, _ = _exp_dd_core(t, x[i:][None, :])
        entries[i, i:] = rows[0]
    return DdTable(entries=entries, f_label="exp(-i t x)")


def _check_separation(x: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(x).max()))
    n = x.size
    for i in range(n):
        gaps = np.abs(x[i + 1:] - x[i])
        if gaps.size and gaps.min() <= 1e-12 * scale:
            raise DegenerateNodesError(
                "nodes are coincident to within 1e-12 relative separation; "
                "use exp_dd, which handles confluent limits")


def dd_recursive_table(f_values, inputs, f_label: str = "f") -> DdTable:
    """Triangular table of f[x_i, ..., x_j] by the Newton recursion.

    Cross-check oracle only: requires pairwise-distinct nodes (minimum
    separation 1e-12 relative to the node scale) because every entry
    divides by a node gap.
    """
    x = as_nodes(inputs)
    f = np.atleast_1d(np.asarray(f_values, dtype=complex))
    if f.shape != x.shape:
        raise ValueError("f_values and inputs must have equal length")
    if not np.all(np.isfinite(f)):
        raise ValueError("f_values must be finite")
    _check_separation(x)
    n = x.size
    entries = np.full((n, n), np.nan + 0j, dtype=complex)
    entries[np.arange(n), np.arange(n)] = f
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            entries[i, j] = (entries[i + 1, j] - entries[i, j - 1]) / (x[j] - x[i])
    return DdTable(entries=entries, f_label=f_label)


def dd_recursive(f_values, inputs) -> complex:
    """f[x_0, ..., x_q] by the Newton recursion (test oracle, distinct nodes)."""
    table = dd_recursive_table(f_values, inputs)
    return table.entry(0, table.order)


def shift_inputs(inputs, x) -> np.ndarray:
    """Shifted node multiset {x_j - x}.

    Satisfies exp_dd(t, inputs) = e^{-i t x} * exp_dd(t, shift_inputs(inputs, x))
    for any constant x (the exponential shift identity).
    """
    nodes = as_nodes(inputs)
    x = complex(x)
    if not np.isfinite(x):
        raise ValueError("shift constant must be finite")
    return nodes - x
