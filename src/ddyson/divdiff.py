"""Numerically stable divided differences of the exponential function.

The central primitive is ``exp_dd(t, nodes)``, the divided difference
e^{-i t [x_0, ..., x_q]} of f(x) = exp(-i t x) over a multiset of complex
nodes.  The textbook recursion divides by node gaps and cancels
catastrophically for clustered inputs.  ``exp_dd`` instead reads the value
off the top row of exp(-i t (diag(x) + S)), with S the superdiagonal of
ones (the Opitz form of the divided-difference table), so no gap is ever
divided by and repeated nodes need no special case.

Each row is shifted to its centroid mu and the time is split into s = 2^m
slices with |tau (x_j - mu)| <= 1.  One slice is the Taylor polynomial of
degree n + 17 (n = q + 1 nodes), fixed in advance: its tail is below 1e-16
relative to every entry.  Only the top row is carried, so a Taylor term is
an O(n) vector update of a (B, n) batch.  Up to s = n slices the row is
pushed through the same update once per slice; past that the full slice
table (O(n^2) per term) is built once and squared m times, so long times
cost O(log s) table products instead of s slices.  Chained tables hold
divided differences over runs of consecutive nodes, so before chaining
the nodes are reordered to keep every run spread out, and the squaring
runs in extended precision.

The generic recursion survives as ``dd_recursive``, a cross-check oracle
restricted to well-separated nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateNodesError

# Largest |tau * (x_j - mu)| one slice may cover.
_SLICE_CAP = 1.0
# Work budget of one kernel call: its largest array holds at most this many
# complex elements, B * n on the vector route and B * n^2 on the squaring
# route.  ``exp_dd_batch`` splits larger batches into row chunks under it
# (one row per chunk once n, or n^2, alone exceeds it).
_CHUNK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class DdEvalStats:
    """Work accounting for one ``exp_dd`` evaluation (per input row)."""

    n_slices: int
    table_ops: int

    @property
    def ops_per_slice(self) -> float:
        return self.table_ops / self.n_slices


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


def _slice_count(t: float, delta: np.ndarray) -> int:
    """Smallest power of two s with |t * delta| / s <= _SLICE_CAP."""
    with np.errstate(over="ignore"):
        amax = float(np.abs(t * delta).max())
    if not np.isfinite(amax):
        raise ValueError("time times node spread overflows")
    mant, exp = math.frexp(amax / _SLICE_CAP)
    return 1 << max(0, exp - (mant == 0.5))


def _centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = x.mean(axis=1)
    return mu, x - mu[:, None]


def _squares(n_slices: int, n: int) -> bool:
    """Route choice: square a slice table instead of chaining row updates.

    Chaining costs s (n + 17) O(n) row updates, squaring (n + 17) O(n^2)
    table updates plus log2(s) O(n^3) products, in extended precision.
    Measured at B = 256 rows (n = 6 to 31), chaining stays the faster route
    up to s ~ 7n to 13n, with its largest array at B * n.  It stops at
    s = n for accuracy: in double precision, chained or squared tables lose
    up to ~1e-11 relative once t * spread passes ~100, and s <= n keeps
    t * spread <= 2n.  Single rows would favour squaring from s = 4 to 16,
    but batches set the cost of a run.
    """
    return n_slices > n


@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    bits = max(1, (n - 1).bit_length())
    order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
    order = np.array([i for i in order if i < n])
    order.setflags(write=False)
    return order


def _spread_order(delta: np.ndarray) -> np.ndarray:
    """Per-row node order, from centred nodes, in which every run of
    consecutive nodes spans the row's whole node cloud.

    Chaining multiplies tables whose entries are divided differences over
    runs of consecutive nodes.  A run of nearby nodes has a divided
    difference far larger than the whole row's, and the products cancel
    down to the small result: sorted nodes at t * spread = 1e3 and q = 40
    lose all digits.  The nodes are sorted along the principal axis of
    their cloud and taken in bit-reversed (van der Corput) order.
    """
    axis = np.exp(-0.5j * np.angle((delta * delta).sum(axis=1)))
    order = np.argsort((delta * axis[:, None]).real, axis=1)
    return order[:, _bit_reversal(delta.shape[1])]


def _taylor(r: np.ndarray, bd: np.ndarray, bs: complex, degree: int) -> np.ndarray:
    """r @ exp(diag(bd) + bs S) by its Taylor polynomial, on the last axis."""
    acc = r.copy()
    term = r.copy()
    nxt = np.empty_like(acc)
    for k in range(1, degree + 1):
        np.multiply(term, bd, out=nxt)
        nxt[..., 1:] += bs * term[..., :-1]
        nxt *= 1.0 / k
        acc += nxt
        term, nxt = nxt, term
    return acc


def _exp_dd_core(t: float, x: np.ndarray) -> tuple[np.ndarray, DdEvalStats]:
    """e^{-i t [x_b0, ..., x_b(n-1)]} for each row b of a (B, n) node batch.

    Returns (values, stats).  All rows share one slicing (chosen from the
    worst row), which only ever over-resolves.
    """
    B, n = x.shape
    if n == 1:
        values = np.exp(-1j * t * x[:, 0])
        return values, DdEvalStats(n_slices=1, table_ops=B)

    mu, delta = _centered(x)
    n_slices = _slice_count(t, delta)
    squares = _squares(n_slices, n)
    if n_slices > 1:
        # one slice is accurate in any node order; chaining is not
        x = np.take_along_axis(x, _spread_order(delta), axis=1)
        if squares:
            # the products of a squaring cancel more than a row update does;
            # extended precision (where the platform has it) absorbs that
            x = x.astype(np.clongdouble)
        mu, delta = _centered(x)
    # exp(-it Z) = e^{-it mu} exp(-it (Z - mu)); one slice is
    # e^{-i tau mu} exp(bd + bs S) with bd = -i tau (x - mu), bs = -i tau.
    tau = t / n_slices
    bd = -1j * tau * delta
    bs = -1j * tau
    phase = np.exp(-1j * tau * mu)[:, None]
    # with |bd| <= 1, Taylor term k adds at most tau^j / (j! (k - j)!) to
    # entry j, whose value is at least ~0.2 tau^j / j!; degree n + 17 so
    # leaves a tail below 5 / 19! ~ 4e-17 relative to each entry.
    degree = n + 17

    if not squares:
        rows = np.zeros((B, n), dtype=complex)
        rows[:, 0] = 1.0
        for _ in range(n_slices):
            rows = _taylor(rows, bd, bs, degree) * phase
        ops = n_slices * degree * 2 * n
    else:
        eye = np.broadcast_to(np.eye(n, dtype=x.dtype), (B, n, n))
        table = _taylor(eye, bd[:, None, :], bs, degree) * phase[:, :, None]
        squarings = n_slices.bit_length() - 1
        for _ in range(squarings):
            table = table @ table
        rows = table[:, 0, :]
        ops = degree * 2 * n * n + squarings * n ** 3

    return rows[:, -1].astype(complex), DdEvalStats(n_slices=n_slices,
                                                    table_ops=ops)


def exp_dd(t, inputs) -> complex:
    """Divided difference e^{-i t [x_0, ..., x_q]} of exp(-i t x).

    Exact for a single node (plain exponential); repeated nodes evaluate to
    the confluent limit, e.g. q+1 equal nodes give (-it)^q e^{-itx} / q!.
    The value is invariant under permutation of the inputs.
    """
    return exp_dd_stats(t, inputs)[0]


def exp_dd_stats(t, inputs) -> tuple[complex, DdEvalStats]:
    """``exp_dd`` plus work accounting (slice count, table operations)."""
    t = _check_time(t)
    x = as_nodes(inputs)
    values, stats = _exp_dd_core(t, x[None, :])
    return complex(values[0]), stats


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
    n = x.shape[1]
    # a chunk never slices more finely than the whole batch, so the batch's
    # route bounds the array of every chunk's route
    width = n * n if _squares(_slice_count(t, _centered(x)[1]), n) else n
    step = max(1, _CHUNK_ELEMENTS // width)
    return np.concatenate([_exp_dd_core(t, x[s:s + step])[0]
                           for s in range(0, x.shape[0], step)])


def _check_separation(x: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(x).max()))
    n = x.size
    for i in range(n):
        gaps = np.abs(x[i + 1:] - x[i])
        if gaps.size and gaps.min() <= 1e-12 * scale:
            raise DegenerateNodesError(
                "nodes are coincident to within 1e-12 relative separation; "
                "use exp_dd, which handles confluent limits")


def dd_recursive(f_values, inputs) -> complex:
    """f[x_0, ..., x_q] by the Newton recursion (test oracle, distinct nodes).

    Requires pairwise-distinct nodes (minimum separation 1e-12 relative to
    the node scale) because every step divides by a node gap.
    """
    x = as_nodes(inputs)
    f = np.atleast_1d(np.asarray(f_values, dtype=complex))
    if f.shape != x.shape:
        raise ValueError("f_values and inputs must have equal length")
    if not np.all(np.isfinite(f)):
        raise ValueError("f_values must be finite")
    _check_separation(x)
    col = f
    for span in range(1, x.size):
        col = (col[1:] - col[:-1]) / (x[span:] - x[:-span])
    return complex(col[0])


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
