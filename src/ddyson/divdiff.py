"""Numerically stable divided differences of the exponential function.

The central primitive is ``exp_dd(t, nodes)``, the divided difference
e^{-i t [x_0, ..., x_q]} of f(x) = exp(-i t x) over a multiset of complex
nodes.  The textbook recursion divides by node gaps and cancels
catastrophically for clustered inputs.  ``exp_dd`` instead reads the value
off the top row of exp(-i t (diag(x) + S)), with S the superdiagonal of
ones (the Opitz form of the divided-difference table), so no gap is ever
divided by and repeated nodes need no special case.

Every evaluation goes through ``exp_dd_batch``, which holds its rows
node-major, an (n, B) array, from entry to result and centres them once
on their means mu.  The time is split into s = 2^m slices with
|tau (x_j - mu)| <= 1; one slice is the Taylor polynomial of degree
n + E (n = q + 1 nodes, E = ``_EXTRA_DEGREE``), whose tail is below 1e-16
relative to every entry.  Only the top row is carried, and a one-slice
row updates only the band of at most E + 2 entries its last entry reads.
Up to s = n slices a row is chained through the full O(n) update; past
that its slice table is built once and squared m times, in extended
precision.  Both first reorder the nodes so every run spans the cloud.
The relative error grows as t * spread * eps, so a row past 2^52 slices,
a phase t * |mu| past 2^52 or a value that overflows raises ValueError.

The generic recursion survives as ``dd_recursive``, a cross-check oracle
restricted to well-separated nodes.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import DegenerateNodesError

# Largest |tau * (x_j - mu)| one slice may cover.
_SLICE_CAP = 1.0
# Taylor degree past the node count: one slice over n nodes is the Taylor
# polynomial of degree n + E, E = _EXTRA_DEGREE.  exp(-it Z) is
# e^{-it mu} exp(-it (Z - mu)), so a slice is e^{-i tau mu} exp(bd + bs S)
# with bd = -i tau (x - mu), bs = -i tau.  With |bd| <= _SLICE_CAP = 1,
# Taylor term k adds at most tau^j / (j! (k - j)!) to entry j, whose value
# is at least ~0.2 tau^j / j!, so the terms past degree n + E leave a tail
# below 5 / (E + 2)! relative to each entry, ~4e-17 at E = 17.  A one-slice
# row's last entry reads a band of E + 2 entries of each term
# (``_taylor_band``).
_EXTRA_DEGREE = 17
# Most slices a row may need, 2^52, so t * spread stays below ~2^53.  The
# result's relative error grows as t * spread * eps (against
# ``exp_dd_highprec`` on real nodes: 1e-14 at t * spread = 1e4, 2e-10 at
# 1e8, 9e-5 at 1e13, 1.5e-2 at 1e16), and past 1 / eps = 2^52 no digit of
# it is significant.  The phase e^{-i t mu} has the same limit in t * |mu|.
_MAX_SLICE_EXPONENT = 52
_RANGE = 2.0 ** _MAX_SLICE_EXPONENT
_PAST_RANGE = (f"is past the kernel's range 2^{_MAX_SLICE_EXPONENT}: no digit "
               "of the divided difference would be significant")
# Work budget of one kernel call: its largest array holds at most this many
# complex elements, B * (n + 1) on the vector routes (the one-slice buffers
# carry a zero pad row) and B * n^2 on the squaring route.  ``exp_dd_batch``
# splits larger batches into row chunks under it (one row per chunk once
# n + 1, or n^2, alone exceeds it).
_CHUNK_ELEMENTS = 2 ** 14


def as_nodes(inputs) -> np.ndarray:
    """Validate and return a 1-D complex node array (nonempty, finite)."""
    arr = np.atleast_1d(np.asarray(inputs, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("divided-difference inputs must be one-dimensional")
    if arr.size == 0:
        raise ValueError("divided-difference inputs must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("divided-difference inputs must be finite")
    return arr


def _check_int(value, name: str, low: int = 0, error=ValueError) -> int:
    """``value`` as an int >= low (numpy integers and bools pass through
    ``operator.index``); ``error`` (ValueError or a subclass) for anything else."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{name} must be >= {low}")
    return value


def _check_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    return t


def _centered(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means mu and centred nodes of a node-major (n, B) batch.

    Reduced node by node (here and below): numpy reduces each short row
    of a (B, n) batch 2-3x more slowly than it combines long node rows.
    """
    mu = reduce(np.add, xt) / len(xt)
    return mu, xt - mu


def _slice_exponents(t, x: np.ndarray) -> np.ndarray:
    """``_exponents`` of a (B, n) node batch: the m of each row's slice
    count 2^m, as ``exp_dd_batch(t, x)`` picks it, with its range rule."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _exponents(t, *_centered(np.ascontiguousarray(x.T)))


def _exponents(t, mu: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per row of a node-major batch with ``_centered`` means mu and nodes
    delta, the m of its slice count s = 2^m: the least with
    |t (x_j - mu)| / s <= _SLICE_CAP (``t``: one time, or one per row).
    Raises ValueError past the kernel's range: past m =
    ``_MAX_SLICE_EXPONENT``, or where the phase t |mu| passes 2^52."""
    amax = np.abs(t * delta).max(axis=0)
    # nan and inf fail these tests too
    if not (amax <= _SLICE_CAP * _RANGE).all():
        raise ValueError(f"time times node distance from the mean, "
                         f"{np.max(amax):.3g}, {_PAST_RANGE}")
    phase = np.abs(t * mu).max(initial=0.0)
    if not phase <= _RANGE:
        raise ValueError(f"time times the node mean, {phase:.3g}, {_PAST_RANGE}")
    mant, exp = np.frexp(amax / _SLICE_CAP)
    return np.maximum(0, exp - (mant == 0.5))


def _squares(n_slices: int, n: int) -> bool:
    """Route choice: square a slice table instead of chaining row updates.

    Chaining costs s (n + E) O(n) row updates, squaring (n + E) O(n^2)
    table updates plus log2(s) O(n^3) products, in extended precision.
    Measured at B = 256 rows (n = 6 to 31), chaining stays the faster route
    up to s ~ 7n to 13n, with its largest array at B * n.  It stops at
    s = n for accuracy: in double precision, chained or squared tables lose
    up to ~1e-11 relative once t * spread passes ~100, and s <= n keeps
    t * spread <= 2n.  Single rows would favour squaring from s = 4 to 16,
    but batches set the cost of a run.
    """
    return n_slices > n


def _table_ops(n: int, n_slices: int) -> int:
    """Table operations ``_exp_dd_core`` spends on one row of n nodes.

    Two operations per entry a Taylor term updates.  One slice updates only
    the ``_taylor_band`` of each of its n + E terms (E = ``_EXTRA_DEGREE``),
    (E + 2) n - 1 entries in all.  Chained slices update all n entries of
    every term; the squaring route builds one n x n table the same way, then
    takes log2(n_slices) products of n^3.  A single node is one exponential.
    """
    if n == 1:
        return 1
    if n_slices == 1:
        return 2 * ((_EXTRA_DEGREE + 2) * n - 1)
    degree = n + _EXTRA_DEGREE
    if _squares(n_slices, n):
        return degree * 2 * n * n + (n_slices.bit_length() - 1) * n ** 3
    return n_slices * degree * 2 * n


def _batch_work(t, x: np.ndarray) -> int:
    """Table operations ``exp_dd_batch(t, x)`` spends on a (B, n) node
    batch, each row at its own slice count: the engine's work budget.
    Raises ValueError where the kernel refuses the batch for range (a value
    that overflows is found only by evaluating it)."""
    counts = np.bincount(_slice_exponents(t, x)).tolist()
    return sum(c * _table_ops(x.shape[1], 1 << m) for m, c in enumerate(counts))


@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    bits = max(1, (n - 1).bit_length())
    order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
    order = np.array([i for i in order if i < n])
    order.setflags(write=False)
    return order


def _spread_order(delta: np.ndarray) -> np.ndarray:
    """Per-row node order, node-major as the centred nodes ``delta``, in
    which every run of consecutive nodes spans the row's whole node cloud.

    Chaining multiplies tables whose entries are divided differences over
    runs of consecutive nodes.  A run of nearby nodes has a divided
    difference far larger than the whole row's, and the products cancel
    down to the small result: sorted nodes at t * spread = 1e3 and q = 40
    lose all digits.  The nodes are sorted along the principal axis of
    their cloud and taken in bit-reversed (van der Corput) order.
    """
    # summed along contiguous rows, in numpy's pairwise order, so the axis
    # does not depend on the layout
    square = np.ascontiguousarray((delta * delta).T).sum(axis=1)
    order = np.argsort((delta * np.exp(-0.5j * np.angle(square))).real, axis=0)
    return order[_bit_reversal(len(delta))]


def _taylor(r: np.ndarray, bd: np.ndarray, bs, degree: int) -> np.ndarray:
    """r @ exp(diag(bd) + bs S) by its Taylor polynomial, on the node axis 0."""
    acc = r.copy()
    term = r.copy()
    nxt = np.empty_like(acc)
    for k in range(1, degree + 1):
        np.multiply(term, bd, out=nxt)
        nxt[1:] += bs * term[:-1]
        nxt *= 1.0 / k
        acc += nxt
        term, nxt = nxt, term
    return acc


@lru_cache(maxsize=None)
def _taylor_band(n: int) -> tuple:
    """The band of each Taylor term k = 1 .. n + E of a one-slice row
    (E = ``_EXTRA_DEGREE``) whose last entry alone is read: (1/k, the
    buffer rows the term writes, the node rows it reads (in a buffer, the
    previous term's entries one below), whether it reaches the last entry).

    Term k is zero past entry k, and its entry j reaches the last entry
    only through n - 1 - j more terms, so entries with k - j > E + 1 are
    never read (degree n + E).  Term k spans entries max(0, k - E - 1) ..
    min(k, n - 1), at most E + 2.  Buffer row j + 1 holds entry j; row 0 is
    a zero pad, so the shifted add needs no special first entry.
    """
    steps = []
    for k in range(1, n + _EXTRA_DEGREE + 1):
        lo, hi = max(0, k - _EXTRA_DEGREE - 1), min(k, n - 1) + 1
        # a 0-d array operand costs numpy less than a Python scalar
        inv_k = np.array(1.0 / k, dtype=complex)
        inv_k.setflags(write=False)
        steps.append((inv_k, slice(lo + 1, hi + 1), slice(lo, hi), hi == n))
    return tuple(steps)


def _taylor_last(bd: np.ndarray, bs) -> np.ndarray:
    """Last entry of e_0 @ exp(diag(bd) + bs S), for node-major bd of shape
    (n, B) with n >= 2, by its Taylor polynomial of degree n + E.

    Each term updates only its ``_taylor_band``, with the operations of
    ``_taylor`` started from e_0, in the same order, so the last entry is
    bit for bit the same.  Only that entry is summed.
    """
    n, B = bd.shape
    bs = np.array(bs)  # 0-d, as each 1/k of the band
    term = np.zeros((n + 1, B), dtype=bd.dtype)
    term[1] = 1.0
    # entries above a term's band are read as zeros, so this buffer is
    # zeroed too, not just allocated
    nxt = np.zeros_like(term)
    tail, tail_nxt = term[n], nxt[n]
    last = np.zeros(B, dtype=bd.dtype)
    for inv_k, rows, nodes, at_last in _taylor_band(n):
        out = nxt[rows]
        np.multiply(term[rows], bd[nodes], out)
        out += bs * term[nodes]
        out *= inv_k
        term, nxt = nxt, term
        tail, tail_nxt = tail_nxt, tail
        if at_last:
            last += tail
    return last


def _exp_dd_core(t, xt: np.ndarray, mu: np.ndarray, delta: np.ndarray,
                 n_slices: int) -> np.ndarray:
    """Values e^{-i t [x_0b, ..., x_(n-1)b]} of the columns b of a
    node-major (n, B) batch ``xt``, given its ``_centered`` means and
    nodes, at one time ``t`` or one per column, cut into ``n_slices``.

    One slice runs through ``_taylor_last``; chained slices carry (n, B)
    rows and the squaring route (n, n, B) tables through ``_taylor`` (see
    ``_table_ops``).  Only ``exp_dd_batch`` calls it.
    """
    n = len(xt)
    # one slice is e^{-i tau mu} exp(bd + bs S), see ``_EXTRA_DEGREE``
    if n == 1:
        return np.exp(-1j * t * mu)
    if n_slices == 1:
        return _taylor_last(-1j * t * delta, -1j * t) * np.exp(-1j * t * mu)

    # one slice is accurate in any node order; chaining is not
    xt = np.take_along_axis(xt, _spread_order(delta), axis=0)
    squares = _squares(n_slices, n)
    # the products of a squaring cancel more than a row update does;
    # extended precision (where the platform has it) absorbs that
    mu, delta = _centered(xt.astype(np.clongdouble) if squares else xt)
    tau = t / n_slices
    bd, bs, phase = -1j * tau * delta, -1j * tau, np.exp(-1j * tau * mu)
    if not squares:
        rows = np.zeros(xt.shape, dtype=complex)
        rows[0] = 1.0
        for _ in range(n_slices):
            rows = _taylor(rows, bd, bs, n + _EXTRA_DEGREE) * phase
        return rows[-1]
    # table[j, i, b] is entry (i, j) of row b's slice table, and matmul
    # reads its matrices on axes (1, 0)
    eye = np.broadcast_to(np.eye(n, dtype=delta.dtype)[:, :, None], (n, n, len(mu)))
    table = _taylor(eye, bd[:, None], bs, n + _EXTRA_DEGREE) * phase
    for _ in range(n_slices.bit_length() - 1):
        table = np.matmul(table, table, axes=[(1, 0)] * 3)
    return table[-1, 0].astype(complex)


def exp_dd(t, inputs) -> complex:
    """Divided difference e^{-i t [x_0, ..., x_q]} of exp(-i t x).

    Exact for a single node (plain exponential); repeated nodes evaluate to
    the confluent limit, e.g. q+1 equal nodes give (-it)^q e^{-itx} / q!.
    The value is invariant under permutation of the inputs.  Raises
    ValueError past the kernel's range (see ``exp_dd_batch``).
    """
    return complex(exp_dd_batch(t, as_nodes(inputs)[None])[0])


def exp_dd_batch(t, node_rows) -> np.ndarray:
    """``exp_dd`` of each row of a 2-D node array, at one time ``t`` or at
    one time per row (a 1-D array of finite times, one per row).

    The rows are held node-major, (n, B), and centred once: the same means
    and centred nodes pick each row's slice count and feed the one-slice
    route.  Rows that share a count run in chunks under the
    ``_CHUNK_ELEMENTS`` budget.  A row's value equals ``exp_dd`` of that
    row at its time, bit for bit.  Raises ValueError on a bad time array,
    and past the kernel's range: where t * |x_j - mean| or t * |mean|
    passes 2^52, or a value overflows.
    """
    x = np.asarray(node_rows, dtype=complex)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a nonempty 2-D array of node rows")
    if not np.isfinite(x).all():
        raise ValueError("divided-difference inputs must be finite")
    B, n = x.shape
    per_row = np.ndim(t) != 0
    if per_row:
        t = np.asarray(t, dtype=float)
        if t.shape != (B,) or not np.isfinite(t).all():
            raise ValueError(f"expected one finite time per row ({B})")
    else:
        t = _check_time(t)
    xt = np.ascontiguousarray(x.T)
    out = np.empty(B, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, delta = _centered(xt)
        exponents = _exponents(t, mu, delta)
        for m, count in enumerate(np.bincount(exponents).tolist()):
            n_slices = 1 << m
            step = max(1, _CHUNK_ELEMENTS // (n * n if _squares(n_slices, n) else n + 1))
            # a batch of one slice count is cut into views, not copies
            rows = np.flatnonzero(exponents == m) if 0 < count < B else None
            for start in range(0, count, step):
                chunk = (slice(start, start + step) if rows is None
                         else rows[start:start + step])
                out[chunk] = _exp_dd_core(t[chunk] if per_row else t, xt[:, chunk],
                                          mu[chunk], delta[:, chunk], n_slices)
    if not np.isfinite(out).all():
        raise ValueError("a divided difference is past 1.8e308, out of the kernel's range")
    return out


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
    gaps = np.abs(x[:, None] - x)[np.triu_indices(x.size, 1)]
    if gaps.size and gaps.min() <= 1e-12 * max(1.0, float(np.abs(x).max())):
        raise DegenerateNodesError(
            "nodes are coincident to within 1e-12 relative separation; "
            "use exp_dd, which handles confluent limits")
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
