"""Numerically stable divided differences of the exponential function.

The central primitive is ``exp_dd(t, nodes)``, the divided difference
e^{-i t [x_0, ..., x_q]} of f(x) = exp(-i t x) over a multiset of complex
nodes.  The textbook recursion divides by node gaps and cancels
catastrophically for clustered inputs.  ``exp_dd`` instead reads the value
off the top row of exp(-i t (diag(x) + S)), with S the superdiagonal of
ones (the Opitz form of the divided-difference table), so no gap is ever
divided by and repeated nodes need no special case.

Every evaluation runs one plan (``_plan``) through ``exp_dd_batch``.  The
plan is one pass over the rows: it validates them, holds them node-major,
(n, B), centres them on their means mu and reads each row's
a = max_j |t (x_j - mu)|.  It refuses rows past the kernel's range and
cuts the time into s = 2^m slices with |tau (x_j - mu)| <= 2
(``_SLICE_CAP``).  It then sorts the rows into kernel calls (``_Chunk``)
by slice count, and counts the table operations those calls will spend
(``_table_ops``): the engine budgets on that count and evaluates the same
plan.  Every slice takes the one Taylor degree n + ``_EXTRA`` (n = q + 1
nodes), which the tail bound gives at the cap a = 2.  A batch of bool,
integer or float rows is centred in float64, with no imaginary half; any
other batch in complex128.  A mean is the sum times 1/n at the array's
own precision, as numpy's complex division by n computes it, so a real
row has the bits of the same row held complex on every route.

Every row planned on its own nodes runs through one Taylor loop,
``_taylor``, and each row's value is bit for bit that of the row alone.
One slice carries the top row e_0 through it once, on the plan's centred
nodes: one O(n) update a term.  A row of more slices is chained, e_0
through it once a slice, while 2s <= n; past that its slice table is
built by it once, from the identity, and squared m times, in extended
precision.  Both first reorder the nodes so every run spans the cloud.
The relative error grows as t * spread * eps, so a row with t |x_j - mu|
or a phase t |mu| past 2^52, or a value that overflows, raises
ValueError.

The engine's frontier rows are grown, not evaluated from scratch
(``_Growth``).  A row of n nodes may carry its window: the W Taylor terms
k = n - 1 .. n + W - 2 of the last top-row entry of exp(bd + bs S), with
bd = -i t (x_j - A) about the row's anchor A.  A child holds its parent's
nodes shifted by the step's rate, which by the shift identity is only a
phase, so the anchor moves with them, plus one new node x_n.  Its window
is W updates of its parent's, c_k = (c_(k-1) bd_n + bs p_(k-1)) / k, the
one-slice update of that entry: O(W) whatever n.  Its value is
e^{-itA} sum_k c_k, read from its parent's window, its new node, anchor
and reach alone: a grown row's nodes are never read, and the engine
need not build them.  Where the rates are real the window is too: term k
is (-i)^k times a real term, added to the real or the imaginary part by
k mod 4, with the roundings of the complex route.  A row is grown while
its reach max_j |t (x_j - A)| is at most ``_WINDOW_REACH`` = 1; a
child's reach is the larger of its parent's and its new node's, so a row
past it is planned on its own nodes as above (a NaN reach is too, so its
nodes are checked).  Then the tail past degree n + W - 2 is at most
e^4 / W! of the value, and W = 20 is the least window under the
one-slice target (see ``_WINDOW``).  A one-slice row planned on its own
nodes runs the same update from e_0 about its mean mu, so the terms
k = n - 1 .. n + W - 2 of its last entry are its window about mu: where
some parent of its batch held a window, it keeps that one, and if its
own a is at most the window reach, it takes anchor mu and reach a, and
its children grow again.  The plan of a grown batch puts the rows within
reach into grown chunks of 2W table operations a row, and needs the
nodes of the other rows alone.  A plan counts only the kernel's table
operations: the engine counts the words of the rows its frontier built.

The generic recursion survives as ``dd_recursive``, a cross-check oracle
restricted to well-separated nodes.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DegenerateNodesError

# Largest |tau * (x_j - mu)| one slice may cover.
_SLICE_CAP = 2.0
# Taylor degree past the node count.  exp(-it Z) is e^{-it mu} exp(-it (Z - mu)),
# so a slice is e^{-i tau mu} exp(bd + bs S) with bd = -i tau (x - mu),
# bs = -i tau, and a = max |bd|.  Taylor term k reaches the last entry of the
# top row along the C(k, n - 1) orders of n - 1 steps of bs and k - n + 1 of
# bd, so there it is at most T a^(k-n+1) / (k-n+1)!, T = |tau|^(n-1) / (n-1)!,
# and the terms past degree n + E sum to at most T a^(E+2) / (E+2)! e^a.  The
# value is T L, L the modulus of the mean of e^w over the simplex,
# w = sum_j s_j bd_j, where w has mean 0 (bd is centred) and
# E|w|^2 <= a^2 / (n + 1).  Up to a = 2 this gives L >= e^-a: for real
# nodes w = i theta and L >= E cos theta >= 1 - a^2 / 6; for complex nodes
# |L - 1| <= (e^a - 1 - a) / (n + 1) from n = 5, and L >= sin(a) / a at
# n = 2 (the product of sinh z / z); at n = 3 and 4 a search over centred
# nodes at a = 2 finds L >= 0.65 (test_divdiff.py's degree-rule lower-bound
# test repeats it).  So the tail is below a^(E+2) / (E+2)! e^(2a) relative
# to the value, and E is the least that holds it to e^2 / 19! ~ 6e-17 (the
# bound at a = 1 with E = 17) at the cap a = 2: E = 24 (9.1e-18; E = 23
# gives 1.2e-16).  Every slice of every
# planned row takes it; a row of smaller a meets the bound with terms to
# spare, which fall below its rounding.  A row of more slices carries every
# entry of its tables, not only the centred last one, and its accuracy
# rests on the tests against ``exp_dd_highprec``.
_EXTRA = next(e for e in range(64) if _SLICE_CAP ** (e + 2) / math.factorial(e + 2)
              * math.exp(2 * _SLICE_CAP) <= math.exp(2) / math.factorial(19))
# A grown row's window (``_Growth``): the W Taylor terms k = n - 1 .. n + W - 2
# of the last top-row entry of exp(bd + bs S), bd = -i t (x - A) about the
# row's anchor A, degree n + W - 2, while its reach a_c = max_j |t (x_j - A)|
# is at most _WINDOW_REACH.  As above, the terms past that degree sum to at
# most T a_c^W / W! e^(a_c).  The value about A is T |e^{-it (mu - A)}| L, with
# |t (mu - A)| <= a_c and the centred a <= 2 a_c (|x_j - mu| <= |x_j - A| +
# |A - mu|), so L >= e^-a holds while a_c <= _SLICE_CAP / 2, and the value is
# at least T e^(-3 a_c).  The tail is then below a_c^W / W! e^(4 a_c) of the
# value, e^4 / W! at a_c = 1, and W is the least window that holds it to the
# one-slice target e^2 / 19!: W = 20 (e^4 / 20! ~ 2.2e-17; W = 19 gives
# 4.5e-16).
_WINDOW_REACH = _SLICE_CAP / 2
_WINDOW = next(w for w in range(1, 64) if _WINDOW_REACH ** w / math.factorial(w)
               * math.exp(4 * _WINDOW_REACH) <= math.exp(2) / math.factorial(19))
# The kernel's range: t * |x_j - mu| and t * |mu| at most 2^52.  The
# result's relative error grows as t * spread * eps (against
# ``exp_dd_highprec`` on real nodes: 1e-14 at t * spread = 1e4, 2e-10 at
# 1e8, 9e-5 at 1e13, 1.5e-2 at 1e16), and past 1 / eps = 2^52 no digit of
# it is significant; the phase e^{-i t mu} has the same limit.  Within it the
# phase (e^{-i t A} on a grown row) is off by t |mu| eps relative, the
# condition number of e^{-itx} itself: documented, not mended.  The most
# slices a row may take is 2^51.
_RANGE = 2.0 ** 52
_PAST_RANGE = ("is past the kernel's range 2^52: no digit of the divided "
               "difference would be significant")
# Work budget of one kernel call: its largest array holds at most this many
# elements, B * n on the vector routes, B * n^2 on the squaring route and B
# on the grown route.  The plan cuts larger groups of rows into chunks under
# it (one row per chunk once n, or n^2, alone exceeds it).
_CHUNK_ELEMENTS = 2 ** 14
# The squaring route's dtype: extended precision where the platform has it
# (x87 80-bit long double); where long double is plain double (MSVC, macOS
# arm64) this is complex128, and the route loses up to ~5e-12 relative.
_EXTENDED = np.clongdouble


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


def _check_real(t) -> None:
    """TypeError for a complex time or time array, numpy ones included
    (``float`` and ``asarray(dtype=float)`` would drop the imaginary part)."""
    if np.iscomplexobj(t):
        raise TypeError(f"time must be real, got {t!r}")


def _check_time(t) -> float:
    _check_real(t)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    return t


def _centered(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means mu and centred nodes of a node-major (n, B) batch.

    Reduced node by node (here and below): numpy reduces each short row
    of a (B, n) batch 2-3x more slowly than it combines long node rows.
    The mean is the sum times 1/n, 1/n at the array's own precision: what
    numpy's complex division by n computes (each part times 1/n), so a
    real row's mean is the real part of the same row's complex mean, and
    an extended-precision table's is not rounded through a double 1/n.
    """
    mu = reduce(np.add, xt) * (xt.real.dtype.type(1) / len(xt))
    return mu, xt - mu


def _row_keys(t, mu: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a node-major batch with ``_centered`` means mu and nodes
    delta, at one time ``t`` or one per row: its slice exponent m, for
    s = 2^m slices, the least m with a / s <= ``_SLICE_CAP``, and
    a = max_j |t (x_j - mu)| itself.  A real batch is read with no imaginary
    half.  Raises ValueError past the kernel's range, where t |x_j - mu| or
    t |mu| passes 2^52."""
    scaled = t * delta
    if np.iscomplexobj(delta):
        # |z| as sqrt(re^2 + im^2), several times faster than numpy's
        # complex abs (hypot); t * delta past ~1e154, where a square
        # overflows, is past the range either way
        amax = np.sqrt((np.square(scaled.real) + np.square(scaled.imag)).max(axis=0))
    else:
        amax = np.abs(scaled).max(axis=0)
    top = amax.max(initial=0.0)
    # nan and inf fail these tests too
    if not top <= _RANGE:
        raise ValueError(f"time times node distance from the mean, "
                         f"{top:.3g}, {_PAST_RANGE}")
    phase = np.abs(t * mu).max(initial=0.0)
    if not phase <= _RANGE:
        raise ValueError(f"time times the node mean, {phase:.3g}, {_PAST_RANGE}")
    if top <= _SLICE_CAP:
        return np.zeros(len(amax), np.int16), amax
    mant, exp = np.frexp(amax / _SLICE_CAP)
    return np.maximum(0, exp - (mant == 0.5)).astype(np.int16), amax


def _squares(n_slices: int, n: int) -> bool:
    """Route choice: square a slice table instead of chaining row updates.

    Chaining costs s (n + E) O(n) row updates, squaring (n + E) O(n^2)
    table updates plus log2(s) O(n^3) products, in extended precision.
    Measured at B = 256 rows (n = 6 to 31), chaining stays the faster route
    up to s ~ 7n to 13n slices of |tau delta| <= 1, with its largest array
    at B * n.  It stops at t * spread ~ 2n for accuracy: in double
    precision, chained or squared tables lose up to ~1e-11 relative once
    t * spread passes ~100, and s * ``_SLICE_CAP`` <= n keeps
    t * spread <= 2n.  Single rows would favour squaring from s = 4 to 16,
    but batches set the cost of a run.
    """
    return n_slices * _SLICE_CAP > n


# Table operations of a grown row: two for each term of its window.
_GROWN_OPS = 2 * _WINDOW


def _table_ops(n: int, n_slices: int) -> int:
    """Table operations ``_exp_dd_core`` spends on one row of n nodes.

    Two operations per entry a Taylor term updates, n + E terms a slice
    (E = ``_EXTRA``).  Each slice of a vector row, one or chained, updates
    all n entries of every term; the squaring route builds one n x n table
    the same way, then takes log2(n_slices) products of n^3.  A single node
    is one exponential.
    """
    if n == 1:
        return 1
    degree = n + _EXTRA
    if _squares(n_slices, n):
        return degree * 2 * n * n + (n_slices.bit_length() - 1) * n ** 3
    return n_slices * degree * 2 * n


class _Chunk(NamedTuple):
    """The rows of one kernel call: their batch indices, the slice count,
    whether the rows are grown from their parents' windows (one slice),
    and for rows planned on their own nodes their indices into the plan's
    arrays of those rows."""

    rows: slice | np.ndarray
    n_slices: int
    grown: bool = False
    at: slice | np.ndarray | None = None


class _Growth(NamedTuple):
    """A batch of rows each made from a parent row by one more node, as the
    engine's frontier makes them (see the module docstring): the time; the
    rows' node count n; the parents' windows (W, P), or None where no parent
    holds one (and for a root row, which has no parent); per row, its
    parent's column, the new node x_n, the row's anchor A and its reach
    max_j |t (x_j - A)|; and whether the rows' own windows are kept for
    their children."""

    t: float
    n: int
    parents: np.ndarray | None
    parent: np.ndarray
    node: np.ndarray
    anchor: np.ndarray
    reach: np.ndarray
    keep: bool


class _Plan(NamedTuple):
    """One batch made ready for the kernel by ``_plan``: the time (one, or
    one per row); for the R rows planned on their own nodes, their nodes
    and centred nodes, node-major (n, R), and their means (R,); the kernel
    calls, the table operations they will spend (those alone), and the
    batch's row count B.  With a ``_Growth``: the growth, the (W, B)
    windows the rows write if any row keeps one, and each row's anchor and
    reach for its children, the growth's save where a row planned on its
    own nodes keeps its window about its mean."""

    t: float | np.ndarray
    x: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    chunks: tuple
    work: int
    size: int
    growth: _Growth | None = None
    windows: np.ndarray | None = None
    anchor: np.ndarray | None = None
    reach: np.ndarray | None = None


def _run(rows: np.ndarray) -> slice | np.ndarray:
    """Batch indices as a slice where they are a run of consecutive rows,
    which is then read as a view, not gathered."""
    if (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _in_reach(reach: np.ndarray) -> np.ndarray:
    """Which rows of a ``_Growth`` are grown from their parents' windows:
    those whose reach is at most ``_WINDOW_REACH``.  A NaN reach is not,
    so that row is planned on its own nodes, and its nodes are checked."""
    return reach <= _WINDOW_REACH


def _plan(t, node_rows) -> _Plan:
    """Validate a 2-D array of node rows and plan its evaluation at one
    time ``t`` or at one time per row (see the module docstring).  Rows of
    bool, integer or float dtype are planned as float64, with float64 means
    and centred nodes; any other input as complex128.  ``t`` may instead
    be a ``_Growth`` of the rows: each row within the window reach then
    takes one grown chunk from its parent's window, and only the others
    are centred and planned on their nodes, so ``node_rows`` may hold
    theirs alone, in batch order.  Where the plan keeps windows, a
    one-slice row planned on its nodes writes its window about its mean
    mu; where some parent held a window, one with
    a = max_j |t (x_j - mu)| <= ``_WINDOW_REACH`` takes anchor mu and
    reach a for its children.  Its work is the kernel's alone.

    Raises ValueError on a bad array or time array and past the kernel's
    range, TypeError on a complex time (a value that overflows is found
    only by evaluating it).
    """
    growth = None
    if isinstance(t, _Growth):
        growth, t = t, t.t
    x = np.asarray(node_rows)
    x = x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a nonempty 2-D array of node rows")
    if not np.isfinite(x).all():
        raise ValueError("divided-difference inputs must be finite")
    B, n = x.shape
    per_row = np.ndim(t) != 0
    if per_row:
        _check_real(t)
        t = np.asarray(t, dtype=float)
        if t.shape != (B,) or not np.isfinite(t).all():
            raise ValueError(f"expected one finite time per row ({B})")
    else:
        t = _check_time(t)
    chunks, work, windows, anchor, reach = [], 0, None, None, None
    if growth is None:
        rest = np.arange(B)
    else:
        B, n, anchor, reach = len(growth.parent), growth.n, growth.anchor, growth.reach
        inside = _in_reach(reach)
        # the rows planned on their own nodes: all but the grown ones
        grown, rest = np.flatnonzero(inside), np.flatnonzero(~inside)
        if x.shape[1] != n or len(x) not in (B, len(rest)):
            raise ValueError(f"expected the node rows of all {B} rows or of the "
                             f"{len(rest)} past the window reach, {n} nodes a row")
        if len(grown):
            phase = np.abs(t * anchor[grown]).max()
            if not phase <= _RANGE:
                raise ValueError(f"time times the node anchor, {phase:.3g}, {_PAST_RANGE}")
            for start in range(0, len(grown), _CHUNK_ELEMENTS):
                rows = grown[start:start + _CHUNK_ELEMENTS]
                chunks.append(_Chunk(_run(rows), 1, grown=True))
            work += len(grown) * _GROWN_OPS
    R = len(rest)
    if R:
        # take gathers the rows node-major, (n, R), in one pass
        xt = x.T.take(rest, axis=1) if len(x) == B else np.ascontiguousarray(x.T)
        with np.errstate(over="ignore", invalid="ignore"):
            mu, delta = _centered(xt)
            key, a = _row_keys(t[rest] if per_row else t, mu, delta)
        # rows of one slice count form a group
        ranked = np.argsort(key, kind="stable")
        key = key[ranked]
        cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), R]
        for lo, hi in zip(cuts, cuts[1:]):
            n_slices = 1 << int(key[lo])
            step = max(1, _CHUNK_ELEMENTS // (n * n if _squares(n_slices, n) else n))
            for start in range(lo, hi, step):
                part = ranked[start:min(start + step, hi)]
                chunks.append(_Chunk(_run(rest[part]), n_slices, at=_run(part)))
            work += (hi - lo) * _table_ops(n, n_slices)
    else:
        xt = delta = np.empty((n, 0), x.dtype)
        mu = np.empty(0, x.dtype)
    if growth is not None and growth.keep:
        # one slice holds a <= _WINDOW_REACH.  Rows keep a window about
        # their mean only where some parent held one: with none, the rows
        # have been past the reach from the root on, and stay planned whole
        close = (np.flatnonzero(a <= _WINDOW_REACH) if R and growth.parents is not None
                 else ())
        if len(close):
            anchor = anchor.copy()
            # a real growth's rows are real, in whatever dtype x holds them
            anchor[rest[close]] = mu[close] if np.iscomplexobj(anchor) else mu[close].real
            reach = reach.copy()
            reach[rest[close]] = a[close]
        if len(close) or R < B:
            windows = np.empty((_WINDOW, B), np.result_type(growth.node, growth.anchor))
    return _Plan(t, xt, mu, delta, tuple(chunks), work, B, growth, windows, anchor, reach)


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


def _taylor(r: np.ndarray, bd: np.ndarray, bs, degree: int,
            window: np.ndarray | None = None) -> np.ndarray:
    """r @ exp(diag(bd) + bs S) by its Taylor polynomial of ``degree``, on
    the node axis 0: the one Taylor loop of every row planned on its own
    nodes (r the top row e_0 of a one-slice or chained row, the identity of
    a slice table).  Each term updates every entry of r, two table
    operations an entry (``_table_ops``).  Where ``window`` (W, B) is given,
    window[i] receives the last entry of term k = n - 1 + i, n = len(r):
    a one-slice row's window (``_Growth``)."""
    acc = r.copy()
    term = r.copy()
    nxt = np.empty_like(acc)
    first = len(r) - 1
    for k in range(1, degree + 1):
        np.multiply(term, bd, out=nxt)
        nxt[1:] += bs * term[:-1]
        nxt *= 1.0 / k
        acc += nxt
        if window is not None and 0 <= k - first < len(window):
            window[k - first] = nxt[-1]
        term, nxt = nxt, term
    return acc


@lru_cache(maxsize=None)
def _inverse(k: int) -> tuple:
    """1/k as 0-d complex and real arrays: a 0-d array operand costs numpy
    less than a Python scalar."""
    pair = (np.array(1.0 / k, dtype=complex), np.array(1.0 / k))
    for a in pair:
        a.setflags(write=False)
    return pair


def _grown(plan: _Plan, chunk: _Chunk) -> np.ndarray:
    """Values of the grown rows of one chunk of a plan, and their windows
    where the plan keeps them (see ``_Growth``), from the growth alone: no
    grown row reads the plan's nodes.

    A row of n nodes extends its parent's window (terms k - 1 = n - 2 ..
    n + W - 3 at the parent's last entry, p_(k-1)) by its new node, bd =
    -i t (x_n - A): its term k at the new last entry is
    c_k = (c_(k-1) bd + bs p_(k-1)) / k, c_(n-2) = 0, the update and the
    roundings of ``_taylor`` from e_0 for that entry, and the terms are
    summed in its order.  A root row (n = 1) starts from c_0 = 1 and takes
    c_k = c_(k-1) bd / k; its value is the exponential of its node itself.
    A real offset x_n - A (real rates) makes a real window, which stands
    for -i bd and -i bs: term k is then (-i)^k times the real term
    computed, and each operation on it rounds as the complex route rounds
    the part of its term that is not zero, so term k adds to the real or
    the imaginary part by k mod 4 and the value is bit for bit the complex
    route's.
    """
    growth, rows = plan.growth, chunk.rows
    t, n = growth.t, growth.n
    node, anchor = growth.node[rows], growth.anchor[rows]
    offset = node - anchor
    real = not np.iscomplexobj(offset)
    last = np.zeros(len(offset), dtype=complex)
    # where term k adds into ``last``, by k mod 4: the array and the ufunc
    if real:
        bd, bs = t * offset, np.array(t)
        sums = ((last.real, np.add), (last.imag, np.subtract),
                (last.real, np.subtract), (last.imag, np.add))
    else:
        bd, bs = -1j * t * offset, np.array(-1j * t)
        sums = ((last, np.add),) * 4
    if growth.parents is not None:
        parent = growth.parent[rows]
    for i in range(_WINDOW):
        k = n - 1 + i
        if growth.parents is None:
            term = term * bd * _inverse(k)[real] if i else np.ones_like(bd)
        else:
            # bs first, as ``_taylor`` multiplies
            grown = np.multiply(bs, growth.parents[i].take(parent))
            if i:
                grown += term * bd
            grown *= _inverse(k)[real]
            term = grown
        if plan.windows is not None:
            plan.windows[i, rows] = term
        acc, add = sums[k % 4]
        add(acc, term, out=acc)
    if n == 1:
        return np.exp(-1j * t * node)
    return last * np.exp(-1j * t * anchor)


def _exp_dd_core(plan: _Plan, chunk: _Chunk) -> np.ndarray:
    """Values e^{-i t [x_0b, ..., x_(n-1)b]} of the rows b of one chunk of
    a plan.

    One slice carries (n, B) rows from e_0 through one ``_taylor`` on the
    plan's centred nodes, and writes their windows about their means where
    the plan keeps windows; chained slices carry them through one
    ``_taylor`` a slice, and the squaring route (n, n, B) tables through
    one, on reordered nodes (see ``_table_ops``); grown rows run through
    ``_grown``.  Only ``exp_dd_batch`` calls it.
    """
    if chunk.grown:
        return _grown(plan, chunk)
    at, n_slices = chunk.at, chunk.n_slices
    t = plan.t[at] if np.ndim(plan.t) else plan.t
    mu = plan.mu[at]
    n = len(plan.delta)
    # one slice is e^{-i tau mu} exp(bd + bs S), see ``_EXTRA``
    if n == 1:
        return np.exp(-1j * t * mu)
    # take keeps a gathered block node-major (fancy indexing would not)
    delta = plan.delta[:, at] if isinstance(at, slice) else plan.delta.take(at, axis=1)
    squares = _squares(n_slices, n)
    if n_slices > 1:
        # one slice is accurate in any node order; chaining is not
        xt = plan.x[:, at] if isinstance(at, slice) else plan.x.take(at, axis=1)
        xt = np.take_along_axis(xt, _spread_order(delta), axis=0)
        # the products of a squaring cancel more than a row update does;
        # extended precision (where the platform has it) absorbs that
        mu, delta = _centered(xt.astype(_EXTENDED) if squares else xt)
    tau = t / n_slices
    bd, bs, phase = -1j * tau * delta, -1j * tau, np.exp(-1j * tau * mu)
    degree = n + _EXTRA
    if not squares:
        r = np.zeros(delta.shape, dtype=complex)
        r[0] = 1.0
        window = (np.empty((_WINDOW, len(mu)), complex)
                  if n_slices == 1 and plan.windows is not None else None)
        for _ in range(n_slices):
            r = _taylor(r, bd, bs, degree, window) * phase
        if window is not None:
            _keep_window(plan.windows, chunk.rows, window, n)
        return r[-1]
    # table[j, i, b] is entry (i, j) of row b's slice table, and matmul
    # reads its matrices on axes (1, 0)
    eye = np.broadcast_to(np.eye(n, dtype=delta.dtype)[:, :, None], (n, n, len(mu)))
    table = _taylor(eye, bd[:, None], bs, degree) * phase
    for _ in range(n_slices.bit_length() - 1):
        table = np.matmul(table, table, axes=[(1, 0)] * 3)
    return table[-1, 0].astype(complex)


def _keep_window(windows: np.ndarray, rows, window: np.ndarray, n: int) -> None:
    """Write one-slice rows' windows (terms k = n - 1 .. n + W - 2, complex)
    into a plan's windows at batch columns ``rows``.  Real windows hold
    r_k with c_k = (-i)^k r_k, as ``_grown`` keeps them: r_k is Re c, -Im c,
    -Re c or Im c by k mod 4, each exact, as a real row's complex terms
    have one part zero."""
    if np.iscomplexobj(windows):
        windows[:, rows] = window
        return
    for i, c in enumerate(window):
        windows[i, rows] = (c.real, -c.imag, -c.real, c.imag)[(n - 1 + i) % 4]


def exp_dd(t, inputs) -> complex:
    """Divided difference e^{-i t [x_0, ..., x_q]} of exp(-i t x).

    Exact for a single node (plain exponential); repeated nodes evaluate to
    the confluent limit, e.g. q+1 equal nodes give (-it)^q e^{-itx} / q!.
    The value is invariant under permutation of the inputs.  Raises
    ValueError past the kernel's range (see ``exp_dd_batch``).
    """
    return complex(exp_dd_batch(t, as_nodes(inputs)[None])[0])


def exp_dd_batch(t, node_rows, *, plan: _Plan | None = None) -> np.ndarray:
    """``exp_dd`` of each row of a 2-D node array, at one time ``t`` or at
    one time per row (a 1-D array of finite times, one per row).

    ``plan``, if given, is ``_plan(t, node_rows)`` made earlier (the
    engine's budget counts it first); else the call makes it.  Each of its
    chunks is one kernel call.  A row's value equals ``exp_dd`` of that
    row at its time, bit for bit.  Raises ValueError on a bad time array,
    TypeError on a complex time, and ValueError past the kernel's range:
    where t * |x_j - mean| or t * |mean| passes 2^52, or a value overflows.
    Within it the phase e^{-it mean} adds t * |mean| * eps relative error to
    a value, the condition number of e^{-itx} itself.
    """
    if plan is None:
        plan = _plan(t, node_rows)
    out = np.empty(plan.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in plan.chunks:
            out[chunk.rows] = _exp_dd_core(plan, chunk)
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
