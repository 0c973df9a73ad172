"""Integral-free Dyson expansion over permutation-term paths.

Each expansion order q contributes one path per multi-index
(i_1..i_q, k_1..k_q): a walk through the basis picking one permutation
term and one exponential-sum factor at every step.  The time-ordered
Dyson integral for a path collapses to a single divided-difference
exponential over the Schrodinger-picture nodes y_j = E_j - sum_{l>j} lam_l or
the interaction-picture nodes x_j = (E_j - E_final) - sum_{l>j} lam_l (x_q = 0):

    alpha = (prod_j d_j) * e^{-i t [x_0, ..., x_{q-1}, 0]}
    beta  = alpha * e^{-i t E_final} = (prod_j d_j) * e^{-i t [y_0, ..., y_q]}

``enumerate_paths`` with ``alpha``/``beta`` evaluates this one path at a
time, as a readable oracle; ``path_coefficients`` gives the same values
for a block of paths with one kernel call per order.  ``evolve_by_order``
evaluates it order by order on a frontier of rows (z, v, weight): an
endpoint and sorted nodes relative to a per-state origin o, 0 in the
Schrodinger picture and E in the interaction picture.  The root is
E_z0 - o_z0; a step with rate lam from z to z' makes the child
sort((v - (lam - (o_z - o_z'))) u {E_z' - o_z'}).  The nodes are float64
from the root on where every rate is real (a time-independent model, a
real drive frequency: ``step_tables`` holds lam as float64), and
complex128 otherwise, so real rows are built, merged, centred and grown
on real arrays.  Rows whose (z, v) are bit-identical merge by summing their
weights (divided differences are symmetric), which changes no value.  The
merge (``_merged``) classes rows by a 64-bit hash of their words (n a row
of n real nodes, 2n complex), v's first and z last; a batch in which
no hash repeats comes back as it is, and otherwise every row is checked
bit for bit against the first row of its class, with the exact byte-sort
merge (``_merged_exact``) taken on a true collision.  Either way the
classes come out in first-occurrence order.  A step off the basis, or whose d
diagonal vanishes at the landing state, is pruned by one rule (``_steps``)
over the model's ``step_tables``, the one format every route reads.

A row also carries, for the kernel, its parent row, an anchor and a reach
(``divdiff._Growth``).  The anchor starts at the middle of the spectrum,
seen from the root's origin, and moves with the row's nodes by each step's
rate; the reach is max_j |t (v_j - anchor)|, the larger of the parent's and
the new node's.  A row within the window reach is evaluated from its
parent's Taylor window in O(W) and keeps its own window for its children.
A row past it is planned on its own nodes; if its own nodes lie within the
reach of their mean, its plan gives it that mean as anchor, and its window
about it, so its children grow again.  A root past the reach is such a
row: it re-anchors on its own node.  Every batch, the root's and the top
order's too, is popped from the depth-first stack and planned from its
parent block's windows, counted, evaluated in one kernel call and summed
by the same lines.  Below the top it is expanded whole, and its merged
children go on the stack in blocks small enough (``_BLOCK_ROWS`` rows,
fewer where M * K > 10) that memory stays bounded; they alone hold the
block's windows.  The top order's rows go on as one entry, with no sort,
merge or stored window: they are never expanded, and at O(W) a row a merge
would save less than it costs.  Only its rows past the window reach have
their nodes built, since no grown row reads its nodes.

Time is bounded by one budget, ``_WORK_LIMIT`` table operations per call.
``evolve_by_order`` plans each batch once (``divdiff._plan``: the rows
within reach grown, the others at their own slice count, sorted into
kernel calls), adds the plan's count of the table operations those calls
will spend and the words the frontier built for the batch at ``_WORD_OPS``
each, and hands the kernel that same plan; ``enumerate_paths`` adds for
each path it yields the cost of a one-slice row of its nodes, what the
kernel spends on it.  Either raises ``CapacityError`` before the kernel
runs past the budget.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divdiff import (_Growth, _check_int, _check_time, _in_reach, _plan, _table_ops,
                      exp_dd, exp_dd_batch)
from .errors import CapacityError, ModelError
from .hamiltonian import (HamiltonianModel, _check_index, is_time_independent,
                          path_energies)

# Table operations one call may spend, ~2.0e8: the kernel's, and the
# frontier's words at ``_WORD_OPS`` each.  The oscillator (z0 = 4, t = 0.06)
# passes at Q = 7 (6.9e7 operations as the evolution counts them, ~0.2 s
# on 2 cores), and the two-level cosine drive of the tests (t = 0.5)
# is refused at Q = 20 after ~0.4 s.  Inputs past the budget raise within
# ~1 s: the tests' M * K = 200 random model at t = 0.05 after 0.4-0.5 s and
# 2.50M rows; ~2 s where rows take the squaring route (long-time fermi).
_WORK_LIMIT = 3 * 2 ** 26
# Table operations one word the frontier builds is counted as: a row's
# endpoint, weight, parent, anchor and reach, and each node built.  Building,
# sorting and merging the children took 10-29 ns a word on the benchmark's
# `orders` models and the M * K = 200 model of the tests, the kernel 2.5-4.3
# ns an operation (2-core Xeon), so a word is counted at about the time it
# takes.
_WORD_OPS = 8
# Frontier rows expanded and merged together before the next order.
_BLOCK_ROWS = 4096
# The row hash's constants, SplitMix64's: 2^64 / golden ratio (odd), the
# step between per-column salts and the endpoint's multiplier, and the
# (shift, multiplier) rounds of its finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))
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


def _step_entries(model: HamiltonianModel, which: int, path: Path) -> list:
    """Entry [i - 1, k - 1, z] of step table ``model.step_tables[which]``
    for each step (i, k) of the path, read at its landing state z.

    Raises ValueError unless every index is an integer in range and each
    landing state is the term's image of the state before it.
    """
    targets, table = model.step_tables[0], model.step_tables[which]
    M, K, D = table.shape
    try:
        terms, factors, states = (list(map(operator.index, a)) for a in
                                  (path.terms, path.factors, path.trajectory))
    except TypeError:
        raise ValueError(f"path indices must be integers: {path}") from None
    if not all(1 <= i <= M and 1 <= k <= K for i, k in zip(terms, factors)):
        raise ValueError(f"path term or factor index outside [1, {M}] x [1, {K}]")
    if not (all(0 <= z < D for z in states)
            and all(targets[i - 1, a] == b
                    for i, a, b in zip(terms, states, states[1:]))):
        raise ValueError(f"path trajectory {states} is not the walk of terms {terms}")
    return [table[i - 1, k - 1, z]
            for i, k, z in zip(terms, factors, states[1:])]


def _suffix_lambda_sums(model: HamiltonianModel, path: Path) -> np.ndarray:
    """S_j = sum_{l > j} lam_l for j = 0..q (S_q = 0)."""
    lam = np.array(_step_entries(model, 1, path), dtype=complex)
    return np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])


def y_inputs(model: HamiltonianModel, path: Path) -> np.ndarray:
    """Schrodinger-picture nodes y_j = E_j - sum_{l>j} lam_l, j = 0..q."""
    sums = _suffix_lambda_sums(model, path)
    return path_energies(model, path.trajectory).astype(complex) - sums


def x_inputs(model: HamiltonianModel, path: Path) -> np.ndarray:
    """Interaction-picture nodes x_j = (E_j - E_q) - sum_{l>j} lam_l, j = 0..q,
    energy differences first, unchanged by a constant energy shift; x_q = 0."""
    sums = _suffix_lambda_sums(model, path)
    energies = path_energies(model, path.trajectory)
    return (energies - energies[-1]).astype(complex) - sums


def d_product(model: HamiltonianModel, path: Path) -> complex:
    """Product of the d diagonals read at each step's landing state."""
    out = 1.0 + 0j
    for d in _step_entries(model, 2, path):
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
        f"work reached {work:.3g} table operations by order {order}, "
        f"past the budget of {_WORK_LIMIT:.3g}; "
        "reduce the expansion order or the time")


def enumerate_paths(model: HamiltonianModel, z: int, max_order: int):
    """All defined, non-vanishing paths of order <= max_order from |z>.

    Depth-first over (term, factor) steps in term-then-factor order, by the
    frontier's step rule (``_steps``): a step off the basis, or whose d
    diagonal vanishes at the landing state, is pruned with its subtree.
    One explicit stack holds the paths to yield, each state's steps pushed
    in reverse so they pop in order.  Each path counts its one-slice kernel
    cost against the work budget; the generator raises CapacityError at the
    path that passes it.
    """
    z = _check_index(model, z)
    max_order = _check_int(max_order, "max_order")
    targets, _, d = model.step_tables
    landing, _, kept = _steps(targets, d, np.arange(model.dimension))
    # each state's (i, k, landing state) steps, reversed, as Python ints
    steps = [[] for _ in range(model.dimension)]
    for m, k, source in np.transpose(kept)[::-1].tolist():
        steps[source].append((m + 1, k + 1, int(landing[m, source])))
    work = 0
    stack = [((), (), (z,))]
    while stack:
        terms, factors, trajectory = stack.pop()
        work += _table_ops(len(trajectory), 1)
        if work > _WORK_LIMIT:
            raise _over_budget(work, len(terms))
        yield Path(terms=terms, factors=factors, trajectory=trajectory)
        if len(terms) < max_order:
            stack.extend((terms + (i,), factors + (k,), trajectory + (nxt,))
                         for i, k, nxt in steps[trajectory[-1]])


class _Rows(NamedTuple):
    """Frontier rows: endpoint z, the picture's nodes y (R, n), float64
    where the model's rates are real and complex128 otherwise, the complex
    weight, and for the kernel's windows (``divdiff._Growth``) each row's
    parent row, anchor and reach.  y is sorted, save on the top order,
    where it holds the nodes of the rows past the window reach alone."""

    z: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    parent: np.ndarray
    anchor: np.ndarray
    reach: np.ndarray

    def take(self, index) -> "_Rows":
        return _Rows(*(a[index] for a in self))


def _row_hash(z: np.ndarray, words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row's endpoint z and y words (words, uint64,
    (R, n) for n real nodes a row and (R, 2n) for complex ones): the words
    of y first, the endpoint last.

    Word j gets the salt (j + 1) * ``_GOLDEN`` added and goes through the
    two xor-shift-multiply rounds of the SplitMix64 finalizer, a bijection
    that spreads every input bit, and a row's mixed words are summed.  One
    round is not enough: a node such as 6.5 has all its variation in the
    top 16 bits of its word, and one round collided 83% of the 531,300
    rows of six half-integer nodes.  The passes run on a node-major copy
    of ``_BLOCK_ROWS`` rows at a time, so they stay in cache and never
    write to y; their number does not depend on the width.
    """
    R, m = words.shape
    salts = np.arange(1, m + 1, dtype=np.uint64)[:, None] * _GOLDEN
    h = np.empty(R, np.uint64)
    for s in range(0, R, _BLOCK_ROWS):
        mixed = words[s:s + _BLOCK_ROWS].T + salts
        for shift, multiplier in _MIX:
            mixed ^= mixed >> np.uint64(shift)
            mixed *= multiplier
        h[s:s + _BLOCK_ROWS] = mixed.sum(axis=0)
    return (h ^ z.astype(np.uint64)) * _GOLDEN


def _by_class(rows: _Rows, first: np.ndarray, inverse: np.ndarray) -> _Rows:
    """One row per class (inverse[i] is row i's class, first[c] the first
    row of class c), in first-occurrence order, weights summed in row order."""
    weight = (np.bincount(inverse, rows.weight.real)
              + 1j * np.bincount(inverse, rows.weight.imag))
    order = np.argsort(first)
    return rows.take(first[order])._replace(weight=weight[order])


def _merged_exact(rows: _Rows) -> _Rows:
    """``_merged`` by a sort of the rows' (z, y) bytes: the reference, and
    the route taken when two different rows share a hash."""
    key = np.column_stack([rows.z.astype(rows.y.dtype), rows.y])
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return _by_class(rows, first, inverse.ravel())


def _merged(rows: _Rows) -> _Rows:
    """One row per bit-identical (z, y), with the weights summed, in
    first-occurrence order.

    Rows are classed by ``_row_hash``.  If no hash repeats, no two rows
    are equal and the rows come back as they are.  Else every row is
    compared word for word with the first row of its hash class; on any
    difference (a true collision) the exact byte-sort merge runs instead.
    Both routes emit the same rows in the same order with the same weights,
    so the hash can cost time but never change a value.
    """
    words = np.ascontiguousarray(rows.y).view(np.uint64)
    h = _row_hash(rows.z, words)
    s = np.sort(h)
    if (s[1:] != s[:-1]).all():
        return rows
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]
    if not ((rows.z[rep] == rows.z).all() and (words[rep] == words).all()):
        return _merged_exact(rows)
    return _by_class(rows, first, inverse)


def _steps(targets, d, z: np.ndarray):
    """The step rule: landing states (M, R) and d there (M, K, R) from each
    state in z (R,), and the (term, factor, row) of the steps with target
    >= 0 and d != 0, in that order."""
    M, K, _ = d.shape
    zc = targets[:, z]
    dc = d[np.arange(M)[:, None, None], np.arange(K)[:, None], zc[:, None, :]]
    return zc, dc, np.nonzero((zc[:, None, :] >= 0) & (dc != 0))


def _children(rows: _Rows, t: float, landing, origin, targets, lam, d,
              top: bool) -> _Rows:
    """Every defined, non-vanishing step from every row (landing = E - origin),
    sorted and merged below the top order; the top order's rows are summed
    as they are, and only those past the window reach, which the kernel
    plans on their own nodes, have their nodes built."""
    zc, dc, (m, k, r) = _steps(targets, d, rows.z)
    z = zc[m, r]
    # a node that overflows is refused by the kernel's plan, which checks
    # every row it reads for finite nodes
    with np.errstate(over="ignore", invalid="ignore"):
        rate = lam[m, k, z] - (origin[rows.z[r]] - origin[z])
        node = landing[z]
        anchor = rows.anchor[r] - rate
        reach = np.maximum(rows.reach[r], np.abs(t * (node - anchor)))
        built = np.flatnonzero(~_in_reach(reach)) if top else slice(None)
        source, shift = r[built], rate[built]
        n = rows.y.shape[1]
        y = np.empty((len(source), n + 1), rows.y.dtype)
        # gathered _BLOCK_ROWS rows at a time: the parts stay in cache
        for s in range(0, len(source), _BLOCK_ROWS):
            part = slice(s, s + _BLOCK_ROWS)
            np.subtract(rows.y[source[part]], shift[part, None], out=y[part, :n])
    y[:, n] = node[built]
    # r's own copy: np.nonzero returns views of one (R, 3) array
    children = _Rows(z, y, rows.weight[r] * dc[m, k, r], r.copy(), anchor, reach)
    if top:
        return children
    y.sort(axis=1)
    return _merged(children)


def evolve_by_order(model: HamiltonianModel, z0: int, t, max_order: int,
                    picture: str = "schrodinger") -> np.ndarray:
    """Per-order state contributions, shape (max_order + 1, dimension).

    Row q holds the endpoint-summed coefficients of all order-q paths, so
    partial sums over rows give every truncation at once.  Each batch of
    rows is evaluated when it is popped from one stack: it is planned
    once, from its parent block's windows, the budget counts the plan and
    the words the frontier built for it, one ``exp_dd_batch`` call
    evaluates that same plan, row (z, v, weight) adding weight * e^{-it[v]}
    at z (v relative to the picture's origin), and, below max_order, its
    children go on the stack with the batch's windows: in blocks of at most
    10 * _BLOCK_ROWS // (M * K) rows, each expanded whole, or, where they
    are of order max_order, as one entry, neither sorted nor merged, with
    nodes built only for the rows past the window reach.
    Deterministic.  Raises CapacityError where the output would hold more
    than ``_WORK_LIMIT`` entries, before anything is allocated, or once the
    batches counted so far would cost the kernel more than the work budget;
    and ValueError where a row is past the kernel's range, before the
    kernel runs it.
    """
    z0 = _check_index(model, z0)
    t = _check_time(t)
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    max_order = _check_int(max_order, "max_order")

    if (max_order + 1) * model.dimension > _WORK_LIMIT:
        raise CapacityError(
            f"an output of {max_order + 1} orders by {model.dimension} states "
            f"is past the budget of {_WORK_LIMIT:.3g} entries; "
            "reduce the expansion order")

    energies = model.energies
    tables = model.step_tables
    M, K, D = tables[2].shape
    origin = energies if picture == "interaction" else np.zeros(D)
    landing = energies - origin
    # one expansion builds at most 10 * _BLOCK_ROWS children (one row's
    # M * K where that is more)
    block = max(1, min(_BLOCK_ROWS, 10 * _BLOCK_ROWS // (M * K)))
    out = np.zeros((max_order + 1, D), dtype=complex)
    work = 0
    # real where every rate is (``step_tables``), and so every child; the
    # anchor is the middle of the spectrum, relative to the root's origin
    dtype = np.result_type(landing, tables[1])
    anchor = np.full(1, 0.5 * (energies.max() + energies.min()) - origin[z0], dtype)
    y = np.full((1, 1), landing[z0], dtype)
    root = _Rows(np.array([z0]), y, np.ones(1, complex), np.zeros(1, np.intp),
                 anchor, np.abs(t * (y[:, 0] - anchor)))
    stack = [(0, root, None)]
    while stack:
        q, rows, parents = stack.pop()
        plan = _plan(_Growth(t, parents, rows.parent, landing[rows.z], rows.anchor,
                             rows.reach, q < max_order), rows.y)
        # the kernel's operations, and the words the frontier built: each
        # row's endpoint, weight, parent, anchor and reach, and its nodes
        # where they were built
        work += plan.work + (5 * rows.z.size + rows.y.size) * _WORD_OPS
        if work > _WORK_LIMIT:
            raise _over_budget(work, q)
        values = rows.weight * exp_dd_batch(t, rows.y, plan=plan)
        out[q] += (np.bincount(rows.z, values.real, D)
                   + 1j * np.bincount(rows.z, values.imag, D))
        # each array is dropped as soon as it is used: the windows and the
        # rows are not held while the next batch is built or evaluated;
        # a row that keeps its window about its mean has that anchor now
        windows = plan.windows
        rows = rows._replace(anchor=plan.anchor, reach=plan.reach)
        del parents, plan, values
        if q == max_order:
            continue
        top = q + 1 == max_order
        children = _children(rows, t, landing, origin, *tables, top)
        del rows
        if top:
            stack.append((q + 1, children, windows))
        else:
            stack.extend((q + 1, children.take(slice(s, s + block)), windows)
                         for s in reversed(range(0, children.z.size, block)))
        del children, windows
    return out


def evolve(model: HamiltonianModel, z0: int, t, max_order: int,
           picture: str = "schrodinger") -> StateVector:
    """State from |z0> summed over all paths of order <= max_order."""
    orders = evolve_by_order(model, z0, t, max_order, picture)
    return StateVector(amplitudes=orders.sum(axis=0), time=float(t))


def transition_amplitude(model: HamiltonianModel, z_in: int, z_fin: int,
                         t, max_order: int) -> complex:
    """<z_fin| state |z_in>: exactly the evolved amplitude at z_fin."""
    z_fin = _check_index(model, z_fin)
    return complex(evolve(model, z_in, t, max_order).amplitudes[z_fin])


def amplitude_by_order(model: HamiltonianModel, z_in: int, z_fin: int,
                       t, max_order: int) -> np.ndarray:
    """Order-resolved transition amplitudes, length max_order + 1."""
    z_fin = _check_index(model, z_fin)
    orders = evolve_by_order(model, z_in, t, max_order)
    return orders[:, z_fin].copy()


def evolve_ti(model: HamiltonianModel, z0: int, t, max_order: int) -> StateVector:
    """``evolve`` restricted to time-independent models (K = 1, all lam = 0)."""
    if not is_time_independent(model):
        raise ModelError(
            "evolve_ti requires a time-independent model (K = 1, all lam = 0)")
    return evolve(model, z0, t, max_order)
