"""Divided-difference kernel: closed forms, confluent limits, table
structure (runs of the nodes), and agreement with the generic recursion
and the extended-precision oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ddyson import (
    DegenerateNodesError,
    dd_recursive,
    exp_dd,
    exp_dd_batch,
    shift_inputs,
)
from ddyson import divdiff
from ddyson.oracles import exp_dd_highprec

# t = 0.3 over [1.7, -0.4, 0.9, 0.0], frozen from the 60-digit recursion
# (stable against an 80-digit rerun).
FROZEN_4NODE = 0.000734560381643418 + 0.004412511618075642j


# -- closed forms ------------------------------------------------------------

def test_single_node_is_plain_exponential():
    for t in (0.0, 0.4, -1.3):
        for x in (0.7, -2.0 + 0.3j):
            assert exp_dd(t, [x]) == pytest.approx(np.exp(-1j * t * x), abs=1e-16)
    # a single node is centred to 0, so every Taylor term past the first is
    # 0 and the value is the phase: e^{-itx} bit for bit, save the sign of a
    # zero (x + 0.0 makes -0.0 +0.0), on real and complex rows, at one time
    # and at one time per row
    rng = np.random.default_rng(28)
    x = rng.uniform(-50.0, 50.0, (200, 1))
    x[0] = 0.0
    for rows in (x, x - 0.3j * rng.uniform(0.0, 1.0, x.shape)):
        for t in (0.0, 0.7, -1e3, rng.uniform(-30.0, 30.0, 200)):
            got = exp_dd_batch(t, rows)
            assert (got + 0.0).tobytes() == (np.exp(-1j * t * rows[:, 0]) + 0.0).tobytes()


def test_two_distinct_nodes_difference_quotient():
    t, a, b = 0.8, 1.3, -0.5
    expected = (np.exp(-1j * t * a) - np.exp(-1j * t * b)) / (a - b)
    assert exp_dd(t, [a, b]) == pytest.approx(expected, rel=1e-14)


def test_repeated_pair_confluent_limit():
    t, x = 0.6, 1.1
    expected = -1j * t * np.exp(-1j * t * x)
    assert exp_dd(t, [x, x]) == pytest.approx(expected, rel=1e-14)


def test_repeated_nodes_general_order():
    # q+1 equal nodes: (-it)^q e^{-itx} / q!
    t, x = 0.9, -0.7
    for q in (1, 3, 6, 10):
        expected = (-1j * t) ** q * np.exp(-1j * t * x) / math.factorial(q)
        assert exp_dd(t, [x] * (q + 1)) == pytest.approx(expected, rel=1e-13)


def test_frozen_four_node_value():
    value = exp_dd(0.3, [1.7, -0.4, 0.9, 0.0])
    assert value == pytest.approx(FROZEN_4NODE, rel=1e-12)


def test_zero_time_collapses_to_constant_function():
    assert exp_dd(0.0, [1.0]) == pytest.approx(1.0)
    assert exp_dd(0.0, [1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-16)


# -- invariants --------------------------------------------------------------

def test_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = int(rng.integers(1, 9))
        nodes = rng.uniform(-10, 10, q + 1) + 1j * rng.uniform(-2, 2, q + 1)
        t = float(rng.uniform(-1, 1))
        base = exp_dd(t, nodes)
        shuffled = exp_dd(t, rng.permutation(nodes))
        assert abs(shuffled - base) <= 1e-12 * abs(base)


def test_shift_identity_random_complex():
    rng = np.random.default_rng(12)
    for _ in range(200):
        q = int(rng.integers(0, 11))
        nodes = rng.uniform(-5, 5, q + 1) + 1j * rng.uniform(-2, 2, q + 1)
        c = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        t = float(rng.uniform(0, 1))
        lhs = exp_dd(t, nodes)
        rhs = np.exp(-1j * t * c) * exp_dd(t, shift_inputs(nodes, c))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)


def test_simplex_volume_bound_real_nodes():
    # real nodes ending in 0, real t >= 0: |value| <= t^q / q!
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = int(rng.integers(1, 10))
        nodes = np.append(rng.uniform(-20, 20, q), 0.0)
        t = float(rng.uniform(0, 1))
        bound = t ** q / math.factorial(q)
        assert abs(exp_dd(t, nodes)) <= bound * (1 + 1e-12) + 1e-300


def test_recursion_consistency_well_separated():
    # gaps >= 0.6 and t >= 0.3 keep the recursion oracle itself accurate;
    # clustered nodes or tiny t cancel it far below the 1e-10 target.
    rng = np.random.default_rng(14)
    for _ in range(100):
        q = int(rng.integers(1, 7))
        nodes = np.sort(rng.uniform(-4, 4, q + 1)) + np.arange(q + 1) * 0.6
        t = float(rng.uniform(0.3, 1.0))
        reference = dd_recursive(np.exp(-1j * t * nodes), nodes)
        assert abs(exp_dd(t, nodes) - reference) <= 1e-10 * abs(reference)


# -- generic recursion oracle ------------------------------------------------

def test_recursive_linear_function_first_difference():
    nodes = np.array([2.0, -1.0])
    assert dd_recursive(nodes, nodes) == pytest.approx(1.0)


def test_recursive_matches_explicit_partial_fraction_sum():
    rng = np.random.default_rng(15)
    t = 0.45
    nodes = rng.uniform(-4, 4, 5)
    fvals = np.exp(-1j * t * nodes)
    explicit = sum(
        fvals[j] / np.prod([nodes[j] - nodes[k] for k in range(5) if k != j])
        for j in range(5)
    )
    assert dd_recursive(fvals, nodes) == pytest.approx(explicit, rel=1e-10)
    assert exp_dd(t, nodes) == pytest.approx(explicit, rel=1e-10)


def test_recursive_rejects_coincident_nodes():
    with pytest.raises(DegenerateNodesError):
        dd_recursive([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(DegenerateNodesError):
        dd_recursive([1.0, 1.0], [2.0, 2.0 + 1e-14])


# -- tables ------------------------------------------------------------------
# Entry (i, j) of the divided-difference table is exp_dd over the run
# x_i..x_j; the runs below include every prefix and suffix.

def _runs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def test_table_diagonal_holds_function_values():
    t = 0.7
    nodes = np.array([0.3, -1.2, 2.4])
    for i, x in enumerate(nodes):
        assert exp_dd(t, nodes[i:i + 1]) == pytest.approx(np.exp(-1j * t * x), rel=1e-14)
        assert dd_recursive([np.exp(-1j * t * x)], [x]) == pytest.approx(
            np.exp(-1j * t * x), rel=1e-14)


def test_table_entries_satisfy_gap_recursion():
    t = 0.5
    nodes = np.array([-3.0, -1.0, 0.5, 2.0, 4.5])
    for i, j in _runs(nodes.size):
        if i == j:
            continue
        entry = exp_dd(t, nodes[i:j + 1])
        recursed = (exp_dd(t, nodes[i + 1:j + 1]) - exp_dd(t, nodes[i:j])) / (nodes[j] - nodes[i])
        assert abs(entry - recursed) <= 1e-10 * abs(entry)


def test_table_top_right_equals_exp_dd():
    # the full set from its confluent prefix [1, 1, -2] and suffix [1, -2, 0.3]
    t = 0.9
    nodes = np.array([1.0, 1.0, -2.0, 0.3])
    recursed = (exp_dd(t, nodes[1:]) - exp_dd(t, nodes[:-1])) / (nodes[-1] - nodes[0])
    assert exp_dd(t, nodes) == pytest.approx(recursed, rel=1e-13)


def test_recursive_table_agrees_with_exp_table():
    t = 0.4
    nodes = np.array([-2.0, 0.5, 1.5, 3.0])
    for i, j in _runs(nodes.size):
        run = nodes[i:j + 1]
        rec = dd_recursive(np.exp(-1j * t * run), run)
        assert rec == pytest.approx(exp_dd(t, run), rel=1e-10)


# -- batch and stats ---------------------------------------------------------

def test_batch_matches_scalar_calls():
    rng = np.random.default_rng(16)
    rows = rng.uniform(-5, 5, (8, 4)) + 1j * rng.uniform(-1, 1, (8, 4))
    t = 0.6
    batched = exp_dd_batch(t, rows)
    for row, value in zip(rows, batched):
        assert value == pytest.approx(exp_dd(t, row), rel=1e-12)


def _per_row(t, x):
    """Each row's slice count, as the plan of the batch gives it."""
    slices = np.empty(len(x), int)
    for chunk in divdiff._plan(t, x).chunks:
        slices[chunk.rows] = chunk.n_slices
    return slices


def test_batch_slices_each_row_at_its_own_count(kernel_work):
    # one wide row (8 slices, the squaring route) among 199 narrow ones
    # (one slice each)
    rng = np.random.default_rng(18)
    rows = rng.uniform(-0.5, 0.5, (200, 6)) + 1j * rng.uniform(-0.1, 0.1, (200, 6))
    rows[57] *= 40.0
    t = 1.0
    values = exp_dd_batch(t, rows)
    assert sum(kernel_work) == divdiff._plan(t, rows).work
    # each row keeps the slice count it has alone; the 199 one-slice rows
    # are one kernel call
    slices = _per_row(t, rows)
    assert [int(_per_row(t, row[None])[0]) for row in rows] == slices.tolist()
    one = slices == 1
    assert sum(kernel_work) == (one.sum() * divdiff._table_ops(6, 1)
                                + divdiff._table_ops(6, 8))
    assert divdiff._plan(t, rows[57:58]).work == divdiff._table_ops(6, 8)
    for row, value in zip(rows, values):
        assert value == pytest.approx(exp_dd(t, row), rel=1e-12)


def test_counted_work_equals_the_work_of_the_kernel_arrays(monkeypatch):
    # the plan's count against the arrays the kernel runs, not against the
    # count's own formula: two operations per entry of each Taylor term of
    # every array ``_taylor`` is handed, and n^3 per matrix of each squaring
    # product, over one call with one-slice, chained and squaring rows
    ran = []
    taylor, matmul = divdiff._taylor, np.matmul

    def counted_taylor(r, bd, bs, degree, window=None):
        ran.append(2 * r.size * degree)
        return taylor(r, bd, bs, degree, window)

    def counted_matmul(a, b, **kw):
        n, _, B = a.shape
        ran.append(B * n ** 3)
        return matmul(a, b, **kw)

    monkeypatch.setattr(divdiff, "_taylor", counted_taylor)
    monkeypatch.setattr(np, "matmul", counted_matmul)
    rng = np.random.default_rng(26)
    n = 8
    x = np.vstack([_rows_at(rng, 50, n, 0.01, 1.99), _rows_at(rng, 30, n, 2.5, 8.0),
                   _rows_at(rng, 7, n, 9.0, 300.0)])
    x = x - 0.2j * rng.uniform(0.0, 1.0, x.shape)
    rng.shuffle(x)
    plan = divdiff._plan(1.0, x)
    slices = {c.n_slices for c in plan.chunks}
    assert 1 in slices
    assert any(1 < s and not divdiff._squares(s, n) for s in slices)
    assert any(divdiff._squares(s, n) for s in slices)
    exp_dd_batch(1.0, x, plan=plan)
    assert sum(ran) == plan.work
    # single nodes run the same loop: 2 (1 + E) = 50 operations a row
    ran.clear()
    x = rng.uniform(-40.0, 40.0, (30, 1)) - 0.2j * rng.uniform(0.0, 1.0, (30, 1))
    plan = divdiff._plan(1.0, x)
    exp_dd_batch(1.0, x, plan=plan)
    assert sum(ran) == plan.work == 50 * len(x)


@pytest.mark.parametrize("decay", [0.0, 0.4], ids=["real", "decaying"])
def test_batch_times_per_row_match_row_by_row(decay):
    # t * spread from ~0.01 to ~400: one-slice, chained (s <= n) and
    # squaring (s > n) rows side by side in one call
    rng = np.random.default_rng(20)
    routes = set()
    for n in range(1, 14):
        x = rng.uniform(-1.0, 1.0, (40, n)) - 1j * decay * rng.uniform(0.0, 1.0, (40, n))
        times = np.exp(rng.uniform(np.log(0.01), np.log(200.0), 40))
        slices = _per_row(times, x)
        routes |= {1 if s == 1 else 3 if divdiff._squares(s, n) else 2 for s in slices}
        want = np.array([exp_dd(t, row) for t, row in zip(times, x)])
        assert exp_dd_batch(times, x).tobytes() == want.tobytes()
        # one time for every row is the same as that time given per row
        t = float(times[0])
        assert (exp_dd_batch(t, x).tobytes()
                == exp_dd_batch(np.full(len(x), t), x).tobytes())
    assert routes == {1, 2, 3}


@pytest.mark.parametrize("times", [
    np.full(3, 0.5), np.full(5, 0.5), np.full((4, 1), 0.5),
    np.array([0.5, np.nan, 0.5, 0.5]), np.array([0.5, 0.5, np.inf, 0.5])],
    ids=["short", "long", "2-d", "nan", "inf"])
def test_batch_rejects_bad_time_arrays(times):
    with pytest.raises(ValueError):
        exp_dd_batch(times, np.ones((4, 3)))


@pytest.mark.parametrize("t, nodes", [(1e20, [1.0, 0.0]), (1.0, [1e40, 0.0]),
                                      (1e308, [1.0, 0.0]), (1e308, [10.0]),
                                      (1e300, [10.0, 10.0]), (1e4, [1j])])
def test_past_the_kernel_range_is_a_value_error(t, nodes):
    # t * spread * eps >= 1: these returned 3.2e46 (the modulus of the true
    # value is at most 2), nan and nan.  t * |mean| * eps >= 1: nan, and a
    # finite value whose phase kept no digit.  e^{1e4} overflows: inf.
    with pytest.raises(ValueError, match="range"):
        exp_dd(t, nodes)
    with pytest.raises(ValueError, match="range"):
        exp_dd_batch(np.array([0.5, t]), [[1.0, 0.0][:len(nodes)], nodes])
    # the budget's count refuses the same rows, save a value that
    # overflows, which only evaluating finds
    if nodes != [1j]:
        with pytest.raises(ValueError, match="range"):
            divdiff._plan(t, np.array([nodes], complex))


def test_kernel_range_ends_at_two_to_the_52_slices():
    # t * spread / 2 = 2^52 is the last row in range; one slice covers
    # |tau (x_j - mu)| <= 2, so it takes 2^51 slices
    x = np.array([[-1.0, 1.0]])
    assert _per_row(2.0 ** 52, x)[0] == 2 ** 51
    with pytest.raises(ValueError):
        divdiff._plan(np.nextafter(2.0 ** 52, np.inf), x)
    assert np.isfinite(exp_dd(2.0 ** 52, x[0]))


def _full_row_last(t, x):
    # every Taylor term updates all n entries of node-major (n, B) rows
    # started from e_0, and the whole top row is summed; the result is its
    # last entry, at degree n + E
    mu, delta = divdiff._centered(np.ascontiguousarray(x.T))
    last = np.empty(len(x), complex)
    for b in range(len(x)):
        rows = np.zeros((x.shape[1], 1), complex)
        rows[0] = 1.0
        last[b] = divdiff._taylor(rows, -1j * t * delta[:, b:b + 1], -1j * t,
                                  x.shape[1] + divdiff._EXTRA)[-1, 0]
    return last * np.exp(-1j * t * mu)


@pytest.mark.parametrize("decay", [0.0, 0.3], ids=["real", "decaying"])
def test_one_slice_band_matches_full_row_update(decay):
    # t * spread close to the slice cap, so the highest Taylor terms still
    # reach the last bits of the result; a batch mixes rows far inside the
    # cap with rows at it in one kernel call, and each keeps the bits of
    # the row updated alone
    rng = np.random.default_rng(19)
    for n in range(1, 41):
        x = rng.uniform(-1.0, 1.0, (33, n)) - 1j * decay * rng.uniform(0.0, 1.0, (33, n))
        x[::2] *= rng.uniform(0.05, 1.0, (17, 1))
        t = 1.999 / np.abs(x - x.mean(axis=1, keepdims=True)).max() if n > 1 else 0.7
        assert (_per_row(t, x) == 1).all()
        np.testing.assert_array_equal(exp_dd_batch(t, x), _full_row_last(t, x))


def test_one_slice_rows_are_centred_once(monkeypatch):
    # the means and centred nodes that pick the slice counts feed the
    # one-slice route: one centring pass per batch, however many chunks
    calls = []
    centered = divdiff._centered
    monkeypatch.setattr(divdiff, "_centered",
                        lambda xt: calls.append(xt.shape) or centered(xt))
    rng = np.random.default_rng(21)
    for B, n in ((1, 1), (1, 6), (7, 2), (5000, 9)):
        x = rng.uniform(-0.05, 0.05, (B, n)) - 0.01j * rng.uniform(0.0, 1.0, (B, n))
        calls.clear()
        exp_dd_batch(0.5, x)
        assert calls == [(n, B)]
    calls.clear()
    exp_dd(0.5, [0.1, 0.2, 0.3])
    assert calls == [(3, 1)]


def test_extra_degree_follows_the_tail_bound():
    # the least E with a^(E+2) / (E+2)! e^(2a) <= e^2 / 19! at the one-slice
    # cap a = 2 (the bound at a = 1 with E = 17)
    def tail(extra, a):
        return a ** (extra + 2) / math.factorial(extra + 2) * math.exp(2 * a)

    target = math.exp(2) / math.factorial(19)
    assert divdiff._SLICE_CAP == 2.0
    assert divdiff._EXTRA == 24
    assert tail(24, 2.0) <= target < tail(23, 2.0)
    assert tail(17, 1.0) == pytest.approx(target)


@pytest.mark.parametrize("n", [3, 4])
def test_degree_rule_lower_bound_at_three_and_four_complex_nodes(n):
    # the tail bound behind _EXTRA needs L = (n - 1)! |e^{-i[x]}| >= e^-a
    # at a = max_j |x_j - mu| = 2, t = 1; it is proved for real nodes, for
    # two and from five complex nodes, and searched for here: the least L
    # of random centred complex rows, then a local minimisation from the
    # worst of them (0.696 at n = 3, 0.653 at n = 4)
    scale = math.factorial(n - 1)

    def at_cap(x):
        x = x - x.mean(axis=-1, keepdims=True)
        return x * (2.0 / np.abs(x).max(axis=-1, keepdims=True))

    def least(p):
        return scale * abs(exp_dd(1.0, at_cap(p[:n] + 1j * p[n:])))

    rng = np.random.default_rng(65)
    rows = at_cap(rng.standard_normal((20_000, n)) + 1j * rng.standard_normal((20_000, n)))
    drawn = scale * np.abs(exp_dd_batch(1.0, rows))
    worst = rows[np.argmin(drawn)]
    found = minimize(least, np.concatenate([worst.real, worst.imag]),
                     method="Nelder-Mead", options=dict(maxfev=600))
    assert found.fun <= drawn.min()
    assert found.fun >= math.exp(-2.0)
    x = at_cap(found.x[:n] + 1j * found.x[n:])
    assert scale * abs(exp_dd_highprec(1.0, x)) == pytest.approx(found.fun, rel=1e-12)


@pytest.mark.parametrize("decay", [0.0, 0.3], ids=["real", "decaying"])
def test_row_value_does_not_depend_on_its_batch(decay):
    # a row at a = max |t (x_j - mu)| = 0.1 shares one kernel call with
    # rows at a = 1.9 and keeps its bits
    rng = np.random.default_rng(22)
    for n in (2, 5, 12, 30):
        x = rng.uniform(-1.0, 1.0, (9, n)) - 1j * decay * rng.uniform(0.0, 1.0, (9, n))
        a = np.r_[0.1, np.full(8, 1.9)]
        x *= (a / np.abs(x - x.mean(axis=1, keepdims=True)).max(axis=1))[:, None]
        assert len(divdiff._plan(1.0, x).chunks) == 1
        batch = exp_dd_batch(1.0, x)
        assert batch[:1].tobytes() == exp_dd_batch(1.0, x[:1]).tobytes()
        assert complex(batch[0]) == exp_dd(1.0, x[0])


def _rows_at(rng, B, n, a_lo, a_hi):
    # B real rows of n nodes with max |x_j - mean| in [a_lo, a_hi), at t = 1
    x = rng.uniform(-1.0, 1.0, (B, n))
    return x * (rng.uniform(a_lo, a_hi, B)
                / np.abs(x - x.mean(axis=1, keepdims=True)).max(axis=1))[:, None]


def _same_chunks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.n_slices == b.n_slices
        if isinstance(b.rows, slice):
            assert a.rows == b.rows
        else:
            assert a.rows.tobytes() == b.rows.tobytes()


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("route", ["one slice", "chained", "squaring"])
def test_real_rows_match_complex_rows(route, per_row):
    # the same node values, once as float64 rows and once as complex128
    # rows: the same chunks, the same counted work and the same bits on
    # every route.  The real batch stays real through the plan, and its
    # means are the real parts of the complex ones (the sum times 1/n)
    rng = np.random.default_rng(31)
    signed_zeros = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 2.0], [0.0, 2.0]])
    for n in (2, 5, 12, 24):
        if route == "one slice":
            x = _rows_at(rng, 40, n, 0.01, 1.99)
            if n == 2:
                x = np.vstack([x, signed_zeros])
        elif route == "chained":
            if n < 4:
                continue
            # s <= n / 2 slices of |tau (x_j - mu)| <= 2
            x = _rows_at(rng, 40, n, 2.5, 2.0 * (1 << (n // 2).bit_length() - 1))
        else:
            # 2s > n, up to the long times of 2^12 slices
            x = _rows_at(rng, 6, n, 2.0 * n, 2.0 ** 13)
        times = 1.0
        if per_row:
            # each row at its own time, with the same t |x_j - mu|
            times = rng.uniform(0.5, 1.0, len(x))
            x /= times[:, None]
        real, cplx = divdiff._plan(times, x), divdiff._plan(times, x.astype(complex))
        assert (real.x.dtype, real.mu.dtype, real.delta.dtype) == (float,) * 3
        assert cplx.x.dtype == complex
        assert real.mu.tobytes() == cplx.mu.real.copy().tobytes()
        assert not cplx.mu.imag.any()
        _same_chunks(real.chunks, cplx.chunks)
        assert real.work == cplx.work
        many = {c.n_slices > 1 for c in real.chunks}
        squaring = {divdiff._squares(c.n_slices, n) for c in real.chunks if c.n_slices > 1}
        assert many == {route != "one slice"}
        assert squaring <= {route == "squaring"}
        got = exp_dd_batch(times, x, plan=real)
        assert got.tobytes() == exp_dd_batch(times, x.astype(complex), plan=cplx).tobytes()
        assert got.tobytes() == exp_dd_batch(times, x).tobytes()
        # the squaring route centres its tables in extended precision, where
        # a double 1/n would round them differently from numpy's division
        xt = x.T.astype(divdiff._EXTENDED)
        mu, _ = divdiff._centered(xt)
        assert (mu == sum(xt) / n).all()


# -- extended-precision agreement --------------------------------------------

# -- grown rows --------------------------------------------------------------

def _grow(t, x, anchor):
    """Each row of x (B, n) built as the engine's frontier builds it, a node
    at a time from a root about its anchor: one plan and kernel call per
    node, each from the last call's windows.  The plans, and the values of
    the full rows."""
    parents, plans, B, n = None, [], len(x), x.shape[1]
    reach = np.zeros(B)
    for j in range(n):
        reach = np.maximum(reach, np.abs(t * (x[:, j] - anchor)))
        growth = divdiff._Growth(t, parents, np.arange(B), x[:, j], anchor, reach, j < n - 1)
        plan = divdiff._plan(growth, x[:, :j + 1])
        values = exp_dd_batch(t, x[:, :j + 1], plan=plan)
        parents = plan.windows
        plans.append(plan)
    return plans, values


@pytest.mark.parametrize("decay", [0.0, 0.3], ids=["real", "decaying"])
def test_grown_row_matches_one_slice_band(decay):
    # a row grown node by node in path order about its anchor has the bits
    # of the one-slice Taylor loop run from e_0 on the same nodes, anchor
    # and degree n + W - 2, on complex arrays, whether its windows are real
    # (real nodes and anchor) or complex
    rng = np.random.default_rng(24)
    t = 0.8
    for n in (1, 2, 3, 7, 20, 33):
        x = rng.uniform(-1.0, 1.0, (30, n)) - 1j * decay * rng.uniform(0.0, 1.0, (30, n))
        x = x if decay else x.real.copy()
        anchor = x.mean(axis=1) + rng.uniform(-0.2, 0.2, 30)
        # reaches from ~0.05 up to the cap
        x = anchor[:, None] + (x - anchor[:, None]) * (
            rng.uniform(0.05, 1.0, 30) / np.abs(t * (x - anchor[:, None])).max(axis=1))[:, None]
        plans, got = _grow(t, x, anchor)
        assert all(c.grown for p in plans for c in p.chunks)
        assert all(p.windows.dtype == (complex if decay else float) for p in plans[:-1])
        if n == 1:
            assert got.tobytes() == np.exp(-1j * t * x[:, 0]).tobytes()
            continue
        r = np.zeros((n, 30), complex)
        r[0] = 1.0
        last = divdiff._taylor(r, -1j * t * (x - anchor[:, None]).T, -1j * t,
                               n + divdiff._WINDOW - 2)[-1]
        assert got.tobytes() == (last * np.exp(-1j * t * anchor)).tobytes()


@pytest.mark.parametrize("decay", [0.0, 0.3], ids=["real", "decaying"])
def test_rows_at_the_window_reach_match_highprec(decay):
    # the last node puts a row's reach just inside the window reach (the row
    # is grown) or just outside it (the row is planned on its own nodes):
    # both agree with the extended-precision recursion
    rng = np.random.default_rng(25)
    t = 1.3
    for n in (2, 4, 8, 13):
        x = rng.uniform(-1.0, 1.0, (4, n))
        anchor = rng.uniform(-0.3, 0.3, 4)
        if decay:
            x = x - 1j * decay * rng.uniform(0.0, 1.0, (4, n))
            anchor = anchor - 0.5j * decay
        x = anchor[:, None] + 0.9 * (x - anchor[:, None]) / np.abs(
            t * (x - anchor[:, None])).max(axis=1)[:, None]
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            # a last node at |t (x - anchor)| = side, in a random direction
            way = (np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4)) if decay
                   else np.sign(rng.uniform(-1.0, 1.0, 4)))
            x[:, -1] = anchor + side / t * way
            plans, got = _grow(t, x, anchor)
            assert all(p.windows.dtype == (complex if decay else float)
                       for p in plans[:-1])
            (chunk,) = plans[-1].chunks
            assert chunk.grown == (side < 1.0)
            assert all(c.grown for p in plans[:-1] for c in p.chunks)
            for row, value in zip(x, got):
                want = exp_dd_highprec(t, row)
                assert abs(value - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("decay", [0.0, 0.3], ids=["real", "decaying"])
def test_planned_row_keeps_the_window_of_the_row_grown_about_its_mean(decay):
    # a one-slice row planned on its own nodes, its reach about its lineage's
    # anchor past the window reach, writes its window about its mean mu: the
    # bits of the window of the same row grown node by node about mu, real
    # (c_k = (-i)^k r_k) or complex.  Where its own a = max_j |t (x_j - mu)|
    # is at most the window reach it takes anchor mu and reach a; past it,
    # the growth's
    rng = np.random.default_rng(27)
    t = 0.8
    for n in (2, 3, 7, 20, 33):
        x = rng.uniform(-1.0, 1.0, (30, n)) - 1j * decay * rng.uniform(0.0, 1.0, (30, n))
        x = x if decay else x.real.copy()
        mu = x.mean(axis=1)
        # a from ~0.05 up to 1.5: 20 rows keep their window, 10 do not
        own = np.r_[rng.uniform(0.05, 1.0, 20), np.full(10, 1.5)]
        x = mu[:, None] + (x - mu[:, None]) * (
            own / np.abs(t * (x - mu[:, None])).max(axis=1))[:, None]
        mu, delta = divdiff._centered(np.ascontiguousarray(x.T))
        a = np.abs(t * delta).max(axis=0)
        # the first 20 rows grown about mu, with one node more so the n-node
        # plan keeps its windows
        plans, _ = _grow(t, np.hstack([x[:20], x[:20, -1:]]), mu[:20])
        grown = plans[n - 1]
        far = np.linspace(3.0, 5.0, 30)
        growth = divdiff._Growth(t, np.zeros((divdiff._WINDOW, 1)), np.zeros(30, np.intp),
                                 x[:, -1], mu + far / t, far, True)
        plan = divdiff._plan(growth, x)
        assert {c.n_slices for c in plan.chunks} == {1}
        assert not any(c.grown for c in plan.chunks)
        exp_dd_batch(t, x, plan=plan)
        assert plan.windows.dtype == (complex if decay else float)
        # bit for bit, save the sign of a zero (x + 0.0 makes -0.0 +0.0): a
        # centred row has exact zero terms, e.g. term 2 of two nodes
        assert (plan.windows[:, :20] + 0.0).tobytes() == (grown.windows + 0.0).tobytes()
        assert plan.anchor[:20].tobytes() == mu[:20].tobytes()
        assert plan.reach[:20].tolist() == pytest.approx(a[:20].tolist(), rel=1e-15)
        assert (plan.anchor[20:] == growth.anchor[20:]).all()
        assert (plan.reach[20:] == far[20:]).all()


def test_grown_rows_are_checked_for_range():
    # a grown row's phase t |anchor| past 2^52 is refused, as a row's
    # t |mean| is on its own nodes
    x = np.array([[2.0 ** 60], [2.0 ** 60 + 1.0]])
    anchor = x[:, 0] + 0.25
    growth = divdiff._Growth(1.0, None, np.arange(2), x[:, 0], anchor,
                             np.full(2, 0.25), True)
    with pytest.raises(ValueError, match="range"):
        divdiff._plan(growth, x)
    with pytest.raises(ValueError, match="range"):
        divdiff._plan(1.0, x)


def test_matches_highprec_oracle_mixed_nodes():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = int(rng.integers(1, 13))
        nodes = rng.uniform(-30, 30, q + 1) + 1j * rng.uniform(-3, 3, q + 1)
        t = float(rng.uniform(0.05, 1.0))
        reference = exp_dd_highprec(t, nodes)
        assert abs(exp_dd(t, nodes) - reference) <= 1e-10 * abs(reference)


@pytest.mark.parametrize("digits", [0, -5, 2.5])
def test_highprec_rejects_bad_digits(digits):
    # at 0 digits both evaluations agreed on a wrong value, and -5 overflowed
    with pytest.raises(ValueError, match="digits"):
        exp_dd_highprec(0.3, [0.1, 0.5, 0.9], digits=digits)


def test_highprec_one_digit_start():
    nodes = [0.1, 0.5, 0.9]
    assert exp_dd_highprec(0.3, nodes, digits=1) == pytest.approx(
        exp_dd(0.3, nodes), rel=1e-14)


def test_highprec_rejects_duplicates():
    with pytest.raises(DegenerateNodesError):
        exp_dd_highprec(0.5, [1.0, 1.0, 2.0])


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_highprec_rejects_nonfinite_time(t):
    with pytest.raises(ValueError, match="time must be finite"):
        exp_dd_highprec(t, [1.0, 2.0])


# -- argument validation -----------------------------------------------------

def test_rejects_empty_and_nonfinite_inputs():
    with pytest.raises(ValueError):
        exp_dd(0.5, [])
    with pytest.raises(ValueError):
        exp_dd(0.5, [np.inf])
    with pytest.raises(ValueError):
        exp_dd(np.nan, [1.0])
    with pytest.raises(ValueError):
        exp_dd(1e300, [0.0, 1e300])  # t * spread overflows
    with pytest.raises(ValueError):
        shift_inputs([1.0], np.inf)
    with pytest.raises(ValueError, match="one-dimensional"):
        exp_dd(0.5, [[1.0, 2.0]])
    for rows in ([1.0, 2.0], np.zeros((2, 0))):
        with pytest.raises(ValueError, match="2-D"):
            exp_dd_batch(0.5, rows)
    with pytest.raises(ValueError, match="finite"):
        exp_dd_batch(0.5, [[1.0, np.nan]])
    with pytest.raises(ValueError, match="equal length"):
        dd_recursive([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        dd_recursive([1.0, np.inf], [1.0, 2.0])


def test_shift_inputs_values():
    assert np.allclose(shift_inputs([1.0, 2.0], 0.0), [1.0, 2.0])
    a, b, t = 2.2, 0.7, 0.9
    shifted = shift_inputs([a, b], b)
    assert np.allclose(shifted, [a - b, 0.0])
    lhs = exp_dd(t, [a, b])
    rhs = np.exp(-1j * t * b) * exp_dd(t, shifted)
    assert lhs == pytest.approx(rhs, rel=1e-12)
