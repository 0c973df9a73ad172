"""Property tests of the divided-difference kernel over its whole domain:
high order, tiny and large t * spread, clustered and complex (decaying)
nodes, the confluent limit, long times, and the self-checking oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ddyson import (CapacityError, SingleSpinParams, build_single_spin, eval_H, evolve_ti,
                    exp_dd)
from ddyson import divdiff, oracles
from ddyson.oracles import exp_dd_highprec


@st.composite
def node_sets(draw, min_q=0, max_q=40, max_clusters=3):
    """q + 1 distinct nodes in [-1, 1] x [-1, 0]: optionally decaying, and
    optionally gathered into a few clusters 1e-6 wide.  The least decaying
    node sits on the real axis, so no value underflows."""
    q = draw(st.integers(min_q, max_q))
    decay = draw(st.floats(0.0, 1.0))
    clusters = draw(st.integers(0, max_clusters))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(-1.0, 1.0, q + 1) - 1j * decay * rng.uniform(0.0, 1.0, q + 1)
    if clusters:
        x = x[rng.integers(0, min(clusters, q + 1), q + 1)] + 1e-6 * rng.uniform(-1.0, 1.0, q + 1)
    return x - 1j * x.imag.max()


def _spread(x):
    return float(np.abs(x[:, None] - x[None, :]).max())


@settings(max_examples=150, deadline=None)
@given(nodes=node_sets(), log_scale=st.floats(-3.0, 3.0))
def test_relative_error_against_self_checking_oracle(nodes, log_scale):
    # t * spread from 1e-3 to 1e3; t * |x| is held to the same range, since
    # e^{-itx} alone carries a rounding error of t |x| eps
    t = 10.0 ** log_scale / max(_spread(nodes), float(np.abs(nodes).max()))
    reference = exp_dd_highprec(t, nodes)
    assert abs(exp_dd(t, nodes) - reference) <= 1e-12 * abs(reference)
    assert abs(exp_dd(t, np.sort(nodes)) - reference) <= 1e-12 * abs(reference)


@settings(max_examples=100, deadline=None)
@given(q=st.integers(0, 60), t=st.floats(1e-3, 1e2), re=st.floats(-1.0, 1.0),
       decay=st.floats(0.0, 1.0))
def test_confluent_closed_form(q, t, re, decay):
    # q + 1 equal nodes: (-it)^q e^{-itx} / q!
    x = complex(re, -decay)
    expected = (-1j) ** (q % 4) * (t ** q / math.factorial(q)) * np.exp(-1j * t * x)
    assert abs(exp_dd(t, [x] * (q + 1)) - expected) <= 1e-13 * abs(expected)


def test_confluent_order_twenty():
    t, x, q = 0.5, 0.3, 20
    expected = (-1j * t) ** q * np.exp(-1j * t * x) / math.factorial(q)
    assert abs(exp_dd(t, [x] * (q + 1)) - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("order", [30, 40])
def test_single_spin_converges_to_expm(order):
    # H = a Z + b X at a=0.1, b=10, t=0.5: ||V|| t = 5, and the truncation
    # at Q misses exp(-iHt)|0> by at most sum_{q>Q} 5^q / q!
    a, b, t = 0.1, 10.0, 0.5
    model = build_single_spin(SingleSpinParams(a=a, b=b, gamma=0.0))
    exact = expm(-1j * t * eval_H(model, 0.0))[:, 0]
    tail = math.fsum((b * t) ** q / math.factorial(q) for q in range(order + 1, order + 60))
    state = evolve_ti(model, 0, t, order)
    assert np.linalg.norm(state.amplitudes - exact) <= tail + 1e-12


@settings(max_examples=50, deadline=None)
@given(nodes=node_sets(min_q=1, max_q=7, max_clusters=0), log_scale=st.floats(3.0, 5.0))
def test_long_time_work_grows_with_log_slices(nodes, log_scale):
    n = nodes.size
    t = 10.0 ** log_scale / _spread(nodes)
    x = nodes[None]
    m, m_doubled = (int(divdiff._slice_exponents(s, x)[0]) for s in (t, 2.0 * t))
    work, doubled = divdiff._batch_work(t, x), divdiff._batch_work(2.0 * t, x)
    # twice the time is one more squaring of an n x n table, not twice the work
    assert m_doubled == m + 1
    assert doubled - work <= n ** 3
    degree = n + divdiff._EXTRA_DEGREE
    assert work <= 2 * degree * n * n + m * n ** 3


def test_long_time_three_nodes():
    # 2^17 slices; t |x| eps ~ 1e-11 is the rounding of the phase alone
    x = [0.3, -0.7 - 0.1j, 0.9]
    value = exp_dd(1e5, x)
    reference = exp_dd_highprec(1e5, x)
    assert divdiff._slice_exponents(1e5, np.array([x]))[0] == 17
    assert abs(value - reference) <= 1e-10 * abs(reference)


def test_oracle_raises_its_precision():
    # at q = 20 and t * spread ~ 2e-3 the recursion cancels ~100 digits: at a
    # fixed 60 digits it returns noise many orders above the value
    rng = np.random.default_rng(20)
    nodes = rng.uniform(-1.0, 1.0, 21)
    t = 2e-3 / _spread(nodes)
    reference = exp_dd_highprec(t, nodes, digits=400)
    assert abs(exp_dd_highprec(t, nodes) - reference) <= 1e-15 * abs(reference)
    assert abs(exp_dd(t, nodes) - reference) <= 1e-13 * abs(reference)


def test_oracle_gives_up_with_a_typed_error():
    # t * gap = 1e-400 cancels ~400 digits per order: 20 orders need ~8000
    with pytest.raises(CapacityError):
        exp_dd_highprec(1e-200, np.arange(21) * 1e-200)
    assert exp_dd_highprec(0.0, [1.0, 2.0]) == 0.0


def test_oracle_stays_within_its_digit_cap(monkeypatch):
    tried = []
    workdps = mpmath.workdps
    monkeypatch.setattr(mpmath, "workdps", lambda dps: tried.append(dps) or workdps(dps))
    monkeypatch.setattr(oracles, "_HIGHPREC_MAX_DIGITS", 100)
    with pytest.raises(CapacityError, match="by 100 digits"):
        exp_dd_highprec(1e-200, np.arange(21) * 1e-200)
    assert max(tried) == 100
