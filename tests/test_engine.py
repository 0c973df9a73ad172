"""Expansion engine: node construction, coefficients, enumeration,
evolution, the frontier's merging and work budget, and the
time-independent specialization."""

import math
import time
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest

from ddyson import (
    AnharmonicParams,
    CapacityError,
    ExpSumFactor,
    HamiltonianModel,
    ModelError,
    PermutationMap,
    PermutationTerm,
    SingleSpinParams,
    StateVector,
    alpha,
    amplitude_by_order,
    beta,
    build_anharmonic,
    build_fermi,
    build_single_spin,
    d_product,
    enumerate_paths,
    evolve,
    evolve_by_order,
    evolve_ti,
    exp_dd,
    exp_dd_highprec,
    mat_exp_evolve,
    ode_evolve,
    transition_amplitude,
    x_inputs,
    y_inputs,
)
from ddyson import divdiff, engine
from ddyson.engine import PICTURES
from ddyson.models import (FermiParams, anharmonic_default_dimension,
                           fermi_amplitude_closed_form)
from ddyson.validate import random_model, random_ti_model

SPIN = SingleSpinParams(a=1.0, b=0.5, gamma=0.2)
FERMI = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.02)


def spin_path(model, order):
    return next(p for p in enumerate_paths(model, 0, order) if p.order == order)


# -- node construction -------------------------------------------------------

def test_x_inputs_single_spin_first_order():
    m = build_single_spin(SPIN)
    p = spin_path(m, 1)
    x = x_inputs(m, p)
    assert x[-1] == 0.0
    assert x[0] == pytest.approx(2 * SPIN.a - 1j * SPIN.gamma)


def test_x_inputs_vanish_without_phases():
    # constant energy along the walk and lam = 0 leaves every node at 0
    m = random_ti_model(np.random.default_rng(31), t=0.1)
    flat = HamiltonianModel(energies=np.zeros_like(m.energies), terms=m.terms)
    for p in enumerate_paths(flat, 0, 3):
        assert np.all(x_inputs(flat, p) == 0)


def test_x_inputs_always_end_with_literal_zero():
    # y_q - E_q is exactly +0 + 0j at every order, order 0 included
    rng = np.random.default_rng(32)
    m = random_model(rng)
    for p in enumerate_paths(m, 0, 3):
        assert x_inputs(m, p)[-1].tobytes() == bytes(16)


def test_y_inputs_single_spin_formula():
    m = build_single_spin(SPIN)
    for z in (0, 1):
        for q in range(5):
            p = next(pp for pp in enumerate_paths(m, z, q) if pp.order == q)
            expected = [(-1) ** z * (-1) ** j * SPIN.a - 1j * (q - j) * SPIN.gamma
                        for j in range(q + 1)]
            assert np.allclose(y_inputs(m, p), expected, atol=1e-14)


def test_y_inputs_zeroth_order_is_origin_energy():
    m = build_single_spin(SPIN)
    p = spin_path(m, 0)
    assert np.allclose(y_inputs(m, p), [SPIN.a])


def test_y_inputs_anharmonic_first_order_drive_ladder():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=12))
    n = 4
    shifts = {1: -4, 2: -2, 3: 0, 4: 2, 5: 4}
    for p in enumerate_paths(m, n, 1):
        if p.order == 0:
            continue
        i, k = p.terms[0], p.factors[0]
        drive_sign = +1 if k == 1 else -1   # factor 1 carries lam = -Omega
        expected = [(n + 0.5) + drive_sign * 2.0,
                    (n + shifts[i] + 0.5)]
        assert np.allclose(y_inputs(m, p), expected, atol=1e-14)


def test_y_equals_x_plus_final_energy():
    rng = np.random.default_rng(33)
    m = random_model(rng)
    for p in enumerate_paths(m, 1, 3):
        if p.order == 0:
            continue
        e_fin = m.energies[p.trajectory[-1]]
        assert np.allclose(y_inputs(m, p), x_inputs(m, p) + e_fin, atol=1e-12)


# -- coefficients ------------------------------------------------------------

def test_zeroth_order_coefficients():
    m = build_single_spin(SPIN)
    p = spin_path(m, 0)
    t = 0.8
    assert alpha(m, p, t) == 1.0
    assert beta(m, p, t) == pytest.approx(np.exp(-1j * t * SPIN.a), rel=1e-14)


def test_single_spin_beta_closed_form():
    m = build_single_spin(SPIN)
    t = 0.5
    for q in range(5):
        p = spin_path(m, q)
        y = [(-1) ** j * SPIN.a - 1j * (q - j) * SPIN.gamma for j in range(q + 1)]
        assert beta(m, p, t) == pytest.approx(SPIN.b ** q * exp_dd(t, y), rel=1e-13)


def test_alpha_beta_bridge_random_models():
    rng = np.random.default_rng(34)
    for _ in range(3):
        m = random_model(rng)
        t = float(rng.uniform(0.1, 1.0))
        z = int(rng.integers(0, m.dimension))
        for p in enumerate_paths(m, z, 3):
            b = beta(m, p, t)
            bridged = alpha(m, p, t) * np.exp(-1j * t * m.energies[p.trajectory[-1]])
            assert abs(b - bridged) <= 1e-10 * max(abs(b), 1e-300)


def test_fermi_first_order_alpha_and_beta():
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.02)
    m = build_fermi(fp)
    t = 0.7
    p = next(pp for pp in enumerate_paths(m, 0, 1) if pp.order == 1)
    closed_beta = fp.gamma * exp_dd(t, [fp.e_in + fp.e_drive, fp.e_fin])
    assert beta(m, p, t) == pytest.approx(closed_beta, rel=1e-13)
    assert alpha(m, p, t) == pytest.approx(
        closed_beta * np.exp(1j * t * fp.e_fin), rel=1e-13)


def test_order_magnitude_bound_real_nodes():
    # hermitian model, real nodes: |sum_k d * dd| <= (K max|d|)^q t^q / q!
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=12))
    t = 0.3
    dmax = max(np.abs(f.d).max() for tm in m.terms for f in tm.factors)
    sums = {}
    for p in enumerate_paths(m, 4, 2):
        if p.order == 0:
            continue
        sums.setdefault(p.terms, 0j)
        sums[p.terms] += beta(m, p, t)
    for terms, total in sums.items():
        q = len(terms)
        bound = (2 * dmax) ** q * t ** q / math.factorial(q)
        assert abs(total) <= bound * (1 + 1e-12)


# -- enumeration -------------------------------------------------------------

def test_enumerate_order_zero_single_path():
    m = build_single_spin(SPIN)
    paths = list(enumerate_paths(m, 0, 0))
    assert len(paths) == 1 and paths[0].order == 0
    assert paths[0].trajectory == (0,)


def test_enumerate_single_spin_one_path_per_order():
    m = build_single_spin(SPIN)
    assert len(list(enumerate_paths(m, 0, 3))) == 4


def test_enumerate_anharmonic_first_order_count():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=9))
    assert len(list(enumerate_paths(m, 4, 1))) == 1 + 5 * 2


def test_enumerate_prunes_boundary_and_zero_d():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=9))
    # from n = 0 the lowering shifts have no image and i = -2, -4 vanish
    firsts = {p.terms[0] for p in enumerate_paths(m, 0, 1) if p.order == 1}
    assert firsts == {3, 4, 5}
    for p in enumerate_paths(m, 0, 2):
        assert d_product(m, p) != 0


def _object_walk(model, z, max_order):
    # depth-first over the model.term(i) objects: a step is kept where the
    # permutation image stays in the basis and d is nonzero there
    out = []

    def walk(terms, factors, trajectory):
        out.append((terms, factors, trajectory))
        if len(terms) == max_order:
            return
        for i in range(1, model.n_terms + 1):
            term = model.term(i)
            nxt = int(term.perm.targets[trajectory[-1]])
            if nxt < 0:
                continue
            for k, factor in enumerate(term.factors, start=1):
                if factor.d[nxt] != 0:
                    walk(terms + (i,), factors + (k,), trajectory + (nxt,))

    walk((), (), (z,))
    return out


def _with_holes(model, rng):
    # a quarter of the images sent off the basis, a quarter of the d zeroed
    terms = tuple(PermutationTerm(
        perm=PermutationMap(np.where(rng.random(model.dimension) < 0.25, -1,
                                     tm.perm.targets)),
        factors=tuple(ExpSumFactor(lam=f.lam, d=np.where(
            rng.random(model.dimension) < 0.25, 0, f.d)) for f in tm.factors))
        for tm in model.terms)
    return HamiltonianModel(energies=model.energies, terms=terms)


def test_enumerate_paths_match_object_walk():
    # the per-source steps built from step_tables give the same paths, in
    # the same order, as a walk over the term objects
    rng = np.random.default_rng(38)
    models = [build_anharmonic(AnharmonicParams(omega=1.3, Omega=1.7,
                                                gamma_eff=0.02, n_max=9))]
    for _ in range(12):
        m = random_model(rng, dim=int(rng.integers(2, 6)),
                         n_terms=int(rng.integers(1, 4)),
                         n_factors=int(rng.integers(1, 4)))
        models += [m, _with_holes(m, rng)]
    pruned = set()
    for index, m in enumerate(models):
        full = sum((m.n_terms * m.n_factors) ** q for q in range(4))
        for z in range(m.dimension):
            want = _object_walk(m, z, 3)
            got = [(p.terms, p.factors, p.trajectory) for p in enumerate_paths(m, z, 3)]
            assert got == want
            assert all(type(v) is int for p in got for v in p[2])
            if len(want) < full:
                pruned.add(index)
    # the anharmonic model's boundary and zero-d steps are pruned, and so
    # are the holes of most holed models
    assert 0 in pruned and len(pruned) > 6


def test_capacity_guard():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=9))
    with pytest.raises(CapacityError):
        list(enumerate_paths(m, 4, 100))
    with pytest.raises(CapacityError):
        evolve(m, 4, 0.1, 100)


@pytest.mark.parametrize("Q", [10 ** 10, 10 ** 19])
def test_huge_order_is_refused_before_allocating(Q):
    # a (Q + 1, D) output past _WORK_LIMIT entries is refused before it is
    # allocated, not by numpy's allocator (a MemoryError at 10^10, a
    # ValueError at 10^19)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="orders"):
            evolve_by_order(build_single_spin(SPIN), 0, 0.5, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


# -- evolution ---------------------------------------------------------------

def test_free_evolution_is_a_phase(free_model):
    energies = [0.4, -1.2, 2.0]
    m = free_model(energies)
    t = 0.9
    st = evolve(m, 1, t, 4)
    expected = np.zeros(3, complex)
    expected[1] = np.exp(-1j * t * energies[1])
    assert np.abs(st.amplitudes - expected).max() <= 1e-15


def test_single_spin_parity_split():
    m = build_single_spin(SPIN)
    t = 0.5
    st = evolve(m, 0, t, 6)
    even = sum(beta(m, spin_path(m, q), t) for q in range(0, 7, 2))
    odd = sum(beta(m, spin_path(m, q), t) for q in range(1, 7, 2))
    assert st.amplitudes[0] == pytest.approx(even, rel=1e-13)
    assert st.amplitudes[1] == pytest.approx(odd, rel=1e-13)


def test_picture_bridge():
    rng = np.random.default_rng(35)
    m = random_model(rng)
    t = 0.6
    schro = evolve(m, 2, t, 3, picture="schrodinger")
    inter = evolve(m, 2, t, 3, picture="interaction")
    bridged = np.exp(-1j * t * m.energies) * inter.amplitudes
    err = np.abs(schro.amplitudes - bridged)
    assert err.max() <= 1e-10 * max(np.abs(schro.amplitudes).max(), 1e-300)


def test_rabi_flopping_limit():
    # gamma = 0, a = 0: exact rotation cos(bt)|z> - i sin(bt)|zbar>
    b, t = 0.5, 0.9
    m = build_single_spin(SingleSpinParams(a=0.0, b=b, gamma=0.0))
    st = evolve(m, 0, t, 20)
    assert st.amplitudes[0] == pytest.approx(math.cos(b * t), abs=1e-8)
    assert st.amplitudes[1] == pytest.approx(-1j * math.sin(b * t), abs=1e-8)


def test_evolution_error_decreases_with_order():
    m = build_single_spin(SPIN)
    t = 0.5
    reference = ode_evolve(m, 0, t, tol=1e-12)
    orders = evolve_by_order(m, 0, t, 6)
    errors = [np.linalg.norm(orders[: q + 1].sum(axis=0) - reference.amplitudes)
              for q in range(7)]
    assert all(errors[q + 1] <= errors[q] for q in range(6))
    assert errors[6] <= 1e-8


# -- frontier engine ---------------------------------------------------------

def per_path_orders(model, z0, t, max_order, picture):
    """Order-resolved state from the per-path oracle (alpha or beta per
    path), evaluated a block of paths at a time."""
    out = np.zeros((max_order + 1, model.dimension), complex)
    paths = enumerate_paths(model, z0, max_order)
    while block := list(islice(paths, engine._BLOCK_ROWS)):
        np.add.at(out, ([p.order for p in block], [p.trajectory[-1] for p in block]),
                  engine.path_coefficients(model, block, t, picture))
    return out


@pytest.mark.parametrize("picture", PICTURES)
def test_path_coefficients_equal_one_path_formula(picture):
    # decaying rates, orders 0-4, blocks mixing every order
    m = random_model(np.random.default_rng(36))
    one_path = alpha if picture == "interaction" else beta
    for t in (0.3, 2.5):
        paths = list(enumerate_paths(m, 1, 4))
        got = engine.path_coefficients(m, paths, t, picture)
        want = np.array([one_path(m, p, t) for p in paths])
        assert {p.order for p in paths} == set(range(5))
        np.testing.assert_array_equal(got, want)
    assert engine.path_coefficients(m, [], 0.3, picture).shape == (0,)
    with pytest.raises(ValueError):
        engine.path_coefficients(m, paths, 0.3, "heisenberg")


def test_step_reads_match_term_lookups():
    # the values of the per-step model.term() lookups, in the same order
    def suffix_sums(model, path):
        lam = np.array([model.term(i).factors[k - 1].lam[z] for i, k, z in
                        zip(path.terms, path.factors, path.trajectory[1:])],
                       dtype=complex)
        if lam.size == 0:
            return np.zeros(1, dtype=complex)
        return np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])

    def d_loop(model, path):
        out = 1.0 + 0j
        for i, k, z in zip(path.terms, path.factors, path.trajectory[1:]):
            out *= model.term(i).factors[k - 1].d[z]
        return complex(out)

    m = random_model(np.random.default_rng(37), dim=5, n_terms=3, n_factors=3)
    for p in enumerate_paths(m, 2, 3):
        assert engine._suffix_lambda_sums(m, p).tobytes() == suffix_sums(m, p).tobytes()
        assert d_product(m, p) == d_loop(m, p)
    # a term index outside [1, M] or a factor index outside [1, K] is an
    # error, as for model.term, not a wrapped-around read of another entry;
    # each trajectory is the walk of the term a wrapped-around read would use
    targets = m.step_tables[0]
    bad_paths = [engine.Path(terms=(i,), factors=(k,),
                             trajectory=(2, int(targets[(i - 1) % 3, 2])))
                 for i, k in ((0, 1), (4, 1), (1, 0), (1, 4))]
    # so is a trajectory that is not the terms' walk (term 1 maps 2 to 2),
    # or a state outside [0, D), which read another state or raised IndexError
    bad_paths += [engine.Path(terms=(1,), factors=(1,), trajectory=(2, z))
                  for z in (0, -1, 7)]
    bad_paths.append(engine.Path(terms=(), factors=(), trajectory=(5,)))
    # and so is a float term, factor or state, which raised numpy's bare
    # IndexError, even where it equals an integer
    z = int(targets[0, 2])
    float_paths = [engine.Path(terms=(1.0,), factors=(1,), trajectory=(2, z)),
                   engine.Path(terms=(1,), factors=(1.0,), trajectory=(2, z)),
                   engine.Path(terms=(1,), factors=(1,), trajectory=(2.0, z))]
    for bad in bad_paths + float_paths:
        for read in (d_product, y_inputs, x_inputs):
            with pytest.raises(ValueError):
                read(m, bad)
    with pytest.raises(ValueError):
        alpha(m, float_paths[0], 0.1)
    # a Path needs one factor per term and one state per step plus the start
    for fields in (((1,), (), (2, z)), ((1,), (1,), (2,))):
        with pytest.raises(ValueError, match="must"):
            engine.Path(*fields)
    # model.term takes integers only too (a float passed its range check)
    for i in (1.0, 1.5):
        with pytest.raises(ValueError):
            m.term(i)
    # numpy integers pass
    one = np.int64(1)
    path = engine.Path(terms=(one,), factors=(one,), trajectory=(np.int64(2), z))
    assert d_product(m, path) == d_loop(m, engine.Path((1,), (1,), (2, z)))
    assert m.term(one) is m.term(1)


def test_merged_rows_match_per_path_oracle(monkeypatch):
    # degenerate energies, integer rates and two commuting ring shifts make
    # many paths share (endpoint, node multiset), so rows merge; with every
    # energy and rate an integer, equal node multisets are bit-identical, so
    # the kernel gets exactly one row per distinct (order, endpoint, nodes)
    dim = 4
    factors = (ExpSumFactor(lam=np.full(dim, 1.0), d=np.full(dim, 0.3)),
               ExpSumFactor(lam=np.full(dim, -1.0), d=np.full(dim, 0.2j)))
    terms = tuple(PermutationTerm(perm=PermutationMap(np.roll(np.arange(dim), s)),
                                  factors=factors) for s in (1, -1))
    m = HamiltonianModel(energies=np.array([0.0, 1.0, 0.0, 1.0]), terms=terms)
    t, Q = 0.7, 5
    keys = {(p.order, p.trajectory[-1], tuple(np.sort(y_inputs(m, p))))
            for p in enumerate_paths(m, 0, Q - 1)}
    assert len(keys) == 51
    # the top order is summed as it is built, unmerged: the 4 steps of each
    # distinct order Q - 1 row
    top = 4 * sum(key[0] == Q - 1 for key in keys)
    rows = []
    batch = engine.exp_dd_batch
    for picture in ("schrodinger", "interaction"):
        want = per_path_orders(m, 0, t, Q, picture)
        rows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "exp_dd_batch", lambda t, nodes, plan:
                          rows.append(plan.size) or batch(t, nodes, plan=plan))
            got = evolve_by_order(m, 0, t, Q, picture)
        assert np.abs(got - want).max() <= 1e-12
        assert sum(rows) == len(keys) + top == 147
        assert sum(rows) < len(list(enumerate_paths(m, 0, Q))) / 4


def _dict_merge(rows):
    # one row per (z, y bytes) in first-occurrence order, weights summed in
    # row order from 0, as bincount sums them; the first row of each class
    # gives its parent, anchor and reach
    merged, first = {}, {}
    for i, (z, y, w) in enumerate(zip(rows.z.tolist(), rows.y, rows.weight.tolist())):
        key = (z, y.tobytes())
        merged[key] = (y, merged.get(key, (y, 0.0))[1] + w)
        first.setdefault(key, i)
    index = list(first.values())
    return engine._Rows(np.array([z for z, _ in merged], dtype=rows.z.dtype),
                        np.array([y for y, _ in merged.values()]).reshape(-1, rows.y.shape[1]),
                        np.array([w for _, w in merged.values()], dtype=complex),
                        *(a[index] for a in rows[3:]))


def _merge_batches():
    rng = np.random.default_rng(21)
    # few distinct values per node, so many rows repeat
    y = np.sort(rng.integers(-1, 2, (600, 4)) + 0.5j * rng.integers(0, 2, (600, 4)), axis=1)
    planted = _rows(rng.integers(0, 3, 600), y, rng)
    # distinct random rows, and exact copies of 200 of them
    z = rng.integers(0, 5, 500)
    y = rng.normal(size=(500, 7)) + 1j * rng.normal(size=(500, 7))
    copies = rng.permutation(np.r_[np.arange(500), rng.integers(0, 500, 200)])
    copied = _rows(z[copies], y[copies], rng)
    # equal but for the sign of a zero imaginary word: distinct rows
    y = np.array([[1.0 + 0.0j, 2.0 + 0.0j], [1.0 + 0.0j, complex(2.0, -0.0)]] * 3)
    signed_zero = _rows(np.zeros(6, int), y, rng)
    # the same three kinds of batch on float64 rows, as models with real
    # rates make them: n words a row where complex rows hash 2n
    y = np.sort(rng.integers(-1, 2, (600, 4)) + 0.5 * rng.integers(0, 2, (600, 4)), axis=1)
    real_planted = _rows(rng.integers(0, 3, 600), y, rng)
    y = rng.normal(size=(500, 7))
    real_copied = _rows(z[copies], y[copies], rng)
    real_signed_zero = _rows(np.zeros(6, int), np.array([[0.0, 2.0], [-0.0, 2.0]] * 3), rng)
    return [planted, copied, signed_zero,
            _rows(np.zeros(0, int), np.zeros((0, 3), complex), rng),
            _rows(np.array([2]), np.array([[0.5 - 1j, 3.0 + 0j]]), rng),
            real_planted, real_copied, real_signed_zero,
            _rows(np.zeros(0, int), np.zeros((0, 3)), rng),
            _rows(np.array([2]), np.array([[0.5, 3.0]]), rng)]


def _rows(z, y, rng):
    # with a distinct parent, anchor and reach per row, which a merged row
    # takes from the first row of its class
    R = len(z)
    return engine._Rows(z, y, rng.normal(size=R) + 1j * rng.normal(size=R),
                        rng.permutation(R), rng.normal(size=R).astype(y.dtype),
                        rng.uniform(size=R))


def _assert_same_rows(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_hash_merge_equals_exact_merge():
    # the same rows in the same order with bit-identical weights, and the
    # input's y left as it was (a node-major view of a one-row y is y)
    for rows in _merge_batches():
        before = rows.y.tobytes()
        got = engine._merged(rows)
        assert rows.y.tobytes() == before
        assert got.y.dtype == rows.y.dtype
        _assert_same_rows(got, engine._merged_exact(rows))
        _assert_same_rows(got, _dict_merge(rows))
    batches = _merge_batches()
    for planted, copied, signed_zero in (batches[:3], batches[5:8]):
        # 3 endpoints times the multisets of 4 nodes from 6 values
        assert len(engine._merged(planted).z) <= 3 * math.comb(6 + 4 - 1, 4)
        assert len(engine._merged(copied).z) == 500
        assert len(engine._merged(signed_zero).z) == 2


def test_forced_hash_collisions_change_no_value(monkeypatch):
    # with every row's hash equal, rows that differ take the exact merge;
    # rows that are all equal still merge on the hash
    exact = engine._merged_exact
    taken = []
    monkeypatch.setattr(engine, "_row_hash", lambda z, words: np.zeros(len(z), np.uint64))
    monkeypatch.setattr(engine, "_merged_exact", lambda rows: taken.append(1) or exact(rows))
    for rows in _merge_batches():
        taken.clear()
        got = engine._merged(rows)
        assert taken == ([1] if len(rows.z) > 1 else [])
        _assert_same_rows(got, exact(rows))
    same = _rows(np.full(5, 3), np.tile([[1.0 + 2j, 4.0 + 0j]], (5, 1)), np.random.default_rng(0))
    taken.clear()
    _assert_same_rows(engine._merged(same), _dict_merge(same))
    assert taken == []
    # so a whole run is bit for bit the same when every merge falls back
    model = random_model(np.random.default_rng(8))
    monkeypatch.undo()
    want = evolve_by_order(model, 0, 0.3, 5)
    monkeypatch.setattr(engine, "_row_hash", lambda z, words: np.zeros(len(z), np.uint64))
    assert evolve_by_order(model, 0, 0.3, 5).tobytes() == want.tobytes()


def _with_complex_rates(model):
    # the same model with its rate table held as complex128, as a model
    # with a decaying rate holds it: its frontier is complex from the root
    copy = HamiltonianModel(energies=model.energies, terms=model.terms)
    targets, lam, d = model.step_tables
    lam = lam.astype(complex)
    lam.setflags(write=False)
    vars(copy)["step_tables"] = (targets, lam, d)
    return copy


def test_real_rates_keep_the_frontier_real(monkeypatch):
    # a time-independent model and the oscillator (real drive frequencies)
    # hand the plan float64 rows from the root on, and random_model's
    # decaying rates complex rows; the real rows give the bits of the same
    # batches cast to complex for the kernel, and of a complex frontier
    rng = np.random.default_rng(33)
    real = [(random_ti_model(rng, 0.3), 0, 0.3, 6), (oscillator(4, 5), 4, 0.06, 5)]
    decaying = random_model(rng)
    plan, batch = engine._plan, engine.exp_dd_batch
    seen = []
    monkeypatch.setattr(engine, "_plan", lambda t, y: seen.append(y.dtype) or plan(t, y))
    for (model, z0, t, Q), dtype in [(case, float) for case in real] + [
            ((decaying, 0, 0.3, 5), complex)]:
        assert model.step_tables[1].dtype == dtype
        seen.clear()
        evolve_by_order(model, z0, t, Q)
        assert set(seen) == {np.dtype(dtype)}
    monkeypatch.undo()
    for (model, z0, t, Q), picture in product(real, PICTURES):
        want = evolve_by_order(model, z0, t, Q, picture)
        assert evolve_by_order(_with_complex_rates(model), z0, t, Q,
                               picture).tobytes() == want.tobytes()
        with monkeypatch.context() as m:
            m.setattr(engine, "_plan", lambda t, y: plan(t, y.astype(complex)))
            m.setattr(engine, "exp_dd_batch",
                      lambda t, y, **kw: batch(t, y.astype(complex), **kw))
            assert evolve_by_order(model, z0, t, Q, picture).tobytes() == want.tobytes()


def _stacked_orders(model, z0, t, Q, picture, digits=40):
    """Per-order states of a time-independent model from the Taylor series
    of the stacked hierarchy u_q' = -i (H0 u_q + V u_(q-1)), u_0(0) = |z0>,
    u_q(0) = 0, in mpmath at ``digits`` digits: matrix-vector products on
    V built from the model's terms, nothing of the engine.  The interaction
    picture multiplies state z by e^{i E_z t}."""
    import mpmath as mp

    D = model.dimension
    with mp.workdps(digits):
        E = [mp.mpf(float(e)) for e in model.energies]
        V = [[mp.mpc(0)] * D for _ in range(D)]
        for i in range(1, len(model.terms) + 1):
            term = model.term(i)
            for z, target in enumerate(term.perm.targets.tolist()):
                if target >= 0:
                    V[target][z] += mp.mpc(complex(term.factors[0].d[target]))
        scale = -1j * mp.mpf(t)
        u = [[mp.mpc(int(q == 0 and z == z0)) for z in range(D)] for q in range(Q + 1)]
        total = [row[:] for row in u]
        tiny = mp.mpf(10) ** -digits
        m = 0
        while max(abs(x) for row in u for x in row) > tiny:
            m += 1
            u = [[scale / m * (E[z] * u[q][z] + (sum(V[z][w] * u[q - 1][w] for w in range(D))
                                                  if q else 0))
                  for z in range(D)] for q in range(Q + 1)]
            total = [[a + b for a, b in zip(r, s)] for r, s in zip(total, u)]
        if picture == "interaction":
            total = [[x * mp.exp(1j * mp.mpf(t) * E[z]) for z, x in enumerate(row)]
                     for row in total]
        return np.array([[complex(x) for x in row] for row in total])


@pytest.mark.parametrize("picture", PICTURES)
def test_orders_match_stacked_hierarchy(picture):
    # an oracle that shares no code with the engine: at t = 0.3 every row
    # is grown from its parent's window; at t = 1.5 rows leave the window
    # reach along their paths and are planned on their nodes
    rng = np.random.default_rng(38)
    for t in (0.3, 1.5):
        model = random_ti_model(rng, t)
        got = evolve_by_order(model, 1, t, 12, picture)
        want = _stacked_orders(model, 1, t, 12, picture)
        for q in range(13):
            assert np.linalg.norm(got[q] - want[q]) <= 1e-13 * np.linalg.norm(want[q])


def _grown_rows(monkeypatch):
    # per plan the engine makes: (order, rows grown from windows, rows
    # planned on their own nodes, whether it keeps windows)
    seen = []
    plan = engine._plan

    def recorded(t, y):
        made = plan(t, y)
        grown = sum(np.arange(made.size)[c.rows].size for c in made.chunks if c.grown)
        seen.append((y.shape[1] - 1, grown, made.size - grown, made.windows is not None))
        return made

    monkeypatch.setattr(engine, "_plan", recorded)
    return seen


@pytest.mark.parametrize("picture", PICTURES)
def test_rows_leaving_the_window_reach_match_per_path_oracle(picture, monkeypatch):
    # decaying rates: a row's reach grows along its path, so at the middle
    # orders one batch holds rows grown from their parents' windows and
    # rows planned on their own nodes, whose children are never grown again
    model = random_model(np.random.default_rng(39))
    t, Q = 0.45, 5
    seen = _grown_rows(monkeypatch)
    got = evolve_by_order(model, 0, t, Q, picture)
    monkeypatch.undo()
    want = per_path_orders(model, 0, t, Q, picture)
    for q in range(Q + 1):
        assert np.abs(got[q] - want[q]).max() <= 1e-12 * np.abs(want[q]).max()
    assert any(grown and rest for _, grown, rest, _ in seen)
    assert seen[0][1] == 1 and sum(rest for *_, rest, _ in seen) > 0


def test_rows_past_the_window_reach_carry_no_windows(monkeypatch):
    # the long-time fermi amplitude: every row, the root included, is past
    # the window reach, so no plan grows a row or keeps a window
    seen = _grown_rows(monkeypatch)
    model = build_fermi(FermiParams(0.0, 0.8, 0.8, 1e-5))
    evolve_by_order(model, 0, 6.0e4, 5)
    assert [(q, grown, windows) for q, grown, _, windows in seen] == [
        (q, 0, False) for q in range(6)]


def _reanchored_lineages(monkeypatch, model, z0, t, Q, picture):
    """Run the engine and return how many rows kept their window about
    their own mean, and the (nodes, value) of every row below the top order
    grown from a lineage in which some row did."""
    plan, batch = engine._plan, engine.exp_dd_batch
    # per batch's windows, which of its rows' lineages re-anchored
    moved, grown_rows, count = {}, [], [0]

    def recorded(growth, y):
        made = plan(growth, y)
        lineage = (np.zeros(made.size, bool) if growth.parents is None
                   else moved[id(growth.parents)][growth.parent])
        here = made.anchor != growth.anchor
        count[0] += here.sum()
        if made.windows is not None:
            moved[id(made.windows)] = lineage | here
        # below the top order every row's nodes are built
        chosen = lineage & divdiff._in_reach(growth.reach) & (len(y) == made.size)
        grown_rows.append((y[chosen] if chosen.any() else y[:0], chosen))
        return made

    def kernel(t, nodes, plan):
        values = batch(t, nodes, plan=plan)
        nodes, chosen = grown_rows[-1]
        grown_rows[-1] = (nodes, values[chosen])
        return values

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_plan", recorded)
        patch.setattr(engine, "exp_dd_batch", kernel)
        evolve_by_order(model, z0, t, Q, picture)
    return count[0], [(y, v) for nodes, values in grown_rows
                      for y, v in zip(nodes, values)]


@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("case", ["oscillator", "decaying"])
def test_rows_grown_after_a_row_reanchors_match_highprec(case, picture, monkeypatch):
    # a row past the reach about its lineage's anchor whose own nodes are
    # within 1 / t of their mean keeps its window about that mean, and its
    # descendants grow from it again: real rows (the oscillator, at the
    # benchmark's largest time) and complex ones (decaying rates), each
    # held to the extended-precision recursion
    model, t = ((oscillator(4, 5), 0.0762) if case == "oscillator"
                else (random_model(np.random.default_rng(39)), 0.45))
    z0 = 4 if case == "oscillator" else 0
    reanchored, rows = _reanchored_lineages(monkeypatch, model, z0, t, 5, picture)
    assert reanchored >= 20 and len(rows) >= 50
    assert all(np.iscomplexobj(y) == (case == "decaying") for y, _ in rows)
    rng = np.random.default_rng(41)
    checked = 0
    for i in rng.permutation(len(rows)):
        y, value = rows[i]
        if np.unique(y).size < y.size:
            continue
        want = exp_dd_highprec(t, y)
        assert abs(value - want) <= 1e-13 * abs(want)
        checked += 1
        if checked == 30:
            break
    assert checked == 30


@pytest.mark.parametrize("picture", PICTURES)
def test_oscillator_plans_few_rows_on_their_own_nodes(picture, monkeypatch):
    # at the benchmark's largest oscillator time, 4,791 of the 22,148 rows
    # passed the reach about their lineage's anchor and were planned on their
    # own nodes with every descendant; rows that keep their window about
    # their mean leave 882
    seen = _grown_rows(monkeypatch)
    evolve_by_order(oscillator(4, 5), 4, 0.0762, 5, picture)
    assert sum(grown + rest for _, grown, rest, _ in seen) == 22148
    assert sum(rest for _, _, rest, _ in seen) <= 1000


@pytest.mark.parametrize("seed", [1, 2])
def test_top_order_builds_no_node_rows_within_the_reach(seed, monkeypatch):
    # the dense K = 2 model's 4^8 top-order rows are all within the window
    # reach: each is evaluated from its parent's window, anchor and new
    # node, so the frontier builds none of their 9 nodes
    built = np.zeros((9, 2), int)
    plan = engine._plan

    def recorded(growth, y):
        built[growth.n - 1] += (y.size, len(growth.parent))
        return plan(growth, y)

    monkeypatch.setattr(engine, "_plan", recorded)
    model = random_model(np.random.default_rng(seed), dim=4, n_terms=2, n_factors=2)
    evolve_by_order(model, 0, 0.06, 8)
    assert built[8].tolist() == [0, 4 ** 8]
    assert built[:8, 0].tolist() == [4 ** q * (q + 1) for q in range(8)]
    assert built[:8, 1].tolist() == [4 ** q for q in range(8)]


def test_kernel_rows_on_benchmark_shaped_models(monkeypatch):
    # merging in first-occurrence order loses no merge below the top
    # order, which is summed unmerged: the bundled oscillator makes 22,148
    # kernel rows (2,570 below the top, 19,578 at it) where its 76,771 paths
    # would each need one, and a dense random K = 2 model 4^q rows at order
    # q; each is one kernel call per block evaluated and one per block's top
    # order children (6: 5 blocks and 1 top batch; 15: 11 blocks and 4 top
    # batches)
    calls = []
    batch = engine.exp_dd_batch
    monkeypatch.setattr(engine, "exp_dd_batch", lambda t, nodes, plan:
                        calls.append(plan.size) or batch(t, nodes, plan=plan))
    for picture in PICTURES:
        calls.clear()
        evolve_by_order(oscillator(4, 5), 4, 0.06, 5, picture)
        assert (len(calls), sum(calls)) == (6, 22148)
    for seed in (1, 2):
        calls.clear()
        model = random_model(np.random.default_rng(seed), dim=4, n_terms=2, n_factors=2)
        evolve_by_order(model, 0, 0.06, 8)
        assert (len(calls), sum(calls)) == (15, 87381)


def _record_kernel_arrays(monkeypatch):
    # the kernel's largest arrays are those of its Taylor loops, all
    # node-major: (n, B) rows on the one-slice and chained routes, (n, n, B)
    # tables on the squaring route, (B,) terms on the grown route
    shapes = []
    taylor = divdiff._taylor

    def recorded(r, *args):
        shapes.append(r.shape)
        return taylor(r, *args)

    # and a grown chunk's (B,) terms
    def recorded_grown(plan, chunk):
        values = grown(plan, chunk)
        shapes.append(values.shape)
        return values

    grown = divdiff._grown
    monkeypatch.setattr(divdiff, "_taylor", recorded)
    monkeypatch.setattr(divdiff, "_grown", recorded_grown)
    return shapes


def test_kernel_calls_stay_within_work_budget(monkeypatch):
    shapes = _record_kernel_arrays(monkeypatch)
    nodes = np.random.default_rng(40).uniform(-1.0, 1.0, (3000, 12))
    # t = 0.5 needs one slice (vector route); t = 50 needs 16 to 64 slices,
    # 2s > 12 (squaring)
    for t, rows, ndim in ((0.5, 3000, 2), (50.0, 600, 3)):
        shapes.clear()
        values = divdiff.exp_dd_batch(t, nodes[:rows])
        assert len(shapes) > 1
        assert {len(shape) for shape in shapes} == {ndim}
        assert max(np.prod(shape) for shape in shapes) <= divdiff._CHUNK_ELEMENTS
        for i in (0, 123, rows - 1):
            assert values[i] == pytest.approx(exp_dd(t, nodes[i]), rel=1e-12)


def test_engine_kernel_calls_stay_within_work_budget(monkeypatch):
    shapes = _record_kernel_arrays(monkeypatch)
    widths = []
    batch = engine.exp_dd_batch
    monkeypatch.setattr(engine, "exp_dd_batch",
                        lambda t, nodes, **kw: widths.append(nodes.size) or batch(t, nodes, **kw))
    # this model hands exp_dd_batch wider batches than the budget allows
    model = random_ti_model(np.random.default_rng(43), 0.4)
    evolve_ti(model, 0, 0.4, 20)
    assert max(widths) > divdiff._CHUNK_ELEMENTS
    assert max(np.prod(shape) for shape in shapes) <= divdiff._CHUNK_ELEMENTS


def test_decaying_drive_stays_bounded_at_long_times():
    # lam = i*gamma: node y_j has imaginary part -(q - j)*gamma, so every
    # e^{-it y_j} decays, where e^{t q gamma} would overflow once t*q*gamma
    # passes ~709; the coefficients themselves are O(1)
    m = build_single_spin(SPIN)
    t, Q = 1000.0, 5
    for picture in PICTURES:
        got = evolve_by_order(m, 0, t, Q, picture)
        want = per_path_orders(m, 0, t, Q, picture)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-12


def cosine_drive():
    """Two levels flipped by d cos(2t) at every step: K^q rows per order."""
    dim = 2
    factors = tuple(ExpSumFactor(lam=np.full(dim, s), d=np.full(dim, 0.1))
                    for s in (2.0, -2.0))
    term = PermutationTerm(perm=PermutationMap(np.array([1, 0])), factors=factors)
    return HamiltonianModel(energies=np.array([-0.5, 0.5]), terms=(term,))


def two_level_flip():
    """Two levels with one flip term whose rate depends on the landing state."""
    factor = ExpSumFactor(lam=np.array([0.9, -0.4]), d=np.full(2, 0.1))
    term = PermutationTerm(perm=PermutationMap(np.array([1, 0])), factors=(factor,))
    return HamiltonianModel(energies=np.array([2.7, -2.1]), terms=(term,))


def test_interaction_picture_is_shift_invariant():
    # alpha depends only on energy differences and rates, so shifting every
    # energy by c changes no interaction-picture value; e is exactly
    # representable at both scales, so the model and its shift hold the
    # same differences
    rng = np.random.default_rng(2)
    c = 2.0 ** 20
    e = (c + rng.uniform(-1.0, 1.0, 4)) - c
    # two random permutations with decaying rates (Im lam > 0)
    terms = tuple(PermutationTerm(perm=PermutationMap(rng.permutation(4)), factors=(
        ExpSumFactor(lam=rng.uniform(-1.0, 1.0, 4) + 0.5j * rng.uniform(size=4),
                     d=0.3 * rng.uniform(-1.0, 1.0, 4)),)) for _ in range(2))
    model = HamiltonianModel(energies=e, terms=terms)
    shifted = HamiltonianModel(energies=e + c, terms=terms)
    t, Q = 5.0, 4
    rows = evolve_by_order(model, 0, t, Q, "interaction")
    assert np.abs(evolve_by_order(shifted, 0, t, Q, "interaction") - rows).max() \
        <= 1e-13 * np.abs(rows).max()
    for p in enumerate_paths(model, 0, Q):
        want = alpha(model, p, t)
        assert abs(alpha(shifted, p, t) - want) <= 1e-13 * abs(want)


def test_wide_model_refusal_counts_the_frontier(monkeypatch):
    # the M * K = 200 model's rows take few kernel operations each, so the
    # budget counts the words of every row the frontier builds too: it
    # refuses before the frontier has built more rows than it did when a
    # grown row was counted as a one-slice row of its nodes (2,569,801)
    rows = []
    batch = engine.exp_dd_batch
    monkeypatch.setattr(engine, "exp_dd_batch", lambda t, nodes, plan:
                        rows.append(plan.size) or batch(t, nodes, plan=plan))
    model = random_model(np.random.default_rng(0), dim=20, n_terms=40, n_factors=5)
    with pytest.raises(CapacityError):
        evolve_by_order(model, 0, 0.05, 3)
    assert sum(rows) <= 2_570_000


def test_wide_model_expansion_stays_small():
    # M * K = 200 steps per row: a whole 4096-row block would build ~8e5
    # children (~450 MB traced) before the budget could refuse them
    model = random_model(np.random.default_rng(0), dim=20, n_terms=40, n_factors=5)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            evolve_by_order(model, 0, 0.05, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


@pytest.mark.parametrize("picture", PICTURES)
def test_values_do_not_depend_on_block_size(picture, monkeypatch):
    # M * K = 18 and 4.  At 256-row blocks (142 rows where M * K = 18)
    # every order past the second is split over many blocks, whose children
    # no longer merge; at the default the wide model's order-3 frontier
    # passes its 2,275-row expansion cap and the narrow model's order 6 is
    # one 4,096-row batch
    cases = [(random_model(np.random.default_rng(8), dim=8, n_terms=6, n_factors=3), 4),
             (random_model(np.random.default_rng(8)), 6)]
    calls, default = [], engine._BLOCK_ROWS
    batch = engine.exp_dd_batch
    monkeypatch.setattr(engine, "exp_dd_batch",
                        lambda t, nodes, **kw: calls.append(len(nodes)) or batch(t, nodes, **kw))
    for model, Q in cases:
        calls.clear()
        full = evolve_by_order(model, 0, 0.3, Q, picture)
        full_calls = len(calls)
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 256)
        small = evolve_by_order(model, 0, 0.3, Q, picture)
        monkeypatch.setattr(engine, "_BLOCK_ROWS", default)
        assert len(calls) - full_calls > full_calls
        for q in range(Q + 1):
            assert np.abs(small[q] - full[q]).max() <= 1e-12 * np.abs(full[q]).max()


def test_cosine_drive_high_order_stays_small():
    # if expanded whole, ~300 MB of kernel temporaries at Q = 14
    m = cosine_drive()
    t = 0.5
    tracemalloc.start()
    try:
        st = evolve(m, 0, t, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20
    # the order-15 tail is below (0.2 t)^15 / 15!, far under the tolerance
    reference = ode_evolve(m, 0, t, tol=1e-12)
    assert np.abs(st.amplitudes - reference.amplitudes).max() <= 1e-9


def test_work_budget_fails_fast():
    # admitted by the old path-count bound, this run would take minutes
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        evolve(cosine_drive(), 0, 0.5, 20)
    assert time.perf_counter() - start < 3.0


def oscillator(z0, Q):
    return build_anharmonic(AnharmonicParams(
        omega=1.0, Omega=2.0, gamma_eff=0.02,
        n_max=anharmonic_default_dimension(z0, Q)))


@pytest.mark.parametrize("model, z0, t, Q", [
    (oscillator(4, 5), 4, 0.06, 5),
    # t * spread ~ 3e3: every order past 0 takes the squaring route
    (build_single_spin(SPIN), 0, 1000.0, 5),
    # rows of one order need 1 to 4 slices
    (cosine_drive(), 0, 0.5, 12),
    # the interaction-picture order-2 row needs two slices, its
    # Schrodinger-picture row one: counted on the Schrodinger nodes, the
    # budget would see 241 of the kernel's 600 operations
    (two_level_flip(), 0, 2 / 3.6333333333333333, 2),
], ids=["oscillator", "decaying-spin", "cosine-drive", "two-level"])
def test_counted_work_covers_kernel_work(monkeypatch, kernel_work, model, z0, t, Q):
    limit = engine._WORK_LIMIT
    # each plan's count and the work of the kernel call that follows it,
    # in order, and the frontier words of each batch the kernel ran: each
    # row's endpoint, weight, parent, anchor and reach, and the nodes built
    counted, ran, words = [], [], []
    plan, batch = engine._plan, engine.exp_dd_batch

    def count(t, x):
        made = plan(t, x)
        counted.append(made.work)
        return made

    def kernel(t, nodes, plan):
        start = len(kernel_work)
        values = batch(t, nodes, plan=plan)
        ran.append(sum(kernel_work[start:]))
        words.append((nodes.size + 5 * plan.size) * engine._WORD_OPS)
        return values

    monkeypatch.setattr(engine, "_plan", count)
    monkeypatch.setattr(engine, "exp_dd_batch", kernel)
    # in both pictures: the kernel gets exactly the rows that were counted,
    # one call per count
    for picture in PICTURES:
        monkeypatch.setattr(engine, "_WORK_LIMIT", limit)
        kernel_work.clear()
        counted.clear()
        ran.clear()
        words.clear()
        evolve_by_order(model, z0, t, Q, picture)
        spent = sum(kernel_work)
        assert counted == ran and sum(ran) == spent
        # the budget counts the kernel's work and the frontier words: a
        # budget of exactly that admits the run, and a budget one below it
        # is passed before the kernel has run past it
        total = spent + sum(words)
        monkeypatch.setattr(engine, "_WORK_LIMIT", total)
        evolve_by_order(model, z0, t, Q, picture)
        monkeypatch.setattr(engine, "_WORK_LIMIT", total - 1)
        kernel_work.clear()
        counted.clear()
        ran.clear()
        words.clear()
        with pytest.raises(CapacityError):
            evolve_by_order(model, z0, t, Q, picture)
        assert sum(kernel_work) + sum(words) <= total - 1
        # the batch whose count passes the budget never reaches the kernel
        assert ran == counted[:-1]


@pytest.mark.parametrize("picture", PICTURES)
def test_path_charge_equals_kernel_work(monkeypatch, kernel_work, picture):
    # every row of these paths takes one slice, so the kernel spends on
    # each path exactly the one-slice count enumerate_paths charges it
    model, t = oscillator(4, 3), 0.06
    paths = list(enumerate_paths(model, 4, 3))
    nodes_of = x_inputs if picture == "interaction" else y_inputs
    for order in {p.order for p in paths}:
        nodes = [nodes_of(model, p) for p in paths if p.order == order]
        assert {c.n_slices for c in divdiff._plan(t, np.array(nodes)).chunks} == {1}
    charged = sum(divdiff._table_ops(len(p.trajectory), 1) for p in paths)
    engine.path_coefficients(model, paths, t, picture)
    assert sum(kernel_work) == charged
    # and the generator charges exactly that: a budget of the sum admits
    # the walk, one below it stops the walk at its last path
    monkeypatch.setattr(engine, "_WORK_LIMIT", charged)
    assert len(list(enumerate_paths(model, 4, 3))) == len(paths)
    monkeypatch.setattr(engine, "_WORK_LIMIT", charged - 1)
    walked = []
    with pytest.raises(CapacityError):
        walked.extend(enumerate_paths(model, 4, 3))
    assert len(walked) == len(paths) - 1


def test_work_budget_calibration(monkeypatch):
    # the budget's documented calibration, with the kernel stubbed out so
    # only the frontier and the count run
    monkeypatch.setattr(engine, "exp_dd_batch",
                        lambda t, nodes, plan: np.zeros(plan.size, complex))
    evolve_by_order(oscillator(4, 7), 4, 0.06, 7)
    with pytest.raises(CapacityError):
        evolve_by_order(cosine_drive(), 0, 0.5, 20)


def test_work_budget_admits_oscillator_order_six():
    # ~1.8e7 table operations, well inside the budget
    orders = evolve_by_order(oscillator(4, 6), 4, 0.06, 6)
    assert np.isfinite(orders).all()
    assert np.abs(orders[6]).max() > 0


def test_rows_past_the_kernel_range_are_refused_by_the_budget(monkeypatch):
    # the order-1 row's nodes are 2^60 apart, past the kernel's 2^52
    # slices, or both 2^60, past its phase range, or one is 1e308 + 1e308,
    # which overflows (numpy warns as the frontier builds it; at t = 1e-300
    # the root is in range): the budget pass refuses the row, at the top
    # order and below it, and the kernel sees only the root
    seen = []
    kernel = engine.exp_dd_batch
    monkeypatch.setattr(engine, "exp_dd_batch",
                        lambda t, nodes, **kw: seen.append(nodes.shape) or kernel(t, nodes, **kw))
    cases = ((FermiParams(0.0, 2.0 ** 60, 0.0, 1.0), 1.0, "range"),
             (FermiParams(0.0, 2.0 ** 60, 2.0 ** 60, 1.0), 1.0, "range"),
             (FermiParams(1e308, 0.0, 1e308, 1.0), 1e-300, "finite"))
    for (params, t, match), Q in product(cases, (1, 2)):
        seen.clear()
        with pytest.raises(ValueError, match=match), np.errstate(over="ignore"):
            evolve_by_order(build_fermi(params), 0, t, Q)
        assert seen == [(1, 1)]


def test_invalid_arguments():
    m = build_single_spin(SPIN)
    with pytest.raises(ValueError):
        evolve(m, 5, 0.1, 2)
    with pytest.raises(ValueError):
        evolve(m, 0, np.inf, 2)
    with pytest.raises(ValueError):
        evolve(m, 0, 0.1, -1)
    with pytest.raises(ValueError):
        evolve(m, 0, 0.1, 2, picture="heisenberg")


@pytest.mark.parametrize("call", [
    lambda m: evolve(m, 1.0, 0.1, 2),
    lambda m: ode_evolve(m, 1.0, 0.1),
    lambda m: transition_amplitude(m, 0, 1.0, 0.1, 2),
    lambda m: amplitude_by_order(m, 0, 1.0, 0.1, 2),
    lambda m: evolve_by_order(m, 0, 0.1, 2.5),
    lambda m: list(enumerate_paths(m, 0, 2.5)),
    lambda m: fermi_amplitude_closed_form(FERMI, 2.5, 0.7),
    lambda m: fermi_amplitude_closed_form(FERMI, 3.0, 0.7),
    lambda m: anharmonic_default_dimension(2.7, 1.9),
], ids=["evolve", "ode", "amplitude", "by-order", "max-order", "paths",
        "closed-form-order", "closed-form-odd-float", "default-dimension"])
def test_non_integer_index_or_order_is_a_value_error(call):
    with pytest.raises(ValueError, match="integer"):
        call(build_single_spin(SPIN))


@pytest.mark.parametrize("call", [
    lambda m: exp_dd(np.complex128(0.5 + 1j), [0.0, 1.0]),
    lambda m: exp_dd(0.5 + 0j, [0.0, 1.0]),
    lambda m: divdiff.exp_dd_batch(np.array([0.5 + 1j, 0.5]), np.ones((2, 2))),
    lambda m: evolve(m, 0, np.complex128(0.5 + 1j), 3),
    lambda m: ode_evolve(m, 0, np.complex128(0.5 + 1j)),
    lambda m: ode_evolve(m, 0, np.array([0.5 + 1j])),
], ids=["exp_dd", "python-complex", "per-row", "evolve", "ode", "ode-grid"])
def test_complex_times_are_type_errors(call):
    # a numpy complex time was cut to its real part, with only a warning
    with pytest.raises(TypeError, match="real"):
        call(build_single_spin(SPIN))


def test_integer_like_indices_are_accepted():
    m = build_single_spin(SPIN)
    want = evolve(m, 1, 0.1, 2).amplitudes
    for z in (np.int64(1), True):
        assert np.array_equal(evolve(m, z, 0.1, 2).amplitudes, want)
    assert transition_amplitude(m, np.int64(1), np.int64(0), 0.1, 2) == want[0]
    assert np.array_equal(evolve_by_order(m, 1, 0.1, np.int64(2)).sum(axis=0), want)
    assert np.array_equal(ode_evolve(m, np.int64(1), 0.1).amplitudes,
                          ode_evolve(m, 1, 0.1).amplitudes)
    # gamma ** order must not depend on the integer type of the order
    assert (fermi_amplitude_closed_form(FERMI, np.int64(3), 0.7)
            == fermi_amplitude_closed_form(FERMI, 3, 0.7))
    assert anharmonic_default_dimension(np.int64(4), np.int32(5)) == 28


# -- transition amplitudes ---------------------------------------------------

def test_amplitude_is_exactly_the_evolved_component():
    rng = np.random.default_rng(38)
    m = random_model(rng)
    t = 0.5
    st = evolve(m, 0, t, 3)
    for z in range(m.dimension):
        assert transition_amplitude(m, 0, z, t, 3) == complex(st.amplitudes[z])


def test_off_diagonal_vanishes_at_order_zero():
    m = build_fermi(FermiParams(e_in=0.0, e_fin=1.0, e_drive=0.5, gamma=0.1))
    assert transition_amplitude(m, 0, 1, 0.7, 0) == 0
    assert amplitude_by_order(m, 0, 1, 0.7, 4)[0] == 0


def test_diagonal_order_zero_phase():
    m = build_fermi(FermiParams(e_in=0.3, e_fin=1.0, e_drive=0.5, gamma=0.1))
    amp = amplitude_by_order(m, 0, 0, 0.7, 0)[0]
    assert amp == pytest.approx(np.exp(-1j * 0.7 * 0.3), rel=1e-14)


# -- time-independent specialization -----------------------------------------

def test_ti_requires_time_independent_model():
    m = build_single_spin(SPIN)  # gamma > 0: lam = i*gamma
    with pytest.raises(ModelError):
        evolve_ti(m, 0, 0.5, 4)


def test_ti_free_evolution(free_model):
    m = free_model([1.0, -2.0])
    st = evolve_ti(m, 0, 0.7, 5)
    assert st.amplitudes[0] == pytest.approx(np.exp(-1j * 0.7), rel=1e-14)
    assert st.amplitudes[1] == 0


def test_ti_two_level_matches_matrix_exponential():
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.4, gamma=0.0))
    t = 0.5
    st = evolve_ti(m, 0, t, 25)
    ref = mat_exp_evolve(m, 0, t)
    assert np.abs(st.amplitudes - ref.amplitudes).max() <= 1e-8


def test_ti_agrees_with_general_engine():
    # evolve_ti runs the frontier engine, so the independent reference is
    # the per-path oracle: beta summed over every enumerated path
    rng = np.random.default_rng(39)
    for _ in range(3):
        t = float(rng.uniform(0.1, 0.5))
        m = random_ti_model(rng, t)
        z0 = int(rng.integers(0, m.dimension))
        a = evolve_ti(m, z0, t, 8)
        b = per_path_orders(m, z0, t, 8, "schrodinger").sum(axis=0)
        assert np.abs(a.amplitudes - b).max() <= 1e-12


# -- state vector ------------------------------------------------------------

def test_state_vector_accessors():
    st = StateVector(amplitudes=np.array([3 / 5, 4j / 5]), time=0.0)
    assert st.dimension == 2
    assert st.norm() == pytest.approx(1.0)
    assert np.allclose(st.probabilities(), [9 / 25, 16 / 25])
