"""Built-in models: spin, driven quartic oscillator, golden-rule two-level,
plus the JSON config round trip."""

import json
import math

import numpy as np
import pytest

from ddyson import (
    AnharmonicParams,
    CapacityError,
    ModelError,
    SingleSpinParams,
    anharmonic_default_dimension,
    beta,
    build_anharmonic,
    build_fermi,
    build_named,
    build_single_spin,
    enumerate_paths,
    eval_H,
    exp_dd,
    is_time_independent,
    load_model,
    model_to_json,
    quartic_amplitude,
    transition_amplitude,
)
from ddyson.models import FermiParams, fermi_amplitude_closed_form


# -- single spin --------------------------------------------------------------

def test_single_spin_H_at_zero():
    m = build_single_spin(SingleSpinParams(a=1.5, b=0.4, gamma=0.7))
    assert np.allclose(eval_H(m, 0.0), [[1.5, 0.4], [0.4, -1.5]])


def test_single_spin_zero_decay_is_time_independent():
    assert is_time_independent(build_single_spin(SingleSpinParams(1.0, 0.5, 0.0)))
    assert not is_time_independent(build_single_spin(SingleSpinParams(1.0, 0.5, 0.1)))


def test_single_spin_rejects_bad_parameters():
    with pytest.raises(ModelError):
        SingleSpinParams(a=1.0, b=0.5, gamma=-0.1)
    with pytest.raises(ModelError):
        SingleSpinParams(a=np.inf, b=0.5)


# -- anharmonic oscillator ----------------------------------------------------

def test_quartic_amplitudes_reference_values():
    # diagonal at n = 4 and the 4-step lowering amplitude from n = 4
    assert quartic_amplitude(0, 4) == pytest.approx(3 * (2 * 16 + 8 + 1))  # 123
    assert quartic_amplitude(-4, 4) == pytest.approx(math.sqrt(24))
    assert quartic_amplitude(-2, 1) == 0.0
    assert quartic_amplitude(4, 0) == pytest.approx(math.sqrt(24))


def test_anharmonic_needs_headroom():
    with pytest.raises(ModelError):
        build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=4))
    # past 2^16 Fock states the truncation is refused before it is built
    with pytest.raises(CapacityError):
        AnharmonicParams(omega=1.0, Omega=2.0, gamma_eff=0.02, n_max=2 ** 16 + 1)


def test_default_dimension_rule():
    assert anharmonic_default_dimension(4, 5) == 28
    assert anharmonic_default_dimension(0, 0) == 4


def test_anharmonic_hermitian_at_all_times():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=10))
    rng = np.random.default_rng(41)
    for t in rng.uniform(0, 3, 25):
        H = eval_H(m, t)
        assert np.abs(H - H.conj().T).max() <= 1e-12


def _aggregated_coefficient(model, n, terms, t):
    """Sum of beta over every factor assignment of one term walk."""
    order = len(terms)
    total = 0j
    for p in enumerate_paths(model, n, order):
        if p.terms == terms:
            total += beta(model, p, t)
    return total


# term indices in the builder's ordering
TERM_OF_SHIFT = {-4: 1, -2: 2, 0: 3, 2: 4, 4: 5}


def test_first_order_coefficients_two_phase_sum():
    # per ladder shift i: gamma * c_i(n) * (e^{-it[E_n+W, E_{n+i}]} + e^{-it[E_n-W, E_{n+i}]})
    omega, W, gamma = 1.0, 2.0, 0.02
    m = build_anharmonic(AnharmonicParams(omega, W, gamma, n_max=16))
    t = 0.3
    E = lambda n: omega * (n + 0.5)
    for n in range(4, 9):
        for shift in (-4, -2, 0, 2, 4):
            expected = gamma * quartic_amplitude(shift, n) * (
                exp_dd(t, [E(n) + W, E(n + shift)])
                + exp_dd(t, [E(n) - W, E(n + shift)]))
            got = _aggregated_coefficient(m, n, (TERM_OF_SHIFT[shift],), t)
            assert got == pytest.approx(expected, rel=1e-12)


def test_second_order_double_lowering_coefficient():
    # walk (-4, -4) from n >= 8: gamma^2 c_{-4}(n) c_{-4}(n-4)
    # x sum_{k1,k2 = +-1} e^{-it[E_n + (k1+k2) W, E_{n-4} + k2 W, E_{n-8}]}
    omega, W, gamma = 1.0, 2.0, 0.02
    m = build_anharmonic(AnharmonicParams(omega, W, gamma, n_max=16))
    t = 0.3
    E = lambda n: omega * (n + 0.5)
    n = 8
    expected = 0j
    for k1 in (+1, -1):
        for k2 in (+1, -1):
            expected += exp_dd(t, [E(n) + (k1 + k2) * W,
                                   E(n - 4) + k2 * W,
                                   E(n - 8)])
    expected *= gamma ** 2 * quartic_amplitude(-4, n) * quartic_amplitude(-4, n - 4)
    got = _aggregated_coefficient(m, n, (1, 1), t)
    assert got == pytest.approx(expected, rel=1e-12)
    # below the double-lowering threshold the walk is pruned
    assert all(p.terms != (1, 1) for p in enumerate_paths(m, 7, 2))


def test_second_order_mixed_walk_d_product():
    # walk (-4, 0): d product is gamma^2 sqrt(n(n-1)(n-2)(n-3)) * 3(2n^2-14n+25)
    gamma = 0.02
    n = 6
    dprod = gamma ** 2 * quartic_amplitude(-4, n) * quartic_amplitude(0, n - 4)
    poly = 3 * (2 * n ** 2 - 14 * n + 25)
    assert dprod == pytest.approx(gamma ** 2 * math.sqrt(n * (n - 1) * (n - 2) * (n - 3)) * poly)


# -- golden-rule two-level ----------------------------------------------------

def test_fermi_first_order_closed_form():
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.02)
    m = build_fermi(fp)
    t = 0.7
    amp = transition_amplitude(m, 0, 1, t, 1)
    gap = fp.e_in + fp.e_drive - fp.e_fin
    ratio = fp.gamma * (np.exp(-1j * t * (fp.e_in + fp.e_drive))
                        - np.exp(-1j * t * fp.e_fin)) / gap
    assert amp == pytest.approx(ratio, rel=1e-12)


def test_fermi_resonant_removable_singularity():
    t = 0.7
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.8, gamma=0.02)  # exact resonance
    m = build_fermi(fp)
    amp = transition_amplitude(m, 0, 1, t, 1)
    assert amp == pytest.approx(-1j * t * fp.gamma * np.exp(-1j * t * fp.e_fin),
                                rel=1e-13)


def test_fermi_higher_order_ladder():
    fp = FermiParams(e_in=0.3, e_fin=1.1, e_drive=0.45, gamma=0.05)
    m = build_fermi(fp)
    t = 0.9
    E, F, drv = fp.e_in, fp.e_fin, fp.e_drive
    expected3 = fp.gamma ** 3 * exp_dd(
        t, [E + 3 * drv, F + 2 * drv, E + drv, F])
    expected5 = fp.gamma ** 5 * exp_dd(
        t, [E + 5 * drv, F + 4 * drv, E + 3 * drv, F + 2 * drv, E + drv, F])
    from ddyson import amplitude_by_order
    amps = amplitude_by_order(m, 0, 1, t, 5)
    assert amps[3] == pytest.approx(expected3, rel=1e-12)
    assert amps[5] == pytest.approx(expected5, rel=1e-12)
    assert fermi_amplitude_closed_form(fp, 3, t) == pytest.approx(expected3, rel=1e-14)
    assert fermi_amplitude_closed_form(fp, 2, t) == 0


# -- config round trip ---------------------------------------------------------

def test_round_trip_preserves_dense_hamiltonian():
    m = build_single_spin(SingleSpinParams(a=0.8, b=0.3, gamma=0.15))
    reloaded = load_model(model_to_json(m))
    rng = np.random.default_rng(42)
    for t in rng.uniform(0, 2, 10):
        assert np.abs(eval_H(m, t) - eval_H(reloaded, t)).max() <= 1e-14


def test_round_trip_anharmonic():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=8))
    reloaded = load_model(model_to_json(m))
    for t in (0.0, 0.3):
        assert np.abs(eval_H(m, t) - eval_H(reloaded, t)).max() <= 1e-14


def test_config_shift_map_and_broadcast():
    cfg = {
        "dimension": 3,
        "energies": [0.0, 1.0, 2.0],
        "terms": [{"shift_map": 1,
                   "factors": [{"lambda": 0.5, "d": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]}]}],
    }
    m = load_model(json.dumps(cfg))
    V = np.zeros((3, 3), complex)
    V[1, 0], V[2, 1] = 0.2, 0.3   # d read at the destination; top row clipped
    assert np.allclose(eval_H(m, 0.0), np.diag([0.0, 1.0, 2.0]) + V)


def test_config_rejects_duplicate_targets():
    cfg = {
        "dimension": 2,
        "energies": [0.0, 1.0],
        "terms": [{"mapping": [0, 0], "factors": [{"lambda": 0, "d": 1}]}],
    }
    with pytest.raises(ModelError, match="injective"):
        load_model(json.dumps(cfg))


def test_config_rejects_empty_terms_and_bad_shapes():
    base = {"dimension": 2, "energies": [0.0, 1.0], "terms": []}
    with pytest.raises(ModelError):
        load_model(json.dumps(base))
    bad = {"dimension": 2, "energies": [0.0], "terms": [
        {"shift_map": 0, "factors": [{"lambda": 0, "d": 1}]}]}
    with pytest.raises(ModelError):
        load_model(json.dumps(bad))
    with pytest.raises(ModelError):
        load_model("not json at all {")
    both = {"dimension": 2, "energies": [0.0, 1.0], "terms": [
        {"shift_map": 0, "mapping": [0, 1], "factors": [{"lambda": 0, "d": 1}]}]}
    with pytest.raises(ModelError):
        load_model(json.dumps(both))
    for target in (1.5, True, "1"):
        # a non-integer target is rejected, not truncated to an index
        loose = {"dimension": 2, "energies": [0.0, 1.0], "terms": [
            {"mapping": [target, None], "factors": [{"lambda": 0, "d": 1}]}]}
        with pytest.raises(ModelError, match=r"terms\[0\]"):
            load_model(json.dumps(loose))


def test_builtin_registry():
    m = build_named("single_spin", {"a": 1.0, "b": 0.5})
    assert m.dimension == 2
    with pytest.raises(ModelError):
        build_named("nonesuch")
    with pytest.raises(ModelError):
        build_named("single_spin", {"bogus": 1.0})
    with pytest.raises(ModelError):
        build_named("anharmonic", {})   # n_max has no default here
    with pytest.raises(ModelError):
        build_named("anharmonic", {"n_max": 9.7})
    assert build_named("anharmonic", {"n_max": 9.0}).dimension == 9
