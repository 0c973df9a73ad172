"""Model structure: permutation maps, dense evaluation, trajectories."""

import numpy as np
import pytest

from ddyson import (
    AnharmonicParams,
    ExpSumFactor,
    HamiltonianModel,
    ModelError,
    PermutationMap,
    PermutationTerm,
    SingleSpinParams,
    build_anharmonic,
    build_fermi,
    build_single_spin,
    eval_H,
    eval_V,
    is_time_independent,
    path_energies,
)
from ddyson.models import FermiParams
from ddyson.validate import random_model

from conftest import quartic_block


# -- permutation maps --------------------------------------------------------

def test_shift_map_prunes_outside_basis():
    p = PermutationMap.from_shift(6, -4)
    assert p.targets.tolist() == [-1, -1, -1, -1, 0, 1]


def test_identity_map():
    p = PermutationMap.identity(4)
    assert p.targets.tolist() == [0, 1, 2, 3]


def test_mapping_with_undefined_entries():
    p = PermutationMap.from_mapping([2, None, 0])
    assert p.targets.tolist() == [2, -1, 0]


def test_non_injective_mapping_rejected():
    with pytest.raises(ModelError):
        PermutationMap.from_mapping([1, 1, 2])


def test_out_of_range_target_rejected():
    with pytest.raises(ModelError):
        PermutationMap(np.array([0, 5], dtype=np.int64))


# -- model validation --------------------------------------------------------

def test_model_requires_terms_and_consistent_factor_count():
    energies = np.array([0.0, 1.0])
    with pytest.raises(ModelError):
        HamiltonianModel(energies=energies, terms=())
    f1 = ExpSumFactor(lam=np.zeros(2, complex), d=np.ones(2, complex))
    t1 = PermutationTerm(perm=PermutationMap.identity(2), factors=(f1,))
    t2 = PermutationTerm(perm=PermutationMap.identity(2), factors=(f1, f1))
    with pytest.raises(ModelError):
        HamiltonianModel(energies=energies, terms=(t1, t2))


def test_model_rejects_nonfinite_pieces():
    with pytest.raises(ModelError):
        ExpSumFactor(lam=np.array([np.inf + 0j]), d=np.array([1.0 + 0j]))
    with pytest.raises(ModelError):
        HamiltonianModel(
            energies=np.array([np.nan]),
            terms=(PermutationTerm(
                perm=PermutationMap.identity(1),
                factors=(ExpSumFactor(lam=np.zeros(1, complex),
                                      d=np.zeros(1, complex)),)),))


def test_dimension_mismatch_rejected():
    f = ExpSumFactor(lam=np.zeros(3, complex), d=np.ones(3, complex))
    with pytest.raises(ModelError):
        PermutationTerm(perm=PermutationMap.identity(2), factors=(f,))


# -- dense evaluation --------------------------------------------------------

def test_single_spin_V_at_zero_is_bX():
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.7, gamma=0.3))
    assert np.allclose(eval_V(m, 0.0), 0.7 * np.array([[0, 1], [1, 0]]))


def test_zero_d_gives_zero_matrix(free_model):
    m = free_model([0.5, -0.5, 2.0])
    assert np.all(eval_V(m, 1.3) == 0)
    assert np.allclose(eval_H(m, 1.3), np.diag([0.5, -0.5, 2.0]))


def test_single_spin_H_decaying_envelope():
    a, b, g = 1.0, 0.5, 0.2
    m = build_single_spin(SingleSpinParams(a=a, b=b, gamma=g))
    rng = np.random.default_rng(21)
    Z = np.diag([1.0, -1.0])
    X = np.array([[0, 1], [1, 0]], dtype=float)
    for t in rng.uniform(0, 5, 100):
        expected = a * Z + b * np.exp(-g * t) * X
        assert np.abs(eval_H(m, t) - expected).max() <= 1e-14


def test_single_spin_a_only_diagonal():
    m = build_single_spin(SingleSpinParams(a=1.0, b=0.0))
    assert np.allclose(eval_H(m, 2.7), np.diag([1.0, -1.0]))


def test_eval_V_matches_object_walk():
    # V built over the model.term(i) objects; the step tables are read in
    # the same term-then-factor order, so V is the same to the bit
    def object_V(model, t):
        V = np.zeros((model.dimension, model.dimension), dtype=complex)
        for i in range(1, model.n_terms + 1):
            term = model.term(i)
            src = np.nonzero(term.perm.targets >= 0)[0]
            dst = term.perm.targets[src]
            for f in term.factors:
                V[dst, src] += np.exp(1j * f.lam[dst] * t) * f.d[dst]
        return V

    rng = np.random.default_rng(39)
    models = [random_model(rng, dim=5, n_terms=4, n_factors=3) for _ in range(5)]
    models += [build_anharmonic(AnharmonicParams(omega=1.3, Omega=1.7,
                                                 gamma_eff=0.02, n_max=9)),
               build_single_spin(SingleSpinParams(a=1.0, b=0.5, gamma=0.2))]
    for m in models:
        for t in (0.0, 0.37, 2.5):
            assert eval_V(m, t).tobytes() == object_V(m, t).tobytes()


def test_anharmonic_V_at_zero_matches_ladder_block():
    # two unit-weight cosine factors: V(0) = 2 gamma_eff * (a + a^dag)^4
    gamma = 0.02
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=gamma, n_max=8))
    expected = 2.0 * gamma * quartic_block(8)
    assert np.abs(eval_V(m, 0.0) - expected).max() <= 1e-12


def test_anharmonic_H_at_zero():
    gamma = 0.02
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=gamma, n_max=8))
    expected = np.diag(np.arange(8) + 0.5) + 2.0 * gamma * quartic_block(8)
    assert np.abs(eval_H(m, 0.0) - expected).max() <= 1e-12


def test_non_hermitian_models_are_allowed():
    m = build_fermi(FermiParams(e_in=0.0, e_fin=1.0, e_drive=0.5, gamma=0.1))
    H = eval_H(m, 0.3)
    assert np.abs(H - H.conj().T).max() > 1e-3  # drive phase breaks hermiticity
    assert not is_time_independent(m)


# -- trajectories ------------------------------------------------------------

def test_path_energies_single_spin_alternates():
    a = 1.3
    m = build_single_spin(SingleSpinParams(a=a, b=0.5))
    assert np.allclose(path_energies(m, (0, 1, 0)), [a, -a, a])


def test_path_energies_anharmonic_lowering():
    m = build_anharmonic(AnharmonicParams(omega=1.0, Omega=2.0,
                                          gamma_eff=0.02, n_max=9))
    assert np.allclose(path_energies(m, (4, 0)), [4.5, 0.5])


def test_path_energies_match_free_diagonal(free_model):
    rng = np.random.default_rng(22)
    energies = rng.uniform(-3, 3, 5)
    m = free_model(energies)
    diag = np.real(np.diag(eval_H(m, rng.uniform(0, 1))))
    traj = tuple(rng.integers(0, 5, 4))
    assert np.allclose(path_energies(m, traj), diag[list(traj)])
