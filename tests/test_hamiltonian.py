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


def test_non_integer_targets_and_shifts_rejected():
    # each was silently truncated to an integer map before
    with pytest.raises(ModelError):
        PermutationMap(np.array([1.5, 0.2]))
    with pytest.raises(ModelError):
        PermutationMap.from_mapping([1.7, None, 0])
    with pytest.raises(ValueError):
        PermutationMap.from_shift(4, 1.5)
    # numpy integers pass, and negative shifts stay legal
    assert PermutationMap(np.array([1, 0], dtype=np.int32)).targets.tolist() == [1, 0]
    assert PermutationMap.from_mapping([np.int64(2), None, 0]).targets.tolist() == [2, -1, 0]
    assert PermutationMap.from_shift(4, np.int64(-1)).targets.tolist() == [-1, 0, 1, 2]


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
    terms = (PermutationTerm(
        perm=PermutationMap.identity(2),
        factors=(ExpSumFactor(lam=np.zeros(2, complex), d=np.zeros(2, complex)),)),)
    with pytest.raises(ModelError):
        ExpSumFactor(lam=np.array([np.inf + 0j]), d=np.array([1.0 + 0j]))
    with pytest.raises(ModelError):
        HamiltonianModel(energies=np.array([np.nan, 0.0]), terms=terms)
    # a complex energy is an error, not cut to its real part with a warning
    for energies in (np.array([1 + 2j, 0]), [1, complex(0, np.nan)]):
        with pytest.raises(ModelError, match="real"):
            HamiltonianModel(energies=energies, terms=terms)
    # a real value held as complex passes, with no warning
    m = HamiltonianModel(energies=np.array([1 + 0j, 0j]), terms=terms)
    assert m.energies.dtype == float and m.energies.tolist() == [1.0, 0.0]


def test_dimension_mismatch_rejected():
    f = ExpSumFactor(lam=np.zeros(3, complex), d=np.ones(3, complex))
    with pytest.raises(ModelError):
        PermutationTerm(perm=PermutationMap.identity(2), factors=(f,))
    with pytest.raises(ModelError, match="1-D"):
        PermutationMap(np.array([[1, 0], [0, 1]]))
    with pytest.raises(ModelError, match="equal-length"):
        ExpSumFactor(lam=np.zeros(3, complex), d=np.ones(2, complex))
    with pytest.raises(ModelError, match="at least one factor"):
        PermutationTerm(perm=PermutationMap.identity(3), factors=())
    term = PermutationTerm(perm=PermutationMap.identity(3), factors=(f,))
    with pytest.raises(ModelError, match="spectrum"):
        HamiltonianModel(energies=np.zeros(2), terms=(term,))



@pytest.mark.parametrize("call, message", [
    (lambda m: HamiltonianModel(energies=np.array([]), terms=m.terms), "nonempty 1-D"),
    (lambda m: HamiltonianModel(energies=np.zeros((2, 1)), terms=m.terms), "nonempty 1-D"),
    (lambda m: m.term(0), "outside"),
    (lambda m: m.term(m.n_terms + 1), "outside"),
    (lambda m: path_energies(m, ()), "nonempty index"),
], ids=["energies-empty", "energies-2d", "term-0", "term-past-M", "empty-trajectory"])
def test_out_of_shape_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(build_single_spin(SingleSpinParams(a=1.0, b=0.5)))

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
