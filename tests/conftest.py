import numpy as np
import pytest

from ddyson import (
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
)
from ddyson import divdiff


@pytest.fixture
def kernel_work(monkeypatch):
    """The table operations of each ``_exp_dd_core`` call made while the
    test runs, by the kernel's own cost formula, in call order: each row
    evaluated at the chunk's slice count, or grown from its parent's
    window.  The engine's frontier words are not the kernel's work and are
    not in it."""
    ran = []
    core = divdiff._exp_dd_core

    def recorded(plan, chunk):
        values = core(plan, chunk)
        ops = (divdiff._GROWN_OPS if chunk.grown else
               divdiff._table_ops(len(plan.delta), chunk.n_slices))
        ran.append(len(values) * ops)
        return values

    monkeypatch.setattr(divdiff, "_exp_dd_core", recorded)
    return ran


@pytest.fixture
def free_model():
    """Factory: H = diag(energies) with an identically-zero perturbation."""
    def make(energies):
        energies = np.asarray(energies, dtype=float)
        dim = energies.size
        term = PermutationTerm(
            perm=PermutationMap.identity(dim),
            factors=(ExpSumFactor(lam=np.zeros(dim, dtype=complex),
                                  d=np.zeros(dim, dtype=complex)),),
        )
        return HamiltonianModel(energies=energies, terms=(term,))
    return make


def quartic_block(dim: int) -> np.ndarray:
    """(a + a^dag)^4 restricted to the lowest ``dim`` Fock states.

    Built in a padded space so products through intermediate levels above
    the cut are kept, then cropped: the honest restriction of the infinite
    operator.
    """
    pad = dim + 4
    lower = np.diag(np.sqrt(np.arange(1, pad)), 1)
    x4 = np.linalg.matrix_power(lower + lower.T, 4)
    return x4[:dim, :dim].astype(complex)
