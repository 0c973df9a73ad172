"""Hamiltonians H(t) = H_0 + V(t) over a finite computational basis.

H_0 is diagonal with known energies E_z.  The perturbation is a sum of
generalized permutation terms, each a basis permutation P dressed by K
exponential-sum diagonal factors, so that

    V(t) = sum_i sum_k e^{i lam_i^{(k)} t} D_i^{(k)} P_i .

A term acts on a basis state as D P |z> = d(z') |z'> with z' = P(z): the
diagonals ``lam`` and ``d`` are read at the destination state.  Permutations
are partial maps: a source whose image leaves the truncated basis simply
contributes nothing (paths through it are pruned).  Hermiticity is neither
assumed nor enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divdiff import _check_time
from .errors import ModelError


@dataclass(frozen=True)
class PermutationMap:
    """Partial injective map on basis indices; target -1 means undefined."""

    targets: np.ndarray

    def __post_init__(self):
        tgt = np.asarray(self.targets, dtype=np.int64)
        if tgt.ndim != 1 or tgt.size == 0:
            raise ModelError("permutation targets must be a nonempty 1-D array")
        d = tgt.size
        if tgt.min() < -1 or tgt.max() >= d:
            raise ModelError(f"permutation targets must lie in [-1, {d})")
        defined = tgt[tgt >= 0]
        if np.unique(defined).size != defined.size:
            raise ModelError("permutation map is not injective on its domain")
        object.__setattr__(self, "targets", tgt)

    @property
    def dimension(self) -> int:
        return self.targets.size

    @classmethod
    def identity(cls, dimension: int) -> "PermutationMap":
        return cls(np.arange(dimension, dtype=np.int64))

    @classmethod
    def from_shift(cls, dimension: int, shift: int) -> "PermutationMap":
        """z -> z + shift where the image stays inside [0, dimension)."""
        tgt = np.arange(dimension, dtype=np.int64) + int(shift)
        tgt[(tgt < 0) | (tgt >= dimension)] = -1
        return cls(tgt)

    @classmethod
    def from_mapping(cls, entries) -> "PermutationMap":
        """Explicit target list; None (or -1) marks undefined sources."""
        tgt = np.array([-1 if e is None else int(e) for e in entries],
                       dtype=np.int64)
        return cls(tgt)


@dataclass(frozen=True)
class ExpSumFactor:
    """One exponential-sum component e^{i lam t} d of a diagonal factor.

    ``lam`` and ``d`` are the diagonals indexed by basis state (read at the
    destination of the accompanying permutation); both may be complex.  A
    zero d entry at some state kills every path stepping onto that state
    through this factor.
    """

    lam: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=complex))
        d = np.atleast_1d(np.asarray(self.d, dtype=complex))
        if lam.shape != d.shape or lam.ndim != 1:
            raise ModelError("factor diagonals lam and d must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(d))):
            raise ModelError("factor diagonals must be finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "d", d)

    @property
    def dimension(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class PermutationTerm:
    """A permutation dressed by K exponential-sum factors."""

    perm: PermutationMap
    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ModelError("permutation term needs at least one factor")
        for f in factors:
            if f.dimension != self.perm.dimension:
                raise ModelError("factor dimension does not match permutation")
        object.__setattr__(self, "factors", factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class HamiltonianModel:
    """Free spectrum plus M permutation terms with K factors each.

    Immutable after construction; all operations on it are read-only.
    Term indices are 1-based throughout.
    """

    energies: np.ndarray
    terms: tuple

    def __post_init__(self):
        en = np.atleast_1d(np.asarray(self.energies, dtype=float))
        if en.ndim != 1 or en.size == 0:
            raise ModelError("energies must be a nonempty 1-D real array")
        if not np.all(np.isfinite(en)):
            raise ModelError("energies must be finite")
        terms = tuple(self.terms)
        if not terms:
            raise ModelError("model needs at least one permutation term")
        k = terms[0].n_factors
        for tm in terms:
            if tm.perm.dimension != en.size:
                raise ModelError("term dimension does not match the spectrum")
            if tm.n_factors != k:
                raise ModelError("all terms must carry the same number of factors")
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "terms", terms)

    @property
    def dimension(self) -> int:
        return self.energies.size

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_factors(self) -> int:
        return self.terms[0].n_factors

    def term(self, i: int) -> PermutationTerm:
        """Term by 1-based index."""
        if not 1 <= i <= self.n_terms:
            raise ValueError(f"term index {i} outside [1, {self.n_terms}]")
        return self.terms[i - 1]

    @cached_property
    def step_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Permutation targets (M, D) and factor diagonals lam, d (M, K, D),
        0-based in term and factor; built on first use, read-only.  Every
        evaluation reads the model through these: a step from z by term i,
        factor k lands on targets[i, z] (-1: off the basis), with lam[i, k]
        and d[i, k] read there."""
        tables = (np.stack([tm.perm.targets for tm in self.terms]),
                  np.array([[f.lam for f in tm.factors] for tm in self.terms]),
                  np.array([[f.d for f in tm.factors] for tm in self.terms]))
        for a in tables:
            a.setflags(write=False)
        return tables


def _check_index(model: HamiltonianModel, z: int) -> None:
    if not 0 <= z < model.dimension:
        raise ValueError(f"basis index {z} outside [0, {model.dimension})")


def is_time_independent(model: HamiltonianModel) -> bool:
    """True when V carries no time dependence (K = 1 and all lam = 0)."""
    lam = model.step_tables[1]
    return lam.shape[1] == 1 and not lam.any()


def eval_V(model: HamiltonianModel, t) -> np.ndarray:
    """Dense V(t); column z holds one entry per term at row z' = P(z).

    Oracle-side helper: the expansion engine never materializes matrices.
    """
    t = _check_time(t)
    D = model.dimension
    V = np.zeros((D, D), dtype=complex)
    for targets, lam, d in zip(*model.step_tables):
        src = np.nonzero(targets >= 0)[0]
        dst = targets[src]
        for lam_k, d_k in zip(lam, d):
            V[dst, src] += np.exp(1j * lam_k[dst] * t) * d_k[dst]
    return V


def eval_H(model: HamiltonianModel, t) -> np.ndarray:
    """Dense H(t) = diag(E_z) + V(t)."""
    H = eval_V(model, t)
    H[np.arange(model.dimension), np.arange(model.dimension)] += model.energies
    return H


def path_energies(model: HamiltonianModel, trajectory) -> np.ndarray:
    """Free energies E_z along a trajectory of basis indices."""
    states = np.asarray(trajectory, dtype=np.int64)
    if states.ndim != 1 or states.size == 0:
        raise ValueError("trajectory must be a nonempty index sequence")
    return model.energies[states]
