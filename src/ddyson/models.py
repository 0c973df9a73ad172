"""Built-in model constructors and the JSON model-config interface.

Three physics builders cover the worked examples shipped with the CLI:

* ``build_single_spin``: H(t) = a Z + b e^{-gamma t} X — one bit-flip term
  with a decaying envelope encoded as lam = i*gamma.
* ``build_anharmonic``: harmonic oscillator driven by a cos(Omega t) quartic
  x^4 perturbation in a truncated Fock basis.  The cosine splits into two
  unit-weight phase factors e^{-+ i Omega t}; the conventional 1/2 is
  already absorbed into the quoted coupling gamma_eff, so each factor
  carries the full gamma_eff-scaled quartic amplitudes and V(0) equals
  2 * gamma_eff * (a + a^dag)^4 restricted to the truncation.
* ``build_fermi``: two-level H = H_0 + gamma F e^{-i E t}, the canonical
  non-hermitian golden-rule setup.  The drive phase is chosen so the
  first-order resonance sits at E_in + E = E_fin.

``load_model`` / ``serialize_model`` define the config schema used by the
CLI: dimension, energies, and per-term mappings plus factor diagonals with
complex numbers encoded as [re, im] pairs (bare numbers broadcast).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ModelError
from .divdiff import _check_int, exp_dd
from .hamiltonian import (
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
)


@dataclass(frozen=True)
class SingleSpinParams:
    a: float
    b: float
    gamma: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.gamma)):
            raise ModelError("single-spin parameters must be finite")
        if self.gamma < 0:
            raise ModelError("decay rate gamma must be >= 0")


# Largest truncation ``build_anharmonic`` accepts (~0.3 s to build on 2
# cores); its Python loop over states and its ten D-long diagonals would
# take minutes and gigabytes at D = 1e8, before the engine starts.
_MAX_ANHARMONIC_STATES = 2 ** 16


@dataclass(frozen=True)
class AnharmonicParams:
    omega: float
    Omega: float
    gamma_eff: float
    n_max: int

    def __post_init__(self):
        vals = (self.omega, self.Omega, self.gamma_eff, float(self.n_max))
        if not all(math.isfinite(v) for v in vals):
            raise ModelError("anharmonic parameters must be finite")
        if self.omega <= 0:
            raise ModelError("oscillator frequency omega must be > 0")
        if not float(self.n_max).is_integer() or self.n_max < 5:
            raise ModelError("anharmonic truncation needs an integer n_max >= 5 "
                             f"(the +4 ladder term needs headroom), got {self.n_max}")
        if self.n_max > _MAX_ANHARMONIC_STATES:
            raise CapacityError(
                f"anharmonic truncation n_max = {self.n_max:.0f} is past the cap "
                f"of {_MAX_ANHARMONIC_STATES} Fock states")


@dataclass(frozen=True)
class FermiParams:
    e_in: float
    e_fin: float
    e_drive: float
    gamma: float

    def __post_init__(self):
        vals = (self.e_in, self.e_fin, self.e_drive, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ModelError("two-level drive parameters must be finite")


def build_single_spin(params: SingleSpinParams) -> HamiltonianModel:
    """H(t) = a Z + b e^{-gamma t} X on the Z eigenbasis {|0>, |1>}."""
    flip = PermutationMap(np.array([1, 0], dtype=np.int64))
    factor = ExpSumFactor(
        lam=np.full(2, 1j * params.gamma),   # e^{i lam t} = e^{-gamma t}
        d=np.full(2, complex(params.b)),
    )
    return HamiltonianModel(
        energies=np.array([params.a, -params.a]),
        terms=(PermutationTerm(perm=flip, factors=(factor,)),),
    )


def quartic_amplitude(i: int, n: int) -> float:
    """<n + i | (a + a^dag)^4 | n> for i in {0, +-2, +-4} (0 when clipped)."""
    if n < 0:
        return 0.0
    if i == -4:
        return math.sqrt(n * (n - 1) * (n - 2) * (n - 3)) if n >= 4 else 0.0
    if i == -2:
        return math.sqrt(n * (n - 1)) * (4 * n - 2) if n >= 2 else 0.0
    if i == 0:
        return 3.0 * (2 * n * n + 2 * n + 1)
    if i == 2:
        return math.sqrt((n + 1) * (n + 2)) * (4 * n + 6)
    if i == 4:
        return math.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4))
    raise ValueError(f"quartic ladder shift must be in {{0, +-2, +-4}}, got {i}")


def anharmonic_default_dimension(z0: int, max_order: int) -> int:
    """Truncation that no path of order <= max_order can leave: z0 + 4Q + 4."""
    return _check_int(z0, "z0") + 4 * _check_int(max_order, "max_order") + 4


def build_anharmonic(params: AnharmonicParams) -> HamiltonianModel:
    """Driven quartic oscillator on the lowest n_max Fock states.

    E_n = omega (n + 1/2); five ladder shifts i in {0, +-2, +-4}, each with
    two factors lam = -+Omega (unit weight) and d scaled by gamma_eff.
    """
    D = int(params.n_max)
    energies = params.omega * (np.arange(D) + 0.5)
    terms = []
    for shift in (-4, -2, 0, 2, 4):
        perm = PermutationMap.from_shift(D, shift)
        # d at the destination m comes from the source n = m - shift
        d = np.zeros(D, dtype=complex)
        for m in range(D):
            n = m - shift
            if 0 <= n < D:
                d[m] = params.gamma_eff * quartic_amplitude(shift, n)
        factors = tuple(
            ExpSumFactor(lam=np.full(D, -sign * params.Omega, dtype=complex), d=d)
            for sign in (+1, -1)
        )
        terms.append(PermutationTerm(perm=perm, factors=factors))
    return HamiltonianModel(energies=energies, terms=tuple(terms))


def build_fermi(params: FermiParams) -> HamiltonianModel:
    """Two-level H = H_0 + gamma F e^{-i E t} with F the flip, F^2 = 1.

    States: |0> = in, |1> = fin.  Stored lam = -e_drive puts the
    first-order golden-rule resonance at e_in + e_drive = e_fin.
    """
    flip = PermutationMap(np.array([1, 0], dtype=np.int64))
    factor = ExpSumFactor(
        lam=np.full(2, -complex(params.e_drive)),
        d=np.full(2, complex(params.gamma)),
    )
    return HamiltonianModel(
        energies=np.array([params.e_in, params.e_fin]),
        terms=(PermutationTerm(perm=flip, factors=(factor,)),),
    )


def fermi_amplitude_closed_form(params: FermiParams, order: int, t) -> complex:
    """Odd-order golden-rule amplitude gamma^m e^{-i t [nodes]} in closed form.

    The nodes alternate between the two levels with a drive-quantum ladder:
    [E_in + m E, E_fin + (m-1) E, ..., E_in + E, E_fin].  Evaluated through
    the divided-difference kernel, so the resonant (confluent) limit is
    well defined.  Even orders vanish by parity.
    """
    order = _check_int(order, "order")
    if order % 2 == 0:
        return 0j
    nodes = [
        (params.e_in if j % 2 == 0 else params.e_fin) + (order - j) * params.e_drive
        for j in range(order + 1)
    ]
    return params.gamma ** order * exp_dd(t, nodes)


# ---------------------------------------------------------------------------
# JSON config schema
# ---------------------------------------------------------------------------

def _parse_complex_entry(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(value[0], value[1])
    raise ModelError(f"{where}: expected a number or an [re, im] pair")


def _parse_diagonal(value, dim: int, where: str) -> np.ndarray:
    """Scalar numbers broadcast; otherwise a length-D list of entries."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(dim, complex(value))
    if isinstance(value, list):
        if len(value) != dim:
            raise ModelError(f"{where}: expected {dim} entries, got {len(value)}")
        return np.array([_parse_complex_entry(v, where) for v in value])
    raise ModelError(f"{where}: expected a scalar or a length-{dim} array")


def model_from_config(cfg: dict) -> HamiltonianModel:
    """Validated model from a parsed config dictionary."""
    if not isinstance(cfg, dict):
        raise ModelError("model config must be a JSON object")
    for key in ("dimension", "energies", "terms"):
        if key not in cfg:
            raise ModelError(f"model config missing required key '{key}'")
    dim = cfg["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelError("'dimension' must be a positive integer")
    energies = cfg["energies"]
    if not isinstance(energies, list) or len(energies) != dim:
        raise ModelError(f"'energies' must be a list of {dim} reals")
    if not all(isinstance(e, (int, float)) and not isinstance(e, bool)
               for e in energies):
        raise ModelError("'energies' entries must be real numbers")

    terms_cfg = cfg["terms"]
    if not isinstance(terms_cfg, list) or not terms_cfg:
        raise ModelError("'terms' must be a nonempty list")

    terms = []
    for ti, tc in enumerate(terms_cfg):
        where = f"terms[{ti}]"
        if not isinstance(tc, dict):
            raise ModelError(f"{where}: expected an object")
        if ("shift_map" in tc) == ("mapping" in tc):
            raise ModelError(f"{where}: give exactly one of 'shift_map' or 'mapping'")
        try:
            if "shift_map" in tc:
                if not isinstance(tc["shift_map"], int) or isinstance(tc["shift_map"], bool):
                    raise ModelError(f"{where}: 'shift_map' must be an integer")
                perm = PermutationMap.from_shift(dim, tc["shift_map"])
            else:
                mapping = tc["mapping"]
                if not isinstance(mapping, list) or len(mapping) != dim:
                    raise ModelError(f"{where}: 'mapping' must list {dim} targets")
                if any(e is not None and type(e) is not int for e in mapping):
                    raise ModelError(f"{where}: 'mapping' targets must be integers or null")
                perm = PermutationMap.from_mapping(mapping)
        except ModelError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # an integer past int64 overflows the target array
            raise ModelError(f"{where}: invalid mapping ({exc})") from exc

        factors_cfg = tc.get("factors")
        if not isinstance(factors_cfg, list) or not factors_cfg:
            raise ModelError(f"{where}: 'factors' must be a nonempty list")
        factors = []
        for fi, fc in enumerate(factors_cfg):
            fwhere = f"{where}.factors[{fi}]"
            if not isinstance(fc, dict) or "lambda" not in fc or "d" not in fc:
                raise ModelError(f"{fwhere}: expected an object with 'lambda' and 'd'")
            factors.append(ExpSumFactor(
                lam=_parse_diagonal(fc["lambda"], dim, f"{fwhere}.lambda"),
                d=_parse_diagonal(fc["d"], dim, f"{fwhere}.d"),
            ))
        terms.append(PermutationTerm(perm=perm, factors=tuple(factors)))

    return HamiltonianModel(energies=np.array(energies, dtype=float),
                            terms=tuple(terms))


def load_model(text: str) -> HamiltonianModel:
    """Model from JSON config text (see module docstring for the schema)."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model config is not valid JSON: {exc}") from exc
    return model_from_config(cfg)


def serialize_model(model: HamiltonianModel) -> dict:
    """Canonical config dict (explicit mappings, [re, im] diagonals)."""
    def pairs(arr: np.ndarray) -> list:
        return [[float(v.real), float(v.imag)] for v in arr]

    return {
        "dimension": model.dimension,
        "energies": [float(e) for e in model.energies],
        "terms": [
            {
                "mapping": [None if v < 0 else int(v) for v in tm.perm.targets],
                "factors": [
                    {"lambda": pairs(f.lam), "d": pairs(f.d)}
                    for f in tm.factors
                ],
            }
            for tm in model.terms
        ],
    }


def model_to_json(model: HamiltonianModel) -> str:
    return json.dumps(serialize_model(model), indent=2)


# ---------------------------------------------------------------------------
# Built-in registry (CLI surface)
# ---------------------------------------------------------------------------

def _floats(params: dict, defaults: dict, name: str) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ModelError(f"unknown parameter(s) for '{name}': {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(params)
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise ModelError(f"'{name}' requires parameter(s): {sorted(missing)}")
    return merged


def _named_single_spin(params: dict) -> HamiltonianModel:
    p = _floats(params, {"a": 1.0, "b": 0.5, "gamma": 0.0}, "single_spin")
    return build_single_spin(SingleSpinParams(a=p["a"], b=p["b"], gamma=p["gamma"]))


def _named_anharmonic(params: dict) -> HamiltonianModel:
    p = _floats(params,
                {"omega": 1.0, "Omega": 2.0, "gamma": 0.02, "n_max": None},
                "anharmonic")
    return build_anharmonic(AnharmonicParams(
        omega=p["omega"], Omega=p["Omega"], gamma_eff=p["gamma"],
        n_max=p["n_max"]))


def fermi_params(params: dict) -> FermiParams:
    """``FermiParams`` of the built-in ``fermi`` model, defaults filled in."""
    p = _floats(params,
                {"e_in": 0.0, "e_fin": 1.0, "e_drive": 1.0, "gamma": 0.01},
                "fermi")
    return FermiParams(e_in=p["e_in"], e_fin=p["e_fin"],
                       e_drive=p["e_drive"], gamma=p["gamma"])


def _named_fermi(params: dict) -> HamiltonianModel:
    return build_fermi(fermi_params(params))


BUILTIN_MODELS = {
    "single_spin": _named_single_spin,
    "anharmonic": _named_anharmonic,
    "fermi": _named_fermi,
}


def build_named(name: str, params: dict | None = None) -> HamiltonianModel:
    """Built-in model by name with a parameter map."""
    if name not in BUILTIN_MODELS:
        raise ModelError(
            f"unknown built-in model '{name}'; available: {sorted(BUILTIN_MODELS)}")
    return BUILTIN_MODELS[name](dict(params or {}))
