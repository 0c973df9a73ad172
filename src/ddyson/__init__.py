"""Integral-free Dyson-series propagation via divided differences.

Time-dependent perturbation expansions where every time-ordered integral
collapses to one numerically stable divided difference of the exponential,
plus independent oracles (simplex quadrature, adaptive ODE integration,
dense matrix exponentials) that cross-check the machinery at desk scale.
"""

from .divdiff import (
    as_nodes,
    dd_recursive,
    exp_dd,
    exp_dd_batch,
    shift_inputs,
)
from .engine import (
    Path,
    StateVector,
    alpha,
    amplitude_by_order,
    beta,
    d_product,
    enumerate_paths,
    evolve,
    evolve_by_order,
    evolve_ti,
    path_coefficients,
    transition_amplitude,
    x_inputs,
    y_inputs,
)
from .errors import CapacityError, DegenerateNodesError, ModelError, StiffnessError
from .hamiltonian import (
    ExpSumFactor,
    HamiltonianModel,
    PermutationMap,
    PermutationTerm,
    eval_H,
    eval_V,
    is_time_independent,
    path_energies,
)
from .models import (
    AnharmonicParams,
    BUILTIN_MODELS,
    FermiParams,
    SingleSpinParams,
    anharmonic_default_dimension,
    build_anharmonic,
    build_fermi,
    build_named,
    build_single_spin,
    fermi_amplitude_closed_form,
    load_model,
    model_to_json,
    quartic_amplitude,
    serialize_model,
)
from .oracles import (
    dd_nodes_from_rates,
    exp_dd_highprec,
    infidelity,
    mat_exp_evolve,
    ode_evolve,
    simplex_integral,
)
from .validate import SuiteResult, run_suites

__version__ = "0.1.0"
