"""Exception types shared across the package."""


class ModelError(ValueError):
    """Invalid Hamiltonian model or model configuration."""


class DegenerateNodesError(ValueError):
    """Node recursion requested on coincident (or nearly coincident) inputs.

    The generic divided-difference recursion divides by node gaps; callers
    hitting this must switch to the limit-aware exponential kernel.
    """


class CapacityError(RuntimeError):
    """Requested work exceeds a fixed budget: kernel table operations for
    the expansion engine and path enumeration, the basis size (2^16 Fock
    states) of the anharmonic model, precision for the extended-precision
    oracle, right-hand-side evaluations (10^5) for the ODE oracle."""


class StiffnessError(RuntimeError):
    """Adaptive ODE integration failed to advance (step-size underflow)."""
