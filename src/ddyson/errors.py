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
    the expansion engine and path enumeration, depth or precision for the
    oracles."""


class StiffnessError(RuntimeError):
    """Adaptive ODE integration failed to advance (step-size underflow)."""
