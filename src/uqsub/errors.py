"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A dense or combinatorial size guard was exceeded."""


class ReconstructionError(RuntimeError):
    """Channel reconstruction produced an operator violating CP/TP tolerances."""
