"""Exception types, and the rule on p, shared across the package."""


class CapacityError(ValueError):
    """A dense or combinatorial size guard was exceeded."""


class ReconstructionError(RuntimeError):
    """Channel reconstruction produced an operator violating CP/TP tolerances."""


def check_p(p: float) -> None:
    """ValueError unless the mixing probability p lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
