"""Optimal average fidelity of the universal quantum subtracting machine.

The subtracting task: given n1 copies of the mixture p*rho0 + (1-p)*rho1 and
n2 copies of the pure perturbing state rho0, output the best approximation of
rho1.  This package computes the optimal average fidelity over all physical
channels via a block-structured semidefinite program on covariant channels,
checks it against closed forms and a symmetry-free brute-force oracle, and
reconstructs/simulates the optimal channel.
"""

from ._lazy import lazy_getattr
from .angular import HalfInt, SectorIndex, enumerate_sectors
from .closed_forms import dn_fidelity, f21_exact, f2inf, mp_upper
from .objective import ObjectiveTable, PolyInP, assemble, build_objective
from .sdp import SdpProblem, SdpSolution, solve

# the numpy-backed exports load on first use
__getattr__ = lazy_getattr(
    globals(),
    {
        **dict.fromkeys(
            ("KrausSet", "kraus_from_choi", "reconstruct_choi", "reconstruct_kraus"), ".channel"
        ),
        **dict.fromkeys(("HaarSampler", "McEstimate", "estimate_fidelity"), ".mcsim"),
        **dict.fromkeys(
            ("build_omega", "solve_choi", "sym_projector", "twirl_objective"), ".oracle"
        ),
        **dict.fromkeys(("check_certificate", "check_dual"), ".sdp"),
    },
)

__version__ = "0.1.0"

__all__ = [
    "HaarSampler",
    "HalfInt",
    "KrausSet",
    "McEstimate",
    "ObjectiveTable",
    "PolyInP",
    "SdpProblem",
    "SdpSolution",
    "SectorIndex",
    "assemble",
    "build_objective",
    "build_omega",
    "check_certificate",
    "check_dual",
    "dn_fidelity",
    "enumerate_sectors",
    "estimate_fidelity",
    "f21_exact",
    "f2inf",
    "kraus_from_choi",
    "mp_upper",
    "reconstruct_choi",
    "reconstruct_kraus",
    "solve",
    "solve_choi",
    "sym_projector",
    "twirl_objective",
    "__version__",
]
