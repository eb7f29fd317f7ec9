"""Optimal average fidelity of the universal quantum subtracting machine.

The subtracting task: given n1 copies of the mixture p*rho0 + (1-p)*rho1 and
n2 copies of the pure perturbing state rho0, output the best approximation of
rho1.  This package computes the optimal average fidelity over all physical
channels via a block-structured semidefinite program on covariant channels,
checks it against closed forms and a symmetry-free brute-force oracle, and
reconstructs/simulates the optimal channel.
"""

from .angular import (
    HalfInt,
    SectorIndex,
    enumerate_sectors,
    multiplicity,
    q_set,
)
from .channel import (
    ChoiMatrix,
    CoupledBasis,
    KrausSet,
    build_coupled_basis,
    kraus_from_choi,
    reconstruct_choi,
)
from .closed_forms import (
    CurveLabel,
    cem_fidelity,
    dn_fidelity,
    f1n2,
    f21_exact,
    f2inf,
    mp_upper,
)
from .mcsim import HaarSampler, McEstimate, estimate_fidelity
from .objective import ObjectiveTable, PolyInP, SdpProblem, assemble, build_constraints, build_objective
from .oracle import build_omega, solve_choi, sym_projector, twirl_objective
from .sdp import SdpSolution, SolverConfig, check_certificate, check_dual, solve

__version__ = "0.1.0"

__all__ = [
    "ChoiMatrix",
    "CoupledBasis",
    "CurveLabel",
    "HaarSampler",
    "HalfInt",
    "KrausSet",
    "McEstimate",
    "ObjectiveTable",
    "PolyInP",
    "SdpProblem",
    "SdpSolution",
    "SectorIndex",
    "SolverConfig",
    "assemble",
    "build_constraints",
    "build_coupled_basis",
    "build_objective",
    "build_omega",
    "cem_fidelity",
    "check_certificate",
    "check_dual",
    "dn_fidelity",
    "enumerate_sectors",
    "estimate_fidelity",
    "f1n2",
    "f21_exact",
    "f2inf",
    "kraus_from_choi",
    "mp_upper",
    "multiplicity",
    "q_set",
    "reconstruct_choi",
    "solve",
    "solve_choi",
    "sym_projector",
    "twirl_objective",
    "__version__",
]
