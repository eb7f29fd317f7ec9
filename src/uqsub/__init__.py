"""Optimal average fidelity of the universal quantum subtracting machine.

The subtracting task: given n1 copies of the mixture p*rho0 + (1-p)*rho1 and
n2 copies of the pure perturbing state rho0, output the best approximation of
rho1.  This package computes the optimal average fidelity over all physical
channels via a block-structured semidefinite program on covariant channels,
checks it against closed forms and a symmetry-free brute-force oracle, and
reconstructs/simulates the optimal channel.

The numpy-backed names live in `uqsub.oracle`, `uqsub.channel`,
`uqsub.mcsim` and `uqsub.ipm`; everything here runs on the standard library,
and `check_certificate` and `check_dual` import numpy when called.
"""

from .angular import HalfInt, SectorIndex, enumerate_sectors
from .closed_forms import dn_fidelity, f21_exact, f2inf, mp_upper
from .objective import ObjectiveTable, PolyInP, assemble, build_objective
from .sdp import SdpProblem, SdpSolution, check_certificate, check_dual, solve

__version__ = "0.1.0"

__all__ = [
    "HalfInt",
    "ObjectiveTable",
    "PolyInP",
    "SdpProblem",
    "SdpSolution",
    "SectorIndex",
    "assemble",
    "build_objective",
    "check_certificate",
    "check_dual",
    "dn_fidelity",
    "enumerate_sectors",
    "f21_exact",
    "f2inf",
    "mp_upper",
    "solve",
    "__version__",
]
