"""Symmetry-free verification path for the covariant SDP.

Builds the averaged input operator densely in the computational basis,
transfers the state-average onto the objective by an exact Haar quadrature
over u = Rz(a) Ry(b) Rz(c) (a popcount mask for each Rz, Gauss-Legendre in
cos b for Ry), and maximizes over all channels through the unrestricted Choi
SDP, split into blocks by the charge popcount(input) - output bit.  Neither
step uses Clebsch-Gordan or covariant code.  Its optimum equals the
covariant optimum, which is precisely what makes it an independent check of
the block parametrization.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ._ops import PROJ_UP, SIGMA_Y, kron_all, qubit_index_map
from .errors import CapacityError
from .sdp import BlockSpec, SdpProblem, SdpSolution, SolverConfig, solve

DENSE_QUBIT_GUARD = 6
TWIRL_FACTOR_GUARD = 6


@dataclass
class OmegaOperator:
    """Haar-averaged input state of the subtracting task, dense Hermitian."""

    matrix: np.ndarray
    n1: int
    n2: int
    p: float


@dataclass
class TwirledObjective:
    """Objective operator on Choi space: F(channel) = Tr[J * matrix]."""

    matrix: np.ndarray
    n1: int
    n2: int
    p: float


def _popcounts(m: int) -> np.ndarray:
    """Number of spin-down qubits in each m-qubit basis state."""
    return np.array([bin(i).count("1") for i in range(1 << m)])


def sym_projector(m: int) -> np.ndarray:
    """Projector onto the symmetric subspace of m qubits (trace m+1)."""
    if not 1 <= m <= 7:
        raise CapacityError(f"symmetric projector limited to 1..7 qubits, got {m}")
    pop = _popcounts(m)
    weights = np.array([1.0 / comb(m, w) for w in range(m + 1)])
    proj = np.where(pop[:, None] == pop[None, :], weights[pop][:, None], 0.0)
    return proj


def build_omega(n1: int, n2: int, p: float) -> OmegaOperator:
    """Average over noise states of the n1-copy mixture with n2 noise copies.

    Every term fixes a subset S of register A in the target state (weight
    (1-p) per copy) and symmetrizes the remaining A copies together with the
    whole B register (weight p per copy), normalized by the symmetric
    dimension of that block.
    """
    n = n1 + n2
    if n > DENSE_QUBIT_GUARD:
        raise CapacityError(f"dense path limited to {DENSE_QUBIT_GUARD} qubits, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    dim = 1 << n
    omega = np.zeros((dim, dim))
    b_positions = list(range(n1, n))
    for k in range(n1 + 1):
        weight = (1 - p) ** k * p ** (n1 - k)
        if weight == 0.0:
            continue
        block = sym_projector(n - k) / (n - k + 1) if n - k else np.array([[1.0]])
        for fixed in itertools.combinations(range(n1), k):
            rest = [i for i in range(n1) if i not in fixed]
            canonical = list(fixed) + rest + b_positions
            mat = kron_all([PROJ_UP] * k + [block])
            cmap = qubit_index_map(canonical, n)
            omega += weight * mat[np.ix_(cmap, cmap)]
    return OmegaOperator(matrix=omega, n1=n1, n2=n2, p=p)


@lru_cache(maxsize=None)
def _twirl_data(m: int):
    """Same-popcount mask and (weight, Ry(b)^(x)m) pairs: Gauss-Legendre in
    cos(b) on m//2 + 1 nodes from the Jacobi matrix, each weight halved for
    the Haar density sin(b)/2 of b."""
    if m > TWIRL_FACTOR_GUARD:
        raise CapacityError(f"twirl limited to {TWIRL_FACTOR_GUARD} factors, got {m}")
    pop = _popcounts(m)
    mask = pop[:, None] == pop
    k = np.arange(1, m // 2 + 1)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    rotations = []
    for t, weight in zip(nodes, vecs[0] ** 2):
        c, s = np.sqrt((1.0 + t) / 2.0), np.sqrt((1.0 - t) / 2.0)
        rotations.append((weight, kron_all([np.array([[c, -s], [s, c]])] * m)))
    return mask, rotations


def twirl(x: np.ndarray, m: int) -> np.ndarray:
    """Exact average of u^(x)m x (u^(x)m)^dag over Haar-random single-qubit
    u = Rz(a) Ry(b) Rz(c).

    Each Rz average keeps the entries whose row and column have the same
    popcount; between the two masks the Ry average is a polynomial of degree
    <= m in cos(b), which the quadrature of `_twirl_data` integrates exactly.
    """
    mask, rotations = _twirl_data(m)
    x = np.where(mask, x, 0.0)
    out = np.zeros_like(x)
    for weight, v in rotations:
        out += weight * (v @ x @ v.T)
    return np.where(mask, out, 0.0)


def twirl_objective(omega: OmegaOperator) -> TwirledObjective:
    """Move the target-state average onto the Choi-space objective.

    The input factors transform with the conjugate representation, so they
    are rotated by sigma_y on both sides, twirled jointly with the output
    factor over the (n+1)-fold diagonal action, and rotated back.
    """
    n = omega.n1 + omega.n2
    if n + 1 > TWIRL_FACTOR_GUARD:
        raise CapacityError(f"objective twirl needs n1+n2 <= {TWIRL_FACTOR_GUARD - 1}")
    y_all = np.kron(kron_all([SIGMA_Y] * n), np.eye(2))
    raw = np.kron(omega.matrix.T, PROJ_UP)
    conjugated = y_all @ raw @ y_all
    twirled = twirl(conjugated, n + 1)
    matrix = y_all @ twirled @ y_all
    return TwirledObjective(matrix=matrix, n1=omega.n1, n2=omega.n2, p=omega.p)


def choi_problem(objective_matrix: np.ndarray) -> SdpProblem:
    """Unrestricted channel optimization as an SDP with one block per charge.

    Choi index (a, s) has charge popcount(a) - s.  The twirled objective
    commutes with the diagonal rotations this charge generates, and
    Tr_out J = I is invariant under them, so averaging an optimal J over
    them keeps it optimal and makes it block diagonal.  The objective is
    real symmetric, so real symmetric J attain the optimum.  Raises
    ArithmeticError for an objective with a non-real part or with an entry
    between two charge sectors.
    """
    matrix = np.asarray(objective_matrix)
    if np.iscomplexobj(matrix) and np.max(np.abs(matrix.imag)) > 1e-10:
        raise ArithmeticError("twirled objective has a non-real part")
    c = 0.5 * (matrix.real + matrix.real.T)
    dim = c.shape[0]
    if dim > 128:
        raise CapacityError(f"Choi dimension {dim} exceeds 128")
    n = dim.bit_length() - 2
    pop = _popcounts(n)
    charge = (pop[:, None] - np.arange(2)).ravel()
    if np.max(np.abs(c[charge[:, None] != charge]), initial=0.0) > 1e-10:
        raise ArithmeticError("twirled objective couples different charge sectors")
    members = [np.flatnonzero(charge == q) for q in range(-1, n + 1)]
    # only the rows (a, b) of Tr_out J = I with popcount(a) = popcount(b)
    # survive; each touches one block per output bit s
    equalities = []
    for w in range(n + 1):
        inputs = np.flatnonzero(pop == w)
        for i, a in enumerate(inputs):
            for b in inputs[i:]:
                terms = []
                for s in range(2):
                    pos = w - s + 1  # block of charge w - s
                    ka, kb = np.searchsorted(members[pos], (2 * a + s, 2 * b + s))
                    terms.append((pos, int(ka), int(kb), 1.0))
                equalities.append((tuple(terms), float(a == b)))
    return SdpProblem(
        blocks=[BlockSpec(name=f"charge={q}", dim=len(idx)) for q, idx in enumerate(members, -1)],
        objective=[c[np.ix_(idx, idx)] for idx in members],
        equalities=equalities,
    )


def solve_choi(
    obj: TwirledObjective, config: SolverConfig | None = None
) -> tuple[float, SdpSolution]:
    """Maximum fidelity over all channels, via the charge-block Choi SDP."""
    solution = solve(choi_problem(obj.matrix), config)
    if not solution.success:
        raise RuntimeError(f"Choi SDP did not converge: status {solution.status}")
    return solution.objective_value, solution
