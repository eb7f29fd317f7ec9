"""Symmetry-free verification path for the covariant SDP.

Builds the averaged input operator densely in the computational basis,
transfers the state-average onto the objective by an exact permutation-
commutant twirl, and maximizes over all channels through the unrestricted
Choi SDP.  Its optimum equals the covariant optimum, which is precisely what
makes it an independent check of the block parametrization.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ._ops import PROJ_UP, SIGMA_Y, kron_all, permutation_index_map, qubit_index_map
from .errors import CapacityError
from .objective import BlockSpec, SdpProblem
from .sdp import SdpSolution, SolverConfig, solve

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


def sym_projector(m: int) -> np.ndarray:
    """Projector onto the symmetric subspace of m qubits (trace m+1)."""
    if not 1 <= m <= 7:
        raise CapacityError(f"symmetric projector limited to 1..7 qubits, got {m}")
    dim = 1 << m
    pop = np.array([bin(i).count("1") for i in range(dim)])
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
    """Permutation index maps and the pseudo-inverted Gram matrix for S_m.

    The permutation operators are linearly dependent once 2^m < m!, so the
    Gram system is solved with a pseudoinverse.
    """
    if m > TWIRL_FACTOR_GUARD:
        raise CapacityError(f"twirl limited to {TWIRL_FACTOR_GUARD} factors, got {m}")
    perms = list(itertools.permutations(range(m)))
    index_maps = np.stack([permutation_index_map(perm, m) for perm in perms])

    def cycles(perm) -> int:
        seen = [False] * m
        count = 0
        for start in range(m):
            if not seen[start]:
                count += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return count

    inverses = [tuple(np.argsort(perm)) for perm in perms]
    gram = np.empty((len(perms), len(perms)))
    for i, inv in enumerate(inverses):
        for j, sigma in enumerate(perms):
            composed = tuple(inv[sigma[t]] for t in range(m))
            gram[i, j] = 2.0 ** cycles(composed)
    gram_pinv = np.linalg.pinv(gram)
    return index_maps, gram, gram_pinv


def twirl(x: np.ndarray, m: int, rest_dim: int = 1) -> np.ndarray:
    """Exact average of (u^(x)m (x) I_rest) x (u^(x)m (x) I_rest)^dag over
    Haar-random single-qubit u, via projection onto the permutation span.

    Raises ArithmeticError when the Gram solve leaves a residual above 1e-8.
    """
    index_maps, gram, gram_pinv = _twirl_data(m)
    dim = 1 << m
    x4 = x.reshape(dim, rest_dim, dim, rest_dim)
    qrange = np.arange(dim)
    traces = np.stack([x4[imap, :, qrange, :].sum(axis=0) for imap in index_maps])
    coeffs = np.tensordot(gram_pinv, traces, axes=(1, 0))
    residual = np.max(np.abs(np.tensordot(gram, coeffs, axes=(1, 0)) - traces))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(traces)))):
        raise ArithmeticError(f"twirl Gram residual {residual:.3e} too large")
    out = np.zeros_like(x4, dtype=coeffs.dtype)
    for imap, coeff in zip(index_maps, coeffs):
        out[imap, :, qrange, :] += coeff[None]
    return out.reshape(x.shape)


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
    """Unrestricted channel optimization as a single-block SDP.

    The objective operators produced here are real symmetric, so the optimum
    over Hermitian Choi matrices is attained on real symmetric ones and the
    real SDP path applies without loss.
    """
    matrix = np.asarray(objective_matrix)
    if np.iscomplexobj(matrix) and np.max(np.abs(matrix.imag)) > 1e-10:
        raise ArithmeticError("twirled objective has a non-real part")
    c = 0.5 * (matrix.real + matrix.real.T)
    dim = c.shape[0]
    if dim > 128:
        raise CapacityError(f"Choi dimension {dim} exceeds 128")
    d_in = dim // 2
    equalities = []
    for a in range(d_in):
        for b in range(a, d_in):
            mat = np.zeros((dim, dim))
            for s in range(2):
                mat[2 * a + s, 2 * b + s] = 1.0
                mat[2 * b + s, 2 * a + s] = 1.0
            equalities.append(({0: mat}, 1.0 if a == b else 0.0))
    return SdpProblem(
        blocks=[BlockSpec(name="choi", dim=dim)], objective=[c], equalities=equalities
    )


def solve_choi(
    obj: TwirledObjective, config: SolverConfig | None = None
) -> tuple[float, SdpSolution]:
    """Maximum fidelity over all channels, via the dense Choi SDP."""
    solution = solve(choi_problem(obj.matrix), config)
    if not solution.success:
        raise RuntimeError(f"Choi SDP did not converge: status {solution.status}")
    return solution.objective_value, solution
