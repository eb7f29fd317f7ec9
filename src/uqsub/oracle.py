"""Symmetry-free verification path for the covariant SDP.

Builds the averaged input operator densely from one popcount formula,
transfers the state-average onto the objective by an exact Haar quadrature
over u = Rz(a) Ry(b) Rz(c) (a popcount mask for each Rz, Gauss-Legendre in
cos b for Ry), and maximizes over all channels through the unrestricted
Choi SDP, split into blocks by the charge popcount(input) - output bit.
Every matrix is real, and every size limit derives from DENSE_QUBIT_GUARD,
the largest n1+n2.  Neither step uses Clebsch-Gordan or covariant code.
Its optimum equals the covariant optimum, which is precisely what makes it
an independent check of the block parametrization.

Qubit 0 is the most significant bit of a computational-basis index and
spin-up is basis state 0.  A Choi matrix of a d_in -> d_out channel is
indexed (input, output), row i*d_out + s, so that
Tr[J (rho^T x B)] = Tr[channel(rho) B].
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapacityError, check_p
from .ipm import solve_ipm as solve
from .sdp import BlockSpec, SdpProblem, SdpSolution

DENSE_QUBIT_GUARD = 6

PROJ_UP = np.array([[1.0, 0.0], [0.0, 0.0]])
FLIP = np.array([[0.0, -1.0], [1.0, 0.0]])  # sigma_y = i FLIP


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _popcounts(m: int) -> np.ndarray:
    """Number of spin-down qubits in each m-qubit basis state."""
    return np.array([bin(i).count("1") for i in range(1 << m)])


def sym_projector(m: int) -> np.ndarray:
    """Projector onto the symmetric subspace of m qubits (trace m+1)."""
    if not 1 <= m <= DENSE_QUBIT_GUARD + 1:
        raise CapacityError(f"symmetric projector on 1..{DENSE_QUBIT_GUARD + 1} qubits, not {m}")
    pop = _popcounts(m)
    weights = np.array([1.0 / comb(m, w) for w in range(m + 1)])
    return np.where(pop[:, None] == pop, weights[pop][:, None], 0.0)


def build_omega(n1: int, n2: int, p: float) -> np.ndarray:
    """Average over noise states of the n1-copy mixture with n2 noise copies,
    a dense real symmetric 2^(n1+n2) matrix.

    Every subset S of register A holds the target |0> (weight (1-p) per
    copy); the other m = n1+n2-|S| qubits, the rest of A and all of B, are
    in the maximally mixed symmetric state (weight p per copy of A).  So S
    adds w_S / ((m+1) C(m, w)), w_S = (1-p)^|S| p^(n1-|S|), at every entry
    (x, y) whose x and y are 0 on S and have the same popcount w.
    """
    n = n1 + n2
    if n > DENSE_QUBIT_GUARD:
        raise CapacityError(f"dense path limited to n1+n2 <= {DENSE_QUBIT_GUARD}, got {n}")
    check_p(p)
    pop = _popcounts(n)
    same = pop[:, None] == pop
    omega = np.zeros(same.shape)
    for subset in range(1 << n1):
        k = subset.bit_count()
        m, weight = n - k, (1 - p) ** k * p ** (n1 - k)
        # C(m, w) = 0 only for w > m, which no row that is 0 on S reaches
        scale = np.array([weight / ((m + 1) * comb(m, w)) for w in range(m + 1)] + [0.0] * k)
        free = (np.arange(1 << n) & (subset << n2)) == 0
        omega += np.where(same & free[:, None] & free, scale[pop][:, None], 0.0)
    return omega


@lru_cache(maxsize=None)
def _twirl_data(m: int):
    """Same-popcount mask and (weight, Ry(b)^(x)m) pairs: Gauss-Legendre in
    cos(b) on m//2 + 1 nodes from the Jacobi matrix, each weight halved for
    the Haar density sin(b)/2 of b."""
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


def twirl_objective(omega: np.ndarray) -> np.ndarray:
    """Move the target-state average onto the Choi-space objective C of the
    n = log2(dim) input qubits: F(channel) = Tr[J C].

    The input factors transform with the conjugate representation, so they
    are rotated by sigma_y = i FLIP on both sides, that is by FLIP^(x)n and
    its transpose, twirled jointly with the output factor over the (n+1)-fold
    diagonal action, and rotated back.  Raises ValueError for a matrix that
    is not square with a power-of-two size.
    """
    shape = np.shape(omega)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0].bit_count() != 1:
        raise ValueError(f"need a square matrix of a power-of-two size, not shape {shape}")
    n = shape[0].bit_length() - 1
    if n > DENSE_QUBIT_GUARD:
        raise CapacityError(f"objective twirl needs n1+n2 <= {DENSE_QUBIT_GUARD}")
    flip = np.kron(kron_all([FLIP] * n), np.eye(2))
    raw = np.kron(np.transpose(omega), PROJ_UP)
    twirled = twirl(flip @ raw @ flip.T, n + 1)
    return flip @ twirled @ flip.T


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
    if dim > 2 << DENSE_QUBIT_GUARD:
        raise CapacityError(f"Choi dimension {dim} exceeds {2 << DENSE_QUBIT_GUARD}")
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


def solve_choi(objective: np.ndarray) -> tuple[float, SdpSolution]:
    """Maximum fidelity over all channels, via the charge-block Choi SDP."""
    solution = solve(choi_problem(objective))
    if not solution.success:
        raise RuntimeError(f"Choi SDP did not converge: status {solution.status}")
    return solution.objective_value, solution
