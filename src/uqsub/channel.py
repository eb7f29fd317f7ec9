"""Concrete channels from Gram data and back.

Turns an optimal set of Gram variables into a dense Choi matrix and Kraus
operators, and serializes Kraus sets as JSON.  The Choi matrix is a flat part
plus one term per j1.  Where register B is not symmetric the channel gets the
flat Gram value 1/2, which gives 1/2 (I - I_A x P_sym^B) x I_2.  On the
symmetric subspace of B each Gram variable W^{j,j'}_{q,j1} acts the same way
on every coupling path g of register A, so one kernel per j1 is applied to the
coupled vectors |(j1 g, n2/2) j m> of all paths at once, summed over the Gram
blocks (q, j1) of `angular.sector_blocks` with one coupling map per block.

Qubit 0 is the most significant bit of a computational-basis index and
spin-up is basis state 0.  The Choi matrix J of an n-qubit to 1-qubit
channel is indexed (input, output), row i*2 + s, so that
Tr[J (rho^T x B)] = Tr[channel(rho) B]; the Kraus operators are 2 x 2^n.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .angular import HalfInt, SectorIndex, cg_twice, j_values, sector_blocks
from .errors import CapacityError, ReconstructionError
from .objective import w_values_from_solution
from .sdp import SdpSolution

BASIS_QUBIT_GUARD = 8


def _coupling(ta: int, tb: int, tjs) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Clebsch-Gordan matrix coupling spins a and b into each j of tjs.

    Rows are the products (m_a, m_b), row-major with m descending; the
    columns are labeled (tj, tm), j in the order of tjs, then m = j..-j.
    """
    labels = [(tj, tm) for tj in tjs for tm in range(tj, -tj - 1, -2)]
    rows = [(ma, mb) for ma in range(ta, -ta - 1, -2) for mb in range(tb, -tb - 1, -2)]
    matrix = [[cg_twice(ta, ma, tb, mb, tj, tm) for tj, tm in labels] for ma, mb in rows]
    return labels, np.array(matrix)


def _couple_register(n: int) -> list[tuple[int, np.ndarray]]:
    """Sequential left-to-right coupling of n qubits: one (twice total spin,
    map) per coupling path, map of shape (2^n, 2j+1) with m = j..-j."""
    branches = [(1, np.eye(2))]
    for _ in range(n - 1):
        branches = [
            (tjn, np.kron(vmat, np.eye(2)) @ _coupling(tj, 1, (tjn,))[1])
            for tj, vmat in branches
            for tjn in (tj + 1, tj - 1)
            if tjn >= 0
        ]
    return branches


def symmetric_columns(
    n1: int, n2: int
) -> tuple[np.ndarray, dict[int, tuple[list[tuple[int, int]], np.ndarray]]]:
    """Coupled vectors |(j1 g, n2/2) j m> of the space where B is symmetric.

    Register A's qubits couple left to right into j1 along a path g, B's into
    its top spin n2/2, then the two into j.  Returns the Dicke isometry of B,
    shape (2^n2, n2+1), and per twice-j1 the column labels (tj, tm), j
    descending then m = j..-j, with the vectors of every path g of A stacked
    as (paths, 2^(n1+n2), columns).
    """
    if n1 + n2 > BASIS_QUBIT_GUARD:
        raise CapacityError(f"coupled basis limited to n1+n2 <= {BASIS_QUBIT_GUARD}, got {n1 + n2}")
    dicke = next(vmat for tjb, vmat in _couple_register(n2) if tjb == n2)
    paths: dict[int, list[np.ndarray]] = {}
    for tj1, va in _couple_register(n1):
        paths.setdefault(tj1, []).append(va)
    sectors = {}
    for tj1, maps in paths.items():
        tjs = [j.twice for j in reversed(j_values(HalfInt(tj1), n2))]
        labels, cgmat = _coupling(tj1, n2, tjs)
        sectors[tj1] = (labels, np.stack([np.kron(va, dicke) @ cgmat for va in maps]))
    return dicke, sectors


@dataclass
class KrausSet:
    operators: list[np.ndarray]

    def completeness_residual(self) -> float:
        dim = self.operators[0].shape[1]
        acc = sum(m.conj().T @ m for m in self.operators)
        return float(np.abs(acc - np.eye(dim)).max())

    def to_json(self) -> str:
        ops = np.asarray(self.operators)
        return json.dumps(
            {
                "schema": "uqsub.kraus.v1",
                "n_in_qubits": int(np.log2(self.operators[0].shape[1])),
                "operators": np.stack([ops.real, ops.imag], -1).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "KrausSet":
        doc = json.loads(text)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != "uqsub.kraus.v1":
            raise ValueError(f"unsupported Kraus schema: {schema!r}")
        ops = []
        for m in doc["operators"]:
            pairs = np.asarray(m)
            # numbers only: strings, nulls and ints past int64 give a non-numeric dtype
            if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
                raise ValueError(
                    f"an operator must be rows of [re, im] number pairs, not {pairs.dtype} "
                    f"of shape {pairs.shape}"
                )
            # each [re, im] pair, as float64, is one complex128: the entries bit for bit
            ops.append(np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])
        # json reads NaN, Infinity and 1e999; they would poison every check
        if not all(np.isfinite(m).all() for m in ops):
            raise ValueError("non-finite entry in the Kraus operators")
        return cls(operators=ops)


def choi_output_trace(choi: np.ndarray) -> np.ndarray:
    """Partial trace over the output qubit; equals I_in for a TP channel."""
    d_in = choi.shape[0] // 2
    return np.einsum("isjs->ij", choi.reshape(d_in, 2, d_in, 2))


def _gram_kernel(
    w: dict[SectorIndex, float], n1: int, n2: int, tj1: int, labels: list[tuple[int, int]]
) -> tuple[np.ndarray, float]:
    """K[s, (j,m), s', (j',m')] of one j1, the sum of A^T W_(q,j1) A over its
    Gram blocks (q, j1): A[j, s, (j,m), M] couples the output qubit s with the
    conjugate of |j m> (m -> -m, phase (-1)^((tm - tm0)/2)) into |q M>; and
    the smallest eigenvalue of those blocks, which A, orthogonal, carries to
    the Choi matrix on the orthonormal coupled vectors of this j1."""
    size, tm0 = len(labels), labels[0][1]
    first = {tj: col for col, (tj, tm) in enumerate(labels) if tm == tj}
    kernel = np.zeros((2, size, 2, size))
    min_eig = np.inf
    for q, j1, rows in sector_blocks(n1, n2):
        if j1.twice == tj1:
            amp = np.zeros((len(rows), 2, size, q.twice + 1))
            for a, tj in enumerate(j.twice for j in rows):
                phase = [[(-1.0) ** ((tm0 - tm) // 2)] for tm in range(tj, -tj - 1, -2)]
                # the coupling's rows are (s, -m), -m descending: reversed, m runs j..-j
                cgmat = _coupling(1, tj, (q.twice,))[1].reshape(2, tj + 1, -1)[:, ::-1]
                amp[a, :, first[tj] : first[tj] + tj + 1] = phase * cgmat
            gram = [[w.get(SectorIndex(j1, *sorted((j, jp)), q), 0.0) for jp in rows] for j in rows]
            kernel += np.einsum("asmM,ab,btnM->smtn", amp, gram, amp)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
    return kernel, min_eig


def _choi_matrix(w: dict[SectorIndex, float], n1: int, n2: int) -> tuple[np.ndarray, float]:
    """The dense Choi matrix of the Gram values, unchecked, and its smallest
    eigenvalue, read from the Gram blocks: the flat part, present where
    n2 > 1, only adds the eigenvalue 1/2."""
    dicke, sectors = symmetric_columns(n1, n2)
    dim = 1 << (n1 + n2)
    flat = np.eye(dim) - np.kron(np.eye(1 << n1), dicke @ dicke.T)
    choi = 0.5 * np.kron(flat, np.eye(2))
    blocks = choi.reshape(dim, 2, dim, 2)  # a view: blocks[i, s, i', s']
    min_eig = 0.5 if n2 > 1 else np.inf
    for tj1, (labels, vectors) in sectors.items():
        kernel, lam = _gram_kernel(w, n1, n2, tj1, labels)  # the same on every path g
        blocks += np.einsum("gic,scSd,gjd->isjS", vectors, kernel, vectors, optimize=True)
        min_eig = min(min_eig, lam)
    return choi, min_eig


def reconstruct_choi(
    solution: SdpSolution | dict[SectorIndex, float], n1: int, n2: int
) -> np.ndarray:
    """Assemble the dense Choi matrix of the covariant channel fixed by the
    Gram values.

    Where register B is symmetric, the averaged input's support, the matrix
    elements follow the covariant characterization, one Gram kernel per j1
    that is diagonal in A's coupling path; elsewhere the channel is extended
    with flat diagonal Gram values 1/2, which keeps it trace preserving and
    completely positive without touching the fidelity.
    """
    w = solution if isinstance(solution, dict) else w_values_from_solution(solution, n1, n2)
    choi, min_eig = _choi_matrix(w, n1, n2)
    tp_residual = float(np.abs(choi_output_trace(choi) - np.eye(choi.shape[0] // 2)).max())
    if min_eig < -1e-7:
        raise ReconstructionError(f"reconstructed Choi not PSD: min eig {min_eig:.3e}")
    if tp_residual > 1e-8:
        raise ReconstructionError(f"reconstructed Choi not TP: residual {tp_residual:.3e}")
    return choi


def kraus_from_choi(choi: np.ndarray) -> KrausSet:
    """Factor a PSD Choi matrix into Kraus operators by eigendecomposition,
    one per eigenvalue above 1e-10."""
    mat = np.asarray(choi)
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if evals.min() < -1e-7:
        raise ReconstructionError(f"Choi not PSD: min eig {evals.min():.3e}")
    d_in = mat.shape[0] // 2
    ops = []
    for lam, vec in zip(evals, vecs.T):
        if lam > 1e-10:
            ops.append(np.sqrt(lam) * vec.reshape(d_in, 2).T)
    return KrausSet(operators=ops)
