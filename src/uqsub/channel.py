"""Concrete channels from Gram data and back.

Builds the coupled angular-momentum basis of the two registers, turns an
optimal set of Gram variables into a dense Choi matrix and Kraus operators,
and serializes Kraus sets as JSON.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._ops import choi_output_trace
from .angular import HalfInt, SectorIndex, cg_twice
from .errors import CapacityError, ReconstructionError
from .objective import _layout
from .sdp import SdpSolution

BASIS_QUBIT_GUARD = 8


@dataclass(frozen=True)
class BasisColumn:
    """Metadata of one coupled-basis vector |j, m, g>.

    The degeneracy label g is the pair of sequential-coupling paths (register
    A then register B, each a tuple of twice-spins after every added qubit);
    b_symmetric flags columns whose B part lives in its symmetric subspace,
    i.e. the sectors supporting the averaged input.
    """

    tj: int
    tm: int
    tj1: int
    path_a: tuple[int, ...]
    tjb: int
    path_b: tuple[int, ...]
    b_symmetric: bool


@dataclass
class CoupledBasis:
    n1: int
    n2: int
    isometry: np.ndarray  # columns are the coupled vectors in the computational basis
    columns: list[BasisColumn]


def _couple_register(n: int) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """Sequential left-to-right coupling of n qubits.

    Returns branches (twice total spin, path, map) where map has shape
    (2^n, 2j+1) with spin columns ordered m = j..-j.
    """
    branches = [(1, (1,), np.eye(2))]
    for _ in range(n - 1):
        new = []
        for tj, path, vmat in branches:
            for tjn in (tj + 1, tj - 1):
                if tjn < 0:
                    continue
                rows = []  # product index (im, is) row-major over m desc, s desc
                cgmat = np.zeros(((tj + 1) * 2, tjn + 1))
                for im, tm in enumerate(range(tj, -tj - 1, -2)):
                    for isp, ts in enumerate((1, -1)):
                        for imn, tmn in enumerate(range(tjn, -tjn - 1, -2)):
                            cgmat[im * 2 + isp, imn] = cg_twice(tj, tm, 1, ts, tjn, tmn)
                new.append((tjn, path + (tjn,), np.kron(vmat, np.eye(2)) @ cgmat))
        branches = new
    return branches


def build_coupled_basis(n1: int, n2: int) -> CoupledBasis:
    """Total angular momentum basis with the deterministic coupling order:
    register A qubits left to right, register B qubits left to right, then
    the two register spins into the total spin."""
    n = n1 + n2
    if n > BASIS_QUBIT_GUARD:
        raise CapacityError(f"coupled basis limited to {BASIS_QUBIT_GUARD} qubits")
    a_branches = _couple_register(n1)
    b_branches = _couple_register(n2)
    dim = 1 << n
    columns: list[BasisColumn] = []
    mats = []
    for tj1, path_a, va in a_branches:
        for tjb, path_b, vb in b_branches:
            vab = np.kron(va, vb)
            for tj in range(tj1 + tjb, abs(tj1 - tjb) - 2, -2):
                cgmat = np.zeros(((tj1 + 1) * (tjb + 1), tj + 1))
                for ia, tma in enumerate(range(tj1, -tj1 - 1, -2)):
                    for ib, tmb in enumerate(range(tjb, -tjb - 1, -2)):
                        for im, tm in enumerate(range(tj, -tj - 1, -2)):
                            cgmat[ia * (tjb + 1) + ib, im] = cg_twice(
                                tj1, tma, tjb, tmb, tj, tm
                            )
                block = vab @ cgmat
                mats.append(block)
                for tm in range(tj, -tj - 1, -2):
                    columns.append(
                        BasisColumn(
                            tj=tj,
                            tm=tm,
                            tj1=tj1,
                            path_a=path_a,
                            tjb=tjb,
                            path_b=path_b,
                            b_symmetric=(tjb == n2),
                        )
                    )
    isometry = np.concatenate(mats, axis=1)
    if isometry.shape != (dim, dim):
        raise AssertionError("coupled basis does not span the register space")
    return CoupledBasis(n1=n1, n2=n2, isometry=isometry, columns=columns)


@dataclass
class ChoiMatrix:
    """Dense Choi operator of an (n1+n2)-qubit to 1-qubit channel,
    input x output index order as in the oracle module."""

    matrix: np.ndarray
    n1: int
    n2: int


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
        ops = [
            np.array([[complex(re, im) for re, im in row] for row in m])
            for m in doc["operators"]
        ]
        # json reads NaN, Infinity and 1e999; they would poison every check
        if not all(np.isfinite(m).all() for m in ops):
            raise ValueError("non-finite entry in the Kraus operators")
        return cls(operators=ops)


def w_values_from_solution(solution: SdpSolution, n1: int, n2: int) -> dict[SectorIndex, float]:
    """Read the per-sector Gram values out of the solver's block layout."""
    specs, slots, _ = _layout(n1, n2)
    if len(specs) != len(solution.blocks):
        raise ValueError("solution does not match the (n1, n2) block layout")
    return {s: float(solution.blocks[pos][a, b]) for s, (pos, a, b) in slots.items()}


def _sector_lookup(w: dict[SectorIndex, float], tj1: int, tj: int, tjp: int, tq: int) -> float:
    lo, hi = min(tj, tjp), max(tj, tjp)
    key = SectorIndex(j1=HalfInt(tj1), j=HalfInt(lo), jp=HalfInt(hi), q=HalfInt(tq))
    return w.get(key, 0.0)


def reconstruct_choi(
    solution: SdpSolution | dict[SectorIndex, float], n1: int, n2: int
) -> ChoiMatrix:
    """Assemble the covariant channel fixed by the Gram values.

    On the averaged-input support the matrix elements follow the covariant
    characterization, diagonal in the degeneracy label; outside the support
    the channel is extended with flat diagonal Gram values 1/2, which keeps
    it trace preserving and completely positive without touching the
    fidelity.
    """
    if not isinstance(solution, dict):
        w = w_values_from_solution(solution, n1, n2)
    else:
        w = solution
    basis = build_coupled_basis(n1, n2)
    n = n1 + n2
    dim = 1 << n
    cols = basis.columns
    kten = np.zeros((2, dim, 2, dim))
    for ci, col in enumerate(cols):
        for cj, col2 in enumerate(cols):
            if col.path_a != col2.path_a or col.path_b != col2.path_b:
                continue
            tj, tjp = col.tj, col2.tj
            if abs(tj - tjp) > 2:
                continue
            tm, tmp = col.tm, col2.tm
            for si, ts in enumerate((1, -1)):
                tsp = tmp + ts - tm  # selection rule s - m = s' - m'
                if tsp not in (1, -1):
                    continue
                sj = 0 if tsp == 1 else 1
                total = 0.0
                for tq in {tj - 1, tj + 1} & {tjp - 1, tjp + 1}:
                    if tq < 0:
                        continue
                    if col.b_symmetric:
                        wq = _sector_lookup(w, col.tj1, tj, tjp, tq)
                    else:
                        wq = 0.5 if tj == tjp else 0.0
                    if wq == 0.0:
                        continue
                    total += (
                        cg_twice(1, ts, tj, -tm, tq, ts - tm)
                        * cg_twice(1, tsp, tjp, -tmp, tq, tsp - tmp)
                        * wq
                    )
                if total:
                    phase = -1.0 if ((tm - tmp) // 2) % 2 else 1.0
                    kten[si, ci, sj, cj] = phase * total
    u = basis.isometry
    choi = np.zeros((2 * dim, 2 * dim))
    for si in range(2):
        for sj in range(2):
            block = u.conj() @ kten[si, :, sj, :] @ u.T
            choi[si::2, sj::2] = np.real(block)
    tp_residual = float(np.abs(choi_output_trace(choi) - np.eye(dim)).max())
    min_eig = float(np.linalg.eigvalsh(0.5 * (choi + choi.T)).min())
    if min_eig < -1e-7:
        raise ReconstructionError(f"reconstructed Choi not PSD: min eig {min_eig:.3e}")
    if tp_residual > 1e-8:
        raise ReconstructionError(f"reconstructed Choi not TP: residual {tp_residual:.3e}")
    return ChoiMatrix(matrix=choi, n1=n1, n2=n2)


def kraus_from_choi(choi: ChoiMatrix, cutoff: float = 1e-10) -> KrausSet:
    """Factor a PSD Choi matrix into Kraus operators by eigendecomposition."""
    mat = np.asarray(choi.matrix)
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if evals.min() < -1e-7:
        raise ReconstructionError(f"Choi not PSD: min eig {evals.min():.3e}")
    d_in = mat.shape[0] // 2
    ops = []
    for lam, vec in zip(evals, vecs.T):
        if lam > cutoff:
            ops.append(np.sqrt(lam) * vec.reshape(d_in, 2).T)
    return KrausSet(operators=ops)
