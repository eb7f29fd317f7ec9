"""Concrete channels from Gram data and back.

Turns an optimal set of Gram variables into a Choi matrix and Kraus
operators, and serializes Kraus sets as JSON.  Both are read off one list of
eigen-terms (lam, v) of the Choi matrix.  Off the averaged input's support,
where B is not symmetric, the flat value 1/2 on I_A x (I - P_sym^B) x I_2
keeps the channel trace preserving without touching the fidelity.  On the
symmetric subspace of B each Gram block (q, j1) of `angular.sector_blocks`
acts the same way on every coupling path g of A, so each of its 1x1 or 2x2
eigenpairs gives one v per path g and per M.

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


def symmetric_columns(n1: int, n2: int) -> dict[int, tuple[list[tuple[int, int]], np.ndarray]]:
    """Coupled vectors |(j1 g, n2/2) j m> of the space where B is symmetric.

    Register A's qubits couple left to right into j1 along a path g, B's into
    its top spin n2/2 (the Dicke isometry), then the two into j.  Returns per
    twice-j1 the column labels (tj, tm), j descending then m = j..-j, with the
    vectors of every path g of A stacked as (paths, 2^(n1+n2), columns).
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
    return sectors


@dataclass
class KrausSet:
    operators: list[np.ndarray]

    def completeness_residual(self) -> float:
        ops = np.stack(self.operators)
        acc = sum(m.conj().T @ m for m in ops)
        return float(np.abs(acc - np.eye(ops.shape[2])).max())

    def to_json(self) -> str:
        ops = np.stack(self.operators)
        return json.dumps(
            {
                "schema": "uqsub.kraus.v1",
                "n_in_qubits": int(np.log2(ops.shape[2])),
                "operators": np.stack([ops.real, ops.imag], -1).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "KrausSet":
        """ValueError for another schema, no operators, operators not rows of
        [re, im] number pairs or of different shapes, or a non-finite entry."""
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
        shapes = sorted({m.shape for m in ops})
        if len(shapes) != 1:
            raise ValueError(f"mixed operator shapes {shapes}" if ops else "empty operator list")
        # json reads NaN, Infinity and 1e999; they would poison every check
        if not all(np.isfinite(m).all() for m in ops):
            raise ValueError("non-finite entry in the Kraus operators")
        return cls(operators=ops)


def _eigen_terms(w: dict[SectorIndex, float], n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The Choi matrix of the Gram values as sum_k lam_k v_k v_k^T, unchecked,
    the v_k orthonormal rows indexed (input, output).  The flat part is 1/2 on
    e_a x b x e_s, b a non-symmetric coupling path vector of B.  An eigenpair
    (lam, u) of a Gram block (q, j1) gives one v per path g of A and per M,
    sum_j u_j A_j |(j1 g, n2/2) j>: the orthogonal A_j couples the output qubit
    s with the conjugate of |j m> (m -> -m, phase (-1)^(j_max - m)) into |q M>."""
    sectors = symmetric_columns(n1, n2)
    nonsym = [np.zeros((1 << n2, 0))] + [b for tjb, b in _couple_register(n2) if tjb < n2]
    flat = np.kron(np.kron(np.eye(1 << n1), np.hstack(nonsym)), np.eye(2)).T
    lams, vecs = [np.full(len(flat), 0.5)], [flat]
    for q, j1, rows in sector_blocks(n1, n2):
        labels, paths = sectors[j1.twice]
        span = {tj: slice(col, col + tj + 1) for col, (tj, tm) in enumerate(labels) if tm == tj}
        maps = []
        for tj in (j.twice for j in rows):
            phase = [[(-1.0) ** ((labels[0][1] - tm) // 2)] for tm in range(tj, -tj - 1, -2)]
            # the coupling's rows are (s, -m), -m descending: reversed, m runs j..-j
            cgmat = _coupling(1, tj, (q.twice,))[1].reshape(2, tj + 1, -1)[:, ::-1]
            maps.append(np.einsum("gic,scM->gMis", paths[:, :, span[tj]], phase * cgmat))
        gram = [[w.get(SectorIndex(j1, *sorted((j, jp)), q), 0.0) for jp in rows] for j in rows]
        lam, u = np.linalg.eigh(gram)
        vecs.append(np.einsum("ak,agMis->kgMis", u, maps).reshape(-1, flat.shape[1]))
        lams.append(np.repeat(lam, len(vecs[-1]) // len(lam)))
    return np.concatenate(lams), np.concatenate(vecs)


def _checked_terms(
    solution: SdpSolution | dict[SectorIndex, float], n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray]:
    """The eigen-terms of the channel, checked PSD and trace preserving."""
    w = solution if isinstance(solution, dict) else w_values_from_solution(solution, n1, n2)
    lam, v = _eigen_terms(w, n1, n2)
    if lam.min() < -1e-7:
        raise ReconstructionError(f"reconstructed Choi not PSD: min eig {lam.min():.3e}")
    # Tr_out J = sum_k lam_k V_k V_k^T, V_k the (input, output) matrix of v_k
    cols = v.reshape(len(lam), -1, 2).transpose(1, 0, 2).reshape(1 << (n1 + n2), -1)
    tp_residual = float(np.abs((cols * np.repeat(lam, 2)) @ cols.T - np.eye(len(cols))).max())
    if tp_residual > 1e-8:
        raise ReconstructionError(f"reconstructed Choi not TP: residual {tp_residual:.3e}")
    return lam, v


def reconstruct_choi(
    solution: SdpSolution | dict[SectorIndex, float], n1: int, n2: int
) -> np.ndarray:
    """The dense Choi matrix of the covariant channel fixed by the Gram values,
    sum_k lam_k v_k v_k^T over its eigen-terms."""
    lam, v = _checked_terms(solution, n1, n2)
    return (v.T * lam) @ v


def reconstruct_kraus(
    solution: SdpSolution | dict[SectorIndex, float], n1: int, n2: int
) -> KrausSet:
    """The same channel's Kraus operators sqrt(lam_k) v_k^T, one per eigen-term
    with lam_k above 1e-10 as in `kraus_from_choi`, but with no eigensolver
    beyond the 2x2 Gram blocks: the operators are a function of the Gram values."""
    lam, v = _checked_terms(solution, n1, n2)
    keep = lam > 1e-10
    ops = v[keep].reshape(-1, 1 << (n1 + n2), 2).transpose(0, 2, 1)
    return KrausSet(operators=list(np.sqrt(lam[keep])[:, None, None] * ops))


def kraus_from_choi(choi: np.ndarray) -> KrausSet:
    """Factor a PSD Choi matrix into Kraus operators by eigendecomposition,
    one per eigenvalue above 1e-10."""
    mat = np.asarray(choi)
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if evals.min() < -1e-7:
        raise ReconstructionError(f"Choi not PSD: min eig {evals.min():.3e}")
    d_in = mat.shape[0] // 2
    return KrausSet([np.sqrt(lam) * vec.reshape(d_in, 2).T for lam, vec in zip(evals, vecs.T)
                     if lam > 1e-10])
