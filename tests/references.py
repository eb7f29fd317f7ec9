"""Reference helpers that only the tests use and that build on package code.

The package-free oracles live in oracles.py; what is here needs the coupled
basis, the Clebsch-Gordan table or the solver, so it cannot live there.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from uqsub.angular import HalfInt, SectorIndex, cg_twice, enumerate_sectors
from uqsub.channel import BasisColumn, KrausSet, build_coupled_basis
from uqsub.errors import CapacityError
from uqsub.mcsim import HaarSampler, McEstimate
from uqsub.objective import ObjectiveTable, PolyInP, split_weights
from uqsub.oracle import build_omega, solve_choi, twirl_objective
from uqsub.sdp import SdpProblem, SdpSolution, SolverConfig

EXTRACT_QUBIT_GUARD = 6


class ExtractionError(RuntimeError):
    """Gram-value extraction from an explicit channel left a large residual."""


def degree(poly: PolyInP) -> int:
    return len(poly.coefficients) - 1


def multiplicity(n1: int, j1: HalfInt) -> int:
    """Number of inequivalent spin-j1 irreps inside n1 qubits."""
    tj1 = j1.twice
    if n1 < 1 or tj1 < 0 or tj1 > n1 or (n1 - tj1) % 2 != 0:
        raise ValueError(f"invalid spin label j1={j1} for n1={n1} qubits")
    num = math.factorial(n1) * (tj1 + 1)
    den = math.factorial((n1 - tj1) // 2) * math.factorial((n1 + tj1) // 2 + 1)
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("multiplicity formula did not divide evenly")
    return count


def q_set(j: HalfInt, jp: HalfInt) -> set[HalfInt]:
    """Common output-coupling labels {j +- 1/2} intersect {jp +- 1/2}, q >= 0."""
    if j.twice < 0 or jp.twice < 0:
        raise ValueError("total-spin labels must be non-negative")
    lhs = {j.twice - 1, j.twice + 1}
    rhs = {jp.twice - 1, jp.twice + 1}
    return {HalfInt(t) for t in lhs & rhs if t >= 0}


def evaluate(table: ObjectiveTable, w: Mapping[SectorIndex, float], p: float) -> float:
    """Average fidelity of the channel with Gram values w at mixing p."""
    weights = split_weights(table.n1, p)
    total = table.constant.at(weights)
    for sector, poly in table.entries.items():
        total += poly.at(weights) * w[sector]
    return total


def block_dict(solution: SdpSolution, problem: SdpProblem) -> dict[str, np.ndarray]:
    """Solution blocks keyed by the block names of the problem."""
    return {spec.name: blk for spec, blk in zip(problem.blocks, solution.blocks)}


def sample_state(sampler: HaarSampler) -> np.ndarray:
    """One Haar-random pure qubit state as a 2-component unit vector."""
    return sampler.sample_states(1)[0]


def _batched_kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    b, m, _ = left.shape
    _, k, _ = right.shape
    return np.einsum("bij,bkl->bikjl", left, right).reshape(b, m * k, m * k)


def estimate_fidelity_dense(
    kraus: KrausSet, n1: int, n2: int, p: float, samples: int, sampler: HaarSampler
) -> McEstimate:
    """Density-matrix form of mcsim.estimate_fidelity on the same draws: builds
    each sample's 2^n x 2^n input state and contracts it with M_k^dag |psi>."""
    ops = np.stack(kraus.operators)
    values = np.empty(samples)
    done = 0
    while done < samples:
        size = min(2000, samples - done)
        psi = sampler.sample_states(size)
        phi = sampler.sample_states(size)
        target = np.einsum("bi,bj->bij", psi, psi.conj())
        noise = np.einsum("bi,bj->bij", phi, phi.conj())
        mix = (1 - p) * target + p * noise
        rho = np.ones((size, 1, 1), dtype=complex)
        for _ in range(n1):
            rho = _batched_kron(rho, mix)
        for _ in range(n2):
            rho = _batched_kron(rho, noise)
        vecs = np.einsum("koi,bo->bki", ops.conj(), psi)  # rows M_k^dag |psi>
        out = np.einsum("bki,bij,bkj->b", vecs.conj(), rho, vecs)
        values[done : done + size] = out.real
        done += size
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(samples))
    return McEstimate(mean=mean, std_error=std_error, samples=samples)


def oracle_fidelity(n1: int, n2: int, p: float, config: SolverConfig | None = None) -> float:
    """End-to-end brute-force value of the optimal average fidelity."""
    value, _ = solve_choi(twirl_objective(build_omega(n1, n2, p)), config)
    return value


def _contract_sectors(n1: int, n2: int, ks) -> dict[tuple[int, int, int, int], np.ndarray]:
    """Raw unfolded noise-split coefficients keyed by twice-values (tj, tjp, tq, tj1).

    For each noise split k (number of first-register qubits left in the fixed
    state) the eight-fold Clebsch-Gordan contraction factorizes through
    F(j, q, mu) = sum_{m+s=mu} of the four unprimed factors, so each sector
    coefficient is sum_mu F(j,q,mu) F(j',q,mu) / (n1+n2-k+1), stored at
    index k of the sector's noise-split coefficients (see `PolyInP`).
    """
    N = n1 + n2
    table: dict[tuple[int, int, int, int], np.ndarray] = {}
    for k in ks:
        ta1 = n1 - k  # twice the spin of the randomized part of register A
        tsym = N - k  # twice the spin of the full symmetrized block
        for tj1 in range(abs(k - ta1), n1 + 1, 2):
            F: dict[tuple[int, int, int], float] = {}
            for tm in range(-ta1, ta1 + 1, 2):
                c2 = cg_twice(k, k, ta1, tm, tj1, k + tm)
                if c2 == 0.0:
                    continue
                for ts in range(-n2, n2 + 1, 2):
                    c1 = cg_twice(ta1, tm, n2, ts, tsym, tm + ts)
                    if c1 == 0.0:
                        continue
                    tmu = k + tm + ts
                    for tj in range(abs(tj1 - n2), tj1 + n2 + 1, 2):
                        c3 = cg_twice(tj1, k + tm, n2, ts, tj, tmu)
                        if c3 == 0.0:
                            continue
                        base = c1 * c2 * c3
                        for tq in (tj - 1, tj + 1):
                            if tq < 0:
                                continue
                            c4 = cg_twice(1, 1, tj, -tmu, tq, 1 - tmu)
                            if c4 != 0.0:
                                key = (tj, tq, tmu)
                                F[key] = F.get(key, 0.0) + base * c4
            by_q: dict[int, dict[int, dict[int, float]]] = {}
            for (tj, tq, tmu), val in F.items():
                by_q.setdefault(tq, {}).setdefault(tj, {})[tmu] = val
            for tq, jmap in by_q.items():
                tjs = sorted(jmap)
                for tj in tjs:
                    for tjp in tjs:
                        val = sum(
                            f * jmap[tjp].get(tmu, 0.0) for tmu, f in jmap[tj].items()
                        )
                        if abs(val) > 1e-16:
                            key = (tj, tjp, tq, tj1)
                            if key not in table:
                                table[key] = np.zeros(n1 + 1)
                            table[key][k] += val / (N - k + 1)
    return table


def recoupling_by_m_sum(k: int, n1: int, n2: int, tj1: int, tj: int) -> float:
    """U_k(j1, j) read off the highest weight mu = j, twice-valued spins:
    sum_m <k/2 k/2; a m|j1 .> <a m; b s|S .> <j1 .; b s|j mu> = U <k/2 k/2; S mu-k/2|j mu>
    with a = (n1-k)/2, b = n2/2 and S = a+b, the right-hand factor nonzero
    whenever the triangle (k/2, S, j) holds."""
    ta, tsym = n1 - k, n1 + n2 - k
    top = cg_twice(k, k, tsym, tj - k, tj, tj)
    if top == 0.0:
        return 0.0
    total = 0.0
    for tm in range(-ta, ta + 1, 2):
        ts = tj - k - tm
        total += (
            cg_twice(k, k, ta, tm, tj1, k + tm)
            * cg_twice(ta, tm, n2, ts, tsym, tm + ts)
            * cg_twice(tj1, k + tm, n2, ts, tj, tj)
        )
    return total / top


def dn_w_values(n1: int, n2: int) -> dict[SectorIndex, float]:
    """Gram values of the doing-nothing channel, extracted through the
    covariant characterization by per-sector least squares and averaged over
    the degeneracy label."""
    n = n1 + n2
    if n > EXTRACT_QUBIT_GUARD:
        raise CapacityError(f"extraction limited to {EXTRACT_QUBIT_GUARD} qubits")
    basis = build_coupled_basis(n1, n2)
    dim = 1 << n
    u3 = basis.isometry.reshape(2, dim // 2, dim)
    # kdn[s, c, s', c'] = <s| Tr_rest |c><c'| |s'>
    kdn = np.einsum("sra,trb->satb", u3, u3.conj())
    cols = basis.columns
    by_g: dict[tuple, list[tuple[int, BasisColumn]]] = {}
    for ci, col in enumerate(cols):
        if col.b_symmetric:
            by_g.setdefault((col.tj1, col.path_a), []).append((ci, col))
    sums: dict[SectorIndex, float] = {}
    counts: dict[SectorIndex, int] = {}
    for (tj1, _path), members in by_g.items():
        tjs = sorted({col.tj for _, col in members})
        for tj in tjs:
            for tjp in tjs:
                if tj > tjp or tjp - tj > 2:
                    continue
                qs = sorted(t for t in {tj - 1, tj + 1} & {tjp - 1, tjp + 1} if t >= 0)
                if not qs:
                    continue
                rows = []
                rhs = []
                for ci, col in members:
                    if col.tj != tj:
                        continue
                    for cj, col2 in members:
                        if col2.tj != tjp:
                            continue
                        tm, tmp = col.tm, col2.tm
                        for si, ts in enumerate((1, -1)):
                            for sj, tsp in enumerate((1, -1)):
                                value = kdn[si, ci, sj, cj].real
                                if ts - tm != tsp - tmp:
                                    rows.append([0.0] * len(qs))
                                    rhs.append(value)
                                    continue
                                phase = -1.0 if ((tm - tmp) // 2) % 2 else 1.0
                                coeff = [
                                    phase
                                    * cg_twice(1, ts, tj, -tm, tq, ts - tm)
                                    * cg_twice(1, tsp, tjp, -tmp, tq, tsp - tmp)
                                    for tq in qs
                                ]
                                rows.append(coeff)
                                rhs.append(value)
                amat = np.array(rows)
                bvec = np.array(rhs)
                wq, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
                residual = float(np.abs(amat @ wq - bvec).max())
                if residual > 1e-9:
                    raise ExtractionError(
                        f"characterization residual {residual:.3e} for "
                        f"(j1={tj1/2}, j={tj/2}, j'={tjp/2})"
                    )
                for tq, val in zip(qs, wq):
                    key = SectorIndex(
                        j1=HalfInt(tj1), j=HalfInt(tj), jp=HalfInt(tjp), q=HalfInt(tq)
                    )
                    sums[key] = sums.get(key, 0.0) + float(val)
                    counts[key] = counts.get(key, 0) + 1
    averaged = {key: sums[key] / counts[key] for key in sums}
    result = {}
    for sector in enumerate_sectors(n1, n2):
        result[sector] = averaged.get(sector, 0.0)
    return result
