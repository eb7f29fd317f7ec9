"""Reference helpers that only the tests use and that build on package code.

The package-free oracles live in oracles.py; what is here needs the coupled
basis, the Clebsch-Gordan table or the solver, so it cannot live there.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from uqsub.angular import (
    HalfInt,
    SectorIndex,
    _factorials,
    cg_twice,
    enumerate_sectors,
    j1_values,
    j_values,
    sector_blocks,
)
from uqsub.channel import KrausSet, symmetric_columns
from uqsub.errors import CapacityError
from uqsub.mcsim import HaarSampler, McEstimate
from uqsub.objective import ObjectiveTable, PolyInP, split_weights
from uqsub.oracle import build_omega, solve_choi, twirl_objective
from uqsub.sdp import SdpProblem, SdpSolution

EXTRACT_QUBIT_GUARD = 6


class ExtractionError(RuntimeError):
    """Gram-value extraction from an explicit channel left a large residual."""


def half_int(value) -> HalfInt:
    """The label of an int, Fraction or exactly-representable float."""
    if isinstance(value, HalfInt):
        return value
    frac = Fraction(value)
    if frac.denominator not in (1, 2):
        raise ValueError(f"{value!r} is not a half-integer")
    return HalfInt(int(frac * 2))


def poly_value(poly: PolyInP, p: float) -> float:
    """Value of the polynomial at the mixing probability p."""
    return poly.at(split_weights(len(poly.split) - 1, p))


class EqualityRow(NamedTuple):
    """One trace-preservation row: fixed (j, j1), coefficients on the two q-blocks."""

    j: HalfInt
    j1: HalfInt
    terms: tuple[tuple[HalfInt, float], ...]  # (q, coefficient) on diagonal entry (j, j)
    rhs: float = 1.0


def build_constraints(n1: int, n2: int) -> list[EqualityRow]:
    """Trace-preservation equalities, one per valid (j, j1) pair.

    The row is (2+2j)/(1+2j) W^{j,j}_{j+1/2} + 2j/(1+2j) W^{j,j}_{j-1/2} = 1;
    for j = 0 the second term has coefficient zero and is dropped.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    rows = []
    for j1 in j1_values(n1):
        for j in j_values(j1, n2):  # every such j has its sector (j, j, j+1/2)
            tj = j.twice
            terms = [(HalfInt(tj + 1), (tj + 2) / (tj + 1))]
            if tj > 0:
                terms.append((HalfInt(tj - 1), tj / (tj + 1)))
            rows.append(EqualityRow(j=j, j1=j1, terms=tuple(terms)))
    return rows


def reference_layout(n1: int, n2: int):
    """Sector slots and SdpProblem equality rows placed through lookups: the
    slot of each sector of `enumerate_sectors`, then each `build_constraints`
    row translated to (block, row, row, coef) terms."""
    where = {}  # (tq, tj1) -> (block position, {tj: row})
    for pos, (q, j1, rows) in enumerate(sector_blocks(n1, n2)):
        where[q.twice, j1.twice] = pos, {j.twice: r for r, j in enumerate(rows)}
    slots = {}
    for s in enumerate_sectors(n1, n2):
        pos, rowmap = where[s.q.twice, s.j1.twice]
        slots[s] = pos, rowmap[s.j.twice], rowmap[s.jp.twice]
    equalities = []
    for row in build_constraints(n1, n2):
        terms = []
        for q, c in row.terms:
            pos, rowmap = where[q.twice, row.j1.twice]
            r = rowmap[row.j.twice]
            terms.append((pos, r, r, c))
        equalities.append((tuple(terms), row.rhs))
    return slots, tuple(equalities)


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
    return {spec.name: np.asarray(blk) for spec, blk in zip(problem.blocks, solution.blocks)}


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


def oracle_fidelity(n1: int, n2: int, p: float) -> float:
    """End-to-end brute-force value of the optimal average fidelity."""
    value, _ = solve_choi(twirl_objective(build_omega(n1, n2, p)))
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


@lru_cache(maxsize=None)
def recoupling_reference(k: int, n1: int, n2: int, tj1: int, tj: int) -> float:
    """U_k(j1, j) of one label, spins as twice-values: the stretched 6j closed
    form with all its factorial products formed per label (see
    `uqsub.objective._recouplings`); 0.0 when a triangle fails."""
    ta, ts = n1 - k, n1 + n2 - k
    a0, a1, a2 = (k + ta - tj1) // 2, (k - ta + tj1) // 2, (ta + tj1 - k) // 2
    b0, b1, b2 = (k + tj - ts) // 2, (k + ts - tj) // 2, (tj + ts - k) // 2
    c0, c1, c2 = (n2 + tj - tj1) // 2, (n2 + tj1 - tj) // 2, (tj + tj1 - n2) // 2
    if min(a0, a1, a2, b0, b1, b2, c0, c1, c2) < 0:
        return 0.0
    f = _factorials((k + tj + ts) // 2 + 1)
    num = (tj1 + 1) * (ts + 1) * f[ta] * f[n2] * f[(k + tj + ts) // 2 + 1]
    num *= f[a1] * f[b1] * f[b2] * f[c2]
    den = f[(k + ta + tj1) // 2 + 1] * f[ts + 1] * f[(n2 + tj + tj1) // 2 + 1]
    den *= f[a0] * f[a2] * f[b0] * f[c0] * f[c1]
    return math.sqrt(num / den)


@lru_cache(maxsize=None)
def split_overlap_reference(k: int, tsym: int, tq: int, tj: int, tjp: int) -> float:
    """G_k(q, j, j') = sum_mu f(j, q, mu) f(j', q, mu) with both Clebsch-Gordan
    factors of f(j, q, mu) = <k/2 k/2; S mu-k/2|j mu> <1/2 1/2; j -mu|q 1/2-mu>
    from the general Racah sum of `cg_twice`, S = tsym/2, one (j, j') at a time."""
    # outside |mu - k/2| <= S and |1/2 - mu| <= q every term is zero
    lo = max(-min(tj, tjp), k - tsym, 1 - tq)
    hi = min(tj, tjp, k + tsym, 1 + tq)
    total = 0.0
    for tmu in range(lo, hi + 1, 2):
        f = cg_twice(k, k, tsym, tmu - k, tj, tmu) * cg_twice(1, 1, tj, -tmu, tq, 1 - tmu)
        if tj == tjp:
            total += f * f
            continue
        fp = cg_twice(k, k, tsym, tmu - k, tjp, tmu) * cg_twice(1, 1, tjp, -tmu, tq, 1 - tmu)
        total += f * fp
    return total


def reference_objective(n1: int, n2: int) -> ObjectiveTable:
    """The objective table built sector by sector from `recoupling_reference`
    and `split_overlap_reference`, in the package's sector order and with its
    operation order per coefficient, so the two tables can be compared with ==."""
    n = n1 + n2
    entries = {}
    for s in enumerate_sectors(n1, n2):
        tj, tjp, tq, tj1 = s.j.twice, s.jp.twice, s.q.twice, s.j1.twice
        fold = 1.0 if tj == tjp else 2.0
        split = [0.0] + [
            fold
            * recoupling_reference(k, n1, n2, tj1, tj)
            * recoupling_reference(k, n1, n2, tj1, tjp)
            * split_overlap_reference(k, n - k, tq, tj, tjp)
            / (n - k + 1)
            for k in range(1, n1 + 1)
        ]
        entries[s] = PolyInP(tuple(split))
    return ObjectiveTable(n1=n1, n2=n2, entries=entries, constant=PolyInP((0.5,) + (0.0,) * n1))


def dn_w_values(n1: int, n2: int) -> dict[SectorIndex, float]:
    """Gram values of the doing-nothing channel, extracted through the
    covariant characterization by per-sector least squares and averaged over
    the coupling paths of register A."""
    n = n1 + n2
    if n > EXTRACT_QUBIT_GUARD:
        raise CapacityError(f"extraction limited to {EXTRACT_QUBIT_GUARD} qubits")
    dim = 1 << n
    sums: dict[SectorIndex, float] = {}
    counts: dict[SectorIndex, int] = {}
    for tj1, (labels, vectors) in symmetric_columns(n1, n2)[1].items():
        tjs = sorted({tj for tj, _ in labels})
        for path in vectors:
            u3 = path.reshape(2, dim // 2, len(labels))
            # kdn[s, c, s', c'] = <s| Tr_rest |c><c'| |s'>
            kdn = np.einsum("sra,trb->satb", u3, u3.conj())
            for tj in tjs:
                for tjp in tjs:
                    if tj > tjp or tjp - tj > 2:
                        continue
                    qs = sorted(t for t in {tj - 1, tj + 1} & {tjp - 1, tjp + 1} if t >= 0)
                    if not qs:
                        continue
                    rows = []
                    rhs = []
                    for ci, (tjc, tm) in enumerate(labels):
                        if tjc != tj:
                            continue
                        for cj, (tjd, tmp) in enumerate(labels):
                            if tjd != tjp:
                                continue
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


class DenseInstance:
    """The rows of an SdpProblem as dense per-block stacks: row r of the
    (m, d*d) stack of block b is A_rb, flattened.  The IPM once worked on
    these; `uqsub.ipm._Instance` acts from the sparse terms instead, and its
    `apply`, `adjoint` and `schur` must agree with the ones here, which take
    and return per-block matrices."""

    def __init__(self, problem: SdpProblem):
        self.dims = [spec.dim for spec in problem.blocks]
        self.m = len(problem.equalities)
        stacks = {}
        for r, (terms, _) in enumerate(problem.equalities):
            for pos, i, k, coef in terms:
                d = self.dims[pos]
                stack = stacks.setdefault(pos, np.zeros((self.m, d * d)))
                stack[r, i * d + k] += coef
                if i != k:
                    stack[r, k * d + i] += coef
        self.stacks: list[tuple[int, np.ndarray]] = sorted(stacks.items())

    def apply(self, xs) -> np.ndarray:
        out = np.zeros(self.m)
        for pos, stack in self.stacks:
            out += stack @ np.asarray(xs[pos]).ravel()
        return out

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        out = [np.zeros((d, d)) for d in self.dims]
        for pos, stack in self.stacks:
            d = self.dims[pos]
            out[pos] += (y @ stack).reshape(d, d)
        return out

    def schur(self, ws) -> np.ndarray:
        m_mat = np.zeros((self.m, self.m))
        for pos, stack in self.stacks:
            d = self.dims[pos]
            a = stack.reshape(self.m, d, d)
            waw = np.einsum("ab,ibc,cd->iad", ws[pos], a, ws[pos], optimize=True)
            m_mat += stack @ waw.reshape(self.m, d * d).T
        return 0.5 * (m_mat + m_mat.T)
