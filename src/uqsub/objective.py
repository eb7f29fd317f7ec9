"""Fidelity objective and trace-preservation constraints of the covariant SDP.

The average fidelity of a covariant n1+n2 -> 1 qubit channel is a linear
functional of the Gram variables W^{j,j'}_{q,j1}: each coefficient is a
contraction of eight Clebsch-Gordan factors, polynomial in the mixing
probability p.  This module builds those polynomials once per (n1, n2) and
assembles block-structured SDP instances for any p.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Mapping

import numpy as np

from .angular import HalfInt, SectorIndex, cg_twice, enumerate_sectors, sector_blocks
from .errors import CapacityError

MAX_TOTAL_QUBITS = 24


def split_weights(n: int, p: float) -> list[float]:
    """binom(n,k) (1-p)^k p^(n-k) for k = 0..n: the noise-split basis at p."""
    return [comb(n, k) * (1.0 - p) ** k * p ** (n - k) for k in range(n + 1)]


@dataclass(frozen=True)
class PolyInP:
    """Polynomial in p of degree n, stored per noise split k = 0..n.

    The value is sum_k split[k] binom(n,k) (1-p)^k p^(n-k) (the Bernstein
    basis in 1-p, nonnegative on [0, 1]); at p = 1 (p = 0) it is exactly
    split[0] (split[n]).  Monomial coefficients, which cancel to round-off
    near p = 1, are derived only for the JSON table.
    """

    split: tuple[float, ...]

    def __call__(self, p: float) -> float:
        return self.at(split_weights(len(self.split) - 1, p))

    def at(self, weights: list[float]) -> float:
        """Value at the p whose `split_weights` are given."""
        return sum(c * w for c, w in zip(self.split, weights))

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Monomial coefficients in p, low degree first."""
        n = len(self.split) - 1
        coeffs = [0.0] * (n + 1)
        for k, c in enumerate(self.split):
            for i in range(k + 1):
                coeffs[n - k + i] += c * (comb(n, k) * comb(k, i) * (-1) ** i)
        return tuple(coeffs)


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


@dataclass
class ObjectiveTable:
    """Folded fidelity coefficients for every Gram sector of (n1, n2).

    entries holds the noise-split k >= 1 part with symmetric partners summed
    (the stored polynomial for j < jp is C[j,jp] + C[jp,j]).  The k = 0 part
    touches only the fully symmetric j = (n1+n2)/2 diagonal and is pinned to
    p^n1 / 2 by the trace-preservation row of that spin; it is kept as the
    separate constant so the entries match the per-sector closed forms.
    """

    n1: int
    n2: int
    entries: dict[SectorIndex, PolyInP]
    constant: PolyInP

    def evaluate(self, w: Mapping[SectorIndex, float], p: float) -> float:
        """Average fidelity of the channel with Gram values w at mixing p."""
        weights = split_weights(self.n1, p)
        total = self.constant.at(weights)
        for sector, poly in self.entries.items():
            total += poly.at(weights) * w[sector]
        return total

    def to_json(self) -> str:
        sectors = [
            {
                "tj1": s.j1.twice,
                "tj": s.j.twice,
                "tjp": s.jp.twice,
                "tq": s.q.twice,
                "coefficients": list(poly.coefficients),
            }
            for s, poly in sorted(self.entries.items(), key=lambda kv: kv[0].sort_key())
        ]
        return json.dumps(
            {
                "schema": "uqsub.objective_table.v1",
                "n1": self.n1,
                "n2": self.n2,
                "labels": "twice-values",
                "constant_coefficients": list(self.constant.coefficients),
                "sectors": sectors,
            },
            indent=2,
        )


def build_objective(n1: int, n2: int) -> ObjectiveTable:
    """Exact polynomial coefficient table of the fidelity functional."""
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    if n1 + n2 > MAX_TOTAL_QUBITS:
        raise CapacityError(f"n1+n2 = {n1+n2} exceeds enumeration guard {MAX_TOTAL_QUBITS}")
    raw = _contract_sectors(n1, n2, range(1, n1 + 1))
    entries: dict[SectorIndex, PolyInP] = {}
    for sector in enumerate_sectors(n1, n2):
        tj, tjp, tq, tj1 = sector.j.twice, sector.jp.twice, sector.q.twice, sector.j1.twice
        coeffs = raw.get((tj, tjp, tq, tj1), np.zeros(n1 + 1)).copy()
        if tj != tjp:
            coeffs = coeffs + raw.get((tjp, tj, tq, tj1), np.zeros(n1 + 1))
        entries[sector] = PolyInP(tuple(coeffs.tolist()))
    constant = PolyInP((0.5,) + (0.0,) * n1)
    return ObjectiveTable(n1=n1, n2=n2, entries=entries, constant=constant)


@dataclass(frozen=True)
class EqualityRow:
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
    rows = []
    seen = set()
    for sector in enumerate_sectors(n1, n2):
        for j in (sector.j, sector.jp):
            key = (j.twice, sector.j1.twice)
            if key in seen:
                continue
            seen.add(key)
            tj = j.twice
            terms = [(HalfInt(tj + 1), (tj + 2) / (tj + 1))]
            if tj > 0:
                terms.append((HalfInt(tj - 1), tj / (tj + 1)))
            rows.append(EqualityRow(j=j, j1=sector.j1, terms=tuple(terms)))
    rows.sort(key=lambda r: (-r.j1.twice, r.j.twice))
    return rows


@dataclass(frozen=True)
class BlockSpec:
    """One PSD block of an SDP: a name, its dimension and row labels."""

    name: str
    dim: int
    labels: tuple = ()


@dataclass
class SdpProblem:
    """maximize sum_b <objective[b], X_b> + offset over PSD blocks X_b
    subject to the linear equality rows sum_b <coeff[b], X_b> = rhs."""

    blocks: list[BlockSpec]
    objective: list[np.ndarray]
    equalities: list[tuple[dict[int, np.ndarray], float]]
    offset: float = 0.0

    @property
    def num_constraints(self) -> int:
        return len(self.equalities)


def assemble(table: ObjectiveTable, p: float) -> SdpProblem:
    """Instantiate the block SDP for a given mixing probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    blocks = sector_blocks(table.n1, table.n2)
    index = {}  # (tq, tj1) -> (block position, {tj: row})
    specs = []
    for pos, (q, j1, rows) in enumerate(blocks):
        index[(q.twice, j1.twice)] = (pos, {j.twice: r for r, j in enumerate(rows)})
        specs.append(BlockSpec(name=f"q={q},j1={j1}", dim=len(rows), labels=tuple(rows)))
    objective = [np.zeros((s.dim, s.dim)) for s in specs]
    weights = split_weights(table.n1, p)
    for sector, poly in table.entries.items():
        pos, rowmap = index[(sector.q.twice, sector.j1.twice)]
        a, b = rowmap[sector.j.twice], rowmap[sector.jp.twice]
        value = poly.at(weights)
        if a == b:
            objective[pos][a, a] += value
        else:
            # folded value split across the two symmetric matrix entries
            objective[pos][a, b] += value / 2.0
            objective[pos][b, a] += value / 2.0
    equalities = []
    for row in build_constraints(table.n1, table.n2):
        coeffs: dict[int, np.ndarray] = {}
        for q, c in row.terms:
            pos, rowmap = index[(q.twice, row.j1.twice)]
            mat = coeffs.setdefault(pos, np.zeros((specs[pos].dim, specs[pos].dim)))
            r = rowmap[row.j.twice]
            mat[r, r] += c
        equalities.append((coeffs, row.rhs))
    offset = table.constant.at(weights)
    return SdpProblem(blocks=specs, objective=objective, equalities=equalities, offset=offset)
