"""Fidelity objective and trace-preservation constraints of the covariant SDP.

The average fidelity of a covariant n1+n2 -> 1 qubit channel is a linear
functional of the Gram variables W^{j,j'}_{q,j1}, with coefficients
polynomial in the mixing probability p.  At noise split k (k qubits of the
first register in the target state) Racah recoupling makes each coefficient
a product of recoupling coefficients,
U_k(j1, j) U_k(j1, j') G_k(q, j, j') / (n1+n2-k+1), where U_k is the closed
form of a stretched 6j symbol and G_k does not depend on j1.  This module
builds those polynomials once per (n1, n2) and assembles block-structured SDP
instances for any p from a placement computed once per (n1, n2).
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .angular import (
    HalfInt,
    SectorIndex,
    _factorials,
    cg_twice,
    enumerate_sectors,
    j1_values,
    j_values,
    sector_blocks,
)
from .errors import CapacityError
from .sdp import BlockSpec, SdpProblem

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
        return sum(map(operator.mul, self.split, weights))

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Monomial coefficients in p, low degree first."""
        n = len(self.split) - 1
        coeffs = [0.0] * (n + 1)
        for k, c in enumerate(self.split):
            for i in range(k + 1):
                coeffs[n - k + i] += c * (comb(n, k) * comb(k, i) * (-1) ** i)
        return tuple(coeffs)


@lru_cache(maxsize=None)
def _recoupling(k: int, n1: int, n2: int, tj1: int, tj: int) -> float:
    """U_k(j1, j) of noise split k, spins as twice-values.

    With a = (n1-k)/2, b = n2/2 and the stretched S = a+b, U is the overlap
    of the coupling ((k/2, a) j1, b) j with (k/2, (a, b) S) j, a column of an
    orthogonal recoupling matrix:
    U = (-1)^(k/2+a+b+j) sqrt((2j1+1)(2S+1)) {k/2 a j1; b j S}.
    The stretched triad (a, b, S) leaves a single term t = k/2+j+S in
    Racah's sum for the 6j symbol, and its sign (-1)^t cancels the phase, so
    U >= 0.  U^2 is one exact ratio of factorial products, divided once
    before the one square root; U = 0 when a triangle (k/2, a, j1),
    (k/2, j, S) or (b, j, j1) fails.
    """
    ta, ts = n1 - k, n1 + n2 - k
    # the three legs of each triad: (x+y-z)/2, (x-y+z)/2, (-x+y+z)/2
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
def _split_overlap(k: int, tsym: int, tq: int, tj: int, tjp: int) -> float:
    """G_k(q, j, j') = sum_mu f(j, q, mu) f(j', q, mu), the j1-free factor, with
    f(j, q, mu) = <k/2 k/2; S mu-k/2|j mu> <1/2 1/2; j -mu|q 1/2-mu> and S = tsym/2."""
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


@dataclass
class ObjectiveTable:
    """Folded fidelity coefficients for every Gram sector of (n1, n2).

    entries holds the noise-split k >= 1 part, each split coefficient a
    product U_k(j1,j) U_k(j1,jp) G_k(q,j,jp) / (n1+n2-k+1) of recoupling
    coefficients, with symmetric partners summed (the stored polynomial for
    j < jp is C[j,jp] + C[jp,j] = 2 C[j,jp]).  The k = 0 part
    touches only the fully symmetric j = (n1+n2)/2 diagonal and is pinned to
    p^n1 / 2 by the trace-preservation row of that spin; it is kept as the
    separate constant so the entries match the per-sector closed forms.
    """

    n1: int
    n2: int
    entries: dict[SectorIndex, PolyInP]
    constant: PolyInP

    def to_json(self) -> str:
        sectors = [
            {
                "tj1": s.j1.twice,
                "tj": s.j.twice,
                "tjp": s.jp.twice,
                "tq": s.q.twice,
                "coefficients": list(poly.coefficients),
            }
            for s, poly in self.entries.items()
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
    N = n1 + n2
    entries: dict[SectorIndex, PolyInP] = {}
    for sector in enumerate_sectors(n1, n2):
        tj, tjp, tq, tj1 = sector.j.twice, sector.jp.twice, sector.q.twice, sector.j1.twice
        fold = 1.0 if tj == tjp else 2.0  # the product is symmetric in j and j'
        split = [0.0] + [
            fold
            * _recoupling(k, n1, n2, tj1, tj)
            * _recoupling(k, n1, n2, tj1, tjp)
            * _split_overlap(k, N - k, tq, tj, tjp)
            / (N - k + 1)
            for k in range(1, n1 + 1)
        ]
        entries[sector] = PolyInP(tuple(split))
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


@lru_cache(maxsize=None)
def _layout(n1: int, n2: int):
    """The p-independent placement of (n1, n2), computed once.

    Returns the block specs, each sector's (block, row, column) slot and the
    trace-preservation rows as SdpProblem equalities: diagonal terms and rhs.
    """
    specs = []
    where = {}  # (tq, tj1) -> (block position, {tj: row})
    for pos, (q, j1, rows) in enumerate(sector_blocks(n1, n2)):
        where[q.twice, j1.twice] = pos, {j.twice: r for r, j in enumerate(rows)}
        specs.append(BlockSpec(name=f"q={q},j1={j1}", dim=len(rows)))
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
    return tuple(specs), slots, tuple(equalities)


def assemble(table: ObjectiveTable, p: float) -> SdpProblem:
    """Instantiate the block SDP for a given mixing probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    specs, slots, rows = _layout(table.n1, table.n2)
    objective = [np.zeros((s.dim, s.dim)) for s in specs]
    weights = split_weights(table.n1, p)
    for sector, poly in table.entries.items():
        pos, a, b = slots[sector]
        value = poly.at(weights)
        if a == b:
            objective[pos][a, a] += value
        else:
            # folded value split across the two symmetric matrix entries
            objective[pos][a, b] += value / 2.0
            objective[pos][b, a] += value / 2.0
    offset = table.constant.at(weights)
    return SdpProblem(blocks=list(specs), objective=objective, equalities=rows, offset=offset)
