"""Fidelity objective and trace-preservation constraints of the covariant SDP.

The average fidelity of a covariant n1+n2 -> 1 qubit channel is a linear
functional of the Gram variables W^{j,j'}_{q,j1}, with coefficients
polynomial in the mixing probability p.  At noise split k (k qubits of the
first register in the target state) Racah recoupling makes each coefficient
a product of recoupling coefficients,
U_k(j1, j) U_k(j1, j') G_k(q, j, j') / (n1+n2-k+1), where U_k is the closed
form of a stretched 6j symbol and G_k does not depend on j1.  G_k sums
products of two Clebsch-Gordan coefficients that are both stretched in
their first spin, so each is a one-term closed form.

This module builds those polynomials once per (n1, n2) in one walk over the
Gram blocks (q, j1): the U_k of a j1 come as columns, one per j, and the
three G_k of a block q (its two rows and the pair) from one cached pass per
(k, n1+n2, q), which every size on that anti-diagonal shares.  Each factor
is an exact integer ratio rounded once before its square root, so the
floats do not depend on the path.  Block-structured SDP instances for any
p are assembled from a placement computed once per (n1, n2).

Its records are named tuples, as in `uqsub.angular` and `uqsub.sdp`, and
`json` loads only when a table is written.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .angular import (
    SectorIndex,
    _factorials,
    _not_a_sequence,
    cg_twice,
    sector_blocks,
)
from .errors import CapacityError
from .sdp import BlockSpec, SdpProblem, SdpSolution

MAX_TOTAL_QUBITS = 24


def split_weights(n: int, p: float) -> list[float]:
    """binom(n,k) (1-p)^k p^(n-k) for k = 0..n: the noise-split basis at p."""
    return [comb(n, k) * (1.0 - p) ** k * p ** (n - k) for k in range(n + 1)]


class PolyInP(NamedTuple):
    """Polynomial in p of degree n, stored per noise split k = 0..n.

    The value is sum_k split[k] binom(n,k) (1-p)^k p^(n-k) (the Bernstein
    basis in 1-p, nonnegative on [0, 1]); at p = 1 (p = 0) it is exactly
    split[0] (split[n]).  Monomial coefficients, which cancel to round-off
    near p = 1, are derived only for the JSON table.
    """

    split: tuple[float, ...]

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

    __add__ = __mul__ = __rmul__ = _not_a_sequence


def _recouplings(n1: int, n2: int, tj1: int) -> dict[int, list[float]]:
    """U_k(j1, j) for k = 1..n1 of every j that j1 couples to with n2/2,
    keyed by tj, spins as twice-values.

    With a = (n1-k)/2, b = n2/2 and the stretched S = a+b, U is the overlap
    of the coupling ((k/2, a) j1, b) j with (k/2, (a, b) S) j, a column of an
    orthogonal recoupling matrix:
    U = (-1)^(k/2+a+b+j) sqrt((2j1+1)(2S+1)) {k/2 a j1; b j S}.
    The stretched triad (a, b, S) leaves a single term t = k/2+j+S in
    Racah's sum for the 6j symbol, and its sign (-1)^t cancels the phase, so
    U >= 0.  U^2 is one exact ratio of factorial products, divided once
    before the one square root; the products that depend only on (k, j1),
    or only on j, are formed once.  U = 0 when a triangle (k/2, a, j1),
    (k/2, j, S) or (b, j, j1) fails.
    """
    n = n1 + n2
    f = _factorials(n + 2)
    per_k = []  # (k, 2S, numerator, denominator) of the (k, j1) factors, or None
    for k in range(1, n1 + 1):
        ta, ts = n1 - k, n - k
        # the three legs of each triad: (x+y-z)/2, (x-y+z)/2, (-x+y+z)/2
        a0, a1, a2 = (k + ta - tj1) // 2, (k - ta + tj1) // 2, (ta + tj1 - k) // 2
        if min(a0, a1, a2) < 0:
            per_k.append(None)
            continue
        num = (tj1 + 1) * (ts + 1) * f[ta] * f[n2] * f[a1]
        den = f[(k + ta + tj1) // 2 + 1] * f[ts + 1] * f[a0] * f[a2]
        per_k.append((k, ts, num, den))
    columns = {}
    for tj in range(abs(tj1 - n2), tj1 + n2 + 1, 2):  # (b, j, j1) holds
        c0, c1, c2 = (n2 + tj - tj1) // 2, (n2 + tj1 - tj) // 2, (tj + tj1 - n2) // 2
        num_j = f[(n + tj) // 2 + 1] * f[c2]  # (k/2+j+S+1)! does not depend on k
        den_j = f[(n2 + tj + tj1) // 2 + 1] * f[c0] * f[c1]
        column = []
        for factors in per_k:
            if factors is None:
                column.append(0.0)
                continue
            k, ts, num, den = factors
            b0, b1, b2 = (k + tj - ts) // 2, (k + ts - tj) // 2, (tj + ts - k) // 2
            if min(b0, b1, b2) < 0:
                column.append(0.0)
                continue
            column.append(math.sqrt(num * num_j * f[b1] * f[b2] / (den * den_j * f[b0])))
        columns[tj] = column
    return columns


def _amplitudes(k: int, n: int, tq: int, tj: int) -> tuple[int, list[float]]:
    """(lo, [f(j, q, mu) for 2mu = lo, lo+2, ...]), the amplitude column of j
    in the block q at n1+n2 = n, with
    f(j, q, mu) = <k/2 k/2; S mu-k/2|j mu> <1/2 1/2; j -mu|q 1/2-mu>, S = (n-k)/2,
    over the mu where neither factor vanishes by its m ranges; empty when
    j < 0 or the triangle (k/2, S, j) fails.

    The first factor is stretched in its first spin (m = k/2), so its Racah
    sum has one term: with m2 = mu-k/2 its square is
    (2j+1) k! (S-k/2+j)! (j+mu)! (S-m2)! over
    (k/2+S+j+1)! (k/2+S-j)! (k/2-S+j)! (j-mu)! (S+m2)!, one exact integer
    ratio divided once before the one square root, the float `cg_twice`
    returns.  The spin-1/2 factor is a `cg_twice` call.
    """
    tsym = n - k
    if tj < 0 or not abs(tsym - k) <= tj <= tsym + k:
        return 0, []
    f = _factorials(n + 2)
    lo, hi = max(-tj, k - tsym, 1 - tq), min(tj, k + tsym, 1 + tq)
    num = (tj + 1) * f[k] * f[(tsym - k + tj) // 2]
    den = f[(k + tsym + tj) // 2 + 1] * f[(k + tsym - tj) // 2] * f[(k - tsym + tj) // 2]
    column = []
    for tmu in range(lo, hi + 1, 2):
        square = (num * f[(tj + tmu) // 2] * f[(tsym + k - tmu) // 2]) / (
            den * f[(tsym + tmu - k) // 2] * f[(tj - tmu) // 2]
        )
        column.append(math.sqrt(square) * cg_twice(1, 1, tj, -tmu, tq, 1 - tmu))
    return lo, column


def _dot(lo_x: int, x: list[float], lo_y: int, y: list[float]) -> float:
    """sum_mu x(mu) y(mu) over the mu both columns hold, mu ascending."""
    lo = max(lo_x, lo_y)
    total = 0.0
    for u, v in zip(x[(lo - lo_x) // 2 :], y[(lo - lo_y) // 2 :]):
        total += u * v
    return total


@lru_cache(maxsize=None)
def _overlaps(k: int, n: int, tq: int) -> tuple[float, float, float]:
    """G_k(q, j, j') = sum_mu f(j, q, mu) f(j', q, mu), the j1-free factor at
    n1+n2 = n, for (j, j') = (q-1/2, q-1/2), (q-1/2, q+1/2), (q+1/2, q+1/2).

    One pass builds the two amplitude columns of the block q, so every
    (n1, n2) with the same n1+n2 shares it."""
    below, above = _amplitudes(k, n, tq, tq - 1), _amplitudes(k, n, tq, tq + 1)
    return _dot(*below, *below), _dot(*below, *above), _dot(*above, *above)


class ObjectiveTable(NamedTuple):
    """Folded fidelity coefficients for every Gram sector of (n1, n2).

    entries holds the noise-split k >= 1 part, each split coefficient a
    product U_k(j1,j) U_k(j1,jp) G_k(q,j,jp) / (n1+n2-k+1) of recoupling
    coefficients (G_k from closed forms, cached per (k, n1+n2, q) and
    shared by every size with the same n1+n2), with symmetric partners summed (the stored polynomial for
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
        import json

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
    n = n1 + n2
    ks = range(1, n1 + 1)
    entries: dict[SectorIndex, PolyInP] = {}
    tj1, recouplings = None, {}
    for q, j1, rows in sector_blocks(n1, n2):
        if j1.twice != tj1:
            tj1 = j1.twice
            recouplings = _recouplings(n1, n2, tj1)
        tq = q.twice
        overlaps = [_overlaps(k, n, tq) for k in ks]
        for a, j in enumerate(rows):
            u = recouplings[j.twice]
            for jp in rows[a:]:
                up = recouplings[jp.twice]
                fold = 1.0 if j == jp else 2.0  # the product is symmetric in j and j'
                g = (j.twice + jp.twice + 2 - 2 * tq) // 2  # which pair of the block q
                split = [0.0] + [
                    fold * x * y * gk[g] / (n - k + 1)
                    for k, x, y, gk in zip(ks, u, up, overlaps)
                ]
                entries[SectorIndex(j1, j, jp, q)] = PolyInP(tuple(split))
    constant = PolyInP((0.5,) + (0.0,) * n1)
    return ObjectiveTable(n1=n1, n2=n2, entries=entries, constant=constant)


@lru_cache(maxsize=None)
def _layout(n1: int, n2: int):
    """The p-independent placement of (n1, n2), computed once in one walk
    over `sector_blocks`.

    Returns the block specs, each sector's (block, row, column) slot and the
    trace-preservation rows as SdpProblem equalities, one per valid (j, j1)
    in block order:
    (tj+2)/(tj+1) W^{j,j}_{j+1/2} + tj/(tj+1) W^{j,j}_{j-1/2} = 1 with
    tj = 2j, the term on q = j+1/2 first; for j = 0 the second term has
    coefficient zero and is dropped.  The block of q = j-1/2 comes before
    that of q = j+1/2, so a row is written at the latter.
    """
    specs, slots, equalities = [], {}, []
    below = {}  # tj -> the row's term on q = j-1/2, until its q = j+1/2 block
    for pos, (q, j1, rows) in enumerate(sector_blocks(n1, n2)):
        specs.append(BlockSpec(name=f"q={q},j1={j1}", dim=len(rows)))
        for a, j in enumerate(rows):
            for b, jp in enumerate(rows[a:], a):
                slots[SectorIndex(j1, j, jp, q)] = pos, a, b
            tj = j.twice
            if tj > q.twice:
                below[tj] = ((pos, a, a, tj / (tj + 1)),)
            else:
                equalities.append((((pos, a, a, (tj + 2) / (tj + 1)),) + below.pop(tj, ()), 1.0))
    return tuple(specs), slots, tuple(equalities)


def assemble(table: ObjectiveTable, p: float) -> SdpProblem:
    """Instantiate the block SDP for a given mixing probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    specs, slots, rows = _layout(table.n1, table.n2)
    objective = [[[0.0] * s.dim for _ in range(s.dim)] for s in specs]
    weights = split_weights(table.n1, p)
    for sector, poly in table.entries.items():
        pos, a, b = slots[sector]
        value = poly.at(weights)
        if a == b:
            objective[pos][a][a] += value
        else:
            # folded value split across the two symmetric matrix entries
            objective[pos][a][b] += value / 2.0
            objective[pos][b][a] += value / 2.0
    offset = table.constant.at(weights)
    return SdpProblem(blocks=list(specs), objective=objective, equalities=rows, offset=offset)


def w_values_from_solution(solution: SdpSolution, n1: int, n2: int) -> dict[SectorIndex, float]:
    """Read the per-sector Gram values out of the solver's block layout."""
    specs, slots, _ = _layout(n1, n2)
    if len(specs) != len(solution.blocks):
        raise ValueError("solution does not match the (n1, n2) block layout")
    return {s: float(solution.blocks[pos][a][b]) for s, (pos, a, b) in slots.items()}
