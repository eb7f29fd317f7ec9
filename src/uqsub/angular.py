"""Exact angular-momentum bookkeeping for qubit registers.

Half-integer labels are stored as twice their value so that all label
arithmetic stays in exact integers.  Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integer angular-momentum label, stored as twice its value."""

    twice: int

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Build from an int, Fraction or exactly-representable float."""
        if isinstance(value, HalfInt):
            return value
        frac = Fraction(value)
        if frac.denominator not in (1, 2):
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(frac * 2))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


@dataclass(frozen=True, order=True)
class SectorIndex:
    """Index (j1, j, jp, q) of one Gram variable of the covariant channel.

    j1 is the total spin of the first register, (j, jp) the ket/bra total
    spins (j <= jp by convention) and q the coupled output-input label.
    """

    j1: HalfInt
    j: HalfInt
    jp: HalfInt
    q: HalfInt

    def sort_key(self) -> tuple:
        return (-self.j1.twice, self.q.twice, self.j.twice, self.jp.twice)


def _cg_selection_ok(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> bool:
    if tM != tm1 + tm2:
        return False
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        if tj < 0 or abs(tm) > tj or (tj + tm) % 2 != 0:
            return False
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return False
    if (tj1 + tj2 + tJ) % 2 != 0:
        return False
    return True


def _cg_k_range(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int):
    # Racah sum index bounds; all quantities are plain integers here.
    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    return kmin, kmax


@lru_cache(maxsize=None)
def cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """Clebsch-Gordan coefficient with all labels given as twice-values.

    Racah's closed form in exact integers: the alternating sum is put over
    the least common multiple of its denominators, so the squared
    coefficient is a ratio of two ints, divided once (correctly rounded)
    before the one square root.  Returns 0.0 whenever a selection rule
    fails.  Cached, and safe for concurrent readers.
    """
    # plain ints: numpy integers would overflow in the factorial products
    tj1, tm1, tj2, tm2, tJ, tM = (int(t) for t in (tj1, tm1, tj2, tm2, tJ, tM))
    if not _cg_selection_ok(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    f = math.factorial
    kmin, kmax = _cg_k_range(tj1, tm1, tj2, tm2, tJ)
    ks = range(kmin, kmax + 1)
    dens = [
        f(k)
        * f((tj1 + tj2 - tJ) // 2 - k)
        * f((tj1 - tm1) // 2 - k)
        * f((tj2 + tm2) // 2 - k)
        * f((tJ - tj2 + tm1) // 2 + k)
        * f((tJ - tj1 - tm2) // 2 + k)
        for k in ks
    ]
    lcm = math.lcm(*dens)
    total = sum((-1) ** k * (lcm // den) for k, den in zip(ks, dens))
    if total == 0:
        return 0.0
    num = (tJ + 1) * math.prod(
        f(t // 2)
        for t in (tj1 + tj2 - tJ, tj1 - tj2 + tJ, tj2 - tj1 + tJ, tJ + tM, tJ - tM,
                  tj1 + tm1, tj1 - tm1, tj2 + tm2, tj2 - tm2)
    )
    den = f((tj1 + tj2 + tJ) // 2 + 1)
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(num * total * total / (den * lcm * lcm))


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


def j1_values(n1: int) -> list[HalfInt]:
    """Total spins of n1 qubits, largest first: n1/2, n1/2-1, ..., 0 or 1/2."""
    return [HalfInt(t) for t in range(n1, -1, -2)]


def j_values(j1: HalfInt, n2: int) -> list[HalfInt]:
    """Total spins reachable by coupling j1 with the symmetric spin n2/2."""
    lo = abs(j1.twice - n2)
    return [HalfInt(t) for t in range(lo, j1.twice + n2 + 1, 2)]


def q_set(j: HalfInt, jp: HalfInt) -> set[HalfInt]:
    """Common output-coupling labels {j +- 1/2} intersect {jp +- 1/2}, q >= 0."""
    if j.twice < 0 or jp.twice < 0:
        raise ValueError("total-spin labels must be non-negative")
    lhs = {j.twice - 1, j.twice + 1}
    rhs = {jp.twice - 1, jp.twice + 1}
    return {HalfInt(t) for t in lhs & rhs if t >= 0}


def enumerate_sectors(n1: int, n2: int) -> list[SectorIndex]:
    """All Gram-variable indices (j1, j, jp, q) with j <= jp.

    Deterministic order: j1 descending, then q ascending, then (j, jp)
    ascending; this order is part of the CSV/JSON contract.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    sectors = []
    for j1 in j1_values(n1):
        js = j_values(j1, n2)
        for a, j in enumerate(js):
            for jp in js[a:]:
                for q in q_set(j, jp):
                    sectors.append(SectorIndex(j1=j1, j=j, jp=jp, q=q))
    sectors.sort(key=SectorIndex.sort_key)
    return sectors


def sector_blocks(n1: int, n2: int) -> list[tuple[HalfInt, HalfInt, list[HalfInt]]]:
    """Gram blocks (q, j1, sorted valid j labels) in enumeration order."""
    blocks: dict[tuple[int, int], set[int]] = {}
    for s in enumerate_sectors(n1, n2):
        rows = blocks.setdefault((s.q.twice, s.j1.twice), set())
        rows.add(s.j.twice)
        rows.add(s.jp.twice)
    ordered = sorted(blocks.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
    return [
        (HalfInt(tq), HalfInt(tj1), [HalfInt(t) for t in sorted(rows)])
        for (tq, tj1), rows in ordered
    ]
