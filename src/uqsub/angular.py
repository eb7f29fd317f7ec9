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


@dataclass(frozen=True)
class CgKey:
    """Labels of a single Clebsch-Gordan coefficient <J,M | j1,m1; j2,m2>."""

    j1: HalfInt
    m1: HalfInt
    j2: HalfInt
    m2: HalfInt
    J: HalfInt
    M: HalfInt


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


@lru_cache(maxsize=None)
def _lnfact(n: int) -> float:
    return math.lgamma(n + 1)


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

    Uses the Racah closed form with log-factorial accumulation, switching to
    the exact big-integer path when the alternating sum cancels enough digits
    to threaten the 1e-12 relative contract.  Returns 0.0 whenever a
    selection rule fails.  Cached, and safe for concurrent readers.
    """
    # plain Python ints keep the big-integer fallback overflow-free
    tj1, tm1, tj2, tm2, tJ, tM = (int(t) for t in (tj1, tm1, tj2, tm2, tJ, tM))
    if not _cg_selection_ok(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    ln_pref = 0.5 * (
        math.log(tJ + 1.0)
        + _lnfact((tj1 + tj2 - tJ) // 2)
        + _lnfact((tj1 - tj2 + tJ) // 2)
        + _lnfact((-tj1 + tj2 + tJ) // 2)
        - _lnfact((tj1 + tj2 + tJ) // 2 + 1)
        + _lnfact((tJ + tM) // 2)
        + _lnfact((tJ - tM) // 2)
        + _lnfact((tj1 + tm1) // 2)
        + _lnfact((tj1 - tm1) // 2)
        + _lnfact((tj2 + tm2) // 2)
        + _lnfact((tj2 - tm2) // 2)
    )
    kmin, kmax = _cg_k_range(tj1, tm1, tj2, tm2, tJ)
    if kmin > kmax:
        return 0.0
    ln_terms = []
    for k in range(kmin, kmax + 1):
        ln_terms.append(
            -(
                _lnfact(k)
                + _lnfact((tj1 + tj2 - tJ) // 2 - k)
                + _lnfact((tj1 - tm1) // 2 - k)
                + _lnfact((tj2 + tm2) // 2 - k)
                + _lnfact((tJ - tj2 + tm1) // 2 + k)
                + _lnfact((tJ - tj1 - tm2) // 2 + k)
            )
        )
    peak = max(ln_terms)
    acc = 0.0
    for k, ln_t in zip(range(kmin, kmax + 1), ln_terms):
        acc += (-1.0) ** k * math.exp(ln_t - peak)
    # each scaled term is <= 1; a small signed sum means the alternating
    # series cancelled digits the double path cannot certify
    if kmax > kmin and abs(acc) < 0.1:
        return cg_exact(
            CgKey(
                HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tJ), HalfInt(tM)
            )
        )
    return acc * math.exp(ln_pref + peak)


def cg(key: CgKey) -> float:
    """Clebsch-Gordan coefficient <J,M | j1,m1; j2,m2> (Condon-Shortley)."""
    return cg_twice(
        key.j1.twice, key.m1.twice, key.j2.twice, key.m2.twice, key.J.twice, key.M.twice
    )


def cg_exact(key: CgKey) -> float:
    """Audit path: exact big-integer Racah evaluation, rounded once at the end.

    The squared coefficient is a rational number; it is accumulated with
    Fraction arithmetic and only the final square root is floating point.
    """
    tj1, tm1 = int(key.j1.twice), int(key.m1.twice)
    tj2, tm2 = int(key.j2.twice), int(key.m2.twice)
    tJ, tM = int(key.J.twice), int(key.M.twice)
    if not _cg_selection_ok(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    f = math.factorial
    radicand = Fraction(
        (tJ + 1)
        * f((tj1 + tj2 - tJ) // 2)
        * f((tj1 - tj2 + tJ) // 2)
        * f((-tj1 + tj2 + tJ) // 2)
        * f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
        * f((tj1 + tm1) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2)
        * f((tj2 - tm2) // 2),
        f((tj1 + tj2 + tJ) // 2 + 1),
    )
    kmin, kmax = _cg_k_range(tj1, tm1, tj2, tm2, tJ)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * f((tj1 + tj2 - tJ) // 2 - k)
            * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k)
            * f((tJ - tj2 + tm1) // 2 + k)
            * f((tJ - tj1 - tm2) // 2 + k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(total * total * radicand))


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
