"""Exact angular-momentum bookkeeping for qubit registers.

Half-integer labels are stored as twice their value so that all label
arithmetic stays in exact integers.  Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention throughout the package; each is an exact
ratio of factorials rounded once, from pure functions that `lru_cache` keeps.

Labels are named tuples: hashing and ordering them, which every sector dict
of the covariant path does, runs in C.  A label has no tuple arithmetic, but
it equals the plain tuple of its fields (HalfInt(3) == (3,)).  Like the rest
of the covariant path, this module imports only light standard-library
modules (`typing`, `functools`, ...).
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple


def _not_a_sequence(self, other):
    """A label is no sequence: `+` and `*` raise TypeError as for any object
    without them, instead of concatenating or repeating the tuple."""
    return NotImplemented


class HalfInt(NamedTuple):
    """An exact half-integer angular-momentum label, stored as twice its value.

    Equality, hashing and order are those of `twice`."""

    twice: int

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"

    __add__ = __mul__ = __rmul__ = _not_a_sequence


class SectorIndex(NamedTuple):
    """Index (j1, j, jp, q) of one Gram variable of the covariant channel.

    j1 is the total spin of the first register, (j, jp) the ket/bra total
    spins (j <= jp by convention) and q the coupled output-input label.
    Ordered as the tuple of the four labels.
    """

    j1: HalfInt
    j: HalfInt
    jp: HalfInt
    q: HalfInt

    __add__ = __mul__ = __rmul__ = _not_a_sequence


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


@lru_cache(maxsize=None)
def _factorials(top: int) -> tuple[int, ...]:
    """The exact factorials 0!, 1!, ..., top!."""
    return tuple(accumulate(range(1, top + 1), operator.mul, initial=1))


@lru_cache(maxsize=None, typed=True)
def cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """Clebsch-Gordan coefficient with all labels given as twice-values.

    Racah's closed form in exact integers: the alternating sum is put over
    the least common multiple of its denominators, so the squared
    coefficient is a ratio of two ints, divided once (correctly rounded)
    before the one square root.  Returns 0.0 whenever a selection rule
    fails.  Cached by label value and type, and safe for concurrent readers.
    """
    # plain ints: numpy integers would overflow in the factorial products, and
    # a label that is not an integer raises TypeError instead of being truncated
    tj1, tm1, tj2, tm2, tJ, tM = map(operator.index, (tj1, tm1, tj2, tm2, tJ, tM))
    if not _cg_selection_ok(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    f = _factorials((tj1 + tj2 + tJ) // 2 + 1)
    # Racah's sum over k of (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!)
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    ks = range(max(0, -d, -e), min(a, b, c) + 1)
    dens = [f[k] * f[a - k] * f[b - k] * f[c - k] * f[d + k] * f[e + k] for k in ks]
    lcm = math.lcm(*dens)
    total = sum(-(lcm // den) if k & 1 else lcm // den for k, den in zip(ks, dens))
    if total == 0:
        return 0.0
    num = (tJ + 1) * f[a] * f[b] * f[c]
    for t in (tj1 - tj2 + tJ, tj2 - tj1 + tJ, tJ + tM, tJ - tM, tj1 + tm1, tj2 - tm2):
        num *= f[t // 2]
    den = f[(tj1 + tj2 + tJ) // 2 + 1]
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(num * total * total / (den * lcm * lcm))


def j1_values(n1: int) -> list[HalfInt]:
    """Total spins of n1 qubits, largest first: n1/2, n1/2-1, ..., 0 or 1/2."""
    return [HalfInt(t) for t in range(n1, -1, -2)]


def j_values(j1: HalfInt, n2: int) -> list[HalfInt]:
    """Total spins reachable by coupling j1 with the symmetric spin n2/2."""
    lo = abs(j1.twice - n2)
    return [HalfInt(t) for t in range(lo, j1.twice + n2 + 1, 2)]


def enumerate_sectors(n1: int, n2: int) -> list[SectorIndex]:
    """All Gram-variable indices (j1, j, jp, q) with j <= jp.

    Deterministic order: j1 descending, then q ascending, then (j, jp)
    ascending; this order is part of the CSV/JSON contract.
    """
    return [key for block in sector_blocks(n1, n2) for key, _, _ in sector_cells(*block)]


def sector_blocks(n1: int, n2: int) -> list[tuple[HalfInt, HalfInt, list[HalfInt]]]:
    """Gram blocks (q, j1, sorted valid j labels) in enumeration order.

    A sector (j, jp, q) needs q >= 0 in both {j - 1/2, j + 1/2} and
    {jp - 1/2, jp + 1/2}, so jp - j is 0 or 1, and the block of q holds the
    spins q - 1/2 and q + 1/2 that j_values(j1, n2) contains.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    blocks = []
    for j1 in j1_values(n1):
        js = {j.twice: j for j in j_values(j1, n2)}
        lo, hi = min(js), max(js)
        for tq in range(lo - 1 if lo else 1, hi + 2, 2):
            rows = [js[t] for t in (tq - 1, tq + 1) if t in js]
            blocks.append((HalfInt(tq), j1, rows))
    return blocks


def sector_cells(
    q: HalfInt, j1: HalfInt, rows: list[HalfInt]
) -> list[tuple[SectorIndex, int, int]]:
    """(SectorIndex, a, b) for each sector of the Gram block (q, j1, rows), in
    enumeration order: a <= b, j = rows[a] and jp = rows[b].  The one place a
    block is expanded into its sectors."""
    cells = [(a, b) for a in range(len(rows)) for b in range(a, len(rows))]
    return [(SectorIndex(j1, rows[a], rows[b], q), a, b) for a, b in cells]
