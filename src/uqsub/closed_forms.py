"""Analytic fidelity baselines and exact solutions.

These curves serve both as CLI outputs and as test oracles for the SDP path:
the doing-nothing baseline, the exact two-copy/one-noise-copy optimum, a
measure-and-prepare value (no bound on the optimum), the symmetric-measurement
purification protocol, and the two-copy limit of infinitely many noise copies.
"""
from __future__ import annotations

import math
from math import comb

from .errors import check_p


def dn_fidelity(p: float) -> float:
    """Average fidelity of returning one register-A qubit unchanged: 1 - p/2.

    Three curves share this formula for qubits. Doing nothing keeps the
    target with weight 1 - p and the noise with weight p, whose Haar-averaged
    overlap with the target is 1/d = 1/2. With a single mixture copy the
    noise copies cannot raise that, for any n2: the covariant SDP gives the
    single-mixture-copy optimum F(1, n2) = 1 - p/2. The
    symmetric/antisymmetric-measurement purification protocol on two copies
    gains nothing over doing nothing for qubits: its fidelity is 1 - p/2 too.
    """
    check_p(p)
    return 1.0 - p / 2.0


def f21_exact(p: float) -> float:
    """Exact optimum for two mixture copies and one noise copy.

    Piecewise in p with the branch point at p = 3/8 where the interior
    maximizer of the cross term reaches the trace-preservation boundary.
    """
    check_p(p)
    base = (1 - p) * (51 + 23 * p) / 54 + p * p / 2
    if p <= 3 / 8:
        return base + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p))
    return base + p * (1 - p) / 3


def mp_upper(p: float, n1: int) -> float:
    """Measure-and-prepare fidelity with n1 mixture copies for a measurement
    that knows which copies are intact: the sum over the number k of intact
    copies of the tomography fidelity (k+1)/(k+2).  It ignores n2 and is no
    upper bound on the optimum: over n1+n2 <= 24 and p in steps of 0.1 it
    exceeds F(n1, n2) at 237 of 3,036 points, all with n1 >= 7 and p >= 0.6
    (by 6.4e-3 at (7, 1) and p = 0.8)."""
    check_p(p)
    if n1 < 1:
        raise ValueError("need n1 >= 1")
    return sum(
        comb(n1, k) * (k + 1) / (k + 2) * (1 - p) ** k * p ** (n1 - k)
        for k in range(n1 + 1)
    )


def f2inf(p: float) -> float:
    """Optimal fidelity with two mixture copies and exact knowledge of the
    noise state (the infinite-noise-copy limit).

    After fixing the Kraus weights whose coefficients dominate their
    trace-preservation partners, the remaining freedom is the split t^2 of
    the spin-up weight on the m = 0 triplet column plus two Cauchy-Schwarz
    cross terms: maximize g(t) on t in [0, 1]. Since beta <= alpha, g is
    concave, and g'(t) = 2(beta - alpha)t + gamma - delta t/sqrt(1 - t^2)
    falls from gamma >= 0 at t = 0. Bisection on the sign of g' runs until
    the bracket stops shrinking, so the maximizer is found to round-off.
    """
    check_p(p)
    q = 1.0 - p
    const = p * q / 3 + (8 * q - 5 * q * q) / 12 + q * q / 4 + p * p / 2
    alpha = q * (1 + p) / 6  # weight of Sum |M(-1/2, triplet m=0)|^2 = 1 - t^2
    beta = q / 6  # weight of Sum |M(+1/2, triplet m=0)|^2 = t^2
    gamma = math.sqrt(2.0) / 6 * q * q  # cross term saturating at t
    delta = math.sqrt(2.0) / 6 * q * (1 + p)  # cross term saturating at sqrt(1-t^2)

    def g(t: float) -> float:
        return alpha * (1 - t * t) + beta * t * t + gamma * t + delta * math.sqrt(
            max(0.0, 1 - t * t)
        )

    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        if 2 * (beta - alpha) * mid + gamma - delta * mid / math.sqrt(1 - mid * mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return const + max(g(lo), g(hi))


def default_p_grid(steps: int = 101) -> list[float]:
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    return [i / (steps - 1) for i in range(steps)]

