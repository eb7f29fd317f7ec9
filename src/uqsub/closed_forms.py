"""Analytic fidelity baselines, bounds, and exact solutions.

These curves serve both as CLI outputs and as test oracles for the SDP path:
the doing-nothing baseline, the exact two-copy/one-noise-copy optimum, the
measure-and-prepare upper bound, the symmetric-measurement purification
protocol, and the two-copy limit of infinitely many noise copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable, Iterable, Sequence


class CurveLabel(str, Enum):
    DN = "DN"
    F11 = "F11"
    F1N2 = "F1n2"
    F21 = "F21"
    MP_UPPER_N1 = "MP_UPPER_N1"
    CEM = "CEM"
    F2INF = "F2INF"


@dataclass(frozen=True)
class FidelityCurvePoint:
    p: float
    value: float
    label: CurveLabel


def _check_p(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")


def dn_fidelity(p: float, d: int = 2) -> float:
    """Average fidelity of returning one register-A system unchanged."""
    _check_p(p)
    if d < 2:
        raise ValueError("need dimension d >= 2")
    return 1.0 - p * (d - 1) / d


def f1n2(p: float) -> float:
    """Optimal fidelity with a single mixture copy; independent of n2."""
    _check_p(p)
    return 1.0 - p / 2.0


def cem_fidelity(p: float) -> float:
    """Symmetric/antisymmetric-measurement purification protocol, two copies.

    Coincides with the doing-nothing value for qubits.
    """
    _check_p(p)
    return 1.0 - p / 2.0


def f21_exact(p: float) -> float:
    """Exact optimum for two mixture copies and one noise copy.

    Piecewise in p with the branch point at p = 3/8 where the interior
    maximizer of the cross term reaches the trace-preservation boundary.
    """
    _check_p(p)
    base = (1 - p) * (51 + 23 * p) / 54 + p * p / 2
    if p <= 3 / 8:
        return base + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p))
    return base + p * (1 - p) / 3


def mp_upper(p: float, n1: int) -> float:
    """Upper bound on measure-and-prepare strategies with n1 mixture copies.

    Sum over the number k of intact target copies of the optimal pure-state
    tomography fidelity (k+1)/(k+2).
    """
    _check_p(p)
    if n1 < 1:
        raise ValueError("need n1 >= 1")
    return sum(
        comb(n1, k) * (k + 1) / (k + 2) * (1 - p) ** k * p ** (n1 - k)
        for k in range(n1 + 1)
    )


def golden_section_max(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Bracketed golden-section maximization of a unimodal function.

    Returns (argmax, max); the interval endpoints are always evaluated too.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    t_best = 0.5 * (a + b)
    candidates = [(lo, fn(lo)), (hi, fn(hi)), (t_best, fn(t_best))]
    return max(candidates, key=lambda tv: tv[1])


def f2inf(p: float) -> float:
    """Optimal fidelity with two mixture copies and exact knowledge of the
    noise state (the infinite-noise-copy limit).

    After fixing the Kraus weights whose coefficients dominate their
    trace-preservation partners, the remaining freedom is the split t^2 of
    the spin-up weight on the m = 0 triplet column plus two Cauchy-Schwarz
    cross terms, leaving a one-variable concave maximization on t in [0, 1]
    solved by golden section.
    """
    _check_p(p)
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

    _, best = golden_section_max(g, 0.0, 1.0, tol=1e-10)
    return const + best


_CURVE_FUNCTIONS: dict[CurveLabel, Callable[[float], float]] = {
    CurveLabel.DN: lambda p: dn_fidelity(p, 2),
    CurveLabel.F11: f1n2,
    CurveLabel.F1N2: f1n2,
    CurveLabel.F21: f21_exact,
    CurveLabel.MP_UPPER_N1: lambda p: mp_upper(p, 2),
    CurveLabel.CEM: cem_fidelity,
    CurveLabel.F2INF: f2inf,
}


def default_p_grid(steps: int = 101) -> list[float]:
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    return [i / (steps - 1) for i in range(steps)]


def curve_points(
    labels: Iterable[CurveLabel] | None = None, p_values: Sequence[float] | None = None
) -> list[FidelityCurvePoint]:
    """Evaluate the analytic curves on a p grid (default 101 uniform points)."""
    labels = list(labels) if labels is not None else list(CurveLabel)
    ps = list(p_values) if p_values is not None else default_p_grid()
    points = []
    for label in labels:
        fn = _CURVE_FUNCTIONS[label]
        for p in ps:
            points.append(FidelityCurvePoint(p=p, value=fn(p), label=label))
    return points


def curves_csv(
    labels: Iterable[CurveLabel] | None = None,
    p_values: Sequence[float] | None = None,
    full_precision: bool = False,
) -> str:
    """Long-format CSV of the analytic curves: columns p,label,value.

    Values carry 6 significant digits by default, full doubles on request.
    """
    digits = 17 if full_precision else 6
    lines = ["p,label,value"]
    for point in curve_points(labels, p_values):
        lines.append(f"{point.p:.{digits}g},{point.label.value},{point.value:.{digits}g}")
    return "\n".join(lines) + "\n"
