"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s or in captured output)."""
import time

import numpy as np
import pytest

from uqsub.angular import cg_twice, j1_values
from references import dn_w_values, evaluate, multiplicity
from uqsub.channel import kraus_from_choi, reconstruct_choi
from uqsub.closed_forms import (
    dn_fidelity,
    f21_exact,
    f2inf,
    mp_upper,
)
from uqsub.mcsim import HaarSampler, estimate_fidelity
from uqsub.objective import assemble, build_constraints, build_objective
from uqsub.oracle import build_omega, solve_choi, twirl_objective
from uqsub.sdp import solve

# (n1, n2, p, value) tuples accumulated by earlier criteria; criterion 4
# re-checks the doing-nothing lower bound over everything solved here
SOLVED_POINTS: list[tuple[int, int, float, float]] = []

F2INF_FROZEN = {
    0.1: 0.9608320024722984,
    0.25: 0.9069815389042984,
    0.5: 0.8083935597742791,
    0.75: 0.6766907566304742,
    0.9: 0.5764872349134298,
}


def report(index: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {index}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {index}: {detail}"


def solve_value(n1, n2, p):
    sol = solve(assemble(build_objective(n1, n2), p))
    assert sol.success, (n1, n2, p, sol.status)
    SOLVED_POINTS.append((n1, n2, p, sol.objective_value))
    return sol.objective_value


def test_criterion_1_closed_form_match_2_1():
    start = time.monotonic()
    table = build_objective(2, 1)
    worst = 0.0
    values = {}
    for i in range(101):
        p = i / 100
        sol = solve(assemble(table, p))
        assert sol.success
        SOLVED_POINTS.append((2, 1, p, sol.objective_value))
        values[p] = sol.objective_value
        worst = max(worst, abs(sol.objective_value - f21_exact(p)))
    # both branches and the junction
    for p in (3 / 8 - 1e-9, 3 / 8, 3 / 8 + 1e-9):
        sol = solve(assemble(table, p))
        worst = max(worst, abs(sol.objective_value - f21_exact(p)))
    spots = {0.0: 1.0, 1.0: 0.5, 0.5: 0.7870370370370371}
    spot_err = max(abs(values[p] - v) for p, v in spots.items())
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-9 and spot_err <= 1e-9 and elapsed < 5.0,
        f"2-copy/1-noise closed form: max |F - exact| = {worst:.2e} on 101-pt grid "
        f"and at p = 3/8 +- 1e-9 (tol 1e-9), spot error {spot_err:.2e}, "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_single_copy_identity():
    worst = 0.0
    for n2 in (1, 2, 3):
        table = build_objective(1, n2)
        for i in range(11):
            p = i / 10
            sol = solve(assemble(table, p))
            assert sol.success
            SOLVED_POINTS.append((1, n2, p, sol.objective_value))
            worst = max(worst, abs(sol.objective_value - (1 - p / 2)))
    report(
        2,
        worst <= 1e-7,
        f"single-mixture-copy identity F = 1 - p/2 for n2 in 1..3: "
        f"max deviation {worst:.2e} (tol 1e-7)",
    )


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    points = [(n1, n2, p) for n1, n2 in [(1, 1), (2, 1), (1, 2), (2, 2)] for p in (0.25, 0.5, 0.9)]
    points.append((3, 2, 0.375))  # five qubits: a six-factor twirl
    for n1, n2, p in points:
        covariant = solve(assemble(build_objective(n1, n2), p)).objective_value
        SOLVED_POINTS.append((n1, n2, p, covariant))
        oracle, _ = solve_choi(twirl_objective(build_omega(n1, n2, p)))
        worst = max(worst, abs(covariant - oracle))
    elapsed = time.monotonic() - start
    report(
        3,
        worst <= 1e-5 and elapsed < 300.0,
        f"covariant SDP vs brute-force Choi SDP on {len(points)} points up to n1+n2 = 5: "
        f"max |diff| = {worst:.2e} (tol 1e-5), runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_4_bounds_and_orderings():
    if not SOLVED_POINTS:
        for n1, n2 in [(1, 1), (2, 1), (2, 2)]:
            for p in (0.25, 0.5, 0.9):
                solve_value(n1, n2, p)
    bound_violation = max(
        (1 - p / 2) - value for _, _, p, value in SOLVED_POINTS
    )
    ordering_ok = True
    for i in range(1, 100):
        p = i / 100
        ordering_ok &= mp_upper(p, 2) < dn_fidelity(p)
        ordering_ok &= f21_exact(p) > dn_fidelity(p)
        ordering_ok &= f21_exact(p) <= f2inf(p) + 1e-9
    report(
        4,
        bound_violation <= 1e-8 and ordering_ok,
        f"doing-nothing lower bound over {len(SOLVED_POINTS)} solved points "
        f"(worst violation {bound_violation:.2e}, tol 1e-8); interior orderings "
        f"MP < DN < F21 <= F2INF hold on 99-pt grid: {ordering_ok}",
    )


def test_criterion_5_monotonicity():
    worst = -np.inf
    for p in (0.25, 0.5, 0.9):
        values = {}
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                values[(n1, n2)] = solve_value(n1, n2, p)
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                worst = max(worst, values[(n1, n2)] - values[(n1 + 1, n2)])
                worst = max(worst, values[(n1, n2)] - values[(n1, n2 + 1)])
    report(
        5,
        worst <= 1e-7,
        f"monotonicity in n1 and n2 on the 6x6 grid at p in (0.25, 0.5, 0.9): "
        f"worst decrease {worst:.2e} (tol 1e-7)",
    )


def test_criterion_6_grid_reproduction():
    start = time.monotonic()
    results = {}
    for p in (0.5, 0.9):
        for n1 in range(1, 11):
            table = build_objective(n1, 1)
            for n2 in range(1, 11):
                table = build_objective(n1, n2)
                sol = solve(assemble(table, p))
                assert sol.success, (n1, n2, p, sol.status)
                results[(n1, n2, p)] = sol.objective_value
                SOLVED_POINTS.append((n1, n2, p, sol.objective_value))
    elapsed = time.monotonic() - start
    noise_copy_better = [
        (n1, n2)
        for n1 in range(1, 10)
        for n2 in range(1, 10)
        if results[(n1, n2 + 1, 0.5)] > results[(n1 + 1, n2, 0.5)]
    ]
    matches_example = (8, 2) in noise_copy_better
    report(
        6,
        elapsed < 600.0 and len(noise_copy_better) > 0,
        f"10x10 grid at p=0.5 and p=0.9 in {elapsed:.1f}s < 600s; points where "
        f"an extra noise copy beats an extra mixture copy at p=0.5: "
        f"{noise_copy_better} (existence asserted; published example (8,2) "
        f"reproduced: {matches_example}, reported only)",
    )


def test_criterion_7_structural_suites():
    # Clebsch-Gordan orthogonality for all labels <= 6
    worst_cg = 0.0
    for tj1 in range(0, 13):
        for tj2 in range(0, 13):
            tJs = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            for tM in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                rows = []
                for tJ in tJs:
                    if abs(tM) > tJ:
                        rows.append(None)
                        continue
                    rows.append(
                        np.array(
                            [
                                cg_twice(tj1, tm1, tj2, tM - tm1, tJ, tM)
                                for tm1 in range(-tj1, tj1 + 1, 2)
                                if abs(tM - tm1) <= tj2
                            ]
                        )
                    )
                for a, ra in enumerate(rows):
                    if ra is None:
                        continue
                    for b, rb in enumerate(rows[a:], start=a):
                        if rb is None:
                            continue
                        got = float(ra @ rb)
                        expect = 1.0 if a == b else 0.0
                        worst_cg = max(worst_cg, abs(got - expect))
    # multiplicity dimension count
    dimension_ok = all(
        sum(multiplicity(n1, j1) * (j1.twice + 1) for j1 in j1_values(n1)) == 2**n1
        for n1 in range(1, 13)
    )
    # trace-preservation row coefficients sum to 2
    worst_row = 0.0
    for n1, n2 in [(1, 1), (2, 1), (3, 2), (6, 6)]:
        for row in build_constraints(n1, n2):
            worst_row = max(worst_row, abs(sum(c for _, c in row.terms) - 2.0))
    # doing-nothing extraction reproduces 1 - p/2 through the objective
    worst_dn = 0.0
    for n1, n2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        w = dn_w_values(n1, n2)
        table = build_objective(n1, n2)
        for i in range(11):
            p = i / 10
            worst_dn = max(worst_dn, abs(evaluate(table, w, p) - (1 - p / 2)))
    report(
        7,
        worst_cg <= 1e-15 and dimension_ok and worst_row <= 1e-12 and worst_dn <= 1e-9,
        f"structural suites: CG orthogonality {worst_cg:.2e} (tol 1e-15); "
        f"dimension sums exact up to 12 qubits: {dimension_ok}; "
        f"TP row-coefficient sums {worst_row:.2e}; "
        f"doing-nothing extraction vs 1 - p/2: {worst_dn:.2e} (tol 1e-9)",
    )


def test_criterion_8_end_to_end_channel():
    worst_psd = 0.0
    worst_tp = 0.0
    worst_complete = 0.0
    mc_ok = True
    details = []
    for seed, (n1, n2) in enumerate([(1, 1), (2, 1)]):
        p = 0.5
        sol = solve(assemble(build_objective(n1, n2), p))
        choi = reconstruct_choi(sol, n1, n2)
        dim = 1 << (n1 + n2)
        eig_min = float(np.linalg.eigvalsh(0.5 * (choi.matrix + choi.matrix.T)).min())
        worst_psd = min(worst_psd, eig_min) if eig_min < 0 else worst_psd
        tp = float(
            np.abs(
                np.einsum("isjs->ij", choi.matrix.reshape(dim, 2, dim, 2)) - np.eye(dim)
            ).max()
        )
        worst_tp = max(worst_tp, tp)
        kraus = kraus_from_choi(choi)
        worst_complete = max(worst_complete, kraus.completeness_residual())
        est = estimate_fidelity(
            kraus, n1, n2, p, samples=100_000, sampler=HaarSampler(seed=seed + 100)
        )
        ok = est.within(sol.objective_value, n_sigma=4)
        mc_ok &= ok
        details.append(
            f"({n1},{n2}): mc {est.mean:.5f} +/- {est.std_error:.5f} vs {sol.objective_value:.5f}"
        )
    report(
        8,
        worst_psd >= -1e-7 and worst_tp <= 1e-8 and worst_complete <= 1e-8 and mc_ok,
        f"channel round trip: Choi min eig {worst_psd:.2e} (tol -1e-7), TP "
        f"{worst_tp:.2e} (tol 1e-8), Kraus completeness {worst_complete:.2e} "
        f"(tol 1e-8); Monte-Carlo within 4 sigma: {'; '.join(details)}",
    )


def test_criterion_9_two_copy_limit_regression():
    end_err = max(abs(f2inf(0.0) - 1.0), abs(f2inf(1.0) - 0.5))
    interior_err = max(abs(f2inf(p) - v) for p, v in F2INF_FROZEN.items())
    report(
        9,
        end_err <= 1e-9 and interior_err <= 1e-9,
        f"two-copy/infinite-noise curve: endpoint error {end_err:.2e}, frozen "
        f"interior regression error {interior_err:.2e} (tol 1e-9)",
    )
