import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import block_dict
from uqsub import sdp
from uqsub.objective import assemble, build_objective
from uqsub.sdp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    BlockSpec,
    SdpProblem,
    SolverConfig,
    SdpSolution,
    check_certificate,
    check_dual,
    solve,
    solve_ipm,
)


def f21_closed(p):
    if p <= 3 / 8:
        return (1 - p) * (51 + 23 * p) / 54 + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p)) + p * p / 2
    return (1 - p) * (51 + 23 * p) / 54 + p * (1 - p) / 3 + p * p / 2


cached_objective = functools.lru_cache(maxsize=None)(build_objective)


def covariant_problem(n1, n2, p):
    return assemble(build_objective(n1, n2), p)


def random_chain_problem(rng, num_blocks):
    """Blocks of dim 1-2, diagonal entries paired at random into rows of one or
    two entries with positive coefficients and rhs, random symmetric objective."""
    dims = [int(d) for d in rng.integers(1, 3, num_blocks)]
    entries = [(b, i) for b, d in enumerate(dims) for i in range(d)]
    order = rng.permutation(len(entries))
    equalities = []
    k = 0
    while k < len(order):
        size = 1 if k == len(order) - 1 or rng.uniform() < 0.25 else 2
        terms = []
        for j in order[k : k + size]:
            b, i = entries[j]
            terms.append((b, i, i, rng.uniform(0.2, 3.0)))
        equalities.append((tuple(terms), float(rng.uniform(0.2, 3.0))))
        k += size
    objective = []
    for d in dims:
        a = rng.standard_normal((d, d))
        objective.append(a + a.T)
    return SdpProblem(
        blocks=[BlockSpec(name=f"b{i}", dim=d) for i, d in enumerate(dims)],
        objective=objective,
        equalities=equalities,
    )


class TestSolveCovariant:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_1_1_matches_dn_identity(self, p):
        sol = solve(covariant_problem(1, 1, p))
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(1 - p / 2, abs=1e-8)
        assert sol.primal_residual <= 1e-9
        assert sol.min_eigenvalue >= -1e-9

    def test_2_1_optimum_and_blocks_at_half(self):
        prob = covariant_problem(2, 1, 0.5)
        sol = solve(prob)
        assert sol.objective_value == pytest.approx(0.787037037037, abs=1e-7)
        blocks = block_dict(sol, prob)
        q1 = blocks["q=1,j1=1"]  # rows ordered j = 1/2, 3/2
        assert q1[0, 0] == pytest.approx(2 / 3, abs=1e-5)
        assert q1[1, 1] == pytest.approx(4 / 3, abs=1e-5)
        assert q1[0, 1] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-5)
        assert blocks["q=2,j1=1"][0, 0] == pytest.approx(0.0, abs=1e-5)
        assert blocks["q=1,j1=0"][0, 0] == pytest.approx(2 / 3, abs=1e-5)
        assert blocks["q=0,j1=0"][0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_2_1_closed_form_on_grid_with_branch_point(self):
        table = build_objective(2, 1)
        for p in list(np.linspace(0, 1, 21)) + [3 / 8 - 1e-9, 3 / 8, 3 / 8 + 1e-9]:
            sol = solve(assemble(table, p))
            assert sol.status == STATUS_OPTIMAL
            assert sol.objective_value == pytest.approx(f21_closed(p), abs=1e-6), p

    def test_zero_objective_is_feasible_baseline(self):
        prob = covariant_problem(2, 1, 0.4)
        prob = SdpProblem(
            blocks=prob.blocks,
            objective=[np.zeros_like(c) for c in prob.objective],
            equalities=prob.equalities,
            offset=0.0,
        )
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-8)
        assert sol.primal_residual <= 1e-9

    def test_lower_bound_dn(self):
        for n1, n2 in [(1, 1), (2, 2), (3, 1), (2, 3)]:
            for p in (0.25, 0.5, 0.9):
                sol = solve(covariant_problem(n1, n2, p))
                assert sol.objective_value >= 1 - p / 2 - 1e-8

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    def test_monotonicity_small_grid(self, p):
        vals = {}
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                vals[(n1, n2)] = solve(covariant_problem(n1, n2, p)).objective_value
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                assert vals[(n1 + 1, n2)] >= vals[(n1, n2)] - 1e-7
                assert vals[(n1, n2 + 1)] >= vals[(n1, n2)] - 1e-7

    def test_determinism(self):
        prob = covariant_problem(2, 2, 0.37)
        a = solve(prob, SolverConfig())
        b = solve(prob, SolverConfig())
        assert abs(a.objective_value - b.objective_value) <= 1e-12
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_solution_json(self):
        import json

        sol = solve(covariant_problem(1, 1, 0.5))
        doc = json.loads(sol.to_json())
        assert doc["schema"] == "uqsub.sdp_solution.v1"
        assert doc["status"] == "optimal"
        assert doc["objective_value"] == pytest.approx(0.75, abs=1e-7)
        assert len(doc["blocks"]) == 2


class TestSolveGeneric:
    def test_single_dense_block_with_trace_constraint(self):
        # maximize <C, X> with tr X = 1: optimum is the top eigenvalue of C
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        c = 0.5 * (a + a.T)
        prob = SdpProblem(
            blocks=[BlockSpec(name="dense", dim=6)],
            objective=[c],
            equalities=[(tuple((0, i, i, 1.0) for i in range(6)), 1.0)],
        )
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(np.linalg.eigvalsh(c).max(), abs=1e-7)

    def test_infeasible_equalities_are_reported(self):
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=1)],
            objective=[np.zeros((1, 1))],
            equalities=[(((0, 0, 0, 1.0),), 1.0), (((0, 0, 0, 1.0),), 2.0)],
        )
        sol = solve(prob)
        assert sol.status == STATUS_INFEASIBLE

    def test_psd_infeasible_is_reported(self):
        # X >= 0 scalar with constraint -X = 1 is affinely fine but PSD-infeasible
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=1)],
            objective=[np.zeros((1, 1))],
            equalities=[(((0, 0, 0, -1.0),), 1.0)],
        )
        sol = solve(prob)
        assert sol.status != STATUS_OPTIMAL


class TestProblem:
    @pytest.mark.parametrize(
        "term",
        [(1, 0, 0, 1.0), (-1, 0, 0, 1.0), (0, 2, 0, 1.0), (0, 0, 2, 1.0), (0, -1, 0, 1.0)],
        ids=["block", "negative-block", "i", "k", "negative-i"],
    )
    def test_term_outside_its_block_is_rejected(self, term):
        with pytest.raises(ValueError, match="outside"):
            SdpProblem(
                blocks=[BlockSpec(name="x", dim=2)],
                objective=[np.zeros((2, 2))],
                equalities=[(((0, 0, 0, 1.0),), 1.0), ((term,), 1.0)],
            )

    @pytest.mark.parametrize(
        "objective", [[np.eye(1)], [np.eye(1), np.eye(2)], [np.eye(1), np.eye(1), np.eye(1)]],
        ids=["too-few", "wrong-shape", "too-many"],
    )
    def test_objective_not_matching_the_blocks_is_rejected(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SdpProblem(
                blocks=[BlockSpec(name="a", dim=1), BlockSpec(name="b", dim=1)],
                objective=objective,
                equalities=[(((0, 0, 0, 1.0),), 1.0), (((1, 0, 0, 1.0),), 1.0)],
            )

    def test_off_diagonal_term_weighs_both_entries(self):
        # X_00 = X_11 = 1 and 2 X_01 = 1: the objective 2 X_01 is pinned to 1
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=2)],
            objective=[np.array([[0.0, 1.0], [1.0, 0.0]])],
            equalities=[
                (((0, 0, 0, 1.0),), 1.0),
                (((0, 1, 1, 1.0),), 1.0),
                (((0, 0, 1, 1.0),), 1.0),
            ],
        )
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
        assert sol.blocks[0][0, 1] == pytest.approx(0.5, abs=1e-7)


class TestCertificate:
    def test_feasible_solution_passes(self):
        prob = covariant_problem(2, 1, 0.6)
        sol = solve(prob)
        report = check_certificate(prob, sol)
        assert report.passed
        assert report.primal_residual <= 1e-8

    def test_constructed_violation_names_block(self):
        prob = covariant_problem(2, 1, 0.6)
        sol = solve(prob)
        bad = [b.copy() for b in sol.blocks]
        pos = next(i for i, spec in enumerate(prob.blocks) if spec.dim == 2)
        bad[pos][0, 1] = bad[pos][1, 0] = math.sqrt(
            max(bad[pos][0, 0] * bad[pos][1, 1], 0.0) + 1e-3
        )
        broken = SdpSolution(
            blocks=bad,
            objective_value=sol.objective_value,
            primal_residual=sol.primal_residual,
            dual_residual=sol.dual_residual,
            min_eigenvalue=sol.min_eigenvalue,
            gap_estimate=sol.gap_estimate,
            iterations=sol.iterations,
            status=sol.status,
        )
        report = check_certificate(prob, broken)
        assert not report.passed
        assert prob.blocks[pos].name in report.failed_blocks

    def test_cauchy_schwarz_tight_at_interior_maximizer(self):
        # below the branch point the cross term saturates collinearity
        prob = covariant_problem(2, 1, 0.25)
        sol = solve(prob)
        blk = block_dict(sol, prob)["q=1,j1=1"]
        a, c, b = blk[0, 0], blk[1, 1], blk[0, 1]
        assert b * b - a * c == pytest.approx(0.0, abs=1e-8)


class TestChainSolver:
    """The covariant problem is solved by the chain method; the IPM is the reference."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        sizes=st.integers(1, 9).flatmap(lambda n1: st.tuples(st.just(n1), st.integers(1, 10 - n1))),
        p=st.floats(0.0, 1.0),
    )
    def test_matches_ipm_with_closed_bracket(self, sizes, p):
        n1, n2 = sizes
        prob = covariant_problem(n1, n2, p)
        chain = solve(prob)
        reference = solve_ipm(prob)
        assert chain.status == STATUS_OPTIMAL
        assert abs(chain.objective_value - reference.objective_value) <= 1e-9
        assert chain.objective_value >= reference.objective_value - 1e-12
        assert chain.objective_value >= 1 - p / 2 - 1e-12
        assert check_certificate(prob, chain).passed
        assert chain.gap_estimate <= 1e-10
        dual = check_dual(prob, chain.dual_multipliers)
        assert dual.passed
        assert chain.objective_value - 1e-12 <= dual.dual_value <= chain.objective_value + 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        sizes=st.integers(1, 8).flatmap(lambda n1: st.tuples(st.just(n1), st.integers(1, 9 - n1))),
        p=st.floats(0.0, 1.0),
    )
    def test_one_more_copy_never_hurts(self, sizes, p):
        # an extra mixture or noise copy can always be discarded
        n1, n2 = sizes
        value = solve(assemble(cached_objective(n1, n2), p)).objective_value
        more_a = solve(assemble(cached_objective(n1 + 1, n2), p)).objective_value
        more_b = solve(assemble(cached_objective(n1, n2 + 1), p)).objective_value
        assert more_a >= value - 1e-12
        assert more_b >= value - 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.375, 0.5, 0.95, 1.0])
    def test_10x10_grid_certified(self, p):
        for n1 in range(1, 11):
            for n2 in range(1, 11):
                prob = covariant_problem(n1, n2, p)
                sol = solve(prob)
                assert sol.status == STATUS_OPTIMAL, (n1, n2)
                assert sol.gap_estimate <= 1e-10, (n1, n2)
                assert check_certificate(prob, sol).passed, (n1, n2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), num_blocks=st.integers(1, 12))
    def test_random_chain_problems_close_the_bracket(self, seed, num_blocks):
        prob = random_chain_problem(np.random.default_rng(seed), num_blocks)
        sol = solve(prob)
        dual = check_dual(prob, sol.dual_multipliers)
        scale = 1.0 + abs(sol.objective_value)
        assert sol.status == STATUS_OPTIMAL
        assert check_certificate(prob, sol).passed
        assert dual.passed
        assert -1e-12 * scale <= dual.dual_value - sol.objective_value <= 1e-10 * scale
        reference = solve_ipm(prob)
        if reference.success:
            assert sol.objective_value >= reference.objective_value - 1e-7 * scale

    def test_no_local_maximum_with_a_negative_cross_term(self):
        # without folding the angles into [0, pi/2], Newton stops here at a
        # maximum of the sign pattern with sin < 0 in block b3 (gap 2e-3)
        prob = SdpProblem(
            blocks=[BlockSpec(name=f"b{i}", dim=d) for i, d in enumerate([2, 2, 1, 2])],
            objective=[
                np.array([[2.555, -1.647], [-1.647, 2.647]]),
                np.array([[2.712, -0.018], [-0.018, 0.79]]),
                np.array([[0.239]]),
                np.array([[1.702, -0.871], [-0.871, -1.095]]),
            ],
            equalities=[
                (((3, 0, 0, 2.931), (2, 0, 0, 1.414)), 2.44),
                (((1, 0, 0, 1.398),), 0.239),
                (((0, 0, 0, 1.044),), 0.483),
                (((1, 1, 1, 1.247), (3, 1, 1, 2.563)), 1.785),
                (((0, 1, 1, 1.136),), 1.144),
            ],
        )
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.gap_estimate <= 1e-12
        assert sol.objective_value == pytest.approx(solve_ipm(prob).objective_value, abs=1e-8)

    def test_lowered_multiplier_breaks_dual_feasibility(self):
        prob = covariant_problem(2, 2, 0.4)
        sol = solve(prob)
        assert check_dual(prob, sol.dual_multipliers).passed
        for r in range(prob.num_constraints):
            lowered = sol.dual_multipliers.copy()
            lowered[r] -= 1e-3
            report = check_dual(prob, lowered)
            assert not report.passed, r
            assert report.min_eigenvalue < -1e-5

    def test_non_chain_problems_go_to_ipm(self, monkeypatch):
        calls = []

        def recording_ipm(problem, config=None):
            calls.append(problem)
            return solve_ipm(problem, config)

        monkeypatch.setattr(sdp, "solve_ipm", recording_ipm)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        # dense 3x3 block with unit diagonal: every entry in its own row
        dense = SdpProblem(
            blocks=[BlockSpec(name="dense", dim=3)],
            objective=[a + a.T],
            equalities=[(((0, i, i, 1.0),), 1.0) for i in range(3)],
        )
        # x sits in both rows: x + y = 2 and x = 1
        shared = SdpProblem(
            blocks=[BlockSpec(name="x", dim=1), BlockSpec(name="y", dim=1)],
            objective=[np.eye(1), np.eye(1)],
            equalities=[(((0, 0, 0, 1.0), (1, 0, 0, 1.0)), 2.0), (((0, 0, 0, 1.0),), 1.0)],
        )
        # 2 X_01 = 1 and X_11 = 1: a row on an off-diagonal entry, optimum at X_00 = 1/4
        offdiag = SdpProblem(
            blocks=[BlockSpec(name="x", dim=2)],
            objective=[-np.eye(2)],
            equalities=[(((0, 0, 1, 1.0),), 1.0), (((0, 1, 1, 1.0),), 1.0)],
        )
        for prob in (dense, shared, offdiag):
            sol = solve(prob)
            assert calls[-1] is prob
            assert sol.status == STATUS_OPTIMAL
        assert solve(shared).objective_value == pytest.approx(2.0, abs=1e-7)
        assert solve(offdiag).objective_value == pytest.approx(-1.25, abs=1e-7)
        calls.clear()
        solve(covariant_problem(2, 1, 0.5))
        assert calls == []
