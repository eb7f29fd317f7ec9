import functools
import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import CertifyingChain, block_dict, solve_certifying_every_iterate
from uqsub import objective, oracle, sdp
from uqsub.angular import j1_values, sector_blocks
from uqsub.ipm import solve_ipm
from uqsub.objective import MAX_TOTAL_QUBITS, assemble, build_objective
from uqsub.oracle import build_omega, choi_problem, twirl_objective
from uqsub.sdp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_STALLED,
    BlockSpec,
    SdpProblem,
    SdpSolution,
    check_certificate,
    check_dual,
    solve,
)


def f21_closed(p):
    if p <= 3 / 8:
        return (1 - p) * (51 + 23 * p) / 54 + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p)) + p * p / 2
    return (1 - p) * (51 + 23 * p) / 54 + p * (1 - p) / 3 + p * p / 2


cached_objective = functools.lru_cache(maxsize=None)(build_objective)

# today's fixed points of the invariants, kept beside the properties
GRID_P = (0.25, 0.5, 0.9)
# (n1, n2) with n1 + n2 below the size guard, so one more copy of either fits
SIZES_BELOW_GUARD = st.integers(2, MAX_TOTAL_QUBITS - 1).flatmap(
    lambda n: st.integers(1, n - 1).map(lambda n1: (n1, n - n1))
)


def with_examples(points):
    """Hypothesis `example`s, one per point, on the decorated test."""
    def decorate(test):
        for point in points:
            test = example(*point)(test)
        return test
    return decorate


def certified_upper(n1, n2, p):
    """F + gap at (n1, n2; p): the certified upper end of the bracket."""
    sol = solve(assemble(cached_objective(n1, n2), p))
    assert sol.status == STATUS_OPTIMAL
    return sol.objective_value + sol.gap_estimate


def assert_monotone_at(n1, n2, p):
    """F(n1, n2; p) lies below the certified upper ends at n1+1 and n2+1."""
    f = solve(assemble(cached_objective(n1, n2), p)).objective_value
    assert certified_upper(n1 + 1, n2, p) >= f - 1e-15
    assert certified_upper(n1, n2 + 1, p) >= f - 1e-15


def covariant_problem(n1, n2, p):
    return assemble(build_objective(n1, n2), p)


def random_chain_problem(rng, num_blocks):
    """Blocks of dim 1-2 in random order, their diagonal entries in rows of one
    or two entries laid along paths: each 2x2 block joins two adjacent rows,
    now and then two blocks join the same two rows, and each 1x1 block fills
    a path's end or starts a row of its own; the rows left with one entry are
    pinned.  Positive coefficients and rhs, random symmetric objective."""
    dims = [int(d) for d in rng.integers(1, 3, num_blocks)]
    pairs = [b for b, d in enumerate(dims) if d == 2]
    paths = []  # each a list of rows, each row a list of (block, index)
    while pairs:
        b, low = pairs.pop(), int(rng.integers(2))  # the entry in the lower row
        if pairs and rng.uniform() < 0.15:  # a second block on the same two rows
            c = pairs.pop()
            paths.append([[(b, low), (c, 0)], [(b, 1 - low), (c, 1)]])
        elif paths and len(paths[-1][-1]) == 1 and rng.uniform() < 0.6:
            paths[-1][-1].append((b, low))
            paths[-1].append([(b, 1 - low)])
        else:
            paths.append([[(b, low)], [(b, 1 - low)]])
    for b in (b for b, d in enumerate(dims) if d == 1):
        ends = [row for path in paths for row in path if len(row) == 1]
        if ends and rng.uniform() < 0.5:
            ends[int(rng.integers(len(ends)))].append((b, 0))
        else:
            paths.append([[(b, 0)]])
    rows = [row for k in rng.permutation(len(paths)) for row in paths[k]]
    place = [int(k) for k in rng.permutation(num_blocks)]  # where block b goes
    equalities = [
        (tuple((place[b], i, i, rng.uniform(0.2, 3.0)) for b, i in row),
         float(rng.uniform(0.2, 3.0)))
        for row in rows
    ]
    dims = [dims[b] for b in sorted(range(num_blocks), key=place.__getitem__)]
    objective = []
    for d in dims:
        a = rng.standard_normal((d, d))
        objective.append(a + a.T)
    return SdpProblem(
        blocks=[BlockSpec(name=f"b{i}", dim=d) for i, d in enumerate(dims)],
        objective=objective,
        equalities=equalities,
    )


def negative_cross_term_problem(order):
    """Two paths of rows, (b1, b1+b3, b3+b2) and (b0, b0), with negative cross
    terms; `order` lists the five rows, range(5) being path order."""
    rows = [
        (((1, 0, 0, 1.398),), 0.239),
        (((1, 1, 1, 1.247), (3, 1, 1, 2.563)), 1.785),
        (((3, 0, 0, 2.931), (2, 0, 0, 1.414)), 2.44),
        (((0, 0, 0, 1.044),), 0.483),
        (((0, 1, 1, 1.136),), 1.144),
    ]
    return SdpProblem(
        blocks=[BlockSpec(name=f"b{i}", dim=d) for i, d in enumerate([2, 2, 1, 2])],
        objective=[
            np.array([[2.555, -1.647], [-1.647, 2.647]]),
            np.array([[2.712, -0.018], [-0.018, 0.79]]),
            np.array([[0.239]]),
            np.array([[1.702, -0.871], [-0.871, -1.095]]),
        ],
        equalities=[rows[r] for r in order],
    )


def left_to_ipm(prob, rule):
    """`solve` rejects the problem naming `rule`; `solve_ipm` solves it, with
    a certificate and a dual bound that pass their checks."""
    with pytest.raises(ValueError) as raised:
        solve(prob)
    assert str(raised.value) == f"not a chain: {rule}"
    sol = solve_ipm(prob)
    assert sol.status == STATUS_OPTIMAL
    assert check_certificate(prob, sol).passed
    dual = check_dual(prob, sol.dual_multipliers)
    assert dual.passed
    assert abs(dual.dual_value - sol.objective_value) <= 1e-7
    return sol


class TestSolveCovariant:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_1_1_matches_dn_identity(self, p):
        prob = covariant_problem(1, 1, p)
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(1 - p / 2, abs=1e-8)
        assert sol.primal_residual <= 1e-9
        assert check_certificate(prob, sol).min_eigenvalue >= -1e-9

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

    @with_examples((size, p) for size in [(1, 1), (2, 2), (3, 1), (2, 3)] for p in GRID_P)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(SIZES_BELOW_GUARD, st.floats(0.0, 1.0))
    def test_lower_bound_dn(self, size, p):
        # doing nothing is a feasible channel: the certified upper end of the
        # bracket lies above its fidelity 1 - p/2
        assert certified_upper(*size, p) >= 1 - p / 2 - 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(SIZES_BELOW_GUARD, st.floats(0.0, 1.0))
    def test_monotonicity(self, size, p):
        # one more copy of either register can be discarded, so F does not fall
        assert_monotone_at(*size, p)

    @pytest.mark.parametrize("p", GRID_P)
    def test_monotonicity_small_grid(self, p):
        # the fixed points of the property above
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                assert_monotone_at(n1, n2, p)

    def test_determinism(self):
        prob = covariant_problem(2, 2, 0.37)
        a = solve(prob)
        b = solve(prob)
        assert abs(a.objective_value - b.objective_value) <= 1e-12
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)


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

    @pytest.mark.parametrize(
        "objective",
        [[[1.0, 0.0], [0.0]], [[1.0, 0.0], 0.0], np.zeros((2, 3)), np.zeros(2)],
        ids=["ragged-list", "number-for-a-row", "wrong-shape-array", "vector"],
    )
    def test_objective_not_dim_by_dim_is_rejected(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SdpProblem(
                blocks=[BlockSpec(name="x", dim=2)],
                objective=[objective],
                equalities=[(((0, 0, 0, 1.0),), 1.0), (((0, 1, 1, 1.0),), 1.0)],
            )

    @pytest.mark.parametrize("dims", [[], [0], [2, 0]], ids=["no-block", "empty", "one-empty"])
    def test_no_block_or_an_empty_one_is_rejected(self, dims):
        # solve would fail inside the IPM with numpy's own error
        with pytest.raises(ValueError, match="at least one block"):
            SdpProblem(
                blocks=[BlockSpec(name=f"b{pos}", dim=d) for pos, d in enumerate(dims)],
                objective=[np.zeros((d, d)) for d in dims],
                equalities=[],
            )

    def test_off_diagonal_term_weighs_both_entries(self):
        # X_00 = X_11 = 1 and 2 X_01 = 1: the objective 2 X_01 is pinned to 1;
        # a row on an off-diagonal entry is no chain, so the IPM solves it
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=2)],
            objective=[np.array([[0.0, 1.0], [1.0, 0.0]])],
            equalities=[
                (((0, 0, 0, 1.0),), 1.0),
                (((0, 1, 1, 1.0),), 1.0),
                (((0, 0, 1, 1.0),), 1.0),
            ],
        )
        sol = solve_ipm(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
        assert sol.blocks[0][0][1] == pytest.approx(0.5, abs=1e-7)


class TestMatrixFormat:
    """Objective matrices are nested sequences read as m[i][k]; both solvers
    return plain float lists whatever form the objective came in.  The dense
    case, which only the IPM takes, is in test_ipm.py."""

    @pytest.mark.parametrize("solver", [solve, solve_ipm], ids=["solve", "solve_ipm"])
    @pytest.mark.parametrize("prob", [covariant_problem(3, 2, 0.4)], ids=["covariant-chain"])
    def test_lists_and_arrays_give_identical_solutions(self, solver, prob):
        arrays = [np.asarray(c) for c in prob.objective]
        lists = [c.tolist() for c in arrays]
        as_lists = SdpProblem(prob.blocks, lists, prob.equalities, prob.offset)
        as_arrays = SdpProblem(prob.blocks, arrays, prob.equalities, prob.offset)
        from_lists, from_arrays = solver(as_lists), solver(as_arrays)
        assert from_lists == from_arrays
        assert from_lists.status == STATUS_OPTIMAL
        for sol in (from_lists, from_arrays):
            assert type(sol.blocks) is list
            assert all(type(x) is float for blk in sol.blocks for row in blk for x in row)
            assert all(type(y) is float for y in sol.dual_multipliers)
            assert type(sol.objective_value) is float and type(sol.gap_estimate) is float


class TestRecords:
    """The solution is a named tuple: fields, equality, repr, immutability and
    pickling as before.  The problem pickles too."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.floats(0.0, 1.0))
    def test_solution_pickles_and_is_read_only(self, n1, n2, p):
        sol = solve(covariant_problem(n1, n2, p))
        back = pickle.loads(pickle.dumps(sol))
        assert type(back) is SdpSolution and back == sol and repr(back) == repr(sol)
        assert back.dual_multipliers == sol.dual_multipliers
        # a problem compares by identity, so its pickle is judged by its solution
        assert solve(pickle.loads(pickle.dumps(covariant_problem(n1, n2, p)))) == sol
        with pytest.raises(AttributeError):
            sol.status = STATUS_INFEASIBLE
        with pytest.raises(AttributeError):
            BlockSpec("b", 2).dim = 3

    def test_solution_repr_leaves_the_multipliers_out(self):
        sol = solve(covariant_problem(2, 1, 0.5))
        assert repr(sol).startswith("SdpSolution(blocks=[[")
        assert repr(sol).endswith(f"iterations={sol.iterations}, status='optimal')")
        assert "dual_multipliers" not in repr(sol)
        assert SdpSolution([], 0.0, 0.0, 0.0, 0.0, 0, "optimal").dual_multipliers is None

    @pytest.mark.parametrize("limit", [-3, 2.5, True])
    @pytest.mark.parametrize("solver", [solve, solve_ipm])
    def test_step_limit_must_be_an_int_not_below_0(self, solver, limit):
        with pytest.raises(ValueError, match="max_iterations"):
            solver(covariant_problem(2, 1, 0.5), limit)

    def test_positional_none_is_the_default(self):
        # the form of a wrapper that passes its optional second argument on,
        # for the covariant solve and the oracle's module-global `solve`
        prob = covariant_problem(2, 2, 0.4)
        assert tuple(solve(prob, None)) == tuple(solve(prob))
        choi = choi_problem(twirl_objective(build_omega(2, 1, 0.4)))
        assert tuple(oracle.solve(choi, None)) == tuple(oracle.solve(choi))


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
        bad = [np.array(b) for b in sol.blocks]
        pos = next(i for i, spec in enumerate(prob.blocks) if spec.dim == 2)
        bad[pos][0, 1] = bad[pos][1, 0] = math.sqrt(
            max(bad[pos][0, 0] * bad[pos][1, 1], 0.0) + 1e-3
        )
        broken = SdpSolution(
            blocks=bad,
            objective_value=sol.objective_value,
            primal_residual=sol.primal_residual,
            dual_residual=sol.dual_residual,
            gap_estimate=sol.gap_estimate,
            iterations=sol.iterations,
            status=sol.status,
        )
        report = check_certificate(prob, broken)
        assert not report.passed
        assert prob.blocks[pos].name in report.failed_blocks

    def test_2x2_block_with_a_negative_eigenvalue_fails(self):
        # eigenvalues +-9e-5, though b^2 = 8.1e-9 lies within psd_tol of a c = 0
        prob = SdpProblem(
            [BlockSpec("b", 2)], [np.zeros((2, 2))], [(((0, 0, 0, 1.0), (0, 1, 1, 1.0)), 0.0)]
        )
        sol = SdpSolution([[[0.0, 9e-5], [9e-5, 0.0]]], 0.0, 0.0, 0.0, 0.0, 0, STATUS_OPTIMAL)
        report = check_certificate(prob, sol)
        assert not report.passed
        assert report.failed_blocks == ["b"] and report.primal_residual == 0.0
        assert report.min_eigenvalue == pytest.approx(-9e-5, rel=1e-12)

    def test_dense_choi_block_and_a_row_residual(self):
        # the oracle's Choi problem has blocks larger than 2x2
        prob = choi_problem(twirl_objective(build_omega(2, 1, 0.4)))
        sol = oracle.solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert max(spec.dim for spec in prob.blocks) > 2
        assert check_certificate(prob, sol).passed
        shifted = [np.array(b) for b in sol.blocks]
        big = max(range(len(shifted)), key=lambda k: len(shifted[k]))
        shifted[big] = shifted[big] + 1e-3 * np.eye(len(shifted[big]))  # PSD, rows broken
        report = check_certificate(prob, sol._replace(blocks=shifted))
        assert not report.passed
        assert report.failed_blocks == [] and report.primal_residual > 1e-8
        broken = [np.array(b) for b in sol.blocks]
        broken[big] = broken[big] - 1e-3 * np.eye(len(broken[big]))  # no longer PSD
        report = check_certificate(prob, sol._replace(blocks=broken))
        assert prob.blocks[big].name in report.failed_blocks

    def test_solution_blocks_must_match_the_problem(self):
        # an extra block used to be dropped unread and a missing one read as zeros
        prob = covariant_problem(2, 1, 0.5)
        sol = solve(prob)
        pos = next(i for i, spec in enumerate(prob.blocks) if spec.dim == 2)
        for blocks in (
            sol.blocks + [[[-5.0]]],
            sol.blocks[:-1],
            sol.blocks[:pos] + [[[1.0]]] + sol.blocks[pos + 1:],
        ):
            with pytest.raises(ValueError, match="one dim x dim block for each of"):
                check_certificate(prob, sol._replace(blocks=blocks))

    def test_multipliers_must_match_the_rows(self):
        prob = covariant_problem(2, 1, 0.5)
        y = solve(prob).dual_multipliers
        assert len(y) == prob.num_constraints == 3
        for multipliers, count in ((y[:2], "2"), (y + [0.0], "4"), (None, "no")):
            with pytest.raises(ValueError, match=f"^{count} multipliers for 3 rows$"):
                check_dual(prob, multipliers)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_entries_that_are_not_finite_fail(self, bad):
        # eigvalsh bounds no such block: [[nan, 0], [0, 1]] gives [0, -0]
        prob = covariant_problem(2, 1, 0.5)
        sol = solve(prob)
        pos = next(i for i, spec in enumerate(prob.blocks) if spec.dim == 2)
        off, diag = [np.array(b) for b in sol.blocks], [np.array(b) for b in sol.blocks]
        off[pos][0, 1] = off[pos][1, 0] = bad
        diag[pos][0, 0] = bad  # also read by a row
        for blocks in (off, diag):
            report = check_certificate(prob, sol._replace(blocks=blocks))
            assert not report.passed
            assert report.failed_blocks == [prob.blocks[pos].name]
            assert math.isnan(report.min_eigenvalue)
        assert not math.isfinite(report.primal_residual)
        for r in range(prob.num_constraints):
            y = sol.dual_multipliers.copy()
            y[r] = bad
            dual = check_dual(prob, y)
            assert not dual.passed and dual.failed_blocks, r
            assert math.isnan(dual.min_eigenvalue), r
        # a row without terms leaves every Z_b finite, but not the dual value
        free = SdpProblem(
            [BlockSpec("x", 1)], [[[0.0]]], [(((0, 0, 0, 1.0),), 1.0), ((), 1.0)]
        )
        dual = check_dual(free, [1.0, bad])
        assert not dual.passed and dual.failed_blocks == [] and dual.min_eigenvalue == 1.0

    def test_reports_hold_plain_python_values(self):
        # the traced benchmark writes `.passed` into spans that json.dump saves
        covariant = covariant_problem(2, 1, 0.5)
        choi = choi_problem(twirl_objective(build_omega(2, 1, 0.4)))
        for prob, sol in ((covariant, solve(covariant)), (choi, oracle.solve(choi))):
            for report in (check_certificate(prob, sol), check_dual(prob, sol.dual_multipliers)):
                assert report.passed
                assert [type(value) for value in report] == [bool, float, float, list]
                assert json.loads(json.dumps(report._asdict())) == report._asdict()

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
        # a method on angles with sin and cos of either sign has a local
        # maximum here, with sin < 0 in block b3 (gap 2e-3); in s = sin^2 each
        # cross term takes the sign of its C and the objective is concave
        prob = negative_cross_term_problem(range(5))
        sol = solve(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.gap_estimate <= 1e-12
        assert sol.objective_value == pytest.approx(solve_ipm(prob).objective_value, abs=1e-8)

    def test_tolerance_below_round_off_reports_stalled(self, monkeypatch):
        # the ascent closes its bracket, but a row residual of 1.1e-16 misses
        # FEAS_TOL, so the certificate judged against it fails
        prob = covariant_problem(2, 1, 0.5)
        value = solve(prob).objective_value
        monkeypatch.setattr(sdp, "FEAS_TOL", 1e-300)
        sol = solve(prob)
        assert sol.status == STATUS_STALLED
        assert 0.0 < sol.primal_residual <= 1e-15
        assert sol.objective_value == value

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

    def test_ipm_solves_the_problems_that_solve_rejects(self):
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
        # two paths whose rows are listed out of path order
        shuffled = negative_cross_term_problem((2, 0, 3, 1, 4))
        rules = [
            "block 0 is 3x3, larger than 2x2",
            "entry 0 of block 0 is in two rows",
            "row 0 needs diagonal terms with coefficient > 0, not 1.0 at (0, 1) of block 0",
            "the entries of block 0 lie in rows 2 and 4, which are not adjacent",
        ]
        values = [left_to_ipm(prob, rule).objective_value
                  for prob, rule in zip((dense, shared, offdiag, shuffled), rules)]
        in_order = solve(negative_cross_term_problem(range(5))).objective_value
        assert values[1:] == pytest.approx([2.0, -1.25, in_order], abs=1e-7)

    def test_dense_problem_is_rejected_without_numpy(self):
        # the rules need only the standard library: with numpy blocked, the
        # rejection still names its rule
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from uqsub.sdp import BlockSpec, SdpProblem, solve\n"
            "rows = [(((0, i, i, 1.0),), 1.0) for i in range(3)]\n"
            "dense = SdpProblem([BlockSpec('dense', 3)], [[[1.0, 0.5, 0.0]] * 3], rows)\n"
            "try:\n"
            "    solve(dense)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "not a chain: block 0 is 3x3, larger than 2x2\n"

    @pytest.mark.parametrize(
        "dims, equalities, rule",
        [
            ([1], [], "the problem has no equality rows"),
            ([3], [(((0, i, i, 1.0),), 1.0) for i in range(3)], "block 0 is 3x3, larger than 2x2"),
            (
                [1],
                [(((0, 0, 0, 1.0),), 0.0)],
                "row 0 needs rhs > 0 and one or two terms, not rhs 0.0 and 1 terms",
            ),
            (
                [1, 1, 1],
                [(((0, 0, 0, 1.0), (1, 0, 0, 1.0), (2, 0, 0, 1.0)), 1.0)],
                "row 0 needs rhs > 0 and one or two terms, not rhs 1.0 and 3 terms",
            ),
            (
                [2],
                [(((0, 0, 0, 1.0),), 1.0), (((0, 0, 1, 1.0), (0, 1, 1, 1.0)), 1.0)],
                "row 1 needs diagonal terms with coefficient > 0, not 1.0 at (0, 1) of block 0",
            ),
            (
                [1],
                [(((0, 0, 0, -1.0),), 1.0)],
                "row 0 needs diagonal terms with coefficient > 0, not -1.0 at (0, 0) of block 0",
            ),
            (
                [1, 1],
                [(((0, 0, 0, 1.0), (1, 0, 0, 1.0)), 2.0), (((0, 0, 0, 1.0),), 1.0)],
                "entry 0 of block 0 is in two rows",
            ),
            ([2], [(((0, 0, 0, 1.0),), 1.0)], "entry 1 of block 0 is in no row"),
            (
                [2, 1],
                [(((0, 0, 0, 1.0),), 1.0), (((1, 0, 0, 1.0),), 1.0), (((0, 1, 1, 1.0),), 1.0)],
                "the entries of block 0 lie in rows 0 and 2, which are not adjacent",
            ),
        ],
        ids=[
            "no-rows", "larger-than-2x2", "rhs-not-positive", "three-terms", "off-diagonal-term",
            "coefficient-not-positive", "entry-in-two-rows", "entry-in-no-row",
            "block-on-rows-0-and-2",
        ],
    )
    def test_not_a_chain(self, dims, equalities, rule):
        # one problem per rule, which the message names
        prob = SdpProblem(
            blocks=[BlockSpec(f"b{i}", d) for i, d in enumerate(dims)],
            objective=[np.eye(d) for d in dims],
            equalities=equalities,
        )
        with pytest.raises(ValueError) as raised:
            solve(prob)
        assert str(raised.value) == f"not a chain: {rule}"

    def test_random_chain_problems_take_the_chain_path(self):
        for seed in range(300):
            prob = random_chain_problem(np.random.default_rng(seed), 1 + seed % 12)
            entries, members, runs = sdp._chain_entries(prob)
            assert sorted(e for row in members for e in row) == list(range(len(entries))), seed
            assert [r for run in runs for r in run] == list(range(prob.num_constraints)), seed


def chain_scale(prob):
    """sum_e |C_ee| rhs/a + sum_b 2|C_b| sqrt(x_e x_f) at full rows: the size of
    the objective that the chain solver's round-off targets scale with."""
    x = {(pos, i): rhs / a for terms, rhs in prob.equalities for pos, i, _, a in terms}
    scale = sum(abs(prob.objective[pos][i][i]) * v for (pos, i), v in x.items())
    return scale + sum(
        2 * abs(c[0][1]) * math.sqrt(x[pos, 0] * x[pos, 1])
        for pos, c in enumerate(prob.objective)
        if len(c) == 2
    )


class TestChainShapes:
    """Chain shapes beyond a plain path: two blocks on the same two rows, pinned
    rows; and the covariant layout, one run of rows per j1. A cycle of three or
    more rows and a block inside one row are not chains: `solve` rejects them,
    and the IPM solves them."""

    @staticmethod
    def closes_its_bracket(prob):
        sol = solve(prob)
        scale = 1.0 + abs(sol.objective_value)
        dual = check_dual(prob, sol.dual_multipliers)
        assert sol.status == STATUS_OPTIMAL
        assert check_certificate(prob, sol).passed
        assert dual.passed
        assert sol.gap_estimate <= 1e-10 * scale
        assert -1e-12 * scale <= dual.dual_value - sol.objective_value <= 1e-10 * scale
        assert sol.objective_value == pytest.approx(solve_ipm(prob).objective_value, abs=1e-8)
        return sol

    def test_two_blocks_on_the_same_two_rows(self):
        # rows (b0[0], b1[0]) and (b0[1], b1[1]) form a cycle of two rows, whose
        # two blocks add to one link of the tridiagonal system
        prob = SdpProblem(
            blocks=[BlockSpec("b0", 2), BlockSpec("b1", 2)],
            objective=[np.array([[1.0, 0.8], [0.8, 0.3]]), np.array([[0.2, -0.9], [-0.9, 1.1]])],
            equalities=[
                (((0, 0, 0, 1.0), (1, 0, 0, 2.0)), 1.0),
                (((0, 1, 1, 1.5), (1, 1, 1, 0.5)), 2.0),
            ],
        )
        self.closes_its_bracket(prob)

    def test_three_rows_in_a_cycle(self):
        # blocks b0, b1, b2 join rows (0, 1), (1, 2) and (2, 0)
        prob = SdpProblem(
            blocks=[BlockSpec(f"b{i}", 2) for i in range(3)],
            objective=[
                np.array([[0.4, 1.2], [1.2, -0.3]]),
                np.array([[-0.5, 0.7], [0.7, 0.9]]),
                np.array([[1.3, -1.1], [-1.1, 0.1]]),
            ],
            equalities=[
                (((0, 0, 0, 1.0), (2, 1, 1, 0.7)), 1.3),
                (((0, 1, 1, 2.0), (1, 0, 0, 1.0)), 0.8),
                (((1, 1, 1, 0.5), (2, 0, 0, 1.5)), 1.1),
            ],
        )
        left_to_ipm(prob, "the entries of block 2 lie in rows 2 and 0, which are not adjacent")

    def test_block_inside_one_row(self):
        # X_00 + X_11 = 1: the maximum is the top eigenvalue of C
        c = np.array([[0.3, -0.7], [-0.7, 1.2]])
        prob = SdpProblem(
            blocks=[BlockSpec("b", 2)],
            objective=[c],
            equalities=[(((0, 0, 0, 1.0), (0, 1, 1, 1.0)), 1.0)],
        )
        rule = "the entries of block 0 lie in rows 0 and 0, which are not adjacent"
        sol = left_to_ipm(prob, rule)
        assert sol.objective_value == pytest.approx(np.linalg.eigvalsh(c).max(), abs=1e-7)

    def test_every_row_pinned(self):
        c = np.array([[0.5, -0.4], [-0.4, -1.0]])
        prob = SdpProblem(
            blocks=[BlockSpec("b0", 2), BlockSpec("b1", 1)],
            objective=[c, np.array([[-2.0]])],
            equalities=[
                (((0, 0, 0, 1.0),), 1.0),
                (((0, 1, 1, 0.5),), 1.0),
                (((1, 0, 0, 4.0),), 2.0),
            ],
        )
        sol = self.closes_its_bracket(prob)
        assert sol.iterations == 0
        assert sol.objective_value == pytest.approx(0.5 - 2.0 + 0.8 * math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_no_eigendecomposition(self, monkeypatch):
        prob = covariant_problem(6, 6, 0.4)

        def refuse(*args, **kwargs):
            raise AssertionError("the chain solver decomposed a matrix")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        sol = solve(prob)
        monkeypatch.undo()
        assert sol.status == STATUS_OPTIMAL
        assert check_certificate(prob, sol).passed

    @staticmethod
    def assert_one_run_per_j1(prob, n1, n2):
        """The problem is a chain, and the runs of rows that its 2x2 blocks
        join are the rows of each j1 in turn, j1 descending."""
        entries, _, runs = sdp._chain_entries(prob)
        block_j1 = [j1 for _, j1, _ in sector_blocks(n1, n2)]
        row_j1 = {r: block_j1[pos] for pos, _, r, _ in entries}
        assert [r for run in runs for r in run] == list(range(prob.num_constraints)), (n1, n2)
        assert [{row_j1[r] for r in run} for run in runs] == [{j} for j in j1_values(n1)], (n1, n2)

    def test_covariant_layout_is_one_run_per_j1(self):
        sizes = [(n1, n - n1) for n in range(2, MAX_TOTAL_QUBITS + 1) for n1 in range(1, n)]
        assert len(sizes) == 276
        for n1, n2 in sizes:
            # the blocks and rows `assemble` writes for every p
            specs, _, rows = objective._layout(n1, n2)
            zero = [[[0.0] * spec.dim for _ in range(spec.dim)] for spec in specs]
            self.assert_one_run_per_j1(SdpProblem(list(specs), zero, rows), n1, n2)

    @pytest.mark.parametrize("n1, n2", [(40, 40), (2, 400)])
    def test_covariant_layout_beyond_the_size_guard(self, monkeypatch, n1, n2):
        monkeypatch.setattr(objective, "MAX_TOTAL_QUBITS", n1 + n2)
        self.assert_one_run_per_j1(assemble(build_objective(n1, n2), 0.5), n1, n2)


class TestLargeChains:
    """Beyond the enumeration guard, each j1 chain still closes its bracket at
    round-off in a few Newton steps."""

    @pytest.mark.parametrize(
        "n, value, gap",
        # the value and gap an earlier solver reported, which bracket the optimum
        [(30, 0.9662159490010626, 6.24e-12), (40, 0.9746263475123954, 4.38e-12)],
    )
    def test_half_mixing_certified(self, monkeypatch, n, value, gap):
        monkeypatch.setattr(objective, "MAX_TOTAL_QUBITS", 2 * n)
        prob = assemble(build_objective(n, n), 0.5)
        start = time.perf_counter()
        sol = solve(prob)
        elapsed = time.perf_counter() - start
        assert sol.status == STATUS_OPTIMAL
        assert sol.iterations <= 50
        assert elapsed <= 0.5
        eps = np.finfo(float).eps
        assert sol.gap_estimate <= 4 * eps * prob.num_constraints * chain_scale(prob)
        assert check_certificate(prob, sol).passed
        assert check_dual(prob, sol.dual_multipliers).passed
        assert value - 1e-12 <= sol.objective_value <= value + gap + 1e-12


def has_cycle(prob):
    """Whether some component of the chain's row graph, joined by the 2x2
    blocks that span two rows, is a cycle: as many links as rows."""
    owner = {(pos, i): r for r, (terms, _) in enumerate(prob.equalities) for pos, i, _, _ in terms}
    root = list(range(prob.num_constraints))

    def find(r):
        while root[r] != r:
            r = root[r]
        return r

    for pos, spec in enumerate(prob.blocks):
        if spec.dim == 2:
            a, b = find(owner[pos, 0]), find(owner[pos, 1])
            if a == b and owner[pos, 0] != owner[pos, 1]:
                return True
            root[a] = b
    return False


class TestDeferredCertificates:
    """The ascent certifies an iterate only where its bracket can close; the
    reference certifies every trial point, and every solution is the same."""

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.375, 0.5, 0.95, 1.0])
    def test_covariant_grid_as_the_reference(self, p):
        for n1 in range(1, 13):
            for n2 in range(1, 13):
                prob = assemble(cached_objective(n1, n2), p)
                assert tuple(solve(prob)) == tuple(solve_certifying_every_iterate(prob)), (n1, n2)

    @pytest.mark.parametrize("n1, n2", [(23, 1), (1, 23)])
    def test_longest_chains_as_the_reference(self, n1, n2):
        prob = assemble(cached_objective(n1, n2), 0.5)
        assert tuple(solve(prob)) == tuple(solve_certifying_every_iterate(prob))

    @pytest.mark.parametrize("config", [{"max_iterations": k} for k in (0, 1, 3)])
    @pytest.mark.parametrize("n1, n2", [(10, 8), (7, 5), (12, 12)])
    def test_configs_as_the_reference(self, n1, n2, config):
        prob = assemble(cached_objective(n1, n2), 0.95)
        assert tuple(solve(prob, **config)) == tuple(solve_certifying_every_iterate(prob, **config))

    def test_random_chain_problems_as_the_reference(self):
        cycles = 0
        for seed in range(300):
            prob = random_chain_problem(np.random.default_rng(seed), 1 + seed % 12)
            cycles += has_cycle(prob)
            assert tuple(solve(prob)) == tuple(solve_certifying_every_iterate(prob)), seed
        assert cycles

    def test_stall_certifies_the_point_it_returns(self, monkeypatch):
        prob = covariant_problem(10, 10, 0.95)
        for chain in (sdp._Chain, CertifyingChain):
            monkeypatch.setattr(chain, "search", lambda *args: None)
        sol = solve(prob)
        assert sol.status == sdp.STATUS_STALLED
        assert tuple(sol) == tuple(solve_certifying_every_iterate(prob))
        dual = check_dual(prob, sol.dual_multipliers)
        assert dual.passed
        assert dual.dual_value - sol.objective_value == pytest.approx(sol.gap_estimate, abs=1e-12)

    def test_fewer_certificates_on_the_grid(self, monkeypatch):
        counts = {}
        certificate = sdp._Chain.certificate

        def counted(chain, t):
            counts[type(chain)] = counts.get(type(chain), 0) + 1
            return certificate(chain, t)

        monkeypatch.setattr(sdp._Chain, "certificate", counted)
        for n1 in range(1, 11):
            for n2 in range(1, 11):
                prob = assemble(cached_objective(n1, n2), 0.4)
                sol = solve(prob)
                assert sol.iterations == solve_certifying_every_iterate(prob).iterations
        assert counts[sdp._Chain] <= 700
        assert counts[CertifyingChain] > 2000
