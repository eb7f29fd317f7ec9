"""The IPM's term-format row operators against the dense-stack reference,
its step-length test against the assembled block-diagonal matrix, its
per-stack smallest eigenvalues against one eigvalsh per block, its exit
when the Schur solve fails, and its answers and statuses on problems that
are no chain."""
import numpy as np
import pytest

from references import DenseInstance
from uqsub.ipm import _Instance, _inverse_root, _max_step, solve_ipm
from uqsub.objective import assemble, build_objective
from uqsub.oracle import build_omega, choi_problem, twirl_objective
from uqsub.sdp import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    STATUS_STALLED,
    BlockSpec,
    SdpProblem,
    check_certificate,
    solve,
)

SIX_QUBIT_PAIRS = [(n1, n - n1) for n in range(2, 7) for n1 in range(1, n)]


def hand_built_problem() -> SdpProblem:
    """Blocks of three sizes, two of them 3x3 (one stack), one block no row
    touches; off-diagonal terms, coefficients other than 1, two terms of one
    row on one block, one of them twice on the same entry."""
    dims = [3, 2, 3, 1, 2]
    rows = [
        (((0, 0, 1, 0.7), (1, 1, 1, -1.3)), 1.0),
        (((0, 2, 2, 2.5), (0, 0, 2, -0.4), (2, 1, 0, 1.1)), 0.5),
        (((2, 2, 2, 1.0), (2, 2, 2, 0.25), (3, 0, 0, 3.0)), 2.0),
        (((1, 0, 1, 0.9), (2, 0, 0, -2.0)), -1.0),
        (((0, 1, 1, 1.0),), 1.0),
    ]
    return SdpProblem(
        blocks=[BlockSpec(f"b{n}", d) for n, d in enumerate(dims)],
        objective=[np.zeros((d, d)) for d in dims],
        equalities=rows,
    )


def random_point(dims, seed):
    """Per-block PD W and symmetric X, and row multipliers y."""
    rng = np.random.default_rng(seed)
    ws, xs = [], []
    for d in dims:
        a = rng.standard_normal((d, d))
        ws.append(a @ a.T + d * np.eye(d))
        b = rng.standard_normal((d, d))
        xs.append(b + b.T)
    return ws, xs


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def check_against_reference(problem: SdpProblem, seed: int):
    inst, ref = _Instance(problem), DenseInstance(problem)
    ws, xs = random_point(inst.dims, seed)
    y = np.random.default_rng(seed + 1).standard_normal(inst.m)
    assert_close(inst.apply(inst.stack(xs)), ref.apply(xs))
    for got, want in zip(inst.unstack(inst.adjoint(y)), ref.adjoint(y)):
        assert_close(got, want)
    assert_close(inst.schur(inst.stack(ws)), ref.schur(ws))


@pytest.mark.parametrize("n1,n2", SIX_QUBIT_PAIRS, ids=[f"{a}-{b}" for a, b in SIX_QUBIT_PAIRS])
def test_choi_rows_match_dense_reference(n1, n2):
    problem = choi_problem(twirl_objective(build_omega(n1, n2, 0.375)))
    check_against_reference(problem, seed=n1 * 7 + n2)


def test_hand_built_rows_match_dense_reference():
    problem = hand_built_problem()
    check_against_reference(problem, seed=5)
    # the Schur matrix is the Gram matrix of the rows at W = I
    inst, ref = _Instance(problem), DenseInstance(problem)
    flat = np.concatenate([s for _, s in ref.stacks], axis=1)
    assert_close(inst.schur(inst.identity()), flat @ flat.T)


def block_diagonal(blocks) -> np.ndarray:
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    start = 0
    for b in blocks:
        out[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return out


def dense_max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx PSD, read from the whole matrix through
    its Cholesky factor L: -1/lam for the smallest eigenvalue lam of
    L^-1 dx L^-T."""
    chol = np.linalg.cholesky(x)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, dx).T)
    lam = np.linalg.eigvalsh(0.5 * (reduced + reduced.T)).min()
    return np.inf if lam >= 0 else -1.0 / lam


def check_max_step(problem: SdpProblem, seed: int):
    inst = _Instance(problem)
    xs, dxs = random_point(inst.dims, seed)
    roots = _inverse_root([np.linalg.eigh(s) for s in inst.stack(xs)])
    got = _max_step(roots, inst.stack(dxs))
    want = dense_max_step(block_diagonal(xs), block_diagonal(dxs))
    assert np.isfinite(want)
    assert abs(got - want) <= 1e-12 * want
    # a PSD step never reaches the boundary; a point off the interior moves not at all
    assert _max_step(roots, inst.stack(xs)) == np.inf
    singular = xs[:-1] + [0.0 * xs[-1]]
    assert _inverse_root([np.linalg.eigh(s) for s in inst.stack(singular)]) is None
    assert _max_step(None, inst.stack(dxs)) == 0.0


@pytest.mark.parametrize("n1,n2", SIX_QUBIT_PAIRS, ids=[f"{a}-{b}" for a, b in SIX_QUBIT_PAIRS])
def test_choi_max_step_matches_block_diagonal_matrix(n1, n2):
    check_max_step(choi_problem(twirl_objective(build_omega(n1, n2, 0.375))), seed=n1 * 5 + n2)


def test_hand_built_max_step_matches_block_diagonal_matrix():
    check_max_step(hand_built_problem(), seed=9)


def check_min_eigenvalues(problem: SdpProblem, blocks):
    """One eigvalsh per stack against one per block, in problem order."""
    inst = _Instance(problem)
    got = inst.min_eigenvalues(inst.stack(blocks))
    assert len(got) == len(blocks)
    for lam, blk in zip(got, blocks):
        eigs = np.linalg.eigvalsh(np.asarray(blk))
        assert abs(lam - eigs[0]) <= 1e-12 * np.abs(eigs).max()


@pytest.mark.parametrize("n1,n2", SIX_QUBIT_PAIRS, ids=[f"{a}-{b}" for a, b in SIX_QUBIT_PAIRS])
def test_choi_min_eigenvalues_match_per_block(n1, n2):
    # at the optimum, where blocks are singular, and at an indefinite point
    problem = choi_problem(twirl_objective(build_omega(n1, n2, 0.375)))
    check_min_eigenvalues(problem, solve_ipm(problem).blocks)
    check_min_eigenvalues(problem, random_point(_Instance(problem).dims, seed=n1 * 3 + n2)[1])


def test_hand_built_and_covariant_min_eigenvalues_match_per_block():
    problem = hand_built_problem()
    for points in random_point(_Instance(problem).dims, seed=11):
        check_min_eigenvalues(problem, points)
    # stacks of 1x1 and 2x2 blocks
    problem = assemble(build_objective(2, 1), 0.5)
    check_min_eigenvalues(problem, solve(problem).blocks)
    check_min_eigenvalues(problem, random_point(_Instance(problem).dims, seed=12)[1])


def test_failed_schur_solve_stalls_with_best_iterate(monkeypatch):
    # the third Schur solve fails: the loop ends there as stalled and delivers
    # the best of the three iterates seen, the same that a limit of three
    # iterations delivers
    problem = choi_problem(twirl_objective(build_omega(2, 1, 0.5)))
    limited = solve_ipm(problem, 3)
    assert limited.status == STATUS_MAX_ITERATIONS
    real_solve, calls = np.linalg.solve, []

    def failing_solve(a, b):
        calls.append(a.shape)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    sol = solve_ipm(problem)
    assert len(calls) == 3
    assert (sol.status, sol.iterations) == (STATUS_STALLED, 3)
    assert sol.blocks == limited.blocks
    assert sol.objective_value == limited.objective_value
    assert sol.dual_multipliers == limited.dual_multipliers


def test_problem_without_rows_is_solved():
    # no equality rows: the Gram and Schur matrices are 0 x 0
    problem = SdpProblem([BlockSpec("a", 2), BlockSpec("b", 1)], [-np.eye(2), -np.eye(1)], [])
    sol = solve_ipm(problem)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.objective_value) <= 1e-9


class TestSolveGeneric:
    """Problems that are no chain, which `uqsub.sdp.solve` rejects."""

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
        sol = solve_ipm(prob)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective_value == pytest.approx(np.linalg.eigvalsh(c).max(), abs=1e-7)

    def test_infeasible_equalities_are_reported(self):
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=1)],
            objective=[np.zeros((1, 1))],
            equalities=[(((0, 0, 0, 1.0),), 1.0), (((0, 0, 0, 1.0),), 2.0)],
        )
        sol = solve_ipm(prob)
        assert sol.status == STATUS_INFEASIBLE

    def test_psd_infeasible_is_reported(self):
        # X >= 0 scalar with constraint -X = 1 is affinely fine but PSD-infeasible
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=1)],
            objective=[np.zeros((1, 1))],
            equalities=[(((0, 0, 0, -1.0),), 1.0)],
        )
        sol = solve_ipm(prob)
        assert sol.status == STATUS_STALLED
        report = check_certificate(prob, sol)
        assert not report.passed
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_residual_that_stops_falling_is_reported_infeasible(self):
        # X_00 = -1 cannot hold, while the free X_22 with its positive
        # coefficient keeps the steps long: the primal residual stays near 1
        c = np.array([[-0.6, -0.9, -0.2], [-0.9, -2.2, 0.4], [-0.2, 0.4, 1.6]])
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=3)],
            objective=[c],
            equalities=[(((0, 0, 0, -1.0),), 1.0), (((0, 1, 1, 1.0),), 1.0)],
        )
        sol = solve_ipm(prob)
        assert sol.status == STATUS_INFEASIBLE
        assert sol.iterations > 25  # not the affine check, which returns at 0
        assert sol.primal_residual > 0.5

    @pytest.mark.parametrize("seed", [None, 8], ids=["diag-0-0-1", "random-seed-8"])
    def test_unbounded_problem_is_not_reported_infeasible(self, seed):
        # X_00 = X_11 = 2, X_01 = -1.332/0.689 meets the row, and the free
        # X_22 with C_22 > 0 lets the objective grow without bound; with
        # seed 8 the primal residual stops falling, as it does when infeasible
        if seed is None:
            c = np.diag([0.0, 0.0, 1.0])
        else:
            a = np.random.default_rng(seed).standard_normal((3, 3))
            c = 0.5 * (a + a.T)
        assert c[2, 2] > 0
        prob = SdpProblem(
            blocks=[BlockSpec(name="x", dim=3)],
            objective=[c],
            equalities=[(((0, 0, 1, -0.689),), 1.332)],
        )
        sol = solve_ipm(prob)
        assert sol.status not in (STATUS_INFEASIBLE, STATUS_OPTIMAL)


def test_dense_lists_and_arrays_give_identical_solutions():
    # objective matrices are nested sequences read as m[i][k]; the IPM returns
    # plain float lists whatever form the objective came in
    a = np.random.default_rng(7).standard_normal((4, 4))
    blocks = [BlockSpec(name="dense", dim=4)]
    rows = [(tuple((0, i, i, 1.0) for i in range(4)), 1.0)]
    from_lists = solve_ipm(SdpProblem(blocks, [(a + a.T).tolist()], rows))
    from_arrays = solve_ipm(SdpProblem(blocks, [a + a.T], rows))
    assert from_lists == from_arrays
    assert from_lists.status == STATUS_OPTIMAL
    for sol in (from_lists, from_arrays):
        assert type(sol.blocks) is list
        assert all(type(x) is float for blk in sol.blocks for row in blk for x in row)
        assert all(type(y) is float for y in sol.dual_multipliers)
        assert type(sol.objective_value) is float and type(sol.gap_estimate) is float
