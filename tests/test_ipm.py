"""The IPM's term-format row operators against the dense-stack reference."""
import numpy as np
import pytest

from references import DenseInstance
from uqsub.ipm import _chol_solve, _Instance, solve_ipm
from uqsub.oracle import build_omega, choi_problem, twirl_objective
from uqsub.sdp import STATUS_OPTIMAL, BlockSpec, SdpProblem

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


@pytest.mark.parametrize("m", [1, 63, 64, 65, 150])
def test_chol_solve_matches_dense_solve(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    mat = a @ a.T + m * np.eye(m)
    rhs = rng.standard_normal((m, 2))
    got = _chol_solve(np.linalg.cholesky(mat), rhs)
    np.testing.assert_allclose(got, np.linalg.solve(mat, rhs), rtol=1e-12, atol=1e-14)


def test_problem_without_rows_is_solved():
    # no equality rows: the Gram and Schur matrices are 0 x 0
    problem = SdpProblem([BlockSpec("a", 2), BlockSpec("b", 1)], [-np.eye(2), -np.eye(1)], [])
    sol = solve_ipm(problem)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.objective_value) <= 1e-9
