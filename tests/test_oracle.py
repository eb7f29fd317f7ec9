import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    apply_choi,
    choi_from_kraus,
    dn_choi,
    haar_su2,
    monte_carlo_objective,
    monte_carlo_omega,
    monte_carlo_twirl,
    permutation_operator,
    random_channel,
)
from references import oracle_fidelity
from uqsub import oracle
from uqsub._ops import PROJ_UP, choi_output_trace, kron_all
from uqsub.closed_forms import f21_exact
from uqsub.errors import CapacityError
from uqsub.objective import assemble, build_objective
from uqsub.oracle import (
    build_omega,
    choi_problem,
    solve_choi,
    sym_projector,
    twirl,
    twirl_objective,
)
from uqsub.sdp import solve


class TestSymProjector:
    def test_single_qubit_is_identity(self):
        assert np.array_equal(sym_projector(1), np.eye(2))

    def test_two_qubits_rank_three_with_singlet_kernel(self):
        proj = sym_projector(2)
        assert np.trace(proj) == pytest.approx(3.0, abs=1e-14)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.abs(proj @ singlet).max() < 1e-14
        assert np.abs(proj @ proj - proj).max() < 1e-14

    @pytest.mark.parametrize("m", range(1, 8))
    def test_trace_counts_symmetric_dimension(self, m):
        assert np.trace(sym_projector(m)) == pytest.approx(m + 1, abs=1e-12)


class TestBuildOmega:
    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_1_1_closed_form(self, p):
        omega = build_omega(1, 1, p).matrix
        expected = (1 - p) * np.kron(PROJ_UP, np.eye(2) / 2) + p * sym_projector(2) / 3
        assert np.abs(omega - expected).max() < 1e-14

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (2, 2)])
    def test_p_one_is_fully_symmetric(self, n1, n2):
        n = n1 + n2
        omega = build_omega(n1, n2, 1.0).matrix
        assert np.abs(omega - sym_projector(n) / (n + 1)).max() < 1e-14

    @pytest.mark.parametrize("n1,n2,p", [(2, 1, 0.37), (2, 2, 0.5), (3, 2, 0.8)])
    def test_density_operator_invariants(self, n1, n2, p):
        omega = build_omega(n1, n2, p).matrix
        n = n1 + n2
        assert np.trace(omega) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(omega).min() >= -1e-12
        # invariance under permutations inside each register
        for perm_a in [(1, 0) + tuple(range(2, n1))]:
            full = np.kron(permutation_operator(perm_a, n1), np.eye(1 << n2))
            assert np.abs(full @ omega @ full.T - omega).max() < 1e-10
        if n2 >= 2:
            perm_b = (1, 0) + tuple(range(2, n2))
            full = np.kron(np.eye(1 << n1), permutation_operator(perm_b, n2))
            assert np.abs(full @ omega @ full.T - omega).max() < 1e-10

    def test_monte_carlo_agreement(self):
        omega = build_omega(2, 1, 0.5).matrix
        mean, stderr = monte_carlo_omega(2, 1, 0.5, samples=100_000, seed=11)
        deviation = np.abs(mean - omega)
        assert np.all(deviation <= 3 * stderr + 1e-12)

    def test_dense_guard(self):
        with pytest.raises(CapacityError):
            build_omega(5, 2, 0.5)


class TestTwirl:
    def test_identity_is_fixed(self):
        eye = np.eye(8)
        assert np.abs(twirl(eye, 3) - eye).max() < 1e-12

    def test_permutation_operators_are_fixed(self):
        perm = permutation_operator((2, 0, 1), 3)
        assert np.abs(twirl(perm.astype(complex), 3) - perm).max() < 1e-10

    def test_output_commutes_with_diagonal_action(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        t = twirl(x, 4)
        for u in haar_su2(np.random.default_rng(4), 10):
            big = kron_all([u] * 4)
            assert np.abs(big @ t - t @ big).max() < 1e-10

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 8))
        exact = twirl(x.astype(complex), 3)
        sampled = monte_carlo_twirl(x, 3, samples=400_000, seed=9)
        assert np.abs(exact - sampled).max() < 8e-3


class TestTwirlSixQubits:
    """Six factors: the twirl behind every n1+n2 = 5 objective."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        return x, twirl(x, 6)

    def test_commutes_with_diagonal_action(self, pair):
        _, t = pair
        for u in haar_su2(np.random.default_rng(32), 5):
            big = kron_all([u] * 6)
            assert np.abs(big @ t - t @ big).max() < 1e-10

    @pytest.mark.parametrize("perm", [(1, 0, 2, 3, 4, 5), (5, 0, 1, 2, 3, 4), (2, 4, 0, 5, 3, 1)])
    def test_permutation_operators_are_fixed(self, perm):
        op = permutation_operator(perm, 6)
        assert np.abs(twirl(op, 6) - op).max() < 1e-12

    def test_idempotent_and_trace_preserving(self, pair):
        x, t = pair
        assert np.abs(twirl(t, 6) - t).max() < 1e-12
        assert abs(np.trace(t) - np.trace(x)) < 1e-10


class TestTwirledObjective:
    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_dn_transfer_identity_1_1(self, p):
        obj = twirl_objective(build_omega(1, 1, p))
        value = float(np.real(np.trace(dn_choi(1, 1) @ obj.matrix)))
        assert value == pytest.approx(1 - p / 2, abs=1e-9)

    @pytest.mark.parametrize("n1,n2", [(2, 1), (1, 2), (2, 2)])
    def test_dn_transfer_identity_general(self, n1, n2):
        for p in (0.3, 0.8):
            obj = twirl_objective(build_omega(n1, n2, p))
            value = float(np.real(np.trace(dn_choi(n1, n2) @ obj.matrix)))
            assert value == pytest.approx(1 - p / 2, abs=1e-9)

    def test_commutes_with_mixed_representation(self):
        obj = twirl_objective(build_omega(2, 1, 0.4))
        n = 3
        for u in haar_su2(np.random.default_rng(21), 20):
            big = np.kron(kron_all([u] * n), u.conj())
            assert np.abs(big @ obj.matrix - obj.matrix @ big).max() < 1e-8

    def test_matrix_is_real_symmetric(self):
        obj = twirl_objective(build_omega(2, 2, 0.6))
        assert np.abs(obj.matrix.imag).max() < 1e-12
        assert np.abs(obj.matrix - obj.matrix.T.conj()).max() < 1e-10

    def test_monte_carlo_fallback_agrees(self):
        omega = build_omega(1, 1, 0.35)
        exact = twirl_objective(omega).matrix
        sampled = monte_carlo_objective(omega, samples=1_000_000, seed=13)
        assert np.abs(exact - sampled).max() < 1e-3

    def test_guard(self):
        with pytest.raises(CapacityError):
            twirl_objective(build_omega(4, 2, 0.5))


class TestChoiConvention:
    def test_transfer_identity_on_random_channel(self):
        # Tr[J (rho^T x B)] must equal Tr[channel(rho) B] in this convention
        rng = np.random.default_rng(17)
        kraus = random_channel(2, rng)
        choi = choi_from_kraus(kraus)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = 0.5 * (b + b.conj().T)
        direct = sum(m @ rho @ m.conj().T for m in kraus)
        lhs = np.trace(choi @ np.kron(rho.T, b))
        rhs = np.trace(direct @ b)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert np.abs(apply_choi(choi, rho) - direct).max() < 1e-12

    def test_dn_choi_is_trace_preserving(self):
        choi = dn_choi(2, 1)
        assert np.abs(choi_output_trace(choi) - np.eye(8)).max() < 1e-12

    def test_objective_transfer_matches_monte_carlo_on_random_channel(self):
        # F(channel) = Tr[J * twirled objective] for arbitrary channels, not
        # just covariant ones; checked against the sampling estimator
        from uqsub.channel import KrausSet
        from uqsub.mcsim import HaarSampler, estimate_fidelity

        rng = np.random.default_rng(23)
        kraus = random_channel(3, rng)
        choi = choi_from_kraus(kraus)
        p = 0.45
        obj = twirl_objective(build_omega(2, 1, p))
        exact = float(np.real(np.trace(choi @ obj.matrix)))
        est = estimate_fidelity(
            KrausSet(operators=kraus), 2, 1, p, samples=200_000, sampler=HaarSampler(seed=6)
        )
        assert est.within(exact, n_sigma=4)


class TestSolveChoi:
    def test_1_1_matches_single_copy_identity(self):
        value, solution = solve_choi(twirl_objective(build_omega(1, 1, 0.3)))
        assert value == pytest.approx(0.85, abs=1e-7)
        assert solution.primal_residual <= 1e-8

    def test_2_1_matches_exact_curve(self):
        value, _ = solve_choi(twirl_objective(build_omega(2, 1, 0.5)))
        assert value == pytest.approx(f21_exact(0.5), abs=1e-7)

    def test_1_2_independent_of_noise_copies(self):
        value, _ = solve_choi(twirl_objective(build_omega(1, 2, 0.6)))
        assert value == pytest.approx(0.7, abs=1e-7)

    def test_oracle_fidelity_end_to_end(self):
        assert oracle_fidelity(2, 2, 0.5) == pytest.approx(0.7905092592, abs=1e-6)

    def test_rejects_complex_objective(self):
        with pytest.raises(ArithmeticError):
            choi_problem(1j * np.eye(4))

    def test_charge_blocks_at_five_qubits(self):
        problem = choi_problem(twirl_objective(build_omega(3, 2, 0.5)).matrix)
        assert [spec.dim for spec in problem.blocks] == [1, 6, 15, 20, 15, 6, 1]
        assert problem.num_constraints == 142

    def test_rejects_objective_mixing_charge_sectors(self):
        # Choi indices 0 = (input 0, output 0) and 1 = (input 0, output 1)
        # carry charges 0 and -1
        matrix = twirl_objective(build_omega(1, 1, 0.5)).matrix.real.copy()
        matrix[0, 1] = matrix[1, 0] = 1e-3
        with pytest.raises(ArithmeticError, match="charge"):
            choi_problem(matrix)

    def test_five_qubit_cases_match_covariant(self):
        for n1, n2 in [(3, 2), (2, 3), (1, 4), (4, 1)]:
            covariant = solve(assemble(build_objective(n1, n2), 0.375)).objective_value
            value, _ = solve_choi(twirl_objective(build_omega(n1, n2, 0.375)))
            assert abs(value - covariant) <= 1e-8, (n1, n2)


def test_cli_import_skips_numpy_polynomial():
    # numpy.polynomial costs about 0.1 s per CLI process; the twirl's
    # quadrature nodes come from linalg.eigh instead
    probe = "import sys, uqsub.cli; print([m for m in sys.modules if m.startswith('numpy.poly')])"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_oracles_module_imports_nothing_from_uqsub():
    # the brute-force references must stay independent of the code they check
    probe = "import sys, oracles; print(sorted(m for m in sys.modules if m.startswith('uqsub')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(oracles.__file__).parent,
        env=dict(os.environ, PYTHONPATH=str(Path(oracles.__file__).parent)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_oracle_module_imports_no_covariant_code():
    # the oracle checks the covariant SDP only while it shares none of its code
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            imported |= {name.split(".", 1)[-1] for name in names if name.startswith("uqsub")}
    assert imported <= {"_ops", "errors", "sdp"}
