import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import apply_choi, choi_from_kraus, dn_choi, haar_su2
from references import dn_w_values, evaluate
from uqsub._ops import PROJ_UP, choi_output_trace, kron_all
from uqsub.angular import HalfInt, SectorIndex, enumerate_sectors
from uqsub.channel import (
    ChoiMatrix,
    KrausSet,
    build_coupled_basis,
    kraus_from_choi,
    reconstruct_choi,
    w_values_from_solution,
)
from uqsub.errors import CapacityError, ReconstructionError
from uqsub.objective import assemble, build_objective, build_constraints
from uqsub.oracle import build_omega
from uqsub.sdp import solve



def total_angular_ops(n):
    dim = 1 << n
    sz = np.diag([0.5, -0.5])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    jz = np.zeros((dim, dim))
    jplus = np.zeros((dim, dim))
    for k in range(n):
        factors_z = [np.eye(2)] * n
        factors_p = [np.eye(2)] * n
        factors_z[k] = sz
        factors_p[k] = sp
        jz += kron_all(factors_z)
        jplus += kron_all(factors_p)
    j2 = jplus @ jplus.T + jz @ jz - jz
    return jz, j2


class TestCoupledBasis:
    def test_1_1_structure(self):
        basis = build_coupled_basis(1, 1)
        assert basis.isometry.shape == (4, 4)
        singlet_col = next(i for i, c in enumerate(basis.columns) if c.tj == 0)
        vec = basis.isometry[:, singlet_col]
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.abs(vec - expected).max() < 1e-14
        assert {c.tj for c in basis.columns} == {0, 2}

    def test_2_1_multiplicities(self):
        basis = build_coupled_basis(2, 1)
        j32 = [c for c in basis.columns if c.tj == 3]
        j12 = [c for c in basis.columns if c.tj == 1]
        assert len(j32) == 4  # one quadruplet, necessarily from j1 = 1
        assert all(c.tj1 == 2 for c in j32)
        assert len(j12) == 4  # two doublets: j1 = 1 and j1 = 0
        assert {c.tj1 for c in j12} == {0, 2}

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_columns_are_orthonormal_eigenvectors(self, n1, n2):
        basis = build_coupled_basis(n1, n2)
        u = basis.isometry
        dim = u.shape[0]
        assert np.abs(u.T @ u - np.eye(dim)).max() < 1e-12
        jz, j2 = total_angular_ops(n1 + n2)
        for c, col in enumerate(basis.columns):
            vec = u[:, c]
            j, m = col.tj / 2, col.tm / 2
            assert np.abs(j2 @ vec - j * (j + 1) * vec).max() < 1e-10
            assert np.abs(jz @ vec - m * vec).max() < 1e-10

    def test_b_symmetric_flag(self):
        basis = build_coupled_basis(2, 2)
        flagged = [c for c in basis.columns if c.b_symmetric]
        assert all(c.tjb == 2 for c in flagged)
        assert any(not c.b_symmetric for c in basis.columns)

    def test_guard(self):
        with pytest.raises(CapacityError):
            build_coupled_basis(6, 3)


class TestReconstruct:
    def test_1_1_dn_solution_reproduces_partial_trace(self):
        w = dn_w_values(1, 1)
        choi = reconstruct_choi(w, 1, 1)
        assert np.abs(choi.matrix - dn_choi(1, 1)).max() < 1e-8

    @pytest.mark.parametrize(
        "n1,n2,p",
        [(1, 1, 0.3), (1, 1, 0.8), (2, 1, 0.25), (2, 1, 0.5), (2, 2, 0.5), (2, 2, 0.9)],
    )
    def test_round_trip_fidelity(self, n1, n2, p):
        prob = assemble(build_objective(n1, n2), p)
        sol = solve(prob)
        choi = reconstruct_choi(sol, n1, n2)
        omega = build_omega(n1, n2, p).matrix
        fid = float(np.real(np.trace(choi.matrix @ np.kron(omega.T, PROJ_UP))))
        assert fid == pytest.approx(sol.objective_value, abs=1e-7)

    @pytest.mark.parametrize("n1,n2,p", [(2, 1, 0.5), (2, 2, 0.4)])
    def test_trace_preservation(self, n1, n2, p):
        sol = solve(assemble(build_objective(n1, n2), p))
        choi = reconstruct_choi(sol, n1, n2)
        dim = 1 << (n1 + n2)
        assert np.abs(choi_output_trace(choi.matrix) - np.eye(dim)).max() <= 1e-8

    def test_covariance_of_reconstruction(self):
        sol = solve(assemble(build_objective(2, 1), 0.6))
        choi = reconstruct_choi(sol, 2, 1)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = x @ x.conj().T
        x /= np.trace(x)
        for u in haar_su2(np.random.default_rng(32), 10):
            big = kron_all([u] * 3)
            lhs = u.conj().T @ apply_choi(choi.matrix, x) @ u
            rhs = apply_choi(choi.matrix, big.conj().T @ x @ big)
            assert np.abs(lhs - rhs).max() < 1e-7

    def test_fidelity_matches_objective_table_for_random_feasible_w(self):
        # exact cross-check tying characterization, objective and omega together
        rng = np.random.default_rng(7)
        for n1, n2 in [(1, 1), (2, 1), (2, 2)]:
            table = build_objective(n1, n2)
            w = {}
            diag = {}
            for s in enumerate_sectors(n1, n2):
                if s.j == s.jp:
                    key = (s.j.twice, s.j1.twice)
                    if key not in diag:
                        tj = s.j.twice
                        t = 1.0 if tj == 0 else rng.uniform(0.2, 0.8)
                        vals = {tj + 1: t * (tj + 1) / (tj + 2)}
                        if tj > 0:
                            vals[tj - 1] = (1 - t) * (tj + 1) / tj
                        diag[key] = vals
                    w[s] = diag[key].get(s.q.twice, 0.0)
                else:
                    w[s] = 0.0  # keep blocks PSD: diagonal Gram data
            choi = reconstruct_choi(w, n1, n2)
            for p in (0.3, 0.7):
                omega = build_omega(n1, n2, p).matrix
                fid = float(np.real(np.trace(choi.matrix @ np.kron(omega.T, PROJ_UP))))
                assert fid == pytest.approx(evaluate(table, w, p), abs=1e-9)

    def test_psd_violation_raises(self):
        w = dn_w_values(2, 1)
        bad = dict(w)
        off = SectorIndex(j1=HalfInt(2), j=HalfInt(1), jp=HalfInt(3), q=HalfInt(2))
        bad[off] = 5.0  # breaks the Gram structure badly
        with pytest.raises(ReconstructionError):
            reconstruct_choi(bad, 2, 1)


class TestKraus:
    def test_identity_channel_choi(self):
        eye_choi = ChoiMatrix(matrix=np.kron(np.eye(2), np.eye(2)).reshape(4, 4), n1=1, n2=0)
        # Choi of the identity on one qubit: J[(i,s),(j,t)] = delta_is delta_jt
        j = np.zeros((4, 4))
        for i in range(2):
            for k in range(2):
                j[i * 2 + i, k * 2 + k] = 1.0
        kraus = kraus_from_choi(ChoiMatrix(matrix=j, n1=1, n2=0))
        assert len(kraus.operators) == 1
        op = kraus.operators[0]
        assert np.abs(np.abs(op) - np.eye(2)).max() < 1e-12

    def test_dn_choi_kraus_action(self):
        kraus = kraus_from_choi(ChoiMatrix(dn_choi(2, 1), 2, 1))
        choi = choi_from_kraus(kraus.operators)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            out = apply_choi(choi, rho)
            expected = np.einsum("ikjk->ij", rho.reshape(2, 4, 2, 4))
            assert np.abs(out - expected).max() < 1e-10

    def test_completeness_and_rank_bound(self):
        sol = solve(assemble(build_objective(2, 1), 0.5))
        kraus = kraus_from_choi(reconstruct_choi(sol, 2, 1))
        assert kraus.completeness_residual() <= 1e-8
        assert len(kraus.operators) <= 2 * 8

    def test_json_round_trip(self):
        kraus = kraus_from_choi(ChoiMatrix(dn_choi(1, 1), 1, 1))
        doc = json.loads(kraus.to_json())
        assert doc["schema"] == "uqsub.kraus.v1"
        assert doc["n_in_qubits"] == 2
        back = KrausSet.from_json(kraus.to_json())
        assert len(back.operators) == len(kraus.operators)
        for a, b in zip(back.operators, kraus.operators):
            assert np.abs(a - b).max() < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        ops=st.integers(1, 3).flatmap(
            lambda n: st.lists(
                hnp.arrays(
                    np.complex128,
                    (2, 1 << n),
                    elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_json_round_trip_is_exact(self, ops):
        back = KrausSet.from_json(KrausSet(operators=ops).to_json())
        assert len(back.operators) == len(ops)
        for a, b in zip(back.operators, ops):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


class TestDnWValues:
    def test_1_1_satisfies_published_constraints(self):
        w = dn_w_values(1, 1)
        get = lambda j1, j, jp, q: w[
            SectorIndex(j1=HalfInt.of(j1), j=HalfInt.of(j), jp=HalfInt.of(jp), q=HalfInt.of(q))
        ]
        assert 2 * get(0.5, 0, 0, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert 4 / 3 * get(0.5, 1, 1, 1.5) + 2 / 3 * get(0.5, 1, 1, 0.5) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_reproduces_dn_fidelity_through_objective(self, n1, n2):
        w = dn_w_values(n1, n2)
        table = build_objective(n1, n2)
        for p in (0.0, 0.3, 0.8, 1.0):
            assert evaluate(table, w, p) == pytest.approx(1 - p / 2, abs=1e-9)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (3, 2)])
    def test_diagonal_values_satisfy_tp_rows(self, n1, n2):
        w = dn_w_values(n1, n2)
        for row in build_constraints(n1, n2):
            total = 0.0
            for q, coeff in row.terms:
                key = SectorIndex(j1=row.j1, j=row.j, jp=row.j, q=q)
                total += coeff * w[key]
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_solution_extraction_layout(self):
        prob = assemble(build_objective(2, 1), 0.5)
        sol = solve(prob)
        w = w_values_from_solution(sol, 2, 1)
        assert set(w) == set(enumerate_sectors(2, 1))
        top = SectorIndex(j1=HalfInt(2), j=HalfInt(3), jp=HalfInt(3), q=HalfInt(4))
        cross = SectorIndex(j1=HalfInt(2), j=HalfInt(1), jp=HalfInt(3), q=HalfInt(2))
        assert w[top] == pytest.approx(0.0, abs=1e-5)
        assert w[cross] == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-5)
