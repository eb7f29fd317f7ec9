import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import apply_choi, choi_from_kraus, dn_choi, haar_su2
from references import (
    build_constraints,
    choi_output_trace,
    dn_w_values,
    evaluate,
    half_int,
    multiplicity,
)
from uqsub.angular import HalfInt, SectorIndex, enumerate_sectors, sector_blocks
from uqsub.channel import (
    BASIS_QUBIT_GUARD,
    KrausSet,
    _couple_register,
    _eigen_terms,
    kraus_from_choi,
    reconstruct_choi,
    reconstruct_kraus,
    symmetric_columns,
    w_values_from_solution,
)
from uqsub.errors import CapacityError, ReconstructionError
from uqsub.objective import assemble, build_objective
from uqsub.oracle import PROJ_UP, build_omega, kron_all
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


def stacked_columns(n1, n2):
    """Every coupled vector of symmetric_columns as one matrix, with its
    (tj1, tj, tm) labels: all j1, all paths of register A."""
    mats, labels = [], []
    for tj1, (cols, vectors) in symmetric_columns(n1, n2).items():
        for path in vectors:
            mats.append(path)
            labels += [(tj1, tj, tm) for tj, tm in cols]
    return np.concatenate(mats, axis=1), labels


class TestCoupledBasis:
    """The coupled vectors |(j1 g, n2/2) j m> that symmetric_columns builds."""

    def test_1_1_structure(self):
        u, labels = stacked_columns(1, 1)
        assert u.shape == (4, 4)
        vec = u[:, labels.index((1, 0, 0))]
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.abs(vec - expected).max() < 1e-14
        assert {tj for _, tj, _ in labels} == {0, 2}

    def test_2_1_multiplicities(self):
        _, labels = stacked_columns(2, 1)
        j32 = [tj1 for tj1, tj, _ in labels if tj == 3]
        j12 = [tj1 for tj1, tj, _ in labels if tj == 1]
        assert len(j32) == 4  # one quadruplet, necessarily from j1 = 1
        assert set(j32) == {2}
        assert len(j12) == 4  # two doublets: j1 = 1 and j1 = 0
        assert set(j12) == {0, 2}

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_columns_are_orthonormal_eigenvectors(self, n1, n2):
        u, labels = stacked_columns(n1, n2)
        assert u.shape == (1 << (n1 + n2), (1 << n1) * (n2 + 1))
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-12
        jz, j2 = total_angular_ops(n1 + n2)
        for vec, (_, tj, tm) in zip(u.T, labels):
            j, m = tj / 2, tm / 2
            assert np.abs(j2 @ vec - j * (j + 1) * vec).max() < 1e-10
            assert np.abs(jz @ vec - m * vec).max() < 1e-10

    def test_dicke_isometry_has_spin_n2_half(self):
        for n1, n2 in [(1, 1), (2, 2), (1, 4)]:
            dicke = next(vmat for tjb, vmat in _couple_register(n2) if tjb == n2)
            assert dicke.shape == (1 << n2, n2 + 1)
            assert np.abs(dicke.T @ dicke - np.eye(n2 + 1)).max() < 1e-12
            jz, j2 = total_angular_ops(n2)
            j = n2 / 2
            for k, vec in enumerate(dicke.T):
                assert np.abs(j2 @ vec - j * (j + 1) * vec).max() < 1e-10
                assert np.abs(jz @ vec - (j - k) * vec).max() < 1e-10
            # the coupled vectors span exactly the space where register B is symmetric
            u, _ = stacked_columns(n1, n2)
            sym = np.kron(np.eye(1 << n1), dicke @ dicke.T)
            assert np.abs(u @ u.T - sym).max() < 1e-12

    def test_guard(self):
        with pytest.raises(CapacityError):
            symmetric_columns(6, 3)


# every size pair with n1+n2 <= 6, at p = 0, at the (2,1) branch point 3/8, and at 1
UP_TO_SIX_QUBITS = [
    (n1, n - n1, p) for n in range(2, 7) for n1 in range(1, n) for p in (0.0, 0.375, 1.0)
]
# every size pair the coupled basis admits
BASIS_PAIRS = [(n1, n - n1) for n in range(2, BASIS_QUBIT_GUARD + 1) for n1 in range(1, n)]


def dense_min_eig(choi: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(choi).min())


def choi_of_terms(w, n1, n2):
    """The unchecked Choi matrix sum_k lam_k v_k v_k^T and its eigenvalues."""
    lam, v = _eigen_terms(w, n1, n2)
    return (v.T * lam) @ v, lam


class TestReconstruct:
    def test_1_1_dn_solution_reproduces_partial_trace(self):
        w = dn_w_values(1, 1)
        choi = reconstruct_choi(w, 1, 1)
        assert np.abs(choi - dn_choi(1, 1)).max() < 1e-8

    @pytest.mark.parametrize(
        "n1,n2,p",
        [(1, 1, 0.3), (1, 1, 0.8), (2, 1, 0.25), (2, 1, 0.5), (2, 2, 0.5), (2, 2, 0.9)]
        + UP_TO_SIX_QUBITS,
    )
    def test_round_trip_fidelity(self, n1, n2, p):
        prob = assemble(build_objective(n1, n2), p)
        sol = solve(prob)
        choi = reconstruct_choi(sol, n1, n2)
        omega = build_omega(n1, n2, p)
        fid = float(np.real(np.trace(choi @ np.kron(omega.T, PROJ_UP))))
        assert fid == pytest.approx(sol.objective_value, abs=1e-9)

    # (7,1) and (4,4): the largest inputs the 8-qubit guard admits
    @pytest.mark.parametrize(
        "n1,n2,p", [(2, 1, 0.5), (2, 2, 0.4)] + UP_TO_SIX_QUBITS + [(7, 1, 0.5), (4, 4, 0.5)]
    )
    def test_trace_preservation(self, n1, n2, p):
        sol = solve(assemble(build_objective(n1, n2), p))
        choi = reconstruct_choi(sol, n1, n2)
        dim = 1 << (n1 + n2)
        assert np.abs(choi_output_trace(choi) - np.eye(dim)).max() <= 1e-8
        assert np.linalg.eigvalsh(choi).min() >= -1e-9

    def test_covariance_of_reconstruction(self):
        sol = solve(assemble(build_objective(2, 1), 0.6))
        choi = reconstruct_choi(sol, 2, 1)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = x @ x.conj().T
        x /= np.trace(x)
        for u in haar_su2(np.random.default_rng(32), 10):
            big = kron_all([u] * 3)
            lhs = u.conj().T @ apply_choi(choi, x) @ u
            rhs = apply_choi(choi, big.conj().T @ x @ big)
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
                omega = build_omega(n1, n2, p)
                fid = float(np.real(np.trace(choi @ np.kron(omega.T, PROJ_UP))))
                assert fid == pytest.approx(evaluate(table, w, p), abs=1e-9)

    def test_psd_violation_raises(self):
        w = dn_w_values(2, 1)
        bad = dict(w)
        off = SectorIndex(j1=HalfInt(2), j=HalfInt(1), jp=HalfInt(3), q=HalfInt(2))
        bad[off] = 5.0  # breaks the Gram structure badly
        for reconstruct in (reconstruct_choi, reconstruct_kraus):
            with pytest.raises(ReconstructionError, match="not PSD"):
                reconstruct(bad, 2, 1)

    # the PSD check reads the smallest eigenvalue off the eigen-terms: the
    # Gram blocks' and, where n2 > 1, the flat part's 1/2
    @pytest.mark.parametrize("n1,n2", BASIS_PAIRS)
    def test_block_minimum_is_dense_minimum_at_optimum(self, n1, n2):
        table = build_objective(n1, n2)
        for p in (0.0, 0.3, 0.7, 1.0):
            w = w_values_from_solution(solve(assemble(table, p)), n1, n2)
            choi, lam = choi_of_terms(w, n1, n2)
            assert abs(lam.min() - dense_min_eig(choi)) <= 1e-12, p

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 5), (4, 4)])
    def test_block_minimum_is_dense_minimum_for_random_w(self, n1, n2):
        # random symmetric Gram data, far from PSD, and the same with every
        # block shifted to PD, where the flat part's 1/2 is the minimum if n2 > 1
        rng = np.random.default_rng(n1 * 10 + n2)
        for shift in (0.0, 10.0):
            w = {s: rng.standard_normal() + shift * (s.j == s.jp) for s in enumerate_sectors(n1, n2)}
            choi, lam = choi_of_terms(w, n1, n2)
            assert abs(lam.min() - dense_min_eig(choi)) <= 1e-12, shift
            assert (lam.min() == 0.5) == (shift > 0 and n2 > 1)

    def test_tp_violation_raises(self):
        # a diagonal Gram entry doubled keeps every block PSD but breaks its row
        w = w_values_from_solution(solve(assemble(build_objective(2, 1), 0.5)), 2, 1)
        diagonal = next(s for s, v in w.items() if s.j == s.jp and v > 0.1)
        choi = reconstruct_choi(w, 2, 1)
        assert np.abs(choi_output_trace(choi) - np.eye(8)).max() <= 1e-12
        for reconstruct in (reconstruct_choi, reconstruct_kraus):
            with pytest.raises(ReconstructionError, match="not TP"):
                reconstruct({**w, diagonal: 2 * w[diagonal]}, 2, 1)


def rank_formula(w, n1, n2):
    """The rank of the Choi matrix: 2 * 2^n1 (2^n2 - n2 - 1) for the flat
    part, plus rank W * paths(j1) * (2q+1) for each Gram block (q, j1)."""
    rank = 2 * (1 << n1) * ((1 << n2) - n2 - 1)
    for q, j1, rows in sector_blocks(n1, n2):
        gram = [[w[SectorIndex(j1, *sorted((j, jp)), q)] for jp in rows] for j in rows]
        block_rank = int((np.linalg.eigvalsh(gram) > 1e-10).sum())
        rank += block_rank * multiplicity(n1, j1) * (q.twice + 1)
    return rank


class TestReconstructKraus:
    """Kraus operators read off the eigen-terms, with no dense eigensolver."""

    @pytest.mark.parametrize("n1,n2", BASIS_PAIRS)
    def test_same_channel_as_dense_factorization(self, n1, n2):
        table = build_objective(n1, n2)
        for p in (0.0, 0.375, 0.7, 1.0):
            w = w_values_from_solution(solve(assemble(table, p)), n1, n2)
            choi = reconstruct_choi(w, n1, n2)
            ops = np.asarray(reconstruct_kraus(w, n1, n2).operators)
            vecs = ops.transpose(0, 2, 1).reshape(len(ops), -1)  # as in choi_from_kraus
            assert np.abs(vecs.T @ vecs.conj() - choi).max() <= 1e-12, p
            assert len(ops) == len(kraus_from_choi(choi).operators), p
            assert len(ops) == rank_formula(w, n1, n2), p

    def test_operators_are_a_function_of_the_gram_values(self):
        # a dense eigh picks any basis inside a degenerate eigenspace: this
        # change in one W once moved a Kraus entry by 1.0
        w = w_values_from_solution(solve(assemble(build_objective(3, 2), 0.4)), 3, 2)
        top = max(w, key=lambda s: abs(w[s]))
        ops = np.asarray(reconstruct_kraus(w, 3, 2).operators)
        moved = np.asarray(reconstruct_kraus({**w, top: w[top] * (1 + 2e-15)}, 3, 2).operators)
        assert moved.shape == ops.shape
        assert np.abs(moved - ops).max() <= 1e-12


class TestKraus:
    def test_identity_channel_choi(self):
        # Choi of the identity on one qubit: J[(i,s),(j,t)] = delta_is delta_jt
        j = np.zeros((4, 4))
        for i in range(2):
            for k in range(2):
                j[i * 2 + i, k * 2 + k] = 1.0
        kraus = kraus_from_choi(j)
        assert len(kraus.operators) == 1
        op = kraus.operators[0]
        assert np.abs(np.abs(op) - np.eye(2)).max() < 1e-12

    def test_dn_choi_kraus_action(self):
        kraus = kraus_from_choi(dn_choi(2, 1))
        choi = choi_from_kraus(kraus.operators)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            out = apply_choi(choi, rho)
            expected = np.einsum("ikjk->ij", rho.reshape(2, 4, 2, 4))
            assert np.abs(out - expected).max() < 1e-10

    def test_not_psd_raises(self):
        with pytest.raises(ReconstructionError, match="not PSD"):
            kraus_from_choi(dn_choi(1, 1) - 1e-3 * np.eye(8))

    def test_completeness_and_rank_bound(self):
        sol = solve(assemble(build_objective(2, 1), 0.5))
        kraus = kraus_from_choi(reconstruct_choi(sol, 2, 1))
        assert kraus.completeness_residual() <= 1e-8
        assert len(kraus.operators) <= 2 * 8

    def test_json_round_trip(self):
        kraus = kraus_from_choi(dn_choi(1, 1))
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

    @pytest.mark.parametrize(
        "operators, rule",
        [
            ([], "empty operator list"),
            ([[[[1, 0]] * 4] * 2, [[[1, 0]] * 8] * 2], "mixed operator shapes"),
        ],
        ids=["empty", "mixed-shapes"],
    )
    def test_from_json_rejects(self, operators, rule):
        text = json.dumps({"schema": "uqsub.kraus.v1", "operators": operators})
        with pytest.raises(ValueError, match=rule):
            KrausSet.from_json(text)

    def test_mixed_shapes_have_no_residual(self):
        # operators with as many columns but other rows: the residual read
        # off the first one's columns was 1.0
        kraus = KrausSet(operators=[np.eye(4)[:2], np.eye(4)[2:3]])
        with pytest.raises(ValueError):
            kraus.completeness_residual()
        with pytest.raises(ValueError):
            kraus.to_json()


class TestDnWValues:
    def test_1_1_satisfies_published_constraints(self):
        w = dn_w_values(1, 1)
        get = lambda j1, j, jp, q: w[
            SectorIndex(j1=half_int(j1), j=half_int(j), jp=half_int(jp), q=half_int(q))
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
