import tracemalloc

import numpy as np
import pytest

from oracles import apply_choi, choi_from_kraus, dn_choi, dn_kraus, random_channel
from references import estimate_fidelity_by_block, estimate_fidelity_dense, sample_state
from uqsub.channel import KrausSet, kraus_from_choi, reconstruct_choi
from uqsub.closed_forms import f21_exact
from uqsub.mcsim import HaarSampler, McEstimate, estimate_fidelity
from uqsub.objective import assemble, build_objective
from uqsub.sdp import solve


def optimal_kraus(n1, n2, p):
    sol = solve(assemble(build_objective(n1, n2), p))
    return kraus_from_choi(reconstruct_choi(sol, n1, n2)), sol.objective_value


class TestSampler:
    def test_unit_norm(self):
        states = HaarSampler(seed=3).sample_states(1000)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_determinism_per_seed(self):
        a = HaarSampler(seed=42).sample_states(5)
        b = HaarSampler(seed=42).sample_states(5)
        assert np.array_equal(a, b)
        first = sample_state(HaarSampler(seed=42))
        assert np.array_equal(first, a[0])

    def test_mean_bloch_vector_vanishes(self):
        states = HaarSampler(seed=7).sample_states(100_000)
        x = np.real(np.conj(states[:, 0]) * states[:, 1]) * 2
        y = np.imag(np.conj(states[:, 0]) * states[:, 1]) * 2
        z = np.abs(states[:, 0]) ** 2 - np.abs(states[:, 1]) ** 2
        bound = 4 / np.sqrt(100_000)
        for component in (x, y, z):
            assert abs(component.mean()) < bound

    def test_up_overlap_averages_to_half(self):
        states = HaarSampler(seed=11).sample_states(100_000)
        overlap = np.abs(states[:, 0]) ** 2
        se = overlap.std(ddof=1) / np.sqrt(len(overlap))
        assert abs(overlap.mean() - 0.5) <= 4 * se


class TestEstimateFidelity:
    def test_dn_2_1(self):
        kraus = kraus_from_choi(dn_choi(2, 1))
        est = estimate_fidelity(kraus, 2, 1, 0.5, samples=100_000, sampler=HaarSampler(seed=1))
        assert est.within(0.75)

    def test_optimal_2_1(self):
        kraus, objective = optimal_kraus(2, 1, 0.5)
        est = estimate_fidelity(kraus, 2, 1, 0.5, samples=100_000, sampler=HaarSampler(seed=2))
        assert est.within(f21_exact(0.5))
        assert est.within(objective)

    def test_optimal_1_1(self):
        kraus, _ = optimal_kraus(1, 1, 0.3)
        est = estimate_fidelity(kraus, 1, 1, 0.3, samples=100_000, sampler=HaarSampler(seed=3))
        assert est.within(0.85)

    def test_unbiasedness_over_seeds(self):
        kraus = kraus_from_choi(dn_choi(1, 1))
        hits = 0
        for seed in range(20):
            est = estimate_fidelity(
                kraus, 1, 1, 0.4, samples=4000, sampler=HaarSampler(seed=seed)
            )
            hits += est.within(0.8)
        assert hits >= 19

    def test_output_states_are_densities(self):
        kraus, _ = optimal_kraus(2, 1, 0.5)
        choi = choi_from_kraus(kraus.operators)
        sampler = HaarSampler(seed=9)
        psi = sampler.sample_states(20)
        phi = sampler.sample_states(20)
        for k in range(20):
            target = np.outer(psi[k], psi[k].conj())
            noise = np.outer(phi[k], phi[k].conj())
            mix = 0.5 * target + 0.5 * noise
            rho = np.kron(np.kron(mix, mix), noise)
            out = apply_choi(choi, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert abs(np.trace(out).imag) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10

    def test_dimension_mismatch(self):
        kraus = kraus_from_choi(dn_choi(1, 1))
        with pytest.raises(ValueError):
            estimate_fidelity(kraus, 2, 1, 0.5, samples=10, sampler=HaarSampler(seed=0))

    @pytest.mark.parametrize("p", [-0.1, 2.0, float("nan")])
    def test_p_outside_unit_interval_is_rejected(self, p):
        kraus = kraus_from_choi(dn_choi(2, 1))
        with pytest.raises(ValueError, match="outside"):
            estimate_fidelity(kraus, 2, 1, p, samples=10, sampler=HaarSampler(seed=0))

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_are_rejected(self, samples):
        # one sample has no standard error, none no mean either
        kraus = kraus_from_choi(dn_choi(2, 1))
        with pytest.raises(ValueError, match="samples"):
            estimate_fidelity(kraus, 2, 1, 0.5, samples=samples, sampler=HaarSampler(seed=0))

    def test_std_error_definition(self):
        est = McEstimate(mean=0.5, std_error=0.01, samples=100)
        assert est.within(0.52)
        assert not est.within(0.55)

    def test_round_off_floor_when_every_sample_agrees(self):
        # the optimal channel at p = 0 recovers every target: std_error is
        # round-off (~1e-18) and so is the distance to the SDP value (~1e-16)
        est = McEstimate(mean=1.0 - 2.2e-16, std_error=5.2e-18, samples=100)
        assert est.within(1.0)
        assert not McEstimate(mean=1.0 - 2e-12, std_error=0.0, samples=100).within(1.0)


def random_kraus_3():
    return KrausSet(operators=random_channel(3, np.random.default_rng(23)))


class TestAgainstDensityMatrixReference:
    """Amplitude estimator vs the density-matrix estimator on identical draws."""

    @pytest.mark.parametrize("p", [0.0, 0.45, 1.0])
    @pytest.mark.parametrize(
        "n1,n2,kraus",
        [
            (1, 1, lambda: optimal_kraus(1, 1, 0.3)[0]),
            (2, 1, lambda: optimal_kraus(2, 1, 0.3)[0]),
            (2, 2, lambda: optimal_kraus(2, 2, 0.3)[0]),
            (2, 1, random_kraus_3),
        ],
        ids=["1-1", "2-1", "2-2", "random-2-1"],
    )
    def test_same_mean_and_std_error(self, n1, n2, kraus, p):
        ops = kraus()
        # 4,500 samples: two full blocks and a partial one
        est = estimate_fidelity(ops, n1, n2, p, samples=4500, sampler=HaarSampler(seed=8))
        ref = estimate_fidelity_dense(ops, n1, n2, p, samples=4500, sampler=HaarSampler(seed=8))
        assert est.samples == ref.samples == 4500
        assert est.mean == pytest.approx(ref.mean, abs=1e-12)
        assert est.std_error == pytest.approx(ref.std_error, abs=1e-12)


@pytest.fixture(scope="module")
def kraus_by_size():
    return {size: optimal_kraus(*size, 0.3)[0] for size in [(2, 1), (1, 2), (2, 2), (3, 1), (3, 3)]}


class TestSlices:
    """Evaluating each draw block in slices gives the block-at-once values."""

    @pytest.mark.parametrize("seed", [6, 13])
    @pytest.mark.parametrize("samples", [2, 255, 257, 2001, 4500])  # none a multiple of 256
    @pytest.mark.parametrize("n1, n2", [(2, 1), (1, 2), (2, 2), (3, 1), (3, 3)])
    def test_same_estimate_as_the_block_reference(self, kraus_by_size, n1, n2, samples, seed):
        kraus = kraus_by_size[n1, n2]
        est = estimate_fidelity(kraus, n1, n2, 0.45, samples, HaarSampler(seed=seed))
        ref = estimate_fidelity_by_block(kraus, n1, n2, 0.45, samples, HaarSampler(seed=seed))
        assert est == ref


class TestSize:
    def test_peak_memory_of_the_optimal_3_3_channel(self):
        # the temporaries of one 256-sample slice; a block of 2,000 at once
        # peaks at about 12.7 MB
        p = 0.5
        sol = solve(assemble(build_objective(3, 3), p))
        kraus = kraus_from_choi(reconstruct_choi(sol, 3, 3))
        tracemalloc.start()
        try:
            estimate_fidelity(kraus, 3, 3, p, samples=4000, sampler=HaarSampler(seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_peak_memory_at_six_qubits(self):
        kraus = KrausSet(operators=dn_kraus(6))
        tracemalloc.start()
        try:
            estimate_fidelity(kraus, 3, 3, 0.5, samples=2000, sampler=HaarSampler(seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_doing_nothing_at_reconstruct_guard(self):
        # n1+n2 = 8 is the largest channel reconstruct writes
        p = 0.4
        kraus = KrausSet(operators=dn_kraus(8))
        est = estimate_fidelity(kraus, 4, 4, p, samples=2000, sampler=HaarSampler(seed=5))
        assert est.within(1 - p / 2)
