"""Monte-Carlo end-to-end validation of concrete channels.

Draws Haar-random target and noise states, feeds the mixture registers
through a Kraus set, and estimates the average recovery fidelity with a
standard error.  The stream is counter-based (Philox) so runs are
reproducible per seed and parallelizable by block splitting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet


@dataclass
class HaarSampler:
    """Deterministic stream of Haar-random single-qubit pure states."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def block(self, index: int) -> "HaarSampler":
        """Independent sub-stream for parallel workers (jump-ahead split)."""
        child = HaarSampler(seed=self.seed)
        child._gen = np.random.Generator(np.random.Philox(key=self.seed).jumped(index + 1))
        return child

    def sample_states(self, count: int) -> np.ndarray:
        """(count, 2) complex unit vectors, Haar-uniform on the Bloch sphere."""
        z = self._gen.standard_normal((count, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return np.stack([z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]], axis=1)


@dataclass
class McEstimate:
    mean: float
    std_error: float
    samples: int

    def within(self, reference: float, n_sigma: float = 4.0) -> bool:
        return abs(self.mean - reference) <= n_sigma * self.std_error


def _batched_kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    b, m, _ = left.shape
    _, k, _ = right.shape
    return np.einsum("bij,bkl->bikjl", left, right).reshape(b, m * k, m * k)


def estimate_fidelity(
    kraus: KrausSet,
    n1: int,
    n2: int,
    p: float,
    samples: int = 100_000,
    sampler: HaarSampler | None = None,
    batch: int = 2000,
) -> McEstimate:
    """Sample-average recovery fidelity of the channel on the mixture task.

    Per sample: draw a target and a noise state, build the n1 mixture copies
    and n2 noise copies, apply the Kraus sum, and record the overlap of the
    output with the target.  Accumulation uses numpy's pairwise summation.
    """
    n = n1 + n2
    dim = 1 << n
    ops = np.stack(kraus.operators)
    if ops.shape[2] != dim:
        raise ValueError(
            f"Kraus set acts on dimension {ops.shape[2]}, expected {dim} for n1+n2={n}"
        )
    sampler = sampler if sampler is not None else HaarSampler(seed=0)
    values = np.empty(samples)
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        psi = sampler.sample_states(size)
        phi = sampler.sample_states(size)
        target = np.einsum("bi,bj->bij", psi, psi.conj())
        noise = np.einsum("bi,bj->bij", phi, phi.conj())
        mix = (1 - p) * target + p * noise
        rho = np.ones((size, 1, 1), dtype=complex)
        for _ in range(n1):
            rho = _batched_kron(rho, mix)
        for _ in range(n2):
            rho = _batched_kron(rho, noise)
        vecs = np.einsum("koi,bo->bki", ops.conj(), psi)  # rows M_k^dag |psi>
        out = np.einsum("bki,bij,bkj->b", vecs.conj(), rho, vecs)
        values[done : done + size] = out.real
        done += size
        # free the batch's largest arrays before the next batch allocates its
        # own: freed only on rebinding, they could leave the peak RSS one
        # batch array higher, depending on where the allocator put them
        del rho, vecs
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(samples))
    return McEstimate(mean=mean, std_error=std_error, samples=samples)
