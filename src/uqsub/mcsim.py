"""Monte-Carlo end-to-end validation of concrete channels.

Draws Haar-random target and noise states, feeds the mixture registers
through a Kraus set, and estimates the average recovery fidelity with a
standard error.  The stream is counter-based (Philox), so runs are
reproducible per seed.

Samples are evaluated on amplitudes, not density matrices: each mixture
copy holds the target ``psi`` with weight ``1-p`` or the noise ``phi`` with
weight ``p``, so the input is ``sum_S w_S |Psi_S><Psi_S|`` over the ``2^n1``
product states ``Psi_S`` (``psi`` on the copies in ``S``, ``phi`` on the
rest and on the noise copies), ``w_S = (1-p)^|S| p^(n1-|S|)``, and the
sample's fidelity is ``sum_S w_S sum_k |<psi|M_k|Psi_S>|^2``.

States are drawn in blocks of ``_BLOCK`` samples, all of a block's targets
before its noise states, and each block is evaluated in slices of ``_SLICE``
samples.  A sample's value is the same arithmetic on the same numbers
whatever the slice, so only the temporaries shrink: their memory grows with
the slice times ``max(2^n, 2K)`` for ``K`` Kraus operators, not with the
block.
"""
from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .channel import KrausSet
from .errors import check_p

# samples drawn per step: psi for the whole block, then phi
_BLOCK = 2000
# samples evaluated per step: bounds the (slice, 2^n) product states and the
# (slice, 2K) amplitudes; below about 128 the per-slice overhead shows
_SLICE = 256


class HaarSampler:
    """Deterministic stream of Haar-random single-qubit pure states."""

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(key=seed))

    def sample_states(self, count: int) -> np.ndarray:
        """(count, 2) complex unit vectors, Haar-uniform on the Bloch sphere."""
        z = self._gen.standard_normal((count, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return np.stack([z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]], axis=1)


class McEstimate(NamedTuple):
    mean: float
    std_error: float
    samples: int

    def within(self, reference: float) -> bool:
        """|mean - reference| within 4 standard errors, plus 1e-12 of round-off
        for estimates whose samples all agree (std_error ~ 0)."""
        return abs(self.mean - reference) <= 4 * self.std_error + 1e-12


def estimate_fidelity(
    kraus: KrausSet,
    n1: int,
    n2: int,
    p: float,
    samples: int,
    sampler: HaarSampler,
) -> McEstimate:
    """Sample-average recovery fidelity of the channel on the mixture task.

    Per sample: draw a target and a noise state, and sum over the mixture's
    product states the weighted output overlap with the target (module
    docstring).  Accumulation uses numpy's pairwise summation.  Raises
    ValueError for a p that `check_p` rejects, fewer than 2 samples (the
    standard error needs two) or a Kraus set of the wrong dimension.
    """
    check_p(p)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    n = n1 + n2
    ops = np.stack(kraus.operators)
    if ops.shape[2] != 1 << n:
        raise ValueError(
            f"Kraus set acts on dimension {ops.shape[2]}, expected {1 << n} for n1+n2={n}"
        )
    rows = ops.reshape(-1, ops.shape[2]).T  # column 2k+o is row o of M_k
    splits = []  # (w_S, S) for every S of nonzero weight; True marks psi
    for mask in product((True, False), repeat=n1):
        w = (1 - p) ** sum(mask) * p ** (n1 - sum(mask))
        if w:
            splits.append((w, mask))
    values = np.empty(samples)
    for start in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - start)
        psi = sampler.sample_states(size)
        phi = sampler.sample_states(size)
        for lo in range(0, size, _SLICE):
            target, noise = psi[lo : lo + _SLICE], phi[lo : lo + _SLICE]
            m = len(target)
            out = np.zeros(m)
            for w, mask in splits:
                state = np.ones((m, 1), dtype=complex)  # first factor: qubit 0, top bit
                for f in [target if t else noise for t in mask] + [noise] * n2:
                    state = (state[:, :, None] * f[:, None, :]).reshape(m, -1)
                amps = (state @ rows).reshape(m, -1, 2) @ target.conj()[:, :, None]
                out += w * np.sum(np.abs(amps) ** 2, axis=(1, 2))
            values[start + lo : start + lo + m] = out
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(samples))
    return McEstimate(mean=mean, std_error=std_error, samples=samples)
