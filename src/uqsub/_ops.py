"""Shared dense-operator helpers: kron products, qubit reindexing, Choi maps.

Conventions used package-wide: qubit 0 is the most significant bit of a
computational-basis index, spin-up is basis state 0, and a Choi matrix of a
d_in -> d_out channel is indexed (input, output), i.e. row i*d_out + s, with
Tr[J (rho^T x B)] = Tr[channel(rho) B].
"""
from __future__ import annotations

import numpy as np

PROJ_UP = np.array([[1.0, 0.0], [0.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def qubit_index_map(positions: list[int], n: int) -> np.ndarray:
    """Basis reindexing for factors built in canonical order then placed at
    the given positions: entry b is the canonical index whose bit j equals
    bit positions[j] of b."""
    dim = 1 << n
    cmap = np.zeros(dim, dtype=np.intp)
    for j, pos in enumerate(positions):
        shift_src = n - 1 - pos
        shift_dst = len(positions) - 1 - j
        bits = (np.arange(dim) >> shift_src) & 1
        cmap |= bits << shift_dst
    return cmap


def choi_output_trace(choi: np.ndarray, d_out: int = 2) -> np.ndarray:
    """Partial trace over the output factor; equals I_in for a TP channel."""
    d_in = choi.shape[0] // d_out
    j4 = choi.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("isjs->ij", j4)
