"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately naive (ladder operators, dense
diagonalization, exhaustive loops, Haar sampling) and shares no code with the
package paths it checks: this module imports nothing from uqsub, and
tests/test_oracle.py checks that it stays that way.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PROJ_UP = np.array([[1.0, 0.0], [0.0, 0.0]])


def spin_matrices(tj: int):
    """(Jz, Jp, Jm) for a single spin j = tj/2, basis ordered m = j..-j."""
    dim = tj + 1
    ms = [Fraction(tj - 2 * k, 2) for k in range(dim)]
    jz = np.diag([float(m) for m in ms])
    jp = np.zeros((dim, dim))
    j = Fraction(tj, 2)
    for k in range(1, dim):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(float(j * (j + 1) - m * (m + 1)))
    return jz, jp, jp.T


def cg_table_ladder(tj1: int, tj2: int) -> dict:
    """All <J,M|j1,m1;j2,m2> via ladder operators and Gram-Schmidt.

    Returns a dict keyed by (tm1, tm2, tJ, tM) of twice-values.  Signs follow
    Condon-Shortley: the m1-maximal component of each |J,J> is positive.
    """
    d1, d2 = tj1 + 1, tj2 + 1
    jz1, _, jm1 = spin_matrices(tj1)
    jz2, _, jm2 = spin_matrices(tj2)
    jm = np.kron(jm1, np.eye(d2)) + np.kron(np.eye(d1), jm2)

    def prod_index(tm1, tm2):
        return ((tj1 - tm1) // 2) * d2 + (tj2 - tm2) // 2

    states = {}  # (tJ, tM) -> vector in product basis
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2):
        top = np.zeros(d1 * d2)
        if tJ == tj1 + tj2:
            top[prod_index(tj1, tj2)] = 1.0
        else:
            # orthogonalize within the M = J subspace against higher-J tops
            candidates = [
                prod_index(tm1, tJ - tm1)
                for tm1 in range(max(-tj1, tJ - tj2), min(tj1, tJ + tj2) + 1, 2)
            ]
            basis = np.zeros((d1 * d2, len(candidates)))
            for col, idx in enumerate(candidates):
                basis[idx, col] = 1.0
            higher = np.stack(
                [states[(tJp, tJ)] for tJp in range(tJ + 2, tj1 + tj2 + 1, 2)], axis=1
            )
            proj = basis - higher @ (higher.T @ basis)
            # the orthogonal complement within this subspace is 1-dimensional
            u, s, _ = np.linalg.svd(proj)
            top = u[:, 0]
            # Condon-Shortley: component with maximal m1 is positive
            lead = prod_index(min(tj1, tJ + tj2), tJ - min(tj1, tJ + tj2))
            if top[lead] < 0:
                top = -top
        states[(tJ, tJ)] = top
        vec = top
        for tM in range(tJ - 2, -tJ - 2, -2):
            j, m = tJ / 2.0, (tM + 2) / 2.0
            vec = jm @ vec / math.sqrt(j * (j + 1) - m * (m - 1))
            states[(tJ, tM)] = vec

    table = {}
    for (tJ, tM), vec in states.items():
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = tM - tm1
            if abs(tm2) <= tj2:
                table[(tm1, tm2, tJ, tM)] = vec[prod_index(tm1, tm2)]
    return table


def cg_fraction(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """<J,M|j1,m1;j2,m2> from Racah's sum in Fraction arithmetic, twice-valued
    labels; the squared value is exact and only the final square root rounds."""
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        if tj < 0 or abs(tm) > tj or (tj + tm) % 2:
            return 0.0
    if tM != tm1 + tm2 or not abs(tj1 - tj2) <= tJ <= tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return 0.0
    f = math.factorial
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    total = sum(
        Fraction((-1) ** k, f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k))
        for k in range(max(0, -d, -e), min(a, b, c) + 1)
    )
    if total == 0:
        return 0.0
    radicand = Fraction(
        (tJ + 1)
        * f(a)
        * f((tj1 - tj2 + tJ) // 2)
        * f((tj2 - tj1 + tJ) // 2)
        * f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
        * f((tj1 + tm1) // 2)
        * f(b)
        * f(c)
        * f((tj2 - tm2) // 2),
        f((tj1 + tj2 + tJ) // 2 + 1),
    )
    return math.copysign(math.sqrt(float(total * total * radicand)), total)


def sixj_fraction(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> tuple[int, Fraction]:
    """The 6j symbol {a b c; d e f} from Racah's sum in Fraction arithmetic,
    twice-valued labels, as (sign, exact square); (0, 0) when it vanishes."""
    f = math.factorial
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for x, y, z in triads:
        if (x + y + z) % 2 or not abs(x - y) <= z <= x + y:
            return 0, Fraction(0)
    delta = math.prod(
        Fraction(
            f((x + y - z) // 2) * f((x - y + z) // 2) * f((y + z - x) // 2),
            f((x + y + z) // 2 + 1),
        )
        for x, y, z in triads
    )
    alphas = [(x + y + z) // 2 for x, y, z in triads]
    betas = [(ta + tb + td + te) // 2, (tb + tc + te + tf) // 2, (tc + ta + tf + td) // 2]
    total = sum(
        Fraction(
            (-1) ** t * f(t + 1),
            math.prod(f(t - a) for a in alphas) * math.prod(f(b - t) for b in betas),
        )
        for t in range(max(alphas), min(betas) + 1)
    )
    if total == 0:
        return 0, Fraction(0)
    return (1 if total > 0 else -1), total * total * delta


def irrep_multiplicities(n: int) -> dict[int, int]:
    """Count spin-j irreps in n qubits by diagonalizing total J^2 (twice-j keys)."""
    dim = 2**n
    sz = np.diag([0.5, -0.5])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    jz = np.zeros((dim, dim))
    jp = np.zeros((dim, dim))
    for k in range(n):
        ops_z = [np.eye(2)] * n
        ops_p = [np.eye(2)] * n
        ops_z[k] = sz
        ops_p[k] = sp
        accz = np.array([[1.0]])
        accp = np.array([[1.0]])
        for oz, op in zip(ops_z, ops_p):
            accz = np.kron(accz, oz)
            accp = np.kron(accp, op)
        jz += accz
        jp += accp
    jm = jp.T
    j2 = jp @ jm + jz @ jz - jz
    evals = np.linalg.eigvalsh(j2)
    counts: dict[int, int] = {}
    for tj in range(n % 2, n + 1, 2):
        j = tj / 2.0
        hits = int(np.sum(np.abs(evals - j * (j + 1)) < 1e-8))
        if hits:
            assert hits % (tj + 1) == 0
            counts[tj] = hits // (tj + 1)
    return counts


def haar_su2(rng: np.random.Generator, size: int) -> np.ndarray:
    """Batch of Haar-distributed SU(2) matrices, shape (size, 2, 2)."""
    z = rng.standard_normal((size, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    a = z[:, 0] + 1j * z[:, 1]
    b = z[:, 2] + 1j * z[:, 3]
    u = np.empty((size, 2, 2), dtype=complex)
    u[:, 0, 0] = a
    u[:, 1, 0] = b
    u[:, 0, 1] = -b.conj()
    u[:, 1, 1] = a.conj()
    return u


def permutation_operator(perm, n: int) -> np.ndarray:
    """Operator moving qubit j to position perm[j], one basis state at a time
    (qubit 0 is the most significant bit)."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for b in range(dim):
        bits = [(b >> (n - 1 - j)) & 1 for j in range(n)]
        out = [0] * n
        for j, pj in enumerate(perm):
            out[pj] = bits[j]
        mat[int("".join(map(str, out)), 2), b] = 1.0
    return mat


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi matrix (input x output index order) of sum_k M rho M^dag."""
    ops = [np.asarray(m) for m in kraus]
    d_out, d_in = ops[0].shape
    dim = d_in * d_out
    choi = np.zeros((dim, dim), dtype=complex)
    for m in ops:
        vec = m.T.reshape(dim)
        choi += np.outer(vec, vec.conj())
    return choi


def apply_choi(choi: np.ndarray, rho: np.ndarray, d_out: int = 2) -> np.ndarray:
    """Channel action reconstructed from its Choi matrix."""
    d_in = choi.shape[0] // d_out
    j4 = choi.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("isjt,ij->st", j4, rho)


def dn_kraus(n: int) -> list[np.ndarray]:
    """Kraus set of the doing-nothing strategy: keep qubit 0, trace the rest."""
    dim_rest = 1 << (n - 1)
    ops = []
    for r in range(dim_rest):
        m = np.zeros((2, 1 << n))
        m[0, r] = 1.0
        m[1, dim_rest + r] = 1.0
        ops.append(m)
    return ops


def random_channel(n_qubits: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random CPTP map on n_qubits -> 1 qubit from a Haar-ish isometry."""
    d_in = 1 << n_qubits
    d_env = d_in
    a = rng.standard_normal((2 * d_env, d_in)) + 1j * rng.standard_normal((2 * d_env, d_in))
    q, _ = np.linalg.qr(a)
    return [q.reshape(2, d_env, d_in)[:, k, :] for k in range(d_env)]


def dn_choi(n1: int, n2: int) -> np.ndarray:
    """Real Choi matrix of the doing-nothing strategy on n1+n2 qubits."""
    return choi_from_kraus(dn_kraus(n1 + n2)).real


def monte_carlo_omega(
    n1: int, n2: int, p: float, samples: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of the averaged-input integrand over explicit Haar draws.

    Returns (mean, entrywise standard error); the secondary numerical check
    for build_omega.
    """
    n = n1 + n2
    rng = np.random.default_rng(seed)
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    total_sq = np.zeros((dim, dim))
    batch = 2000
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        u = haar_su2(rng, size)
        noise = np.einsum("bi,bj->bij", u[:, :, 0], u[:, :, 0].conj())
        mix = (1 - p) * PROJ_UP[None] + p * noise
        term = np.ones((size, 1, 1), dtype=complex)
        for _ in range(n1):
            term = np.einsum("bij,bkl->bikjl", term, mix).reshape(size, term.shape[1] * 2, -1)
        for _ in range(n2):
            term = np.einsum("bij,bkl->bikjl", term, noise).reshape(size, term.shape[1] * 2, -1)
        total += term.sum(axis=0)
        total_sq += (np.abs(term) ** 2).sum(axis=0)
        done += size
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / samples)
    return mean, stderr


def monte_carlo_twirl(x: np.ndarray, m: int, samples: int, seed: int = 0) -> np.ndarray:
    """Sample-mean twirl used as a secondary check of the exact projection."""
    rng = np.random.default_rng(seed)
    total = np.zeros_like(x, dtype=complex)
    batch = 5000
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        u = haar_su2(rng, size)
        big = np.ones((size, 1, 1), dtype=complex)
        for _ in range(m):
            big = np.einsum("bij,bkl->bikjl", big, u).reshape(size, big.shape[1] * 2, -1)
        total += np.einsum("bij,jk,blk->il", big, x, big.conj(), optimize=True)
        done += size
    return total / samples


def monte_carlo_objective(omega: np.ndarray, samples: int, seed: int = 0) -> np.ndarray:
    """Sample-mean fallback for the twirled objective of an averaged input
    (a 2^n x 2^n matrix) over explicit SU(2) draws: input factors in the
    conjugate representation, output plain."""
    n = len(omega).bit_length() - 1
    raw = np.kron(omega.T, PROJ_UP).astype(complex)
    rng = np.random.default_rng(seed)
    total = np.zeros_like(raw)
    batch = 2000
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        u = haar_su2(rng, size)
        big = np.ones((size, 1, 1), dtype=complex)
        for _ in range(n):
            big = np.einsum("bij,bkl->bikjl", big, u.conj()).reshape(
                size, big.shape[1] * 2, -1
            )
        big = np.einsum("bij,bkl->bikjl", big, u).reshape(size, big.shape[1] * 2, -1)
        total += np.einsum("bji,jk,bkl->il", big.conj(), raw, big, optimize=True)
        done += size
    return total / samples
