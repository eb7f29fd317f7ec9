"""Interior-point solver and independent certificate checks for block SDPs.

`solve_ipm` is a primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra-style adaptive centering parameter for any
`SdpProblem`; `uqsub.sdp.solve` sends it every problem that is not a chain,
the oracle's charge blocks of the Choi matrix among them.  It favors
robustness and verifiability over speed, with explicit residuals, but keeps
the numpy work per iteration small and independent of the number of blocks:
blocks of one dimension are stacked into one array, the equality rows act
straight from their sparse `(block, i, k, coef)` terms through index arrays,
the Schur matrix is factored once per iteration for both Newton systems, and
one eigendecomposition of each X and Z serves the scaling and all four
step-length tests.
`check_certificate` and `check_dual` re-derive primal and dual feasibility
of a solution independently of either solver.  This is the numpy part of the
solver; `uqsub.sdp` imports it on first use.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .sdp import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    STATUS_STALLED,
    SdpProblem,
    SdpSolution,
    SolverConfig,
    _Record,
)

# every function below acts on a stack of blocks, an array (count, d, d)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _t(a))


def _spectral(eig, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T for each block of the eigendecomposition `eig`."""
    return (eig[1] * values[..., None, :]) @ _t(eig[1])


def _nt_scaling(x_eig, z: np.ndarray) -> np.ndarray:
    """Symmetric W with W Z W = X, from the eigendecomposition of X."""
    xr = _spectral(x_eig, np.sqrt(np.maximum(x_eig[0], 1e-300)))
    inner = np.linalg.eigh(_sym(xr @ z @ xr))
    return _sym(xr @ _spectral(inner, 1.0 / np.sqrt(np.maximum(inner[0], 1e-300))) @ xr)


def _guarded_inv(eig) -> np.ndarray:
    """Symmetric inverse with a relative eigenvalue floor near the boundary."""
    floor = np.maximum(eig[0].max(axis=-1, keepdims=True), 1e-300) * 1e-16
    return _sym(_spectral(eig, 1.0 / np.maximum(eig[0], floor)))


def _inverse_root(inst, eigs):
    """X^-1/2 of every block from the eigendecompositions of the stacks,
    zero-padded by `inst.padded`, or None where a block is not PD."""
    if min(e[0].min() for e in eigs) <= 0.0:
        return None
    return inst.padded([_spectral(e, 1.0 / np.sqrt(e[0])) for e in eigs])


def _max_step(root, step) -> float:
    """Largest alpha with x + alpha*dx still PSD in every block, from
    root = x^-1/2 (None where x is not PD) and step = dx, their blocks
    zero-padded to one size (`_Instance.padded`): the padding only adds
    eigenvalues 0, which do not change the test."""
    if root is None:
        return 0.0
    lam = np.linalg.eigvalsh(_sym(root @ step @ root)).min()
    return np.inf if lam >= 0 else -1.0 / lam


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs through the Cholesky factor L, by substitution in
    panels of 64 rows: numpy has no triangular solver, and a general solve
    against all of L would cost as much as factoring it again."""
    x = np.array(rhs, dtype=float)
    starts = range(0, len(x), 64)
    for s in starts:
        e = s + 64
        x[s:e] = np.linalg.solve(chol[s:e, s:e], x[s:e] - chol[s:e, :s] @ x[:s])
    for s in reversed(starts):
        e = s + 64
        x[s:e] = np.linalg.solve(chol[s:e, s:e].T, x[s:e] - chol[e:, s:e].T @ x[e:])
    return x


class _Instance:
    """An SdpProblem in the solver's layout.

    Blocks of one dimension d form one stack (count, d, d), so a variable is
    a list of stacks, one per distinct dimension (`stack` and `unstack` map
    to and from per-block matrices).  The rows stay in their term format:
    `apply` and `adjoint` gather and scatter through the terms' flat entry
    indices, and `schur` gathers the entries of W that each pair of terms
    on one block couples.
    """

    def __init__(self, problem: SdpProblem):
        self.dims = [spec.dim for spec in problem.blocks]
        self.m = len(problem.equalities)
        self.b = np.array([rhs for _, rhs in problem.equalities], dtype=float)
        group_dims = sorted(set(self.dims))
        counts = [0] * len(group_dims)
        self.place = []  # block -> (stack, position in the stack)
        for d in self.dims:
            g = group_dims.index(d)
            self.place.append((g, counts[g]))
            counts[g] += 1
        self.shapes = [(n, d, d) for n, d in zip(counts, group_dims)]
        offsets = np.cumsum([0] + [n * d * d for n, d, _ in self.shapes]).tolist()
        self._parts = list(zip(offsets, offsets[1:], self.shapes))
        self.c = self.stack([_sym(np.asarray(c, dtype=float)) for c in problem.objective])

        # apply/adjoint: each term as one or two (row, flat entry, coef)
        # triples, the entry (i, k) and, off the diagonal, (k, i)
        rows, flat, coef = [], [], []
        # schur: the terms on each block, with off-diagonal coefficients
        # scaled by sqrt 2 and diagonal ones by 1/sqrt 2 so that one
        # formula serves both kinds (see `schur`)
        on_block = [[[] for _ in range(n)] for n, _, _ in self.shapes]
        for r, (terms, _) in enumerate(problem.equalities):
            for pos, i, k, cf in terms:
                g, slot = self.place[pos]
                d = self.dims[pos]
                base = offsets[g] + slot * d * d
                rows.append(r)
                flat.append(base + i * d + k)
                coef.append(cf)
                if i != k:
                    rows.append(r)
                    flat.append(base + k * d + i)
                    coef.append(cf)
                scaled = cf * math.sqrt(2.0) if i != k else cf / math.sqrt(2.0)
                on_block[g][slot].append((r, i, k, scaled))
        self._rows = np.array(rows, dtype=np.intp)
        self._flat = np.array(flat, dtype=np.intp)
        self._coef = np.array(coef, dtype=float)

        self._on_block = on_block
        self._pairs = None  # the Schur gather tables, built by the first `schur`

    def _build_pairs(self) -> None:
        """Per stack, the terms of every block, padded to one count by terms of
        coefficient 0 on row 0, and the flat positions `schur` gathers."""
        m = self.m
        self._pairs = []
        pair_index = []
        for g, ((n, d, _), blocks) in enumerate(zip(self.shapes, self._on_block)):
            u = max(map(len, blocks))
            if not u:
                continue
            padded = np.zeros((n, u, 4))
            for slot, found in enumerate(blocks):
                if found:
                    padded[slot, : len(found)] = found
            r, i, k = padded[..., :3].astype(np.intp).transpose(2, 0, 1)
            c = padded[..., 3]
            # flat positions in the stack of W[i, i'], W[k, k'] and W[i, k']
            # for every pair of terms on one block
            base = (np.arange(n) * d * d)[:, None, None]
            ii, kk, ik = (
                base + a[:, :, None] * d + b[:, None, :] for a, b in ((i, i), (k, k), (i, k))
            )
            self._pairs.append((g, ii, kk, ik, c[:, :, None] * c[:, None, :]))
            pair_index.append((r[:, :, None] * m + r[:, None, :]).ravel())
        self._pair_index = np.concatenate(pair_index) if pair_index else np.zeros(0, np.intp)

    def stack(self, blocks) -> list[np.ndarray]:
        """Per-block matrices in problem order -> one stack per dimension."""
        out = [np.zeros(shape) for shape in self.shapes]
        for (g, slot), blk in zip(self.place, blocks):
            out[g][slot] = blk
        return out

    def unstack(self, stacks) -> list[np.ndarray]:
        """One stack per dimension -> per-block matrices in problem order."""
        return [stacks[g][slot] for g, slot in self.place]

    def padded(self, stacks) -> np.ndarray:
        """Every block in one array (blocks, dmax, dmax), stack by stack,
        each zero-padded at the bottom and right."""
        dmax = self.shapes[-1][1]
        out = np.zeros((len(self.dims), dmax, dmax))
        start = 0
        for s in stacks:
            n, d, _ = s.shape
            out[start : start + n, :d, :d] = s
            start += n
        return out

    def identity(self, scale: float = 1.0) -> list[np.ndarray]:
        return [np.tile(scale * np.eye(d), (n, 1, 1)) for n, d, _ in self.shapes]

    def apply(self, xs) -> np.ndarray:
        """Row values <A_r, X>."""
        flat = np.concatenate([x.ravel() for x in xs])
        return np.bincount(self._rows, self._coef * flat[self._flat], minlength=self.m)

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        """sum_r y_r A_r, as stacks."""
        flat = np.bincount(self._flat, self._coef * y[self._rows], minlength=self._parts[-1][1])
        return [flat[a:b].reshape(shape) for a, b, shape in self._parts]

    def schur(self, ws) -> np.ndarray:
        """M[r, s] = <A_r, W A_s W> for symmetric W.

        For terms (i, k) of row r and (i', k') of row s on one block,
        <A_r, W A_s W> collects c c' (W[i,i'] W[k,k'] + W[i,k'] W[k,i']),
        halved once for each term on the diagonal: the scaled coefficients
        carry that factor.  Each stack gathers these entries for all its
        pairs of terms at once, and one `bincount` adds them up by row pair
        (two terms of one row on one block add there too).
        """
        if self._pairs is None:
            self._build_pairs()
        parts = []
        for g, ii, kk, ik, cc in self._pairs:
            w = ws[g].ravel()
            wik = w[ik]
            parts.append((cc * (w[ii] * w[kk] + wik * _t(wik))).ravel())
        m_flat = np.bincount(
            self._pair_index, np.concatenate(parts) if parts else None, minlength=self.m * self.m
        )
        m_mat = m_flat.reshape(self.m, self.m)
        return 0.5 * (m_mat + m_mat.T)

    def inner_c(self, xs) -> float:
        return sum(float(np.vdot(c, x)) for c, x in zip(self.c, xs))


def solve_ipm(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Maximize the linear objective over block-PSD variables with equalities.

    Deterministic: identical problems and configs produce identical iterates.
    Inconsistent equalities are reported as infeasible, never projected away;
    a stall before the tolerances are met reports the best iterate instead of
    pretending success.
    """
    cfg = config or SolverConfig()
    inst = _Instance(problem)
    ntot = sum(inst.dims)

    # the min-norm lift E = A^T (A A^T)^+ v of a row defect v; A A^T is the
    # Schur matrix at W = I, and its pseudo-inverse, formed once, also
    # covers dependent rows
    gram_inv = np.linalg.pinv(inst.schur(inst.identity()), rcond=1e-12, hermitian=True)

    def lift(defect: np.ndarray):
        return [_sym(e) for e in inst.adjoint(gram_inv @ defect)]

    if inst.m:
        affine_residual = float(np.max(np.abs(inst.apply(lift(inst.b)) - inst.b)))
        if affine_residual > 1e-8 * (1.0 + np.max(np.abs(inst.b))):
            return SdpSolution(
                blocks=[[[0.0] * d for _ in range(d)] for d in inst.dims],
                objective_value=problem.offset,
                primal_residual=affine_residual,
                dual_residual=np.inf,
                min_eigenvalue=0.0,
                gap_estimate=np.inf,
                iterations=0,
                status=STATUS_INFEASIBLE,
                dual_multipliers=[0.0] * inst.m,
            )

    scale = max(1.0, float(np.max(np.abs(inst.b))) if inst.m else 1.0)
    xs = inst.identity(scale)
    zs = inst.identity(scale)
    y = np.zeros(inst.m)

    status = STATUS_MAX_ITERATIONS
    it = 0
    stall_count = 0
    best_rp = np.inf
    best = None  # (score, xs, zs, y)

    def measure(xs_, zs_, y_):
        rp = inst.b - inst.apply(xs_)
        rd = [c + z - a for c, z, a in zip(inst.c, zs_, inst.adjoint(y_))]
        mu = sum(float(np.vdot(x, z)) for x, z in zip(xs_, zs_)) / ntot
        rp_norm = float(np.max(np.abs(rp))) if inst.m else 0.0
        rd_norm = max(float(np.max(np.abs(r))) for r in rd)
        return rp, rd, mu, rp_norm, rd_norm

    for it in range(1, cfg.max_iterations + 1):
        rp, rd, mu, rp_norm, rd_norm = measure(xs, zs, y)
        obj_p = inst.inner_c(xs)
        rel = 1.0 + abs(obj_p)
        score = mu * ntot + rp_norm + rd_norm
        if best is None or score < best[0]:
            best = (score, [x.copy() for x in xs], [z.copy() for z in zs], y.copy())
        # stop once complementarity is well below the advertised gap; the
        # final affine polish below takes the primal residual to round-off
        if (
            mu * ntot <= min(1e-3 * cfg.gap_tol, 1e-10) * rel
            and rp_norm <= cfg.feas_tol
            and rd_norm <= 1e2 * cfg.feas_tol
        ):
            status = STATUS_OPTIMAL
            break

        # one eigendecomposition of each X and Z serves the scaling, Z^-1
        # and, as X^-1/2 and Z^-1/2 of all blocks at once, all four
        # step-length tests
        x_eig = [np.linalg.eigh(x) for x in xs]
        z_eig = [np.linalg.eigh(z) for z in zs]
        ws = [_nt_scaling(e, z) for e, z in zip(x_eig, zs)]
        m_mat = inst.schur(ws)
        try:
            m_mat.flat[:: inst.m + 1] += 1e-13 * np.trace(m_mat) / max(inst.m, 1)
            m_chol = np.linalg.cholesky(m_mat)
        except np.linalg.LinAlgError:
            status = STATUS_STALLED
            break

        # dZ = A*(dy) - Rd ; dX = Rc - W dZ W ; A(dX) = rp with
        # Rc = sigma mu Z^-1 - X: the right-hand side M dy = A(Rc + W Rd W) - rp
        # is affine in sigma mu, so one solve through the factor serves the
        # predictor and the corrector
        zinv = [_guarded_inv(e) for e in z_eig]
        rhs = np.stack(
            [
                inst.apply([w @ r @ w - x for w, r, x in zip(ws, rd, xs)]) - rp,
                inst.apply(zinv),
            ],
            axis=-1,
        )
        dy_fixed, dy_per_sigma_mu = _chol_solve(m_chol, rhs).T

        def newton(sigma_mu):
            dy = dy_fixed + sigma_mu * dy_per_sigma_mu
            dz = [_sym(a - r) for a, r in zip(inst.adjoint(dy), rd)]
            dx = [_sym(sigma_mu * zi - x - w @ d @ w) for zi, x, w, d in zip(zinv, xs, ws, dz)]
            # refine against the affine rows so feasibility stays at round-off
            correction = lift(rp - inst.apply(dx))
            return [d + e for d, e in zip(dx, correction)], dy, dz

        x_root, z_root = _inverse_root(inst, x_eig), _inverse_root(inst, z_eig)
        dx_a, dy_a, dz_a = newton(0.0)
        ap = min(1.0, 0.99 * _max_step(x_root, inst.padded(dx_a)))
        ad = min(1.0, 0.99 * _max_step(z_root, inst.padded(dz_a)))
        mu_aff = sum(
            float(np.vdot(x + ap * dx, z + ad * dz))
            for x, dx, z, dz in zip(xs, dx_a, zs, dz_a)
        ) / ntot
        sigma = min(0.99, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

        dx, dy, dz = newton(sigma * mu)
        ap = min(1.0, 0.98 * _max_step(x_root, inst.padded(dx)))
        ad = min(1.0, 0.98 * _max_step(z_root, inst.padded(dz)))
        if min(ap, ad) < 1e-10:
            status = STATUS_STALLED
            break
        xs = [x + ap * d for x, d in zip(xs, dx)]
        zs = [z + ad * d for z, d in zip(zs, dz)]
        y = y + ad * dy

        if rp_norm < best_rp * 0.9999:
            best_rp = rp_norm
            stall_count = 0
        else:
            stall_count += 1
        if stall_count > 25 and rp_norm > 1e3 * cfg.feas_tol:
            status = STATUS_INFEASIBLE
            break

    if status in (STATUS_STALLED, STATUS_MAX_ITERATIONS) and best is not None:
        _, xs, zs, y = best

    if inst.m and status != STATUS_INFEASIBLE:
        # final affine polish: min-norm correction restoring A(X) = b; the
        # PSD perturbation is bounded by the pre-polish primal residual
        rp_vec = inst.b - inst.apply(xs)
        if np.max(np.abs(rp_vec)) > 1e-14:
            xs = [x + e for x, e in zip(xs, lift(rp_vec))]

    rp, rd, mu, rp_norm, rd_norm = measure(xs, zs, y)
    min_eig = min(float(np.linalg.eigvalsh(x).min()) for x in xs)
    obj_p = inst.inner_c(xs)
    obj_d = float(inst.b @ y) if inst.m else obj_p
    gap = abs(obj_d - obj_p)
    if status != STATUS_INFEASIBLE:
        # judge the delivered iterate: with a near-feasible dual, the gap is
        # a valid optimality certificate regardless of how the loop exited
        rel = 1.0 + abs(obj_p)
        delivered_ok = (
            rp_norm <= cfg.feas_tol
            and rd_norm <= 1e2 * cfg.feas_tol
            and gap <= cfg.gap_tol * rel
            and min_eig >= -cfg.psd_tol
        )
        if delivered_ok:
            status = STATUS_OPTIMAL
        elif status == STATUS_OPTIMAL:
            status = STATUS_STALLED
    # one output type for both solvers: plain floats in nested lists
    return SdpSolution(
        blocks=[x.tolist() for x in inst.unstack(xs)],
        objective_value=float(obj_p + problem.offset),
        primal_residual=rp_norm,
        dual_residual=rd_norm,
        min_eigenvalue=min(0.0, min_eig),
        gap_estimate=float(gap),
        iterations=it,
        status=status,
        dual_multipliers=y.tolist(),
    )


class CertificateReport(_Record):
    """What `check_certificate` found; compares and prints like a dataclass."""

    _fields = ("passed", "primal_residual", "min_eigenvalue", "failed_blocks", "details")

    def __init__(
        self,
        passed: bool,
        primal_residual: float,
        min_eigenvalue: float,
        failed_blocks: list[str],
        details: list[str],
    ):
        self.passed, self.primal_residual = passed, primal_residual
        self.min_eigenvalue, self.failed_blocks = min_eigenvalue, failed_blocks
        self.details = details


def check_certificate(
    problem: SdpProblem, solution: SdpSolution, feas_tol: float = 1e-8, psd_tol: float = 1e-8
) -> CertificateReport:
    """Re-derive feasibility of a solution independently of the solver loop.

    2x2 blocks are checked with the determinant/diagonal test, larger blocks
    by eigendecomposition.
    """
    inst = _Instance(problem)
    blocks = [np.asarray(blk, dtype=float) for blk in solution.blocks]
    rp = inst.b - inst.apply(inst.stack(blocks))
    rp_norm = float(np.max(np.abs(rp))) if inst.m else 0.0
    failed = []
    details = []
    min_eig = 0.0
    for spec, blk in zip(problem.blocks, blocks):
        if spec.dim == 1:
            lam = float(blk[0, 0])
            ok = lam >= -psd_tol
        elif spec.dim == 2:
            a, c, bb = float(blk[0, 0]), float(blk[1, 1]), float(blk[0, 1])
            lam = float(np.linalg.eigvalsh(blk).min())
            ok = a >= -psd_tol and c >= -psd_tol and bb * bb <= a * c + psd_tol
        else:
            lam = float(np.linalg.eigvalsh(0.5 * (blk + blk.T)).min())
            ok = lam >= -psd_tol
        min_eig = min(min_eig, lam)
        if not ok:
            failed.append(spec.name)
            details.append(f"block {spec.name}: PSD violated (min eig {lam:.3e})")
    if rp_norm > feas_tol:
        details.append(f"equality residual {rp_norm:.3e} exceeds {feas_tol:.1e}")
    passed = not failed and rp_norm <= feas_tol
    return CertificateReport(
        passed=passed,
        primal_residual=rp_norm,
        min_eigenvalue=min_eig,
        failed_blocks=failed,
        details=details,
    )


class DualReport(_Record):
    """What `check_dual` found; compares and prints like a dataclass."""

    _fields = ("passed", "dual_value", "min_eigenvalue", "failed_blocks")

    def __init__(
        self, passed: bool, dual_value: float, min_eigenvalue: float, failed_blocks: list[str]
    ):
        self.passed, self.dual_value = passed, dual_value
        self.min_eigenvalue, self.failed_blocks = min_eigenvalue, failed_blocks


def check_dual(
    problem: SdpProblem, multipliers: Sequence[float], psd_tol: float = 1e-8
) -> DualReport:
    """Re-derive dual feasibility of row multipliers independently of the solver.

    When every Z_b = sum_r y_r A_rb - C_b is PSD, the dual value
    sum_r b_r y_r + offset bounds the maximum from above (weak duality).
    """
    inst = _Instance(problem)
    y = np.asarray(multipliers, dtype=float)
    failed = []
    min_eig = np.inf
    for spec, aty, c in zip(problem.blocks, inst.unstack(inst.adjoint(y)), inst.unstack(inst.c)):
        lam = float(np.linalg.eigvalsh(aty - c).min())
        min_eig = min(min_eig, lam)
        if lam < -psd_tol:
            failed.append(spec.name)
    return DualReport(
        passed=not failed,
        dual_value=float(inst.b @ y) + problem.offset if inst.m else problem.offset,
        min_eigenvalue=min_eig,
        failed_blocks=failed,
    )
