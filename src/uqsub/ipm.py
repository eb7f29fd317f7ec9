"""Interior-point solver and independent certificate checks for block SDPs.

`solve_ipm` is a primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra-style adaptive centering parameter for any
`SdpProblem`; `uqsub.sdp.solve` sends it every problem that is not a chain,
the oracle's dense Choi block among them.  It favors robustness and
verifiability over speed: dense linear algebra, explicit residuals.
`check_certificate` and `check_dual` re-derive primal and dual feasibility
of a solution independently of either solver.  This is the numpy part of the
solver; `uqsub.sdp` imports it on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
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
)


def _sym_sqrt_and_inv_sqrt(mat: np.ndarray):
    evals, vecs = np.linalg.eigh(mat)
    evals = np.maximum(evals, 1e-300)
    root = (vecs * np.sqrt(evals)) @ vecs.T
    inv_root = (vecs / np.sqrt(evals)) @ vecs.T
    return root, inv_root


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Symmetric W with W Z W = X."""
    xr, _ = _sym_sqrt_and_inv_sqrt(x)
    inner = xr @ z @ xr
    _, inner_inv_root = _sym_sqrt_and_inv_sqrt(0.5 * (inner + inner.T))
    w = xr @ inner_inv_root @ xr
    return 0.5 * (w + w.T)


def _guarded_inv(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse with a relative eigenvalue floor near the boundary."""
    evals, vecs = np.linalg.eigh(mat)
    floor = max(evals.max(), 1e-300) * 1e-16
    inv = (vecs / np.maximum(evals, floor)) @ vecs.T
    return 0.5 * (inv + inv.T)


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD (x assumed PD)."""
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return 0.0
    s = np.linalg.solve(chol, np.linalg.solve(chol, dx).T)
    lam = np.linalg.eigvalsh(0.5 * (s + s.T)).min()
    if lam >= 0:
        return np.inf
    return -1.0 / lam


class _Instance:
    """Stacked per-block view of an SdpProblem used inside the solver loop."""

    def __init__(self, problem: SdpProblem):
        self.dims = [spec.dim for spec in problem.blocks]
        self.c = [0.5 * (c + c.T) for c in map(np.asarray, problem.objective)]
        self.m = len(problem.equalities)
        self.b = np.array([rhs for _, rhs in problem.equalities])
        # per block: dense (m, dim*dim) stack of the symmetric row matrices,
        # kept only for blocks any row actually touches
        stacks = {}
        for r, (terms, _) in enumerate(problem.equalities):
            for pos, i, k, coef in terms:
                d = self.dims[pos]
                stack = stacks.setdefault(pos, np.zeros((self.m, d * d)))
                stack[r, i * d + k] += coef
                if i != k:
                    stack[r, k * d + i] += coef
        self.stacks: list[tuple[int, np.ndarray]] = sorted(stacks.items())

    def apply(self, xs) -> np.ndarray:
        out = np.zeros(self.m)
        for pos, stack in self.stacks:
            out += stack @ xs[pos].ravel()
        return out

    def adjoint(self, y: np.ndarray):
        out = [np.zeros((d, d)) for d in self.dims]
        for pos, stack in self.stacks:
            d = self.dims[pos]
            out[pos] += (y @ stack).reshape(d, d)
        return out

    def schur(self, ws) -> np.ndarray:
        m_mat = np.zeros((self.m, self.m))
        for pos, stack in self.stacks:
            d = self.dims[pos]
            w = ws[pos]
            a = stack.reshape(self.m, d, d)
            waw = np.einsum("ab,ibc,cd->iad", w, a, w, optimize=True)
            m_mat += stack @ waw.reshape(self.m, d * d).T
        return 0.5 * (m_mat + m_mat.T)

    def inner_c(self, xs) -> float:
        return sum(np.tensordot(c, x) for c, x in zip(self.c, xs))


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

    amat = None
    gram_chol = None
    if inst.m:
        amat = np.concatenate([stack for _, stack in inst.stacks], axis=1)
        sol_ls, *_ = np.linalg.lstsq(amat, inst.b, rcond=None)
        affine_residual = float(np.max(np.abs(amat @ sol_ls - inst.b)))
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

        try:
            gram_chol = np.linalg.cholesky(amat @ amat.T)
        except np.linalg.LinAlgError:
            gram_chol = None  # dependent rows; refinement falls back to lstsq

    def min_norm_correction(defect: np.ndarray):
        """Per-block min-norm symmetric correction E with A(E) = defect."""
        if gram_chol is not None:
            lam = np.linalg.solve(gram_chol.T, np.linalg.solve(gram_chol, defect))
            flat = amat.T @ lam
        else:
            flat, *_ = np.linalg.lstsq(amat, defect, rcond=None)
        out = []
        col = 0
        for pos, _stack in inst.stacks:
            d = inst.dims[pos]
            delta = flat[col : col + d * d].reshape(d, d)
            out.append((pos, 0.5 * (delta + delta.T)))
            col += d * d
        return out

    scale = max(1.0, float(np.max(np.abs(inst.b))) if inst.m else 1.0)
    xs = [scale * np.eye(d) for d in inst.dims]
    zs = [scale * np.eye(d) for d in inst.dims]
    y = np.zeros(inst.m)

    status = STATUS_MAX_ITERATIONS
    it = 0
    stall_count = 0
    best_rp = np.inf
    best = None  # (score, xs, zs, y)

    def measure(xs_, zs_, y_):
        rp = inst.b - inst.apply(xs_)
        aty = inst.adjoint(y_)
        rd = [c + z - a for c, z, a in zip(inst.c, zs_, aty)]
        mu = sum(np.tensordot(x, z) for x, z in zip(xs_, zs_)) / ntot
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

        ws = [_nt_scaling(x, z) for x, z in zip(xs, zs)]
        m_mat = inst.schur(ws)
        try:
            m_chol = np.linalg.cholesky(m_mat + 1e-13 * np.trace(m_mat) / inst.m * np.eye(inst.m))
        except np.linalg.LinAlgError:
            status = STATUS_STALLED
            break

        def newton(sigma_mu):
            # dZ = A*(dy) - Rd ; dX = Rc - W dZ W ; A(dX) = rp
            if sigma_mu == 0.0:
                rc = [-x for x in xs]
            else:
                rc = [sigma_mu * _guarded_inv(z) - x for x, z in zip(xs, zs)]
            wrdw = [w @ r @ w for w, r in zip(ws, rd)]
            rhs = inst.apply(rc) + inst.apply(wrdw) - rp
            dy = np.linalg.solve(m_chol.T, np.linalg.solve(m_chol, rhs))
            aty = inst.adjoint(dy)
            dz = [0.5 * (a - r + (a - r).T) for a, r in zip(aty, rd)]
            dx = [r - w @ d @ w for r, w, d in zip(rc, ws, dz)]
            dx = [0.5 * (d + d.T) for d in dx]
            # refine against the affine rows so feasibility stays at round-off
            defect = rp - inst.apply(dx)
            for pos, delta in min_norm_correction(defect):
                dx[pos] = dx[pos] + delta
            return dx, dy, dz

        dx_a, dy_a, dz_a = newton(0.0)
        ap = min(1.0, 0.99 * min(_max_step(x, d) for x, d in zip(xs, dx_a)))
        ad = min(1.0, 0.99 * min(_max_step(z, d) for z, d in zip(zs, dz_a)))
        mu_aff = sum(
            np.tensordot(x + ap * dx, z + ad * dz)
            for x, dx, z, dz in zip(xs, dx_a, zs, dz_a)
        ) / ntot
        sigma = min(0.99, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

        dx, dy, dz = newton(sigma * mu)
        ap = min(1.0, 0.98 * min(_max_step(x, d) for x, d in zip(xs, dx)))
        ad = min(1.0, 0.98 * min(_max_step(z, d) for z, d in zip(zs, dz)))
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
            for pos, delta in min_norm_correction(rp_vec):
                xs[pos] = xs[pos] + delta

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
        blocks=[x.tolist() for x in xs],
        objective_value=float(obj_p + problem.offset),
        primal_residual=rp_norm,
        dual_residual=rd_norm,
        min_eigenvalue=min(0.0, min_eig),
        gap_estimate=float(gap),
        iterations=it,
        status=status,
        dual_multipliers=y.tolist(),
    )


@dataclass
class CertificateReport:
    passed: bool
    primal_residual: float
    min_eigenvalue: float
    failed_blocks: list[str]
    details: list[str]


def check_certificate(
    problem: SdpProblem, solution: SdpSolution, feas_tol: float = 1e-8, psd_tol: float = 1e-8
) -> CertificateReport:
    """Re-derive feasibility of a solution independently of the solver loop.

    2x2 blocks are checked with the determinant/diagonal test, larger blocks
    by eigendecomposition.
    """
    inst = _Instance(problem)
    blocks = [np.asarray(blk, dtype=float) for blk in solution.blocks]
    rp = inst.b - inst.apply(blocks)
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


@dataclass
class DualReport:
    passed: bool
    dual_value: float
    min_eigenvalue: float
    failed_blocks: list[str]


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
    for spec, aty, c in zip(problem.blocks, inst.adjoint(y), inst.c):
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
