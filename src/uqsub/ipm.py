"""Interior-point solver and independent certificate checks for block SDPs.

`solve_ipm` is a primal-dual path-following method with Nesterov-Todd
scaling and a Mehrotra-style adaptive centering parameter for any
`SdpProblem`; the oracle calls it on the charge blocks of the Choi matrix,
which `uqsub.sdp.solve`, a solver of chains only, rejects.  It favors
robustness and verifiability over speed, with explicit residuals, but keeps
the numpy work per iteration small and independent of the number of blocks:
blocks of one dimension are stacked into one array, the equality rows act
straight from their sparse `(block, i, k, coef)` terms through index arrays,
one LAPACK solve per iteration factors the Schur matrix once for both Newton
systems, and one eigendecomposition of each X and Z stack serves the scaling
and all four step-length tests, which take the minimum over the stacks.
`check_certificate` and `check_dual` re-derive primal and dual feasibility
of a solution independently of either solver, on the same stacks: a block is
PSD when its smallest eigenvalue, one `eigvalsh` per stack for every block
size, is at least -CHECK_TOL.  `uqsub.sdp`'s functions of those names
import them from here on their first call.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import sdp
from .sdp import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    STATUS_STALLED,
    SdpProblem,
    SdpSolution,
    _is_square,
    _step_limit,
)

# the row residual and the PSD margin that `check_certificate` and
# `check_dual` allow
CHECK_TOL = 1e-8

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


def _inverse_root(eigs):
    """X^-1/2 of every stack from its eigendecomposition, or None where a
    block is not PD."""
    if min(e[0].min() for e in eigs) <= 0.0:
        return None
    return [_spectral(e, 1.0 / np.sqrt(e[0])) for e in eigs]


def _max_step(roots, steps) -> float:
    """Largest alpha with x + alpha*dx still PSD in every block, from
    roots = x^-1/2 (None where x is not PD) and steps = dx, stack by stack:
    -1/lam for the smallest eigenvalue lam of x^-1/2 dx x^-1/2, unbounded
    when lam >= 0."""
    if roots is None:
        return 0.0
    lam = min(np.linalg.eigvalsh(_sym(r @ s @ r)).min() for r, s in zip(roots, steps))
    return np.inf if lam >= 0 else -1.0 / lam


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
        # schur: the terms on each block, as (row, flat W[i, 0], flat W[k, 0],
        # i, k, coef), with off-diagonal coefficients scaled by sqrt 2 and
        # diagonal ones by 1/sqrt 2 so that one formula serves both kinds
        # (see `schur`)
        self._on_block = [[] for _ in self.dims]
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
                self._on_block[pos].append((r, base + i * d, base + k * d, i, k, scaled))
        self._rows = np.array(rows, dtype=np.intp)
        self._flat = np.array(flat, dtype=np.intp)
        self._coef = np.array(coef, dtype=float)
        self._pairs = None  # the Schur gather tables, built by the first `schur`

    def _build_pairs(self) -> None:
        """For every pair of terms (i, k), (i', k') on one block, block by block
        in stack order: the flat positions of W[i, i'], W[k, k'], W[i, k'] and
        W[i', k] that `schur` gathers, the row pair and the product of the two
        coefficients."""
        tables = []
        for pos in sorted(range(len(self.dims)), key=self.place.__getitem__):
            if self._on_block[pos]:
                r, ri, rk, i, k, c = map(np.array, zip(*self._on_block[pos]))
                pairs = ((ri, i), (rk, k), (ri, k), (k, ri), (r * self.m, r))
                tables.append([(a[:, None] + b).ravel() for a, b in pairs])
                tables[-1].append(np.outer(c, c).ravel())
        self._pairs = [np.concatenate(col) for col in zip(*tables)] or [np.zeros(0, np.intp)] * 6

    def stack(self, blocks) -> list[np.ndarray]:
        """Per-block matrices in problem order -> one stack per dimension."""
        out = [np.zeros(shape) for shape in self.shapes]
        for (g, slot), blk in zip(self.place, blocks):
            out[g][slot] = blk
        return out

    def unstack(self, stacks) -> list[np.ndarray]:
        """One stack per dimension -> per-block matrices in problem order."""
        return [stacks[g][slot] for g, slot in self.place]

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
        carry that factor.  These entries are gathered for all pairs of terms
        at once, and one `bincount` adds them up by row pair (two terms of one
        row on one block add there too).
        """
        if self._pairs is None:
            self._build_pairs()
        ii, kk, ik, ki, index, cc = self._pairs
        w = np.concatenate([x.ravel() for x in ws])
        m_flat = np.bincount(index, cc * (w[ii] * w[kk] + w[ik] * w[ki]), minlength=self.m * self.m)
        m_mat = m_flat.reshape(self.m, self.m)
        return 0.5 * (m_mat + m_mat.T)

    def inner_c(self, xs) -> float:
        return sum(float(np.vdot(c, x)) for c, x in zip(self.c, xs))

    def min_eigenvalues(self, stacks) -> np.ndarray:
        """Smallest eigenvalue of every block's symmetric part, in problem order."""
        per_stack = [np.linalg.eigvalsh(_sym(s))[:, 0] for s in stacks]
        return np.array([per_stack[g][slot] for g, slot in self.place])


def _is_farkas(inst: _Instance, y: np.ndarray) -> bool:
    """Whether y, scaled to unit length, proves that no PSD X meets the rows:
    sum_r y_r A_r is PSD within `sdp.PSD_TOL` and b.y < 0, while every such X
    would give b.y = <sum_r y_r A_r, X> >= 0."""
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        return False
    y = y / norm
    return inst.min_eigenvalues(inst.adjoint(y)).min() >= -sdp.PSD_TOL and float(inst.b @ y) < 0.0


def solve_ipm(problem: SdpProblem, max_iterations: int | None = None) -> SdpSolution:
    """Maximize the linear objective over block-PSD variables with equalities.

    Deterministic: identical problems and step limits produce identical
    iterates.  Inconsistent equalities are reported as infeasible, never
    projected away; a stall before the `sdp` tolerances are met, a singular
    Schur matrix among its causes, reports the best iterate instead of
    pretending success.
    """
    limit = _step_limit(max_iterations)
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

    for it in range(1, limit + 1):
        rp, rd, mu, rp_norm, rd_norm = measure(xs, zs, y)
        obj_p = inst.inner_c(xs)
        rel = 1.0 + abs(obj_p)
        score = mu * ntot + rp_norm + rd_norm
        if best is None or score < best[0]:
            best = (score, [x.copy() for x in xs], [z.copy() for z in zs], y.copy())
        # stop once complementarity is well below the advertised gap; the
        # final affine polish below takes the primal residual to round-off
        if (
            mu * ntot <= 1e-10 * rel
            and rp_norm <= sdp.FEAS_TOL
            and rd_norm <= 1e2 * sdp.FEAS_TOL
        ):
            status = STATUS_OPTIMAL
            break

        # one eigendecomposition of each X and Z stack serves the scaling,
        # Z^-1 and, as X^-1/2 and Z^-1/2, all four step-length tests
        x_eig = [np.linalg.eigh(x) for x in xs]
        z_eig = [np.linalg.eigh(z) for z in zs]
        ws = [_nt_scaling(e, z) for e, z in zip(x_eig, zs)]
        m_mat = inst.schur(ws)
        m_mat.flat[:: inst.m + 1] += 1e-13 * np.trace(m_mat) / max(inst.m, 1)

        # dZ = A*(dy) - Rd ; dX = Rc - W dZ W ; A(dX) = rp with
        # Rc = sigma mu Z^-1 - X: the right-hand side M dy = A(Rc + W Rd W) - rp
        # is affine in sigma mu, so one solve of M, factored once for both
        # columns, serves the predictor and the corrector
        zinv = [_guarded_inv(e) for e in z_eig]
        rhs = np.stack(
            [
                inst.apply([w @ r @ w - x for w, r, x in zip(ws, rd, xs)]) - rp,
                inst.apply(zinv),
            ],
            axis=-1,
        )
        try:
            dy_fixed, dy_per_sigma_mu = np.linalg.solve(m_mat, rhs).T
        except np.linalg.LinAlgError:
            status = STATUS_STALLED
            break

        def newton(sigma_mu):
            dy = dy_fixed + sigma_mu * dy_per_sigma_mu
            dz = [_sym(a - r) for a, r in zip(inst.adjoint(dy), rd)]
            dx = [_sym(sigma_mu * zi - x - w @ d @ w) for zi, x, w, d in zip(zinv, xs, ws, dz)]
            # refine against the affine rows so feasibility stays at round-off
            correction = lift(rp - inst.apply(dx))
            return [d + e for d, e in zip(dx, correction)], dy, dz

        x_root, z_root = _inverse_root(x_eig), _inverse_root(z_eig)
        dx_a, dy_a, dz_a = newton(0.0)
        ap = min(1.0, 0.99 * _max_step(x_root, dx_a))
        ad = min(1.0, 0.99 * _max_step(z_root, dz_a))
        mu_aff = sum(
            float(np.vdot(x + ap * dx, z + ad * dz))
            for x, dx, z, dz in zip(xs, dx_a, zs, dz_a)
        ) / ntot
        sigma = min(0.99, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

        dx, dy, dz = newton(sigma * mu)
        ap = min(1.0, 0.98 * _max_step(x_root, dx))
        ad = min(1.0, 0.98 * _max_step(z_root, dz))
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
        if stall_count > 25 and rp_norm > 1e3 * sdp.FEAS_TOL:
            # a residual that stops falling may also mean an unbounded problem
            status = STATUS_INFEASIBLE if _is_farkas(inst, y) else STATUS_STALLED
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
    min_eig = float(inst.min_eigenvalues(xs).min())
    obj_p = inst.inner_c(xs)
    obj_d = float(inst.b @ y) if inst.m else obj_p
    gap = abs(obj_d - obj_p)
    if status != STATUS_INFEASIBLE:
        # judge the delivered iterate: with a near-feasible dual, the gap is
        # a valid optimality certificate regardless of how the loop exited
        rel = 1.0 + abs(obj_p)
        delivered_ok = (
            rp_norm <= sdp.FEAS_TOL
            and rd_norm <= 1e2 * sdp.FEAS_TOL
            and gap <= sdp.GAP_TOL * rel
            and min_eig >= -sdp.PSD_TOL
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
        gap_estimate=float(gap),
        iterations=it,
        status=status,
        dual_multipliers=y.tolist(),
    )


class CertificateReport(NamedTuple):
    """What `check_certificate` found."""

    passed: bool
    primal_residual: float
    min_eigenvalue: float
    failed_blocks: list[str]


def check_certificate(problem: SdpProblem, solution: SdpSolution) -> CertificateReport:
    """Re-derive feasibility of a solution independently of the solver loop:
    the row residual against CHECK_TOL, and every block's smallest eigenvalue
    against -CHECK_TOL.  ValueError unless the blocks match the problem's."""
    dims = [spec.dim for spec in problem.blocks]
    if len(solution.blocks) != len(dims) or not all(map(_is_square, solution.blocks, dims)):
        raise ValueError(f"the solution needs one dim x dim block for each of {len(dims)} blocks")
    inst = _Instance(problem)
    xs = inst.stack(solution.blocks)
    rp_norm = float(np.max(np.abs(inst.b - inst.apply(xs)))) if inst.m else 0.0
    lams = inst.min_eigenvalues(xs).tolist()
    bad = [(spec.name, lam) for spec, lam in zip(problem.blocks, lams) if lam < -CHECK_TOL]
    return CertificateReport(
        passed=not bad and rp_norm <= CHECK_TOL,
        primal_residual=rp_norm,
        min_eigenvalue=min(0.0, *lams),
        failed_blocks=[name for name, _ in bad],
    )


class DualReport(NamedTuple):
    """What `check_dual` found."""

    passed: bool
    dual_value: float
    min_eigenvalue: float
    failed_blocks: list[str]


def check_dual(problem: SdpProblem, multipliers: Sequence[float]) -> DualReport:
    """Re-derive dual feasibility of row multipliers independently of the solver.

    When every Z_b = sum_r y_r A_rb - C_b is PSD, its smallest eigenvalue at
    least -CHECK_TOL, the dual value sum_r b_r y_r + offset bounds the maximum
    from above (weak duality).  ValueError unless there is one per row.
    """
    if multipliers is None or len(multipliers) != problem.num_constraints:
        count = "no" if multipliers is None else len(multipliers)
        raise ValueError(f"{count} multipliers for {problem.num_constraints} rows")
    inst = _Instance(problem)
    y = np.asarray(multipliers, dtype=float)
    lams = inst.min_eigenvalues([a - c for a, c in zip(inst.adjoint(y), inst.c)]).tolist()
    failed = [spec.name for spec, lam in zip(problem.blocks, lams) if lam < -CHECK_TOL]
    return DualReport(
        passed=not failed,
        dual_value=float(inst.b @ y) + problem.offset if inst.m else problem.offset,
        min_eigenvalue=min(lams),
        failed_blocks=failed,
    )
