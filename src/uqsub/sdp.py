"""Self-contained solver for small block-diagonal semidefinite programs.

`solve` reads the structure of the problem it receives.  The covariant SDP
is a chain: PSD blocks of dimension <= 2, and equality rows that each fix a
positive combination of at most two diagonal entries, every diagonal entry
lying in exactly one row.  Such problems go to an exact Newton method on one
angle per row (`_solve_chain`), which closes a primal/dual bracket at
round-off.  Every other problem -- the dense Choi block of the oracle, and
anything malformed -- goes to `solve_ipm`, a primal-dual path-following
method with Nesterov-Todd scaling and a Mehrotra-style adaptive centering
parameter.  The IPM favors robustness and verifiability over speed: dense
linear algebra, explicit residuals, and an independent certificate checker.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .objective import SdpProblem

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"
STATUS_STALLED = "stalled"


@dataclass
class SolverConfig:
    feas_tol: float = 1e-9
    psd_tol: float = 1e-9
    gap_tol: float = 1e-7
    max_iterations: int = 200

    def __post_init__(self):
        if min(self.feas_tol, self.psd_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SdpSolution:
    blocks: list[np.ndarray]
    objective_value: float
    primal_residual: float
    dual_residual: float
    min_eigenvalue: float
    gap_estimate: float
    iterations: int
    status: str
    dual_multipliers: np.ndarray = field(repr=False, default=None)

    @property
    def success(self) -> bool:
        return self.status == STATUS_OPTIMAL

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "uqsub.sdp_solution.v1",
                "objective_value": self.objective_value,
                "primal_residual": self.primal_residual,
                "dual_residual": self.dual_residual,
                "min_eigenvalue": self.min_eigenvalue,
                "gap_estimate": self.gap_estimate,
                "iterations": self.iterations,
                "status": self.status,
                "blocks": [blk.tolist() for blk in self.blocks],
            }
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
        self.c = [0.5 * (c + c.T) for c in problem.objective]
        self.m = len(problem.equalities)
        self.b = np.array([rhs for _, rhs in problem.equalities])
        # per block: dense (m, dim*dim) stack of symmetrized constraint rows,
        # kept only for blocks any row actually touches
        self.stacks: list[tuple[int, np.ndarray]] = []
        touched = sorted({pos for coeffs, _ in problem.equalities for pos in coeffs})
        for pos in touched:
            d = self.dims[pos]
            stack = np.zeros((self.m, d * d))
            for i, (coeffs, _) in enumerate(problem.equalities):
                if pos in coeffs:
                    mat = coeffs[pos]
                    stack[i] = (0.5 * (mat + mat.T)).ravel()
            self.stacks.append((pos, stack))

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
                blocks=[np.zeros((d, d)) for d in inst.dims],
                objective_value=problem.offset,
                primal_residual=affine_residual,
                dual_residual=np.inf,
                min_eigenvalue=0.0,
                gap_estimate=np.inf,
                iterations=0,
                status=STATUS_INFEASIBLE,
                dual_multipliers=np.zeros(inst.m),
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
    return SdpSolution(
        blocks=[x.copy() for x in xs],
        objective_value=obj_p + problem.offset,
        primal_residual=rp_norm,
        dual_residual=rd_norm,
        min_eigenvalue=min(0.0, min_eig),
        gap_estimate=gap,
        iterations=it,
        status=status,
        dual_multipliers=y.copy(),
    )


def _chain_entries(problem: SdpProblem) -> list[tuple[int, int, int, float]] | None:
    """(block, index, row, coefficient) of every diagonal entry, in block
    order, when the problem is a chain; None otherwise.

    A chain has blocks of dimension 1 or 2, and equality rows with a positive
    rhs whose coefficients sit on one or two diagonal entries, all positive;
    every diagonal entry lies in exactly one row.
    """
    if not problem.equalities or any(spec.dim not in (1, 2) for spec in problem.blocks):
        return None
    owner: dict[tuple[int, int], tuple[int, float]] = {}
    for r, (coeffs, rhs) in enumerate(problem.equalities):
        if not rhs > 0:
            return None
        terms = 0
        for pos, mat in coeffs.items():
            if mat.shape != (problem.blocks[pos].dim,) * 2:
                return None
            for i, line in enumerate(mat.tolist()):
                for k, a in enumerate(line):
                    if a == 0:
                        continue
                    if i != k or not a > 0 or (pos, i) in owner:
                        return None
                    owner[(pos, i)] = (r, a)
                    terms += 1
        if not 1 <= terms <= 2:
            return None
    entries = [(pos, i) for pos, spec in enumerate(problem.blocks) for i in range(spec.dim)]
    if len(owner) != len(entries):
        return None
    return [(pos, i, *owner[(pos, i)]) for pos, i in entries]


class _Chain:
    """A chain problem over its diagonal entries e = 0..E-1, in block order.

    Entry e lies in row `row[e]` with coefficient `coef[e]` and is written
    x_e = v_e**2.  A row with two entries owns one angle theta and sets
    v = sqrt(rhs/coef) * (sin theta, cos theta) on them, so the row holds for
    every theta; a row with one entry pins it.  A 2x2 block is the rank-one
    w w^T with w = (|v_e|, sign(C_ef) |v_f|), which maximizes its cross term
    |2 C_ef| |v_e v_f| under c^2 <= x_e x_f.  The smooth objective v^T C v,
    with every off-diagonal replaced by its magnitude, therefore has the SDP
    optimum as its unconstrained maximum over the angles: each sin and each
    cos occurs in one block only, so a maximizer can make every cross term
    nonnegative.  On [0, pi/2]^n, where every v >= 0, it is h(sin^2 theta)
    for the concave h(s) of the box-constrained problem in s = sin^2 theta,
    so there every local maximum is global.
    """

    def __init__(self, problem: SdpProblem, entries):
        num = len(entries)
        index = np.arange(num)
        block = np.array([pos for pos, _, _, _ in entries])
        self.row = np.array([r for _, _, r, _ in entries])
        self.coef = np.array([a for _, _, _, a in entries])
        self.rhs = np.array([rhs for _, rhs in problem.equalities], dtype=float)
        self.scale = np.sqrt(self.rhs[self.row] / self.coef)
        self.dims = [spec.dim for spec in problem.blocks]

        # first and second entry of each row; a pinned row repeats its entry
        first = np.full(len(self.rhs), -1)
        second = np.full(len(self.rhs), -1)
        for e, r in enumerate(self.row):
            if first[r] < 0:
                first[r] = e
            else:
                second[r] = e
        angled = np.flatnonzero(second >= 0)
        self.first, self.second = first, np.where(second >= 0, second, first)
        self.sin_entries, self.cos_entries = first[angled], second[angled]
        self.incidence = np.zeros((num, len(angled)))
        self.incidence[self.sin_entries, np.arange(len(angled))] = 1.0
        self.incidence[self.cos_entries, np.arange(len(angled))] = 1.0

        # the two entries of a 2x2 block are adjacent; a 1x1 entry partners itself
        self.partner = index.copy()
        pairs = index[:-1][block[:-1] == block[1:]]
        self.partner[pairs], self.partner[pairs + 1] = pairs + 1, pairs
        sym = [0.5 * (c + c.T) for c in problem.objective]
        self.signs = [-1.0 if c.shape[0] == 2 and c[0, 1] < 0 else 1.0 for c in sym]
        self.cdiag = np.array([sym[pos][i, i] for pos, i, _, _ in entries])
        self.coff = np.array(
            [abs(sym[pos][0, 1]) if self.dims[pos] == 2 else 0.0 for pos, _, _, _ in entries]
        )
        self.cmat = np.diag(self.cdiag)
        self.cmat[index, self.partner] += self.coff

    def factors(self, theta: np.ndarray):
        """v and dv/dtheta of every entry (dv on the entry's own angle)."""
        s, c = np.sin(theta), np.cos(theta)
        t = np.ones(len(self.row))
        dt = np.zeros(len(self.row))
        t[self.sin_entries], t[self.cos_entries] = s, c
        dt[self.sin_entries], dt[self.cos_entries] = c, -s
        return self.scale * t, self.scale * dt

    def value(self, theta: np.ndarray) -> float:
        v, _ = self.factors(theta)
        return float(v @ self.cmat @ v)

    def min_eig_z(self, lam: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of Z_b = sum_r lam_r A_rb - C_b, per entry of b."""
        zd = lam[self.row] * self.coef - self.cdiag
        zp = zd[self.partner]
        return 0.5 * (zd + zp) - np.hypot(0.5 * (zd - zp), self.coff)

    def certificate(self, v: np.ndarray):
        """Primal value, dual multipliers, gap and min eig Z at v.

        lam_r = sum_{e in r} (C w)_e w_e / rhs_r is the multiplier that
        complementary slackness Z_b w_b = 0 gives on any block where the row's
        entry is nonzero; with it the dual value sum_r rhs_r lam_r equals the
        primal one.  Each lam_r is then raised by just enough to make every
        Z_b PSD, so the dual value bounds the optimum from above and the gap
        dual - primal is the cost of that repair, sum_r rhs_r raise_r.
        """
        w = np.abs(v)
        u = self.cmat @ w
        lam = np.bincount(self.row, weights=u * w, minlength=len(self.rhs)) / self.rhs
        need = np.maximum(0.0, -self.min_eig_z(lam)) / self.coef
        raise_ = np.maximum(need[self.first], need[self.second])
        lam = lam + raise_
        return float(w @ u), lam, float(self.rhs @ raise_), float(self.min_eig_z(lam).min())

    def blocks(self, v: np.ndarray) -> list[np.ndarray]:
        w = np.abs(v)
        out = []
        start = 0
        for dim, sign in zip(self.dims, self.signs):
            vec = w[start : start + dim] * np.array([1.0, sign][:dim])
            out.append(np.outer(vec, vec))
            start += dim
        return out


def _solve_chain(problem: SdpProblem, entries, cfg: SolverConfig) -> SdpSolution:
    """Newton ascent on the row angles, stopped by the primal/dual certificate.

    The Hessian's eigenvalues are replaced by their magnitudes, so every step
    ascends even where the angle objective is not concave, and an Armijo
    backtracking search scales the step.  The loop stops once the gap is far
    below gap_tol (at round-off by default) or the angles stop moving; the
    status then judges the final certificate against the config's tolerances.
    """
    chain = _Chain(problem, entries)
    theta = np.full(chain.incidence.shape[1], np.pi / 4)
    status = STATUS_MAX_ITERATIONS
    it = 0
    while True:
        v, dv = chain.factors(theta)
        primal, lam, gap, min_z = chain.certificate(v)
        rel = 1.0 + abs(primal + problem.offset)
        if gap <= min(1e-3 * cfg.gap_tol, 1e-14) * rel and min_z >= -cfg.psd_tol:
            status = STATUS_OPTIMAL
            break
        if it >= cfg.max_iterations or not theta.size:
            break
        u = chain.cmat @ v
        grad = 2.0 * chain.incidence.T @ (u * dv)
        jac = chain.incidence * dv[:, None]
        hess = 2.0 * jac.T @ chain.cmat @ jac - np.diag(2.0 * chain.incidence.T @ (u * v))
        evals, vecs = np.linalg.eigh(hess)
        top = float(np.abs(evals).max())
        step = vecs @ ((vecs.T @ grad) / np.maximum(np.abs(evals), max(1e-12 * top, 1e-300)))
        longest = float(np.abs(step).max())
        if longest > 1.0:
            step /= longest
        # where the objective is convex along an eigenvector the gradient can
        # vanish (an angle stuck at 0 or pi/2 whose entry should grow), so
        # the path theta + t*step + sqrt(t)*turn also moves along it
        turn = np.zeros_like(theta)
        gain = float(grad @ step)
        if evals[-1] > 1e-8 * top:
            turn = vecs[:, -1] if vecs[:, -1] @ grad >= 0 else -vecs[:, -1]
            gain += 0.5 * float(evals[-1])
        # Armijo test with round-off slack: near the optimum the value no
        # longer moves while the angles, and the dual bound, still improve
        floor = float(v @ u) - 1e-15 * rel
        t = 1.0
        while chain.value(theta + t * step + np.sqrt(t) * turn) < floor + 1e-4 * t * gain:
            t *= 0.5
            if t < 1e-12:
                break
        it += 1
        # fold into [0, pi/2]: same |sin| and |cos|, so every v >= 0 and every
        # cross term is nonnegative; folding never lowers the value, and it
        # leaves no local maximum of another sign pattern to converge to
        new_theta = theta + t * step + np.sqrt(t) * turn
        new_theta = np.arctan2(np.abs(np.sin(new_theta)), np.abs(np.cos(new_theta)))
        if t < 1e-12 or np.abs(new_theta - theta).max() <= 1e-15:
            status = STATUS_STALLED
            break
        theta = new_theta

    # every exit leaves v and its certificate computed at the final theta
    residual = np.bincount(chain.row, weights=chain.coef * v * v, minlength=len(chain.rhs))
    rp_norm = float(np.max(np.abs(residual - chain.rhs)))
    if rp_norm <= cfg.feas_tol and gap <= cfg.gap_tol * rel and min_z >= -cfg.psd_tol:
        status = STATUS_OPTIMAL
    elif status == STATUS_OPTIMAL:
        status = STATUS_STALLED
    return SdpSolution(
        blocks=chain.blocks(v),
        objective_value=primal + problem.offset,
        primal_residual=rp_norm,
        dual_residual=max(0.0, -min_z),
        min_eigenvalue=0.0,  # every block is w w^T
        gap_estimate=gap,
        iterations=it,
        status=status,
        dual_multipliers=lam,
    )


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Maximize the linear objective over block-PSD variables with equalities.

    Chain-structured problems (see `_chain_entries`) are solved exactly by
    `_solve_chain`; all others by `solve_ipm`.  Both are deterministic and
    return the same `SdpSolution` layout: blocks in problem order and the
    dual multipliers y of the rows, with dual slack Z = sum_r y_r A_r - C.
    """
    cfg = config or SolverConfig()
    entries = _chain_entries(problem)
    if entries is None:
        return solve_ipm(problem, cfg)
    return _solve_chain(problem, entries, cfg)


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
    rp = inst.b - inst.apply(solution.blocks)
    rp_norm = float(np.max(np.abs(rp))) if inst.m else 0.0
    failed = []
    details = []
    min_eig = 0.0
    for spec, blk in zip(problem.blocks, solution.blocks):
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
    problem: SdpProblem, multipliers: np.ndarray, psd_tol: float = 1e-8
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
