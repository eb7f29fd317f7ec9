"""Self-contained solver for small block-diagonal semidefinite programs.

`solve` reads the structure of the problem it receives.  The covariant SDP
is a chain: PSD blocks of dimension <= 2, and equality rows that each fix a
positive combination of at most two diagonal entries, every diagonal entry
lying in exactly one row.  Such problems go to `_solve_chain`, which splits
the rows into components joined by 2x2 blocks (one path per j1 in the
covariant problem) and maximizes each in s = sin^2 theta per row, where the
objective is concave: projected Newton steps with an explicit active set,
each one tridiagonal solve, until a primal/dual bracket closes at round-off.
Every other problem -- the dense Choi block of the oracle, and anything
malformed -- goes to `solve_ipm`, a primal-dual path-following method with
Nesterov-Todd scaling and a Mehrotra-style adaptive centering parameter.  The
IPM favors robustness and verifiability over speed: dense linear algebra,
explicit residuals, and an independent certificate checker.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"
STATUS_STALLED = "stalled"

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BlockSpec:
    """One PSD block of an SDP: a name and its dimension."""

    name: str
    dim: int


@dataclass
class SdpProblem:
    """maximize sum_b <objective[b], X_b> + offset over PSD blocks X_b
    subject to equality rows (terms, rhs), sum_b <A_b, X_b> = rhs.

    Each term (block, i, k, coef) puts coef at (i, k) and (k, i) of that
    block's coefficient matrix A_b, so a diagonal term weighs X_b[i, i] by
    coef and an off-diagonal one X_b[i, k] by 2 coef; terms on one entry add.
    Raises ValueError for a term outside its block or an objective matrix
    whose shape is not its block's.
    """

    blocks: list[BlockSpec]
    objective: list[np.ndarray]
    equalities: Sequence[tuple[tuple[tuple[int, int, int, float], ...], float]]
    offset: float = 0.0

    def __post_init__(self):
        dims = [spec.dim for spec in self.blocks]
        if [np.shape(c) for c in self.objective] != [(d, d) for d in dims]:
            raise ValueError("the objective needs one dim x dim matrix per block")
        for terms, _ in self.equalities:
            for pos, i, k, _ in terms:
                if not (0 <= pos < len(dims) and 0 <= i < dims[pos] and 0 <= k < dims[pos]):
                    raise ValueError(f"term ({pos}, {i}, {k}) lies outside the problem's blocks")

    @property
    def num_constraints(self) -> int:
        return len(self.equalities)


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
    rhs and one or two terms, each diagonal with a positive coefficient;
    every diagonal entry lies in exactly one row.
    """
    if not problem.equalities or any(spec.dim not in (1, 2) for spec in problem.blocks):
        return None
    owner: dict[tuple[int, int], tuple[int, float]] = {}
    for r, (terms, rhs) in enumerate(problem.equalities):
        if not rhs > 0 or not 1 <= len(terms) <= 2:
            return None
        for pos, i, k, a in terms:
            if i != k or not a > 0 or (pos, i) in owner:
                return None
            owner[(pos, i)] = (r, a)
    entries = [(pos, i) for pos, spec in enumerate(problem.blocks) for i in range(spec.dim)]
    if len(owner) != len(entries):
        return None
    return [(pos, i, *owner[(pos, i)]) for pos, i in entries]


class _Chain:
    """One component of a chain problem: rows joined by 2x2 blocks, in walk
    order (a path from one end, a cycle from any row).

    A row with two entries owns s in [0, 1] and sets t = s on its first entry
    and t = 1 - s on its second (side +1, -1), x = (rhs/a) t; a pinned entry
    has t = 1 (side 0).  A 2x2 block is the rank-one w w^T with
    w = (sqrt x_e, sign(C_ef) sqrt x_f), so the optimum is the maximum over the
    box of h(s) = sum_e C_ee x_e + sum_b 2|C_b| sqrt(x_e x_f), concave in s,
    whose Hessian is tridiagonal but for a cycle's corner.  Entries are indexed
    locally; a pinned row's second entry is -1, which reads an appended 0.
    """

    def __init__(self, rows, members, entries, rhs, sym, cfg):
        ents = [e for r in rows for e in members[r]]
        local = {e: k for k, e in enumerate(ents)}
        self.rows, self.ents, self.rhs = rows, ents, [rhs[r] for r in rows]
        self.first = [local[members[r][0]] for r in rows]
        self.second = [local[members[r][1]] if len(members[r]) == 2 else -1 for r in rows]
        self.row = [i for i, r in enumerate(rows) for _ in members[r]]
        self.side = [(1, -1)[j] if len(m) == 2 else 0 for m in map(members.__getitem__, rows)
                     for j in range(len(m))]
        self.a = [entries[e][3] for e in ents]
        self.q = [rhs[entries[e][2]] / entries[e][3] for e in ents]
        self.cd = [sym[entries[e][0]][entries[e][1]] for e in ents]
        self.coff = [abs(sym[entries[e][0]][2]) for e in ents]
        self.part = [local[e + 1 - 2 * entries[e][1]] if c else k
                     for k, (e, c) in enumerate(zip(ents, self.coff))]
        self.lin = [c * q for c, q in zip(self.cd, self.q)] + [0.0]
        self.pairs = [(k, p, 2 * self.coff[k] * math.sqrt(self.q[k] * self.q[p]))
                      for k, p in enumerate(self.part) if p > k]
        # s = 1/2, but a row without a cross term, linear in s, starts at the
        # bound where h is larger
        self.s = [0.5 if k < 0 or self.part[f] != f or self.part[k] != k
                  or self.lin[f] == self.lin[k] else float(self.lin[f] > self.lin[k])
                  for f, k in zip(self.first, self.second)]
        # round-off of h grows with |C|, that of the gap also with the rows
        scale = sum(map(abs, self.lin)) + sum(k for _, _, k in self.pairs)
        self.slack = 4 * _EPS * scale
        self.target = min(1e-3 * cfg.gap_tol, 4 * _EPS * len(rows)) * scale

    def terms(self, s) -> list[float]:
        return [s[i] if d > 0 else 1.0 - s[i] if d else 1.0 for i, d in zip(self.row, self.side)]

    def min_eig(self, lam) -> list[float]:
        """Smallest eigenvalue of each entry's block of Z = sum_r lam_r A_r - C."""
        z = [lam[i] * a - c for i, a, c in zip(self.row, self.a, self.cd)]
        return [0.5 * (x + z[p]) - math.hypot(0.5 * (x - z[p]), o)
                for x, p, o in zip(z, self.part, self.coff)]

    def certificate(self, t):
        """w, primal value h, multipliers and gap at t.  lam_r = sum_{e in r}
        (C w)_e w_e / rhs_r, which complementary slackness Z_b w_b = 0 gives and
        whose dual value equals the primal one, is raised by just enough to make
        every Z_b PSD; the gap is the cost of that repair, sum_r rhs_r raise_r."""
        w = [math.sqrt(q * x) for q, x in zip(self.q, t)]
        uw = [(c * x + o * w[p]) * x for c, x, o, p in zip(self.cd, w, self.coff, self.part)]
        uw.append(0.0)
        lam = [(uw[f] + uw[k]) / b for f, k, b in zip(self.first, self.second, self.rhs)]
        need = [(-m if m < 0.0 else 0.0) / a for m, a in zip(self.min_eig(lam), self.a)] + [0.0]
        up = [max(need[f], need[k]) for f, k in zip(self.first, self.second)]
        return w, sum(uw), [x + u for x, u in zip(lam, up)], sum(map(operator.mul, self.rhs, up))

    def derivatives(self, t):
        """Gradient of h in s and -Hessian: its diagonal and links (i, i+1), the
        last slot the corner (0, R-1) of a cycle.  A corner, a block with two
        zero entries, adds nothing: on that face its term is zero."""
        grad = [self.lin[f] - self.lin[k] if k >= 0 else 0.0
                for f, k in zip(self.first, self.second)]
        diag, link = [0.0] * len(grad), [0.0] * len(grad)
        for e, f, k in self.pairs:
            if t[e] * t[f] > 0.0:
                h = 0.25 * k / math.sqrt(t[e] * t[f])
                re, rf, se, sf = self.row[e], self.row[f], self.side[e], self.side[f]
                grad[re] += 2 * se * h * t[f]
                grad[rf] += 2 * sf * h * t[e]
                diag[re] += h * t[f] / t[e] + (2 * h if re == rf else 0.0)
                diag[rf] += h * t[e] / t[f]
                if re != rf:
                    link[min(re, rf) if abs(re - rf) == 1 else -1] -= se * sf * h
        return grad, diag, link

    def ascend(self, max_iterations: int):
        """Projected Newton ascent from self.s with an explicit active set; sets
        w and lam, returns (steps, status, primal, gap).  A row at a bound stays
        there while h falls toward the inside; a corner, both entries of a
        block zero (see `search`), while it is a maximum over its two rows.
        The free rows take a Newton step damped by |gradient| row by row."""
        s, steps = self.s, 0
        t = self.terms(s)
        cert = self.certificate(t)
        while True:
            self.w, primal, self.lam, gap = cert
            if gap <= self.target or steps >= max_iterations:
                done = STATUS_OPTIMAL if gap <= self.target else STATUS_MAX_ITERATIONS
                return steps, done, primal, gap
            steps += 1
            grad, diag, link = self.derivatives(t)
            free = [0.0 < x < 1.0 and k >= 0 for x, k in zip(s, self.second)]
            step, rate = [0.0] * len(s), 0.0
            for i in [i for i, x in enumerate(s) if x == 0.0 or x == 1.0]:
                # the entry the bound zeroes, and the row of its partner
                zero = self.first[i] if s[i] == 0.0 else self.second[i]
                j = self.row[self.part[zero]]
                inward = grad[i] if s[i] == 0.0 else -grad[i]
                if j == i:
                    free[i] = inward > 0
                elif j > i:  # release a corner along t ~ u**2, u the top eigenvector
                    other = grad[j] if s[j] == 0.0 else -grad[j]
                    half = self.coff[zero] * math.sqrt(self.q[zero] * self.q[self.part[zero]])
                    top = 0.5 * (inward + other) + math.hypot(0.5 * (inward - other), half)
                    u = (half, top - inward)
                    if top > self.slack:
                        norm = math.hypot(*u)
                        for r, x in zip((i, j), u):
                            step[r] = (1 - 2 * s[r]) * (x / norm) ** 2
                        rate += top
            if not rate and any(free):
                # damped by |gradient| and, so that every pivot stays positive,
                # by a few round-offs of the row's own curvature
                damped = [(1 + 16 * _EPS) * x + abs(g) + self.slack or 1.0
                          for x, g in zip(diag, grad)]
                step = _cyclic_solve(damped, link, grad, free)
                longest = max(1.0, *map(abs, step))  # no row moves further than the box is wide
                step = [x / longest for x in step]
                rate = sum(map(operator.mul, grad, step))
            found = self.search(s, primal, step, rate)
            if found is None or found[0] == s:
                return steps, STATUS_STALLED, primal, gap
            s[:], t, cert = found

    def search(self, s, base, step, rate):
        """Armijo search along the projected path s + alpha step; returns the
        accepted s, its t and certificate.  A trial that zeroes an entry with a
        positive partner moves the partner's row to the bound that zeroes it
        too; one that leaves a block one zero entry fails."""
        alpha = 1.0
        while rate > 0 and alpha >= 1e-12:
            trial = [min(1.0, max(0.0, x + alpha * d)) for x, d in zip(s, step)]
            t = self.terms(trial)
            if 0.0 in t:
                for e, f, _ in self.pairs:
                    k = f if t[e] == 0.0 else e
                    if (t[e] == 0.0) != (t[f] == 0.0) and self.side[k]:
                        trial[self.row[k]] = 0.0 if self.side[k] > 0 else 1.0
                t = self.terms(trial)
            if 0.0 not in t or all((t[e] == 0.0) == (t[f] == 0.0) for e, f, _ in self.pairs):
                cert = self.certificate(t)
                if cert[1] >= base + 1e-4 * alpha * rate - self.slack:
                    return trial, t, cert
            alpha *= 0.5
        return None


def _cyclic_solve(diag, link, rhs, free):
    """x = 0 off the free rows and A x = rhs on them, for the symmetric
    positive definite A with diagonal `diag`, A[i, i+1] = link[i] and the
    corner A[0, n-1] = link[n-1], eliminated in row order."""
    n = len(diag)
    d = [x if f else 1.0 for x, f in zip(diag, free)]
    x = [y if f else 0.0 for y, f in zip(rhs, free)]
    c = [y if f and g else 0.0 for y, f, g in zip(link, free, free[1:] + free[:1])]
    fill = [c[-1]] + [0.0] * n  # A[i, n-1] when row i is eliminated
    for i in range(n - 1):
        if i == n - 2:
            c[i], fill[i] = c[i] + fill[i], 0.0
        d[i + 1] -= c[i] * c[i] / d[i]
        x[i + 1] -= c[i] * x[i] / d[i]
        fill[i + 1] -= c[i] * fill[i] / d[i]
        d[-1] -= fill[i] * fill[i] / d[i]
        x[-1] -= fill[i] * x[i] / d[i]
    x[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1] - fill[i] * x[-1]) / d[i]
    return x


def _solve_chain(problem: SdpProblem, entries, cfg: SolverConfig) -> SdpSolution:
    """Each component maximized on its own from s = 1/2 until its gap is below
    a target that scales with its rows and |C| (round-off by default), or it
    cannot move; `iterations` counts the steps of the slowest component, and
    the status judges the certificate against the config's tolerances."""
    rhs = [float(b) for _, b in problem.equalities]
    # diagonal and symmetrized cross term (0 on a 1x1 block) of each block
    sym = [(c[0][0], c[-1][-1], (c[0][-1] + c[-1][0]) / 2 if len(c) == 2 else 0.0)
           for c in map(np.ndarray.tolist, problem.objective)]
    members, links = [[] for _ in rhs], [[] for _ in rhs]
    for e, (_, i, r, _) in enumerate(entries):
        members[r].append(e)
        if i:  # the second entry of a 2x2 block joins its row to the first's
            links[r].append(entries[e - 1][2])
            links[entries[e - 1][2]].append(r)
    # a row has at most two links: walk each path from an end, a cycle from any row
    chains, seen = [], [False] * len(rhs)
    for start in sorted(range(len(rhs)), key=lambda r: len(links[r])):
        rows = [] if seen[start] else [start]
        while rows and not seen[rows[-1]]:
            seen[rows[-1]] = True
            rows += [n for n in links[rows[-1]] if not seen[n]][:1]
        chains += [_Chain(rows, members, entries, rhs, sym, cfg)] if rows else []
    w, lam = [0.0] * len(entries), [0.0] * len(rhs)
    status, it, primal, gap, min_z, rp_norm = STATUS_OPTIMAL, 0, 0.0, 0.0, 0.0, 0.0
    for chain in chains:
        steps, done, value, chain_gap = chain.ascend(cfg.max_iterations)
        status = done if status == STATUS_OPTIMAL or done == STATUS_MAX_ITERATIONS else status
        it, primal, gap = max(it, steps), primal + value, gap + chain_gap
        min_z = min(min_z, *chain.min_eig(chain.lam))
        x = [a * v * v for a, v in zip(chain.a, chain.w)] + [0.0]
        for f, k, b in zip(chain.first, chain.second, chain.rhs):
            rp_norm = max(rp_norm, abs(x[f] + x[k] - b))
        for e, v in zip(chain.ents, chain.w):
            w[e] = v
        for r, v in zip(chain.rows, chain.lam):
            lam[r] = v
    rel = 1.0 + abs(primal + problem.offset)
    if rp_norm <= cfg.feas_tol and gap <= cfg.gap_tol * rel and min_z >= -cfg.psd_tol:
        status = STATUS_OPTIMAL
    elif status == STATUS_OPTIMAL:
        status = STATUS_STALLED
    blocks, e = [], 0
    for spec, c in zip(problem.blocks, sym):
        u, v = w[e], w[e + spec.dim - 1] * (-1.0 if c[2] < 0 else 1.0)
        blocks.append(np.array([[u * u, u * v], [u * v, v * v]] if spec.dim == 2 else [[u * u]]))
        e += spec.dim
    # every block is w w^T, so its smallest eigenvalue is 0
    return SdpSolution(
        blocks, primal + problem.offset, rp_norm, max(0.0, -min_z), 0.0, gap, it, status,
        np.array(lam),
    )


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Maximize the linear objective over block-PSD variables with equalities.

    Chain-structured problems (see `_chain_entries`) are solved to round-off
    by `_solve_chain`; all others by `solve_ipm`.  Both are deterministic and
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
