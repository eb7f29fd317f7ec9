"""Self-contained solver for the covariant semidefinite program.

`solve` takes chains only, as the covariant SDP is: PSD blocks of dimension
<= 2, and equality rows that each fix a positive combination of at most two
diagonal entries, every diagonal entry lying in exactly one row and the two
entries of every 2x2 block in adjacent rows, so the rows come in path order.
Any other problem, the oracle's dense Choi blocks among them, raises
ValueError (the oracle calls `uqsub.ipm.solve_ipm`).  `_chain_entries` also
returns the runs of rows that 2x2 blocks join (one per j1 in the covariant
problem), and `_solve_chain` maximizes each in s = sin^2 theta per row, where
the objective is concave: projected Newton steps with an explicit active set,
each one tridiagonal solve, until a primal/dual bracket closes at round-off.
The line search compares primal values only.  An iterate gets its
certificate (multipliers repaired to dual feasibility, and the gap) only when
the step from it gains at most the target gap plus round-off, when the ascent
cannot move, or at the step limit: the dual value bounds every primal value
from above (weak duality), so a larger gain shows that the bracket there is
still open, and the ascent stops where certifying every iterate would.
A caller sets only the step limit; both solvers judge an answer against the
fixed FEAS_TOL, PSD_TOL and GAP_TOL, read at call time.

This module and the chain solver need only the standard library, and at
import time only its light modules: the blocks and the solution are named
tuples and the problem a small plain class, not dataclasses (which load
`inspect`).  `check_certificate` and `check_dual` call the numpy-backed
checkers of `uqsub.ipm`, which they import on their first call.
"""
from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple, Sequence

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible"
STATUS_STALLED = "stalled"

# an optimal answer's row residual, PSD margin and gap relative to 1 + |value|
FEAS_TOL = 1e-9
PSD_TOL = 1e-9
GAP_TOL = 1e-7

_EPS = sys.float_info.epsilon


class BlockSpec(NamedTuple):
    """One PSD block of an SDP: a name and its dimension."""

    name: str
    dim: int


class SdpProblem:
    """maximize sum_b <objective[b], X_b> + offset over PSD blocks X_b
    subject to equality rows (terms, rhs), sum_b <A_b, X_b> = rhs.

    Each objective matrix is a row-major nested sequence read as m[i][k]:
    nested lists, as `assemble` writes, or a 2-d array.  Each term
    (block, i, k, coef) puts coef at (i, k) and (k, i) of that block's
    coefficient matrix A_b, so a diagonal term weighs X_b[i][i] by coef and an
    off-diagonal one X_b[i][k] by 2 coef; terms on one entry add.  Raises
    ValueError for no blocks, a block of dimension below 1, a term outside
    its block or an objective matrix that is not dim x dim for its block.
    """

    def __init__(
        self,
        blocks: list[BlockSpec],
        objective: list[Sequence[Sequence[float]]],
        equalities: Sequence[tuple[tuple[tuple[int, int, int, float], ...], float]],
        offset: float = 0.0,
    ):
        self.blocks, self.objective, self.equalities, self.offset = (
            blocks, objective, equalities, offset
        )
        dims = [spec.dim for spec in blocks]
        if not dims or min(dims) < 1:
            raise ValueError("the problem needs at least one block, each of dimension >= 1")
        if len(objective) != len(dims) or not all(map(_is_square, objective, dims)):
            raise ValueError("the objective needs one dim x dim matrix per block")
        for terms, _ in equalities:
            for pos, i, k, _ in terms:
                if not (0 <= pos < len(dims) and 0 <= i < dims[pos] and 0 <= k < dims[pos]):
                    raise ValueError(f"term ({pos}, {i}, {k}) lies outside the problem's blocks")

    @property
    def num_constraints(self) -> int:
        return len(self.equalities)


def _is_square(matrix, dim: int) -> bool:
    """Whether `matrix` has `dim` rows of `dim` entries each."""
    try:
        return len(matrix) == dim and all(len(row) == dim for row in matrix)
    except TypeError:  # a number where a row or a matrix belongs
        return False


def _step_limit(max_iterations: int | None) -> int:
    """200 for None; ValueError for anything but an int >= 0 (a bool is none)."""
    if max_iterations is None:
        return 200
    if type(max_iterations) is not int or max_iterations < 0:
        raise ValueError(f"max_iterations must be None or an int >= 0, not {max_iterations!r}")
    return max_iterations


class SdpSolution(NamedTuple):
    """Solver output: each block as nested float lists read as X[i][k], in
    problem order, and the row multipliers y as a float list."""

    blocks: list[list[list[float]]]
    objective_value: float
    primal_residual: float
    dual_residual: float
    gap_estimate: float
    iterations: int
    status: str
    dual_multipliers: list[float] | None = None

    def __repr__(self) -> str:  # the multipliers are left out, one per row
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"SdpSolution({shown})"

    @property
    def success(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _chain_entries(problem: SdpProblem):
    """(entries, members, runs): (block, index, row, coefficient) of every
    diagonal entry in block order, each row's positions in entries, and the
    runs of rows that 2x2 blocks join.  A chain has equality rows and blocks
    of dimension 1 or 2; each row has a positive rhs and one or two terms,
    each diagonal with a positive coefficient; every diagonal entry lies in
    exactly one row, and the two entries of every 2x2 block lie in adjacent
    rows.  A problem that breaks one of these rules raises ValueError naming
    the first it breaks."""
    if not problem.equalities:
        raise ValueError("not a chain: the problem has no equality rows")
    for pos, spec in enumerate(problem.blocks):
        if spec.dim > 2:
            raise ValueError(f"not a chain: block {pos} is {spec.dim}x{spec.dim}, larger than 2x2")
    owner: dict[tuple[int, int], tuple[int, float]] = {}
    for r, (terms, rhs) in enumerate(problem.equalities):
        if not rhs > 0 or not 1 <= len(terms) <= 2:
            raise ValueError(f"not a chain: row {r} needs rhs > 0 and one or two terms, "
                             f"not rhs {rhs!r} and {len(terms)} terms")
        for pos, i, k, a in terms:
            if i != k or not a > 0:
                raise ValueError(f"not a chain: row {r} needs diagonal terms with coefficient "
                                 f"> 0, not {a!r} at ({i}, {k}) of block {pos}")
            if (pos, i) in owner:
                raise ValueError(f"not a chain: entry {i} of block {pos} is in two rows")
            owner[(pos, i)] = (r, float(a))
    entries, members = [], [[] for _ in problem.equalities]
    joined = [False] * len(members)
    for pos, spec in enumerate(problem.blocks):
        for i in range(spec.dim):
            if (pos, i) not in owner:
                raise ValueError(f"not a chain: entry {i} of block {pos} is in no row")
            r = owner[(pos, i)][0]
            members[r].append(len(entries))
            entries.append((pos, i, *owner[(pos, i)]))
            if i:  # a 2x2 block joins its two rows, which must be adjacent
                if abs(r - entries[-2][2]) != 1:
                    raise ValueError(f"not a chain: the entries of block {pos} lie in rows "
                                     f"{entries[-2][2]} and {r}, which are not adjacent")
                joined[min(r, entries[-2][2])] = True
    ends = [r for r, more in enumerate(joined) if not more]
    return entries, members, [range(a + 1, b + 1) for a, b in zip([-1] + ends, ends)]


class _Chain:
    """One component of a chain problem: a run of rows joined by 2x2 blocks,
    in row order.

    A row with two entries owns s in [0, 1] and sets t = s on its first entry
    and t = 1 - s on its second (side +1, -1), x = (rhs/a) t; a pinned entry
    has t = 1 (side 0).  A 2x2 block is the rank-one w w^T with
    w = (sqrt x_e, sign(C_ef) sqrt x_f), so the optimum is the maximum over the
    box of h(s) = sum_e C_ee x_e + sum_b 2|C_b| sqrt(x_e x_f), concave in s,
    whose Hessian is tridiagonal.  Entries are indexed locally; a pinned
    row's second entry is -1, which reads an appended 0.
    """

    def __init__(self, rows, members, entries, rhs, sym):
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
        # the gradient of the linear part of h, the same at every s
        self.lin_grad = [self.lin[f] - self.lin[k] if k >= 0 else 0.0
                         for f, k in zip(self.first, self.second)]
        # s = 1/2, but a row without a cross term, linear in s, starts at the
        # bound where h is larger
        self.s = [0.5 if k < 0 or self.part[f] != f or self.part[k] != k
                  or self.lin[f] == self.lin[k] else float(self.lin[f] > self.lin[k])
                  for f, k in zip(self.first, self.second)]
        # round-off of h grows with |C|, that of the gap also with the rows
        scale = sum(map(abs, self.lin)) + sum(k for _, _, k in self.pairs)
        self.slack = 4 * _EPS * scale
        self.target = 4 * _EPS * len(rows) * scale

    def terms(self, s) -> list[float]:
        return [s[i] if d > 0 else 1.0 - s[i] if d else 1.0 for i, d in zip(self.row, self.side)]

    def min_eig(self, lam) -> list[float]:
        """Smallest eigenvalue of each entry's block of Z = sum_r lam_r A_r - C."""
        z = [lam[i] * a - c for i, a, c in zip(self.row, self.a, self.cd)]
        return [0.5 * (x + z[p]) - math.hypot(0.5 * (x - z[p]), o)
                for x, p, o in zip(z, self.part, self.coff)]

    def primal_terms(self, t):
        """w and the terms (C w)_e w_e at t, whose sum is h, with a 0 appended
        for a pinned row's second entry."""
        w = [math.sqrt(q * x) for q, x in zip(self.q, t)]
        uw = [(c * x + o * w[p]) * x for c, x, o, p in zip(self.cd, w, self.coff, self.part)]
        uw.append(0.0)
        return w, uw

    def certificate(self, t):
        """w, primal value h, multipliers and gap at t.  lam_r = sum_{e in r}
        (C w)_e w_e / rhs_r, which complementary slackness Z_b w_b = 0 gives and
        whose dual value equals the primal one, is raised by just enough to make
        every Z_b PSD; the gap is the cost of that repair, sum_r rhs_r raise_r."""
        w, uw = self.primal_terms(t)
        lam = [(uw[f] + uw[k]) / b for f, k, b in zip(self.first, self.second, self.rhs)]
        need = [(-m if m < 0.0 else 0.0) / a for m, a in zip(self.min_eig(lam), self.a)] + [0.0]
        up = [max(need[f], need[k]) for f, k in zip(self.first, self.second)]
        return w, sum(uw), [x + u for x, u in zip(lam, up)], sum(map(operator.mul, self.rhs, up))

    def derivatives(self, t):
        """Gradient of h in s and -Hessian: its diagonal and links (i, i+1).  A
        corner, a block with two zero entries, adds nothing: on that face its
        term is zero."""
        grad = self.lin_grad[:]
        diag, link = [0.0] * len(grad), [0.0] * (len(grad) - 1)
        for e, f, k in self.pairs:
            if t[e] * t[f] > 0.0:
                h = 0.25 * k / math.sqrt(t[e] * t[f])
                re, rf, se, sf = self.row[e], self.row[f], self.side[e], self.side[f]
                grad[re] += 2 * se * h * t[f]
                grad[rf] += 2 * sf * h * t[e]
                diag[re] += h * t[f] / t[e]
                diag[rf] += h * t[e] / t[f]
                link[min(re, rf)] -= se * sf * h
        return grad, diag, link

    def ascend(self, max_iterations: int):
        """Projected Newton ascent from self.s with an explicit active set; sets
        w and lam, returns steps, primal, gap and whether the step limit left
        the gap above the target.  A row at a bound stays there while h falls
        toward the inside; a corner, both entries of a block zero (see
        `search`), while it is a maximum over its two rows.
        The free rows take a Newton step damped by |gradient| row by row.

        The step from s is taken before s is certified.  By weak duality
        gap(s) >= h(s') - h(s) for the accepted s', so a gain above
        target + slack shows that the bracket at s is still open; s is
        certified only when the gain is smaller, when the ascent cannot move
        or when the step limit is reached, and the ascent stops at s, as it
        would certifying every iterate, once its gap is below the target."""
        s, steps = self.s, 0
        t = self.terms(s)
        primal = sum(self.primal_terms(t)[1])
        while True:
            found = None
            if steps < max_iterations:
                found = self.search(s, primal, *self.direction(s, t))
                if found is not None and found[0] == s:
                    found = None
            if found is None or found[2] - primal <= self.target + self.slack:
                self.w, _, self.lam, gap = self.certificate(t)
                if gap <= self.target or steps >= max_iterations:
                    return steps, primal, gap, gap > self.target
                if found is None:
                    return steps + 1, primal, gap, False
            steps += 1
            s[:], t, primal = found

    def direction(self, s, t):
        """The step from s and the rate of ascent along it, 0 when h cannot
        rise."""
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
            step = _tridiagonal_solve(damped, link, grad, free)
            longest = max(1.0, *map(abs, step))  # no row moves further than the box is wide
            step = [x / longest for x in step]
            rate = sum(map(operator.mul, grad, step))
        return step, rate

    def search(self, s, base, step, rate):
        """Armijo search along the projected path s + alpha step; returns the
        accepted s, its t and its primal value.  A trial that zeroes an entry
        with a positive partner moves the partner's row to the bound that
        zeroes it too; one that leaves a block one zero entry fails."""
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
                value = sum(self.primal_terms(t)[1])
                if value >= base + 1e-4 * alpha * rate - self.slack:
                    return trial, t, value
            alpha *= 0.5
        return None


def _tridiagonal_solve(diag, link, rhs, free):
    """x = 0 off the free rows and A x = rhs on them, for the symmetric
    positive definite A with diagonal `diag` and A[i, i+1] = link[i]:
    Thomas elimination in row order."""
    d = [x if f else 1.0 for x, f in zip(diag, free)]
    x = [y if f else 0.0 for y, f in zip(rhs, free)]
    c = [y if f and g else 0.0 for y, f, g in zip(link, free, free[1:])]
    for i, ci in enumerate(c):
        d[i + 1] -= ci * ci / d[i]
        x[i + 1] -= ci * x[i] / d[i]
    x[-1] /= d[-1]
    for i in range(len(c) - 1, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1]) / d[i]
    return x


def _solve_chain(problem: SdpProblem, max_iterations: int) -> SdpSolution:
    """Each component maximized on its own from s = 1/2 until its gap is below
    a target of a few round-offs, which scales with its rows and |C|, or it
    cannot move; `iterations` counts the steps of the slowest component.
    Optimal when the certificate meets the module's tolerances, else
    max_iterations if a component ran out of steps, else stalled."""
    entries, members, runs = _chain_entries(problem)
    rhs = [float(b) for _, b in problem.equalities]
    # diagonal and symmetrized cross term (0 on a 1x1 block) of each block,
    # as floats also when the objective holds numpy scalars
    sym = [(float(c[0][0]), float(c[-1][-1]),
            (float(c[0][-1]) + float(c[-1][0])) / 2 if len(c) == 2 else 0.0)
           for c in problem.objective]
    # the components: single rows first, then by first row
    chains = [_Chain(rows, members, entries, rhs, sym)
              for rows in sorted(runs, key=lambda rows: len(rows) > 1)]
    w, lam = [0.0] * len(entries), [0.0] * len(rhs)
    it, primal, gap, min_z, rp_norm, limited = 0, 0.0, 0.0, 0.0, 0.0, False
    for chain in chains:
        steps, value, chain_gap, out_of_steps = chain.ascend(max_iterations)
        it, primal, gap = max(it, steps), primal + value, gap + chain_gap
        limited |= out_of_steps
        min_z = min(min_z, *chain.min_eig(chain.lam))
        x = [a * v * v for a, v in zip(chain.a, chain.w)] + [0.0]
        for f, k, b in zip(chain.first, chain.second, chain.rhs):
            rp_norm = max(rp_norm, abs(x[f] + x[k] - b))
        for e, v in zip(chain.ents, chain.w):
            w[e] = v
        for r, v in zip(chain.rows, chain.lam):
            lam[r] = v
    rel = 1.0 + abs(primal + problem.offset)
    if rp_norm <= FEAS_TOL and gap <= GAP_TOL * rel and min_z >= -PSD_TOL:
        status = STATUS_OPTIMAL
    else:
        status = STATUS_MAX_ITERATIONS if limited else STATUS_STALLED
    blocks, e = [], 0
    for spec, c in zip(problem.blocks, sym):
        u, v = w[e], w[e + spec.dim - 1] * (-1.0 if c[2] < 0 else 1.0)
        blocks.append([[u * u, u * v], [u * v, v * v]] if spec.dim == 2 else [[u * u]])
        e += spec.dim
    # the dual residual is how far the repaired Z falls short of PSD
    return SdpSolution(
        blocks, primal + problem.offset, primal_residual=rp_norm, dual_residual=max(0.0, -min_z),
        gap_estimate=gap, iterations=it, status=status, dual_multipliers=lam,
    )


def solve(problem: SdpProblem, max_iterations: int | None = None) -> SdpSolution:
    """Maximize the linear objective over block-PSD variables with equalities,
    for a chain (see `_chain_entries`; anything else raises ValueError),
    solved to round-off by `_solve_chain`.  Deterministic; returns the
    blocks in problem order and the dual multipliers y of the rows, with
    dual slack Z = sum_r y_r A_r - C.  `max_iterations` bounds the steps,
    see `_step_limit`.
    """
    return _solve_chain(problem, _step_limit(max_iterations))


def check_certificate(problem: SdpProblem, solution: SdpSolution):
    """`uqsub.ipm.check_certificate`, which loads numpy."""
    from .ipm import check_certificate
    return check_certificate(problem, solution)


def check_dual(problem: SdpProblem, multipliers: Sequence[float]):
    """`uqsub.ipm.check_dual`, which loads numpy."""
    from .ipm import check_dual
    return check_dual(problem, multipliers)
