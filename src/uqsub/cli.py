"""Command-line surface: optimize single instances, sweep grids, emit
baseline curves, verify against the brute-force oracle, and reconstruct or
simulate optimal channels."""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import closed_forms
from .channel import (
    BASIS_QUBIT_GUARD, KrausSet, kraus_from_choi, reconstruct_choi, w_values_from_solution
)
from .errors import CapacityError
from .mcsim import HaarSampler, estimate_fidelity
from .objective import MAX_TOTAL_QUBITS, assemble, build_objective
from .oracle import build_omega, solve_choi, twirl_objective
from .sdp import solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_SCHEMA = 6

log = logging.getLogger("uqsub")


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("QSUB_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write(path: str, text: str) -> bool:
    """Write an output file; on failure say why on stderr and return False."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _solve_instance(n1: int, n2: int, p: float):
    problem = assemble(build_objective(n1, n2), p)
    return problem, solve(problem)


def cmd_optimize(args) -> int:
    try:
        problem, sol = _solve_instance(args.n1, args.n2, args.p)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    w = w_values_from_solution(sol, args.n1, args.n2)
    if not sol.success:
        print(
            f"solver failure: status={sol.status} primal_residual={sol.primal_residual:.3e} "
            f"gap={sol.gap_estimate:.3e}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    if args.json:
        doc = {
            "n1": args.n1,
            "n2": args.n2,
            "p": args.p,
            "f_max": sol.objective_value,
            "f_dn": closed_forms.dn_fidelity(args.p),
            "status": sol.status,
            "iterations": sol.iterations,
            "primal_residual": sol.primal_residual,
            "gap_estimate": sol.gap_estimate,
            "min_eigenvalue": sol.min_eigenvalue,
            "w": [
                {
                    "tj1": s.j1.twice,
                    "tj": s.j.twice,
                    "tjp": s.jp.twice,
                    "tq": s.q.twice,
                    "value": value,
                }
                for s, value in w.items()
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"F_max({args.n1},{args.n2}; p={_fmt(args.p)}) = {_fmt(sol.objective_value)}")
        print(
            f"status={sol.status} iterations={sol.iterations} "
            f"primal_residual={sol.primal_residual:.3e} gap={sol.gap_estimate:.3e} "
            f"min_eigenvalue={sol.min_eigenvalue:.3e}"
        )
        for s, value in w.items():
            # every row fixes a positive mix of two diagonal entries to 1, so an
            # entry this small is solver round-off that cannot move F's digits
            shown = _fmt(value) if abs(value) >= 1e-12 else "0"
            print(f"  W[j1={s.j1} j={s.j} j'={s.jp} q={s.q}] = {shown}")
    return EXIT_OK


def _sweep_point(task):
    n1, n2, p = task
    _, sol = _solve_instance(n1, n2, p)
    return n1, n2, sol.objective_value, sol.status


def cmd_sweep(args) -> int:
    if min(args.n1_max, args.n2_max) < 1 or args.n1_max + args.n2_max > MAX_TOTAL_QUBITS:
        print(
            f"error: need --n1-max, --n2-max >= 1 with --n1-max + --n2-max <= {MAX_TOTAL_QUBITS}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(n1, n2, args.p) for n1 in range(1, args.n1_max + 1) for n2 in range(1, args.n2_max + 1)]
    chunk = 4  # grid points per task handed to a worker
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    # the pool starts all its workers up front; more than one per chunk would idle
    jobs = min(jobs, -(-len(tasks) // chunk))
    log.info("sweep: %d grid points at p=%s with %d workers", len(tasks), args.p, jobs)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks, chunksize=chunk))
    else:
        results = [_sweep_point(t) for t in tasks]
    fmax = {(n1, n2): value for n1, n2, value, _ in results}
    status = {(n1, n2): st for n1, n2, _, st in results}
    f_dn = closed_forms.dn_fidelity(args.p)
    lines = ["n1,n2,p,f_max,f_dn,gap,status,prefer"]
    for n1, n2, _ in tasks:
        # which extra copy helps more: "A" mixture, "B" noise, "=" both print
        # the same f_max, "" grid edge
        prefer = ""
        if (n1 + 1, n2) in fmax and (n1, n2 + 1) in fmax:
            more_a, more_b = fmax[(n1 + 1, n2)], fmax[(n1, n2 + 1)]
            if _fmt(more_a) == _fmt(more_b):
                prefer = "="
            else:
                prefer = "A" if more_a > more_b else "B"
        f = fmax[(n1, n2)]
        # digits below the printed f_max are round-off; a real negative gap still shows
        gap = 0.0 if _fmt(f) == _fmt(f_dn) else f - f_dn
        fields = [n1, n2, _fmt(args.p), _fmt(f), _fmt(f_dn), _fmt(gap), status[(n1, n2)], prefer]
        lines.append(",".join(map(str, fields)))
    if not _write(args.out, "\n".join(lines) + "\n"):
        return EXIT_IO
    # flag (never fix) monotonicity violations beyond solver noise
    for n1, n2 in fmax:
        for other in ((n1 + 1, n2), (n1, n2 + 1)):
            if other in fmax and fmax[other] < fmax[(n1, n2)] - 1e-7:
                print(
                    f"warning: monotonicity violated: F{other} = {fmax[other]:.9f} "
                    f"< F{(n1, n2)} = {fmax[(n1, n2)]:.9f}",
                    file=sys.stderr,
                )
    bad = [key for key, st in status.items() if st != "optimal"]
    if bad:
        print(f"solver failure on grid points: {bad}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {len(tasks)} rows to {args.out}")
    return EXIT_OK


def cmd_curves(args) -> int:
    if args.p_steps < 2:
        print("error: --p-steps must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = build_objective(args.n1, args.n2)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ps = closed_forms.default_p_grid(args.p_steps)
    lines = ["p,f_opt,f_dn,f_mp_upper,f_2inf"]
    for p in ps:
        sol = solve(assemble(table, p))
        if not sol.success:
            print(f"solver failure at p={p}: {sol.status}", file=sys.stderr)
            return EXIT_SOLVER
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    p,
                    sol.objective_value,
                    closed_forms.dn_fidelity(p),
                    closed_forms.mp_upper(p, args.n1),
                    closed_forms.f2inf(p),
                )
            )
        )
    if not _write(args.out, "\n".join(lines) + "\n"):
        return EXIT_IO
    print(f"wrote {len(ps)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        n1, n2 = (int(tok) for tok in args.case.split(","))
    except ValueError:
        print("expected --case n1,n2", file=sys.stderr)
        return EXIT_USAGE
    if min(n1, n2) < 1 or n1 + n2 > 5:
        print("verify needs n1, n2 >= 1 with n1+n2 <= 5", file=sys.stderr)
        return EXIT_USAGE
    _, sol = _solve_instance(n1, n2, args.p)
    if not sol.success:
        print(f"covariant solver failure: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        oracle_value, _ = solve_choi(twirl_objective(build_omega(n1, n2, args.p)))
    except (RuntimeError, ArithmeticError, CapacityError) as exc:
        print(f"oracle solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    diff = abs(sol.objective_value - oracle_value)
    print(f"covariant SDP : {_fmt(sol.objective_value)}")
    print(f"oracle SDP    : {_fmt(oracle_value)}")
    print(f"difference    : {diff:.3e}")
    if diff > 1e-5:
        print("MISMATCH (tolerance 1e-5)", file=sys.stderr)
        return EXIT_VERIFY
    print("pass (tolerance 1e-5)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if args.n1 + args.n2 > BASIS_QUBIT_GUARD:
        print(f"error: reconstruct limited to n1+n2 <= {BASIS_QUBIT_GUARD}", file=sys.stderr)
        return EXIT_USAGE
    _, sol = _solve_instance(args.n1, args.n2, args.p)
    if not sol.success:
        print(f"solver failure: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    choi = reconstruct_choi(sol, args.n1, args.n2)
    kraus = kraus_from_choi(choi)
    if not _write(args.out, kraus.to_json() + "\n"):
        return EXIT_IO
    print(
        f"wrote {len(kraus.operators)} Kraus operators to {args.out} "
        f"(completeness residual {kraus.completeness_residual():.3e}, "
        f"F_max {_fmt(sol.objective_value)})"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.samples < 2:
        print(f"error: --samples must be >= 2, got {args.samples}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.seed < 2**128:  # the range of a Philox key
        print(f"error: --seed must lie in [0, 2**128), got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.kraus) as fh:
            kraus = KrausSet.from_json(fh.read())
    except OSError as exc:
        print(f"cannot read {args.kraus}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError) as exc:
        print(f"Kraus schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if not kraus.operators:
        print("Kraus schema mismatch: empty operator list", file=sys.stderr)
        return EXIT_SCHEMA
    dim = 1 << (args.n1 + args.n2)
    shapes = sorted({m.shape for m in kraus.operators})
    if shapes != [(2, dim)]:
        print(f"Kraus operators of shape {shapes}, flags give dimension {dim}", file=sys.stderr)
        return EXIT_SCHEMA
    residual = kraus.completeness_residual()
    if residual > 1e-8:
        print(
            f"Kraus set not trace preserving: completeness residual {residual:.3e}",
            file=sys.stderr,
        )
        return EXIT_SCHEMA
    _, sol = _solve_instance(args.n1, args.n2, args.p)
    estimate = estimate_fidelity(
        kraus, args.n1, args.n2, args.p, samples=args.samples, sampler=HaarSampler(args.seed)
    )
    passed = estimate.within(sol.objective_value, n_sigma=4)
    doc = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "samples": estimate.samples,
        "seed": args.seed,
        "sdp_objective": sol.objective_value,
        "pass": bool(passed),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqsub",
        description="Optimal average fidelity of the universal quantum subtracting machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(sp, default_n1=1, default_n2=1):
        sp.add_argument("--n1", type=int, default=default_n1, help="mixture copies")
        sp.add_argument("--n2", type=int, default=default_n2, help="noise copies")
        sp.add_argument("--p", type=float, required=True, help="mixing probability in [0,1]")

    sp = sub.add_parser("optimize", help="solve one covariant SDP instance")
    add_instance_flags(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep", help="solve an (n1, n2) grid and write CSV")
    sp.add_argument("--n1-max", type=int, default=10)
    sp.add_argument("--n2-max", type=int, default=10)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--jobs", type=int, default=None, help="workers (default: logical cores)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("curves", help="analytic baselines plus the solver curve as CSV")
    sp.add_argument("--n1", type=int, default=2)
    sp.add_argument("--n2", type=int, default=1)
    sp.add_argument("--p-steps", type=int, default=101)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("verify", help="cross-check covariant SDP against the dense oracle")
    sp.add_argument("--case", required=True, help="n1,n2 with n1+n2 <= 5")
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reconstruct", help="emit the optimal channel as Kraus JSON")
    add_instance_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("simulate", help="Monte-Carlo fidelity of a saved Kraus set")
    add_instance_flags(sp)
    sp.add_argument("--kraus", required=True, help="path to Kraus JSON")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "p") and not 0.0 <= args.p <= 1.0:
        parser.error(f"--p must lie in [0, 1], got {args.p}")
    if hasattr(args, "n1") and (args.n1 < 1 or args.n2 < 1):
        parser.error("--n1 and --n2 must be >= 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
