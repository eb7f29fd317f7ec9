"""Command-line surface: optimize single instances, sweep grids, emit
baseline curves, verify against the brute-force oracle, and reconstruct or
simulate optimal channels.

`optimize`, `sweep` and `curves` run on the standard library alone.  The
oracle, channel and Monte-Carlo names below import numpy; each is bound in
this module by the first command that needs it, or when it is read as
`uqsub.cli.<name>`, and a name bound already is never rebound.  `json`
loads in the commands that print it, and `logging` only under
QSUB_LOG=info or debug.
"""
from __future__ import annotations

import argparse
import marshal
import os
import sys

from . import closed_forms
from ._lazy import lazy_getattr
from .errors import CapacityError, ReconstructionError
from .objective import MAX_TOTAL_QUBITS, assemble, build_objective, w_values_from_solution
from .sdp import solve

__getattr__ = lazy_getattr(
    globals(),
    {
        **dict.fromkeys(("build_omega", "solve_choi", "twirl_objective"), ".oracle"),
        **dict.fromkeys(
            ("BASIS_QUBIT_GUARD", "KrausSet", "kraus_from_choi", "reconstruct_choi"), ".channel"
        ),
        **dict.fromkeys(("HaarSampler", "estimate_fidelity"), ".mcsim"),
    },
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_SCHEMA = 6

log = None  # the "uqsub" logger, set up by main under QSUB_LOG=info or debug


def _setup_logging():
    global log
    level = os.environ.get("QSUB_LOG", "error").lower()
    if level not in ("info", "debug"):
        log = None
        return
    import logging

    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("uqsub")


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
        import json

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


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(tasks, jobs: int) -> list[list]:
    """At most `jobs` shares of whole anti-diagonals, by n1+n2 mod the share
    count; on a rectangular grid the n1+n2 are consecutive, so none is empty.

    The factor G_k depends on the size only through n1+n2: the objective
    caches it per (k, n1+n2, q), so each share builds the G_k of its own
    anti-diagonals and no other process repeats them.  Neighbouring
    anti-diagonals cost about the same, so on square grids the shares are
    balanced to a few percent (measured in README, CLI).
    """
    jobs = min(jobs, len({n1 + n2 for n1, n2, _ in tasks}))
    return [[t for t in tasks if (t[0] + t[1]) % jobs == r] for r in range(jobs)]


def _run_share(share):
    """The rows of `share`, or the error that stopped it as one string."""
    try:
        return [_sweep_point(t) for t in share]
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _fork_share(share):
    """Start a child that computes `share`; returns (pid, read end of its
    pipe), or None where os.fork is missing or fails.

    The child marshals what `_run_share` returns to the pipe and leaves by
    os._exit on every path: no traceback, no atexit handler and no flush of
    buffers it inherited.  The CLI starts no thread, so the child inherits
    no lock held by another thread.
    """
    if not hasattr(os, "fork"):
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        payload = _run_share(share)
        with os.fdopen(write_end, "wb") as fh:
            fh.write(marshal.dumps(payload))
        code = 0 if isinstance(payload, list) else 1
    finally:
        os._exit(code)


def _reap(pid: int, read_end: int):
    """(rows, None) of a forked share, or (None, why its child failed)."""
    try:
        with os.fdopen(read_end, "rb") as fh:
            data = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        payload = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        payload = None
    if code == 0 and isinstance(payload, list):
        return payload, None
    if isinstance(payload, str):
        return None, payload
    return None, f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _sweep_rows(shares):
    """Rows of every share, and the first failure's reason or None.

    Each share after the first runs in a forked child, or here where that
    child cannot start; the first runs here, and its error is reported as a
    child's is.  Every child is reaped, also when an interrupt stops this
    process.
    """
    children, local = [], list(shares[0])
    try:
        for share in shares[1:]:
            child = _fork_share(share)
            if child is None:
                local += share
            else:
                children.append(child)
        own = _run_share(local)
    finally:
        reaped = [_reap(*child) for child in children]
    outcomes = [(None, own) if isinstance(own, str) else (own, None)] + reaped
    failure = next((why for got, why in outcomes if got is None), None)
    return [row for got, _ in outcomes if got for row in got], failure


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
    shares = _shares(tasks, args.jobs if args.jobs is not None else _usable_cores())
    if log is not None:
        log.info("sweep: %d grid points at p=%s with %d workers", len(tasks), args.p, len(shares))
    results, failure = _sweep_rows(shares)
    if failure is not None:
        print(f"sweep worker failure: {failure}", file=sys.stderr)
        return EXIT_SOLVER
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
    if min(n1, n2) < 1 or n1 + n2 > 6:
        print("verify needs n1, n2 >= 1 with n1+n2 <= 6", file=sys.stderr)
        return EXIT_USAGE
    _, sol = _solve_instance(n1, n2, args.p)
    if not sol.success:
        print(f"covariant solver failure: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    build_omega, twirl_objective, solve_choi = map(
        __getattr__, ("build_omega", "twirl_objective", "solve_choi")
    )
    from numpy.linalg import LinAlgError  # loaded with the oracle already

    try:
        oracle_value, _ = solve_choi(twirl_objective(build_omega(n1, n2, args.p)))
    except (RuntimeError, ArithmeticError, CapacityError, LinAlgError) as exc:
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
    guard, reconstruct_choi, kraus_from_choi = map(
        __getattr__, ("BASIS_QUBIT_GUARD", "reconstruct_choi", "kraus_from_choi")
    )
    if args.n1 + args.n2 > guard:
        print(f"error: reconstruct limited to n1+n2 <= {guard}", file=sys.stderr)
        return EXIT_USAGE
    _, sol = _solve_instance(args.n1, args.n2, args.p)
    if not sol.success:
        print(f"solver failure: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    from numpy.linalg import LinAlgError  # loaded with the channel already

    try:
        kraus = kraus_from_choi(reconstruct_choi(sol, args.n1, args.n2))
    except (ReconstructionError, LinAlgError) as exc:
        print(f"channel reconstruction failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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
    KrausSet, estimate_fidelity, HaarSampler = map(
        __getattr__, ("KrausSet", "estimate_fidelity", "HaarSampler")
    )
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
    import json

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
    sp.add_argument(
        "--jobs", type=int, default=None,
        help="processes, at most one per anti-diagonal n1+n2 "
        "(default: the cores this process may run on)",
    )
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("curves", help="analytic baselines plus the solver curve as CSV")
    sp.add_argument("--n1", type=int, default=2)
    sp.add_argument("--n2", type=int, default=1)
    sp.add_argument("--p-steps", type=int, default=101)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("verify", help="cross-check covariant SDP against the dense oracle")
    sp.add_argument("--case", required=True, help="n1,n2 with n1+n2 <= 6")
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
    if hasattr(args, "p"):
        if not 0.0 <= args.p <= 1.0:
            parser.error(f"--p must lie in [0, 1], got {args.p}")
        args.p += 0.0  # -0.0 passes the range check; print it as 0
    if hasattr(args, "n1") and (args.n1 < 1 or args.n2 < 1):
        parser.error("--n1 and --n2 must be >= 1")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here rather than at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
