"""Command-line surface: optimize single instances, sweep grids, emit
baseline curves, verify against the brute-force oracle, and reconstruct or
simulate optimal channels.

`optimize`, `sweep` and `curves` run on the standard library alone.  The
oracle, channel and Monte-Carlo names in `_NUMPY_BACKED` import numpy; each
is bound here by the first command that needs it, or when it is read as
`uqsub.cli.<name>`, and a name bound already is never rebound.  `json`
loads in the commands that print it, and `logging` only when a line is
logged under QSUB_LOG=info or debug.
"""
from __future__ import annotations

import argparse
import marshal
import os
import sys
from importlib import import_module

from . import closed_forms
from .errors import CapacityError, ReconstructionError, check_p
from .objective import MAX_TOTAL_QUBITS, assemble, build_objective, w_values_from_solution
from .sdp import STATUS_OPTIMAL, solve

_NUMPY_BACKED = {
    ".oracle": ("build_omega", "solve_choi", "twirl_objective"),
    # kraus_from_choi, reconstruct_choi: unused here, patched by traced benchmark runs
    ".channel": ("KrausSet", "kraus_from_choi", "reconstruct_choi", "reconstruct_kraus"),
    ".mcsim": ("HaarSampler", "estimate_fidelity"),
}


def __getattr__(name: str):
    """Bind a numpy-backed name here on first use (PEP 562); one bound already stays."""
    for module, names in _NUMPY_BACKED.items():
        if name in names:
            return globals().setdefault(name, getattr(import_module(module, __package__), name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_SCHEMA = 6

# the most points `curves` takes, a p step of 1e-5; checked before the grid is built
MAX_P_STEPS = 100_001

class _Failure(Exception):
    """A command's failure as (exit code, message): `main` prints the
    message as one line on stderr and returns the code."""


def _logger():
    """The "uqsub" logger under QSUB_LOG=info or debug (`logging` loads here), else None."""
    level = os.environ.get("QSUB_LOG", "error").lower()
    if level not in ("info", "debug"):
        return None
    import logging

    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    return logging.getLogger("uqsub")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write(path: str, text: str) -> None:
    """Write an output file, or fail with exit 4 saying why."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc}")


def _solved(n1: int, n2: int, p: float):
    """The covariant solution at (n1, n2, p), which must be optimal."""
    sol = solve(assemble(build_objective(n1, n2), p))
    if not sol.success:
        raise _Failure(
            EXIT_SOLVER,
            f"solver failure: status={sol.status} primal_residual={sol.primal_residual:.3e} "
            f"gap={sol.gap_estimate:.3e}",
        )
    return sol


def cmd_optimize(args) -> int:
    sol = _solved(args.n1, args.n2, args.p)
    w = w_values_from_solution(sol, args.n1, args.n2)
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
            "dual_residual": sol.dual_residual,
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
            f"dual_residual={sol.dual_residual:.3e}"
        )
        for s, value in w.items():
            # every row fixes a positive mix of two diagonal entries to 1, so an
            # entry this small is solver round-off that cannot move F's digits
            shown = _fmt(value) if abs(value) >= 1e-12 else "0"
            print(f"  W[j1={s.j1} j={s.j} j'={s.jp} q={s.q}] = {shown}")
    return EXIT_OK


def _sweep_point(task):
    n1, n2, p = task
    sol = solve(assemble(build_objective(n1, n2), p))
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
    caches it per (k, n1+n2), so each share builds the G_k of its own
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
    """What `_run_share` returned in a forked share's child, or why that
    child failed as one string."""
    try:
        with os.fdopen(read_end, "rb") as fh:
            data = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        payload = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        payload = None
    if isinstance(payload, str) or code == 0 and isinstance(payload, list):
        return payload
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _sweep_rows(shares):
    """Rows of every share, or a failure (exit 3) naming the first share's
    error.

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
    rows = []
    for got in [own, *reaped]:
        if isinstance(got, str):
            raise _Failure(EXIT_SOLVER, f"sweep worker failure: {got}")
        rows += got
    return rows


def cmd_sweep(args) -> int:
    if min(args.n1_max, args.n2_max) < 1 or args.n1_max + args.n2_max > MAX_TOTAL_QUBITS:
        raise _Failure(
            EXIT_USAGE,
            f"error: need --n1-max, --n2-max >= 1 with --n1-max + --n2-max <= {MAX_TOTAL_QUBITS}",
        )
    if args.jobs is not None and args.jobs < 1:
        raise _Failure(EXIT_USAGE, f"error: --jobs must be >= 1, got {args.jobs}")
    tasks = [(n1, n2, args.p) for n1 in range(1, args.n1_max + 1) for n2 in range(1, args.n2_max + 1)]
    shares = _shares(tasks, args.jobs if args.jobs is not None else _usable_cores())
    log = _logger()
    if log is not None:
        log.info("sweep: %d grid points at p=%s with %d workers", len(tasks), args.p, len(shares))
    results = _sweep_rows(shares)
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
    _write(args.out, "\n".join(lines) + "\n")
    # flag (never fix) monotonicity violations beyond solver noise
    for n1, n2 in fmax:
        for other in ((n1 + 1, n2), (n1, n2 + 1)):
            if other in fmax and fmax[other] < fmax[(n1, n2)] - 1e-7:
                print(
                    f"warning: monotonicity violated: F{other} = {fmax[other]:.9f} "
                    f"< F{(n1, n2)} = {fmax[(n1, n2)]:.9f}",
                    file=sys.stderr,
                )
    bad = [key for key, st in status.items() if st != STATUS_OPTIMAL]
    if bad:
        raise _Failure(EXIT_SOLVER, f"solver failure on grid points: {bad}")
    print(f"wrote {len(tasks)} rows to {args.out}")
    return EXIT_OK


def cmd_curves(args) -> int:
    if not 2 <= args.p_steps <= MAX_P_STEPS:
        raise _Failure(EXIT_USAGE, f"error: --p-steps must lie in [2, {MAX_P_STEPS}]")
    table = build_objective(args.n1, args.n2)
    ps = closed_forms.default_p_grid(args.p_steps)
    lines = ["p,f_opt,f_dn,f_mp_upper,f_2inf"]
    for p in ps:
        sol = solve(assemble(table, p))
        if not sol.success:
            raise _Failure(EXIT_SOLVER, f"solver failure at p={p}: {sol.status}")
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
    _write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(ps)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        n1, n2 = (int(tok) for tok in args.case.split(","))
    except ValueError:
        n1 = n2 = 0
    if min(n1, n2) < 1:
        raise _Failure(EXIT_USAGE, "error: expected --case n1,n2 with n1, n2 >= 1")
    sol = _solved(n1, n2, args.p)
    build_omega, twirl_objective, solve_choi = map(
        __getattr__, ("build_omega", "twirl_objective", "solve_choi")
    )
    from numpy.linalg import LinAlgError  # loaded with the oracle already

    try:
        oracle_value, _ = solve_choi(twirl_objective(build_omega(n1, n2, args.p)))
    except (RuntimeError, ArithmeticError, LinAlgError) as exc:
        raise _Failure(EXIT_SOLVER, f"oracle solver failure: {exc}")
    diff = abs(sol.objective_value - oracle_value)
    print(f"covariant SDP : {_fmt(sol.objective_value)}")
    print(f"oracle SDP    : {_fmt(oracle_value)}")
    print(f"difference    : {diff:.3e}")
    if diff > 1e-5:
        raise _Failure(EXIT_VERIFY, "MISMATCH (tolerance 1e-5)")
    print("pass (tolerance 1e-5)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    reconstruct_kraus = __getattr__("reconstruct_kraus")
    sol = _solved(args.n1, args.n2, args.p)
    from numpy.linalg import LinAlgError  # loaded with the channel already

    try:
        kraus = reconstruct_kraus(sol, args.n1, args.n2)
    except (ReconstructionError, LinAlgError) as exc:
        raise _Failure(EXIT_SOLVER, f"channel reconstruction failure: {exc}")
    _write(args.out, kraus.to_json() + "\n")
    print(
        f"wrote {len(kraus.operators)} Kraus operators to {args.out} "
        f"(completeness residual {kraus.completeness_residual():.3e}, "
        f"F_max {_fmt(sol.objective_value)})"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.samples < 2:
        raise _Failure(EXIT_USAGE, f"error: --samples must be >= 2, got {args.samples}")
    too_large = _Failure(EXIT_USAGE, f"error: --samples {args.samples} does not fit in memory")
    if args.samples > sys.maxsize // 8:  # numpy refuses this many float64 with ValueError
        raise too_large
    if not 0 <= args.seed < 2**128:  # the range of a Philox key
        raise _Failure(EXIT_USAGE, f"error: --seed must lie in [0, 2**128), got {args.seed}")
    KrausSet, estimate_fidelity, HaarSampler = map(
        __getattr__, ("KrausSet", "estimate_fidelity", "HaarSampler")
    )
    try:
        with open(args.kraus) as fh:
            kraus = KrausSet.from_json(fh.read())
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {args.kraus}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise _Failure(EXIT_SCHEMA, f"Kraus schema mismatch: {exc}")
    # from_json gives one or more operators of one shape
    dim, shape = 1 << (args.n1 + args.n2), kraus.operators[0].shape
    if shape != (2, dim):
        raise _Failure(EXIT_SCHEMA, f"Kraus operators of shape {[shape]}, flags give dimension {dim}")
    residual = kraus.completeness_residual()
    if residual > 1e-8:
        raise _Failure(
            EXIT_SCHEMA, f"Kraus set not trace preserving: completeness residual {residual:.3e}"
        )
    sol = _solved(args.n1, args.n2, args.p)
    try:
        estimate = estimate_fidelity(
            kraus, args.n1, args.n2, args.p, samples=args.samples, sampler=HaarSampler(args.seed)
        )
    except MemoryError:
        raise too_large
    passed = estimate.within(sol.objective_value)
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

    def add_instance_flags(sp):
        sp.add_argument("--n1", type=int, default=1, help="mixture copies")
        sp.add_argument("--n2", type=int, default=1, help="noise copies")
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
    sp.add_argument(
        "--p-steps", type=int, default=101, help=f"points of the p grid, 2 to {MAX_P_STEPS}"
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "p"):
        try:
            check_p(args.p)
        except ValueError:
            parser.error(f"--p must lie in [0, 1], got {args.p}")
        args.p += 0.0  # -0.0 passes the range check; print it as 0
    if hasattr(args, "n1") and (args.n1 < 1 or args.n2 < 1):
        parser.error("--n1 and --n2 must be >= 1")
    # the one place where a failure becomes its exit code and stderr line
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed reader shows here rather than at exit
    except _Failure as exc:
        code, line = exc.args
    except CapacityError as exc:
        code, line = EXIT_USAGE, f"error: {exc}"
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, line = EXIT_IO, "error: standard output is closed"
    except Exception as exc:
        log = _logger()
        if log is not None:
            log.debug("unexpected error", exc_info=exc)
        code, line = EXIT_SOLVER, f"error: {type(exc).__name__}: {exc}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
