"""Run one uqsub CLI command with spans around the calls into each layer.

    python3 bench/traced_cli.py SPANS.json ARG...

is `python3 -m uqsub.cli ARG...` with the benchmark's own wrappers put in
place of the layer functions, at the names the CLI calls them, so that no
file of the package changes.  Each wrapper records a span (name, start, end,
parent span, sizes); a counter replaces `cg_twice` where `uqsub.objective`
looks it up.  Spans stay in memory and are written to SPANS.json when the
command ends, also when it raises.  The root span `cli` starts at this
file's first statement, so it covers the package import.

`sdp.check_certificate` runs after each solve, outside the solve's span but
inside a `bench.certificate` span of its own, so it is subtracted from the
self time of whatever called the solver.
"""
import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402


class Recorder:
    """In-memory spans and counters of one CLI process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    @contextmanager
    def span(self, name, start=None):
        record = {
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, describe=None):
        """`fn` inside a span; `describe(result)` adds sizes after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(result))
            return result

        return wrapper

    def wrap_solve(self, name, solve, check_certificate):
        """`sdp.solve` inside a span, then its certificate check outside it."""

        @functools.wraps(solve)
        def wrapper(problem, config=None):
            with self.span(name) as attrs:
                solution = solve(problem, config)
            attrs.update(
                iterations=solution.iterations,
                status=solution.status,
                gap=solution.gap_estimate,
                value=solution.objective_value,
                blocks=len(problem.blocks),
                rows=problem.num_constraints,
                dim=max(spec.dim for spec in problem.blocks),
            )
            with self.span("bench.certificate"):
                attrs["certificate"] = check_certificate(problem, solution).passed
            return solution

        return wrapper

    def count(self, name, fn):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper


def install(rec: Recorder) -> None:
    import uqsub.cli as cli
    import uqsub.closed_forms as closed_forms
    import uqsub.objective as objective
    import uqsub.oracle as oracle
    from uqsub.channel import KrausSet
    from uqsub.sdp import check_certificate

    cli.build_objective = rec.wrap(
        "objective.build_objective", cli.build_objective, lambda t: {"sectors": len(t.entries)}
    )
    cli.assemble = rec.wrap("objective.assemble", cli.assemble)
    objective.cg_twice = rec.count("angular.cg_twice.calls", objective.cg_twice)
    cli.solve = rec.wrap_solve("sdp.covariant", cli.solve, check_certificate)
    oracle.solve = rec.wrap_solve("sdp.choi", oracle.solve, check_certificate)
    for name in ("dn_fidelity", "mp_upper", "f2inf"):
        setattr(closed_forms, name, rec.wrap("closed_forms", getattr(closed_forms, name)))
    cli.build_omega = rec.wrap("oracle.build_omega", cli.build_omega)
    cli.twirl_objective = rec.wrap("oracle.twirl_objective", cli.twirl_objective)
    cli.solve_choi = rec.wrap("oracle.solve_choi", cli.solve_choi, lambda r: {"value": r[0]})
    cli.reconstruct_choi = rec.wrap("channel.reconstruct_choi", cli.reconstruct_choi)
    cli.kraus_from_choi = rec.wrap(
        "channel.kraus_from_choi", cli.kraus_from_choi, lambda k: {"kraus_ops": len(k.operators)}
    )
    KrausSet.to_json = rec.wrap("channel.kraus_json", KrausSet.to_json)
    KrausSet.from_json = classmethod(rec.wrap("channel.kraus_json", KrausSet.from_json.__func__))
    cli.estimate_fidelity = rec.wrap(
        "mcsim.estimate_fidelity", cli.estimate_fidelity, lambda e: {"samples": e.samples}
    )


def main(spans_path: str, argv: list[str]) -> int:
    rec = Recorder()
    try:
        with rec.span("cli", start=_T0):
            import uqsub.cli

            install(rec)
            return uqsub.cli.main(argv) or 0
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
