"""Benchmark of the uqsub CLI, end to end and layer by layer.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run it from a uqsub checkout; it needs nothing but the package sources under
`src/` and the Python that runs it.  Every operation is one fresh
`python3 -m uqsub.cli ...` process, as a user runs it.  One generator process
runs the operations one at a time in a closed loop: it makes three passes
over the workload's operations, then starts another while fewer than
`--seconds` have passed.
Children get `OPENBLAS_NUM_THREADS=1` and `OMP_NUM_THREADS=1`, so the only
parallelism is the sweep's worker pool, capped at the number of usable cores.
Every output is checked against a reference the benchmark computes itself.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
machine, every operation with the SHA-256 of its CSV/JSON outputs, and every
metric by name and unit.

Workloads.  The seed makes the inputs; the program receives only the flags.

  grid      `sweep --n1-max 10 --n2-max 10 --p P --jobs <cores>`, one per
            pass, P in [0.05, 0.95]: an offset from the seed, then steps of
            a third of the range.  100 independent covariant solves of up to
            41 blocks and 36 rows; `sdp.solve` is most of the time,
            `build_objective` the rest, and the process pool is busy.  This
            is where a faster covariant solver, objective caching or a
            change to the pool shows.  The oracle, channel and mcsim layers
            are idle.
  curve     `curves --n1 2 --n2 1 --p-steps 101`, one per pass; the seed is
            unused because the CLI fixes the p grid.  101 solves of a
            5-block, 3-row problem from one objective table: per-call solver
            overhead is the time, `build_objective` runs once.  Warm starts
            and per-call overhead show here, objective caching does not.
  validate  per pass, `verify --case c` for c in (2,1) (1,2) (3,1) (2,2)
            (1,3) (3,2), then `reconstruct` and `simulate --samples 50000`
            for (2,1) and (2,2); p and the Monte-Carlo seed come from the
            seed.  One dense Choi block of dimension 16-64 with up to 528
            rows instead of many 1x1/2x2 blocks, and each `verify` process
            pays the permutation-Gram set-up, as CLI users do.  The only
            workload that uses the oracle, channel and mcsim layers.  (3,2)
            is an n1+n2 = 5 case, where the oracle's twirl has failed; it
            stays in the workload, and a failure counts as failed.

End-to-end metrics (`--trace 0`), reported on every workload:

  setup_s      s      median time for a fresh interpreter to `import
                      uqsub.cli` (every operation pays it first)
  peak_rss_mb  MB     highest max-RSS of any CLI process in the run,
                      including the sweep's pool workers
  op_s         s      wall time of the workload's headline operation, a
                      failed one counting as the time-out (see `kind_s`):
                      the mean `sweep_s` over the run's sweeps on grid, the
                      median `curves_s` on curve and the median per-case
                      `verify_s` on validate

Every workload reports the same three, none of which can read 0, so that
runs compare metric by metric.  The report lines also give `failed_frac`
(failed over attempted; the JSON carries it as `failed` and `attempted`), and
`sweep_s`, `curves_s`, `verify_s`, `reconstruct_s` and `simulate_s` wherever
the workload runs that command.  An operation fails on a non-zero exit, a
traceback, or an output outside its reference tolerance; the JSON `correct`
is false only for the last kind, a wrong answer.

Per-layer metrics (`--trace 1`).  A traced run makes one untraced pass and two
traced passes over the same inputs; the per-layer figures come from the first
traced pass.  Traced operations run `bench/traced_cli.py`, which calls
`uqsub.cli.main(argv)` with span wrappers around the layer functions.  The
traced grid pass uses `--jobs 1`, because spans in pool workers would be lost,
so its `bench.trace_overhead_s` combines pool gain, pool overhead and tracing
overhead.  `LAYER_METRICS` below names, for each metric, the end-to-end metric
and the workloads it should move.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
OP_TIMEOUT_S = 150.0  # a failed operation ranks as if it took this long
RUN_LIMIT_S = 170.0  # a run ends within 180 s even if an operation hangs
P_STRATA = 3  # an end-to-end run makes at least this many passes
VERIFY_CASES = ((2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (3, 2))
CHANNEL_CASES = ((2, 1), (2, 2))
MC_SAMPLES = 50_000
E2E_KIND = {"grid": "sweep", "curve": "curves", "validate": "verify"}

# (name, unit, better, end-to-end metric it should move, workloads, definition)
LAYER_METRICS = [
    ("cli.self_s", "s", "lower", "sweep_s curves_s", "grid curve",
     "traced operation time (import included) minus its layer spans"),
    ("objective.build_objective.s", "s", "lower", "sweep_s", "grid (~0 on curve)",
     "time in build_objective"),
    ("objective.build_objective.calls", "count", "lower", "sweep_s", "grid",
     "build_objective calls"),
    ("objective.sectors", "count", "lower", "sweep_s", "grid",
     "sectors over all objective tables built"),
    ("objective.assemble.s", "s", "lower", "curves_s sweep_s", "curve grid",
     "time in assemble"),
    ("angular.cg_twice.calls", "count", "lower", "sweep_s", "grid",
     "cg_twice calls made by uqsub.objective"),
    ("sdp.covariant.s", "s", "lower", "sweep_s curves_s", "grid curve (small on validate)",
     "time in solve called by the CLI"),
    ("sdp.covariant.calls", "count", "lower", "sweep_s curves_s", "grid curve",
     "covariant solves"),
    ("sdp.covariant.iterations", "count", "lower", "sweep_s curves_s", "grid curve",
     "sum of SdpSolution.iterations over covariant solves"),
    ("sdp.covariant.s_per_iteration", "s", "lower", "sweep_s curves_s", "grid curve",
     "sdp.covariant.s / sdp.covariant.iterations"),
    ("sdp.covariant.blocks_max", "count", "lower", "sweep_s", "grid",
     "most PSD blocks in one covariant problem"),
    ("sdp.covariant.rows_max", "count", "lower", "sweep_s", "grid",
     "most equality rows in one covariant problem"),
    ("sdp.choi.s", "s", "lower", "verify_s", "validate",
     "time in solve called by uqsub.oracle"),
    ("sdp.choi.iterations", "count", "lower", "verify_s", "validate",
     "sum of iterations over Choi solves"),
    ("sdp.not_optimal", "count", "lower", "failed_frac", "all",
     "solves whose status is not optimal"),
    ("sdp.certificate_fail", "count", "lower", "failed_frac", "all",
     "solutions check_certificate rejects (checked outside the solve span)"),
    ("sdp.gap_max", "fidelity", "lower", "failed_frac", "all",
     "largest gap_estimate of any solve"),
    ("closed_forms.s", "s", "lower", "curves_s (~0.1% today)", "curve",
     "time in dn_fidelity, mp_upper and f2inf as the CLI calls them"),
    ("oracle.build_omega.s", "s", "lower", "verify_s", "validate",
     "time in build_omega"),
    ("oracle.twirl_objective.s", "s", "lower", "verify_s", "validate",
     "time in twirl_objective, per-process Gram set-up included"),
    ("oracle.solve_choi.self_s", "s", "lower", "verify_s", "validate",
     "solve_choi time minus its Choi solve"),
    ("oracle.choi_dim_max", "count", "lower", "verify_s", "validate",
     "largest Choi block dimension"),
    ("oracle.max_abs_diff", "fidelity", "lower", "failed_frac", "validate",
     "largest |covariant - oracle| of a verify"),
    ("channel.reconstruct_choi.s", "s", "lower", "reconstruct_s simulate_s", "validate",
     "time in reconstruct_choi"),
    ("channel.kraus_from_choi.s", "s", "lower", "reconstruct_s simulate_s", "validate",
     "time in kraus_from_choi"),
    ("channel.kraus_ops", "count", "lower", "reconstruct_s simulate_s", "validate",
     "Kraus operators over all reconstructions"),
    ("channel.kraus_json.s", "s", "lower", "reconstruct_s simulate_s", "validate",
     "time in KrausSet.to_json and from_json"),
    ("mcsim.estimate_fidelity.s", "s", "lower", "simulate_s", "validate",
     "time in estimate_fidelity"),
    ("mcsim.samples_per_s", "1/s", "higher", "simulate_s", "validate",
     "Monte-Carlo samples over mcsim.estimate_fidelity.s"),
    ("bench.trace_overhead_s", "s", "lower", "none (tracing cost)", "all",
     "traced pass wall time minus untraced pass wall time"),
    ("bench.counts_repeat", "count", "higher", "none (check)", "all",
     "1 when the exact counts repeat across the two traced passes, else 0"),
]
EXACT_COUNTS = (
    "sdp.covariant.iterations",
    "sdp.choi.iterations",
    "angular.cg_twice.calls",
    "objective.sectors",
    "channel.kraus_ops",
)


def f21_exact(p: float) -> float:
    """F(2, 1; p), the paper's closed form with its branch point at p = 3/8."""
    base = (1 - p) * (51 + 23 * p) / 54 + p * p / 2
    if p <= 3 / 8:
        return base + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p))
    return base + p * (1 - p) / 3


def spread_p(u: float, k: int) -> float:
    """Mixing probability of pass k: offset u from the seed, then steps of a
    third of [0.05, 0.95], so that every run's first P_STRATA passes cover
    the range evenly; the work per sweep varies by a fifth over p."""
    return round(0.05 + 0.9 * ((u + k / P_STRATA) % 1.0), 4)


# --------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[["Result"], str | None]  # reason the output is wrong, or None
    outputs: tuple[str, ...] = ()  # CSV/JSON files the operation writes
    stdout_json: bool = False  # standard output is a JSON document


@dataclass
class Result:
    kind: str
    argv: list[str]
    exit_code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    sha256: dict[str, str] = field(default_factory=dict)
    wrong: str | None = None  # set when the output disagrees with its reference
    spans: list[dict] | None = None
    counters: dict[str, int] | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or "Traceback" in self.stderr or self.wrong is not None


def ranked_median(results: list[Result]) -> float:
    """Median wall time in which a failed operation ranks slower than every
    success, as if it had run to the time-out: a failure misses any latency
    limit, so turning it into a slow success never reads as a slowdown."""
    return statistics.median(OP_TIMEOUT_S if r.failed else r.wall_s for r in results)


def kind_s(kind: str, results: list[Result]) -> float:
    """Wall time of one kind of operation over a run, a failure counting as
    the time-out.  `sweep_s` is the mean over the run's sweeps: their p values
    cover [0.05, 0.95] in thirds and differ in work by design, so the mean,
    not the middle one, estimates the sweep time over the range.  Every other
    kind takes the ranked median."""
    ops = [r for r in results if r.kind == kind]
    if kind == "sweep":
        return statistics.fmean(OP_TIMEOUT_S if r.failed else r.wall_s for r in ops)
    return ranked_median(ops)


def failed_frac(results: list[Result]) -> float:
    return sum(r.failed for r in results) / len(results)


def self_time(span: dict, children: list[dict]) -> float:
    """A span's duration minus the part of its interval its children cover."""
    start, end = span["start"], span["end"]
    covered = 0.0
    reach = start
    for c_start, c_end in sorted((c["start"], c["end"]) for c in children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs CLI operations one at a time in fresh processes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, QSUB_LOG="error", **BLAS_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def spawn(self, cmd: list[str]) -> tuple[int, float, int, str, str]:
        """Run `cmd` in `work`; returns exit code, wall time, max-RSS in KiB
        (of the process and every descendant it waited for), stdout, stderr."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdout=out, stderr=err, start_new_session=True
            )
            timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            wall,
            usage.ru_maxrss,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def run(self, op: Op, traced: bool) -> Result:
        spans_path = self.work / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "uqsub.cli", *op.argv]
        code, wall, rss, stdout, stderr = self.spawn(cmd)
        res = Result(op.kind, op.argv, code, wall, rss, stdout, stderr)
        for name in op.outputs:
            path = self.work / name
            if path.is_file():
                res.sha256[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if op.stdout_json:
            res.sha256["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        if traced and spans_path.is_file():
            doc = json.loads(spans_path.read_text())
            res.spans, res.counters = doc["spans"], doc["counters"]
        try:
            res.wrong = op.check(res)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.wrong = f"unreadable output: {exc!r}"
        return res

    def import_time(self) -> tuple[float, str]:
        code, _, _, stdout, stderr = self.spawn(
            [
                sys.executable,
                "-c",
                "import time; t = time.perf_counter(); import uqsub.cli; "
                "t = time.perf_counter() - t; import numpy; print(t, numpy.__version__)",
            ]
        )
        if code != 0:
            raise RuntimeError(f"cannot import uqsub.cli:\n{stderr}")
        seconds, numpy_version = stdout.split()
        return float(seconds), numpy_version


# --------------------------------------------------------------------------
# workloads and their references


def check_sweep(work: Path, out: str, p: float) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.exit_code != 0:
            return None
        if "monotonicity violated" in res.stderr:
            return "monotonicity warning"
        with open(work / out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = {(int(r["n1"]), int(r["n2"])): r for r in rows}
        if len(rows) != 100 or set(cells) != {(a, b) for a in range(1, 11) for b in range(1, 11)}:
            return f"expected the 10x10 grid, got {len(rows)} rows"
        dn = 1 - p / 2
        for (n1, n2), row in cells.items():
            f = float(row["f_max"])
            if row["status"] != "optimal":
                return f"status {row['status']} at {(n1, n2)}"
            if f < dn - 1e-8:
                return f"F{(n1, n2)} = {f} below 1 - p/2"
            if n1 == 1 and abs(f - dn) > 1e-7:
                return f"F{(n1, n2)} = {f}, expected 1 - p/2 = {dn}"
        f21 = float(cells[(2, 1)]["f_max"])
        if abs(f21 - f21_exact(p)) > 1e-6:
            return f"F(2,1) = {f21}, expected {f21_exact(p)}"
        return None

    return check


def check_curves(work: Path, out: str) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.exit_code != 0:
            return None
        with open(work / out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 101:
            return f"expected 101 rows, got {len(rows)}"
        for row in rows:
            p, f = float(row["p"]), float(row["f_opt"])
            if abs(f - f21_exact(p)) > 1e-6:
                return f"f_opt({p}) = {f}, expected {f21_exact(p)}"
        return None

    return check


def _printed_value(stdout: str, label: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line.split(":", 1)[1])
    raise ValueError(f"no {label!r} line")


def check_verify(case, p, refs) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.exit_code == 5:
            return "oracle mismatch"
        if res.exit_code != 0:
            return None
        cov = _printed_value(res.stdout, "covariant SDP")
        orc = _printed_value(res.stdout, "oracle SDP")
        refs[case] = orc
        if abs(cov - orc) > 1e-5:
            return f"covariant {cov} vs oracle {orc}"
        if case == (2, 1) and abs(cov - f21_exact(p)) > 1e-6:
            return f"F(2,1) = {cov}, expected {f21_exact(p)}"
        if case[0] == 1 and abs(cov - (1 - p / 2)) > 1e-7:
            return f"F{case} = {cov}, expected 1 - p/2"
        return None

    return check


def completeness_residual(kraus_doc: dict) -> float:
    """max |sum_k M_k^dag M_k - I| of a Kraus JSON document, in plain Python."""
    ops = [[[complex(re, im) for re, im in row] for row in m] for m in kraus_doc["operators"]]
    dim = len(ops[0][0])
    worst = 0.0
    for a in range(dim):
        for b in range(dim):
            acc = sum(m[r][a].conjugate() * m[r][b] for m in ops for r in range(len(m)))
            worst = max(worst, abs(acc - (a == b)))
    return worst


def reference_value(case, p, refs) -> float | None:
    return f21_exact(p) if case == (2, 1) else refs.get(case)


def check_reconstruct(work, out, case, p, refs) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.exit_code != 0:
            return None
        doc = json.loads((work / out).read_text())
        if doc.get("schema") != "uqsub.kraus.v1" or doc.get("n_in_qubits") != sum(case):
            return "Kraus JSON schema or size"
        residual = completeness_residual(doc)
        if residual > 1e-8:
            return f"completeness residual {residual:.2e}"
        ref = reference_value(case, p, refs)
        f_max = float(res.stdout.rsplit("F_max", 1)[1].strip(" )\n"))
        if ref is not None and abs(f_max - ref) > 1e-5:
            return f"F_max {f_max}, reference {ref}"
        return None

    return check


def check_simulate(case, p, refs) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.exit_code == 1 and '"pass": false' in res.stdout:
            return "Monte-Carlo mismatch"
        if res.exit_code != 0:
            return None
        doc = json.loads(res.stdout)
        ref = reference_value(case, p, refs)
        ref = doc["sdp_objective"] if ref is None else ref
        if doc["samples"] != MC_SAMPLES or abs(doc["mean"] - ref) > 4 * doc["std_error"] + 1e-5:
            return f"MC mean {doc['mean']} +- {doc['std_error']} vs reference {ref}"
        return None

    return check


def workload_pass(name: str, seed: int, k: int, traced: bool, work: Path, jobs: int) -> list[Op]:
    """Operations of pass k of a workload; the same (seed, k) gives the same
    inputs, traced or not."""
    rng = random.Random(f"{name}:{seed}")
    u = rng.random()
    mc_seed = rng.randrange(1, 2**31)
    tag = f"{k}{'t' if traced else ''}"
    if name == "grid":
        p = spread_p(u, k)
        out = f"sweep-{tag}.csv"
        argv = ["sweep", "--n1-max", "10", "--n2-max", "10", "--p", f"{p:.4f}",
                "--jobs", str(1 if traced else jobs), "--out", out]
        return [Op("sweep", argv, check_sweep(work, out, p), (out,))]
    if name == "curve":
        out = f"curves-{tag}.csv"
        argv = ["curves", "--n1", "2", "--n2", "1", "--p-steps", "101", "--out", out]
        return [Op("curves", argv, check_curves(work, out), (out,))]
    p = spread_p(u, k)
    refs: dict[tuple[int, int], float] = {}
    ops = [
        Op("verify", ["verify", "--case", f"{a},{b}", "--p", f"{p:.4f}"], check_verify((a, b), p, refs))
        for a, b in VERIFY_CASES
    ]
    for a, b in CHANNEL_CASES:
        out = f"kraus-{a}{b}-{tag}.json"
        flags = ["--n1", str(a), "--n2", str(b), "--p", f"{p:.4f}"]
        ops.append(
            Op("reconstruct", ["reconstruct", *flags, "--out", out],
               check_reconstruct(work, out, (a, b), p, refs), (out,))
        )
        ops.append(
            Op("simulate",
               ["simulate", *flags, "--kraus", out, "--samples", str(MC_SAMPLES), "--seed", str(mc_seed + k)],
               check_simulate((a, b), p, refs), stdout_json=True)
        )
    return ops


# --------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(results: list[Result]) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and counters."""
    m = {name: 0.0 for name, *_ in LAYER_METRICS}
    samples = 0
    for res in results:
        spans = res.spans or []
        counters = res.counters or {}
        m["angular.cg_twice.calls"] += counters.get("angular.cg_twice.calls", 0)
        children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        covariant_value = None
        for i, s in enumerate(spans):
            name, attrs, dur = s["name"], s["attrs"], s["end"] - s["start"]
            if name == "cli":
                m["cli.self_s"] += self_time(s, children.get(i, []))
            elif name == "oracle.solve_choi":
                m["oracle.solve_choi.self_s"] += self_time(s, children.get(i, []))
                if covariant_value is not None:
                    diff = abs(attrs["value"] - covariant_value)
                    m["oracle.max_abs_diff"] = max(m["oracle.max_abs_diff"], diff)
            elif name in ("sdp.covariant", "sdp.choi"):
                m[f"{name}.s"] += dur
                m[f"{name}.iterations"] += attrs["iterations"]
                m["sdp.not_optimal"] += attrs["status"] != "optimal"
                m["sdp.certificate_fail"] += not attrs["certificate"]
                m["sdp.gap_max"] = max(m["sdp.gap_max"], attrs["gap"])
                if name == "sdp.covariant":
                    covariant_value = attrs["value"] if covariant_value is None else covariant_value
                    m["sdp.covariant.calls"] += 1
                    m["sdp.covariant.blocks_max"] = max(m["sdp.covariant.blocks_max"], attrs["blocks"])
                    m["sdp.covariant.rows_max"] = max(m["sdp.covariant.rows_max"], attrs["rows"])
                else:
                    m["oracle.choi_dim_max"] = max(m["oracle.choi_dim_max"], attrs["dim"])
            elif name == "objective.build_objective":
                m["objective.build_objective.s"] += dur
                m["objective.build_objective.calls"] += 1
                m["objective.sectors"] += attrs["sectors"]
            elif name == "channel.kraus_from_choi":
                m["channel.kraus_from_choi.s"] += dur
                m["channel.kraus_ops"] += attrs["kraus_ops"]
            elif name == "mcsim.estimate_fidelity":
                m["mcsim.estimate_fidelity.s"] += dur
                samples += attrs["samples"]
            elif name != "bench.certificate":
                m[f"{name}.s"] += dur
    if m["sdp.covariant.iterations"]:
        m["sdp.covariant.s_per_iteration"] = m["sdp.covariant.s"] / m["sdp.covariant.iterations"]
    if samples:
        m["mcsim.samples_per_s"] = samples / m["mcsim.estimate_fidelity.s"]
    return m


# --------------------------------------------------------------------------
# driver


def machine(seed: int, numpy_version: str) -> dict:
    commit = None  # a checkout without .git has no commit; src_sha256 names the build
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uqsub").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "blas_threads": BLAS_PINS,
        "seed": seed,
    }


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def report_op(res: Result) -> None:
    status = "ok" if not res.failed else f"FAILED ({res.wrong or 'exit ' + str(res.exit_code)})"
    hashes = " ".join(f"sha256[{k}]={v}" for k, v in res.sha256.items())
    print(
        f"op {' '.join(res.argv)}: exit={res.exit_code} wall={res.wall_s:.4f}s "
        f"rss={res.maxrss_kb / 1024:.1f}MB {status} {hashes}".rstrip()
    )
    if "Traceback" in res.stderr:
        print("   " + res.stderr.strip().splitlines()[-1])


def run_passes(runner, name, seed, traced, jobs, seconds=0.0, passes=1):
    """Closed loop over the workload's passes: at least `passes` of them, then
    more while fewer than `seconds` have passed; stops at the run's deadline."""
    results = []
    start = time.monotonic()
    k = 0
    while k < passes or time.monotonic() - start < seconds:
        for op in workload_pass(name, seed, k, traced, runner.work, jobs):
            if time.monotonic() >= runner.deadline:
                return results
            res = runner.run(op, traced)
            report_op(res)
            results.append(res)
        k += 1
    return results


def end_to_end(runner, name, seed, seconds, jobs) -> tuple[list[Result], dict]:
    imports = [runner.import_time()[0] for _ in range(SETUP_REPEATS)]
    results = run_passes(runner, name, seed, False, jobs, seconds=seconds, passes=P_STRATA)
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
        "op_s": (kind_s(E2E_KIND[name], results), "s"),
    }
    print(f"failed_frac    {failed_frac(results):.4f} ratio ({sum(r.failed for r in results)}/{len(results)})")
    print(f"setup_s        {metrics['setup_s'][0]:.4f} s (median of {SETUP_REPEATS} imports)")
    print(f"peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB")
    for kind in ("sweep", "curves", "verify", "reconstruct", "simulate"):
        of_kind = [r for r in results if r.kind == kind]
        if of_kind:
            statistic = "mean" if kind == "sweep" else "median"
            print(f"{kind + '_s':14} {kind_s(kind, results):.4f} s ({statistic} of {len(of_kind)}, "
                  f"{sum(r.failed for r in of_kind)} failed, counted as the time-out)")
        else:
            print(f"{kind + '_s':14} n/a (no {kind} operation in this workload)")
    print(f"op_s           {metrics['op_s'][0]:.4f} s (= {E2E_KIND[name]}_s)")
    return results, metrics


def traced(runner, name, seed, jobs) -> tuple[list[Result], dict]:
    plain = run_passes(runner, name, seed, False, jobs)
    first = run_passes(runner, name, seed, True, jobs)
    second = run_passes(runner, name, seed, True, jobs)
    layers = layer_metrics(first)
    again = layer_metrics(second)
    mismatched = [c for c in EXACT_COUNTS if layers[c] != again[c]]
    layers["bench.counts_repeat"] = float(not mismatched)
    layers["bench.trace_overhead_s"] = sum(r.wall_s for r in first) - sum(r.wall_s for r in plain)
    if mismatched:
        print(f"exact counts differ between traced passes: {mismatched}")
    if name == "grid":
        print("note: the traced sweep runs with --jobs 1 and the untraced one with "
              f"--jobs {jobs}; bench.trace_overhead_s combines pool gain, pool overhead "
              "and tracing overhead")
    units = {n: (u, moves, loads) for n, u, _, moves, loads, _ in LAYER_METRICS}
    for metric, value in layers.items():
        unit, moves, loads = units[metric]
        print(f"{metric:32} {value:.6g} {unit}  (moves {moves} on {loads})")
    return plain + first + second, {k: (v, units[k][0]) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(E2E_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uqsub" / "cli.py").is_file():
        print(f"error: no uqsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = usable_cores()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        runner = Runner(Path(work), deadline)
        _, numpy_version = runner.import_time()  # also fills __pycache__ before timing
        print(f"# uqsub benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# machine " + json.dumps(machine(args.seed, numpy_version)))
        if args.trace:
            results, metrics = traced(runner, args.workload, args.seed, jobs)
        else:
            results, metrics = end_to_end(runner, args.workload, args.seed, args.seconds, jobs)
    summary = {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
