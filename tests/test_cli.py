import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import uqsub.cli as cli
from uqsub.cli import main
from uqsub.errors import ReconstructionError
from uqsub.objective import assemble, build_objective, w_values_from_solution
from uqsub.oracle import twirl_objective
from uqsub.sdp import solve


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_1_1_half(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--n1", "1", "--n2", "1", "--p", "0.5"])
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("F_max(1,1; p=0.5) = ")
        assert float(first.split("=")[-1]) == pytest.approx(0.75, abs=1e-7)

    def test_2_1_json(self, capsys):
        code, out, _ = run(
            capsys, ["optimize", "--n1", "2", "--n2", "1", "--p", "0.5", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["f_max"] == pytest.approx(0.787037037, abs=1e-6)
        assert doc["status"] == "optimal"
        assert len(doc["w"]) == 7

    def test_json_layout(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--n1", "3", "--n2", "2", "--p", "0.3", "--json"])
        sol = solve(assemble(build_objective(3, 2), 0.3))
        doc = {
            "n1": 3,
            "n2": 2,
            "p": 0.3,
            "f_max": sol.objective_value,
            "f_dn": 0.85,
            "status": "optimal",
            "iterations": sol.iterations,
            "primal_residual": sol.primal_residual,
            "gap_estimate": sol.gap_estimate,
            "min_eigenvalue": sol.min_eigenvalue,
            "w": [
                {"tj1": s.j1.twice, "tj": s.j.twice, "tjp": s.jp.twice, "tq": s.q.twice, "value": v}
                for s, v in w_values_from_solution(sol, 3, 2).items()
            ],
        }
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_2_1_noiseless(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--n1", "2", "--n2", "1", "--p", "0"])
        assert code == 0
        first = out.splitlines()[0]
        assert first.endswith("= 1") or "= 0.99999999" in first

    def test_round_off_prints_as_zero(self, capsys):
        # entries that are zero at the optimum print as 0 even when a solver
        # leaves round-off in them
        argv = ["optimize", "--n1", "2", "--n2", "1", "--p", "0.5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        shown = {
            line.split(" = ")[0].strip(): line.split(" = ")[1]
            for line in out.splitlines()
            if line.startswith("  W[")
        }
        assert len(shown) == 7
        assert shown["W[j1=1 j=1/2 j'=1/2 q=0]"] == "0"
        assert all(text == "0" or abs(float(text)) >= 1e-12 for text in shown.values())
        _, out, _ = run(capsys, argv + ["--json"])
        raw = {(w["tj1"], w["tj"], w["tjp"], w["tq"]): w["value"] for w in json.loads(out)["w"]}
        assert isinstance(raw[(2, 1, 1, 0)], float)
        assert abs(raw[(2, 1, 1, 0)]) < 1e-12

    def test_negative_zero_p_prints_zero(self, capsys):
        argv = ["optimize", "--n1", "2", "--n2", "1", "--p", "-0"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.startswith("F_max(2,1; p=0) = ")
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0
        assert '\n  "p": 0.0,\n' in out

    def test_invalid_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n1", "1", "--n2", "1", "--p", "1.5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n1", "0", "--n2", "1", "--p", "0.5"])
        assert exc.value.code == 2


class TestSweep:
    def test_small_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--n1-max", "2", "--n2-max", "2", "--p", "0.5",
             "--out", str(out_file), "--jobs", "1"],
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n1,n2,p,f_max,f_dn,gap,status,prefer"
        assert len(lines) == 5
        row11 = lines[1].split(",")
        assert float(row11[3]) == pytest.approx(0.75, abs=1e-7)
        assert row11[6] == "optimal"
        assert row11[7] == "A"  # F(2,1) > F(1,2) at p = 0.5
        # one mixture copy pins the fidelity regardless of n2
        row12 = lines[2].split(",")
        assert (int(row12[0]), int(row12[1])) == (1, 2)
        assert float(row12[3]) == pytest.approx(0.75, abs=1e-7)

    def test_byte_stable_and_jobs_invariant(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        # 5 anti-diagonals, so each of 3 processes gets a share
        for out_file, jobs in ((a, "1"), (b, "2"), (c, "3")):
            run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.9",
                         "--out", str(out_file), "--jobs", jobs])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.fixture
    def fork_calls(self, monkeypatch):
        """Count the sweep's os.fork calls; each fails, so the share it was
        for runs in this process and no process is started."""
        calls = []

        def failing_fork():
            calls.append(1)
            raise OSError("fork refused by the test")

        monkeypatch.setattr(os, "fork", failing_fork)
        return calls

    def test_one_process_per_anti_diagonal_at_most(self, capsys, tmp_path, fork_calls):
        # 3x3 has the 5 anti-diagonals n1+n2 = 2..6: one share here, 4 forked
        out_file, serial = tmp_path / "s.csv", tmp_path / "serial.csv"
        code, _, _ = run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.5",
                                  "--out", str(out_file), "--jobs", "64"])
        assert code == 0
        assert len(fork_calls) == 4
        # a share whose fork fails runs in this process, with the same rows
        run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.5",
                     "--out", str(serial), "--jobs", "1"])
        assert out_file.read_bytes() == serial.read_bytes()

    def test_single_anti_diagonal_runs_without_fork(self, capsys, tmp_path, fork_calls):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, ["sweep", "--n1-max", "1", "--n2-max", "1", "--p", "0.5",
                                  "--out", str(out_file), "--jobs", "64"])
        assert code == 0
        assert fork_calls == []

    def test_runs_serially_without_os_fork(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_file, jobs in ((a, "1"), (b, "3")):
            assert run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "2", "--p", "0.3",
                                "--out", str(out_file), "--jobs", jobs])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_zero_p_prints_zero(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        assert run(capsys, ["sweep", "--n1-max", "2", "--n2-max", "1", "--p", "-0",
                            "--out", str(out_file), "--jobs", "1"])[0] == 0
        assert {line.split(",")[2] for line in out_file.read_text().splitlines()[1:]} == {"0"}

    def test_gaps_nonnegative(self, capsys, tmp_path):
        out_file = tmp_path / "g.csv"
        run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.9",
                     "--out", str(out_file), "--jobs", "1"])
        for line in out_file.read_text().splitlines()[1:]:
            assert float(line.split(",")[5]) >= -1e-8

    def test_gap_prints_zero_where_f_equals_doing_nothing(self, capsys, tmp_path):
        # one mixture copy pins F to 1 - p/2; the gap must not print round-off
        out_file = tmp_path / "g.csv"
        run(capsys, ["sweep", "--n1-max", "1", "--n2-max", "10", "--p", "0.05",
                     "--out", str(out_file), "--jobs", "1"])
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert len(rows) == 10
        for row in rows:
            assert row[3] == row[4] and row[5] == "0", row

    def test_unwritable_path_exit_4(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--n1-max", "1", "--n2-max", "1", "--p", "0.5",
             "--out", "/nonexistent-dir/x.csv", "--jobs", "1"],
        )
        assert code == 4
        assert "cannot write" in err

    @pytest.mark.parametrize("n1_max,n2_max", [(13, 12), (0, 2), (2, 0)])
    def test_grid_out_of_range_exit_2(self, capsys, tmp_path, n1_max, n2_max):
        out_file = tmp_path / "s.csv"
        code, _, err = run(
            capsys,
            ["sweep", "--n1-max", str(n1_max), "--n2-max", str(n2_max), "--p", "0.5",
             "--out", str(out_file), "--jobs", "2"],
        )
        assert code == 2
        assert "--n1-max" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("jobs", ["-1", "0"])
    def test_jobs_below_one_exit_2(self, capsys, tmp_path, jobs):
        out_file = tmp_path / "s.csv"
        code, _, err = run(
            capsys,
            ["sweep", "--n1-max", "2", "--n2-max", "2", "--p", "0.5",
             "--out", str(out_file), "--jobs", jobs],
        )
        assert code == 2
        assert "--jobs" in err
        assert not out_file.exists()


GRID_SIDE = st.integers(1, 12)


@given(GRID_SIDE, GRID_SIDE, st.integers(1, 30))
def test_shares_hold_whole_anti_diagonals(n1_max, n2_max, jobs):
    tasks = [(n1, n2, 0.5) for n1 in range(1, n1_max + 1) for n2 in range(1, n2_max + 1)]
    shares = cli._shares(tasks, jobs)
    assert 1 <= len(shares) <= jobs
    assert all(shares)
    assert sorted(t for share in shares for t in share) == sorted(tasks)
    owner = {}
    for i, share in enumerate(shares):
        for n1, n2, _ in share:
            assert owner.setdefault(n1 + n2, i) == i
    assert len(owner) == n1_max + n2_max - 1


@pytest.fixture(scope="module")
def endpoint_sweeps(tmp_path_factory):
    """CSV rows of the 10x10 sweep at p = 0 and at p = 1."""
    rows = {}
    for p in ("0", "1"):
        out_file = tmp_path_factory.mktemp("endpoints") / f"sweep_{p}.csv"
        assert main(["sweep", "--p", p, "--out", str(out_file), "--jobs", "2"]) == 0
        rows[p] = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    return rows


class TestSweepEndpoints:
    def test_f_max_is_exact_at_p_0_and_1(self, endpoint_sweeps):
        # at p = 1 every mixture copy is noise and every F is 1/2; at p = 0
        # every machine returns a clean copy of the target
        assert {row[3] for row in endpoint_sweeps["1"]} == {"0.5"}
        assert {row[3] for row in endpoint_sweeps["0"]} == {"1"}

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_gap_prints_zero(self, endpoint_sweeps, p):
        assert {row[5] for row in endpoint_sweeps[p]} == {"0"}

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_prefer_prints_equals_for_ties(self, endpoint_sweeps, p):
        for row in endpoint_sweeps[p]:
            n1, n2 = int(row[0]), int(row[1])
            assert row[7] == ("=" if n1 < 10 and n2 < 10 else ""), row


class TestCurves:
    def test_endpoint_rows(self, capsys, tmp_path):
        out_file = tmp_path / "curves.csv"
        code, _, _ = run(capsys, ["curves", "--p-steps", "3", "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "p,f_opt,f_dn,f_mp_upper,f_2inf"
        first = [float(tok) for tok in lines[1].split(",")]
        last = [float(tok) for tok in lines[-1].split(",")]
        assert first == pytest.approx([0.0, 1.0, 1.0, 0.75, 1.0], abs=1e-7)
        assert last == pytest.approx([1.0, 0.5, 0.5, 0.5, 0.5], abs=1e-7)

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["curves", "--p-steps", "5", "--out", str(a)])
        run(capsys, ["curves", "--p-steps", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("steps", ["1", "0"])
    def test_too_few_steps_exit_2(self, capsys, tmp_path, steps):
        out_file = tmp_path / "c.csv"
        code, _, err = run(capsys, ["curves", "--p-steps", steps, "--out", str(out_file)])
        assert code == 2
        assert "--p-steps" in err
        assert not out_file.exists()

    def test_capacity_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["curves", "--n1", "13", "--n2", "12", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 2
        assert "exceeds" in err


class TestVerify:
    def test_1_1(self, capsys):
        code, out, _ = run(capsys, ["verify", "--case", "1,1", "--p", "0.3"])
        assert code == 0
        assert "pass" in out
        values = [float(line.split(":")[1]) for line in out.splitlines()[:2]]
        assert values == pytest.approx([0.85, 0.85], abs=1e-7)

    def test_case_guard(self, capsys):
        code, _, err = run(capsys, ["verify", "--case", "4,3", "--p", "0.5"])
        assert code == 2
        assert "n1+n2" in err

    def test_bad_case_string(self, capsys):
        code, _, _ = run(capsys, ["verify", "--case", "nope", "--p", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("case", ["0,3", "2,-1"])
    def test_case_below_one_exit_2(self, capsys, case):
        code, out, err = run(capsys, ["verify", "--case", case, "--p", "0.5"])
        assert code == 2
        assert "n1, n2 >= 1" in err
        assert out == ""

    def test_five_qubits(self, capsys):
        code, out, _ = run(capsys, ["verify", "--case", "3,2", "--p", "0.375"])
        assert code == 0
        assert "pass" in out
        covariant, oracle = (float(line.split(":")[1]) for line in out.splitlines()[:2])
        assert abs(covariant - oracle) <= 1e-8

    @pytest.mark.parametrize("case", ["3,3", "4,2"])
    def test_six_qubits(self, capsys, case):
        code, out, _ = run(capsys, ["verify", "--case", case, "--p", "0.375"])
        assert code == 0
        assert "pass" in out
        covariant, oracle = (float(line.split(":")[1]) for line in out.splitlines()[:2])
        assert abs(covariant - oracle) <= 1e-8

    def test_oracle_linalg_error_exit_3(self, capsys, monkeypatch):
        def failing_solve(objective):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "solve_choi", failing_solve)
        code, out, err = run(capsys, ["verify", "--case", "2,1", "--p", "0.5"])
        assert code == 3
        assert err == "oracle solver failure: Eigenvalues did not converge\n"
        assert "pass" not in out

    def test_oracle_failure_exit_3(self, capsys, monkeypatch):
        def mixed_objective(omega):
            obj = twirl_objective(omega).real.copy()
            obj[0, 1] = obj[1, 0] = 1e-3  # charge 0 against charge -1
            return obj

        monkeypatch.setattr(cli, "twirl_objective", mixed_objective)
        code, out, err = run(capsys, ["verify", "--case", "1,1", "--p", "0.5"])
        assert code == 3
        assert "charge" in err
        assert "pass" not in out


class TestReconstructSimulate:
    @pytest.mark.parametrize(
        "stage,exc",
        [
            ("reconstruct_choi", ReconstructionError("reconstructed Choi not TP: residual 1.0e-03")),
            ("kraus_from_choi", ReconstructionError("Choi not PSD: min eig -1.0e-03")),
            ("kraus_from_choi", np.linalg.LinAlgError("Eigenvalues did not converge")),
        ],
        ids=["reconstruct-choi", "kraus-not-psd", "kraus-linalg"],
    )
    def test_channel_failure_exit_3(self, capsys, monkeypatch, tmp_path, stage, exc):
        def failing(*args):
            raise exc

        monkeypatch.setattr(cli, stage, failing)
        kraus_file = tmp_path / "kraus.json"
        code, out, err = run(
            capsys,
            ["reconstruct", "--n1", "2", "--n2", "1", "--p", "0.5", "--out", str(kraus_file)],
        )
        assert code == 3
        assert err == f"channel reconstruction failure: {exc}\n"
        assert out == "" and not kraus_file.exists()

    def test_round_trip(self, capsys, tmp_path):
        kraus_file = tmp_path / "kraus.json"
        code, out, _ = run(
            capsys,
            ["reconstruct", "--n1", "1", "--n2", "1", "--p", "0.5", "--out", str(kraus_file)],
        )
        assert code == 0
        assert "completeness residual" in out
        doc = json.loads(kraus_file.read_text())
        assert doc["schema"] == "uqsub.kraus.v1"
        code, out, _ = run(
            capsys,
            ["simulate", "--n1", "1", "--n2", "1", "--p", "0.5",
             "--kraus", str(kraus_file), "--samples", "20000", "--seed", "3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["mean"] == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1)])
    def test_optimal_channel_passes_at_p_zero(self, capsys, tmp_path, n1, n2):
        # every sample is 1 up to round-off, so std_error alone (~1e-18) is
        # narrower than the round-off in the mean
        kraus_file = tmp_path / "kraus.json"
        flags = ["--n1", str(n1), "--n2", str(n2), "--p", "0"]
        code, _, _ = run(capsys, ["reconstruct", *flags, "--out", str(kraus_file)])
        assert code == 0
        code, out, _ = run(
            capsys,
            ["simulate", *flags, "--kraus", str(kraus_file), "--samples", "20000", "--seed", "0"],
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_schema_mismatch_exit_6(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other", "operators": []}))
        code, _, err = run(
            capsys,
            ["simulate", "--n1", "1", "--n2", "1", "--p", "0.5",
             "--kraus", str(bad), "--samples", "10"],
        )
        assert code == 6
        assert "schema" in err.lower()

    def test_dimension_mismatch_exit_6(self, capsys, tmp_path):
        kraus_file = tmp_path / "kraus.json"
        run(capsys, ["reconstruct", "--n1", "1", "--n2", "1", "--p", "0.5",
                     "--out", str(kraus_file)])
        code, _, err = run(
            capsys,
            ["simulate", "--n1", "2", "--n2", "1", "--p", "0.5",
             "--kraus", str(kraus_file), "--samples", "10"],
        )
        assert code == 6
        assert "dimension" in err


class TestReconstructInputs:
    @pytest.mark.parametrize("n1,n2", [(5, 4), (13, 12)])
    def test_too_many_qubits_exit_2(self, capsys, tmp_path, n1, n2):
        out_file = tmp_path / "kraus.json"
        code, out, err = run(
            capsys,
            ["reconstruct", "--n1", str(n1), "--n2", str(n2), "--p", "0.5",
             "--out", str(out_file)],
        )
        assert code == 2
        assert "n1+n2 <= 8" in err
        assert out == ""
        assert not out_file.exists()


class TestSimulateInputs:
    def simulate(self, capsys, kraus_file, *extra):
        return run(
            capsys,
            ["simulate", "--n1", "1", "--n2", "1", "--p", "0.5", "--kraus", str(kraus_file),
             *extra],
        )

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_too_few_samples_exit_2(self, capsys, tmp_path, samples):
        kraus_file = tmp_path / "kraus.json"
        run(capsys, ["reconstruct", "--n1", "1", "--n2", "1", "--p", "0.5",
                     "--out", str(kraus_file)])
        code, out, err = self.simulate(capsys, kraus_file, "--samples", samples)
        assert code == 2
        assert "--samples" in err
        assert out == ""

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"schema": "uqsub.kraus.v1", "n_in_qubits": 2, "operators": []}, "empty"),
            ([], "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": 5}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[1, 2]]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[1, 0]] * 4] * 2, [[[1, 0]] * 8] * 2]},
             "shape"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[1, 0]] * 4, [[1, 0]] * 3]]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[1, 0, 0]] * 4] * 2]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[1]] * 4] * 2]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[["1", "0"]] * 4] * 2]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[None, 0]] * 4] * 2]}, "schema"),
            ({"schema": "uqsub.kraus.v1", "operators": [[[[10**400, 0]] * 4] * 2]}, "schema"),
        ],
        ids=["no-operators", "not-an-object", "operators-not-a-list", "entries-not-pairs",
             "mixed-shapes", "ragged-rows", "three-components", "one-component", "string-entry",
             "null-entry", "int-past-float-range"],
    )
    def test_malformed_kraus_file_exit_6(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = self.simulate(capsys, bad, "--samples", "10")
        assert code == 6
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity", "1e999"])
    def test_non_finite_entry_exit_6(self, capsys, tmp_path, spelling):
        kraus_file = tmp_path / "kraus.json"
        run(capsys, ["reconstruct", "--n1", "1", "--n2", "1", "--p", "0.5",
                     "--out", str(kraus_file)])
        text = kraus_file.read_text()
        start = text.index("[[[[") + 4  # real part of the first entry
        kraus_file.write_text(text[:start] + spelling + text[text.index(",", start):])
        code, out, err = self.simulate(capsys, kraus_file, "--samples", "10")
        assert code == 6
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_range_exit_2(self, capsys, tmp_path, seed):
        # rejected with the flags, before the (missing) Kraus file is read
        code, out, err = self.simulate(capsys, tmp_path / "missing.json", "--seed", seed)
        assert code == 2
        assert "--seed" in err
        assert out == ""

    def test_not_trace_preserving_exit_6(self, capsys, tmp_path):
        kraus_file = tmp_path / "kraus.json"
        run(capsys, ["reconstruct", "--n1", "1", "--n2", "1", "--p", "0.5",
                     "--out", str(kraus_file)])
        doc = json.loads(kraus_file.read_text())
        doc["operators"] = [
            [[[2 * re, 2 * im] for re, im in row] for row in op] for op in doc["operators"]
        ]
        kraus_file.write_text(json.dumps(doc))
        code, out, err = self.simulate(capsys, kraus_file, "--samples", "10")
        assert code == 6
        assert "completeness" in err
        assert out == ""


class TestClosedStdout:
    """A reader that closes standard output early gets exit 4 and one line."""

    @staticmethod
    def run_closed(argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "uqsub.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(src)),
                text=True,
            )
        finally:
            os.close(write_end)
        return proc.returncode, proc.stderr

    def test_optimize(self):
        code, err = self.run_closed(["optimize", "--n1", "2", "--n2", "1", "--p", "0.5"])
        assert code == 4
        assert err == "error: standard output is closed\n"

    def test_simulate(self, capsys, tmp_path):
        kraus_file = tmp_path / "kraus.json"
        flags = ["--n1", "1", "--n2", "1", "--p", "0.5"]
        assert run(capsys, ["reconstruct", *flags, "--out", str(kraus_file)])[0] == 0
        code, err = self.run_closed(
            ["simulate", *flags, "--kraus", str(kraus_file), "--samples", "100"]
        )
        assert code == 4
        assert err == "error: standard output is closed\n"


def probe_run(code: str, cwd=None) -> subprocess.CompletedProcess:
    """`code` run in a fresh interpreter on this checkout, its output captured."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )


def probe(code: str, cwd=None) -> str:
    """Standard output of `code` run in a fresh interpreter on this checkout."""
    return probe_run(code, cwd).stdout.strip()


def test_cli_import_skips_process_pool():
    # the sweep imports its worker pool only when it runs more than one job
    loaded = probe(
        "import sys, uqsub.cli; print(sorted(m for m in sys.modules "
        "if m == 'concurrent.futures.process' or m.startswith('multiprocessing')))"
    )
    assert loaded == "[]"


def test_sweep_on_one_core_never_forks(capsys, tmp_path, monkeypatch):
    # a process allowed on one core runs the default sweep in itself,
    # whatever the machine's core count
    def no_fork():
        raise AssertionError("the sweep forked on one core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.5",
                 "--out", str(out_file)]) == 0


LEFT_CHILD = """
try:
    os.waitpid(-1, os.WNOHANG)
    print('child left')
except ChildProcessError:
    print('no child')
"""


def test_forked_sweep_loads_no_pool_module_and_reaps_its_children(tmp_path):
    printed = probe(
        "import os, sys; from uqsub.cli import main; code = main(['sweep', '--n1-max', '3', "
        "'--n2-max', '3', '--p', '0.5', '--out', 'sweep.csv', '--jobs', '3']); "
        "print(code, sorted(m for m in sys.modules "
        "if m.startswith(('concurrent', 'multiprocessing'))))" + LEFT_CHILD,
        cwd=tmp_path,
    )
    assert printed.splitlines()[-2:] == ["0 []", "no child"]


# Runs a 3x3 sweep on JOBS processes whose `_sweep_point` fails as FAIL says
# on one parity of n1+n2: with 2 jobs the odd anti-diagonals are the child's
# share, the even ones this process's; with 1 job all are this process's.
# Prints the exit code (or the exception that escaped) and then whether any
# child is left to reap.
SWEEP_FAILURE_PROBE = """
import os, sys
import uqsub.cli as cli
solve_point = cli._sweep_point
def failing(task):
    if (task[0] + task[1]) % 2 == PARITY:
        FAIL
    return solve_point(task)
cli._sweep_point = failing
try:
    code = cli.main(['sweep', '--n1-max', '3', '--n2-max', '3', '--p', '0.5',
                     '--out', 'sweep.csv', '--jobs', 'JOBS'])
except Exception as exc:
    code = type(exc).__name__
print(code)
""" + LEFT_CHILD


@pytest.mark.parametrize(
    "jobs,parity,fail,printed,message",
    [
        (2, 1, "raise ValueError('bad point')", ["3", "no child"],
         "sweep worker failure: ValueError: bad point\n"),
        (2, 1, "os.kill(os.getpid(), 9)", ["3", "no child"],
         "sweep worker failure: killed by signal 9\n"),
        (2, 1, "os._exit(7)", ["3", "no child"], "sweep worker failure: exit status 7\n"),
        # this process's own share raises: the same exit and line, the child is reaped
        (2, 0, "raise ValueError('bad point')", ["3", "no child"],
         "sweep worker failure: ValueError: bad point\n"),
        (1, 1, "raise ValueError('bad point')", ["3", "no child"],
         "sweep worker failure: ValueError: bad point\n"),
    ],
    ids=["child-raises", "child-killed", "child-exits", "parent-raises", "serial-raises"],
)
def test_sweep_worker_failure(tmp_path, jobs, parity, fail, printed, message):
    code = SWEEP_FAILURE_PROBE.replace("PARITY", str(parity)).replace("FAIL", fail)
    code = code.replace("JOBS", str(jobs))
    proc = probe_run(code, cwd=tmp_path)
    assert proc.stdout.splitlines() == printed
    assert proc.stderr == message
    assert not (tmp_path / "sweep.csv").exists()


NUMPY_BACKED = ("uqsub.ipm", "uqsub.oracle", "uqsub.channel", "uqsub.mcsim")


HEAVY = ("dataclasses", "inspect", "logging", "json", "fractions", "decimal", "numpy")


@pytest.mark.parametrize("module", ["uqsub", "uqsub.cli"])
def test_import_loads_no_heavy_module(module):
    # the modules the import adds; what the interpreter loads at start-up costs it nothing
    loaded = probe(
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {HEAVY!r}))"
    )
    assert loaded == "[]"


@pytest.mark.parametrize(
    "level,logged",
    [("info", True), ("INFO", True), ("debug", True), ("error", False), ("", False)],
)
def test_qsub_log_loads_logging_only_to_log(tmp_path, monkeypatch, level, logged):
    monkeypatch.setenv("QSUB_LOG", level)
    printed = probe(
        "import io, sys; sys.stderr = io.StringIO(); from uqsub.cli import main; "
        "code = main(['sweep', '--n1-max', '3', '--n2-max', '3', '--p', '0.5', '--out', 'out', "
        "'--jobs', '1']); print(code, 'logging' in sys.modules, repr(sys.stderr.getvalue()))",
        cwd=tmp_path,
    )
    line = "INFO uqsub: sweep: 9 grid points at p=0.5 with 1 workers\n" if logged else ""
    assert printed.splitlines()[-1] == f"0 {logged} {line!r}"


def test_cli_import_leaves_numpy_out():
    loaded = probe(
        "import sys, uqsub.cli; print(sorted(m for m in sys.modules "
        f"if m.split('.')[0] == 'numpy' or m in {NUMPY_BACKED!r}))"
    )
    assert loaded == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n1-max", "4", "--n2-max", "3", "--p", "0.375", "--out", "out", "--jobs", "1"],
        ["sweep", "--n1-max", "4", "--n2-max", "3", "--p", "0.375", "--out", "out", "--jobs", "2"],
        ["curves", "--n1", "2", "--n2", "1", "--p-steps", "11", "--out", "out"],
        ["optimize", "--n1", "3", "--n2", "2", "--p", "0.5", "--json"],
    ],
    ids=["sweep-jobs-1", "sweep-jobs-2", "curves", "optimize-json"],
)
def test_covariant_commands_run_without_numpy(capsys, monkeypatch, tmp_path, argv):
    # sys.modules["numpy"] = None makes every numpy import raise ImportError
    printed = probe(
        "import sys; sys.modules['numpy'] = None; from uqsub.cli import main; "
        f"sys.exit(main({argv!r}))",
        cwd=tmp_path,
    )
    with_numpy = tmp_path / "with_numpy"
    with_numpy.mkdir()
    monkeypatch.chdir(with_numpy)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert printed == out.strip()
    if "--out" in argv:
        assert (tmp_path / "out").read_bytes() == (with_numpy / "out").read_bytes()


def test_numpy_backed_names_load_on_first_use():
    names = probe(
        "import sys, uqsub, uqsub.cli as cli; before = 'numpy' in sys.modules; "
        "from uqsub.sdp import check_dual; "
        "print(before, uqsub.solve_choi.__module__, uqsub.KrausSet.__module__, "
        "check_dual.__module__, cli.twirl_objective.__module__, "
        "all(hasattr(uqsub, name) for name in uqsub.__all__))"
    )
    assert names == "False uqsub.oracle uqsub.channel uqsub.ipm uqsub.oracle True"


def test_verify_loads_numpy_but_no_other_heavy_module():
    loaded = probe(
        "import sys; from uqsub.cli import main; code = main(['verify', '--case', '2,1', "
        f"'--p', '0.4']); print(code, sorted({{m.split('.')[0] for m in sys.modules}} & {set(HEAVY)!r}))"
    )
    assert loaded.splitlines()[-1] == "0 ['inspect', 'numpy']"
