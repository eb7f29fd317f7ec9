import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqsub.cli as cli
from uqsub.cli import main
from uqsub.oracle import twirl_objective


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

    def test_2_1_noiseless(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--n1", "2", "--n2", "1", "--p", "0"])
        assert code == 0
        first = out.splitlines()[0]
        assert first.endswith("= 1") or "= 0.99999999" in first

    def test_round_off_prints_as_zero(self, capsys):
        # the solver leaves ~1e-50 in entries that are zero at the optimum
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
        # 9 points make chunks of 4, 4 and 1, so a third worker can get a share
        for out_file, jobs in ((a, "1"), (b, "2"), (c, "3")):
            run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.9",
                         "--out", str(out_file), "--jobs", jobs])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Record each process pool's max_workers; its map runs serially, so
        no process is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_no_larger_than_its_chunks(self, capsys, tmp_path, pool_sizes):
        # 9 points make 3 chunks of at most 4
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, ["sweep", "--n1-max", "3", "--n2-max", "3", "--p", "0.5",
                                  "--out", str(out_file), "--jobs", "64"])
        assert code == 0
        assert pool_sizes == [3]

    def test_single_chunk_runs_without_pool(self, capsys, tmp_path, pool_sizes):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, ["sweep", "--n1-max", "2", "--n2-max", "2", "--p", "0.5",
                                  "--out", str(out_file), "--jobs", "64"])
        assert code == 0
        assert pool_sizes == []

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
        code, _, err = run(capsys, ["verify", "--case", "4,2", "--p", "0.5"])
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

    def test_oracle_failure_exit_3(self, capsys, monkeypatch):
        def mixed_objective(omega):
            obj = twirl_objective(omega)
            obj.matrix = obj.matrix.real.copy()
            obj.matrix[0, 1] = obj.matrix[1, 0] = 1e-3  # charge 0 against charge -1
            return obj

        monkeypatch.setattr(cli, "twirl_objective", mixed_objective)
        code, out, err = run(capsys, ["verify", "--case", "1,1", "--p", "0.5"])
        assert code == 3
        assert "charge" in err
        assert "pass" not in out


class TestReconstructSimulate:
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
        ],
        ids=["no-operators", "not-an-object", "operators-not-a-list", "entries-not-pairs",
             "mixed-shapes"],
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


def test_cli_import_skips_process_pool():
    # the sweep imports its worker pool only when it runs more than one job
    probe = (
        "import sys, uqsub.cli; print(sorted(m for m in sys.modules "
        "if m == 'concurrent.futures.process' or m.startswith('multiprocessing')))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
