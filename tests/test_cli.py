import json
import os

import numpy as np

from dsmpc import cli
from dsmpc.cli import main
from dsmpc.model import load_scenario


def run(argv):
    return main(argv)


def tight_scenario(formation3_path, tmp_path):
    """formation3 with an input box so tight that the terminal pin is
    unreachable from x0."""
    doc = json.loads(open(formation3_path).read())
    for a in doc["agents"]:
        a["input_poly"] = {"box": [[-1e-4, -1e-4], [1e-4, 1e-4]]}
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(doc))
    return p


class TestExitCodes:
    def test_unknown_flag_usage_error(self, formation3_path, tmp_path):
        code = run(["simulate", "--scenario", formation3_path,
                    "--frobnicate", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_missing_subcommand_usage_error(self):
        assert run([]) == 2

    def test_missing_file_scenario_error(self, tmp_path):
        code = run(["simulate", "--scenario", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_scenario_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = run(["check", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 3

    def test_non_finite_entry_scenario_error(self, tmp_path, formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][1]["B"][0][0] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 3

    def test_non_finite_header_scenario_error(self, tmp_path, formation3_path):
        for key, value in (("epsilon", float("nan")), ("epsilon", float("inf")),
                           ("horizon", float("inf")), ("seed", float("inf"))):
            doc = json.loads(open(formation3_path).read())
            doc[key] = value
            bad = tmp_path / f"{key}.json"
            bad.write_text(json.dumps(doc))
            for cmd in (["check"], ["simulate", "--steps", "2"]):
                code = run(cmd + ["--scenario", str(bad), "--out", str(tmp_path)])
                assert code == 3, (key, value, cmd[0])

    def test_non_numeric_epsilon_scenario_error(self, tmp_path,
                                                formation3_path):
        for value in (None, [0.1], "small"):
            doc = json.loads(open(formation3_path).read())
            doc["epsilon"] = value
            bad = tmp_path / "eps.json"
            bad.write_text(json.dumps(doc))
            code = run(["check", "--scenario", str(bad), "--out", str(tmp_path)])
            assert code == 3, value

    def test_bad_step_size_scenario_error(self, tmp_path, formation3_path):
        for alpha in ("-1", "0", "nan", "inf"):
            code = run(["simulate", "--scenario", formation3_path,
                        "--alpha", alpha, "--steps", "5",
                        "--out", str(tmp_path)])
            assert code == 3, alpha

    def test_bad_epsilon_flag_scenario_error(self, tmp_path, formation3_path,
                                            capsys):
        # rejected by name before any solve, not by the LP solver's input check
        for cmd in ("solve", "simulate"):
            for eps in ("nan", "inf", "-1"):
                code = run([cmd, "--scenario", formation3_path, f"--eps={eps}",
                            "--out", str(tmp_path)])
                assert code == 3, (cmd, eps)
                err = capsys.readouterr().err
                assert "eps" in err and "finite" in err, (cmd, eps, err)

    def test_solver_failure_reported(self, tmp_path, formation3_path):
        p = tight_scenario(formation3_path, tmp_path)
        code = run(["solve", "--scenario", str(p), "--iters", "3",
                    "--out", str(tmp_path)])
        assert code == 4

    def test_linalg_error_is_solver_failure(self, formation3_path, tmp_path,
                                            monkeypatch):
        # LinAlgError subclasses ValueError; it must still exit 4, not 3
        def broken(args):
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(cli, "cmd_dump", broken)
        code = run(["dump", "--scenario", formation3_path,
                    "--out", str(tmp_path)])
        assert code == 4

    def test_truncated_simulate_is_solver_failure(self, tmp_path,
                                                  formation3_path):
        # the partial trace is written, then exit 4
        p = tight_scenario(formation3_path, tmp_path)
        out = tmp_path / "runs"
        code = run(["simulate", "--scenario", str(p), "--iters", "1",
                    "--steps", "3", "--out", str(out)])
        assert code == 4
        meta = [f for f in os.listdir(out) if f.endswith(".meta.json")]
        assert json.loads(open(out / meta[0]).read())["infeasible_at"] == 0

    def test_truncated_sweep_is_data(self, tmp_path, formation3_path):
        p = tight_scenario(formation3_path, tmp_path)
        out = tmp_path / "sweep"
        code = run(["sweep", "--scenario", str(p), "--iters", "1",
                    "--steps", "3", "--out", str(out)])
        assert code == 0
        summary = json.loads(open(out / "sweep_summary.json").read())
        assert summary["grid"][0]["infeasible_at"] == 0


class TestSimulate:
    def test_writes_trace_and_metadata(self, formation3_path, tmp_path):
        out = tmp_path / "runs"
        code = run(["simulate", "--scenario", formation3_path, "--iters", "1",
                    "--steps", "6", "--out", str(out)])
        assert code == 0
        files = sorted(os.listdir(out))
        csvs = [f for f in files if f.endswith(".csv")]
        metas = [f for f in files if f.endswith(".meta.json")]
        assert len(csvs) == 1 and len(metas) == 1
        meta = json.loads(open(out / metas[0]).read())
        assert meta["ell"] == 1 and meta["steps"] == 6
        body = open(out / csvs[0]).read()
        assert body.startswith("# dsmpc-trace-v1\n")
        assert body.count("\n") == 2 + 6 + 1  # header comment + header + rows

    def test_byte_identical_reruns(self, formation3_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["simulate", "--scenario", formation3_path,
                        "--iters", "1", "--steps", "6", "--seed", "7",
                        "--out", str(out)]) == 0
        name = [f for f in os.listdir(out1) if f.endswith(".csv")][0]
        assert open(out1 / name, "rb").read() == open(out2 / name, "rb").read()

    def test_scenario_file_untouched(self, formation3_path, tmp_path):
        before = open(formation3_path, "rb").read()
        run(["simulate", "--scenario", formation3_path, "--iters", "1",
             "--steps", "4", "--out", str(tmp_path)])
        assert open(formation3_path, "rb").read() == before


class TestSweep:
    def test_grid_outputs(self, formation3_path, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--scenario", formation3_path, "--iters", "1,3",
                    "--steps", "5", "--out", str(out)])
        assert code == 0
        summary = json.loads(open(out / "sweep_summary.json").read())
        assert len(summary["grid"]) == 2
        assert {g["iters"] for g in summary["grid"]} == {1, 3}
        for gpt in summary["grid"]:
            assert os.path.exists(gpt["csv"])


class TestCheckAndDump:
    def test_check_passes_on_bundled(self, formation3_path, tmp_path, capsys):
        code = run(["check", "--scenario", formation3_path,
                    "--out", str(tmp_path), "--points", "5"])
        assert code == 0
        text = capsys.readouterr().out
        assert "check: pass" in text

    def test_dump_matrices(self, formation3_path, tmp_path):
        code = run(["dump", "--scenario", formation3_path,
                    "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads(open(tmp_path / "formation3_condensed.json").read())
        assert len(doc["agents"]) == 3
        H = np.asarray(doc["agents"][0]["H"])
        assert H.shape == (20, 20)
        assert np.allclose(H, H.T)


class TestSolve:
    def test_writes_curve_report(self, formation3_path, tmp_path, capsys):
        out = tmp_path / "solve"
        code = run(["solve", "--scenario", formation3_path, "--iters", "20",
                    "--eps", "0.05", "--out", str(out)])
        assert code == 0
        files = os.listdir(out)
        assert any(f.endswith(".json") for f in files)
        assert any(f.endswith(".csv") for f in files)
        assert "dual gap" in capsys.readouterr().out

    def test_report_digest_is_the_loaded_scenario(self, formation3_path,
                                                  tmp_path):
        # solve's report and simulate's metadata name the scenario file as
        # loaded by the same digest, not the shifted scenario's
        out = tmp_path / "runs"
        assert run(["solve", "--scenario", formation3_path, "--iters", "2",
                    "--out", str(out)]) == 0
        assert run(["simulate", "--scenario", formation3_path, "--iters", "1",
                    "--steps", "2", "--out", str(out)]) == 0
        want = load_scenario(formation3_path).digest()
        files = os.listdir(out)
        [report] = [f for f in files if f.startswith("suboptimality_curve")
                    and f.endswith(".json")]
        [meta] = [f for f in files if f.endswith(".meta.json")]
        assert report.startswith(f"suboptimality_curve_{want[:12]}_")
        assert json.loads(open(out / report).read())["provenance"] == \
            {"scenario_digest": want}
        assert json.loads(open(out / meta).read())["scenario_digest"] == want

    def test_eps_override_digest_is_the_loaded_scenario(self, formation3_path,
                                                        tmp_path):
        # --eps changes the run, not the file the run names
        out = tmp_path / "runs"
        assert run(["solve", "--scenario", formation3_path, "--iters", "2",
                    "--eps", "0.05", "--out", str(out)]) == 0
        assert run(["simulate", "--scenario", formation3_path, "--iters", "1",
                    "--eps", "0.05", "--steps", "2", "--out", str(out)]) == 0
        want = load_scenario(formation3_path).digest()
        files = os.listdir(out)
        [report] = [f for f in files if f.startswith("suboptimality_curve")
                    and f.endswith(".json")]
        [meta] = [f for f in files if f.endswith(".meta.json")]
        assert json.loads(open(out / report).read())["provenance"] == \
            {"scenario_digest": want}
        meta = json.loads(open(out / meta).read())
        assert meta["scenario_digest"] == want and meta["epsilon"] == 0.05


class TestParallelAndEntryPoint:
    def test_sweep_jobs_parallel(self, formation3_path, tmp_path):
        out = tmp_path / "par"
        code = run(["sweep", "--scenario", formation3_path, "--iters", "1,2",
                    "--steps", "4", "--jobs", "2", "--out", str(out)])
        assert code == 0
        summary = json.loads(open(out / "sweep_summary.json").read())
        assert len(summary["grid"]) == 2

    def test_module_entry_point(self, formation3_path, tmp_path):
        import subprocess, sys
        proc = subprocess.run(
            [sys.executable, "-m", "dsmpc.cli", "simulate", "--scenario",
             formation3_path, "--iters", "1", "--steps", "3",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "trace written" in proc.stdout
