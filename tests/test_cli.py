import json
import os

import numpy as np
import pytest

from dsmpc import cli
from dsmpc.cli import main
from dsmpc.model import load_scenario

from conftest import every_agent_doc, unstabilizable_doc


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
        code = run(["check", "--scenario", str(bad)])
        assert code == 3

    def test_non_finite_entry_scenario_error(self, tmp_path, formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][1]["B"][0][0] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--scenario", str(bad)])
        assert code == 3

    def test_zero_terminal_cost_scenario_error(self, tmp_path, capsys):
        # P = 0 without a terminal set gives no decrease; the check reads the
        # P that the controller uses
        path = tmp_path / "zero_P.json"
        path.write_text(json.dumps(every_agent_doc(
            terminal={"mode": "none"}, P=np.zeros((4, 4)).tolist())))
        code = run(["check", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "agent 0 terminal_decrease: FAIL" in out

    def test_non_finite_header_scenario_error(self, tmp_path, formation3_path):
        for key, value in (("epsilon", float("nan")), ("epsilon", float("inf")),
                           ("horizon", float("inf")), ("seed", float("inf"))):
            doc = json.loads(open(formation3_path).read())
            doc[key] = value
            bad = tmp_path / f"{key}.json"
            bad.write_text(json.dumps(doc))
            for cmd in (["check"], ["simulate", "--steps", "2",
                                    "--out", str(tmp_path)]):
                code = run(cmd + ["--scenario", str(bad)])
                assert code == 3, (key, value, cmd[0])

    def test_non_numeric_epsilon_scenario_error(self, tmp_path,
                                                formation3_path):
        for value in (None, [0.1], "small"):
            doc = json.loads(open(formation3_path).read())
            doc["epsilon"] = value
            bad = tmp_path / "eps.json"
            bad.write_text(json.dumps(doc))
            code = run(["check", "--scenario", str(bad)])
            assert code == 3, value

    @pytest.mark.parametrize("edit,named", [
        (lambda d: d.update(agents=5), "'agents'"),
        (lambda d: d.update(coupling=3), "'coupling'"),
        (lambda d: d["agents"][0].update(terminal="equality"),
         "agent agent1: terminal"),
        (lambda d: d["agents"][0].update(input_poly=[1, 2]),
         "agent agent1: input_poly"),
        (lambda d: d["coupling"].insert(0, {"Eu": [[1.0, 0.0]], "b": [1.0]}),
         "coupling row 0: Eu"),
        (lambda d: d["coupling"][0]["abs_state_diff"].pop("select"),
         "coupling row 0: abs_state_diff is missing 'select'"),
        (lambda d: d["coupling"][0]["abs_state_diff"].update(agents=["a", "b"]),
         "coupling row 0: agent key is not a finite int ('a')"),
        (lambda d: d["coupling"][0]["abs_state_diff"].update(agents=[[1], [2]]),
         "coupling row 0: agent key is not a finite int ([1])"),
        # no spelling but the "abs_state_diff" key is read
        (lambda d: d["coupling"].insert(0, {"type": "abs_state_diff",
                                            **d["coupling"][0]["abs_state_diff"]}),
         "coupling row 0: empty right-hand side"),
        # an abs_state_diff item is read as the raw item it stands for
        (lambda d: d["coupling"][0]["abs_state_diff"].update(agents=[1, 1]),
         "coupling row 0: Ex names agent 1 twice"),
        (lambda d: d["coupling"].insert(0, {"Ex": {"0": [[1, 0, 0, 0]],
                                                   "00": [[0, 1, 0, 0]]},
                                            "b": [1.0]}),
         "coupling row 0: Ex names agent 0 twice"),
    ], ids=["agents", "coupling", "terminal", "input_poly", "Eu", "select",
            "agent_names", "agent_lists", "type_spelling", "agent_twice",
            "block_key_twice"])
    def test_malformed_structure_scenario_error(self, tmp_path, formation3_path,
                                                capsys, edit, named):
        doc = json.loads(open(formation3_path).read())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--scenario", str(bad)])
        err = capsys.readouterr().err
        assert code == 3 and "error: scenario:" in err and named in err, err

    @pytest.mark.parametrize("box", [
        [[-1.0, float("nan")], [1.0, 1.0]], [[-1.0, -1.0], [float("inf"), 1.0]],
        [[-float("inf"), -1.0], [1.0, 1.0]], [[-1.0, -1.0]],
    ], ids=["nan", "inf", "minus_inf", "one_bound"])
    @pytest.mark.parametrize("cmd", ["check", "simulate"])
    def test_bad_box_scenario_error(self, tmp_path, formation3_path, capsys,
                                    cmd, box):
        # a box bound is checked like any other vector: a non-finite entry
        # or a missing bound names the agent and the field, and exits 3
        doc = json.loads(open(formation3_path).read())
        doc["agents"][0]["input_poly"] = {"box": box}
        bad = tmp_path / "box.json"
        bad.write_text(json.dumps(doc))  # JSON literals NaN / Infinity
        out = ["--out", str(tmp_path)] if cmd == "simulate" else []
        code = run([cmd, "--scenario", str(bad)] + out)
        err = capsys.readouterr().err
        assert code == 3 and "agent agent1: input_poly.box" in err, err

    @pytest.mark.parametrize("key,value", [("horizon", 2.5), ("iterations", 1.5),
                                           ("sim_steps", 2.5), ("seed", 0.5)])
    def test_non_integral_field_scenario_error(self, tmp_path, formation3_path,
                                               capsys, key, value):
        doc = json.loads(open(formation3_path).read())
        doc[key] = value
        bad = tmp_path / "frac.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--scenario", str(bad)])
        err = capsys.readouterr().err
        # the category prefix appears once, from the command line
        assert code == 3, err
        assert err == f"error: scenario: {key} is not an integer ({value!r})\n"

    def test_non_finite_disturbance_bound_scenario_error(self, tmp_path,
                                                         formation3_path, capsys):
        for bound in ("nan", "inf"):
            code = run(["simulate", "--scenario", formation3_path, "--dist",
                        "uniform", "--dist-bound", bound, "--steps", "2",
                        "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 3 and "disturbance bound must be finite" in err, err

    def test_omitted_dist_bound_is_the_scenarios(self, tmp_path,
                                                 formation3_path, monkeypatch):
        # formation3 declares 0.05 on every state; without --dist-bound a
        # uniform disturbance uses it, in simulate and in sweep alike
        traces, simulate = [], cli.simulate_closed_loop
        def recording(*args, **kwargs):
            traces.append(simulate(*args, **kwargs))
            return traces[-1]
        monkeypatch.setattr(cli, "simulate_closed_loop", recording)
        bodies = []
        for cmd, dist in (("simulate", "zero"), ("simulate", "uniform"),
                          ("sweep", "uniform")):
            out = tmp_path / f"{cmd}_{dist}"
            assert run([cmd, "--scenario", formation3_path, "--iters", "1",
                        "--steps", "6", "--dist", dist, "--out", str(out)]) == 0
            [csv] = [f for f in os.listdir(out) if f.endswith(".csv")]
            bodies.append((out / csv).read_text())
        assert bodies[0] != bodies[1] == bodies[2]
        d = np.abs(traces[1].disturbances)
        assert 0.0 < d.max() <= 0.05

    @pytest.mark.parametrize("argv,field", [
        (["solve", "--iters", "0"], "iterations"),
        (["solve", "--iters", "-1"], "iterations"),
        (["simulate", "--iters", "0", "--steps", "2"], "iterations"),
        (["simulate", "--steps", "0"], "sim_steps"),
    ], ids=["solve-iters0", "solve-iters-1", "simulate-iters0", "simulate-steps0"])
    def test_round_and_step_overrides_checked(self, tmp_path, formation3_path,
                                              capsys, argv, field):
        out = tmp_path / "runs"
        code = run(argv + ["--scenario", formation3_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and f"{field} must be >= 1" in err, err
        assert not out.exists()

    def test_bad_step_size_scenario_error(self, tmp_path, formation3_path):
        for cmd, budget in (("simulate", "--steps"), ("solve", "--iters")):
            for alpha in ("-1", "0", "nan", "inf"):
                code = run([cmd, "--scenario", formation3_path, "--alpha",
                            alpha, budget, "5", "--out", str(tmp_path)])
                assert code == 3, (cmd, alpha)

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
    def test_check_passes_on_bundled(self, formation3_path, capsys):
        code = run(["check", "--scenario", formation3_path, "--points", "5"])
        assert code == 0
        text = capsys.readouterr().out
        assert "check: pass" in text

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_check_needs_a_point(self, formation3_path, capsys, points):
        code = run(["check", "--scenario", formation3_path, "--points", points])
        out, err = capsys.readouterr()
        assert code == 2 and "--points" in err, err
        assert "check:" not in out

    def test_check_takes_no_out(self, formation3_path, tmp_path, capsys):
        code = run(["check", "--scenario", formation3_path,
                    "--out", str(tmp_path / "x")])
        assert code == 2 and "--out" in capsys.readouterr().err

    def test_check_fails_on_failed_assumptions(self, tmp_path, capsys):
        path = tmp_path / "unstabilizable.json"
        path.write_text(json.dumps(unstabilizable_doc()))
        code = run(["check", "--scenario", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert "agent 0 stabilizable: FAIL" in out
        assert ("agent 0 terminal_decrease: FAIL  "
                "(no Riccati solution available)") in out
        assert out.rstrip().endswith("check: FAIL")
        assert "error: scenario: scenario failed validation" in err

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

    def test_prints_the_default_step(self, formation3_path, tmp_path, capsys):
        # the step the curve used, 0.99 / L when --alpha is not given
        assert run(["solve", "--scenario", formation3_path, "--iters", "5",
                    "--out", str(tmp_path)]) == 0
        assert "(alpha=0.0769464, eps=1e-08)" in capsys.readouterr().out

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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_needs_a_job(self, formation3_path, tmp_path, capsys, jobs):
        out = tmp_path / "none"
        code = run(["sweep", "--scenario", formation3_path, "--iters", "1",
                    "--steps", "2", "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "argument --jobs: must be >= 1" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--iters", "a"), ("--eps", "x"), ("--seeds", "1.5"), ("--iters", ",,"),
    ], ids=["iters", "eps", "seeds", "no_iters"])
    def test_sweep_list_is_checked(self, formation3_path, tmp_path, capsys,
                                   flag, value):
        # every element parses before any run, and a list is never empty
        out = tmp_path / "none"
        code = run(["sweep", "--scenario", formation3_path, "--steps", "2",
                    f"{flag}={value}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and f"argument {flag}:" in err, err
        assert not out.exists()

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
