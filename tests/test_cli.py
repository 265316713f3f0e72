import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moncap.cli import MAX_NUMERIC_CELLS, main
from moncap.config import _SOLVER_KEYS, MAX_MESH_N, MESH_L_RANGE
from moncap.reporting import config_hash

ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_cfg(path, body):
    path.write_text(json.dumps(body))
    return str(path)


def strip_cfg(out_dir, n=8, p=2.0, extra=None):
    body = {
        "mesh": {"N": n},
        "flux": {"kind": "p_laplacian", "p": p},
        "E": {"halfplane": {"axis": "x", "threshold": 0.25, "side": "le"}},
        "F": {"complement": {"halfplane": {"axis": "x", "threshold": 0.75,
                                           "side": "ge"}}},
        "s": 1.0,
        "output_dir": out_dir,
        "seed": 0,
    }
    if extra:
        body.update(extra)
    return body


class TestCapacityCommand:
    def test_strip_prints_report_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json",
                        strip_cfg(str(tmp_path / "out")))
        rc = main(["capacity", cfg])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["c_inner"] == pytest.approx(2.0, rel=1e-8)
        assert (tmp_path / "out" / "runs.jsonl").exists()

    def test_incompatible_pair_reports_infinity_exit_zero(self, tmp_path,
                                                          capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["E"] = {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.3}}
        body["F"] = {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1}}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        rc = main(["capacity", cfg])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["capacity"] == "infinity"
        assert out["c_inner"] == "infinity"

    def test_overflowed_capacity_exit_2(self, tmp_path, capsys, recwarn):
        # a compatible pair whose capacity overflows is not "infinity"
        body = annulus_cfg(str(tmp_path / "out"), n=8)
        body["s"] = 1e120
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        captured = capsys.readouterr()
        assert "invalid input: the capacity overflows at s = 1e+120" \
            in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_clip_e_to_f(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["E"] = {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.3}}
        body["F"] = {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1}}
        body["clip_E_to_F"] = True
        cfg = write_cfg(tmp_path / "cfg.json", body)
        rc = main(["capacity", cfg])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c_inner"] != "infinity"

    def test_cp_value_self_shortcut(self, tmp_path, capsys, monkeypatch):
        from moncap import capacity
        real, solves = capacity.solve_dirichlet, []

        def counting(*args):
            solves.append(args)
            return real(*args)
        monkeypatch.setattr(capacity, "solve_dirichlet", counting)
        cfg = write_cfg(tmp_path / "cfg.json",
                        annulus_cfg(str(tmp_path / "out"), n=8))
        assert main(["capacity", cfg]) == 0
        body = json.loads(capsys.readouterr().out)
        # C_p of the p-Laplacian at s = 1 is the capacity itself
        assert body["cp_value"] == body["c_inner"]
        assert len(solves) == 1

    def test_diverged_cp_solve_keeps_the_capacity_report(self, tmp_path,
                                                         capsys):
        # an all-core flux converges at its start; its C_p solve (p = 3,
        # no Newton budget) cannot
        body = annulus_cfg(str(tmp_path / "out"), solver={"max_newton": 0})
        body["flux"] = {"kind": "flat_core_p", "p": 3.0,
                        "params": {"rho0": 100.0}}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 3
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["c1"] == 0.25 and out["c_inner"] == 0.0
        assert out["flags"]["converged"] is True
        assert out["cp_value"] is None
        assert "solver diverged: C_p solve: residual " in captured.err
        lines = (tmp_path / "out" / "runs.jsonl").read_text().splitlines()
        results = json.loads(lines[-1])["results"]
        assert results["c_inner"] == 0.0 and results["converged"] is True
        assert results["diverged"].startswith("C_p solve: residual ")


class TestBadConfig:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["meshh"] = {"N": 8}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_overflowing_flat_core_b1_exit_2(self, tmp_path, capsys, recwarn):
        body = strip_cfg(str(tmp_path / "out"), p=3.0)
        body["flux"] = {"kind": "flat_core_p", "p": 3.0,
                        "params": {"rho0": 1e120}}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        captured = capsys.readouterr()
        assert "flux.params.rho0: core radius 1e+120 overflows b1" \
            in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_negative_core_radius_names_its_path(self, tmp_path, capsys):
        with open(ROOT / "configs" / "sweep-flat-core.json") as fh:
            body = json.load(fh)
        body["flux"]["params"]["rho0"] = -1.0
        body["output_dir"] = str(tmp_path / "out")
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["sweep-s", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error: flux.params.rho0: core radius must be " \
            "nonnegative" in captured.err
        assert captured.out == ""

    def test_bad_flux_kind_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["flux"] = {"kind": "q_laplacian", "p": 2.0}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2

    @pytest.mark.parametrize("block,key", [("solver", "inner_tol"),
                                           ("solver", "picard_fallback"),
                                           ("suite", "n_refine")])
    def test_retired_keys_exit_2(self, tmp_path, capsys, block, key):
        body = strip_cfg(str(tmp_path / "out"))
        body[block] = {key: 1e-10}
        if block == "suite":
            body[block]["name"] = "order"
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    def test_p_on_kind_without_p_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["flux"] = {"kind": "linear_matrix", "p": 3.0,
                        "params": {"M": [[1.0, 0.0], [0.0, 1.0]]}}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        assert "flux.p: flux kind 'linear_matrix' takes no p" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command,block,path", [
        ("converge", {"oracle": {"radial": {"p": 2.0, "R": 0.4}}},
         "oracle.radial: missing required key 'r'"),
        ("converge", {"oracle": {"value": "x"}},
         "oracle.value: expected a number"),
        ("suite", {"suite": {"name": "s", "s_grid": 5}},
         "suite.s_grid: s_grid must be a list"),
        ("suite", {"suite": {"name": "order", "instances": -3}},
         "suite.instances: instances must be >= 1"),
    ])
    def test_oracle_and_suite_blocks_exit_2(self, tmp_path, capsys, command,
                                           block, path):
        body = strip_cfg(str(tmp_path / "out"),
                         extra=dict(block, N_list=[8, 16]))
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main([command, cfg]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}" in captured.err
        assert captured.out == ""

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["capacity", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["capacity", str(bad)]) == 2


class TestShapeAndOrderErrors:
    @pytest.mark.parametrize("shape,path", [
        ({"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1, "radius": 0.3}},
         "E.disk: unknown keys ['radius']"),
        ({"disk": {"cx": float("nan"), "cy": 0.5, "r": 0.1}},
         "E.disk.cx: expected a number"),
        ({"disk": {"cx": 0.5, "cy": 0.5, "r": 1e400}},
         "E.disk.r: expected a number"),
        ({"disk": {"cx": True, "cy": 0.5, "r": 0.1}},
         "E.disk.cx: expected a number"),
        ({"disk": {"cx": "0.5", "cy": 0.5, "r": 0.1}},
         "E.disk.cx: expected a number"),
    ])
    def test_bad_shape_body_exit_2(self, tmp_path, capsys, shape, path):
        body = strip_cfg(str(tmp_path / "out"), extra={"E": shape})
        # Python's json reads 1e400 as inf
        (tmp_path / "cfg.json").write_text(
            json.dumps(body).replace("Infinity", "1e400"))
        assert main(["capacity", str(tmp_path / "cfg.json")]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command,extra,path", [
        ("sweep-s", {"s_grid": [0.0, 2.0, 1.0]}, "s_grid"),
        ("suite", {"suite": {"name": "s", "s_grid": [1.0, -1.0]}},
         "suite.s_grid"),
        ("converge", {"N_list": [16, 8], "oracle": {"value": 2.0}},
         "N_list"),
    ])
    def test_unordered_grid_exit_2(self, tmp_path, capsys, command, extra,
                                   path):
        cfg = write_cfg(tmp_path / "cfg.json",
                        strip_cfg(str(tmp_path / "out"), extra=extra))
        assert main([command, cfg]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err


class TestPotentialCommand:
    def test_writes_csv_and_pgm(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "cfg.json", strip_cfg(str(out)))
        rc = main(["potential", cfg, "--csv", "--pgm"])
        assert rc == 0
        files = os.listdir(out)
        assert any(f.endswith(".csv") and "history" not in f for f in files)
        pgms = [f for f in files if f.endswith(".pgm")]
        assert pgms
        blob = (out / sorted(pgms)[0]).read_bytes()
        assert blob.startswith(b"P5\n9 9\n255\n")
        assert any(f.endswith("-history.csv") for f in files)


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = strip_cfg(str(out), extra={"s_grid": [-1.0, 0.0, 1.0, 2.0]})
        cfg = write_cfg(tmp_path / "cfg.json", body)
        rc = main(["sweep-s", cfg])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        by_s = {r["s"]: r for r in rows}
        assert by_s[0.0]["C_A"] == 0.0
        assert by_s[2.0]["C_A"] == pytest.approx(8.0, rel=1e-8)
        csvs = [f for f in os.listdir(out) if f.endswith(".csv")]
        assert csvs
        text = (out / csvs[0]).read_text()
        assert text.splitlines()[0] == "s,C_A,C_hat"


class TestSuiteCommand:
    def _cfg(self, tmp_path, name, instances=4):
        out = tmp_path / "out"
        body = {
            "mesh": {"N": 16},
            "suite": {"name": name, "instances": instances,
                      "fluxes": [{"kind": "p_laplacian", "p": 2.0}]},
            "output_dir": str(out),
            "seed": 7,
        }
        return write_cfg(tmp_path / f"{name}.json", body)

    def test_order_suite_passes_and_deterministic(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "order")
        assert main(["suite", cfg]) == 0
        first = capsys.readouterr().out
        assert first.startswith("PASS suite=order")
        out = tmp_path / "out"
        report_files = [f for f in os.listdir(out) if f.startswith("suite-")]
        blob1 = (out / report_files[0]).read_bytes()
        assert main(["suite", cfg]) == 0
        blob2 = (out / report_files[0]).read_bytes()
        assert blob1 == blob2

    def test_cross_process_determinism(self, tmp_path):
        # separate interpreter processes, separate hash seeds: suite report
        # files must still match byte for byte
        import subprocess
        import sys
        cfg = self._cfg(tmp_path, "order", instances=5)
        blobs = []
        for k, hashseed in enumerate(("1", "31337")):
            out = tmp_path / f"proc{k}"
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       MONCAP_OUT=str(out))
            proc = subprocess.run(
                [sys.executable, "-m", "moncap.cli", "suite", cfg],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            files = [f for f in os.listdir(out) if f.startswith("suite-")]
            blobs.append((out / files[0]).read_bytes())
        assert blobs[0] == blobs[1]

    def test_jobs_flag_matches_serial(self, tmp_path):
        cfg = self._cfg(tmp_path, "order", instances=6)
        assert main(["suite", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert main(["suite", cfg, "--jobs", "3",
                     "--out", str(tmp_path / "parallel")]) == 0
        s = [f for f in os.listdir(tmp_path / "serial")
             if f.startswith("suite-")][0]
        blob_s = (tmp_path / "serial" / s).read_bytes()
        blob_p = (tmp_path / "parallel" / s).read_bytes()
        assert blob_s == blob_p

    def test_name_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        body = {"mesh": {"N": 16}, "output_dir": str(out), "seed": 1}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["suite", cfg, "--name", "invariance"]) == 0

    def test_sequence_suite_via_chain(self, tmp_path):
        out = tmp_path / "out"
        body = {
            "mesh": {"N": 16},
            "flux": {"kind": "p_laplacian", "p": 2.0},
            "chain": {
                "mode": "E",
                "shapes": [{"disk": {"cx": 0.5, "cy": 0.5, "r": r}}
                           for r in (0.05, 0.12, 0.2)],
                "fixed": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.4}},
            },
            "output_dir": str(out),
        }
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["suite", cfg, "--name", "sequence"]) == 0

    @pytest.mark.parametrize("argv", [["capacity"], ["suite"],
                                      ["suite", "--name", "x"],
                                      ["suite", "--name", "order"]])
    def test_unknown_config_suite_name_exit_2(self, tmp_path, capsys, argv):
        # every command rejects a config whose suite.name is no suite
        body = strip_cfg(str(tmp_path / "out"),
                         extra={"suite": {"name": "x"}})
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main([argv[0], cfg, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert "config error: suite.name: unknown suite 'x'" in captured.err
        assert captured.out == ""

    def test_unknown_name_flag_exit_2(self, tmp_path, capsys):
        body = {"mesh": {"N": 16}, "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["suite", cfg, "--name", "x"]) == 2
        captured = capsys.readouterr()
        assert "config error: unknown suite 'x'" in captured.err
        assert captured.out == ""


class TestCheckFluxCommand:
    def test_good_flux_exit_zero(self, tmp_path, capsys):
        body = {"flux": {"kind": "p_laplacian", "p": 3.0},
                "check": {"n_samples": 500},
                "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["check-flux", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_passed"] is True

    @pytest.mark.parametrize("check,path", [
        ({"n_samples": 0}, "check.n_samples"),
        ({"n_samples": 1e10}, "check.n_samples"),
        ({"xi_radius": 0}, "check.xi_radius"),
        ({"xi_radius": -1}, "check.xi_radius"),
        ({"xi_radius": 1e300}, "check.xi_radius"),
    ])
    def test_bad_check_block_exit_2_with_path(self, tmp_path, capsys,
                                              recwarn, check, path):
        # rejected with the path before any sample is drawn, at parse time
        # or by the check's own xi_radius^p bound: nothing is allocated,
        # nothing passes vacuously, nothing overflows
        body = {"flux": {"kind": "p_laplacian", "p": 3.0}, "check": check,
                "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["check-flux", cfg]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}: " in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("p,check", [
        (300.0, {}), (300.0, {"xi_radius": 3.0}), (3.0, {"xi_radius": 1e34}),
        (3.0, {"xi_radius": 1e300})],
        ids=["p300_default_radius", "p300", "p3", "p3_radius_1e300"])
    def test_growth_bound_exit_2_with_path(self, tmp_path, capsys, recwarn,
                                           p, check):
        # xi_radius^p above 1e100, the default radius 10 included
        body = {"flux": {"kind": "p_laplacian", "p": p},
                "check": dict(check, n_samples=2000),
                "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["check-flux", cfg]) == 2
        captured = capsys.readouterr()
        assert "config error: check.xi_radius: xi_radius must be in (0, " \
            in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_adversarial_fixture_fails_with_witness(self, tmp_path, capsys):
        body = {"flux": {"kind": "adversarial_fixture"},
                "check": {"n_samples": 500},
                "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["check-flux", cfg]) == 1
        out = json.loads(capsys.readouterr().out)
        mono = out["conditions"]["monotone"]
        assert mono["passed"] is False
        assert len(mono["witness"]["xi"]) == 2


class TestConvergeCommand:
    def test_strip_study(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = strip_cfg(str(out), extra={
            "N_list": [8, 16],
            "oracle": {"strip": {"p": 2.0, "a": 0.25, "b": 0.75, "Ly": 1.0},
                       "tol": 1e-8},
        })
        del body["s"]
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["converge", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_overflowing_radial_oracle_exit_2(self, tmp_path, capsys):
        body = annulus_cfg(str(tmp_path / "out"), n=8)
        body["N_list"] = [8, 16]
        body["oracle"] = {"radial": {"p": 1000, "r": 0.1, "R": 0.4}}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["converge", cfg]) == 2
        assert "config error: oracle.radial.p: the radial capacity " \
            "overflows" in capsys.readouterr().err

    def test_overflowing_strip_oracle_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"), extra={
            "N_list": [8, 16],
            "oracle": {"strip": {"p": 1e300, "a": 0.25, "b": 0.75},
                       "tol": 1e-8},
        })
        del body["s"]
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["converge", cfg]) == 2
        assert "config error: oracle.strip.p: the strip capacity " \
            "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, args, path", [
        ("radial", {"r": 0.5, "R": 0.2}, "oracle.radial.R"),
        ("radial", {"r": -0.1, "R": 0.4}, "oracle.radial.r"),
        ("strip", {"a": 0.75, "b": 0.25}, "oracle.strip.b"),
        ("strip", {"a": -0.25, "b": 0.75}, "oracle.strip.a")])
    def test_bad_oracle_arguments_exit_2_with_path(self, tmp_path, capsys,
                                                   kind, args, path):
        body = annulus_cfg(str(tmp_path / "out"), n=8)
        body["N_list"] = [8, 16]
        body["oracle"] = {kind: {"p": 2.0, **args}}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["converge", cfg]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err


class TestOracleCommand:
    def test_radial(self, capsys):
        assert main(["oracle", "radial", "--p", "2", "--r", "0.1",
                     "--R", "0.4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(4.53236, rel=1e-5)

    def test_strip(self, capsys):
        assert main(["oracle", "strip", "--p", "3", "--a", "0.25",
                     "--b", "0.75"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(4.0)

    def test_radial_numeric_cross_check(self, capsys):
        assert main(["oracle", "radial", "--p", "2", "--r", "0.1",
                     "--R", "0.4", "--numeric", "2000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["numeric"] == pytest.approx(out["value"], rel=1e-9)

    @pytest.mark.parametrize("argv,message", [
        (["radial"], "radial oracle needs --r and --R"),
        (["radial", "--R", "0.4"], "radial oracle needs --r and --R"),
        (["strip", "--a", "0.1"], "strip oracle needs --a and --b"),
        (["strip", "--b", "0.4"], "strip oracle needs --a and --b")])
    def test_missing_args_exit_2(self, capsys, argv, message):
        # the message lists every flag of the kind without a default
        assert main(["oracle", *argv, "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    def test_help_names_the_flags(self, capsys):
        assert main(["oracle", "--help"]) == 0
        text = capsys.readouterr().out
        for usage in ("--n N", "--p P", "--r R", "--R BIG_R", "--a A",
                      "--b B", "--Ly LY", "--numeric NUMERIC"):
            assert usage in text

    def test_overflowing_radial_capacity_exit_2(self, capsys):
        # I^(1-p) overflowed Python floats in an OverflowError traceback
        assert main(["oracle", "radial", "--p", "1000", "--r", "0.1",
                     "--R", "0.2"]) == 2
        captured = capsys.readouterr()
        assert "config error: --p: the radial capacity overflows" \
            in captured.err
        assert captured.out == ""

    def test_overflowing_strip_capacity_exit_2(self, capsys):
        # (b - a)^(1-p) overflowed Python floats in an OverflowError traceback
        assert main(["oracle", "strip", "--p", "1e300", "--a", "0.1",
                     "--b", "0.2"]) == 2
        captured = capsys.readouterr()
        assert "config error: --p: the strip capacity overflows" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, path", [
        (["radial", "--r", "0.5", "--R", "0.2"], "--R"),
        (["radial", "--r", "0", "--R", "0.2"], "--r"),
        (["radial", "--n", "1", "--r", "0.1", "--R", "0.2"], "--n"),
        (["strip", "--a", "0.5", "--b", "0.2"], "--b"),
        (["strip", "--a", "-0.5", "--b", "0.2"], "--a"),
        (["strip", "--a", "0.1", "--b", "0.2", "--Ly", "0"], "--Ly")])
    def test_bad_arguments_exit_2_with_path(self, argv, path, capsys):
        assert main(["oracle", *argv, "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}: " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("m", ["0", "3", str(MAX_NUMERIC_CELLS + 1),
                                   "100000000000"])
    def test_numeric_cells_out_of_range_exit_2(self, m, capsys):
        # 0 was ignored, and 10^11 cells asked numpy for 745 GiB
        assert main(["oracle", "radial", "--p", "2", "--r", "0.1",
                     "--R", "0.4", "--numeric", m]) == 2
        assert "--numeric" in capsys.readouterr().err


class TestEnvAndFlags:
    def test_env_overrides_output_dir(self, tmp_path, capsys, monkeypatch):
        env_out = tmp_path / "env-out"
        monkeypatch.setenv("MONCAP_OUT", str(env_out))
        cfg = write_cfg(tmp_path / "c.json",
                        strip_cfg(str(tmp_path / "cfg-out")))
        assert main(["capacity", cfg]) == 0
        assert env_out.exists()
        assert not (tmp_path / "cfg-out").exists()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MONCAP_OUT", str(tmp_path / "env-out"))
        flag_out = tmp_path / "flag-out"
        cfg = write_cfg(tmp_path / "c.json",
                        strip_cfg(str(tmp_path / "cfg-out")))
        assert main(["capacity", cfg, "--out", str(flag_out)]) == 0
        assert flag_out.exists()

    def test_quiet_suppresses_body(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["capacity", cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_tol_res_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["capacity", cfg, "--tol-res", "1e-6"]) == 0

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_tol_res_flag_exit_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["capacity", cfg, "--tol-res", value]) == 2
        assert "--tol-res: tol_res must be positive" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        a = {"mesh": {"N": 8, "L": 1.0}, "seed": 3}
        b = {"seed": 3, "mesh": {"L": 1.0, "N": 8}}
        assert config_hash(a) == config_hash(b)

    def test_differs_on_content(self):
        assert config_hash({"seed": 3}) != config_hash({"seed": 4})

    @staticmethod
    def _ledger(out):
        return [json.loads(line)["config_hash"]
                for line in (out / "runs.jsonl").read_text().splitlines()]

    @pytest.mark.parametrize("flag,key,values", [
        ("--seed", "seed", [1, 2]), ("--tol-res", "solver", [1e-6, 1e-7])])
    def test_overrides_reach_the_hash(self, tmp_path, capsys, flag, key,
                                      values):
        out = tmp_path / "out"
        body = {"mesh": {"N": 16}, "output_dir": str(out), "seed": 0,
                "suite": {"name": "order", "instances": 1,
                          "fluxes": [{"kind": "p_laplacian", "p": 2.0}]}}
        cfg = write_cfg(tmp_path / "c.json", body)
        for value in values:
            assert main(["suite", cfg, flag, str(value)]) == 0
        # the hash is that of the config with the override written in, so
        # two runs with different settings keep two reports
        want = [config_hash({**body, key: value if key == "seed"
                             else {"tol_res": value}}) for value in values]
        assert self._ledger(out) == want
        assert sorted(f for f in os.listdir(out) if f.startswith("suite-")) \
            == sorted(f"suite-order-{h[:12]}.json" for h in want)

    def test_no_override_keeps_the_config_hash(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = strip_cfg(str(out))
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["capacity", cfg]) == 0
        h = config_hash(body)
        assert self._ledger(out) == [h]
        assert (out / f"capacity-{h[:12]}.json").exists()


def annulus_cfg(out_dir, n=24, solver=None):
    body = {
        "mesh": {"N": n},
        "flux": {"kind": "p_laplacian", "p": 3.0},
        "E": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.1}},
        "F": {"disk": {"cx": 0.5, "cy": 0.5, "r": 0.4}},
        "s": 1.0,
        "output_dir": out_dir,
    }
    if solver is not None:
        body["solver"] = solver
    return body


class TestOptionsThatSkipNewton:
    # each of these used to exit 0 with converged: true, Newton skipped
    # and Picard (or an indefinite Jacobian) carrying the solve
    @pytest.mark.parametrize("key,value", [
        ("max_newton", -1), ("jacobian_floor", float("nan")),
        ("jacobian_floor", float("inf")), ("jacobian_floor", -1.0),
    ])
    def test_exit_2_with_path(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path / "c.json", annulus_cfg(
            str(tmp_path / "o"), solver={key: value}))
        assert main(["capacity", cfg]) == 2
        captured = capsys.readouterr()
        assert f"config error: solver.{key}: " in captured.err
        assert captured.out == ""


class TestMeshCeiling:
    @pytest.mark.parametrize("body_edit,path", [
        (lambda b: b["mesh"].update(N=100_000), "mesh.N"),
        (lambda b: b["mesh"].update(N=1), "mesh.N"),
        (lambda b: b.update(N_list=[8, 10 ** 9]), "N_list[1]"),
        (lambda b: b.update(N_list=[1]), "N_list[0]"),
    ])
    def test_exit_2_before_any_mesh_is_built(self, tmp_path, capsys,
                                             monkeypatch, body_edit, path):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr("moncap.cli.build_mesh", no_mesh)
        body = annulus_cfg(str(tmp_path / "o"), n=8)
        body_edit(body)
        cfg = write_cfg(tmp_path / "c.json", body)
        for command in ("capacity", "converge"):
            assert main([command, cfg]) == 2
            assert f"config error: {path}: N must be between 2 and" \
                in capsys.readouterr().err


# values no field should crash on: non-finite, negative, huge, wrong type
_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.sampled_from([0, -1, 1e308, -1e308, 1e-308, True, None, "zero"]),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
)
# mesh sizes small or above the ceiling only: no example allocates much
_MESH_N = st.one_of(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=MAX_MESH_N + 1, max_value=10 ** 12),
    st.sampled_from([1, 0, -5, 2.5, float("nan"), float("inf"), "8", [8]]),
)


def _run_capacity(body):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        cfg = write_cfg(pathlib.Path(tmp) / "c.json", body)
        rc = main(["capacity", cfg, "--out", tmp])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestConfigFuzz:
    """Any config value ends in a documented exit code, never a
    traceback (an exception escaping ``main`` fails the test too)."""

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(),
           key=st.sampled_from(["s", "mesh.N", "mesh.L"] + [
               f"solver.{k}" for k in sorted(_SOLVER_KEYS)]))
    def test_one_bad_value(self, data, key):
        body = annulus_cfg("unused", n=8, solver={})
        value = data.draw(_MESH_N if key == "mesh.N" else _JUNK)
        block, _, name = key.rpartition(".")
        (body[block] if block else body)[name] = value
        _run_capacity(body)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(s=st.floats(allow_nan=False, allow_infinity=False),
           n=st.integers(min_value=2, max_value=10),
           length=st.floats(min_value=MESH_L_RANGE[0],
                            max_value=MESH_L_RANGE[1]),
           max_newton=st.integers(min_value=0, max_value=10 ** 9),
           floor=st.sampled_from([0.0, 1e-300, 1e-9, 1e300]))
    def test_extreme_accepted_values(self, s, n, length, max_newton, floor):
        body = annulus_cfg("unused", n=n, solver={
            "max_newton": max_newton, "jacobian_floor": floor})
        body["s"] = s
        body["mesh"]["L"] = length
        for key in ("E", "F"):
            body[key]["disk"] = {k: v * length
                                 for k, v in body[key]["disk"].items()}
        _run_capacity(body)


class TestNegativeSeed:
    # numpy's default_rng raised a ValueError traceback on either
    def test_config_seed_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "o"))
        body["seed"] = -1
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["capacity", cfg]) == 2
        assert "config error: seed: seed must be >= 0" \
            in capsys.readouterr().err

    def test_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["suite", cfg, "--name", "order", "--seed", "-1"]) == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err


class TestJobsFlag:
    # large values are left untested: each would start that many threads
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_below_one_exit_2(self, tmp_path, capsys, jobs):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["suite", cfg, "--name", "order", "--jobs", jobs]) == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err

    def test_only_suite_reads_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", strip_cfg(str(tmp_path / "o")))
        assert main(["capacity", cfg, "--jobs", "1"]) == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestFoundByFuzzing:
    @pytest.mark.parametrize("edit,message", [
        # |s|^(p-1) of the default tolerance overflowed in Python floats
        (lambda b: b.update(s=1e308), "invalid input: |s|^(p-1) overflows"),
        # element areas underflowed and the start's LU factor was singular
        (lambda b: b["mesh"].update(L=1e-160),
         "config error: mesh.L: L must be between"),
    ])
    def test_exit_2_not_traceback(self, tmp_path, capsys, edit, message):
        body = annulus_cfg(str(tmp_path / "o"), n=8)
        edit(body)
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["capacity", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("s,message", [
        # this config used to exit 2 with "field has () values": its
        # diverged field carried no iterate
        (2.8e16, "solver diverged: residual "),
        # the gradients' squares overflow, so the start residual is NaN
        (1e62, "solver diverged: the start residual is not finite (nan)"),
    ])
    def test_tiny_square_huge_s_exit_3(self, tmp_path, capsys, recwarn, s,
                                       message):
        length = 2.2e-93
        body = annulus_cfg(str(tmp_path / "o"), n=4)
        body["mesh"]["L"] = length
        body["s"] = s
        for key in ("E", "F"):
            body[key]["disk"] = {k: v * length
                                 for k, v in body[key]["disk"].items()}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["capacity", cfg]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert json.loads(captured.out)["flags"]["converged"] is False
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        # the diverged run still leaves its ledger line
        lines = (tmp_path / "o" / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        results = json.loads(lines[0])["results"]
        assert results["converged"] is False
        assert message.removeprefix("solver diverged: ") in results["diverged"]
