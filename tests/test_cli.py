import json
import os

import pytest

from moncap.cli import main
from moncap.reporting import config_hash


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


class TestBadConfig:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["meshh"] = {"N": 8}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_bad_flux_kind_exit_2(self, tmp_path, capsys):
        body = strip_cfg(str(tmp_path / "out"))
        body["flux"] = {"kind": "q_laplacian", "p": 2.0}
        cfg = write_cfg(tmp_path / "cfg.json", body)
        assert main(["capacity", cfg]) == 2

    @pytest.mark.parametrize("block,key", [("solver", "inner_tol"),
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

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["capacity", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["capacity", str(bad)]) == 2


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


class TestCheckFluxCommand:
    def test_good_flux_exit_zero(self, tmp_path, capsys):
        body = {"flux": {"kind": "p_laplacian", "p": 3.0},
                "check": {"n_samples": 500},
                "output_dir": str(tmp_path / "out")}
        cfg = write_cfg(tmp_path / "c.json", body)
        assert main(["check-flux", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_passed"] is True

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

    def test_missing_args_exit_2(self, capsys):
        assert main(["oracle", "radial", "--p", "2"]) == 2


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
