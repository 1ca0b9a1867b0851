import json
import os
import subprocess
import sys

import pytest

from f4workbench.cli import (Config, GOLDENS, Report, SUITES, emit_golden,
                             main, run_suite, suite_model)


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.dimension_cap == 512
        assert cfg.degree_cap == 4
        assert cfg.parallelism == 1

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Config(dimension_cap=0)

    def test_load_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 7, "parallelism": 1}))
        cfg = Config.load(str(p))
        assert cfg.seed == 7 and cfg.parallelism == 1

    def test_load_toml_subset(self, tmp_path):
        p = tmp_path / "cfg.toml"
        p.write_text("seed = 11\ndimension_cap = 256\n# comment\n")
        cfg = Config.load(str(p))
        assert cfg.seed == 11 and cfg.dimension_cap == 256


class TestSuites:
    def test_model_suite_passes(self):
        rep = suite_model(Config())
        assert rep.ok
        assert all("id" in c and "status" in c for c in rep.checks)

    def test_transversality_suite(self):
        rep = run_suite("transversality", Config())
        assert rep.ok
        d = rep.as_dict()
        assert d["summary"]["fail"] == 0
        assert d["seed"] == Config().seed

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nonsense", Config())

    def test_parallelism_rejected(self, tmp_path, capsys):
        # the checks of a suite share state, so they only run in order
        assert main(["verify", "transversality", "--parallelism", "2"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parallelism": 2}))
        assert main(["verify", "transversality", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_wall_time_includes_setup(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["verify", "model", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["wall_time_seconds"] > 0
        capsys.readouterr()

    def test_failed_check_records_witness(self):
        from f4workbench.cli import _run_checks
        rep = _run_checks("demo", Config(), [
            ("passes", lambda: (True, None)),
            ("fails", lambda: (False, "because")),
            ("crashes", lambda: 1 / 0),
        ])
        assert not rep.ok
        by_id = {c["id"]: c for c in rep.checks}
        assert by_id["fails"]["witness"] == "because"
        assert "ZeroDivisionError" in by_id["crashes"]["witness"]


class TestExitCodes:
    def test_usage_error(self):
        assert main(["verify", "nosuch"]) == 2
        assert main([]) == 2

    def test_io_error(self, tmp_path):
        missing = str(tmp_path / "none.json")
        assert main(["balg", "check-b", "--input", missing]) == 3

    def test_matrix_command(self, capsys):
        assert main(["combin", "matrix", "--T", "2", "--n", "0", "--m", "2",
                     "--reduced"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L"] == [1] and out["R"] == [0]

    def test_rootdata_dump(self, capsys):
        assert main(["rootdata", "dump", "f4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["positives"]) == 24
        assert out["simple_k_type"] == "B4"
        assert out["p_minus_type"] == "B3"

    def test_check_b_pass_and_fail(self, tmp_path, capsys, me, omega_report):
        good = tmp_path / "om.json"
        good.write_text(json.dumps(omega_report.omega.serialize(me.g)))
        assert main(["balg", "check-b", "--input", str(good),
                     "--nmax", "3"]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            [[{"exponents": {"E": 1}, "coeff": "1/1 + 0/1*sqrt2"}]]))
        assert main(["balg", "check-b", "--input", str(bad),
                     "--nmax", "2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["balg", "check-b"],
                                         ["combin", "assemble"]])
    @pytest.mark.parametrize("text", [
        "[[{\"exponents\": {}, ",                                  # JSON
        '[[{"exponents": {"NoSuchLabel": 1}, "coeff": "1/1 + 0/1*sqrt2"}]]',
        '[[{"exponents": {"E": 1}, "coeff": "one"}]]',
    ], ids=["malformed-json", "unknown-label", "bad-coefficient"])
    def test_bad_input(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main(command + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad input %s: " % path)
        assert err.count("\n") == 1


    @pytest.mark.parametrize("command", [["balg", "check-b"],
                                         ["combin", "assemble"]])
    def test_bad_file_exits_before_model_build(self, tmp_path, command):
        # a fresh interpreter, so the model cache starts empty
        bad = tmp_path / "bad.json"
        bad.write_text("[[{")
        script = (
            "import sys\n"
            "from f4workbench.cli import main\n"
            "from f4workbench.uea import model_engine\n"
            "cmd = %r\n"
            "codes = [main(cmd + ['--input', p]) for p in sys.argv[1:]]\n"
            "print(codes, model_engine.cache_info().currsize)\n" % command)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "none.json"),
             str(bad)], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split("\n")[-2] == "[3, 2] 0"


class TestGolden:
    def test_targets_exist(self):
        assert set(GOLDENS) == {"structure-constants", "rootdata", "omega"}

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        emit_golden("rootdata", str(a))
        emit_golden("rootdata", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_committed_files_current(self):
        # the files in goldens/ regenerate byte-identically
        base = os.path.join(os.path.dirname(__file__), "..", "goldens")
        for target, fname in (("structure-constants",
                               "f4_structure_constants.json"),
                              ("rootdata", "f4_rootdata.json"),
                              ("omega", "omega.json")):
            path = os.path.join(base, fname)
            with open(path) as fh:
                expected = fh.read()
            assert GOLDENS[target]() + "\n" == expected

    def test_rootdata_lists_48_roots(self):
        data = json.loads(GOLDENS["rootdata"]())
        assert len(data["delta_k"]) + len(data["delta_p"]) == 48

    def test_omega_golden_shape(self, me):
        data = json.loads(GOLDENS["omega"]())
        assert len(data["coefficients"]) == 3   # polynomial degree 2
        assert data["coefficients"][2] == [
            {"coeff": "1/1 + 0/1*sqrt2", "exponents": {}}]
