import gc
import json
import os
import subprocess
import sys
import types
import warnings
from dataclasses import fields

import pytest

from f4workbench.cli import (Config, ELEMENT_SHAPE, GOLDENS, SUITES,
                             emit_golden, main, run_suite, suite_model)
from f4workbench.reporting import Report


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.dimension_cap == 512
        assert cfg.parallelism == 1
        assert [f.name for f in fields(Config)] == [
            "dimension_cap", "nmax", "seed", "parallelism"]

    def test_degree_cap_key_exits_2_naming_it(self, tmp_path, capsys):
        # omega's degree bound is the paper's 4, not a setting
        cfg = tmp_path / "cap.toml"
        cfg.write_text("degree_cap = 4\n")
        assert main(["verify", "omega", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: unknown key degree_cap in %s\n" \
            % cfg

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

    @pytest.mark.parametrize("name, text", [
        ("cfg.toml", "seed = 11\n"), ("cfg.json", '{"seed": 11}'),
    ], ids=["toml", "json"])
    def test_load_closes_the_file(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = Config.load(str(p))
            gc.collect()
        assert cfg.seed == 11
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("text", [
        "seed = true\n", 'seed = "7"\n', "[section]\nseed = 5\n",
        "seed = 1\nseed = 2\n", 'seed = 1\n"seed" = 2\n',
    ], ids=["bool", "string", "table", "repeated-key", "repeated-quoted-key"])
    def test_toml_rejects_bool_string_table_and_repeated_key(self, tmp_path,
                                                             text):
        p = tmp_path / "cfg.toml"
        p.write_text(text)
        with pytest.raises(ValueError):
            Config.load(str(p))

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"dimension_cap": "big"}', '{"degree_cpa": 9}',
        '{"seed": true}', '{"nmax": -3}', '{"nmax": 0}',
    ], ids=["list", "string-value", "unknown-key", "bool-value",
            "negative-nmax", "zero-nmax"])
    def test_bad_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["verify", "transversality", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("seed", [20240801, 7])
    def test_verify_all_records(self, seed):
        # the ordered ids of verify all, pinned so a change that adds,
        # drops, renames or reorders a record shows here
        path = os.path.join(os.path.dirname(__file__), "verify_all_ids.json")
        with open(path) as f:
            want = json.load(f)
        rep = run_suite("all", Config(seed=seed))
        assert [c["id"] for c in rep.checks] == want
        assert [c["id"] for c in rep.checks if c["status"] != "pass"] == []

    def test_assembled_pairs_have_nonzero_sums(self, monkeypatch):
        # a pair whose direct or typed sum is empty before the reduction
        # vanishes on any input, so its record tests nothing
        from f4workbench import combin
        from f4workbench.balg import antisymmetric_pair
        calls = []
        real = combin.assemble_system

        def recording(me, b, T, pairs, **kw):
            calls.append((me, b, T, pairs))
            return real(me, b, T, pairs, **kw)

        monkeypatch.setattr(combin, "assemble_system", recording)
        assert run_suite("combin", Config()).ok
        assert calls
        for me, b, T, pairs in calls:
            data = combin.coefficient_data(me, b)
            for l, n in pairs:
                direct = antisymmetric_pair(
                    me, lambda a, c: combin._sigma_direct(
                        me, b, data.m, T, a, c), l, n)
                typed = antisymmetric_pair(
                    me, lambda a, c: combin._sigma_typed(
                        me, data, T, a, c), l, n)
                assert direct and typed, (T, l, n)

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

    def test_report_carries_peak_rss(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["verify", "model", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["peak_rss_mb"] > 0
        capsys.readouterr()

    @pytest.mark.parametrize("platform, maxrss", [("linux", 51200),
                                                  ("darwin", 50 << 20)])
    def test_peak_rss_units(self, monkeypatch, platform, maxrss):
        from f4workbench import reporting

        class FakeResource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(who):
                return types.SimpleNamespace(ru_maxrss=maxrss)

        monkeypatch.setattr(reporting, "resource", FakeResource)
        monkeypatch.setattr(reporting.sys, "platform", platform)
        assert reporting.peak_rss_mb() == 50.0
        assert Report("x").as_dict()["peak_rss_mb"] == 50.0

    def test_peak_rss_omitted_without_resource(self, monkeypatch):
        from f4workbench import reporting
        monkeypatch.setattr(reporting, "resource", None)
        assert "peak_rss_mb" not in Report("x").as_dict()

    @pytest.mark.parametrize("suite", sorted(SUITES) + ["all"])
    def test_check_records_carry_seconds(self, suite, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", suite, "--json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        seconds = [c["seconds"] for c in report["checks"]]
        assert seconds and all(s >= 0 for s in seconds)
        assert report["setup_seconds"] >= 0
        # setup and the checks take disjoint slices of the suite's wall
        # time and leave little of it unattributed; the slack covers
        # rounding each figure to 1e-6 s and the total to 1e-3 s
        attributed = report["setup_seconds"] + sum(seconds)
        slack = 5e-4 + 5e-7 * (len(seconds) + 1)
        assert attributed <= report["wall_time_seconds"] + slack
        assert report["wall_time_seconds"] - attributed < 0.05

    def test_verify_all_attributes_setup_from_a_cold_start(self, tmp_path):
        # a fresh interpreter builds the model and engines inside the
        # suites, and that time must land in setup_seconds
        out = tmp_path / "all.json"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        subprocess.run([sys.executable, "-m", "f4workbench", "verify", "all",
                        "--json", str(out)], check=True,
                       stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONPATH=src))
        report = json.loads(out.read_text())
        attributed = report["setup_seconds"] + sum(
            c["seconds"] for c in report["checks"])
        assert report["setup_seconds"] > 0.05
        assert abs(report["wall_time_seconds"] - attributed) < 0.05

    def test_verify_all_computes_omega_once(self, me, tmp_path, monkeypatch,
                                           capsys):
        # the omega, balg and combin suites share the report kept on the
        # engine, and none of them may mutate it
        from f4workbench import uea
        built = []
        compute = uea._omega_report

        def counted(engine):
            rep = compute(engine)
            built.append(rep.omega.serialize(engine.g))
            return rep

        monkeypatch.setattr(me, "omega", None)
        monkeypatch.setattr(uea, "_omega_report", counted)
        assert main(["verify", "all", "--json", str(tmp_path / "all.json")]) \
            == 0
        capsys.readouterr()
        assert len(built) == 1
        assert me.omega.omega.serialize(me.g) == built[0]

    def test_battery_charges_the_time_since_the_previous_check(self):
        import time
        rep = Report("demo")
        time.sleep(0.02)
        rep.check("slow", True)
        rep.check("fast", True)
        slow, fast = (c["seconds"] for c in rep.checks)
        assert slow >= 0.02 and 0 <= fast < 0.02

    def test_setup_is_charged_to_no_check(self):
        import time
        rep = Report("demo")
        time.sleep(0.02)
        rep.run([("first", lambda: (True, None))])
        assert rep.setup_seconds >= 0.02
        assert 0 <= rep.checks[0]["seconds"] < 0.02

    def test_failed_check_records_witness(self):
        rep = Report("demo").run([
            ("passes", lambda: (True, None)),
            ("fails", lambda: (False, "because")),
            ("crashes", lambda: 1 / 0),
        ])
        assert not rep.ok
        by_id = {c["id"]: c for c in rep.checks}
        assert by_id["fails"]["witness"] == "because"
        assert "ZeroDivisionError" in by_id["crashes"]["witness"]
        assert "witness" not in by_id["passes"]
        assert rep.details == ["fails: because", by_id["crashes"]["id"]
                               + ": " + by_id["crashes"]["witness"]]


class TestDegreeWitness:
    """A failing "filtration bound on sampled invariants" record names the
    element, its degree and its component labels."""

    @staticmethod
    def _record(monkeypatch, extra_label, at_call):
        """The record when call number at_call of components (0 is the
        unit) reports one more component, labelled extra_label."""
        from f4workbench import repth
        components = repth.DegreeMachine.components
        calls = []

        def padded(self, u):
            out = dict(components(self, u))
            if len(calls) == at_call:
                out[extra_label] = {}
            calls.append(u)
            return out

        monkeypatch.setattr(repth.DegreeMachine, "components", padded)
        rep = run_suite("repth", Config(seed=20240801))
        (record,) = [c for c in rep.checks
                     if c["id"] == "filtration bound on sampled invariants"]
        return record, len(calls)

    def test_sample_over_the_bound(self, monkeypatch):
        record, calls = self._record(monkeypatch, (1, 2), 4)
        assert record["status"] == "fail"
        assert record["witness"] == ("sample 3 has degree 5 > 4; components "
                                     "(0, 0), (0, 2), (1, 2), (2, 0)")
        assert calls == 5

    def test_unit_of_nonzero_degree(self, monkeypatch):
        record, calls = self._record(monkeypatch, (2, 0), 0)
        assert record["status"] == "fail"
        assert record["witness"] == \
            "the unit has degree 2; components (0, 0), (2, 0)"
        assert calls == 1

    def test_passes_unpadded(self, monkeypatch):
        record, calls = self._record(monkeypatch, (1, 2), -1)
        assert record["status"] == "pass"
        assert "witness" not in record


class TestOmegaDegreeCap:
    def test_cap_below_the_degree_fails_naming_it(self, monkeypatch, capsys):
        # pad omega_0's components with (2, 2), of degree 6
        from f4workbench import repth
        components = repth.DegreeMachine.components
        monkeypatch.setattr(repth.DegreeMachine, "components",
                            lambda self, u: {**components(self, u), (2, 2): {}})
        assert main(["verify", "omega"]) == 1
        records = json.loads(capsys.readouterr().out)["checks"]
        (record,) = [c for c in records if c["status"] == "fail"]
        assert record["id"] == "constant coefficient degree at most 4"
        assert record["witness"] == \
            "degree 6 > 4; components (0, 0), (0, 2), (2, 0), (2, 2)"

    def test_default_id_is_unchanged(self):
        rep = run_suite("omega", Config())
        assert "constant coefficient degree at most 4" in [
            c["id"] for c in rep.checks]
        assert rep.ok


class TestOptionPosition:
    """--seed, --json and --config act alike before and after the
    subcommand."""

    @staticmethod
    def argv(where, options):
        command = ["verify", "transversality"]
        return options + command if where == "before" else command + options

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_seed(self, where, capsys):
        assert main(self.argv(where, ["--seed", "5"])) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_json_written(self, where, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.argv(where, ["--json", str(out)])) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_json_unwritable_exits_3(self, where, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.json")
        assert main(self.argv(where, ["--json", out])) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_config_read(self, where, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        assert main(self.argv(where, ["--config", str(cfg)])) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_config_missing_exits_2(self, where, tmp_path, capsys):
        cfg = str(tmp_path / "none.toml")
        assert main(self.argv(where, ["--config", cfg])) == 2
        assert capsys.readouterr().err.startswith("config error: ")


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

    @pytest.mark.parametrize("t, n, m, why", [
        ("9", "0", "1", "T=9 out of range [1, 4]"),
        ("2", "0", "-1", "m=-1 is negative"),
        ("2", "-1", "1", "n=-1 out of range [0, 2]"),
    ], ids=["T-above-range", "negative-m", "negative-n"])
    def test_matrix_out_of_range(self, capsys, t, n, m, why):
        assert main(["combin", "matrix", "--T", t, "--n", n, "--m", m]) == 2
        assert capsys.readouterr().err == "combin matrix: %s\n" % why

    @pytest.mark.parametrize("command, flag", [
        (["combin", "dets", "--kmax", "-3"], "--kmax must be nonnegative, not -3"),
        (["combin", "dets", "--lmax", "-1"], "--lmax must be nonnegative, not -1"),
        (["repth", "verify", "--k", "-1", "--l", "0"],
         "--k must be nonnegative, not -1"),
        (["repth", "verify", "--k", "0", "--l", "-2"],
         "--l must be nonnegative, not -2"),
    ], ids=["kmax", "lmax", "k", "l"])
    def test_negative_count(self, capsys, command, flag):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == flag + "\n"
        assert captured.out == ""

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
        '[[{"exponents": {"E": 1}, "coeff": "1/0 + 0/1*sqrt2"}]]',
    ], ids=["malformed-json", "unknown-label", "bad-coefficient",
            "zero-denominator"])
    def test_bad_input(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main(command + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad input %s: " % path)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["balg", "check-b"],
                                         ["combin", "assemble"]])
    def test_coefficient_outside_uk(self, tmp_path, capsys, command):
        path = tmp_path / "z.json"
        path.write_text(
            '[[{"exponents": {"Z": 1}, "coeff": "1/1 + 0/1*sqrt2"}]]')
        assert main(command + ["--input", str(path)]) == 2
        assert capsys.readouterr().err == \
            "bad input %s: coefficients must lie in U(k)\n" % path

    @pytest.mark.parametrize("command", [["balg", "check-b"],
                                         ["combin", "assemble"]])
    @pytest.mark.parametrize("text", [
        "{}", "[]", "[[]]", "[[], []]", "3", '"omega"', "[1]", "[[1]]",
        '{"coefficients": 3}', '{"coefficients": []}',
        '{"omega": [[{"exponents": {"E": 1}, "coeff": "1/1 + 0/1*sqrt2"}]]}',
        '[{"exponents": {"E": 1}, "coeff": "1/1 + 0/1*sqrt2"}]',
        '[[{"exponents": {"E": 1}}]]',
        '[[{"exponents": ["E"], "coeff": "1/1 + 0/1*sqrt2"}]]',
        '[[{"exponents": {"E": 1.5}, "coeff": "1/1 + 0/1*sqrt2"}]]',
        '[[{"exponents": {"E": 0}, "coeff": "1/1 + 0/1*sqrt2"}]]',
        '[[{"exponents": {"E": true}, "coeff": "1/1 + 0/1*sqrt2"}]]',
        '[[{"exponents": {"E": 1}, "coeff": 1}]]',
    ])
    def test_wrong_shape_names_the_expected_one(self, tmp_path, capsys,
                                                command, text):
        # the empty list and object used to pass as the zero element
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main(command + ["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bad input %s: expected %s\n" % (
            path, ELEMENT_SHAPE)

    @pytest.mark.parametrize("command", [["balg", "check-b"],
                                         ["combin", "assemble"]])
    def test_wrong_shape_exits_before_model_build(self, tmp_path, capsys,
                                                  monkeypatch, command):
        def no_model():
            raise AssertionError("the model was built")

        monkeypatch.setattr("f4workbench.uea.model_engine", no_model)
        path = tmp_path / "in.json"
        path.write_text('{"coefficients": []}')
        assert main(command + ["--input", str(path)]) == 2
        assert capsys.readouterr().err == "bad input %s: expected %s\n" % (
            path, ELEMENT_SHAPE)

    @pytest.mark.parametrize("command, code", [
        (["balg", "check-b", "--nmax", "3"], 0),
        (["combin", "assemble", "--T", "2", "--n", "0"], 0)])
    def test_uea_omega_output_pipes_back(self, tmp_path, capsys, command,
                                         code):
        assert main(["uea", "omega"]) == 0
        path = tmp_path / "omega.json"
        path.write_text(capsys.readouterr().out)
        assert main(command + ["--input", str(path)]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["fail"] == 0 and report["checks"]

    def test_check_b_default_nmax(self, tmp_path, capsys, me, omega_report):
        # without --nmax an element of degree d is checked for n = 1..2d+2
        assert main(["uea", "omega"]) == 0
        om = tmp_path / "omega.json"
        om.write_text(capsys.readouterr().out)
        om2 = tmp_path / "omega2.json"
        omega = omega_report.omega
        om2.write_text(json.dumps(omega.mul(omega, me.g).serialize(me.g)))
        for path, nmax in ((om, 6), (om2, 10)):
            assert main(["balg", "check-b", "--input", str(path)]) == 0
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [c["id"] for c in checks] == ["m-invariance"] + [
                "n=%d" % n for n in range(1, nmax + 1)]

    def test_module_over_the_cap_names_it_in_every_witness(self, capsys):
        assert main(["repth", "verify", "--k", "9", "--l", "9"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        cap_error = ("ValueError: predicted dimension 865980544 exceeds "
                     "the cap 512")
        assert [c["status"] for c in checks] == ["fail"] * 4
        assert checks[0]["witness"] == cap_error
        for c in checks[1:]:
            assert c["witness"] == "module (9,9) was not built: " + cap_error

    def test_dimension_mismatch_fails_the_build_record(self, capsys,
                                                       monkeypatch):
        from f4workbench import repth
        weyl = repth.weyl_dimension
        monkeypatch.setattr(repth, "weyl_dimension",
                            lambda xi, rs=None: weyl(xi, rs) + 1)
        assert main(["repth", "verify", "--k", "1", "--l", "0"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        error = "AssertionError: constructed dimension 16 != predicted 17"
        assert len(checks) == 4
        assert checks[0]["id"] == \
            "module (1,0): dimension matches the product formula"
        assert [c["status"] for c in checks] == ["fail"] * 4
        assert checks[0]["witness"] == error
        for c in checks[1:]:
            assert c["witness"] == "module (1,0) was not built: " + error

    @pytest.mark.parametrize("t, n, why", [
        ("9", "0", "T=9 out of range [2, 8]"),
        ("2", "-1", "(l,n)=(0,-1) has a negative entry"),
        ("1", "0", "diagonal hypothesis fails at T=1: "),
        ("2", "3", "no pair (l,n) with l != n and l + n <= T=2 for n=3"),
    ], ids=["T-above-range", "negative-n", "diagonal-hypothesis",
            "n-above-T"])
    def test_assemble_hypothesis_violated(self, capsys, t, n, why):
        assert main(["combin", "assemble", "--T", t, "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("combin assemble: " + why)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("power, flags, why", [
        (300, [], "monomial of degree 300; "),
        (250, ["--nmax", "8"], "product of degree 256; "),
    ], ids=["E300", "E250-nmax8"])
    def test_check_b_degree_beyond_the_core(self, tmp_path, capsys, power,
                                            flags, why):
        path = tmp_path / "high.json"
        path.write_text(json.dumps([[{"exponents": {"E": power},
                                      "coeff": "1/1 + 0/1*sqrt2"}]]))
        assert main(["balg", "check-b", "--input", str(path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("balg check-b: " + why)
        assert captured.err.count("\n") == 1

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

    def test_no_pair_exits_before_model_build(self):
        # n > T leaves no pair (l, n); a fresh interpreter, so the model
        # cache starts empty
        script = (
            "from f4workbench.cli import main\n"
            "from f4workbench.uea import model_engine\n"
            "code = main(['combin', 'assemble', '--T', '2', '--n', '3'])\n"
            "print(code, model_engine.cache_info().currsize)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "2 0\n"


@pytest.fixture
def member_and_control(tmp_path, me, omega_report):
    """The projected Casimir, and the non-member with 1 added to its Z
    coefficient, written as check-b input files."""
    from f4workbench.exactnum import add
    from f4workbench.uea import IwasawaElement
    om = omega_report.omega
    coeffs = [dict(c) for c in om.coeffs]
    coeffs[1] = add(coeffs[1], me.g.one())
    member, control = tmp_path / "member.json", tmp_path / "control.json"
    member.write_text(json.dumps(om.serialize(me.g)))
    control.write_text(json.dumps(IwasawaElement(coeffs).serialize(me.g)))
    return str(member), str(control)


class TestReportSchema:
    @pytest.mark.parametrize("command", [
        ["verify", "transversality"],
        ["liealg", "verify-model"],
        ["balg", "check-b", "--input", "member", "--nmax", "3"],
        ["balg", "check-b", "--input", "control", "--nmax", "3"],
        ["repth", "verify", "--k", "0", "--l", "0"],
        ["combin", "assemble", "--T", "2", "--n", "0"],
    ], ids=["verify", "verify-model", "check-b-pass", "check-b-fail",
            "repth-verify", "combin-assemble"])
    def test_one_schema(self, command, member_and_control, capsys):
        paths = dict(zip(("member", "control"), member_and_control))
        code = main([paths.get(a, a) for a in command])
        report = json.loads(capsys.readouterr().out)
        # the runs on the model alone build no PBW engine, so report no
        # straightening tables
        engine = command[0] in ("balg", "repth", "combin")
        assert list(report) == ["suite", "seed", "checks", "summary",
                                "setup_seconds", "wall_time_seconds",
                                "peak_rss_mb"] + ["memo_entries"] * engine
        if engine:
            assert type(report["memo_entries"]) is int
            assert report["memo_entries"] >= 0
        assert code == int(report["summary"]["fail"] > 0)
        for c in report["checks"]:
            assert set(c) == ({"id", "status", "seconds"} |
                              ({"witness"} if c["status"] == "fail" else set()))

    def test_residual_witness_names_monomials(self, member_and_control,
                                              capsys):
        _, control = member_and_control
        assert main(["balg", "check-b", "--input", control,
                     "--nmax", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert failed
        for c in failed:
            count, _, shown = c["witness"].partition(" residual monomials, "
                                                     "first ")
            monomials = json.loads(shown)
            assert int(count) >= len(monomials) >= 1
            assert all(set(m) == {"exponents", "coeff"} for m in monomials)

    @pytest.mark.parametrize("args", [
        ["balg", "check-b", "--input", "control", "--nmax", "-1"],
        ["balg", "check-b", "--input", "control", "--nmax", "0"],
        ["verify", "omega", "--config", "negative-nmax"],
    ], ids=["check-b-negative", "check-b-zero", "config"])
    def test_nmax_below_one_exits_2(self, args, member_and_control, tmp_path,
                                    capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nmax": -3}))
        paths = {"control": member_and_control[1],
                 "negative-nmax": str(config)}
        assert main([paths.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: nmax must be at least 1")
        assert captured.err.count("\n") == 1


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
