import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from contractflow import contract, extend, flow, repar
from contractflow.cli import _jsonable, main


@pytest.fixture
def runner():
    return CliRunner()


class TestRun:
    def test_segment_passes(self, runner):
        res = runner.invoke(main, ["run", "--gen", "segment", "--plan", "exp"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["passed"] is True
        flow_stage = [s for s in doc["stages"] if s["name"] == "flow"][0]
        assert flow_stage["data"]["sup_distance"] <= 5e-2
        assert [s["name"] for s in doc["stages"]] == [
            "curve", "contract", "repar", "extend", "flow"]

    def test_subcritical_spiral_exits_3(self, runner):
        res = runner.invoke(main, ["run", "--gen", "spiral", "--lambda", "0.1",
                                   "--tmax", "12.566", "--n", "300",
                                   "--n-triples", "20000"])
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["stages"][-1]["name"] == "contract"
        assert doc["stages"][-1]["data"]["level"] == "not_self_contracted"

    def test_horizon_overflow_fails_repar_with_exit_4(self, runner):
        # the default spiral certifies b ~ 2.6e7, so theta(t_{N-2}) overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["run", "--gen", "spiral"])
            rt = runner.invoke(main, ["roundtrip", "--gen", "spiral"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert res.exit_code == 4, res.output
        doc = json.loads(res.output)
        assert [s["name"] for s in doc["stages"]][-1] == "repar"
        assert doc["stages"][-1]["passed"] is False
        assert "overflows" in doc["stages"][-1]["data"]["error"]
        assert rt.exit_code == 4
        assert "overflows" in rt.output and "Traceback" not in rt.output

    def test_bad_alpha_exits_2(self, runner):
        res = runner.invoke(main, ["run", "--alpha", "0.4", "--gen", "segment"])
        assert res.exit_code == 2

    def test_missing_curve_source_exits_2(self, runner):
        res = runner.invoke(main, ["run"])
        assert res.exit_code == 2

    def test_deterministic_reports(self, runner):
        args = ["run", "--gen", "segment", "--n", "100", "--seed", "7",
                "--n-triples", "5000"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_text_format_lists_stages_in_order(self, runner):
        res = runner.invoke(main, ["run", "--gen", "segment", "--n", "100",
                                   "--format", "text", "--n-triples", "2000"])
        assert res.exit_code == 0
        lines = [ln for ln in res.output.splitlines() if ln.startswith("[")]
        names = [ln.split("]")[0][1:] for ln in lines]
        assert names == ["curve", "contract", "repar", "extend", "flow"]

    def test_json_roundtrips_through_parse(self, runner):
        res = runner.invoke(main, ["run", "--gen", "segment", "--n", "100",
                                   "--n-triples", "2000"])
        doc = json.loads(res.output)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        assert doc["schema_version"] == 1

    def test_report_file(self, runner, tmp_path):
        path = tmp_path / "report.json"
        res = runner.invoke(main, ["run", "--gen", "segment", "--n", "100",
                                   "--n-triples", "2000",
                                   "--report", str(path)])
        assert res.exit_code == 0
        assert json.loads(path.read_text())["passed"] is True


class TestGenCheck:
    def test_gen_and_check(self, runner, tmp_path):
        csv = tmp_path / "spiral.csv"
        res = runner.invoke(main, ["gen", "--gen", "spiral", "--lambda", "0.5",
                                   "--n", "150", "-o", str(csv)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["check", "--input", str(csv),
                                   "--level", "strongly",
                                   "--n-triples", "5000"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["level"] == "uniformly_strongly"

    def test_check_level_not_met(self, runner):
        res = runner.invoke(main, ["check", "--gen", "spiral", "--lambda", "0.1",
                                   "--n", "200", "--level", "strongly",
                                   "--n-triples", "5000"])
        assert res.exit_code == 3

    def test_gen_json_form(self, runner, tmp_path):
        js = tmp_path / "c.json"
        runner.invoke(main, ["gen", "--gen", "circle", "--n", "60", "-o", str(js)])
        doc = json.loads(js.read_text())
        assert doc["dim"] == 2
        assert doc["L"] == pytest.approx(np.pi / 2)

    def test_gen_json_name_round_trips_through_check(self, runner, tmp_path):
        js = tmp_path / "c.json"
        res = runner.invoke(main, ["gen", "--gen", "circle", "--n", "50", "-o", str(js)])
        assert res.exit_code == 0, res.output
        assert json.loads(js.read_text())["dim"] == 2
        res = runner.invoke(main, ["check", "--input", str(js), "--n-triples", "5000"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["level"] == "uniformly_strongly"

    def test_missing_output_dir_surfaced(self, runner, tmp_path):
        bad = tmp_path / "missing" / "out.csv"
        res = runner.invoke(main, ["gen", "--gen", "segment", "-o", str(bad)])
        assert res.exit_code == 2
        assert "missing" in res.output


class TestPlanCommands:
    def test_build_m_constants(self, runner):
        res = runner.invoke(main, ["build-m", "--gen", "circle", "--n", "100",
                                   "--kind", "endpoint"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["kind"] == "endpoint"
        assert doc["T"] is None  # +inf serialized as null
        assert doc["b"] == pytest.approx(1.0908, abs=1e-3)

    def test_verify_m_pass_and_fail(self, runner):
        ok = runner.invoke(main, ["verify-m", "--gen", "circle", "--n", "100"])
        assert ok.exit_code == 0
        bad = runner.invoke(main, ["verify-m", "--gen", "circle", "--n", "100",
                                   "--b", "0.01"])
        assert bad.exit_code == 4
        doc = json.loads(bad.output)
        assert doc["holds"] is False
        assert len(doc["worst_pair"]) == 4

    def test_verify_m_subcritical_spiral_exits_3(self, runner):
        res = runner.invoke(main, ["verify-m", "--gen", "spiral",
                                   "--lambda", "0.1", "--n", "200"])
        assert res.exit_code == 3


class TestExtensionCommands:
    def test_extend_eval_flow_chain(self, runner, tmp_path):
        ext_path = tmp_path / "ext.json"
        res = runner.invoke(main, ["extend", "--gen", "segment", "--n", "81",
                                   "-o", str(ext_path)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["eval", "--extension", str(ext_path),
                                   "--at", "0.5,0.0"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        # smoothing lifts the envelope by at most eps log N above the jet value
        assert doc["f"] == pytest.approx(np.exp(-0.5) - np.exp(-1.0), abs=5e-3)
        traj_path = tmp_path / "traj.csv"
        res = runner.invoke(main, ["flow", "--extension", str(ext_path),
                                   "--x0", "0,0", "--t-end", "1.0",
                                   "--dt", "0.01", "-o", str(traj_path)])
        assert res.exit_code == 0
        header = traj_path.read_text().splitlines()[0]
        assert header == "s,x1,x2,speed"

    def test_eval_dimension_mismatch(self, runner, tmp_path):
        ext_path = tmp_path / "ext.json"
        runner.invoke(main, ["extend", "--gen", "segment", "--n", "50",
                             "-o", str(ext_path)])
        res = runner.invoke(main, ["eval", "--extension", str(ext_path),
                                   "--at", "0.5"])
        assert res.exit_code == 2

    def test_flow_requires_smoothing(self, runner, tmp_path):
        ext_path = tmp_path / "ext.json"
        runner.invoke(main, ["extend", "--gen", "segment", "--n", "50",
                             "--eps", "0.0", "-o", str(ext_path)])
        res = runner.invoke(main, ["flow", "--extension", str(ext_path),
                                   "--x0", "0,0", "--t-end", "1.0",
                                   "--dt", "0.01", "-o", str(tmp_path / "t.csv")])
        assert res.exit_code == 2

    def test_roundtrip_condition_M_failure_exits_4(self, runner):
        # roundtrip runs run's stages, so the (M) gate stops it before (C)
        args = ["--gen", "circle", "--b", "0.05"]
        res = runner.invoke(main, ["roundtrip"] + args)
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)  # nothing escaped
        assert len(res.output.strip().splitlines()) == 1
        assert "(M)-inequality fails" in res.output
        assert runner.invoke(main, ["run"] + args).exit_code == res.exit_code

    def test_roundtrip_command(self, runner):
        res = runner.invoke(main, ["roundtrip", "--gen", "segment", "--n", "100"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["sup_distance"] <= 5e-2
        assert set(doc) == {"sup_distance", "terminal_distance", "hausdorff"}


HALF_CIRCLE = ["--gen", "circle", "--angle", repr(np.pi), "--n", "80"]


class TestStagedProjections:
    """The subcommands run run's stages up to their own and share its exit codes."""

    def test_m_failure_stops_every_later_subcommand(self, runner):
        args = ["--gen", "circle", "--n", "80", "--b", "0.05"]
        codes = {cmd: runner.invoke(main, [cmd] + args).exit_code
                 for cmd in ("build-m", "verify-m", "extend", "roundtrip", "run")}
        assert set(codes.values()) == {4}
        plan = json.loads(runner.invoke(main, ["build-m"] + args).stdout)
        assert plan["b"] == 0.05  # the plan is still printed
        ext = runner.invoke(main, ["extend"] + args)
        assert ext.stdout == ""
        assert ext.stderr.startswith("repar stage failed: the (M)-inequality fails")

    def test_horizon_overflow_fails_plan_commands(self, runner):
        res = runner.invoke(main, ["verify-m", "--gen", "spiral"])
        assert res.exit_code == 4
        doc = json.loads(res.stdout)
        assert doc["holds"] is True and doc["plan"]["T"] is None
        ext = runner.invoke(main, ["extend", "--gen", "spiral"])
        assert ext.exit_code == 4 and "overflows" in ext.stderr

    def test_rate_overflow_fails_repar_with_exit_4(self, runner):
        # c0 ~ 2.8e-4: the certified rate 3 C1' e^(1/c0) does not fit in float64
        args = ["--gen", "circle", "--n", "3", "--angle", "3.140625"]
        res = runner.invoke(main, ["run"] + args)
        assert res.exit_code == 4 and isinstance(res.exception, SystemExit)
        stage = json.loads(res.stdout)["stages"][-1]
        assert stage["name"] == "repar" and "exponential rate b" in stage["data"]["error"]
        bm = runner.invoke(main, ["build-m"] + args)
        assert bm.exit_code == 4
        assert bm.stderr.startswith("repar stage failed: exponential rate b")

    def test_rate_override_still_gates_on_classify(self, runner):
        # the half circle's start tangent is orthogonal to its last chord: c0 = 0
        for cmd in ("build-m", "verify-m", "extend", "roundtrip"):
            res = runner.invoke(main, [cmd] + HALF_CIRCLE + ["--b", "3"])
            assert res.exit_code == 3, cmd
            assert res.stderr == ("contract stage failed: the curve is "
                                  "self_contracted, not uniformly_strongly\n")
        res = runner.invoke(main, ["check"] + HALF_CIRCLE + ["--n-triples", "500",
                                                             "--level", "self_contracted"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["level"] == "self_contracted"

    def test_flow_blow_up_fails_flow_stage(self, runner):
        args = ["--gen", "circle", "--angle", "2.5", "--n", "80"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = runner.invoke(main, ["run"] + args + ["--n-triples", "500"])
            rt = runner.invoke(main, ["roundtrip"] + args)
        assert res.exit_code == 6
        doc = json.loads(res.stdout)
        assert doc["stages"][-1]["name"] == "flow"
        assert "state norm" in doc["stages"][-1]["data"]["error"]
        assert rt.exit_code == 6 and isinstance(rt.exception, SystemExit)
        assert rt.stderr.strip().splitlines()[-1].startswith("flow stage failed:")

    def test_flow_blow_up_leaks_no_warning(self, runner, monkeypatch):
        calls = []

        def counted(ext, x):
            calls.append(1)
            return extend.eval_grad(ext, x)

        monkeypatch.setattr(flow, "eval_grad", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = runner.invoke(main, ["roundtrip", "--gen", "circle", "--angle", "2.5"])
        assert res.exit_code == 6 and isinstance(res.exception, SystemExit)
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("flow stage failed: state norm ")
        assert len(calls) <= 5000

    def test_dt_factor_is_not_an_option(self, runner):
        res = runner.invoke(main, ["run", "--gen", "segment", "--dt-factor", "0.01"])
        assert res.exit_code == 2 and "--dt-factor" in res.stderr

    def test_zeta_horizon_at_0999_L_is_tabulated(self, runner):
        # N = 1000 puts t_(N-2) within one grid step of 0.999 L, and N = 1500
        # past it: the flow runs to the tabulated horizon instead of failing
        # on theta_inv
        for n in ("1000", "1500"):
            res = runner.invoke(main, ["run", "--gen", "circle", "--plan", "zeta",
                                       "--n", n, "--n-triples", "500"])
            assert res.exit_code in (0, 6) and isinstance(res.exception, SystemExit)
            flow = json.loads(res.stdout)["stages"][-1]
            assert flow["name"] == "flow" and "error" not in flow["data"], n
            assert np.isfinite(flow["data"]["horizon"])

    def test_unsmoothed_extension_fails_flow_stage(self, runner):
        res = runner.invoke(main, ["run", "--gen", "segment", "--n", "50",
                                   "--n-triples", "500", "--eps", "0"])
        assert res.exit_code == 6
        assert "eps = 0" in json.loads(res.stdout)["stages"][-1]["data"]["error"]


class TestCurveInput:
    @pytest.mark.parametrize("n", ["1", "2"])
    def test_too_few_samples_is_a_config_error(self, runner, n):
        res = runner.invoke(main, ["run", "--gen", "segment", "--n", n])
        assert res.exit_code == 2
        assert res.stderr == "config error: n_samples must be at least 3\n"

    @pytest.mark.parametrize("n_out", ["-1", "0", "1"])
    def test_one_flow_sample_is_a_config_error(self, runner, n_out):
        res = runner.invoke(main, ["run", "--gen", "segment", "--n-out", n_out])
        assert res.exit_code == 2
        assert res.stderr == "config error: n_out must be at least 2\n"

    def test_repeated_parameter_fails_curve_stage(self, runner, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("t,x1,x2,tx1,tx2\n0,0,0,1,0\n0.5,0.5,0,1,0\n"
                       "0.5,0.5,0,1,0\n1,1,0,1,0\n")
        res = runner.invoke(main, ["run", "--input", str(csv)])
        assert res.exit_code == 2
        stage = json.loads(res.stdout)["stages"][-1]
        assert stage["name"] == "curve" and not stage["passed"]
        assert "strictly increasing" in stage["data"]["error"]
        res = runner.invoke(main, ["check", "--input", str(csv)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr == ("curve stage failed: arc-length parameters must "
                              "be strictly increasing\n")

    def test_gen_repeated_parameter_fails_curve_stage(self, runner, tmp_path):
        csv = tmp_path / "dup.csv"
        csv.write_text("t,x1,x2,tx1,tx2\n0,0,0,1,0\n0.5,0.5,0,1,0\n"
                       "0.5,0.5,0,1,0\n1,1,0,1,0\n")
        res = runner.invoke(main, ["gen", "--input", str(csv), "-o",
                                   str(tmp_path / "out.csv")])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr == ("curve stage failed: arc-length parameters must "
                              "be strictly increasing\n")
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_coordinate_fails_curve_stage(self, runner, tmp_path):
        csv = tmp_path / "nan.csv"
        csv.write_text("t,x1,x2,tx1,tx2\n0,0,0,1,0\n0.5,nan,0,1,0\n1,1,0,1,0\n")
        res = runner.invoke(main, ["run", "--input", str(csv)])
        assert res.exit_code == 2
        stage = json.loads(res.stdout)["stages"][-1]
        assert stage["name"] == "curve" and not stage["passed"]
        assert stage["data"]["error"] == "curve file: x is not finite at sample 1"

    _EMPTY = "curve file is empty: it holds no sample rows"
    _COLUMNS = "curve file has {} columns, expected 1 + 2d (t, x_1..x_d, tx_1..tx_d) with d >= 1"

    @pytest.mark.parametrize("text, cause", [
        ("", _EMPTY),
        ("t,x1,tx1\n", _EMPTY),
        ("t,x1\n0,0\n0.5,0.5\n1,1\n", _COLUMNS.format(2)),
        # an even column count is neither read as a 1-D curve with its last
        # column dropped nor rejected for its tangents
        ("t,x1,tx1,x2\n0,0,1,5\n0.5,0.5,1,7\n1,1,1,9\n", _COLUMNS.format(4)),
        ("t,x1,x2,tx1\n0,0,0,1\n0.5,0.5,0,1\n1,1,0,1\n", _COLUMNS.format(4)),
    ], ids=["empty", "header-only", "2-columns", "t,x1,tx1,x2", "t,x1,x2,tx1"])
    def test_malformed_csv_fails_with_its_cause(self, runner, tmp_path, text, cause):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["check", "--input", str(csv)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr == f"curve stage failed: {cause}\n"

    def test_curve_json_without_points_fails_curve_stage(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": [0.0, 1.0, 2.0]}))
        res = runner.invoke(main, ["check", "--input", str(path)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("curve stage failed: malformed curve document")


class TestReportSerialization:
    def test_contract_report(self):
        rep = contract.ContractReport(
            level=contract.ContractLevel.STRONGLY, c0=0.5,
            worst_pair=(0.25, 0.75, np.float64(0.5)), worst_triple=(0.0, 0.5, 1.0, 0.0),
            tol=1e-9)
        assert _jsonable(rep) == {"level": "strongly", "c0": 0.5,
                                  "worst_pair": [0.25, 0.75, 0.5],
                                  "worst_triple": [0.0, 0.5, 1.0, 0.0], "tol": 1e-9}

    def test_plan_drops_evaluators_and_infinite_T(self):
        def ev(t, *rest, out=None):
            return t
        plan = repar.ReparamPlan(kind="endpoint", b=1.0, c0=0.9, c1=None, L=1.0,
                                 T=math.inf, m=ev, inv_m=ev, inv_m_integral=ev,
                                 lhs_M=ev, theta=ev, theta_inv=ev)
        doc = _jsonable(plan)
        assert doc == {"kind": "endpoint", "b": 1.0, "c0": 0.9, "c1": None,
                       "L": 1.0, "T": None}
        assert json.loads(json.dumps(doc)) == doc

    def test_cw1_report_without_witness(self):
        rep = extend.ConditionCW1Report(passed=True, n_equality_pairs=0, witness=None)
        assert _jsonable(rep) == {"passed": True, "n_equality_pairs": 0,
                                  "witness": None}

    _KEYS = {
        "curve": {"dim", "length", "n_samples", "source"},
        "contract": {"c0", "level", "tol", "worst_pair", "worst_triple"},
        "repar": {"holds", "kind", "margin", "worst_pair"},
        "extend": {"condition_C", "condition_CW1"},
        "flow": {"eps", "final_speed", "grad_evals", "hausdorff", "horizon",
                 "sup_distance", "terminal_distance"},
    }

    @pytest.mark.parametrize("args, code, last", [
        (["--gen", "segment"], 0, "flow"),
        (["--gen", "circle", "--b", "0.05"], 4, "repar"),
        (["--gen", "circle", "--n", "1000"], 5, "extend"),
    ])
    def test_stage_data_keys(self, runner, args, code, last):
        res = runner.invoke(main, ["run", *args])
        assert res.exit_code == code, res.output
        doc = json.loads(res.stdout)
        assert set(doc) == {"schema_version", "config", "constants", "stages",
                            "passed", "exit_code"}
        assert doc["stages"][-1]["name"] == last
        for stage in doc["stages"]:
            data = stage["data"]
            assert set(data) == self._KEYS[stage["name"]], stage["name"]
            if stage["name"] == "extend":
                assert set(data["condition_C"]) == {
                    "passed", "min_slack", "step1_min", "step2_min", "witness", "scale"}
                assert set(data["condition_CW1"]) == {"passed", "n_equality_pairs",
                                                      "witness"}


@pytest.fixture
def segment_ext(runner, tmp_path):
    path = tmp_path / "ext.json"
    res = runner.invoke(main, ["extend", "--gen", "segment", "--n", "50",
                               "-o", str(path)])
    assert res.exit_code == 0
    return path


def _flow(runner, ext, *args):
    return runner.invoke(main, ["flow", "--extension", str(ext), *args,
                                "-o", str(ext.with_suffix(".csv"))])


# one affine piece f(x) = -x_1
RAMP = {"anchors": [[0.0, 0.0]], "values": [0.0], "gradients": [[-1.0, 0.0]], "eps": 0.1}


class TestOutsideInput:
    @pytest.mark.parametrize("t_end,dt", [("1", "nan"), ("inf", "inf"), ("1", "0"),
                                          ("nan", "0.1"), ("-1", "0.1")])
    def test_flow_bad_times_exit_2(self, runner, segment_ext, t_end, dt):
        res = _flow(runner, segment_ext, "--x0", "0,0", "--t-end", t_end, "--dt", dt)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert res.stderr == "flow failed: dt and t_end must be positive and finite\n"

    @pytest.mark.parametrize("x0", ["a,b", "0", "0,0,0", "nan,0"])
    def test_flow_bad_start_exits_2(self, runner, segment_ext, x0):
        res = _flow(runner, segment_ext, "--x0", x0, "--t-end", "1", "--dt", "0.1")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert len(res.output.strip().splitlines()) == 1

    def test_flow_blow_up_exits_6(self, runner, tmp_path):
        # one affine piece f(x) = -x_1: the flow runs off at unit speed
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(RAMP))
        res = _flow(runner, path, "--x0", "0,0", "--t-end", "1e7", "--dt", "1e5")
        assert res.exit_code == 6
        assert res.stderr.startswith("flow failed: state norm")

    @pytest.mark.parametrize("doc", [{"values": [0.0]}, [1, 2],
                                     {"anchors": [0.0], "values": [0.0],
                                      "gradients": [0.0], "eps": 0.1},
                                     dict(RAMP, values=[math.nan]),
                                     dict(RAMP, anchors=[[0.0, math.inf]]),
                                     dict(RAMP, gradients=[[-math.inf, 0.0]]),
                                     dict(RAMP, eps=math.inf)])
    def test_malformed_extension_exits_2(self, runner, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for args in (["eval", "--extension", str(path), "--at", "0,0"],
                     ["flow", "--extension", str(path), "--x0", "0,0",
                      "--t-end", "1", "--dt", "0.1", "-o", str(tmp_path / "t.csv")]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
            assert res.stderr.startswith(f"cannot read extension {path}")
            assert len(res.stderr.splitlines()) == 1  # no NumPy warning either


# ---------------------------------------------------------------------------
# fuzz over the staged subcommands

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
STAGES = ["curve", "contract", "repar", "extend", "flow"]
FLOW_METRICS = ("horizon", "eps", "grad_evals", "final_speed", "sup_distance",
                "terminal_distance", "hausdorff")
# the last stage each prefix subcommand runs, and the options it takes
PREFIX_STAGE = {"build-m": "repar", "verify-m": "repar", "extend": "extend"}
PREFIX_OPTIONS = {"build-m": {"--kind", "--alpha", "--b"},
                  "verify-m": {"--kind", "--alpha", "--b"},
                  "extend": {"--kind", "--alpha", "--b", "--eps"}}


def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False).map(repr)


@st.composite
def curve_args(draw):
    gen = draw(st.sampled_from(["segment", "circle", "spiral"]))
    args = ["--gen", gen, "--n", str(draw(st.integers(1, 80)))]
    return args + {"segment": ["--seg-length", draw(_num(0.1, 3.0))],
                   "circle": ["--angle", draw(_num(0.1, 3.5))],
                   "spiral": ["--lambda", draw(_num(0.05, 1.0)),
                              "--tmax", draw(_num(1.0, 15.0))]}[gen]


# options of the later stages take valid values only, so that a prefix
# subcommand, which lacks them, sees the same configuration errors as run
OPTION_VALUES = {"--kind": st.sampled_from(["exp", "endpoint", "zeta"]),
                 "--alpha": st.sampled_from(["0.4", "0.75", "1.0"]),
                 "--b": _num(0.01, 30.0),
                 "--eps": st.sampled_from(["0", "1e-4", "1e-2"]),
                 "--n-out": st.integers(2, 100).map(str)}
pipeline_options = st.sets(st.sampled_from(sorted(OPTION_VALUES)), max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({k: OPTION_VALUES[k] for k in keys}))


def _flags(options, names=None):
    return [a for k, v in sorted(options.items()) if names is None or k in names
            for a in (k, v)]


def _invoke(runner, args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = runner.invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, res.exception)
    assert res.exit_code in DOCUMENTED_EXITS, (args, res.output)
    return res


@given(curve=curve_args(), options=pipeline_options,
       prefix=st.sampled_from(sorted(PREFIX_STAGE)), n_triples=st.integers(1, 2000))
@settings(max_examples=25, deadline=None)
@example(curve=["--gen", "circle", "--n", "3", "--angle", "3.140625"], options={},
         prefix="build-m", n_triples=1000)
def test_staged_subcommands_fuzz(curve, options, prefix, n_triples):
    runner = CliRunner()
    args = curve + _flags(options)
    run_res = _invoke(runner, ["run"] + args)
    assert _invoke(runner, ["roundtrip"] + args).exit_code == run_res.exit_code
    # a prefix subcommand fails where run fails, or passes all of its stages
    expect = run_res.exit_code
    if run_res.stdout:  # empty on a config error
        doc = json.loads(run_res.stdout)
        if doc["passed"]:
            flow_data = doc["stages"][-1]["data"]
            assert all(flow_data[k] is not None for k in FLOW_METRICS), flow_data
        if len(doc["stages"]) - 1 > STAGES.index(PREFIX_STAGE[prefix]):
            expect = 0
    prefix_args = curve + _flags(options, PREFIX_OPTIONS[prefix])
    assert _invoke(runner, [prefix] + prefix_args).exit_code == expect
    _invoke(runner, ["check"] + curve + ["--n-triples", str(n_triples)])
