import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from contractflow.cli import main


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

    def test_deterministic_reports(self, runner, monkeypatch):
        args = ["run", "--gen", "segment", "--n", "100", "--seed", "7",
                "--n-triples", "5000"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        monkeypatch.setenv("CONTRACTFLOW_THREADS", "3")
        out3 = runner.invoke(main, args).output
        assert out1 == out3

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
        csv = tmp_path / "c.csv"
        js = tmp_path / "c.json"
        runner.invoke(main, ["gen", "--gen", "circle", "--n", "60",
                             "-o", str(csv), "--json-out", str(js)])
        doc = json.loads(js.read_text())
        assert doc["dim"] == 2
        assert doc["L"] == pytest.approx(np.pi / 2)

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

    def test_roundtrip_condition_C_failure_exits_5(self, runner):
        res = runner.invoke(main, ["roundtrip", "--gen", "circle", "--b", "0.05"])
        assert res.exit_code == 5
        assert isinstance(res.exception, SystemExit)  # no escaped ConditionCFailed
        assert len(res.output.strip().splitlines()) == 1
        assert "condition (C) fails" in res.output

    def test_roundtrip_command(self, runner):
        res = runner.invoke(main, ["roundtrip", "--gen", "segment", "--n", "100"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["sup_distance"] <= 5e-2
        assert set(doc) == {"sup_distance", "terminal_distance", "hausdorff"}
