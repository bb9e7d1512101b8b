"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from contractflow import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def mini_ops(tmp_path):
    """A few cheap ops that reach every layer the tracer wraps."""
    csv = tmp_path / "arc.csv"
    workloads.write_sampled_arc(csv, 1.2, 1.7, 0.4, n=150)
    sampled = {"id": "sampled", "kind": "certify",
               "config": {"input_path": str(csv), "plan_kind": "endpoint"},
               "ref": {"shape": "arc", "angle": 1.2, "length": 1.7 * 1.2}}
    return [workloads.arc_op("arc", 1.4, 0.8, 120, "exp"),
            workloads.segment_op("segment", 1.3, 120, "endpoint"),
            sampled, workloads.bowl_flow()]


def certify_doc(op):
    return json.loads(gate.execute(op))


def test_gate_accepts_correct_reports(tmp_path):
    for op in mini_ops(tmp_path):
        rec = gate.run_op(op)
        assert not rec["failed"], rec["problems"]


def test_gate_rejects_planted_wrong_c0():
    op = workloads.arc_op("arc", 1.2, 1.5, 100, "exp")
    doc = certify_doc(op)
    assert gate.check_certify(doc, op["ref"]) == []
    bad = copy.deepcopy(doc)
    bad["constants"]["c0"] *= 1.0 + 1e-6
    assert any("c0" in p for p in gate.check_certify(bad, op["ref"]))
    wrong_ref = dict(op["ref"], angle=op["ref"]["angle"] * 1.001)
    assert any("c0" in p for p in gate.check_certify(doc, wrong_ref))


@pytest.mark.parametrize("code", [1, 7, None])
def test_gate_rejects_undocumented_exit_code(code):
    op = workloads.segment_op("segment", 1.0, 100, "exp")
    doc = certify_doc(op)
    doc["exit_code"] = code
    assert any("undocumented exit code" in p for p in gate.check_certify(doc, op["ref"]))


def test_gate_rejects_non_finite_flow_metric_in_pass():
    op = workloads.segment_op("segment", 1.0, 100, "exp")
    doc = certify_doc(op)
    assert doc["exit_code"] == 0
    for st in doc["stages"]:
        if st["name"] == "flow":
            st["data"]["sup_distance"] = None  # how the report renders NaN and inf
    assert any("non-finite" in p for p in gate.check_certify(doc, op["ref"]))


def test_gate_rejects_injected_exception(monkeypatch):
    def boom(cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    rec = gate.run_op(workloads.segment_op("segment", 1.0, 100, "exp"))
    assert rec["failed"] and rec["verdict"] == "FAIL"
    assert "injected" in rec["problems"][0]


def test_gate_converse_checks():
    ok = {"level": "uniformly_strongly", "energy_residual": 0.0}
    miss = dict(ok, energy_residual=2e-6)
    assert gate.check_converse(ok) == [] and gate.converse_passes(ok)
    assert gate.check_converse(miss) == [] and not gate.converse_passes(miss)
    assert gate.check_converse(dict(ok, level="strongly"))
    assert gate.check_converse(dict(ok, energy_residual=math.nan))


def attributes():
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, *_ in tracer.targets()}


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = attributes()
    with tracer.Tracer() as tr:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
        gate.run_op(mini_ops(tmp_path)[0], tr)
    assert attributes() == before
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("inside")
    after = attributes()
    assert all(after[key] is fn for key, fn in before.items())


def traced_counts(ops):
    with tracer.Tracer() as tr:
        records = run.run_pass(ops, tr)
    assert not any(r["failed"] for r in records)
    return tracer.layer_metrics(tr, 1, 0.0), tr


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    ops = mini_ops(tmp_path)
    first, tr = traced_counts(ops)
    second, _ = traced_counts(ops)
    for name in ("scan.pairs", "flow.grad_evals", "numint.simpson_calls",
                 "extend.check_C_calls_per_op"):
        assert first[name][0] > 0, name
        assert first[name] == second[name], name
    # spans carry op ids and parents that point at recorded spans
    ids = {s["id"] for s in tr.span_records()}
    assert all(s["parent"] in ids for s in tr.span_records() if s["parent"] is not None)
    assert {s["op"] for s in tr.span_records()} == {op["id"] for op in ops}


def test_metric_names_match_benchmark_json(tmp_path):
    ops = mini_ops(tmp_path)
    records = run.measure(lambda k: gate.run_op(ops[k % len(ops)]), len(ops), 0.0)
    assert [r["op"] for r in records] == [op["id"] for op in ops]
    e2e = run.end_to_end([[r] for r in records], 1.0)
    layer, _ = traced_counts(ops)
    for printed, spec in ((e2e, SPEC["end_to_end"]), (layer, SPEC["per_layer"])):
        assert {k: u for k, (_, u) in printed.items()} == {m["name"]: m["unit"] for m in spec}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_printed_result_matches_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 80
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7, tmp_path)
        assert workloads.build(name, 7, tmp_path) == first
        assert workloads.build(name, 8, tmp_path) != first


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
