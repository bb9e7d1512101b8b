"""No certification loads a SciPy module.

That holds for generated curves, for curves read from a CSV file (fitted with
the in-repo spline), and for the converse check. The test session itself
imports SciPy, so each check runs in a fresh interpreter: once watching
``sys.modules``, and once with SciPy blocked, so that any SciPy import would
raise ImportError.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import contractflow

SRC = str(Path(contractflow.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""
    import contextlib
    import io
    import json
    import sys

    import numpy as np

    if sys.argv[1] == "block":
        sys.modules["scipy"] = None  # every SciPy import now raises ImportError

    def scipy_modules():
        return sorted(m for m, mod in sys.modules.items()
                      if mod is not None and (m == "scipy" or m.startswith("scipy.")))

    import contractflow as cf
    from contractflow import cli

    def run_cli(*args):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            try:
                cli.main(list(args))
            except SystemExit as stop:
                return stop.code, printed.getvalue()
        return 0, printed.getvalue()

    assert not scipy_modules(), ("import", scipy_modules())
    code, printed = run_cli("run", "--gen", "circle", "--plan", "endpoint")
    assert code == 0 and '"exit_code": 0' in printed, (code, printed)
    assert not scipy_modules(), ("cli", scipy_modules())
    for gen, plan in (("circle", "exp"), ("segment", "endpoint")):
        report = cli.run_pipeline(cli.PipelineConfig(generator=gen, plan_kind=plan,
                                                     n_samples=200))
        assert report.stages[-1]["name"] == "flow", (gen, plan, report.stages[-1])
        assert not scipy_modules(), (gen, plan, scipy_modules())

    # a sampled curve: the CSV of a generated arc, fitted through its samples
    assert run_cli("gen", "--gen", "circle", "-o", "arc.csv")[0] == 0
    for plan, want in (("endpoint", 0), ("exp", 6), ("zeta", 6)):
        code, _ = run_cli("run", "--input", "arc.csv", "--plan", plan,
                          "--report", f"arc-{plan}.json")
        with open(f"arc-{plan}.json") as fh:
            last = json.load(fh)["stages"][-1]["name"]
        assert (code, last) == (want, "flow"), (plan, code, last)
        assert not scipy_modules(), ("input", plan, scipy_modules())

    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    grad = lambda x: A @ x
    value = lambda x: 0.5 * float(x @ A @ x)
    x0 = np.array([1.0, -0.5])
    cf.trace_energy(cf.integrate(grad, x0, 2.0, 1e-2), value)
    cf.trace_energy(cf.sample_flow(grad, x0, np.linspace(0.0, 2.0, 201)), value)
    assert not scipy_modules(), ("flows", scipy_modules())
    report = cf.check_flow_self_contracted(grad, x0, 2.0)
    assert report.level.value == "uniformly_strongly", report.level
    assert not scipy_modules(), ("converse", scipy_modules())

    cf.from_samples(np.column_stack([np.cos(np.linspace(0.0, 1.0, 20)),
                                     np.sin(np.linspace(0.0, 1.0, 20))]), 50)
    assert not scipy_modules(), ("from_samples", scipy_modules())
""")


def _run(mode: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", SCRIPT, mode], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_generated_curve_certification_loads_no_scipy(tmp_path):
    # and neither does a sampled curve's, nor the converse check
    out = _run("watch", tmp_path)
    assert out.returncode == 0, out.stderr


def test_certifications_run_with_scipy_blocked(tmp_path):
    out = _run("block", tmp_path)
    assert out.returncode == 0, out.stderr
