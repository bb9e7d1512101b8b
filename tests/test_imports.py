"""A certification of a generated curve loads no SciPy module.

The test session itself imports SciPy, so each check runs in a fresh
interpreter.
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
    import sys

    import numpy as np

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import contractflow as cf
    from contractflow import cli

    assert not scipy_modules(), ("import", scipy_modules())
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        try:
            cli.main(["run", "--gen", "circle", "--plan", "endpoint"])
        except SystemExit as stop:
            assert stop.code == 0, ("cli", stop.code)
    assert '"exit_code": 0' in printed.getvalue(), printed.getvalue()
    assert not scipy_modules(), ("cli", scipy_modules())
    for gen, plan in (("circle", "exp"), ("segment", "endpoint")):
        report = cli.run_pipeline(cli.PipelineConfig(generator=gen, plan_kind=plan,
                                                     n_samples=200))
        assert report.stages[-1]["name"] == "flow", (gen, plan, report.stages[-1])
        assert not scipy_modules(), (gen, plan, scipy_modules())

    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    grad = lambda x: A @ x
    value = lambda x: 0.5 * float(x @ A @ x)
    x0 = np.array([1.0, -0.5])
    cf.trace_energy(cf.integrate(grad, x0, 2.0, 1e-2), value)
    cf.trace_energy(cf.sample_flow(grad, x0, np.linspace(0.0, 2.0, 201)), value)
    assert not scipy_modules(), ("flows", scipy_modules())

    cf.from_samples(np.column_stack([np.cos(np.linspace(0.0, 1.0, 20)),
                                     np.sin(np.linspace(0.0, 1.0, 20))]), 50)
    print(" ".join(scipy_modules()))
""")


def test_generated_curve_certification_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # a sampled curve imports the spline only when it is fitted
    assert "scipy.interpolate" in out.stdout.split()
