"""The JSON reports of ``contractflow run`` on a fixed sweep of configurations.

Prints one ``render("json")`` line (sorted keys) per configuration of
``CONFIGS``: the built-in segment, circle and spiral under every plan kind,
circle variants in N, angle, radius, alpha, rate and smoothing, the README
CLI examples, and curve files that the script writes itself (a circle arc and
a spiral as CSV, a coarse arc as JSON, and exact arc samples at warped
arc-length parameters). The reports hold no timings, so two runs of one
source tree, or of two trees that should agree, compare byte for byte:

    PYTHONPATH=src python3 scripts/report_sweep.py > sweep.jsonl

The curve files go to a temporary directory that is the working directory
while the sweep runs, so each report names its file by a fixed relative path.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings

import numpy as np

from contractflow import cli, curve

PLANS = ("exp", "endpoint", "zeta")

# curve files written before the sweep: name -> generator settings
FILES = {
    "arc.csv": dict(generator="circle"),
    "spiral.csv": dict(generator="spiral", lam=0.5, n_samples=400),
    "c.json": dict(generator="circle", n_samples=50),
}
WARPED = "warped-arc.csv"

CONFIGS = (
    [dict(generator=g, plan_kind=p) for g in ("segment", "circle", "spiral") for p in PLANS]
    + [dict(generator="circle", n_samples=n, plan_kind=p) for n in (1000, 1500) for p in PLANS]
    + [dict(generator="circle", angle=a, plan_kind=p) for a in (2.0, 2.5) for p in PLANS]
    + [dict(generator="circle", alpha=0.75, plan_kind=p) for p in PLANS]
    + [dict(generator="circle", radius=2.0, plan_kind=p) for p in PLANS]
    + [dict(generator="circle", n_samples=5000),
       dict(generator="circle", n_samples=5000, plan_kind="endpoint"),
       dict(generator="segment", n_samples=5000),
       dict(generator="circle", radius=2.0, angle=1.5),
       dict(generator="circle", b_override=0.05),
       dict(generator="circle", b_override=0.79),
       dict(generator="segment", b_override=0.79),
       dict(generator="circle", eps=0.0),
       dict(generator="segment", eps=0.0),
       dict(generator="segment", seg_length=2.0, plan_kind="endpoint"),
       dict(generator="spiral", lam=0.1, tmax=12.566)]
    + [dict(input_path=name, plan_kind=p) for name in FILES for p in PLANS]
    + [dict(input_path=WARPED, plan_kind="endpoint")]
)


def write_warped_arc(path, angle=1.2, radius=1.7, warp=0.45, n=1000) -> None:
    """Exact arc samples at the arc-length parameters radius u, with
    u = angle (x + warp sin(2 pi x) / (2 pi)) on a uniform grid of x in [0, 1]."""
    x = np.linspace(0.0, 1.0, n)
    u = angle * (x + warp * np.sin(2.0 * math.pi * x) / (2.0 * math.pi))
    u[0], u[-1] = 0.0, angle
    curve.save_csv(curve.Curve(params=radius * u,
                               points=radius * np.column_stack([np.cos(u), np.sin(u)]),
                               tangents=np.column_stack([-np.sin(u), np.cos(u)])), path)


def write_files() -> None:
    for name, settings in FILES.items():
        crv = cli.build_curve(cli.PipelineConfig(**settings))
        (curve.save_json if name.endswith(".json") else curve.save_csv)(crv, name)
    write_warped_arc(WARPED)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            write_files()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for settings in CONFIGS:
                    print(cli.run_pipeline(cli.PipelineConfig(**settings)).render("json"),
                          flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
