"""Per-stage wall time and tracemalloc peak of ``contractflow run``.

Runs ``cli.run_pipeline`` at the CLI defaults on the built-in segment, circle
and spiral at N = 200, 1000 and 5000 and times each pipeline stage (curve,
contract, repar, extend, flow) and the steps inside them (classify and its
tangent check, Hoelder seminorm, third-derivative bound, plan, verify_M,
jet, (C), (CW1), build_extension, reparameterize, flow integration,
roundtrip). Wall times are medians over ``--repeats`` untraced runs after one
warm-up run; the peaks come from one more run under tracemalloc, as the
growth of traced memory over the step's start. A step that a configuration
never reaches is absent.

    PYTHONPATH=src python3 scripts/bench_stages.py --out BENCH_x.json --label mine

writes (or adds to) the JSON file ``--out`` under ``runs[label]``, with the
BLAS thread settings and library versions of the run, so that runs of two
source trees or two thread settings sit side by side in one file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from contractflow import cli, contract, curve, extend, flow, repar

CURVES = ("segment", "circle", "spiral")
SIZES = (200, 1000, 5000)
# (module, function, step name); names a source tree lacks are skipped
STEPS = [
    (contract, "classify", "classify"),
    (contract, "check_tangents", "tangent_check"),
    (curve, "holder_seminorm", "holder_seminorm"),
    (curve, "third_deriv_bound", "third_deriv_bound"),
    (repar, "exponential_plan", "plan"),
    (repar, "endpoint_plan", "plan"),
    (repar, "zeta_plan", "plan"),
    (repar, "verify_M", "verify_M"),
    (extend, "curve_jet", "curve_jet"),
    (extend, "check_C", "check_C"),
    (extend, "check_CW1", "check_CW1"),
    (extend, "build_extension", "build_extension"),
    (repar, "reparameterize", "reparameterize"),
    (flow, "sample_flow", "integrate"),
    (flow, "sample_states", "integrate"),
    (flow, "final_speed", "final_speed"),
    (flow, "roundtrip_error", "roundtrip"),
]


class Recorder:
    """Wraps the stages and steps; collects wall time and, when on, traced peaks."""

    def __init__(self):
        self.wall = {}
        self.peak = {}
        self.traced = False
        self._stack = []  # [name, traced bytes at entry, highest traced bytes]

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                return fn(*args, **kwargs)  # a nested call of the same step
            frame = [name, 0, 0]
            if self.traced:
                now, high = tracemalloc.get_traced_memory()
                for outer in self._stack:
                    outer[2] = max(outer[2], high)
                tracemalloc.reset_peak()
                frame[1] = frame[2] = now
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall[name] = self.wall.get(name, 0.0) + time.perf_counter() - start
                self._stack.pop()
                if self.traced:
                    high = max(frame[2], tracemalloc.get_traced_memory()[1])
                    for outer in self._stack:
                        outer[2] = max(outer[2], high)
                    tracemalloc.reset_peak()
                    self.peak[name] = max(self.peak.get(name, 0.0), (high - frame[1]) / 1e6)
        return timed

    def install(self):
        """Wrap the pipeline's stages and the STEPS for the rest of the process."""
        cli._STAGES = {name: self.wrap(stage, name) for name, stage in cli._STAGES.items()}
        for module, attr, name in STEPS:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))


def measure(recorder, cfg, repeats):
    recorder.traced = False
    cli.run_pipeline(cfg)  # warm-up
    walls, totals = {}, []
    for _ in range(repeats):
        recorder.wall = {}
        start = time.perf_counter()
        report = cli.run_pipeline(cfg)
        totals.append(time.perf_counter() - start)
        for name, seconds in recorder.wall.items():
            walls.setdefault(name, []).append(seconds)
    recorder.peak, recorder.traced = {}, True
    tracemalloc.start()
    try:
        cli.run_pipeline(cfg)
    finally:
        tracemalloc.stop()
        recorder.traced = False
    steps = {name: {"wall_s": statistics.median(values),
                    "peak_mb": round(recorder.peak.get(name, 0.0), 3)}
             for name, values in walls.items()}
    return {"exit_code": report.exit_code, "wall_s": statistics.median(totals),
            "steps": steps}


def environment():
    threads = {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "threads_env": threads}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    recorder = Recorder()
    recorder.install()
    configs = {}
    for name in CURVES:
        for n in SIZES:
            cfg = cli.PipelineConfig(generator=name, n_samples=n)
            configs[f"{name}-{n}"] = measure(recorder, cfg, args.repeats)
            print(f"{args.label} {name} N={n}: exit {configs[f'{name}-{n}']['exit_code']}, "
                  f"{configs[f'{name}-{n}']['wall_s']:.3f} s", flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"][args.label] = {"environment": environment(), "repeats": args.repeats,
                               "configs": configs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
