"""Stage-by-stage certification benchmark for contractflow.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: ops run back to back, each starting
when the previous one returns. Set-up (import, seeded input generation and a
warm-up) is repeated SETUP_REPS times and reported apart from the
measurement. Ops cycle through the workload's op list until ``--seconds``
have passed, and at least once through. wall_s sums, and op_p50_s takes the
median of, each op's median latency, so that a burst of machine noise during
one op moves neither. Every op is gated (gate.py); the last stdout line is
the JSON result. With ``--trace 1``, untraced and traced passes over the
whole list alternate, so that the tracing overhead is measured under the
same machine conditions, and the per-layer metrics are printed instead of
the end-to-end ones. The full record (environment stamp,
per-op behaviour, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
WORKLOADS = ("scan-large", "roundtrip-small", "quadrature")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_program(root: Path):
    """Import contractflow from ``root/src``; exit 2 when it is not there."""
    src = root / "src"
    if not (src / "contractflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no contractflow sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import contractflow

    if Path(contractflow.__file__).resolve().parent != (src / "contractflow").resolve():
        sys.exit(f"perfbench: contractflow imported from {contractflow.__file__}, "
                 f"not from {src}")
    return contractflow


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("CONTRACTFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads_env": {k: os.environ.get(k) for k in threads}, "seed": seed}


def run_pass(ops, tracer=None) -> list[dict]:
    import gate

    return [gate.run_op(op, tracer) for op in ops]


def measure(step, count: int, seconds: float) -> list:
    """``step(k)`` for k = 0, 1, ... until ``count`` steps ran and ``seconds`` passed."""
    results = []
    t0 = time.perf_counter()
    while len(results) < count or time.perf_counter() - t0 < seconds:
        results.append(step(len(results)))
    return results


def op_medians(samples) -> list[float]:
    """Each op's median latency; ``samples[i]`` holds op i's records."""
    return [statistics.median(r["latency_s"] for r in recs) for recs in samples]


def tail(latencies) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(latencies, n=1000, method="inclusive")
            return {"percentile": p, "value_s": q[round(p * 10) - 1], "samples": n}
    return None


def end_to_end(samples, setup_s: float) -> dict:
    """End-to-end metrics; ``samples[i]`` holds the records of op i of the list."""
    medians = op_medians(samples)
    pass_share = [sum(r["verdict"] == "PASS" for r in recs) / len(recs) for recs in samples]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"wall_s": (sum(medians), "s"),
            "op_p50_s": (statistics.median(medians), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
            "pass_rate": (statistics.fmean(pass_share), "ratio")}


def setup(workload: str, seed: int):
    """Import once, then generate inputs and warm up SETUP_REPS times."""
    t0 = time.perf_counter()
    import_program(ROOT)
    import gate  # noqa: F401  (its import cost belongs to set-up)
    import workloads

    import_s = time.perf_counter() - t0
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        ops = workloads.build(workload, seed, OUT / "inputs")
        for rec in run_pass(workloads.warm_up(ops)):
            if rec["failed"]:
                sys.exit(f"perfbench: warm-up op {rec['op']} failed: {rec['problems']}")
        reps.append(time.perf_counter() - t)
    return ops, import_s + statistics.median(reps), {"import_s": import_s, "reps_s": reps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    ops, setup_s, setup_detail = setup(args.workload, args.seed)
    env = environment(args.seed)
    spans = self_times = None
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()

        def untraced_then_traced(k):
            plain = run_pass(ops)
            with tr:
                return plain, run_pass(ops, tr)

        # whole passes, so that per-pass counts repeat exactly
        pairs = measure(untraced_then_traced, 1, args.seconds)
        untraced, traced = zip(*pairs)
        overhead = sum(op_medians(zip(*traced))) - sum(op_medians(zip(*untraced)))
        metrics = tracing.layer_metrics(tr, len(traced), overhead)
        records = [dict(r, traced=t) for plain, trc in pairs
                   for t, recs in ((False, plain), (True, trc)) for r in recs]
        spans, self_times = tr.span_records(), tr.self_times()
    else:
        import gate

        n = len(ops)
        records = measure(lambda k: gate.run_op(ops[k % n]), n, args.seconds)
        metrics = end_to_end([records[i::n] for i in range(n)], setup_s)

    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup": setup_detail,
              "op_tail": tail([r["latency_s"] for r in records]),
              "records": records, "result": result, "self_times": self_times,
              "spans": spans}
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(records)} ops over a list of {len(ops)}, "
          f"{failed} failed, op_tail {json.dumps(detail['op_tail'])}, record {out.name}")
    for rec in records:
        if rec["failed"]:
            print(f"FAILED op {rec['op']}: {'; '.join(rec['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
