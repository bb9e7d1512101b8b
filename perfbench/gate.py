"""Run one op and check its output: the correctness gate and the behaviour record.

An op *fails* when an exception escapes it, its exit code is undocumented,
a PASS report holds a non-finite flow metric, a closed-form reference is
contradicted, or a converse check misses the uniformly-strongly level (every
orbit of a convex gradient flow is strongly self-contracted) or returns a
non-finite energy residual. A FAIL verdict is not a failure; it lowers
pass_rate. FAIL verdicts are exits 3 to 6, and converse checks whose energy
residual exceeds trace_energy's default tolerance: like a roundtrip miss
(exit 6), that residual measures the integrator's accuracy, and ~4 % of the
acceptance-criterion-5 SPD family exceeds it.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from contractflow import cli, flow

DOCUMENTED_EXITS = frozenset({0, 2, 3, 4, 5, 6})
C0_DEFLATION = 0.9  # contract.estimate_c0's default deflation
C0_RTOL = 1e-7
LENGTH_RTOL = 1e-9
ENERGY_TOL = 1e-6  # trace_energy's default tolerance
FLOW_METRICS = ("horizon", "eps", "final_speed", "sup_distance",
                "terminal_distance", "hausdorff")
UNIFORM = "uniformly_strongly"


def expected_c0(ref: dict) -> float:
    """min over pairs of <T(t), (gamma(s) - gamma(t)) / (s - t)>, deflated.

    For an arc of angle a the minimum sits at the endpoints and equals
    sin(a) / a at any radius; for a segment it is 1.
    """
    if ref["shape"] == "segment":
        return C0_DEFLATION
    a = ref["angle"]
    return C0_DEFLATION * math.sin(a) / a


def _stage(doc: dict, name: str) -> dict | None:
    for st in doc["stages"]:
        if st["name"] == name:
            return st["data"]
    return None


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _rel_err(got, want: float) -> float:
    if not _finite(got):
        return math.inf
    return abs(got - want) / abs(want)


def check_certify(doc: dict, ref: dict) -> list[str]:
    """Problems with a rendered pipeline report; empty when it is correct."""
    problems = []
    code = doc.get("exit_code")
    if code not in DOCUMENTED_EXITS:
        problems.append(f"undocumented exit code {code!r}")
    if doc.get("passed") != (code == 0):
        problems.append(f"passed={doc.get('passed')!r} disagrees with exit {code!r}")
    contract = _stage(doc, "contract")
    level = None if contract is None else contract.get("level")
    if level != UNIFORM:
        problems.append(f"contract level {level!r}, expected {UNIFORM}")
    c0 = doc["constants"].get("c0")
    if _rel_err(c0, expected_c0(ref)) > C0_RTOL:
        problems.append(f"c0 {c0!r} contradicts closed form {expected_c0(ref)!r}")
    curve = _stage(doc, "curve")
    length = None if curve is None else curve.get("length")
    if _rel_err(length, ref["length"]) > LENGTH_RTOL:
        problems.append(f"L {length!r} contradicts closed form {ref['length']!r}")
    if code == 0:
        data = _stage(doc, "flow") or {}
        bad = [k for k in FLOW_METRICS if not _finite(data.get(k))]
        if bad:
            problems.append(f"PASS report has non-finite flow metrics {bad}")
    return problems


def check_converse(out: dict) -> list[str]:
    problems = []
    if out["level"] != UNIFORM:
        problems.append(f"converse level {out['level']!r}, expected {UNIFORM}")
    if not _finite(out["energy_residual"]):
        problems.append(f"energy residual {out['energy_residual']!r} is not finite")
    return problems


def converse_passes(out: dict) -> bool:
    return out["level"] == UNIFORM and out["energy_residual"] <= ENERGY_TOL


def behaviour(doc: dict) -> dict:
    """Per-op verdict data kept next to the timings."""
    repar = _stage(doc, "repar") or {}
    ext = _stage(doc, "extend") or {}
    fl = _stage(doc, "flow") or {}
    return {"exit_code": doc["exit_code"], "c0": doc["constants"].get("c0"),
            "b": doc["constants"].get("b"), "M_margin": repar.get("margin"),
            "C_min_slack": (ext.get("condition_C") or {}).get("min_slack"),
            "CW1_equality_pairs": (ext.get("condition_CW1") or {}).get("n_equality_pairs"),
            "sup_distance": fl.get("sup_distance")}


def _converse(op: dict) -> dict:
    x0 = np.asarray(op["x0"], dtype=float)
    t_end = op["t_end"]
    if op["matrix"] is None:
        a2 = op["a2"]

        def grad(x):
            return x / (2.0 * (x @ x + a2) ** 0.75)

        def value(x):
            return (x @ x + a2) ** 0.25
    else:
        A = np.asarray(op["matrix"], dtype=float)

        def grad(x):
            return A @ x

        def value(x):
            return 0.5 * float(x @ A @ x)
    rep = flow.check_flow_self_contracted(grad, x0, t_end)
    traj = flow.integrate(grad, x0, t_end, 1e-3 * t_end)
    energy = flow.trace_energy(traj, value, tol=math.inf)
    return {"level": rep.level.value, "c0": rep.c0,
            "energy_residual": energy.max_residual}


def execute(op: dict):
    """The timed unit of work; returns the program's output."""
    if op["kind"] == "certify":
        report = cli.run_pipeline(cli.PipelineConfig(**op["config"]))
        return report.render("json")
    return _converse(op)


def run_op(op: dict, tracer=None) -> dict:
    """Time one op, gate its output and return its record."""
    error = out = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = execute(op)
        else:
            with tracer.op(op["id"]):
                out = execute(op)
    except Exception as exc:  # an escaping exception is a gate failure, not a crash
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    rec = {"op": op["id"], "latency_s": latency}
    if error is not None:
        rec.update(verdict="FAIL", problems=[f"exception escaped: {error}"])
    elif op["kind"] == "certify":
        try:
            doc = json.loads(out)
        except ValueError as exc:
            rec.update(verdict="FAIL", problems=[f"report is not JSON: {exc}"])
        else:
            rec.update(behaviour(doc), verdict="PASS" if doc["exit_code"] == 0 else "FAIL",
                       problems=check_certify(doc, op["ref"]))
    else:
        rec.update(out, verdict="PASS" if converse_passes(out) else "FAIL",
                   problems=check_converse(out))
    if tracer is not None:
        rec["rk4_steps"] = tracer.op_steps
    rec["failed"] = bool(rec["problems"])
    if rec["failed"]:
        rec["verdict"] = "FAIL"
    return rec
