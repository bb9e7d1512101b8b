"""Seeded op lists for the three benchmark workloads.

An op is a plain dict. Certification ops ("certify") carry the keyword
arguments of ``cli.PipelineConfig`` and the closed-form reference values the
gate checks the report against. Converse ops ("converse") carry a gradient
flow for ``flow.check_flow_self_contracted`` and ``flow.trace_energy``.

Why the draws look the way they do (details in NOTES.md):

* scan-large draws the arc angle in [0.45 pi, pi/2]. At N = 5000 the (CW1)
  verdict flips near 0.434 pi, so the full [pi/3, pi/2] range would make the
  pass rate a coin toss per seed; this band shows the known-wrong exit 5 on
  every seed.
* roundtrip-small stratifies its 80 draws (a shuffled Latin hypercube per
  shape/plan cell), so the pass rate and the endpoint-plan quadrature cost
  of a pass vary little from seed to seed while the whole range is covered.
* quadrature fixes the zeta arc. Its adaptive-Simpson cost jumps with the
  arc (2.8 s to 39 s over the range, +-15 % for +-0.05 rad), so a seeded
  draw would make wall_s measure the seed instead of the code.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

SCAN_N = 5000
SMALL_N = 200
SMALL_OPS = 80
SAMPLED_N = 1000
ZETA_ANGLE = 5.0 * math.pi / 12.0
ZETA_RADIUS = 1.0
N_SPD = 40
BOWL_A2 = 0.01


def arc_op(op_id, angle, radius, n, plan):
    cfg = {"generator": "circle", "angle": float(angle), "radius": float(radius),
           "n_samples": int(n), "plan_kind": plan}
    ref = {"shape": "arc", "angle": float(angle), "length": float(radius * angle)}
    return {"id": op_id, "kind": "certify", "config": cfg, "ref": ref}


def segment_op(op_id, length, n, plan):
    cfg = {"generator": "segment", "seg_length": float(length),
           "n_samples": int(n), "plan_kind": plan}
    ref = {"shape": "segment", "length": float(length)}
    return {"id": op_id, "kind": "certify", "config": cfg, "ref": ref}


def _strata(rng, lo, hi, k):
    """k draws from [lo, hi), one per equal stratum, in shuffled order."""
    u = (rng.permutation(k) + rng.random(k)) / k
    return lo + (hi - lo) * u


def scan_large(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    angle = rng.uniform(0.45 * math.pi, 0.5 * math.pi)
    radius = rng.uniform(0.5, 2.0)
    length = rng.uniform(0.5, 2.0)
    return [arc_op("arc", angle, radius, SCAN_N, "exp"),
            segment_op("segment", length, SCAN_N, "exp")]


def roundtrip_small(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    per_cell = SMALL_OPS // 4
    cells = {}
    for plan in ("exp", "endpoint"):
        cells["arc", plan] = list(zip(_strata(rng, math.pi / 3, math.pi / 2, per_cell),
                                      _strata(rng, 0.5, 2.0, per_cell)))
        cells["segment", plan] = list(_strata(rng, 0.5, 2.0, per_cell))
    ops = []
    for k in range(SMALL_OPS):
        shape = "arc" if k % 2 == 0 else "segment"
        plan = "exp" if (k // 2) % 2 == 0 else "endpoint"
        draw = cells[shape, plan].pop()
        op_id = f"{k:02d}-{shape}-{plan}"
        if shape == "arc":
            ops.append(arc_op(op_id, draw[0], draw[1], SMALL_N, plan))
        else:
            ops.append(segment_op(op_id, draw, SMALL_N, plan))
    return ops


def write_sampled_arc(path: Path, angle: float, radius: float, warp: float,
                      n: int = SAMPLED_N) -> None:
    """Exact arc samples at non-uniform arc-length parameters, as curve CSV.

    The parameters follow the smooth monotone warp x + warp sin(2 pi x) / (2 pi)
    of a uniform grid; points and unit tangents are exact, so the reference
    c0 and length hold to rounding.
    """
    x = np.linspace(0.0, 1.0, n)
    u = angle * (x + warp * np.sin(2.0 * np.pi * x) / (2.0 * np.pi))
    u[0], u[-1] = 0.0, angle
    data = np.column_stack([radius * u, radius * np.cos(u), radius * np.sin(u),
                            -np.sin(u), np.cos(u)])
    np.savetxt(path, data, delimiter=",", header="t,x1,x2,tx1,tx2", comments="",
               fmt="%.17g")


def spd_flows(rng, count: int) -> list[dict]:
    """Random 2-D SPD quadratics, eigenvalues in [0.1, 10], condition <= 100.

    The family of acceptance criterion 5, drawn as a Latin hypercube over
    the two eigenvalues and the start direction relative to the eigenvectors
    (ill-conditioned pairs redrawn). Orbit shape, and with it the converse
    check's cost and whether the energy residual exceeds 1e-6 (condition
    numbers above ~15), depends on those three, so every pass holds about the
    same mix.
    """
    draws = []
    while len(draws) < count:
        for l1, l2, angle in zip(_strata(rng, 0.1, 10.0, count), _strata(rng, 0.1, 10.0, count),
                                 _strata(rng, 0.0, math.pi, count)):
            if max(l1, l2) / min(l1, l2) <= 100.0 and len(draws) < count:
                draws.append((l1, l2, angle))
    ops = []
    for k, (l1, l2, angle) in enumerate(draws):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        x0 = q @ np.array([math.cos(angle), math.sin(angle)])
        ops.append({"id": f"spd-{k}", "kind": "converse",
                    "matrix": (q @ np.diag([l1, l2]) @ q.T).tolist(),
                    "x0": x0.tolist(), "t_end": 2.0 / float(min(l1, l2))})
    return ops


def bowl_flow() -> dict:
    """The quasiconvex bowl f = (|x|^2 + a2)^(1/4) of acceptance criterion 5."""
    return {"id": "bowl", "kind": "converse", "matrix": None, "a2": BOWL_A2,
            "x0": [1.0, 0.5], "t_end": 3.0}


def quadrature(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    angle = rng.uniform(math.pi / 3, math.pi / 2)
    # radius >= 1.5 keeps the sampled arc on the known-wrong exit 6 side
    radius = rng.uniform(1.5, 2.0)
    warp = rng.uniform(0.3, 0.6)
    csv = workdir / f"sampled-arc-seed{seed}.csv"
    write_sampled_arc(csv, angle, radius, warp)
    sampled = {"id": "sampled-arc-endpoint", "kind": "certify",
               "config": {"input_path": str(csv), "plan_kind": "endpoint"},
               "ref": {"shape": "arc", "angle": float(angle),
                       "length": float(radius * angle)}}
    zeta = arc_op("arc-zeta", ZETA_ANGLE, ZETA_RADIUS, SMALL_N, "zeta")
    return [sampled, zeta] + spd_flows(rng, N_SPD) + [bowl_flow()]


BUILDERS = {"scan-large": scan_large, "roundtrip-small": roundtrip_small,
            "quadrature": quadrature}
WORKLOADS = tuple(BUILDERS)

def warm_up(ops: list[dict], limit: int = 8, max_n: int = 2000) -> list[dict]:
    """Copies of the first ops, with N capped and zeta plans (seconds each) left out.

    The N = 2000 copies matter on scan-large: without them the first N = 5000
    op in a process runs ~1.6x slower, until the allocator has freed blocks
    of that size once. The ~1 s of work also lets the CPU reach its steady
    speed before timing starts.
    """
    out = []
    for op in ops:
        if op["kind"] == "certify" and op["config"]["plan_kind"] == "zeta":
            continue
        op = copy.deepcopy(op)
        op["id"] = "warm-" + op["id"]
        if "n_samples" in op.get("config", {}):
            op["config"]["n_samples"] = min(op["config"]["n_samples"], max_n)
        out.append(op)
    return out[:limit]


def build(name: str, seed: int, workdir: Path) -> list[dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
