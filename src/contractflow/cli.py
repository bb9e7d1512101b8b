"""contractflow command line: pipeline orchestration and machine-readable reports.

Exit codes: 0 success, 2 config error, 3 contract failure, 4 (M) failure,
5 (C)/(CW1) failure, 6 flow failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import click
import numpy as np

from . import contract, curve as curve_mod, extend, flow as flow_mod, repar
from .errors import (
    ConditionCFailed,
    ConfigError,
    ContractFlowError,
    HorizonOverflow,
    InsufficientRegularity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_M = 4
EXIT_C = 5
EXIT_FLOW = 6

_STAGE_EXIT = {"curve": EXIT_CONFIG, "contract": EXIT_CONTRACT, "repar": EXIT_M,
               "extend": EXIT_C, "flow": EXIT_FLOW}


@dataclass
class PipelineConfig:
    generator: str | None = None
    input_path: str | None = None
    lam: float = 0.5
    tmax: float = 4.0 * math.pi
    angle: float = math.pi / 2
    radius: float = 1.0
    seg_length: float = 1.0
    n_samples: int = 200
    alpha: float = 1.0
    safety: float = 1.25
    plan_kind: str = "exp"
    b_override: float | None = None
    eps: float | None = None
    eps_rel: float = 1e-3
    dt_factor: float = 1e-3
    n_out: int = 400
    n_triples: int = 100_000
    seed: int = 0
    roundtrip_tol: float = 5e-2

    def validate(self) -> None:
        if (self.generator is None) == (self.input_path is None):
            raise ConfigError("exactly one of --gen and --input is required")
        if not 0.5 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (1/2, 1]")
        positive = {"n_samples": self.n_samples, "safety": self.safety,
                    "eps_rel": self.eps_rel, "dt_factor": self.dt_factor,
                    "n_out": self.n_out, "n_triples": self.n_triples,
                    "lam": self.lam, "tmax": self.tmax, "angle": self.angle,
                    "radius": self.radius, "seg_length": self.seg_length,
                    "roundtrip_tol": self.roundtrip_tol}
        for name, val in positive.items():
            if not val > 0:
                raise ConfigError(f"{name} must be positive")
        if self.plan_kind not in ("exp", "endpoint", "zeta"):
            raise ConfigError("plan kind must be exp, endpoint, or zeta")
        if self.eps is not None and self.eps < 0:
            raise ConfigError("eps must be nonnegative")


def build_curve(cfg: PipelineConfig) -> curve_mod.Curve:
    if cfg.input_path is not None:
        if str(cfg.input_path).endswith(".json"):
            return curve_mod.load_json(cfg.input_path)
        return curve_mod.load_csv(cfg.input_path)
    if cfg.generator == "segment":
        p1 = np.zeros(2)
        p1[0] = cfg.seg_length
        return curve_mod.make_segment(np.zeros(2), p1, cfg.n_samples)
    if cfg.generator == "circle":
        return curve_mod.make_circle_arc(cfg.angle, cfg.n_samples, cfg.radius)
    if cfg.generator == "spiral":
        return curve_mod.make_log_spiral(cfg.lam, cfg.tmax, cfg.n_samples)
    raise ConfigError(f"unknown generator {cfg.generator!r}")


def _build_plan(cfg: PipelineConfig, crv, c0: float):
    if cfg.b_override is not None:
        return repar.exponential_plan_with_rate(crv, cfg.b_override), None
    reg = curve_mod.holder_seminorm(crv, cfg.alpha, cfg.safety)
    if cfg.plan_kind == "exp":
        return repar.exponential_plan(crv, reg, c0), reg
    tdb = curve_mod.third_deriv_bound(crv, cfg.safety)
    reg = reg.with_third_deriv(tdb.bound)
    if cfg.plan_kind == "endpoint":
        return repar.endpoint_plan(crv, c0, tdb.c1_cubic), reg
    return repar.zeta_plan(crv, c0, tdb.zeta), reg


def _flow_horizon(crv, plan) -> float:
    """Flow time compared against the curve: theta(t_{N-2}), for every plan kind.

    Raises HorizonOverflow when it does not fit in float64 (huge rates b).
    """
    horizon = float(plan.theta(crv.params[-2]))
    if not math.isfinite(horizon):
        raise HorizonOverflow(f"flow horizon theta(t_(N-2)) overflows float64 "
                              f"at rate b = {plan.b:.6g}")
    return horizon


@dataclass
class PipelineReport:
    config: dict
    stages: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    passed: bool = False
    exit_code: int = EXIT_OK

    def add(self, name: str, passed: bool, **data) -> bool:
        self.stages.append({"name": name, "passed": bool(passed),
                            "data": _jsonable(data)})
        if not passed:
            self.exit_code = _STAGE_EXIT[name]
        return passed

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, "config": _jsonable(self.config),
                "constants": _jsonable(self.constants),
                "stages": self.stages, "passed": self.passed,
                "exit_code": self.exit_code}

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return json.dumps(self.to_json_dict(), sort_keys=True)
        lines = [f"pipeline: {'PASS' if self.passed else 'FAIL'} "
                 f"(exit {self.exit_code})"]
        for key in sorted(self.constants):
            lines.append(f"  {key} = {self.constants[key]}")
        for st in self.stages:
            status = "PASS" if st["passed"] else "FAIL"
            detail = " ".join(f"{k}={v}" for k, v in sorted(st["data"].items())
                              if not isinstance(v, (list, dict)))
            lines.append(f"[{st['name']}] {status} {detail}".rstrip())
        return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else (v if math.isfinite(v) else None)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    """curve -> contract -> repar(+verify_M) -> extend(+C/CW1) -> flow(+roundtrip)."""
    cfg.validate()
    report = PipelineReport(config=asdict(cfg))

    crv = build_curve(cfg)
    report.add("curve", True, dim=crv.dim, n_samples=crv.n_samples,
               length=crv.length, source=crv.source)

    crep = contract.classify(crv, n_triples=cfg.n_triples, seed=cfg.seed)
    report.constants["c0"] = _jsonable(crep.c0)
    ok = report.add("contract", crep.level == contract.ContractLevel.UNIFORMLY_STRONGLY,
                    **crep.to_json_dict())
    if not ok:
        return report

    try:
        plan, reg = _build_plan(cfg, crv, crep.c0)
    except (InsufficientRegularity, ValueError, ContractFlowError) as exc:
        report.add("repar", False, error=str(exc))
        return report
    report.constants.update(_jsonable({
        "b": plan.b, "c1": None if reg is None else reg.c1,
        "alpha": cfg.alpha, "L": plan.L,
        "T": None if math.isinf(plan.T) else plan.T}))
    mrep = repar.verify_M(crv, plan)
    try:
        horizon = _flow_horizon(crv, plan) if mrep.holds else None
    except HorizonOverflow as exc:
        report.add("repar", False, kind=plan.kind, error=str(exc), **mrep.to_json_dict())
        return report
    if not report.add("repar", mrep.holds, kind=plan.kind, **mrep.to_json_dict()):
        return report

    jet = extend.curve_jet(crv, plan)
    c_rep = extend.check_C(jet)
    cw_rep = extend.check_CW1(jet)
    if not report.add("extend", c_rep.passed and cw_rep.passed,
                      condition_C=c_rep.to_json_dict(),
                      condition_CW1=cw_rep.to_json_dict()):
        return report
    ext = extend.build_extension(jet, smoothing_eps=cfg.eps, eps_rel=cfg.eps_rel)
    if ext.smoothing_eps <= 0.0:
        report.add("flow", False, error="smoothing eps is 0; flows need eps > 0")
        return report

    rep_curve = repar.reparameterize(crv, plan, cfg.n_out, horizon)
    traj = flow_mod.integrate(ext, rep_curve.points[0], horizon,
                              cfg.dt_factor * horizon)
    metrics = flow_mod.roundtrip_error(traj, rep_curve)
    ok = report.add("flow", metrics.sup_distance <= cfg.roundtrip_tol,
                    horizon=horizon, eps=ext.smoothing_eps,
                    final_speed=float(traj.speeds[-1]), **metrics.to_json_dict())
    report.passed = ok
    return report


# ---------------------------------------------------------------------------
# click commands

def _curve_options(fn):
    opts = [
        click.option("--input", "input_path", type=click.Path(exists=True),
                     help="Curve CSV/JSON file."),
        click.option("--gen", "generator",
                     type=click.Choice(["segment", "circle", "spiral"]),
                     help="Generate a test curve."),
        click.option("--lambda", "lam", type=float, default=0.5,
                     help="Spiral decay rate."),
        click.option("--tmax", type=float, default=4.0 * math.pi,
                     help="Spiral parameter range."),
        click.option("--angle", type=float, default=math.pi / 2,
                     help="Circle arc angle."),
        click.option("--radius", type=float, default=1.0),
        click.option("--seg-length", type=float, default=1.0,
                     help="Segment length."),
        click.option("--n", "n_samples", type=int, default=200,
                     help="Arc-length samples."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _plan_options(fn):
    opts = [
        click.option("--kind", "--plan", "plan_kind",
                     type=click.Choice(["exp", "endpoint", "zeta"]), default="exp"),
        click.option("--alpha", type=float, default=1.0),
        click.option("--safety", type=float, default=1.25),
        click.option("--b", "b_override", type=float, default=None,
                     help="Bypass the certified rate formula."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _cfg(kwargs) -> PipelineConfig:
    names = set(PipelineConfig.__dataclass_fields__)
    cfg = PipelineConfig(**{k: v for k, v in kwargs.items() if k in names and v is not None})
    try:
        cfg.validate()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    return cfg


def _write_file(path, writer):
    try:
        writer(path)
    except OSError as exc:
        click.echo(f"cannot write {path}: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _emit(doc, out):
    text = json.dumps(_jsonable(doc), sort_keys=True)
    if out:
        def write(path):
            with open(path, "w") as fh:
                fh.write(text + "\n")
        _write_file(out, write)
    else:
        click.echo(text)


@click.group()
def main():
    """Self-contracted curves as gradient flows of convex functions."""


@main.command()
@_curve_options
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--json-out", type=click.Path(), default=None,
              help="Also write the JSON form.")
def gen(output, json_out, **kwargs):
    """Generate a curve and write it as CSV (and optionally JSON)."""
    cfg = _cfg(kwargs)
    crv = build_curve(cfg)
    _write_file(output, lambda p: curve_mod.save_csv(crv, p))
    if json_out:
        _write_file(json_out, lambda p: curve_mod.save_json(crv, p))
    click.echo(f"wrote {output} ({crv.n_samples} samples, L={crv.length:.6g})")


@main.command()
@_curve_options
@click.option("--level", "wanted",
              type=click.Choice([lv.value for lv in contract.ContractLevel]),
              default="strongly", help="Required contractedness level.")
@click.option("--n-triples", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=click.Path(), default=None)
def check(wanted, n_triples, seed, output, **kwargs):
    """Classify a curve's self-contractedness; exit 3 if below --level."""
    cfg = _cfg(kwargs)
    rep = contract.classify(build_curve(cfg), n_triples=n_triples, seed=seed)
    _emit(rep.to_json_dict(), output)
    sys.exit(EXIT_OK if rep.level >= contract.ContractLevel(wanted) else EXIT_CONTRACT)


def _plan_from_cli(kwargs):
    cfg = _cfg(kwargs)
    crv = build_curve(cfg)
    try:
        c0 = contract.estimate_c0(crv)
    except ContractFlowError as exc:
        click.echo(f"contract check failed: {exc}", err=True)
        sys.exit(EXIT_CONTRACT)
    if c0 <= 0.0 and cfg.b_override is None:
        click.echo("curve is not uniformly strongly self-contracted (c0 = 0)",
                   err=True)
        sys.exit(EXIT_CONTRACT)
    try:
        plan, _ = _build_plan(cfg, crv, c0)
    except (InsufficientRegularity, ContractFlowError, ValueError) as exc:
        click.echo(f"plan construction failed: {exc}", err=True)
        sys.exit(EXIT_M)
    return cfg, crv, plan


@main.command("build-m")
@_curve_options
@_plan_options
@click.option("-o", "--output", type=click.Path(), default=None)
def build_m(output, **kwargs):
    """Construct the speed profile m and print its constants."""
    _, _, plan = _plan_from_cli(kwargs)
    _emit(plan.to_json_dict(), output)


@main.command("verify-m")
@_curve_options
@_plan_options
@click.option("-o", "--output", type=click.Path(), default=None)
def verify_m(output, **kwargs):
    """Verify the (M)-inequality on the grid; exit 4 when it fails."""
    _, crv, plan = _plan_from_cli(kwargs)
    mrep = repar.verify_M(crv, plan)
    doc = {"plan": plan.to_json_dict(), **mrep.to_json_dict()}
    _emit(doc, output)
    sys.exit(EXIT_OK if mrep.holds else EXIT_M)


@main.command("extend")
@_curve_options
@_plan_options
@click.option("--eps", type=float, default=None, help="Absolute smoothing.")
@click.option("--eps-rel", type=float, default=1e-3)
@click.option("-o", "--output", type=click.Path(), default=None)
def extend_cmd(output, **kwargs):
    """Build the convex extension; exit 5 when (C)/(CW1) fail."""
    _, crv, plan = _plan_from_cli(kwargs)
    jet = extend.curve_jet(crv, plan)
    c_rep = extend.check_C(jet)
    cw_rep = extend.check_CW1(jet)
    if not (c_rep.passed and cw_rep.passed):
        _emit({"condition_C": c_rep.to_json_dict(),
               "condition_CW1": cw_rep.to_json_dict()}, None)
        sys.exit(EXIT_C)
    ext = extend.build_extension(jet, smoothing_eps=kwargs.get("eps"),
                                 eps_rel=kwargs.get("eps_rel") or 1e-3)
    _emit(ext.to_json_dict(), output)


@main.command("eval")
@click.option("--extension", "ext_path", required=True, type=click.Path(exists=True))
@click.option("--at", "at_point", required=True,
              help="Comma-separated coordinates, e.g. 0.3,0.4")
def eval_cmd(ext_path, at_point):
    """Evaluate the extension and its gradient at a point."""
    with open(ext_path) as fh:
        ext = extend.extension_from_json_dict(json.load(fh))
    try:
        x = np.array([float(v) for v in at_point.split(",")])
    except ValueError:
        click.echo("could not parse --at coordinates", err=True)
        sys.exit(EXIT_CONFIG)
    if len(x) != ext.anchors.shape[1]:
        click.echo(f"point has dim {len(x)}, extension has dim "
                   f"{ext.anchors.shape[1]}", err=True)
        sys.exit(EXIT_CONFIG)
    _emit({"f": float(extend.eval_f(ext, x)),
           "grad": extend.eval_grad(ext, x).tolist()}, None)


def _write_trajectory_csv(path, times, points, speeds):
    d = points.shape[1]
    header = ",".join(["s"] + [f"x{k+1}" for k in range(d)] + ["speed"])
    data = np.column_stack([times, points, speeds])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


@main.command("flow")
@click.option("--extension", "ext_path", required=True, type=click.Path(exists=True))
@click.option("--x0", required=True, help="Start point, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dt", type=float, required=True)
@click.option("-o", "--output", required=True, type=click.Path())
def flow_cmd(ext_path, x0, t_end, dt, output):
    """Integrate the gradient flow of a stored extension; write CSV."""
    with open(ext_path) as fh:
        ext = extend.extension_from_json_dict(json.load(fh))
    if ext.smoothing_eps <= 0.0:
        click.echo("flow requires a smoothed extension (eps > 0)", err=True)
        sys.exit(EXIT_CONFIG)
    start = np.array([float(v) for v in x0.split(",")])
    traj = flow_mod.integrate(ext, start, t_end, dt)
    _write_file(output, lambda p: _write_trajectory_csv(p, traj.times, traj.states,
                                                        traj.speeds))
    _emit({"steps": len(traj.times), "final_speed": float(traj.speeds[-1]),
           "final_state": traj.states[-1].tolist()}, None)


@main.command("roundtrip")
@_curve_options
@_plan_options
@click.option("--eps", type=float, default=None)
@click.option("--eps-rel", type=float, default=1e-3)
@click.option("--dt-factor", type=float, default=1e-3)
@click.option("--n-out", type=int, default=400)
@click.option("--tol", "roundtrip_tol", type=float, default=5e-2)
@click.option("-o", "--output", type=click.Path(), default=None)
def roundtrip_cmd(output, **kwargs):
    """Reparameterize, integrate the extension flow, compare; exit 6 on miss."""
    cfg, crv, plan = _plan_from_cli(kwargs)
    try:
        horizon = _flow_horizon(crv, plan)
        ext = extend.build_extension(extend.curve_jet(crv, plan), smoothing_eps=cfg.eps,
                                     eps_rel=cfg.eps_rel)
    except HorizonOverflow as exc:
        click.echo(f"plan construction failed: {exc}", err=True)
        sys.exit(EXIT_M)
    except ConditionCFailed as exc:
        click.echo(f"extension failed: {exc}", err=True)
        sys.exit(EXIT_C)
    rep_curve = repar.reparameterize(crv, plan, cfg.n_out, horizon)
    traj = flow_mod.integrate(ext, rep_curve.points[0], horizon,
                              cfg.dt_factor * horizon)
    metrics = flow_mod.roundtrip_error(traj, rep_curve)
    _emit(metrics.to_json_dict(), output)
    sys.exit(EXIT_OK if metrics.sup_distance <= cfg.roundtrip_tol else EXIT_FLOW)


@main.command("run")
@_curve_options
@_plan_options
@click.option("--eps", type=float, default=None)
@click.option("--eps-rel", type=float, default=1e-3)
@click.option("--dt-factor", type=float, default=1e-3)
@click.option("--n-out", type=int, default=400)
@click.option("--n-triples", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@click.option("--roundtrip-tol", type=float, default=5e-2)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def run(report_path, fmt, **kwargs):
    """Run the full pipeline and emit a staged report."""
    cfg = _cfg(kwargs)
    try:
        report = run_pipeline(cfg)
    except ContractFlowError as exc:
        click.echo(f"pipeline error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    text = report.render(fmt)
    if report_path:
        def write(path):
            with open(path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        _write_file(report_path, write)
    else:
        click.echo(text.rstrip("\n"))
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
