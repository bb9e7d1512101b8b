"""contractflow command line: pipeline orchestration and machine-readable reports.

Exit codes: 0 success, 2 config error, 3 contract failure, 4 (M) failure,
5 (C)/(CW1) failure, 6 flow failure.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import click
import numpy as np

from . import contract, curve as curve_mod, extend, flow as flow_mod, repar
from .errors import BlowUp, ConfigError, ContractFlowError, HorizonOverflow

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
    n_out: int = 400
    n_triples: int = 100_000
    seed: int = 0
    roundtrip_tol: float = 5e-2

    def validate(self) -> None:
        if (self.generator is None) == (self.input_path is None):
            raise ConfigError("exactly one of --gen and --input is required")
        if not 0.5 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (1/2, 1]")
        if not self.n_samples >= 3:
            raise ConfigError("n_samples must be at least 3")
        if not self.n_out >= 2:
            raise ConfigError("n_out must be at least 2")
        for name in ("safety", "eps_rel", "n_triples", "lam",
                     "tmax", "angle", "radius", "seg_length", "roundtrip_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.plan_kind not in ("exp", "endpoint", "zeta"):
            raise ConfigError("plan kind must be exp, endpoint, or zeta")
        if self.eps is not None and self.eps < 0:
            raise ConfigError("eps must be nonnegative")


def _is_json(path) -> bool:
    """A curve file whose name ends in .json holds the JSON form, any other CSV."""
    return str(path).endswith(".json")


def build_curve(cfg: PipelineConfig) -> curve_mod.Curve:
    if cfg.input_path is not None:
        if _is_json(cfg.input_path):
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
    # the stages' result objects (curve, plan, reports, extension, ...); not rendered
    results: dict = field(default_factory=dict, repr=False)

    def add(self, name: str, passed: bool, **data) -> bool:
        self.stages.append({"name": name, "passed": bool(passed),
                            "data": _jsonable(data)})
        if not passed:
            self.exit_code = _STAGE_EXIT[name]
        return passed

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **_jsonable(self)}

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
    """``obj`` in JSON values: tuples and arrays become lists, inf and NaN null, an
    enum its value, and a report dataclass the dict of its ``repr``-visible fields;
    ``repr=False`` keeps a field (a plan's evaluators, the pipeline's ``results``) out.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# pipeline stages: each reads earlier results from report.results, stores its
# own there, fills its stage entry's ``data`` and returns whether it passed

def _curve_stage(cfg, report, data) -> bool:
    crv = build_curve(cfg)
    if crv.n_samples < 3:
        raise ValueError("a curve needs at least 3 samples")
    report.results["curve"] = crv
    data.update(dim=crv.dim, n_samples=crv.n_samples, length=crv.length,
                source=crv.source)
    return True


def _contract_stage(cfg, report, data) -> bool:
    crep = contract.classify(report.results["curve"], n_triples=cfg.n_triples,
                             seed=cfg.seed)
    report.results["contract"] = crep
    report.constants["c0"] = _jsonable(crep.c0)
    data.update(_jsonable(crep))
    return crep.level == contract.ContractLevel.UNIFORMLY_STRONGLY


def _repar_stage(cfg, report, data) -> bool:
    res = report.results
    crv = res["curve"]
    plan, reg = _build_plan(cfg, crv, res["contract"].c0)
    res["plan"] = plan
    report.constants.update(_jsonable({
        "b": plan.b, "c1": None if reg is None else reg.c1,
        "alpha": cfg.alpha, "L": plan.L,
        "T": plan.T}))
    mrep = res["M"] = repar.verify_M(crv, plan)
    data.update(kind=plan.kind, **_jsonable(mrep))
    if mrep.holds:
        res["horizon"] = _flow_horizon(crv, plan)
    return mrep.holds


def _extend_stage(cfg, report, data) -> bool:
    res = report.results
    jet = extend.curve_jet(res["curve"], res["plan"])
    c_rep = res["condition_C"] = extend.check_C(jet)
    cw_rep = res["condition_CW1"] = extend.check_CW1(jet)
    data.update(condition_C=c_rep, condition_CW1=cw_rep)
    if not (c_rep.passed and cw_rep.passed):
        return False
    res["extension"] = extend.build_extension(jet, smoothing_eps=cfg.eps,
                                              eps_rel=cfg.eps_rel)
    return True


def _flow_stage(cfg, report, data) -> bool:
    res = report.results
    ext, horizon = res["extension"], res["horizon"]
    rep_curve = repar.reparameterize(res["curve"], res["plan"], cfg.n_out, horizon)
    traj = flow_mod.sample_states(ext, rep_curve.points[0], rep_curve.times)
    speed, speed_evals = flow_mod.final_speed(ext, traj.states)
    metrics = res["roundtrip"] = flow_mod.roundtrip_error(traj, rep_curve)
    data.update(horizon=horizon, eps=ext.smoothing_eps,
                grad_evals=traj.grad_evals + speed_evals, final_speed=speed,
                **_jsonable(metrics))
    return metrics.sup_distance <= cfg.roundtrip_tol


_STAGES = {"curve": _curve_stage, "contract": _contract_stage,
           "repar": _repar_stage, "extend": _extend_stage, "flow": _flow_stage}


def run_pipeline(cfg: PipelineConfig, stop_after: str = "flow") -> PipelineReport:
    """curve -> contract -> repar(+verify_M) -> extend(+C/CW1) -> flow(+roundtrip).

    Runs the stages in order until one fails or ``stop_after`` has run. A
    ContractFlowError or ValueError raised inside a stage fails that stage,
    with its message as the stage's ``error``.
    """
    cfg.validate()
    report = PipelineReport(config=asdict(cfg))
    for name, stage in _STAGES.items():
        data = {}
        try:
            passed = stage(cfg, report, data)
        except (ContractFlowError, ValueError) as exc:
            passed, data["error"] = False, str(exc)
        if not report.add(name, passed, **data) or name == stop_after:
            break
    report.passed = all(st["passed"] for st in report.stages)
    return report


# ---------------------------------------------------------------------------
# click commands

def _options(*opts):
    """One decorator applying ``opts`` in the order listed."""
    def apply(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return apply


# PipelineConfig holds every default: an option left unset stays None and
# _cfg drops it. Each group adds the options of one more stage.
_curve_options = _options(
    click.option("--input", "input_path", type=click.Path(exists=True),
                 help="Curve CSV/JSON file."),
    click.option("--gen", "generator",
                 type=click.Choice(["segment", "circle", "spiral"]),
                 help="Generate a test curve."),
    click.option("--lambda", "lam", type=float, help="Spiral decay rate."),
    click.option("--tmax", type=float, help="Spiral parameter range."),
    click.option("--angle", type=float, help="Circle arc angle."),
    click.option("--radius", type=float),
    click.option("--seg-length", type=float, help="Segment length."),
    click.option("--n", "n_samples", type=int, help="Arc-length samples."),
)
_plan_options = _options(
    _curve_options,
    click.option("--kind", "--plan", "plan_kind",
                 type=click.Choice(["exp", "endpoint", "zeta"])),
    click.option("--alpha", type=float),
    click.option("--safety", type=float),
    click.option("--b", "b_override", type=float,
                 help="Bypass the certified rate formula."),
)
_extend_options = _options(
    _plan_options,
    click.option("--eps", type=float, help="Absolute smoothing."),
    click.option("--eps-rel", type=float),
)
_flow_options = _options(
    _extend_options,
    click.option("--n-out", type=int),
)
_triple_options = _options(
    click.option("--n-triples", type=int),
    click.option("--seed", type=int),
)
_output_option = click.option("-o", "--output", type=click.Path())


def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


def _cfg(kwargs) -> PipelineConfig:
    cfg = PipelineConfig(**{k: v for k, v in kwargs.items() if v is not None})
    try:
        cfg.validate()
    except ConfigError as exc:
        _fail(f"config error: {exc}", EXIT_CONFIG)
    return cfg


# why a stage failed when its data carries no ``error``, formatted from its data
_STAGE_CAUSE = {"contract": "the curve is {level}, not uniformly_strongly",
                "repar": "the (M)-inequality fails on the grid (margin {margin})",
                "extend": "conditions (C)/(CW1) fail (min (C) slack "
                          "{condition_C[min_slack]})"}


def _result(report: PipelineReport, key: str):
    """A stage result of ``report``; without it, one line naming the failed stage."""
    if key not in report.results:
        st = report.stages[-1]
        cause = st["data"].get("error") or _STAGE_CAUSE[st["name"]].format(**st["data"])
        _fail(f"{st['name']} stage failed: {cause}", report.exit_code)
    return report.results[key]


def _write_file(path, writer):
    try:
        writer(path)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", EXIT_CONFIG)


def _echo(text: str, out):
    """Print ``text``, or write it with a final newline to the file ``out``."""
    if out:
        _write_file(out, lambda p: Path(p).write_text(text + "\n"))
    else:
        click.echo(text)


def _emit(doc, out):
    _echo(json.dumps(_jsonable(doc), sort_keys=True), out)


@click.group()
def main():
    """Self-contracted curves as gradient flows of convex functions.

    check, build-m, verify-m, extend and roundtrip are `run` stopped at their stage.
    """


@main.command()
@_curve_options
@click.option("-o", "--output", required=True, type=click.Path())
def gen(output, **kwargs):
    """Generate a curve and write it: JSON to a .json name, else CSV."""
    crv = _result(run_pipeline(_cfg(kwargs), stop_after="curve"), "curve")
    save = curve_mod.save_json if _is_json(output) else curve_mod.save_csv
    _write_file(output, lambda p: save(crv, p))
    click.echo(f"wrote {output} ({crv.n_samples} samples, L={crv.length:.6g})")


@main.command()
@_curve_options
@click.option("--level", "wanted",
              type=click.Choice([lv.value for lv in contract.ContractLevel]),
              default="strongly", help="Required contractedness level.")
@_triple_options
@_output_option
def check(wanted, output, **kwargs):
    """Classify a curve's self-contractedness; exit 3 if below --level."""
    crep = _result(run_pipeline(_cfg(kwargs), stop_after="contract"), "contract")
    _emit(crep, output)
    sys.exit(EXIT_OK if crep.level >= contract.ContractLevel(wanted) else EXIT_CONTRACT)


@main.command("build-m")
@_plan_options
@_output_option
def build_m(output, **kwargs):
    """Construct the speed profile m and print its constants; exit 4 when (M) fails."""
    report = run_pipeline(_cfg(kwargs), stop_after="repar")
    _emit(_result(report, "plan"), output)
    sys.exit(report.exit_code)


@main.command("verify-m")
@_plan_options
@_output_option
def verify_m(output, **kwargs):
    """Verify the (M)-inequality on the grid; exit 4 when it fails."""
    report = run_pipeline(_cfg(kwargs), stop_after="repar")
    mrep = _result(report, "M")
    _emit({"plan": report.results["plan"], **_jsonable(mrep)}, output)
    sys.exit(report.exit_code)


@main.command("extend")
@_extend_options
@_output_option
def extend_cmd(output, **kwargs):
    """Build the convex extension; exit 5 when (C)/(CW1) fail."""
    report = run_pipeline(_cfg(kwargs), stop_after="extend")
    res = report.results
    if "extension" in res:
        _emit(res["extension"].to_json_dict(), output)
    else:
        _emit({"condition_C": _result(report, "condition_C"),
               "condition_CW1": res["condition_CW1"]}, None)
    sys.exit(report.exit_code)


def _extension_and_point(path, text: str, flag: str):
    """A stored extension and a point of its dimension; exit 2 on bad input."""
    try:
        with open(path) as fh:
            ext = extend.extension_from_json_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read extension {path}: {exc}", EXIT_CONFIG)
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError:
        _fail(f"could not parse {flag} coordinates", EXIT_CONFIG)
    dim = ext.anchors.shape[1]
    if len(x) != dim or not np.isfinite(x).all():
        _fail(f"{flag} needs {dim} finite coordinates, got {text}", EXIT_CONFIG)
    return ext, x


@main.command("eval")
@click.option("--extension", "ext_path", required=True, type=click.Path(exists=True))
@click.option("--at", "at_point", required=True,
              help="Comma-separated coordinates, e.g. 0.3,0.4")
def eval_cmd(ext_path, at_point):
    """Evaluate the extension and its gradient at a point."""
    ext, x = _extension_and_point(ext_path, at_point, "--at")
    _emit({"f": float(extend.eval_f(ext, x)),
           "grad": extend.eval_grad(ext, x).tolist()}, None)


def _write_trajectory_csv(path, traj):
    header = ",".join(["s"] + [f"x{k+1}" for k in range(traj.dim)] + ["speed"])
    data = np.column_stack([traj.times, traj.states, traj.speeds])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


@main.command("flow")
@click.option("--extension", "ext_path", required=True, type=click.Path(exists=True))
@click.option("--x0", required=True, help="Start point, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dt", type=float, required=True)
@click.option("-o", "--output", required=True, type=click.Path())
def flow_cmd(ext_path, x0, t_end, dt, output):
    """Integrate the gradient flow of a stored extension; write CSV; exit 6 on blow-up."""
    ext, start = _extension_and_point(ext_path, x0, "--x0")
    try:
        traj = flow_mod.integrate(ext, start, t_end, dt)
    except ValueError as exc:
        _fail(f"flow failed: {exc}", EXIT_CONFIG)
    except BlowUp as exc:
        _fail(f"flow failed: {exc}", EXIT_FLOW)
    _write_file(output, lambda p: _write_trajectory_csv(p, traj))
    _emit({"steps": len(traj.times), "final_speed": float(traj.speeds[-1]),
           "final_state": traj.states[-1].tolist()}, None)


@main.command("roundtrip")
@_flow_options
@click.option("--tol", "roundtrip_tol", type=float)
@_output_option
def roundtrip_cmd(output, **kwargs):
    """Reparameterize, integrate the extension flow, compare; exit 6 on miss."""
    report = run_pipeline(_cfg(kwargs))
    _emit(_result(report, "roundtrip"), output)
    sys.exit(report.exit_code)


@main.command("run")
@_flow_options
@_triple_options
@click.option("--roundtrip-tol", type=float)
@click.option("--report", "report_path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def run(report_path, fmt, **kwargs):
    """Run the full pipeline and emit a staged report."""
    report = run_pipeline(_cfg(kwargs))
    _echo(report.render(fmt).rstrip("\n"), report_path)
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()
