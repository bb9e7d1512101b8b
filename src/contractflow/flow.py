"""Gradient-flow integration, roundtrip metrics, and the converse check.

``sample_flow`` integrates x' = -grad F(x) with error control: the embedded
Dormand-Prince 5(4) pair of ``scipy.integrate.solve_ivp`` ("RK45"), whose
step size follows the local error, sampled at the requested times. The
pipeline's roundtrip and the converse check use it. ``integrate``, classical
fixed-step RK4, is kept as the fixed-step reference whose error behaves
predictably for the order checks and the ``flow --dt`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.spatial.distance import cdist

from . import contract
from .curve import Curve, from_samples
from .errors import BlowUp, IdentityViolated
from .extend import ConvexExtension, eval_grad
from .repar import ReparamCurve

GRAD_STOP = 1e-8
# sample_flow's error control: solve_ivp relative and absolute tolerances
RTOL = 1e-8
ATOL = 1e-9
# sample_flow gives up after this many gradient evaluations
MAX_EVALS = 100_000
# samples per eval_grad call when sample_flow evaluates an extension's speeds
SPEED_ROWS = 64


@dataclass(frozen=True)
class Trajectory:
    """Gradient-flow samples: times, states, and speeds ||x'|| = ||grad F||.

    ``grad_evals`` is the number of gradient evaluations ``sample_flow``
    made for them (None when not counted).
    """

    times: np.ndarray
    states: np.ndarray
    speeds: np.ndarray
    grad_evals: int | None = None

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _gradient_fn(ext_or_f):
    if isinstance(ext_or_f, ConvexExtension):
        if ext_or_f.smoothing_eps <= 0.0:
            raise ValueError(
                "flows of the unsmoothed (eps = 0) extension are not integrated; "
                "the right-hand side is discontinuous")
        return lambda x: eval_grad(ext_or_f, x)
    return ext_or_f


def integrate(ext_or_f, x0, t_end: float, dt: float) -> Trajectory:
    """Integrate x' = -grad F(x) by fixed-step RK4.

    Terminates early at stationary points (||grad|| < 1e-8) and raises BlowUp
    when the state norm exceeds 1e6 (||x0|| + 1) or is not finite, which
    signals a non-convex or corrupted oracle.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    grad = _gradient_fn(ext_or_f)
    x = np.asarray(x0, dtype=float).copy()
    limit = 1e6 * (np.linalg.norm(x) + 1.0)

    times = [0.0]
    states = [x.copy()]
    g = np.asarray(grad(x), dtype=float)
    speeds = [float(np.linalg.norm(g))]
    t = 0.0
    while t < t_end * (1.0 - 1e-12):
        if speeds[-1] < GRAD_STOP:
            break
        h = min(dt, t_end - t)
        k1 = -g
        k2 = -np.asarray(grad(x + 0.5 * h * k1), dtype=float)
        k3 = -np.asarray(grad(x + 0.5 * h * k2), dtype=float)
        k4 = -np.asarray(grad(x + h * k3), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        norm = math.hypot(*x)  # no overflow warning; an inf or NaN norm fails too
        if not norm <= limit:
            raise BlowUp(f"state norm {norm:.3g} is not within {limit:.3g} at t = {t:.6g}")
        g = np.asarray(grad(x), dtype=float)
        times.append(t)
        states.append(x.copy())
        speeds.append(float(np.linalg.norm(g)))
    return Trajectory(times=np.array(times), states=np.array(states),
                      speeds=np.array(speeds))


def sample_flow(ext_or_f, x0, times) -> Trajectory:
    """Sample x' = -grad F(x), x(times[0]) = x0, at ``times`` (increasing, finite).

    Dormand-Prince 5(4) with error control (rtol RTOL, atol ATOL); the
    speeds ||grad F|| are evaluated once per sample. Raises BlowUp when the
    state norm reaches 1e6 (||x0|| + 1), when the solver fails or makes more
    than MAX_EVALS evaluations, or when a state is not finite. The
    trajectory's ``grad_evals`` counts every gradient evaluation: the
    solver's and one per sample.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) >= 2 and np.isfinite(times).all()
            and (np.diff(times) > 0.0).all()):
        raise ValueError("a flow is sampled at 2 or more finite, strictly "
                         "increasing times")
    grad = oracle = _gradient_fn(ext_or_f)
    x0 = np.asarray(x0, dtype=float)
    limit = 1e6 * (math.hypot(*x0) + 1.0)
    nfev = 0

    def velocity(t, x):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_EVALS:
            raise BlowUp(f"step size collapsed: {MAX_EVALS} gradient evaluations "
                         f"reached only t = {t:.6g}")
        return -np.asarray(oracle(x), dtype=float)

    def escape(t, x):
        return limit - math.hypot(*x)
    escape.terminal = True

    try:
        # an overflowing trial step is rejected by the error control, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(velocity, (times[0], times[-1]), x0, method="RK45",
                            t_eval=times, rtol=RTOL, atol=ATOL, events=escape)
    finally:
        # the solver and its right-hand side form a reference cycle that only
        # the cyclic garbage collector frees; unbinding the oracle keeps that
        # cycle from holding F (240 kB at N = 5000) past this call
        oracle = None
    if sol.status == 1:
        raise BlowUp(f"state norm exceeds {limit:.3g} at t = {sol.t_events[0][0]:.6g}")
    if sol.status != 0:
        raise BlowUp(f"flow integration failed: {sol.message}")
    states = sol.y.T
    if not np.isfinite(states).all():
        raise BlowUp("flow state is not finite")
    if isinstance(ext_or_f, ConvexExtension):  # eval_grad takes row blocks
        g = np.concatenate([grad(states[i:i + SPEED_ROWS])
                            for i in range(0, len(states), SPEED_ROWS)])
    else:
        g = np.array([grad(x) for x in states], dtype=float)
    speeds = np.linalg.norm(g, axis=1)
    return Trajectory(times=times, states=states, speeds=speeds,
                      grad_evals=nfev + len(times))


@dataclass(frozen=True)
class RoundtripMetrics:
    sup_distance: float
    terminal_distance: float
    hausdorff: float

    def to_json_dict(self) -> dict:
        return {"sup_distance": self.sup_distance,
                "terminal_distance": self.terminal_distance,
                "hausdorff": self.hausdorff}


def roundtrip_error(traj: Trajectory, reparam: ReparamCurve) -> RoundtripMetrics:
    """Distance between the integrated flow and the reparameterized curve.

    Pointwise distances compare the trajectory against the reparameterized
    curve interpolated at the trajectory times; the Hausdorff distance treats
    both as point sets.
    """
    ref = np.column_stack([
        np.interp(traj.times, reparam.times, reparam.points[:, k])
        for k in range(reparam.points.shape[1])
    ])
    d = np.linalg.norm(traj.states - ref, axis=1)
    pair = cdist(traj.states, reparam.points)
    hausdorff = max(float(pair.min(axis=1).max()), float(pair.min(axis=0).max()))
    return RoundtripMetrics(sup_distance=float(d.max()),
                            terminal_distance=float(d[-1]),
                            hausdorff=hausdorff)


def check_flow_self_contracted(f_grad, x0, t_end: float, dt: float | None = None,
                               n_resample: int = 200,
                               speed_floor: float = 1e-6) -> contract.ContractReport:
    """Integrate a gradient flow and test its orbit for strong contraction.

    The trajectory is truncated at its stationary tail (speed below
    ``speed_floor``), arc-length reparameterized, and run through the
    pairwise contraction check; c0 > 0 upgrades the level to uniform. The
    orbit is sampled every ``dt`` (default 1e-3 t_end) by ``sample_flow``.
    """
    if dt is None:
        dt = 1e-3 * t_end
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    traj = sample_flow(f_grad, x0, np.linspace(0.0, t_end, round(t_end / dt) + 1))
    alive = traj.speeds >= speed_floor
    keep = len(traj.speeds) if alive.all() else max(int(np.argmin(alive)), 3)
    pts = traj.states[:keep]
    # drop numerically coincident consecutive samples before interpolation
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    mask = np.concatenate([[True], seg > 1e-13 * max(1.0, np.linalg.norm(pts[0]))])
    pts = pts[mask]
    if len(pts) < 3:
        raise ValueError("trajectory has fewer than 3 distinct points; "
                         "start away from a stationary point")
    orbit = from_samples(pts, n_resample)
    return contract.upgrade_uniform(contract.check_strong(orbit))


@dataclass(frozen=True)
class EnergyTrace:
    values: np.ndarray
    residuals: np.ndarray
    max_residual: float


def trace_energy(traj: Trajectory, f_value, tol: float = 1e-6) -> EnergyTrace:
    """Check f(x(s_k)) - f(x(s_M)) = int_{s_k}^{s_M} ||x'||^2 along the flow.

    The right side uses cumulative Simpson over the stored speeds. Raises
    IdentityViolated when the max residual exceeds ``tol``.
    """
    values = np.array([float(f_value(x)) for x in traj.states])
    if len(values) < 3:
        residuals = np.zeros_like(values)
    else:
        cum = cumulative_simpson(traj.speeds**2, x=traj.times, initial=0.0)
        tail = cum[-1] - cum
        residuals = values - values[-1] - tail
    max_res = float(np.abs(residuals).max())
    if max_res > tol:
        raise IdentityViolated(f"energy identity residual {max_res:.3g} exceeds {tol:.3g}")
    return EnergyTrace(values=values, residuals=residuals, max_residual=max_res)
