"""Gradient-flow integration, roundtrip metrics, and the converse check.

Classical fixed-step RK4 on x' = -grad F(x): trajectories of convex flows
live in compact regions and the eps-smoothed extension gradients are smooth,
so fixed steps keep the error behavior predictable for the order checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.spatial.distance import cdist

from . import contract
from .curve import Curve, from_samples
from .errors import BlowUp, IdentityViolated
from .extend import ConvexExtension, eval_grad
from .repar import ReparamCurve

GRAD_STOP = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Gradient-flow samples: times, states, and speeds ||x'|| = ||grad F||."""

    times: np.ndarray
    states: np.ndarray
    speeds: np.ndarray

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
    pairwise contraction check; c0 > 0 upgrades the level to uniform.
    """
    if dt is None:
        dt = 1e-3 * t_end
    traj = integrate(f_grad, x0, t_end, dt)
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
