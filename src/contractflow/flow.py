"""Gradient-flow integration, roundtrip metrics, and the converse check.

``sample_flow`` integrates x' = -grad F(x) with error control: the embedded
Dormand-Prince 5(4) pair, driven step by step through scipy's ``RK45``
stepper, whose step size follows the local error; each step's dense output
gives the samples at the requested times that it covers and, when the state
norm crosses its limit, the crossing time. The pipeline's roundtrip and the
converse check use it. ``integrate``, classical fixed-step RK4 on Python
floats, is kept as the fixed-step reference whose error behaves predictably
for the order checks and the ``flow --dt`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import RK45, cumulative_simpson
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

from . import contract
from .curve import Curve, from_samples
from .errors import BlowUp, IdentityViolated
from .extend import ConvexExtension, eval_grad
from .repar import ReparamCurve

GRAD_STOP = 1e-8
# sample_flow's error control: RK45 relative and absolute tolerances
RTOL = 1e-8
ATOL = 1e-9
# sample_flow gives up after this many gradient evaluations
MAX_EVALS = 100_000
# samples per eval_grad call when sample_flow evaluates an extension's speeds
SPEED_ROWS = 64
# the escape time is solved to 4 EPS, as solve_ivp solves for its event times
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Trajectory:
    """Gradient-flow samples: times, states, and speeds ||x'|| = ||grad F||.

    ``speeds`` is None when they were not evaluated (``sample_states``).
    ``grad_evals`` is the number of gradient evaluations ``sample_flow`` or
    ``sample_states`` made for them (None when not counted).
    """

    times: np.ndarray
    states: np.ndarray
    speeds: np.ndarray | None
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

    The state and the stage gradients are Python floats, so a step makes no
    array temporaries. The stages do, in order, the float operations of the
    array form x + (h/2) k and x + (h/6) (((k1 + 2 k2) + 2 k3) + k4) with
    k = -g, and each speed is ``np.linalg.norm``'s sqrt(g . g) of the
    oracle's array, so the trajectory is that of the array form bit for bit,
    signed zeros included.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    grad = _gradient_fn(ext_or_f)
    x = np.asarray(x0, dtype=float)
    limit = 1e6 * (np.linalg.norm(x) + 1.0)
    shape = x.shape
    x = x.tolist()

    def gradient(y):
        # a fresh array per call, as the oracle may keep or return it; a
        # contiguous gradient, as np.linalg.norm dots a contiguous copy
        g = np.ascontiguousarray(grad(np.array(y)), dtype=float)
        if g.shape != shape:
            raise ValueError(f"the gradient oracle returned shape {g.shape} "
                             f"for a state of shape {shape}")
        return g

    g = gradient(x)
    times, states, speeds = [0.0], [x], [math.sqrt(g.dot(g))]
    g = g.tolist()
    t = 0.0
    while t < t_end * (1.0 - 1e-12):
        if speeds[-1] < GRAD_STOP:
            break
        h = min(dt, t_end - t)
        c = 0.5 * h
        g2 = gradient([a + c * -b for a, b in zip(x, g)]).tolist()
        g3 = gradient([a + c * -b for a, b in zip(x, g2)]).tolist()
        g4 = gradient([a + h * -b for a, b in zip(x, g3)]).tolist()
        c = h / 6.0
        x = [a + c * (((-b1 + 2.0 * -b2) + 2.0 * -b3) + -b4)
             for a, b1, b2, b3, b4 in zip(x, g, g2, g3, g4)]
        t += h
        norm = math.hypot(*x)  # no overflow warning; an inf or NaN norm fails too
        if not norm <= limit:
            raise BlowUp(f"state norm {norm:.3g} is not within {limit:.3g} at t = {t:.6g}")
        g = gradient(x)
        times.append(t)
        states.append(x)
        speeds.append(math.sqrt(g.dot(g)))
        g = g.tolist()
    return Trajectory(times=np.array(times), states=np.array(states),
                      speeds=np.array(speeds))


def sample_flow(ext_or_f, x0, times) -> Trajectory:
    """Sample x' = -grad F(x), x(times[0]) = x0, at ``times`` (increasing, finite).

    The states of ``sample_states``, with the speeds ||grad F|| evaluated
    once per sample; ``grad_evals`` counts the solver's evaluations and one
    per sample.
    """
    traj = sample_states(ext_or_f, x0, times)
    speeds = _speeds(ext_or_f, traj.states)
    return replace(traj, speeds=speeds, grad_evals=traj.grad_evals + len(speeds))


def _speeds(ext_or_f, states) -> np.ndarray:
    grad = _gradient_fn(ext_or_f)
    if isinstance(ext_or_f, ConvexExtension):  # eval_grad takes row blocks
        g = np.concatenate([grad(states[i:i + SPEED_ROWS])
                            for i in range(0, len(states), SPEED_ROWS)])
    else:
        g = np.array([grad(x) for x in states], dtype=float)
    return np.linalg.norm(g, axis=1)


def final_speed(ext_or_f, states) -> tuple:
    """``(||grad F||, evaluations)`` at the last of ``states``.

    Bitwise the last speed of ``sample_flow``: an extension's gradient is
    evaluated on the same last block of SPEED_ROWS rows, since one row alone
    may round differently, and every row of that block counts.
    """
    tail = states[-1:]
    if isinstance(ext_or_f, ConvexExtension):
        tail = states[(len(states) - 1) // SPEED_ROWS * SPEED_ROWS:]
    return float(_speeds(ext_or_f, tail)[-1]), len(tail)


def sample_states(ext_or_f, x0, times) -> Trajectory:
    """Sample x' = -grad F(x), x(times[0]) = x0, at ``times``; no speeds.

    Dormand-Prince 5(4) with error control (rtol RTOL, atol ATOL). Raises
    BlowUp when the state norm reaches 1e6 (||x0|| + 1), when the solver
    fails or makes more than MAX_EVALS evaluations, or when a state is not
    finite. ``grad_evals`` counts the solver's gradient evaluations. Steps,
    samples and the escape time are bitwise those of ``solve_ivp`` with
    ``t_eval`` and a terminal event, without its per-step event bookkeeping.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) >= 2 and np.isfinite(times).all()
            and (np.diff(times) > 0.0).all()):
        raise ValueError("a flow is sampled at 2 or more finite, strictly "
                         "increasing times")
    oracle = _gradient_fn(ext_or_f)
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

    samples = []
    try:
        # an overflowing trial step is rejected by the error control, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            solver = RK45(velocity, float(times[0]), x0, float(times[-1]),
                          rtol=RTOL, atol=ATOL)
            done = 0  # samples taken
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise BlowUp(f"flow integration failed: {message}")
                # the escape gap is positive at x0 (RK45 takes finite states
                # only), so this is solve_ivp's sign test; a NaN gap fails both,
                # and the error control rejects every step to a NaN state
                if limit - math.hypot(*solver.y) <= 0.0:
                    dense = solver.dense_output()
                    t = brentq(lambda s: limit - math.hypot(*dense(s)),
                               solver.t_old, solver.t, xtol=4 * EPS, rtol=4 * EPS)
                    raise BlowUp(f"state norm exceeds {limit:.3g} at t = {t:.6g}")
                end = int(np.searchsorted(times, solver.t, side="right"))
                if end > done:
                    samples.append(solver.dense_output()(times[done:end]))
                    done = end
    finally:
        # the solver and its right-hand side form a reference cycle that only
        # the cyclic garbage collector frees; unbinding the oracle keeps that
        # cycle from holding F (240 kB at N = 5000) past this call
        oracle = None
    states = np.hstack(samples).T
    if not np.isfinite(states).all():
        raise BlowUp("flow state is not finite")
    return Trajectory(times=times, states=states, speeds=None, grad_evals=nfev)


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


def check_flow_self_contracted(f_grad, x0, t_end: float) -> contract.ContractReport:
    """Integrate a gradient flow and test its orbit for strong contraction.

    The trajectory is truncated at its stationary tail (speed below 1e-6),
    arc-length reparameterized to 200 samples, and run through the pairwise
    contraction check; c0 > 0 upgrades the level to uniform. The orbit is
    sampled at 1001 equally spaced times of [0, t_end] by ``sample_flow``.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    traj = sample_flow(f_grad, x0, np.linspace(0.0, t_end, 1001))
    alive = traj.speeds >= 1e-6
    keep = len(traj.speeds) if alive.all() else max(int(np.argmin(alive)), 3)
    pts = traj.states[:keep]
    # drop numerically coincident consecutive samples before interpolation
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    mask = np.concatenate([[True], seg > 1e-13 * max(1.0, np.linalg.norm(pts[0]))])
    pts = pts[mask]
    if len(pts) < 3:
        raise ValueError("trajectory has fewer than 3 distinct points; "
                         "start away from a stationary point")
    orbit = from_samples(pts, 200)
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
