"""Gradient-flow integration, roundtrip metrics, and the converse check.

``sample_flow`` integrates x' = -grad F(x) with error control: the embedded
Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
Solving ODEs I, II.4), stepped here with the initial step, RMS error norm and
step controller of SciPy's ``RK45``, whose steps it reproduces bit for bit.
A step evaluates the gradient six times, each written negated into its row
of the stage derivatives, and makes besides only the array operations whose
results decide its bits: one ``dot`` of the stage derivatives per stage, for
the update and for the error estimate, each on the operand layouts that
``RK45`` uses, since a BLAS dot may fuse multiply-adds and a Python sum of the
stage products would round differently; the elementwise products, sums and
quotients in place, with 0-d array operands; and the step size, times and
error norm as Python floats. Each step's quartic dense output gives the
samples at the requested times that it covers, one ``dot`` per step with the
elementwise work done over all samples at once, and, when the state norm
crosses its limit, the crossing time by Brent's method. The pipeline's
roundtrip and the converse check use it.
``integrate``, classical fixed-step RK4 on Python floats, is kept as the
fixed-step reference whose error behaves predictably for the order checks
and the ``flow --dt`` command.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from . import contract
from ._scan import SMALL_BLOCK, map_blocks, scratch
from .curve import Curve, from_samples
from .errors import BlowUp, IdentityViolated
from .extend import ConvexExtension, eval_grad
from .numint import brentq, cumulative_simpson
from .repar import ReparamCurve

GRAD_STOP = 1e-8
# sample_flow's error control: relative and absolute tolerances
RTOL = 1e-8
ATOL = 1e-9
# sample_flow gives up after this many gradient evaluations
MAX_EVALS = 100_000
# samples per eval_grad call when sample_flow evaluates an extension's speeds
SPEED_ROWS = 64
# Dormand-Prince 5(4): stage times C, stage weights A, fifth-order weights B,
# error weights E (fifth minus fourth order, the last on the step's final
# derivative) and the dense-output polynomial P with Shampine's (1986) c_6
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step controller: safety factor, and the bounds on one step's change of size
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10


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


def _checked(g, shape) -> np.ndarray:
    """The oracle's gradient ``g`` as a float array; ValueError unless of ``shape``."""
    g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise ValueError(f"the gradient oracle returned shape {g.shape} "
                         f"for a state of shape {shape}")
    return g


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
        return np.ascontiguousarray(_checked(grad(np.array(y)), shape))

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
    BlowUp when the state norm reaches 1e6 (||x0|| + 1), when the step size
    falls below 10 float spacings of t or more than MAX_EVALS evaluations
    are made, or when a state is not finite. ``grad_evals`` counts the
    gradient evaluations. Steps, samples and the escape time are bitwise
    those of ``solve_ivp`` with method RK45, ``t_eval`` and a terminal event.
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

    def velocity(t, x, out=None):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_EVALS:
            raise BlowUp(f"step size collapsed: {MAX_EVALS} gradient evaluations "
                         f"reached only t = {t:.6g}")
        return np.negative(_checked(oracle(x), x0.shape), out=out)

    t_list = times.tolist()
    covered = []  # per step that covers samples: Q, t_old, h, y_old and their count
    done = 0  # samples covered
    # an overflowing trial step is rejected by the error control, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for t_old, t, y_old, y, K in _dopri_steps(velocity, t_list[0], x0, t_list[-1]):
            # the escape gap is positive at x0 (a finite state), so this is
            # solve_ivp's sign test; a NaN gap fails both, and the error
            # control rejects every step to a NaN state
            if limit - math.hypot(*y.tolist()) <= 0.0:
                dense = _dense_output(t_old, t, y_old, K)
                t = brentq(lambda s: limit - math.hypot(*dense(s)), t_old, t)
                raise BlowUp(f"state norm exceeds {limit:.3g} at t = {t:.6g}")
            end = bisect_right(t_list, t, done)
            if end > done:
                covered.append((K.T.dot(_P), t_old, t - t_old, y_old, end - done))
                done = end
        states = _dense_samples(covered, times).T
    if not np.isfinite(states).all():
        raise BlowUp("flow state is not finite")
    return Trajectory(times=times, states=states, speeds=None, grad_evals=nfev)


def _rms(v):
    """Root-mean-square norm, the error norm of the step-size control."""
    return np.linalg.norm(v) / v.size ** 0.5


def _dopri_steps(fun, t, y, t_bound):
    """The accepted Dormand-Prince 5(4) steps of y' = fun(t, y) from t to t_bound.

    ``fun(t, y, out)`` writes y' into the array ``out``; with ``out`` None it
    returns a new array. Yields ``(t_old, t, y_old, y, K)`` per step, K
    holding the stage derivatives, the last at (t, y); K is overwritten by
    the next step. The initial step, the error norm and the step-size
    controller are those of SciPy's ``RK45`` (Hairer, Norsett & Wanner,
    II.4), operation for operation. Raises BlowUp when a step would fall
    below 10 spacings of t.

    The K.T views and weight rows are made once per call. The first stage
    derivative of a step is the last of the step before, and so is |y|;
    ``sqrt(e . e) / sqrt(n)`` is ``np.linalg.norm``'s RMS norm of e.
    """
    n = len(y)
    K = np.empty((len(_C) + 1, n))
    # per stage: the derivatives so far as a K.T view, their weights, the
    # stage's time fraction and its row of K
    stages = [(K[:s].T, _A[s, :s], float(_C[s]), K[s]) for s in range(1, len(_C))]
    K_B, K_E, f_new = K[:-1].T, K.T, K[-1]
    abs_y, abs_y_new, scale = np.abs(y), np.empty(n), np.empty(n)
    # the step size and tolerances as 0-d arrays, cheaper ufunc operands than floats
    h_arr, rtol, atol = np.empty(()), np.array(RTOL), np.array(ATOL)
    root_n = n ** 0.5
    fun(t, y, K[0])
    h_abs = float(_initial_step(fun, t, y, K[0], t_bound))
    exponent = -1 / 5  # -1 / (order of the error estimate + 1)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise BlowUp("flow integration failed: Required step size is "
                             "less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            h_arr.fill(h)
            for K_s, a, c, row in stages:
                dy = K_s.dot(a)
                dy *= h_arr
                fun(t + c * h, y + dy, row)
            dy = K_B.dot(_B)
            dy *= h_arr
            y_new = y + dy
            fun(t + h, y_new, f_new)
            np.abs(y_new, out=abs_y_new)
            np.maximum(abs_y, abs_y_new, out=scale)
            scale *= rtol
            scale += atol
            err = K_E.dot(_E)
            err *= h_arr
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / root_n
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
        yield t, t_new, y, y_new, K
        t, y = t_new, y_new
        abs_y, abs_y_new = abs_y_new, abs_y
        K[0] = f_new


def _initial_step(fun, t0, y0, f0, t_bound):
    """The first step size, chosen from y0, f0 and one trial evaluation (HNW II.4)."""
    interval_length = abs(t_bound - t0)
    scale = ATOL + np.abs(y0) * RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _dense_output(t_old, t, y_old, K):
    """The step's quartic interpolant, a state at a scalar time."""
    Q = K.T.dot(_P)
    h = t - t_old
    return lambda s: h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old


def _dense_samples(covered, times) -> np.ndarray:
    """The steps' quartic interpolants at ``times``, one column per time.

    ``covered`` holds per step, in order, ``(Q, t_old, h, y_old, k)``: its
    dense-output coefficients and the number k of the times it covers. A
    sample is ``RK45``'s h Q p + y_old, p the powers x, x^2, x^3, x^4 of the
    step fraction x = (s - t_old) / h. The elementwise operations run over
    all times at once, and Q p is one dot per step on a C-ordered (4, k)
    copy of that step's powers, ``RK45``'s operand layout.
    """
    Q, t_old, h, y_old, k = zip(*covered)
    h = np.repeat(h, k)
    p = np.empty((4, len(times)))
    x = np.subtract(times, np.repeat(t_old, k), out=p[0])
    x /= h
    for r in range(1, 4):
        np.multiply(p[r - 1], x, out=p[r])
    y = np.empty((len(y_old[0]), len(times)))
    end = 0
    for q, n in zip(Q, k):
        start, end = end, end + n
        y[:, start:end] = q.dot(p[:, start:end].copy())
    y *= h
    y += np.repeat(np.array(y_old).T, k, axis=1)
    return y


@dataclass(frozen=True)
class RoundtripMetrics:
    sup_distance: float
    terminal_distance: float
    hausdorff: float


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
    return RoundtripMetrics(sup_distance=float(d.max()),
                            terminal_distance=float(d[-1]),
                            hausdorff=_hausdorff(traj.states, reparam.points))


def _hausdorff(a, b) -> float:
    """Hausdorff distance between the point sets of the rows of a and of b.

    Squared distances are summed in coordinate order, as ``cdist`` sums
    them, one block of rows of ``a`` at a time; each block gives its rows'
    minima and lowers the running minima of the columns. sqrt is monotone
    and correctly rounded, so taking it of the larger of the two maxima alone
    gives ``cdist``'s distance bit for bit. A block's coordinate differences
    are one subtraction of contiguous arrays: the block of ``a`` spread along
    the rows minus ``b`` tiled once down SMALL_BLOCK rows, since numpy
    subtracts a broadcast column several times more slowly.
    """
    d = a.shape[1]
    row_min = np.empty(len(a))
    col_min = np.full(len(b), np.inf)
    block_col_min = np.empty(len(b))
    b_tile = np.empty((d, min(len(a), SMALL_BLOCK), len(b)))
    b_tile[...] = b.T[:, None, :]

    def block(i0, i1):
        diff = scratch((d, i1 - i0, len(b)))
        diff[...] = a[i0:i1].T[:, :, None]
        np.subtract(diff, b_tile[:, :i1 - i0], out=diff)
        sq = np.multiply(diff, diff, out=diff)[0]
        for k in range(1, d):
            sq += diff[k]
        sq.min(axis=1, out=row_min[i0:i1])
        np.minimum(col_min, sq.min(axis=0, out=block_col_min), out=col_min)

    map_blocks(block, len(a))
    return math.sqrt(max(float(row_min.max()), float(col_min.max())))


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
        cum = cumulative_simpson(traj.speeds**2, x=traj.times)
        tail = cum[-1] - cum
        residuals = values - values[-1] - tail
    max_res = float(np.abs(residuals).max())
    if max_res > tol:
        raise IdentityViolated(f"energy identity residual {max_res:.3g} exceeds {tol:.3g}")
    return EnergyTrace(values=values, residuals=residuals, max_residual=max_res)
