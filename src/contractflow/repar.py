"""Speed profiles m, the (M)-inequality, and the time change theta.

Three profile families are supported: the exponential rate e^{bt} (finite
total flow time), the endpoint profile e^{phi(t)} / phi'(t) with
phi = b (L t - t^2 / 2) (m blows up at the tip, infinite flow time), and the
zeta profile built from a user-supplied integrable majorant. All (M)
left-hand sides are evaluated through stable closed forms, never through
m(t) times a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scan import mask_lower, pair_gaps, pairwise_min, scratch, tangent_chord
from .curve import Curve, RegularityEstimate
from .errors import (
    DivergentA,
    HorizonExceedsT,
    HorizonOverflow,
    HypothesisViolated,
    NonPositiveC0,
)
from .numint import CumulativeTable, adaptive_simpson, cumulative_simpson, tail_limit_integral

B_MIN = 1.0  # rate floor; degenerate curves (C1 = 0) otherwise give b = 0
ZETA_MIN = 1e-3  # constant majorant standing in for a zero zeta


@dataclass(frozen=True)
class ReparamPlan:
    """Reparameterization profile with closed-form evaluators.

    m is positive and nondecreasing on [0, L); theta(t) = integral of m;
    T = theta(L) is the total flow time (may be +inf). lhs_M(t, s, out=None)
    is the (M) left-hand side m(t) int_t^s 1/m, written into ``out`` when
    given (the pair scan of verify_M passes a reused buffer).
    """

    kind: str
    b: float
    c0: float | None
    c1: float | None
    L: float
    T: float
    m: object = field(repr=False, compare=False)
    inv_m: object = field(repr=False, compare=False)
    inv_m_integral: object = field(repr=False, compare=False)
    lhs_M: object = field(repr=False, compare=False)
    theta: object = field(repr=False, compare=False)
    theta_inv: object = field(repr=False, compare=False)


def _validate_profile(plan: ReparamPlan) -> None:
    # m strictly positive and nondecreasing, probed on a 10^3 grid of [0, L)
    grid = np.linspace(0.0, plan.L * (1.0 - 1e-9), 1000)
    with np.errstate(over="ignore"):
        v = np.asarray(plan.m(grid), dtype=float)
    if not np.all(v > 0.0):
        raise ValueError(f"{plan.kind} profile is not strictly positive")
    fin = v[np.isfinite(v)]
    if np.any(np.diff(fin) < -1e-9 * np.maximum(fin[:-1], 1.0)):
        raise ValueError(f"{plan.kind} profile is not nondecreasing")
    th0 = float(plan.theta(0.0))
    if abs(th0) > 1e-12:
        raise ValueError("theta(0) must be 0")


def _exponential(curve: Curve, b: float, c0, c1) -> ReparamPlan:
    L = curve.length

    def m(t):
        with np.errstate(over="ignore"):
            return np.exp(b * np.asarray(t, dtype=float))

    inv_m = lambda t: np.exp(-b * np.asarray(t, dtype=float))
    inv_m_integral = lambda t, s: (np.exp(-b * np.asarray(t, dtype=float))
                                   - np.exp(-b * np.asarray(s, dtype=float))) / b

    def lhs(t, s, out=None):
        # -expm1(-b (s - t)) / b
        gap = np.subtract(np.asarray(s, dtype=float), np.asarray(t, dtype=float), out=out)
        with np.errstate(over="ignore"):  # invalid s <= t entries get masked upstream
            return np.divide(np.expm1(np.multiply(gap, -b, out=out), out=out), -b, out=out)

    def theta(t):
        with np.errstate(over="ignore"):
            return np.expm1(b * np.asarray(t, dtype=float)) / b

    theta_inv = lambda s: np.log1p(b * np.asarray(s, dtype=float)) / b
    with np.errstate(over="ignore"):
        T = float(np.expm1(b * L) / b)
    plan = ReparamPlan(kind="exponential", b=b, c0=c0, c1=c1, L=L, T=T,
                       m=m, inv_m=inv_m, inv_m_integral=inv_m_integral,
                       lhs_M=lhs, theta=theta, theta_inv=theta_inv)
    _validate_profile(plan)
    return plan


def exponential_plan(curve: Curve, reg: RegularityEstimate, c0: float) -> ReparamPlan:
    """Exponential profile m(t) = e^{bt} with the certified-sufficient rate.

    b = 3 C1' e^{1/c0} where C1' = c1 L^{2 alpha - 1}, floored at B_MIN.
    Raises HorizonOverflow when b itself does not fit in float64.
    """
    if c0 <= 0.0:
        raise NonPositiveC0("exponential plan needs c0 > 0")
    L = curve.length
    c1p = reg.c1 * L ** (2.0 * reg.alpha - 1.0)
    log_b = math.log(3.0 * c1p) + 1.0 / c0 if c1p > 0.0 else -math.inf
    if log_b > np.log(np.finfo(float).max):
        raise HorizonOverflow(f"exponential rate b = 3 C1' e^(1/c0) = e^{log_b:.6g} "
                              f"overflows float64 (c0 = {c0:.3g})")
    b = max(math.exp(log_b), B_MIN)
    return _exponential(curve, b, c0, reg.c1)


def exponential_plan_with_rate(curve: Curve, b: float) -> ReparamPlan:
    """Exponential profile with a caller-chosen rate (no certification)."""
    if not 0.0 < b < math.inf:
        raise ValueError("rate b must be positive and finite")
    return _exponential(curve, b, None, None)


def _phi_profile(phi, dphi):
    """The evaluators m = e^phi / phi', 1/m and int_t^s 1/m = e^{-phi(t)} - e^{-phi(s)}
    of a profile with increasing phi; m is +inf where phi' is not positive."""

    def m(t):
        with np.errstate(over="ignore", divide="ignore"):
            d = dphi(t)
            return np.where(d > 0.0, np.exp(phi(t)) / np.where(d > 0.0, d, 1.0), np.inf)

    inv_m = lambda t: dphi(t) * np.exp(-phi(t))
    inv_m_integral = lambda t, s: np.exp(-phi(t)) - np.exp(-phi(s))
    return m, inv_m, inv_m_integral


def endpoint_plan(curve: Curve, c0: float, c1_cubic: float) -> ReparamPlan:
    """Endpoint profile m(t) = e^{phi(t)} / (b (L - t)), phi = b (L t - t^2/2).

    m blows up at t = L, so the reparameterized curve arrives at the tip with
    zero speed and T = +inf. Requires the cubic Taylor constant
    c1_cubic = ||gamma'''||_inf / 6; the rate is b = max(3 c1_cubic / c0, B_MIN),
    a 1.5x margin over the proof's requirement b c0 > 2 C1.
    """
    if c0 <= 0.0:
        raise NonPositiveC0("endpoint plan needs c0 > 0")
    if c1_cubic < 0.0:
        raise ValueError("c1_cubic must be nonnegative")
    L = curve.length
    b = max(3.0 * c1_cubic / c0, B_MIN)

    def phi(t):
        t = np.asarray(t, dtype=float)
        return b * (L * t - 0.5 * t * t)

    def dphi(t):
        return b * (L - np.asarray(t, dtype=float))

    # b >= 1, so phi' = b (L - t) > 0 exactly where t < L
    m, inv_m, inv_m_integral = _phi_profile(phi, dphi)

    def lhs(t, s, out=None):
        # -expm1(-delta) / phi'(t), delta = b (s - t) (L - (s + t) / 2)
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        delta = np.multiply(np.subtract(s, t, out=out), b, out=out)
        delta = np.multiply(delta, L - 0.5 * (s + t), out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.expm1(np.negative(delta, out=out), out=out)
            return np.divide(val, -dphi(t), out=out)

    # theta(L - w) = K (ln(L/w) - D(w)), K = e^{b L^2 / 2} / b,
    # D(w) = int_w^L (1 - e^{-b u^2 / 2}) du / u  (proper at u = 0)
    def g(u):
        if u == 0.0:
            return 0.0
        return (1.0 - math.exp(-0.5 * b * u * u)) / u

    # D is tabulated once: adaptive Simpson on 256 cells, Hermite in between;
    # g is evaluated once per node, and each cell starts from its end values
    nodes = np.linspace(0.0, L, 257)
    g_nodes = [g(u) for u in nodes]
    cells = [adaptive_simpson(g, x0, x1, fa=g0, fb=g1) for x0, x1, g0, g1
             in zip(nodes[:-1], nodes[1:], g_nodes[:-1], g_nodes[1:])]
    d_cum = CumulativeTable(nodes, np.concatenate([[0.0], np.cumsum(cells)]), g_nodes)
    d_total = d_cum.total
    log_k = 0.5 * b * L * L - math.log(b)

    def theta(t):
        t = np.asarray(t, dtype=float)
        w = L - t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            j = np.log(L / w) - (d_total - d_cum(w))
            return np.where(w <= 0.0, math.inf, np.where(t <= 0.0, 0.0, np.exp(log_k) * j))

    def theta_inv(s):
        shape = np.shape(s)
        s = np.ravel(np.asarray(s, dtype=float))
        if log_k > 700.0:
            raise ValueError("theta is not representable in float64 for this rate b")
        k_val = math.exp(log_k)
        # Newton in v = log w; theta decreasing in w, d theta / d v = -K e^{-b w^2 / 2}
        v = np.minimum(math.log(L) - s / k_val - d_total, math.log(L) - 1e-12)
        todo = np.flatnonzero(s > 0.0)
        for _ in range(100):
            if todo.size == 0:
                break
            w = np.exp(v[todo])
            tip = w >= L
            w[tip] = L * (1.0 - 1e-15)
            v[todo[tip]] = np.log(w[tip])
            res = k_val * (np.log(L / w) - (d_total - d_cum(w))) - s[todo]
            go = np.abs(res) > 1e-12 * np.maximum(1.0, s[todo])
            v[todo[go]] += res[go] / (k_val * np.exp(-0.5 * b * w[go] ** 2))
            todo = todo[go]
        return np.where(s > 0.0, L - np.exp(v), 0.0).reshape(shape)

    plan = ReparamPlan(kind="endpoint", b=b, c0=c0, c1=c1_cubic, L=L, T=math.inf,
                       m=m, inv_m=inv_m, inv_m_integral=inv_m_integral,
                       lhs_M=lhs, theta=theta, theta_inv=theta_inv)
    _validate_profile(plan)
    return plan


def _check_zeta_hypothesis(curve: Curve, zeta) -> None:
    t = curve.params
    zvals = np.asarray(zeta(t), dtype=float)

    def block(i0, i1):
        # ip / gap - (1 - zeta(s) gap^2)
        ip, gaps = tangent_chord(curve, i0, i1), pair_gaps(t, i0, i1)
        bound = scratch(ip.shape)
        np.multiply(gaps, gaps, out=bound)
        bound *= zvals[None, i0:]
        np.subtract(1.0, bound, out=bound)
        np.divide(ip, gaps, out=ip)
        ip -= bound
        return mask_lower(ip)

    worst, i, j = pairwise_min(block, len(t))
    if worst < -1e-9:
        raise HypothesisViolated(
            f"zeta bound fails by {worst:.3g} at (t, s) = ({t[i]:.6g}, {t[j]:.6g})")


def zeta_plan(curve: Curve, c0: float, zeta) -> ReparamPlan:
    """Profile from an increasing majorant zeta with finite A = int_0^L zeta.

    phi'(t) = (2/c0)(A - int_0^t zeta), m = e^phi / phi'. The pairwise
    hypothesis <T(t), (gamma(s)-gamma(t))/(s-t)> >= 1 - zeta(s)(s-t)^2 is
    verified on the grid before the profile is built. A majorant with
    A < 1e-12 (zeta == 0) is replaced by the constant ZETA_MIN.
    """
    if c0 <= 0.0:
        raise NonPositiveC0("zeta plan needs c0 > 0")
    L = curve.length
    probe = np.linspace(0.0, L * (1.0 - 1e-9), 257)
    pv = np.asarray(zeta(probe), dtype=float)
    if np.any(pv < 0.0):
        raise ValueError("zeta must be nonnegative")
    if np.any(np.diff(pv) < -1e-9 * np.maximum(np.abs(pv[:-1]), 1.0)):
        raise ValueError("zeta must be nondecreasing")

    a_val, converged = tail_limit_integral(lambda u: float(zeta(u)), 0.0, L)
    if not converged:
        raise DivergentA("integral of zeta over [0, L) does not converge")
    if a_val < 1e-12:
        # degenerate majorant (zeta == 0): fall back to the constant floor
        zeta_fn = lambda t: np.full_like(np.asarray(t, dtype=float), ZETA_MIN)
        a_val = ZETA_MIN * L
    else:
        zeta_fn = lambda t: np.asarray(zeta(t), dtype=float)

    _check_zeta_hypothesis(curve, zeta_fn)

    # dense cumulative tables keep phi evaluations vectorized; the table stops
    # short of L (zeta may blow up there) and the sliver is integrated
    # directly, so the tail a_eff - Z(t) stays positive on [0, L)
    L_z = L * (1.0 - 1e-6)
    xg = np.linspace(0.0, L_z, 16385)
    zg = np.asarray(zeta_fn(xg), dtype=float)
    z_tab = cumulative_simpson(zg, x=xg)
    w_tab = cumulative_simpson(z_tab, x=xg)
    sliver, _ = tail_limit_integral(lambda u: float(zeta_fn(u)), L_z, L)
    a_eff = float(z_tab[-1]) + max(float(sliver), 0.0)
    scale = 2.0 / c0
    phi_end = scale * (a_eff * L_z - w_tab[-1])
    dphi_end = scale * (a_eff - z_tab[-1])

    def dphi(t):
        t = np.asarray(t, dtype=float)
        tail = a_eff - np.interp(np.clip(t, 0.0, L_z), xg, z_tab)
        return scale * np.maximum(tail, 0.0)

    def phi(t):
        t = np.asarray(t, dtype=float)
        inner = np.clip(t, 0.0, L_z)
        base = scale * (a_eff * inner - np.interp(inner, xg, w_tab))
        # linear continuation over the capped sliver near L
        return np.where(t > L_z, phi_end + dphi_end * (t - L_z), base)

    m, inv_m, inv_m_integral = _phi_profile(phi, dphi)

    def lhs(t, s, out=None):
        # -expm1(-(phi(s) - phi(t))) / phi'(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.negative(np.subtract(phi(s), phi(t), out=out), out=out)
            return np.divide(np.expm1(delta, out=out), -dphi(t), out=out)

    # theta is tabulated once up to t_cap, the first grid node at or past
    # 0.999 L and past the flow horizon's t_(N-2); the sliver up to L, where m
    # may blow up, is integrated directly and never inverted. phi is linear
    # between grid nodes, so m is smooth within a grid cell and each Simpson
    # pair spans part of one cell: the table splits each cell in 2, in 8 past
    # 0.99 L, where m grows steeply, and in 128 past 0.999 L, where 8 splits
    # miss the table's 1e-9 accuracy
    k_fine = int(np.searchsorted(xg, 0.99 * L))
    k_steep = int(np.searchsorted(xg, 0.999 * L))
    k_cap = min(int(np.searchsorted(xg, max(0.999 * L, float(curve.params[-2])))),
                len(xg) - 1)
    t_cap = float(xg[k_cap])
    nodes = np.concatenate([np.linspace(0.0, xg[k_fine], 2 * k_fine + 1)[:-1],
                            np.linspace(xg[k_fine], xg[k_steep], 8 * (k_steep - k_fine) + 1),
                            np.linspace(xg[k_steep], t_cap, 128 * (k_cap - k_steep) + 1)[1:]])
    tab = CumulativeTable.simpson(nodes, m(nodes))
    # the sliver is integrated in units of theta(t_cap): m may be huge, and the
    # rounding noise of phi' near L then defeats an absolute tolerance
    m_rel = lambda u: float(m(u)) / tab.total

    def theta(t):
        t = np.asarray(t, dtype=float)
        out = np.ravel(tab(t))
        for k in np.flatnonzero((t > t_cap) & (t < L)):
            out[k] = tab.total * (1.0 + adaptive_simpson(m_rel, t_cap, t.flat[k]))
        out[np.ravel(t >= L)] = t_total
        return out.reshape(t.shape)

    def theta_inv(s):
        s = np.asarray(s, dtype=float)
        if np.any(s > tab.total):
            raise ValueError(f"theta inversion beyond t = {t_cap / L:.5f} L is not "
                             "tabulated; use a smaller horizon")
        return tab.inverse(s)

    t_total = math.inf
    if math.isfinite(tab.total):
        sliver, t_conv = tail_limit_integral(m_rel, t_cap, L, max_halvings=40)
        if t_conv:
            t_total = tab.total * (1.0 + float(sliver))

    plan = ReparamPlan(kind="zeta", b=2.0 * a_val / (c0 * L), c0=c0, c1=None,
                       L=L, T=t_total, m=m, inv_m=inv_m,
                       inv_m_integral=inv_m_integral, lhs_M=lhs,
                       theta=theta, theta_inv=theta_inv)
    _validate_profile(plan)
    return plan


@dataclass(frozen=True)
class MReport:
    holds: bool
    worst_pair: tuple  # (t, s, lhs, rhs) minimizing rhs - lhs
    margin: float


def verify_M(curve: Curve, plan: ReparamPlan) -> MReport:
    """Scan the (M)-inequality m(t) int_t^s 1/m < <T(t), gamma(s)-gamma(t)>.

    All grid pairs i < j are evaluated through the plan's closed-form LHS,
    then ten off-grid pairs around the worst one refine the margin (the
    binding constraint lives at small s - t, which uniform grids straddle).
    For endpoint/zeta kinds pairs with s = L are excluded: the inequality is
    only required for s < L there. Rows without an admissible column are not
    scanned.
    """
    t = curve.params
    n = len(t)
    jmax = n if plan.kind == "exponential" else n - 1

    def block(i0, i1):
        ip = tangent_chord(curve, i0, i1, jmax)
        with np.errstate(over="ignore"):  # only the masked pairs s <= t overflow
            ip -= plan.lhs_M(t[i0:i1, None], t[None, i0:jmax], out=scratch(ip.shape))
        return mask_lower(ip)

    margin, i, j = pairwise_min(block, max(jmax - 1, 1))
    t0, s0 = float(t[i]), float(t[j])
    worst = (t0, s0)

    # refinement: halved-gap neighbors around the worst pair
    step_t = float(t[min(i + 1, n - 1)] - t[max(i - 1, 0)]) / 2.0
    step_s = float(t[min(j + 1, n - 1)] - t[max(j - 1, 0)]) / 2.0
    s_max = float(t[jmax - 1])
    cands = []
    for dt_ in (-0.5 * step_t, 0.0, 0.5 * step_t):
        for ds_ in (-0.5 * step_s, 0.0, 0.5 * step_s):
            if dt_ == 0.0 and ds_ == 0.0:
                continue
            cands.append((t0 + dt_, s0 + ds_))
    mid = 0.5 * (t0 + s0)
    cands += [(t0, mid), (mid, s0)]
    gap_floor = 0.25 * min(step_t, step_s)  # degenerate gaps measure only fp noise
    clamped = [(min(max(tc, 0.0), s_max), min(max(sc, 0.0), s_max)) for tc, sc in cands]
    kept = [(tc, sc) for tc, sc in clamped if not sc - tc < gap_floor]
    if kept:
        # every kept candidate in one evaluation per curve quantity, each
        # entry as the scalar call gives it
        tcs, scs = np.array(kept).T
        T, Pt, Ps = curve.tangent_at(tcs), curve.point_at(tcs), curve.point_at(scs)
        lhs = plan.lhs_M(tcs, scs)
        for k, cand in enumerate(kept):
            mg = float(T[k] @ (Ps[k] - Pt[k])) - float(lhs[k])
            if mg < margin:
                margin, worst = mg, cand

    tw, sw = worst
    lhs_w = float(plan.lhs_M(tw, sw))
    rhs_w = lhs_w + margin
    return MReport(holds=bool(margin > 0.0), worst_pair=(tw, sw, lhs_w, rhs_w),
                   margin=float(margin))


@dataclass(frozen=True)
class ReparamCurve:
    """Samples of the reparameterized curve gamma o theta^{-1}."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray

    @property
    def speeds(self) -> np.ndarray:
        return np.linalg.norm(self.velocities, axis=1)


def reparameterize(curve: Curve, plan: ReparamPlan, n_out: int,
                   t_horizon: float) -> ReparamCurve:
    """Sample gamma-tilde = gamma o theta^{-1} on a uniform grid of [0, horizon].

    The velocity obeys gamma-tilde'(s) = gamma'(t) / m(t) at t = theta^{-1}(s).
    """
    if t_horizon <= 0.0:
        raise ValueError("t_horizon must be positive")
    if math.isfinite(plan.T) and t_horizon > plan.T * (1.0 + 1e-12):
        raise HorizonExceedsT(f"horizon {t_horizon} exceeds T = {plan.T}")
    s = np.linspace(0.0, min(t_horizon, plan.T), n_out)
    ts = np.clip(plan.theta_inv(s), 0.0, plan.L)
    vel = curve.tangent_at(ts) * np.asarray(plan.inv_m(ts), dtype=float)[:, None]
    return ReparamCurve(times=s, points=curve.point_at(ts), velocities=vel)
