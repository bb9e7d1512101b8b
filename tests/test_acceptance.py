"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 checks that the endpoint profile reaches the tip only in
infinite flow time by its divergence law: with m(t) = e^{phi(t)} / (b (L - t)),
theta(L - w) = K (ln(L/w) - D(w)) where K = e^{b L^2 / 2} / b and
D(w) = int_w^L (1 - e^{-b u^2 / 2}) du / u, so theta grows by K ln 10 for each
decade that w = L - t shrinks. Because 1 - e^{-x} <= x, the D term moves a
decade's increment below K ln 10 by at most K b (w_k^2 - w_{k+1}^2) / 4.
"""

import math
import time

import numpy as np
import pytest

import contractflow as cf
from contractflow.contract import ContractLevel
from contractflow.errors import InsufficientRegularity
from contractflow.numint import adaptive_simpson


def _line(k, ok, detail):
    print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_constants_pipeline():
    t0 = time.perf_counter()
    crv = cf.make_circle_arc(np.pi / 2, 200)
    c0 = cf.estimate_c0(crv)
    reg = cf.holder_seminorm(crv, 1.0, safety_factor=1.0)
    plan = cf.exponential_plan(crv, reg, c0)
    elapsed = time.perf_counter() - t0
    reference = 3.0 * (1 / 6) * (np.pi / 2) * math.exp(np.pi / 2)  # ~3.778
    rel = abs(plan.b - reference) / reference
    ok = 0.55 <= c0 <= 0.60 and rel <= 0.25 and elapsed < 1.0
    _line(1, ok, f"c0={c0:.4f} in [0.55,0.60], b={plan.b:.4f} "
                 f"({100*rel:.1f}% from {reference:.4f}), {elapsed:.2f}s")
    assert 0.55 <= c0 <= 0.60
    assert rel <= 0.25
    assert elapsed < 1.0


def test_criterion_2_m_inequality_certification():
    curves = {
        "segment": cf.make_segment([0, 0], [1, 0], 200),
        "quarter circle": cf.make_circle_arc(np.pi / 2, 200),
        "spiral": cf.make_log_spiral(0.5, 4 * np.pi, 200),
    }
    margins = {}
    for name, crv in curves.items():
        t0 = time.perf_counter()
        c0 = cf.estimate_c0(crv)
        reg = cf.holder_seminorm(crv, 1.0)
        plan = cf.exponential_plan(crv, reg, c0)
        rep = cf.verify_M(crv, plan)
        elapsed = time.perf_counter() - t0
        margins[name] = rep.margin
        assert rep.holds and rep.margin > 0.0, name
        assert elapsed < 5.0, name
    bad = cf.verify_M(curves["quarter circle"],
                      cf.exponential_plan_with_rate(curves["quarter circle"], 0.01))
    assert not bad.holds
    t, s, lhs, rhs = bad.worst_pair
    assert lhs > rhs and 0 <= t < s
    _line(2, True, "margins " + ", ".join(f"{k}={v:.2e}" for k, v in margins.items())
          + f"; b=0.01 fails with witness (t={t:.3f}, s={s:.3f})")


def test_criterion_3_azagra_mudarra_hypotheses():
    curves = {
        "segment": cf.make_segment([0, 0], [1, 0], 200),
        "quarter circle": cf.make_circle_arc(np.pi / 2, 200),
        "spiral": cf.make_log_spiral(0.5, 4 * np.pi, 200),
    }
    tested = []
    for name, crv in curves.items():
        c0 = cf.estimate_c0(crv)
        reg = cf.holder_seminorm(crv, 1.0)
        plans = {"exp": cf.exponential_plan(crv, reg, c0)}
        try:
            tdb = cf.third_deriv_bound(crv)
            plans["endpoint"] = cf.endpoint_plan(crv, c0, tdb.c1_cubic)
            plans["zeta"] = cf.zeta_plan(crv, c0, tdb.zeta)
        except InsufficientRegularity:
            pass  # not C^3 up to the tip: endpoint/zeta not applicable
        for kind, plan in plans.items():
            assert cf.verify_M(crv, plan).holds, (name, kind)
            jet = cf.curve_jet(crv, plan)
            assert cf.check_C(jet).passed, (name, kind)
            assert cf.check_CW1(jet).passed, (name, kind)
            tested.append(f"{name}/{kind}")

    # the "x before y" half of (C) needs no self-contractedness at all
    rng = np.random.default_rng(100)
    for _ in range(100):
        n_arcs = rng.integers(1, 5)
        chain = cf.make_arc_chain(rng.uniform(-3, 3, n_arcs),
                                  rng.uniform(0.1, 0.5, n_arcs), 40)
        plan = cf.exponential_plan_with_rate(chain, rng.choice([0.5, 1.0, 5.0]))
        jet = cf.curve_jet(chain, plan)
        rep = cf.check_C(jet)
        scale = max(np.abs(jet.values).max(), 1e-30)
        assert rep.step1_min >= -1e-10 * scale
    _line(3, True, f"(C)+(CW1) on {len(tested)} jets ({', '.join(tested)}); "
                   f"step-1 unconditional on 100 random chains")


def _roundtrip_sup(n, eps_rel):
    crv = cf.make_circle_arc(np.pi / 2, n)
    raw_c0 = cf.check_strong(crv).worst_pair[2]  # undeflated grid minimum
    reg = cf.holder_seminorm(crv, 1.0, safety_factor=1.0)
    plan = cf.exponential_plan(crv, reg, raw_c0)
    ext = cf.build_extension(cf.curve_jet(crv, plan), eps_rel=eps_rel)
    rc = cf.reparameterize(crv, plan, 2 * n, plan.T)
    traj = cf.integrate(ext, rc.points[0], plan.T, 1e-3 * plan.T)
    return cf.roundtrip_error(traj, rc).sup_distance


def test_criterion_4_roundtrip_reproduction():
    t0 = time.perf_counter()
    # segment at pipeline defaults
    seg = cf.make_segment([0, 0], [1, 0], 200)
    plan = cf.exponential_plan(seg, cf.holder_seminorm(seg, 1.0),
                               cf.estimate_c0(seg))
    ext = cf.build_extension(cf.curve_jet(seg, plan), eps_rel=1e-3)
    rc = cf.reparameterize(seg, plan, 400, plan.T)
    traj = cf.integrate(ext, rc.points[0], plan.T, 1e-3 * plan.T)
    seg_sup = cf.roundtrip_error(traj, rc).sup_distance

    # quarter circle at the exact-constants operating point (safety 1.0,
    # undeflated c0 = 2/pi, the worked-example rate b ~= 3.78)
    sup_200 = _roundtrip_sup(200, 1e-3)
    sup_400 = _roundtrip_sup(400, 5e-4)
    elapsed = time.perf_counter() - t0

    halved = sup_200 / 4.0 <= sup_400 <= sup_200  # within 2x of exact halving
    ok = seg_sup <= 5e-2 and sup_200 <= 5e-2 and halved and elapsed < 10.0
    _line(4, ok, f"segment sup={seg_sup:.2e}, circle sup={sup_200:.3f} (N=200) "
                 f"-> {sup_400:.3f} (N=400, eps/2), {elapsed:.1f}s")
    assert seg_sup <= 5e-2
    assert sup_200 <= 5e-2
    assert halved
    assert elapsed < 10.0


def test_criterion_5_converse_direction():
    rng = np.random.default_rng(42)
    worst_res = 0.0
    for _ in range(10):
        lams = rng.uniform(0.1, 10.0, size=2)
        while lams.max() / lams.min() > 100.0:
            lams = rng.uniform(0.1, 10.0, size=2)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        A = q @ np.diag(lams) @ q.T
        x0 = rng.normal(size=2)
        x0 /= np.linalg.norm(x0)
        t_end = 2.0 / lams.min()
        rep = cf.check_flow_self_contracted(lambda x: A @ x, x0, t_end)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert rep.c0 > 0.0
        traj = cf.integrate(lambda x: A @ x, x0, t_end, 1e-3 * t_end)
        tr = cf.trace_energy(traj, lambda x: 0.5 * float(x @ A @ x), tol=1e-6)
        worst_res = max(worst_res, tr.max_residual)

    a2 = 0.01
    grad = lambda x: x / (2.0 * (x @ x + a2) ** 0.75)
    rep = cf.check_flow_self_contracted(grad, np.array([1.0, 0.5]), 3.0)
    assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
    _line(5, True, f"10 SPD flows + quasiconvex bowl uniformly strong; "
                   f"max energy residual {worst_res:.2e} <= 1e-6")
    assert worst_res <= 1e-6


def test_criterion_6_spiral_classification():
    t0 = time.perf_counter()
    lam0 = cf.log_spiral_critical_lambda()
    assert abs(lam0 - math.exp(-1.5 * math.pi * lam0)) < 1e-10

    below = cf.make_log_spiral(lam0 - 0.15, 4 * np.pi, 400)
    assert cf.check_strong(below).level == ContractLevel.NOT_SELF_CONTRACTED
    metric = cf.check_self_contracted_metric(below, 100_000, seed=0)
    assert metric.level == ContractLevel.NOT_SELF_CONTRACTED

    above = cf.make_log_spiral(lam0 + 0.15, 4 * np.pi, 400)
    assert cf.check_strong(above).level == ContractLevel.STRONGLY
    c0 = cf.estimate_c0(above)
    assert c0 > 0.0
    elapsed = time.perf_counter() - t0
    _line(6, True, f"lambda0={lam0:.6f}; lam0-0.15 violates (slack "
                   f"{metric.worst_triple[-1]:.3f}), lam0+0.15 uniform with "
                   f"c0={c0:.4f}; {elapsed:.1f}s")
    assert elapsed < 5.0


def _decade_increments(plan):
    """Per-decade theta increments toward the tip, checked against K ln 10.

    Returns (ok, increments, K ln 10). Increment k, for w_k = L 10^{-k} and
    k = 1..8, is theta(L - w_{k+1}) - theta(L - w_k); ok holds when each lies within the analytic bound
    K b (w_k^2 - w_{k+1}^2) / 4 of K ln 10, plus 1e-6 K for cancellation in L - t.
    """
    L, b = plan.L, plan.b
    k_const = math.exp(0.5 * b * L * L) / b
    slope = k_const * math.log(10.0)
    ok, increments = True, []
    for k in range(1, 9):
        w_k, w_next = L * 10.0 ** -k, L * 10.0 ** -(k + 1)
        inc = float(plan.theta(L - w_next)) - float(plan.theta(L - w_k))
        bound = k_const * b * (w_k * w_k - w_next * w_next) / 4.0 + 1e-6 * k_const
        ok = ok and abs(inc - slope) <= bound
        increments.append(inc)
    return ok, increments, slope


def test_criterion_7_endpoint_minimum_behavior():
    crv = cf.make_circle_arc(np.pi / 2, 400)
    c0 = cf.estimate_c0(crv)
    tdb = cf.third_deriv_bound(crv)
    plan = cf.endpoint_plan(crv, c0, tdb.c1_cubic)

    m_ratio = float(plan.m(crv.params[-2])) / float(plan.m(0.0))

    # theta diverges at the tip: T = inf, the closed form matches an
    # independent quadrature of m, and theta gains K ln 10 per decade of L - t
    m = lambda t: float(plan.m(t))
    quad_rel = max(
        abs(float(plan.theta(t)) - adaptive_simpson(m, 0.0, t)) / float(plan.theta(t))
        for t in (crv.length / 2, float(crv.params[-2])))
    decades_ok, increments, slope = _decade_increments(plan)
    # negative control: the exponential plan has finite T and its
    # increments collapse to 0, so the decade check must reject it
    exp_plan = cf.exponential_plan(crv, cf.holder_seminorm(crv, 1.0), c0)
    control_ok, _, _ = _decade_increments(exp_plan)

    ext = cf.build_extension(cf.curve_jet(crv, plan))
    t_end = 30.0
    traj = cf.integrate(ext, crv.points[0], t_end, 1e-3 * t_end)
    final_speed = float(traj.speeds[-1])
    tail = traj.speeds[traj.times >= t_end / 10.0]
    monotone = bool(np.all(np.diff(tail) <= 1e-12))

    m_ok = m_ratio > 1e3
    theta_ok = (plan.T == math.inf and quad_rel <= 1e-9 and decades_ok
                and not control_ok)
    flow_ok = final_speed < 1e-2 and monotone
    _line(7, m_ok and theta_ok and flow_ok,
          f"m ratio {m_ratio:.0f} (>1e3: {m_ok}); T={plan.T}; theta per decade "
          f"{increments[-1]:.6f} vs K ln 10 = {slope:.6f} (quadrature rel "
          f"{quad_rel:.1e}, exp-plan control rejected: {not control_ok}); "
          f"final speed {final_speed:.2e} monotone={monotone}")
    assert m_ok, f"m(t_N-2)/m(0) = {m_ratio:.1f} <= 1e3"
    assert flow_ok, f"final speed {final_speed:.3e}, monotone={monotone}"
    assert plan.T == math.inf, f"endpoint plan T = {plan.T}, expected inf"
    assert quad_rel <= 1e-9, f"closed-form theta off quadrature by {quad_rel:.2e}"
    assert decades_ok, (f"theta increments per decade {increments} stray from "
                        f"K ln 10 = {slope:.6f} beyond the analytic bound")
    assert not control_ok, "decade check accepted the finite-T exponential plan"


def test_criterion_8_numerical_hygiene():
    crv = cf.make_circle_arc(np.pi / 2, 200)
    plan = cf.exponential_plan(crv, cf.holder_seminorm(crv, 1.0, 1.0),
                               cf.estimate_c0(crv))
    jet = cf.curve_jet(crv, plan)

    ext = cf.build_extension(jet, smoothing_eps=1e-3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 1.5, size=(100, 2))
    h = 1e-6
    worst_fd = 0.0
    for x in pts:
        g = cf.eval_grad(ext, x)
        fd = np.array([
            (cf.eval_f(ext, x + [h, 0]) - cf.eval_f(ext, x - [h, 0])) / (2 * h),
            (cf.eval_f(ext, x + [0, h]) - cf.eval_f(ext, x - [0, h])) / (2 * h),
        ])
        worst_fd = max(worst_fd, float(np.linalg.norm(g - fd)))
    assert worst_fd <= 1e-5

    errs = []
    for dt in (0.1, 0.05):
        traj = cf.integrate(lambda x: x, np.array([1.0, 0.0]), 1.0, dt)
        errs.append(abs(traj.states[-1][0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 11.0 <= ratio <= 21.0

    ext0 = cf.build_extension(jet, smoothing_eps=0.0)
    eps = 1e-3
    exte = cf.build_extension(jet, smoothing_eps=eps)
    sample = rng.uniform(-1.5, 1.5, size=(1000, 2))
    f0 = cf.eval_f(ext0, sample)
    fe = cf.eval_f(exte, sample)
    sandwich = bool(np.all(fe >= f0 - 1e-12)
                    and np.all(fe <= f0 + eps * math.log(ext0.n_pieces) + 1e-12))
    assert sandwich
    _line(8, True, f"grad-vs-FD {worst_fd:.2e} <= 1e-5; RK4 ratio {ratio:.1f} "
                   f"in [11,21]; log-sum-exp sandwich on 1000 points")
