"""Property-based invariants over randomized curve families.

Arc chains are the workhorse: closed-form, exactly unit speed, and C^1, so
geometric inequalities hold to machine precision and failures indicate real
bugs rather than discretization noise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contractflow as cf

FINITE = dict(allow_nan=False, allow_infinity=False)

arc_chain_params = st.tuples(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, **FINITE),
             min_size=1, max_size=5),
    st.lists(st.floats(min_value=0.05, max_value=0.6, **FINITE),
             min_size=1, max_size=5),
    st.integers(min_value=20, max_value=60),
)


def build_chain(params):
    ks, ls, n = params
    m = min(len(ks), len(ls))
    return cf.make_arc_chain(ks[:m], ls[:m], n)


@given(arc_chain_params)
@settings(max_examples=30, deadline=None)
def test_pairwise_product_bounded_by_gap(params):
    # Cauchy-Schwarz plus chord <= arc: <T(t), gamma(s)-gamma(t)> <= s - t
    crv = build_chain(params)
    t, P, T = crv.params, crv.points, crv.tangents
    iu, ju = np.triu_indices(len(t), k=1)
    ip = np.einsum("kd,kd->k", T[iu], P[ju] - P[iu])
    assert np.all(ip <= (t[ju] - t[iu]) * (1 + 1e-12) + 1e-12)


@given(arc_chain_params,
       st.floats(min_value=0.3, max_value=5.0, **FINITE))
@settings(max_examples=40, deadline=None)
def test_condition_c_before_direction_is_unconditional(params, b):
    # x earlier than y on the curve: (C) holds for any increasing positive
    # profile, self-contracted or not
    crv = build_chain(params)
    plan = cf.exponential_plan_with_rate(crv, b)
    jet = cf.curve_jet(crv, plan)
    rep = cf.check_C(jet)
    scale = max(abs(jet.values).max(), 1e-30)
    assert rep.step1_min >= -1e-10 * scale


@given(st.floats(min_value=0.55, max_value=1.0, exclude_min=True, **FINITE),
       st.floats(min_value=0.55, max_value=1.0, exclude_min=True, **FINITE))
@settings(max_examples=25, deadline=None)
def test_holder_seminorm_alpha_ordering(a1, a2):
    crv = cf.make_circle_arc(0.8, 40)
    lo, hi = sorted((a1, a2))
    s_lo = cf.holder_seminorm(crv, lo, 1.0).holder_seminorm
    s_hi = cf.holder_seminorm(crv, hi, 1.0).holder_seminorm
    assert s_lo <= s_hi * (1 + 1e-12)


def all_pairs_holder(t, T):
    """Largest ||T_j - T_i|| / (t_j - t_i) over all pairs i < j, by the scan's float operations."""
    i, j = np.triu_indices(len(t), k=1)
    diff = T[j] - T[i]
    dist = diff[:, 0] * diff[:, 0]
    dist += diff[:, 1] * diff[:, 1]
    return float((np.sqrt(dist) / (t[j] - t[i])).max())


def turning_angle(shape, t, kappas, fracs):
    """psi(t) of an arc chain, a spiral, a segment or a straight stretch then a turn."""
    L = t[-1]
    if shape == "segment":
        return np.zeros_like(t)
    if shape == "spiral":  # curvature kappa / (1 + 5 t), falling along the curve
        return kappas[0] / 5.0 * np.log1p(5.0 * t)
    if shape == "turn":  # constant tangent up to t0, then an arc
        return kappas[0] * np.maximum(t - fracs[0] * L, 0.0)
    breaks = np.append(np.concatenate([[0.0], np.sort(fracs) * L])[:len(kappas)], np.inf)
    return sum(k * np.clip(t - b0, 0.0, b1 - b0)
               for k, b0, b1 in zip(kappas, breaks[:-1], breaks[1:]))


# curvatures of size at least 0.1 and gaps within a factor 20 of each other, so
# that the margin by which a longer pair loses is far above the rounding
@given(st.sampled_from(["arc chain", "spiral", "segment", "turn"]),
       st.lists(st.floats(min_value=0.05, max_value=1.0, **FINITE), min_size=1, max_size=150),
       st.floats(min_value=0.5, max_value=4.0, **FINITE),
       st.lists(st.floats(min_value=0.1, max_value=3.0, **FINITE).flatmap(
           lambda k: st.sampled_from([k, -k])), min_size=1, max_size=4),
       st.lists(st.floats(min_value=0.0, max_value=1.0, **FINITE), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_holder_seminorm_at_alpha_one_is_the_all_pairs_max(shape, gaps, length, kappas, fracs):
    # non-uniform grid: t_0 = 0, then the drawn gaps scaled to the length
    t = np.concatenate([[0.0], np.cumsum(gaps)]) * (length / sum(gaps))
    psi = turning_angle(shape, t, kappas, fracs)
    T = np.column_stack([np.cos(psi), np.sin(psi)])
    P = np.concatenate([[[0.0, 0.0]], np.cumsum(T[:-1] * np.diff(t)[:, None], axis=0)])
    crv = cf.Curve(params=t, points=P, tangents=T, source="sampled")
    sem = cf.holder_seminorm(crv, 1.0, safety_factor=1.0).holder_seminorm
    assert sem == all_pairs_holder(t, T)
    if shape == "segment":
        assert sem == 0.0


@given(st.floats(min_value=-math.pi, max_value=math.pi, **FINITE),
       st.floats(min_value=-5.0, max_value=5.0, **FINITE),
       st.floats(min_value=-5.0, max_value=5.0, **FINITE))
@settings(max_examples=25, deadline=None)
def test_c0_rigid_motion_invariance(theta, dx, dy):
    crv = cf.make_circle_arc(1.2, 80)
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    moved = cf.Curve(params=crv.params, points=crv.points @ R.T + [dx, dy],
                     tangents=crv.tangents @ R.T, source="sampled")
    assert cf.estimate_c0(moved) == pytest.approx(cf.estimate_c0(crv), abs=1e-10)


@given(st.floats(min_value=0.5, max_value=8.0, **FINITE),
       st.lists(st.floats(min_value=0.0, max_value=1.0, **FINITE),
                min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_exponential_closed_forms_match_quadrature(b, ts):
    from contractflow.numint import adaptive_simpson

    seg = cf.make_segment([0, 0], [1, 0], 20)
    plan = cf.exponential_plan_with_rate(seg, b)
    t, s = sorted(ts)
    if s - t < 1e-6:
        return
    quad = adaptive_simpson(lambda u: math.exp(-b * u), t, s, tol=1e-13)
    assert float(plan.inv_m_integral(t, s)) == pytest.approx(quad, abs=1e-10)
    quad_theta = adaptive_simpson(lambda u: math.exp(b * u), 0.0, s, tol=1e-12)
    assert float(plan.theta(s)) == pytest.approx(quad_theta, rel=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_extension_convexity(seed):
    crv = cf.make_circle_arc(np.pi / 2, 60)
    plan = cf.exponential_plan_with_rate(crv, 2.0)
    ext = cf.build_extension(cf.curve_jet(crv, plan), smoothing_eps=1e-3)
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-2, 2, size=(2, 2))
    lam = rng.uniform()
    lhs = cf.eval_f(ext, lam * x + (1 - lam) * y)
    rhs = lam * cf.eval_f(ext, x) + (1 - lam) * cf.eval_f(ext, y)
    assert lhs <= rhs + 1e-12


@given(arc_chain_params)
@settings(max_examples=20, deadline=None)
def test_metric_check_consistent_with_pairwise(params):
    # if the differential form holds strictly, no triple can violate
    crv = build_chain(params)
    strong = cf.check_strong(crv)
    metric = cf.check_self_contracted_metric(crv)
    if strong.level == cf.ContractLevel.STRONGLY:
        assert metric.level != cf.ContractLevel.NOT_SELF_CONTRACTED
