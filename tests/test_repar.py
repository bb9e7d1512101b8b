import math

import numpy as np
import pytest

import contractflow as cf
from contractflow import cli
from contractflow._scan import mask_lower, pairwise_min, tangent_chord
from contractflow.errors import HorizonExceedsT, NonPositiveC0
from contractflow.numint import adaptive_simpson


@pytest.fixture(scope="module")
def circle_plan(quarter_circle):
    c0 = cf.estimate_c0(quarter_circle)
    reg = cf.holder_seminorm(quarter_circle, 1.0, safety_factor=1.0)
    return cf.exponential_plan(quarter_circle, reg, c0)


class TestExponentialPlan:
    def test_segment_rate_floor(self, segment):
        reg = cf.holder_seminorm(segment, 1.0)
        plan = cf.exponential_plan(segment, reg, cf.estimate_c0(segment))
        assert plan.b == 1.0  # c1 = 0 would give b = 0; floored
        # 1 - e^{-h} < h for all h > 0: (M) LHS below RHS everywhere
        h = np.linspace(1e-3, 1.0, 50)
        assert np.all(plan.lhs_M(0.0, h) < h)

    def test_paper_constants_quarter_circle(self, quarter_circle):
        # c0 = 2/pi and C1 = 1/6 give b = 3 (1/6)(pi/2) e^{pi/2} ~= 3.78
        reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=1.0, c1=1.0 / 6.0)
        plan = cf.exponential_plan(quarter_circle, reg, 2.0 / np.pi)
        expected = 3.0 * (1.0 / 6.0) * (np.pi / 2) * math.exp(np.pi / 2)
        assert plan.b == pytest.approx(expected, rel=1e-12)

    def test_theta_closed_form(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        assert float(plan.theta(1.0)) == pytest.approx(math.e - 1.0, rel=1e-12)
        assert plan.T == pytest.approx(math.e - 1.0, rel=1e-12)

    @pytest.mark.parametrize("b", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_positive_and_finite(self, segment, b):
        with pytest.raises(ValueError, match="rate b must be positive and finite"):
            cf.exponential_plan_with_rate(segment, b)

    def test_nonpositive_c0(self, segment):
        reg = cf.holder_seminorm(segment, 1.0)
        with pytest.raises(NonPositiveC0):
            cf.exponential_plan(segment, reg, 0.0)

    def test_json(self, circle_plan):
        doc = cli._jsonable(circle_plan)
        assert doc["kind"] == "exponential"
        assert doc["T"] == pytest.approx(circle_plan.T)
        assert set(doc) == {"kind", "b", "c0", "c1", "L", "T"}


class TestEndpointPlan:
    def test_blowup_at_tip(self, segment):
        plan = cf.endpoint_plan(segment, cf.estimate_c0(segment), 0.0)
        assert plan.b == 1.0
        assert float(plan.m(0.999)) > 1e2
        assert plan.T == math.inf

    def test_monotone_positive(self, quarter_circle):
        plan = cf.endpoint_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                                1.0 / 6.0)
        grid = np.linspace(0.0, quarter_circle.length * (1 - 1e-9), 500)
        vals = np.asarray(plan.m(grid))
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_circle_rate_from_constants(self, quarter_circle):
        # b = max(3 (1/6) / c0, 1) with c0 ~= 0.573 gives the floor 1
        c0 = cf.estimate_c0(quarter_circle)
        plan = cf.endpoint_plan(quarter_circle, c0, 1.0 / 6.0)
        assert plan.b == pytest.approx(max(3 * (1 / 6) / c0, 1.0))
        assert plan.b == 1.0

    def test_theta_inverse_roundtrip(self, quarter_circle):
        plan = cf.endpoint_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                                1.25 / 6.0)
        for s in (0.3, 2.0, 11.0):
            assert float(plan.theta(plan.theta_inv(s))) == pytest.approx(s, rel=1e-9)


class TestZetaPlan:
    def test_constant_zeta_recovers_endpoint_rate(self, quarter_circle):
        c0 = cf.estimate_c0(quarter_circle)
        c1 = 1.0 / 6.0
        plan = cf.zeta_plan(quarter_circle, c0,
                            lambda t: np.full_like(np.asarray(t, dtype=float), c1))
        assert plan.b == pytest.approx(2.0 * c1 / c0, rel=1e-9)

    def test_zero_zeta_falls_back(self, segment):
        plan = cf.zeta_plan(segment, cf.estimate_c0(segment),
                            lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        # fallback zeta == 1e-3: b = 2 (1e-3 L) / (c0 L)
        assert plan.b == pytest.approx(2e-3 / 0.9, rel=1e-6)

    def test_integrable_singularity_accepted(self, quarter_circle):
        L = quarter_circle.length
        zeta = lambda t: 1.0 / np.sqrt(np.maximum(L - np.asarray(t, dtype=float),
                                                  1e-300))
        plan = cf.zeta_plan(quarter_circle, cf.estimate_c0(quarter_circle), zeta)
        assert math.isfinite(plan.T)
        assert cf.verify_M(quarter_circle, plan).holds

    def test_divergent_zeta_rejected(self, quarter_circle):
        L = quarter_circle.length
        with pytest.raises(cf.repar.DivergentA):
            cf.zeta_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                         lambda t: 1.0 / np.maximum(L - np.asarray(t, dtype=float),
                                                    1e-300))

    def test_hypothesis_violation_detected(self, half_circle):
        # the (0, pi) pair has normalized product 0 < 1 - zeta (s-t)^2 for tiny zeta
        with pytest.raises(cf.repar.HypothesisViolated):
            cf.zeta_plan(half_circle, 0.1,
                         lambda t: np.full_like(np.asarray(t, dtype=float), 1e-6))


class TestVerifyM:
    def test_segment_closed_form_pair(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        lhs = float(plan.lhs_M(0.0, 1.0))
        assert lhs == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        rep = cf.verify_M(segment, plan)
        assert rep.holds and rep.margin > 0.0

    def test_quarter_circle_certified_rate(self, quarter_circle, circle_plan):
        rep = cf.verify_M(quarter_circle, circle_plan)
        assert rep.holds
        assert rep.margin > 0.0

    def test_tiny_rate_fails_with_witness(self, quarter_circle):
        plan = cf.exponential_plan_with_rate(quarter_circle, 0.01)
        rep = cf.verify_M(quarter_circle, plan)
        assert not rep.holds
        t, s, lhs, rhs = rep.worst_pair
        assert lhs > rhs
        assert rep.margin < 0.0

    def test_rate_monotonicity(self, quarter_circle, circle_plan):
        # certified-sufficient b keeps (M) for any larger rate
        for factor in (2.0, 10.0):
            plan = cf.exponential_plan_with_rate(quarter_circle,
                                                 factor * circle_plan.b)
            assert cf.verify_M(quarter_circle, plan).holds

    def test_endpoint_kind(self, quarter_circle):
        plan = cf.endpoint_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                                1.25 / 6.0)
        assert cf.verify_M(quarter_circle, plan).holds


class TestReparameterize:
    def test_segment_log_profile(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        rc = cf.reparameterize(segment, plan, 100, plan.T)
        expected_x = np.log1p(rc.times)
        np.testing.assert_allclose(rc.points[:, 0], expected_x, atol=1e-9)
        assert rc.speeds[0] == pytest.approx(1.0, abs=1e-9)
        assert rc.speeds[-1] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_speed_law(self, quarter_circle, circle_plan):
        rc = cf.reparameterize(quarter_circle, circle_plan, 150,
                               circle_plan.T / 3.0)
        ts = np.array([circle_plan.theta_inv(s) for s in rc.times])
        prods = rc.speeds * np.asarray(circle_plan.m(ts))
        np.testing.assert_allclose(prods, 1.0, atol=1e-8)

    def test_endpoint_speed_decay(self, quarter_circle):
        plan = cf.endpoint_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                                1.25 / 6.0)
        horizon = 10.0 * float(plan.theta(0.99 * quarter_circle.length))
        rc = cf.reparameterize(quarter_circle, plan, 50, horizon)
        assert rc.speeds[-1] < 1e-2

    def test_horizon_check(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        with pytest.raises(HorizonExceedsT):
            cf.reparameterize(segment, plan, 10, plan.T * 2.0)


class TestPlanInvariants:
    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_lebesgue_normalization(self, quarter_circle, circle_plan, h):
        # m(t) (1/h) int_t^{t+h} 1/m -> 1 with O(h) error
        for t in (0.0, 0.4, 1.2):
            val = float(circle_plan.m(t)) * float(
                circle_plan.inv_m_integral(t, t + h)) / h
            assert abs(val - 1.0) <= circle_plan.b * h

    def test_lebesgue_normalization_endpoint(self, quarter_circle):
        plan = cf.endpoint_plan(quarter_circle, cf.estimate_c0(quarter_circle),
                                1.25 / 6.0)
        t = 0.3 * quarter_circle.length
        for h in (1e-2, 1e-3, 1e-4):
            val = float(plan.m(t)) * float(plan.inv_m_integral(t, t + h)) / h
            bound = (plan.b * plan.L + 1.0 / (plan.L - t - h)) * h
            assert abs(val - 1.0) <= bound

    def test_closed_form_matches_quadrature(self, circle_plan):
        rng = np.random.default_rng(11)
        for _ in range(5):
            t, s = np.sort(rng.uniform(0.0, circle_plan.L, size=2))
            if s - t < 1e-3:
                continue
            quad = adaptive_simpson(lambda u: float(circle_plan.inv_m(u)), t, s,
                                    tol=1e-12)
            assert float(circle_plan.inv_m_integral(t, s)) == pytest.approx(
                quad, abs=1e-10)

    def test_theta_inverse_identity(self, circle_plan):
        rng = np.random.default_rng(5)
        for s in rng.uniform(0.0, float(circle_plan.T), size=8):
            t = float(circle_plan.theta_inv(s))
            assert float(circle_plan.theta(t)) == pytest.approx(s, abs=1e-9 * max(1, s))

    def test_composition_law(self, quarter_circle, circle_plan):
        # finite differences of the sampled curve match stored velocities
        rc = cf.reparameterize(quarter_circle, circle_plan, 2000,
                               circle_plan.T / 20.0)
        ds = rc.times[1] - rc.times[0]
        fd = (rc.points[2:] - rc.points[:-2]) / (2 * ds)
        err = np.linalg.norm(fd - rc.velocities[1:-1], axis=1).max()
        assert err <= (circle_plan.b + 2.0) * ds

    def test_profile_validation_rejects_decreasing(self, segment):
        import contractflow.repar as rp
        bad = cf.ReparamPlan(kind="exponential", b=1.0, c0=None, c1=None,
                             L=1.0, T=1.0,
                             m=lambda t: np.exp(-np.asarray(t, dtype=float)),
                             inv_m=lambda t: np.exp(np.asarray(t, dtype=float)),
                             inv_m_integral=lambda t, s: None,
                             lhs_M=lambda t, s: None,
                             theta=lambda t: np.asarray(t, dtype=float),
                             theta_inv=lambda s: s)
        with pytest.raises(ValueError):
            rp._validate_profile(bad)


# ---------------------------------------------------------------------------
# verify_M's refinement and the endpoint D-table against the per-candidate
# and per-cell code they replaced, copied here as the bitwise reference

def _scalar_refinement_verify_M(curve, plan):
    t = curve.params
    n = len(t)
    jmax = n if plan.kind == "exponential" else n - 1

    def block(i0, i1):
        ip = tangent_chord(curve, i0, i1, jmax)
        with np.errstate(over="ignore"):
            ip -= plan.lhs_M(t[i0:i1, None], t[None, i0:jmax], out=np.empty(ip.shape))
        return mask_lower(ip)

    margin, i, j = pairwise_min(block, max(jmax - 1, 1))
    t0, s0 = float(t[i]), float(t[j])
    worst = (t0, s0)
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
    gap_floor = 0.25 * min(step_t, step_s)
    for tc, sc in cands:
        tc = min(max(tc, 0.0), s_max)
        sc = min(max(sc, 0.0), s_max)
        if sc - tc < gap_floor:
            continue
        rhs = float(curve.tangent_at(tc) @ (curve.point_at(sc) - curve.point_at(tc)))
        mg = rhs - float(plan.lhs_M(tc, sc))
        if mg < margin:
            margin, worst = mg, (tc, sc)
    tw, sw = worst
    lhs_w = float(plan.lhs_M(tw, sw))
    return cf.repar.MReport(holds=bool(margin > 0.0), worst_pair=(tw, sw, lhs_w, lhs_w + margin),
                            margin=float(margin))


def _sampled_arc(path, n=300, warp=0.3):
    # exact arc samples at warped arc-length parameters: a curve the library
    # evaluates through its spline fit
    x = np.linspace(0.0, 1.0, n)
    u = 1.4 * (x + warp * np.sin(2.0 * np.pi * x) / (2.0 * np.pi))
    u[0], u[-1] = 0.0, 1.4
    np.savetxt(path, np.column_stack([u, np.cos(u), np.sin(u), -np.sin(u), np.cos(u)]),
               delimiter=",", header="t,x1,x2,tx1,tx2", comments="", fmt="%.17g")
    return cf.curve.load_csv(path)


def _pipeline_plans(curve):
    c0 = cf.estimate_c0(curve)
    return [cli._build_plan(cli.PipelineConfig(generator="circle", plan_kind=kind), curve, c0)[0]
            for kind in ("exp", "endpoint", "zeta")]


def test_refinement_on_arrays_matches_scalar_candidates(tmp_path):
    curves = [cf.make_circle_arc(1.2, 200), cf.make_circle_arc(np.pi / 2, 1000, 1.7),
              cf.make_log_spiral(0.5, 2.0, 200), _sampled_arc(tmp_path / "arc.csv")]
    for crv in curves:
        plans = _pipeline_plans(crv) + [cf.exponential_plan_with_rate(crv, 2.0)]
        for plan in plans:
            assert repr(cf.verify_M(crv, plan)) == repr(_scalar_refinement_verify_M(crv, plan))
        # the premise, on many pairs: one array call gives each entry as a scalar call does
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(0.0, crv.length, size=(2, 300)), axis=0)
        T, Pt, Ps = crv.tangent_at(ts[0]), crv.point_at(ts[0]), crv.point_at(ts[1])
        for k, (tc, sc) in enumerate(ts.T):
            tc, sc = float(tc), float(sc)
            assert T[k].tobytes() == crv.tangent_at(tc).tobytes()
            assert Pt[k].tobytes() == crv.point_at(tc).tobytes()
            assert Ps[k].tobytes() == crv.point_at(sc).tobytes()
        for plan in plans:
            lhs = plan.lhs_M(ts[0], ts[1])
            for k, (tc, sc) in enumerate(ts.T):
                assert float(lhs[k]) == float(plan.lhs_M(float(tc), float(sc)))


def test_endpoint_d_table_matches_per_cell_quadrature(monkeypatch):
    tables, integrand_calls = [], []

    class Recorded(cf.numint.CumulativeTable):
        def __init__(self, nodes, values, f_nodes):
            tables.append((np.array(nodes), np.array(values), np.array(f_nodes)))
            super().__init__(nodes, values, f_nodes)

    def counted_simpson(f, *args, **kw):
        def g(u):
            integrand_calls.append(u)
            return f(u)
        return adaptive_simpson(g, *args, **kw)

    monkeypatch.setattr(cf.repar, "CumulativeTable", Recorded)
    monkeypatch.setattr(cf.repar, "adaptive_simpson", counted_simpson)
    for crv, c1 in ((cf.make_circle_arc(np.pi / 2, 200), 1.0 / 6.0),
                    (cf.make_circle_arc(1.0, 300, 0.5), 3.0), (cf.make_segment([0, 0], [2, 0], 50), 0.0)):
        tables.clear()
        integrand_calls.clear()
        plan = cf.endpoint_plan(crv, cf.estimate_c0(crv), c1)
        b, L = plan.b, plan.L
        ref_calls = []

        def g(u):
            ref_calls.append(u)
            if u == 0.0:
                return 0.0
            return (1.0 - math.exp(-0.5 * b * u * u)) / u

        nodes = np.linspace(0.0, L, 257)
        cells = [adaptive_simpson(g, x0, x1) for x0, x1 in zip(nodes[:-1], nodes[1:])]
        values = np.concatenate([[0.0], np.cumsum(cells)])
        f_nodes = np.array([g(u) for u in nodes], dtype=float)
        (got_nodes, got_values, got_f), = tables
        assert got_nodes.tobytes() == nodes.tobytes()
        assert got_values.tobytes() == values.tobytes()
        assert got_f.tobytes() == f_nodes.tobytes()
        # the cells no longer evaluate their end points; the nodes are evaluated once
        assert len(integrand_calls) == len(ref_calls) - 257 - 2 * 256
