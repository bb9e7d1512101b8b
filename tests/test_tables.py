"""The time change and the arc-length map are tabulated once and queried on arrays.

Counts pin that no per-query scalar quadrature or inversion is left on the
certification path; accuracy is checked against adaptive Simpson and closed
forms.
"""

import math

import numpy as np
import pytest

import contractflow as cf
from contractflow import curve as curve_mod, numint, repar
from contractflow.errors import StationaryPoint
from contractflow.numint import adaptive_simpson


@pytest.fixture
def calls(monkeypatch):
    """Calls of adaptive_simpson and invert_monotone through every binding."""
    counts = {"simpson": 0, "invert": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    simpson = counted("simpson", numint.adaptive_simpson)
    invert = counted("invert", numint.invert_monotone)
    for mod in (numint, repar):
        monkeypatch.setattr(mod, "adaptive_simpson", simpson)
    for mod in (numint, curve_mod):
        monkeypatch.setattr(mod, "invert_monotone", invert)
    return counts


@pytest.fixture(scope="module")
def plans(quarter_circle):
    c0 = cf.estimate_c0(quarter_circle)
    tdb = cf.third_deriv_bound(quarter_circle)
    return {"exp": cf.exponential_plan(quarter_circle,
                                       cf.holder_seminorm(quarter_circle, 1.0), c0),
            "endpoint": cf.endpoint_plan(quarter_circle, c0, tdb.c1_cubic),
            "zeta": cf.zeta_plan(quarter_circle, c0, tdb.zeta)}


def _sampled_arc(path, n=60, angle=1.2, radius=1.7):
    """Exact arc samples at warped arc-length parameters, saved as curve CSV."""
    x = np.linspace(0.0, 1.0, n)
    u = angle * (x + 0.45 * np.sin(2.0 * np.pi * x) / (2.0 * np.pi))
    u[0], u[-1] = 0.0, angle
    pts = radius * np.column_stack([np.cos(u), np.sin(u)])
    tans = np.column_stack([-np.sin(u), np.cos(u)])
    cf.curve.save_csv(cf.Curve(params=radius * u, points=pts, tangents=tans), path)
    return cf.curve.load_csv(path)


def _flow_orbit(n_steps=1000):
    traj = cf.integrate(lambda x: np.array([x[0], 4.0 * x[1]]), [1.0, 1.0], 2.0,
                        2.0 / n_steps)
    return traj.states


class TestNoPerQueryQuadrature:
    @pytest.mark.parametrize("kind", ["zeta", "endpoint", "exp"])
    def test_reparameterize(self, quarter_circle, plans, calls, kind):
        plan = plans[kind]
        horizon = float(plan.theta(quarter_circle.params[-2]))
        cf.reparameterize(quarter_circle, plan, 400, horizon)
        assert calls == {"simpson": 0, "invert": 0}

    def test_endpoint_build_does_not_depend_on_n_out(self, quarter_circle, calls):
        c0 = cf.estimate_c0(quarter_circle)
        counts = []
        for n_out in (20, 400):
            calls["simpson"] = 0
            plan = cf.endpoint_plan(quarter_circle, c0, 1.25 / 6.0)
            cf.reparameterize(quarter_circle, plan, n_out,
                              float(plan.theta(quarter_circle.params[-2])))
            counts.append(calls["simpson"])
        assert counts == [256, 256]  # one call per cell of the D(w) table
        assert calls["invert"] == 0

    def test_from_samples_of_flow_orbit(self, calls):
        pts = _flow_orbit()
        assert len(pts) == 1001
        orbit = cf.from_samples(pts, 200)
        assert not orbit.geometry.unit_speed
        assert calls == {"simpson": 0, "invert": 0}

    def test_point_at_on_csv_curve(self, tmp_path, calls):
        crv = _sampled_arc(tmp_path / "arc.csv")
        t = np.linspace(0.0, crv.length, 50)
        assert crv.point_at(t).shape == (50, 2)
        assert crv.tangent_at(t).shape == (50, 2)
        crv.point_at(0.3)
        assert not crv.geometry.unit_speed
        assert calls == {"simpson": 0, "invert": 0}


class TestTableAccuracy:
    @pytest.mark.parametrize("kind", ["exp", "endpoint", "zeta"])
    def test_theta_of_theta_inv_against_simpson(self, plans, kind):
        plan = plans[kind]
        m = lambda u: float(plan.m(u))
        # the zeta phi is linear between the nodes of its grid, so m has a kink
        # at each node and adaptive Simpson is a faithful reference cell by cell
        grid = np.linspace(0.0, plan.L * (1.0 - 1e-6), 16385) if kind == "zeta" else []
        for window in ((0.0, 0.05), (0.5, 0.52), (0.96, 0.98)):
            t = np.array(window) * plan.L
            t_back = plan.theta_inv(plan.theta(t))
            np.testing.assert_allclose(t_back, t, rtol=0.0, atol=1e-12)
            ta, tb = t_back
            cuts = np.concatenate([[ta], [g for g in grid if ta < g < tb], [tb]])
            ref = sum(adaptive_simpson(m, a, b) for a, b in zip(cuts[:-1], cuts[1:]))
            sa, sb = plan.theta(t_back)
            assert sb - sa == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [965, 1000, 1001, 1100, 1500, 3000, 5000])
    def test_zeta_table_covers_0999_L(self, n):
        # t_(N-2) = L (N - 2)/(N - 1) reaches 0.999 L at N = 1001 and passes the
        # next grid node, 0.99902 L, above N = 1025; the flow horizon
        # theta(t_(N-2)) must invert, and match a cell-by-cell reference
        crv = cf.make_circle_arc(np.pi / 2, n)
        plan = cf.zeta_plan(crv, cf.estimate_c0(crv), cf.third_deriv_bound(crv).zeta)
        t = float(crv.params[-2])
        horizon = float(plan.theta(t))
        assert float(plan.theta_inv(horizon)) == pytest.approx(t, rel=0.0, abs=1e-12)
        m = lambda u: float(plan.m(u))
        grid = np.linspace(0.0, plan.L * (1.0 - 1e-6), 16385)
        cuts = np.concatenate([[0.9 * plan.L], [g for g in grid if 0.9 * plan.L < g < t], [t]])
        ref = sum(adaptive_simpson(m, a, b, tol=1e-12) for a, b in zip(cuts[:-1], cuts[1:]))
        assert horizon - float(plan.theta(0.9 * plan.L)) == pytest.approx(ref, rel=1e-9)

    def test_theta_accepts_arrays_and_scalars(self, plans):
        for plan in plans.values():
            t = np.linspace(0.0, 0.9 * plan.L, 12).reshape(3, 4)
            s = plan.theta(t)
            assert s.shape == (3, 4)
            assert float(plan.theta(t[1, 2])) == s[1, 2]
            assert plan.theta_inv(s).shape == (3, 4)
            assert float(plan.theta_inv(s[2, 1])) == pytest.approx(t[2, 1], abs=1e-12)

    def test_spiral_length_and_points(self):
        lam, tmax = 0.5, 4.0 * math.pi
        crv = cf.make_log_spiral(lam, tmax, 200)
        assert crv.length == pytest.approx(cf.curve.log_spiral_arclength(lam, tmax),
                                           rel=1e-10)
        # invert s(u) = sqrt(1 + lam^2) (1 - e^{-lam u}) / lam in closed form
        s = np.linspace(0.0, crv.length, 77)
        u = -np.log1p(-lam * s / math.sqrt(1.0 + lam * lam)) / lam
        exact = np.exp(-lam * u)[:, None] * np.column_stack([np.cos(u), np.sin(u)])
        np.testing.assert_allclose(crv.point_at(s), exact, rtol=0.0, atol=1e-10)

    def test_from_samples_of_exact_arc_samples(self):
        angle, radius = 1.3, 2.0
        u = np.linspace(0.0, angle, 400) ** 1.2 / angle**0.2  # uneven spacing
        crv = cf.from_samples(radius * np.column_stack([np.cos(u), np.sin(u)]), 150)
        assert crv.length == pytest.approx(radius * angle, rel=1e-10)
        # resampled points sit on the arc at their arc-length parameters
        np.testing.assert_allclose(np.arctan2(crv.points[:, 1], crv.points[:, 0]),
                                   crv.params / radius, rtol=0.0, atol=1e-9)

    def test_csv_arc_length_against_simpson(self, tmp_path):
        crv = _sampled_arc(tmp_path / "arc.csv")
        g = crv._geom()
        speed = lambda u: float(np.linalg.norm(g.dgamma(u)))
        # the spline speed is smooth between knots: integrate knot to knot
        knots = crv.params
        ref = sum(adaptive_simpson(speed, a, b, tol=1e-14)
                  for a, b in zip(knots[:-1], knots[1:]))
        assert g.arcmap.total == pytest.approx(ref, rel=1e-12)
        assert g.arcmap.total != crv.length  # the spline is not unit speed


class TestCheckOrder:
    def test_stationary_point_before_any_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("table built before the speed check")

        monkeypatch.setattr(curve_mod.CumulativeTable, "simpson", no_table)
        with pytest.raises(StationaryPoint):
            cf.make_analytic(lambda t: np.array([t**3, 0.0]),
                             lambda t: np.array([3 * t * t, 0.0]), (0.0, 1.0), 50)
        with pytest.raises(StationaryPoint):
            cf.make_log_spiral(1.0, 40.0, 200)
