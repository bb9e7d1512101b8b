import json
import math

import numpy as np
import pytest

import contractflow as cf
from contractflow.errors import (
    DegenerateCurve,
    DuplicatePoint,
    InsufficientRegularity,
    OutOfDomain,
    StationaryPoint,
)

# closed form: int_0^1 sqrt(1 + 4 t^2) dt = sqrt(5)/2 + asinh(2)/4
PARABOLA_LENGTH = math.sqrt(5.0) / 2.0 + math.asinh(2.0) / 4.0


class TestFromSamples:
    def test_straight_segment(self):
        crv = cf.from_samples([(0, 0), (1, 0), (2, 0)], 5)
        np.testing.assert_allclose(crv.params, [0, 0.5, 1, 1.5, 2], atol=1e-12)
        np.testing.assert_allclose(crv.points[:, 0], [0, 0.5, 1, 1.5, 2], atol=1e-9)
        np.testing.assert_allclose(crv.tangents, [[1, 0]] * 5, atol=1e-9)
        assert crv.length == pytest.approx(2.0, abs=1e-12)

    def test_circle_cloud_arc_length(self):
        ang = np.linspace(0, np.pi / 2, 50)
        crv = cf.from_samples(np.stack([np.cos(ang), np.sin(ang)], axis=1), 100)
        assert crv.length == pytest.approx(np.pi / 2, rel=1e-3)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            cf.from_samples([(0, 0), (0, 0)], 5)

    def test_degenerate(self):
        with pytest.raises(DegenerateCurve):
            cf.from_samples([(0, 0), (1e-14, 0), (2e-14, 0)], 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cf.from_samples([(0, 0), (1, 0)], 5)


class TestMakeAnalytic:
    def test_quarter_circle(self):
        crv = cf.make_analytic(lambda t: np.array([np.cos(t), np.sin(t)]),
                               lambda t: np.array([-np.sin(t), np.cos(t)]),
                               (0.0, np.pi / 2), 100)
        assert crv.length == pytest.approx(np.pi / 2, abs=1e-10)
        np.testing.assert_allclose(crv.tangents[0], [0, 1], atol=1e-12)

    def test_constant_speed_line(self):
        crv = cf.make_analytic(lambda t: np.array([2 * t, 0.0]),
                               lambda t: np.array([2.0, 0.0]), (0.0, 1.0), 50)
        assert crv.length == pytest.approx(2.0, abs=1e-8)
        assert np.abs(np.diff(crv.params) - 2.0 / 49).max() < 1e-12

    def test_parabola_arc_length(self):
        crv = cf.make_analytic(lambda t: np.array([t, t * t]),
                               lambda t: np.array([1.0, 2.0 * t]), (0.0, 1.0), 200)
        assert crv.length == pytest.approx(PARABOLA_LENGTH, abs=1e-4)

    def test_stationary_point(self):
        with pytest.raises(StationaryPoint):
            cf.make_analytic(lambda t: np.array([t**3, 0.0]),
                             lambda t: np.array([3 * t * t, 0.0]), (0.0, 1.0), 50)


class TestLogSpiral:
    def test_total_length_limit(self):
        # lam = 1, t_max large: L -> sqrt(2); t_max is capped where the raw
        # speed would underflow the stationary-point floor
        crv = cf.make_log_spiral(1.0, 20.0, 200)
        assert crv.length == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_deep_tail_hits_speed_floor(self):
        with pytest.raises(StationaryPoint):
            cf.make_log_spiral(1.0, 40.0, 200)

    def test_endpoint_closed_form(self):
        crv = cf.make_log_spiral(0.5, 2 * np.pi, 100)
        np.testing.assert_allclose(crv.points[-1], [math.exp(-np.pi), 0.0],
                                   atol=1e-10)
        np.testing.assert_allclose(crv.points[0], [1.0, 0.0], atol=1e-12)

    def test_length_matches_closed_form(self):
        lam, tmax = 0.3, 3.0
        crv = cf.make_log_spiral(lam, tmax, 64)
        assert crv.length == pytest.approx(cf.curve.log_spiral_arclength(lam, tmax),
                                           abs=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cf.make_log_spiral(-1.0, 1.0, 50)
        with pytest.raises(ValueError):
            cf.make_log_spiral(0.5, 1.0, 5)

    def test_critical_lambda(self):
        lam0 = cf.log_spiral_critical_lambda()
        assert abs(lam0 - math.exp(-1.5 * math.pi * lam0)) < 1e-10
        assert lam0 == pytest.approx(0.2744, abs=5e-4)


class TestTangentAt:
    def test_segment(self, segment):
        np.testing.assert_allclose(segment.tangent_at(0.7), [1, 0], atol=1e-12)

    def test_quarter_circle_start(self, quarter_circle):
        np.testing.assert_allclose(quarter_circle.tangent_at(0.0), [0, 1],
                                   atol=1e-12)

    def test_out_of_domain(self, quarter_circle):
        with pytest.raises(OutOfDomain):
            quarter_circle.tangent_at(quarter_circle.length + 0.1)
        with pytest.raises(OutOfDomain):
            quarter_circle.point_at(-0.5)

    def test_interior_points_match_grid(self, quarter_circle):
        k = 37
        t = quarter_circle.params[k]
        np.testing.assert_allclose(quarter_circle.point_at(t),
                                   quarter_circle.points[k], atol=1e-9)


class TestHolderSeminorm:
    def test_segment_zero(self, segment):
        reg = cf.holder_seminorm(segment, 1.0)
        assert reg.holder_seminorm == 0.0
        assert reg.c1 == 0.0

    def test_quarter_circle_limit(self):
        # true seminorm is sup 2 sin(h/2)/h = 1, approached from below
        vals = []
        for n in (100, 400):
            crv = cf.make_circle_arc(np.pi / 2, n)
            vals.append(cf.holder_seminorm(crv, 1.0, safety_factor=1.0).holder_seminorm)
        assert vals[0] <= 1.0 and vals[1] <= 1.0
        assert vals[1] > vals[0]
        assert 1.0 - vals[1] < 1e-5

    def test_quarter_circle_c1_with_safety(self, quarter_circle):
        reg = cf.holder_seminorm(quarter_circle, 1.0, safety_factor=1.25)
        assert reg.c1 == pytest.approx(1.25**2 / 6.0, rel=1e-3)
        # stored relation is exact
        assert reg.c1 == reg.holder_seminorm**2 / (2 * (2 * reg.alpha + 1))

    def test_alpha_validation(self, segment):
        with pytest.raises(ValueError):
            cf.holder_seminorm(segment, 0.4)

    def test_monotone_in_alpha(self):
        # gaps <= 1 so h^alpha >= h: lowering alpha divides by a larger power,
        # hence the seminorm is nondecreasing in alpha
        crv = cf.make_circle_arc(0.9, 60)
        s = [cf.holder_seminorm(crv, a, 1.0).holder_seminorm
             for a in (0.6, 0.8, 1.0)]
        assert s[0] <= s[1] <= s[2]


class TestThirdDerivBound:
    def test_segment_zero(self, segment):
        assert cf.third_deriv_bound(segment).bound == 0.0

    def test_unit_circle(self, quarter_circle):
        # gamma''' = -gamma' on the unit circle
        tdb = cf.third_deriv_bound(quarter_circle, safety_factor=1.25)
        assert tdb.bound == pytest.approx(1.25, abs=1e-12)
        assert tdb.c1_cubic == pytest.approx(1.25 / 6.0, abs=1e-12)

    def test_zeta_running_sup(self, quarter_circle):
        tdb = cf.third_deriv_bound(quarter_circle, safety_factor=1.0)
        z = tdb.zeta(np.array([0.1, 0.5, quarter_circle.length]))
        np.testing.assert_allclose(z, 1.0, atol=1e-9)
        assert np.all(np.diff(tdb.zeta(quarter_circle.params)) >= -1e-12)

    def test_noisy_samples_rejected(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 1, 60)
        pts = np.stack([t, 0.05 * t * t], axis=1) + rng.normal(0, 2e-4, (60, 2))
        with pytest.raises(InsufficientRegularity):
            cf.third_deriv_bound(cf.from_samples(pts, 60))

    def test_smooth_samples_accepted(self):
        t = np.linspace(0, 1, 80)
        crv = cf.from_samples(np.stack([t, t * t], axis=1), 80)
        assert cf.third_deriv_bound(crv).bound > 0.0


class TestInvariants:
    def test_chord_le_arc_pairs(self, quarter_circle):
        P, T, t = quarter_circle.points, quarter_circle.tangents, quarter_circle.params
        iu, ju = np.triu_indices(len(t), k=1)
        ip = np.einsum("kd,kd->k", T[iu], P[ju] - P[iu])
        assert np.all(ip <= (t[ju] - t[iu]) + 1e-12)

    def test_resample_length_stable(self):
        crv = cf.make_analytic(lambda t: np.array([t, t * t]),
                               lambda t: np.array([1.0, 2.0 * t]), (0.0, 1.0), 100)
        fine = cf.curve.resample(crv, 400)
        assert fine.length == pytest.approx(crv.length, rel=1e-3)
        sampled = cf.from_samples(crv.points, 100)
        finer = cf.curve.resample(sampled, 400)
        assert finer.length == pytest.approx(sampled.length, rel=1e-3)

    def test_cumulative_chord_close_to_length(self, quarter_circle):
        seg = np.linalg.norm(np.diff(quarter_circle.points, axis=0), axis=1)
        assert seg.sum() == pytest.approx(quarter_circle.length, rel=1e-3)

    def test_tangent_norms(self, spiral_05):
        norms = np.linalg.norm(spiral_05.tangents, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_immutable_arrays(self, segment):
        with pytest.raises(ValueError):
            segment.points[0, 0] = 99.0


class TestArcChain:
    def test_unit_speed_exact(self):
        crv = cf.make_arc_chain([0.5, -1.0, 2.0], [0.4, 0.7, 0.3], 120)
        assert crv.length == pytest.approx(1.4, abs=1e-12)
        # chord <= arc holds to machine precision on closed-form chains
        P, t = crv.points, crv.params
        iu, ju = np.triu_indices(len(t), k=1)
        chords = np.linalg.norm(P[ju] - P[iu], axis=1)
        assert np.all(chords <= (t[ju] - t[iu]) * (1 + 1e-14) + 1e-14)

    def test_single_straight_piece_is_segment(self):
        crv = cf.make_arc_chain([0.0], [2.0], 5)
        np.testing.assert_allclose(crv.points[-1], [2, 0], atol=1e-12)


class TestIO:
    def test_csv_roundtrip(self, tmp_path, quarter_circle):
        path = tmp_path / "curve.csv"
        cf.curve.save_csv(quarter_circle, path)
        back = cf.curve.load_csv(path)
        np.testing.assert_array_equal(back.params, quarter_circle.params)
        np.testing.assert_array_equal(back.points, quarter_circle.points)
        np.testing.assert_array_equal(back.tangents, quarter_circle.tangents)

    def test_json_roundtrip(self, tmp_path, segment):
        path = tmp_path / "curve.json"
        cf.curve.save_json(segment, path, alpha=1.0)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["dim"] == 2
        assert doc["alpha"] == 1.0
        assert doc["source"] == "analytic"
        assert doc["L"] == pytest.approx(1.0)
        back = cf.curve.load_json(path)
        np.testing.assert_array_equal(back.points, segment.points)

    @pytest.mark.parametrize("column,field", [(0, "t"), (2, "x"), (3, "tx")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_csv_rejects_non_finite_numbers(self, tmp_path, quarter_circle, column, field, value):
        data = np.column_stack([quarter_circle.params, quarter_circle.points,
                                quarter_circle.tangents])
        data[5, column] = value
        path = tmp_path / "c.csv"
        np.savetxt(path, data, delimiter=",", header="t,x1,x2,tx1,tx2", comments="")
        with pytest.raises(ValueError, match=f"^curve file: {field} is not finite at sample 5$"):
            cf.curve.load_csv(path)

    @pytest.mark.parametrize("field", ["params", "points", "tangents"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf, None])
    def test_json_rejects_non_finite_numbers(self, quarter_circle, field, value):
        doc = cf.curve.to_json_dict(quarter_circle)
        if field == "params":
            doc[field][7] = value
        else:
            doc[field][7][1] = value
        with pytest.raises(ValueError, match=f"^curve document: {field} is not finite at sample 7$"):
            cf.curve.from_json_dict(doc)

    def test_json_rejects_a_non_finite_scalar(self, quarter_circle):
        doc = dict(cf.curve.to_json_dict(quarter_circle), params=math.nan)
        with pytest.raises(ValueError, match="^curve document: params is not finite at sample 0$"):
            cf.curve.from_json_dict(doc)

    def test_loaded_curve_supports_evaluation(self, tmp_path, quarter_circle):
        path = tmp_path / "c.csv"
        cf.curve.save_csv(quarter_circle, path)
        back = cf.curve.load_csv(path)
        p = back.point_at(0.5)
        np.testing.assert_allclose(p, [np.cos(0.5), np.sin(0.5)], atol=1e-6)


# The built-in generators as first written: scalar evaluators through make_analytic.

def _scalar_segment(p0, p1, n):
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    L = float(np.linalg.norm(p1 - p0))
    d = (p1 - p0) / L
    zero = np.zeros_like(d)
    return cf.make_analytic(lambda u: p0 + u * d, lambda u: d, (0.0, L), n,
                            third_derivative=lambda u: zero)


def _scalar_circle_arc(angle, n, R):
    gamma = lambda u: np.array([R * math.cos(u / R), R * math.sin(u / R)])
    dgamma = lambda u: np.array([-math.sin(u / R), math.cos(u / R)])
    d3 = lambda u: np.array([math.sin(u / R), -math.cos(u / R)]) / R**2
    return cf.make_analytic(gamma, dgamma, (0.0, R * angle), n,
                            third_derivative=d3)


def _scalar_log_spiral(lam, t_max, n):
    w = 1j - lam

    def deriv(order):
        c = w**order
        return lambda u: np.array([(c * np.exp(w * u)).real, (c * np.exp(w * u)).imag])

    return cf.make_analytic(deriv(0), deriv(1), (0.0, t_max), n,
                            third_derivative=deriv(3))


def _scalar_arc_chain(curvatures, lengths, n, start, heading):
    ks, ls = np.asarray(curvatures, dtype=float), np.asarray(lengths, dtype=float)
    breaks = np.concatenate([[0.0], np.cumsum(ls)])
    psis = np.concatenate([[heading], heading + np.cumsum(ks * ls)])

    def arc_step(psi, kap, du):
        half = 0.5 * kap * du
        s = math.sin(half) / half if half != 0.0 else 1.0
        mid = psi + half
        return du * s * np.array([math.cos(mid), math.sin(mid)])

    starts = [np.asarray(start, dtype=float)]
    for k, (kap, a, b) in enumerate(zip(ks, breaks[:-1], breaks[1:])):
        starts.append(starts[-1] + arc_step(psis[k], kap, b - a))

    def locate(u):
        j = int(np.searchsorted(breaks, u, side="right") - 1)
        return min(max(j, 0), len(ks) - 1)

    def gamma(u):
        j = locate(u)
        return starts[j] + arc_step(psis[j], ks[j], u - breaks[j])

    def dgamma(u):
        j = locate(u)
        psi2 = psis[j] + ks[j] * (u - breaks[j])
        return np.array([math.cos(psi2), math.sin(psi2)])

    return cf.make_analytic(gamma, dgamma, (0.0, breaks[-1]), n)


_GENERATORS = {
    "segment": (lambda n: cf.make_segment([0.3, -1.0, 0.0], [1.1, 0.4, -0.0], n),
                lambda n: _scalar_segment([0.3, -1.0, 0.0], [1.1, 0.4, -0.0], n)),
    "circle": (lambda n: cf.make_circle_arc(2.3, n, 1.7),
               lambda n: _scalar_circle_arc(2.3, n, 1.7)),
    "spiral": (lambda n: cf.make_log_spiral(0.3, 9.0, n),
               lambda n: _scalar_log_spiral(0.3, 9.0, n)),
    "arc-chain": (lambda n: cf.make_arc_chain([0.0, 1.5, -2.5], [0.4, 0.7, 0.3], n,
                                              start=(1.0, -2.0), heading=0.4),
                  lambda n: _scalar_arc_chain([0.0, 1.5, -2.5], [0.4, 0.7, 0.3], n,
                                              (1.0, -2.0), 0.4)),
}


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _third_bound(crv):
    try:
        return cf.third_deriv_bound(crv).values
    except (ValueError, InsufficientRegularity) as exc:  # finite differences on few samples
        return repr(exc)


class TestArrayGenerators:
    """Array evaluators reproduce the scalar ones through make_analytic bit for bit."""

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    @pytest.mark.parametrize("n", [2, 3, 200, 5000])
    def test_matches_scalar_evaluators(self, name, n):
        if name == "spiral" and n < 10:
            n += 8  # the spiral generator needs at least 10 samples
        array_gen, scalar_gen = _GENERATORS[name]
        crv, ref = array_gen(n), scalar_gen(n)
        for field in ("params", "points", "tangents"):
            assert _bitwise(getattr(crv, field), getattr(ref, field)), field
        got, want = _third_bound(crv), _third_bound(ref)
        assert got == want if isinstance(want, str) else _bitwise(got, want)

        t = np.concatenate([crv.params, np.random.default_rng(n).uniform(0.0, crv.length, 300)])
        for method in ("point_at", "tangent_at"):
            assert _bitwise(getattr(crv, method)(t), getattr(ref, method)(t)), method
            for tk in t[::max(len(t) // 40, 1)]:
                value = getattr(crv, method)(tk)
                assert value.shape == (crv.dim,)
                assert _bitwise(value, getattr(ref, method)(tk)), (method, tk)
                assert _bitwise(value, getattr(crv, method)(float(tk))), (method, tk)
