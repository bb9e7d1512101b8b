import math

import numpy as np
import pytest

import contractflow as cf
from contractflow.errors import ConditionCFailed
from contractflow.extend import JetData


@pytest.fixture(scope="module")
def segment_jet(segment):
    plan = cf.exponential_plan_with_rate(segment, 1.0)
    return cf.curve_jet(segment, plan)


@pytest.fixture(scope="module")
def circle_jet(quarter_circle):
    c0 = cf.estimate_c0(quarter_circle)
    reg = cf.holder_seminorm(quarter_circle, 1.0, safety_factor=1.0)
    plan = cf.exponential_plan(quarter_circle, reg, c0)
    return cf.curve_jet(quarter_circle, plan)


class TestCurveJet:
    def test_segment_closed_form(self, segment, segment_jet):
        t = segment.params
        np.testing.assert_allclose(segment_jet.values,
                                   np.exp(-t) - math.exp(-1.0), atol=1e-12)
        np.testing.assert_allclose(segment_jet.gradients[:, 0], -np.exp(-t),
                                   atol=1e-12)
        np.testing.assert_allclose(segment_jet.gradients[:, 1], 0.0, atol=1e-15)

    def test_last_value_zero(self, segment_jet, circle_jet):
        assert segment_jet.values[-1] == 0.0
        assert circle_jet.values[-1] == 0.0

    def test_gradient_norm_is_inverse_m(self, circle_jet, quarter_circle):
        c0 = cf.estimate_c0(quarter_circle)
        reg = cf.holder_seminorm(quarter_circle, 1.0, safety_factor=1.0)
        plan = cf.exponential_plan(quarter_circle, reg, c0)
        norms = np.linalg.norm(circle_jet.gradients, axis=1)
        np.testing.assert_allclose(norms * np.asarray(plan.m(quarter_circle.params)),
                                   1.0, atol=1e-9)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)

    def test_values_strictly_decreasing(self, circle_jet):
        assert np.all(np.diff(circle_jet.values) < 0.0)


class TestConditionC:
    def test_segment_passes(self, segment_jet):
        rep = cf.check_C(segment_jet)
        assert rep.passed
        assert rep.step1_min >= -1e-12
        assert rep.step2_min >= 0.0

    def test_segment_step2_closed_form(self, segment_jet, segment):
        # pair (t=0, s=1): f(1)-f(0) = -(1-1/e) >= <G_0, x_1-x_0> = -1
        f, x, g = segment_jet.values, segment_jet.anchors, segment_jet.gradients
        lhs = f[-1] - f[0]
        rhs = g[0] @ (x[-1] - x[0])
        assert lhs == pytest.approx(-(1.0 - math.exp(-1.0)), abs=1e-12)
        assert rhs == pytest.approx(-1.0, abs=1e-12)
        assert lhs >= rhs

    def test_corrupted_gradient_fails(self, segment_jet):
        g = segment_jet.gradients.copy()
        g[0] = -10.0 * g[0]
        bad = JetData(anchors=segment_jet.anchors, values=segment_jet.values,
                      gradients=g)
        rep = cf.check_C(bad)
        assert not rep.passed
        assert rep.witness[1] == 0  # the corrupted anchor is the y of the witness

    def test_circle_passes(self, circle_jet):
        assert cf.check_C(circle_jet).passed


class TestConditionCW1:
    def test_strict_plans_have_no_equality_pairs(self, circle_jet, segment_jet):
        for jet in (circle_jet, segment_jet):
            rep = cf.check_CW1(jet)
            assert rep.passed
            assert rep.n_equality_pairs == 0

    def test_duplicated_anchor_fails(self):
        jet = JetData(anchors=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                      values=np.array([1.0, 1.0, 0.0]),
                      gradients=np.array([[-1.0, 0.0], [-0.5, 0.0], [-0.2, 0.0]]))
        rep = cf.check_CW1(jet)
        assert not rep.passed
        assert rep.n_equality_pairs >= 2

    def test_exact_ties_with_equal_gradients_pass(self):
        jet = JetData(anchors=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                      values=np.array([1.0, 0.3, 0.3]),
                      gradients=np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        rep = cf.check_CW1(jet)
        assert rep.passed
        assert rep.n_equality_pairs == 2


class TestBuildExtension:
    def test_interpolates_anchors(self, circle_jet):
        ext = cf.build_extension(circle_jet, smoothing_eps=0.0)
        vals = cf.eval_f(ext, circle_jet.anchors)
        np.testing.assert_allclose(vals, circle_jet.values, atol=1e-12)

    def test_condition_c_guard(self, segment_jet):
        g = segment_jet.gradients.copy()
        g[0] = -10.0 * g[0]
        bad = JetData(anchors=segment_jet.anchors, values=segment_jet.values,
                      gradients=g)
        with pytest.raises(ConditionCFailed):
            cf.build_extension(bad)

    def test_default_eps_is_relative(self, circle_jet):
        ext = cf.build_extension(circle_jet)
        assert ext.smoothing_eps == pytest.approx(1e-3 * circle_jet.value_range)

    @pytest.mark.parametrize("kwargs", [dict(smoothing_eps=math.nan),
                                        dict(smoothing_eps=math.inf),
                                        dict(smoothing_eps=-1.0),
                                        dict(eps_rel=math.nan), dict(eps_rel=math.inf)])
    def test_smoothing_must_be_finite_and_nonnegative(self, circle_jet, kwargs):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cf.build_extension(circle_jet, **kwargs)

    def test_sandwich(self, circle_jet):
        ext0 = cf.build_extension(circle_jet, smoothing_eps=0.0)
        eps = 1e-3
        ext = cf.build_extension(circle_jet, smoothing_eps=eps)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.5, 1.5, size=(500, 2))
        f0 = cf.eval_f(ext0, pts)
        fe = cf.eval_f(ext, pts)
        n = ext.n_pieces
        assert np.all(fe >= f0 - 1e-12)
        assert np.all(fe <= f0 + eps * math.log(n) + 1e-12)

    def test_segment_envelope_matches_convex_function(self, segment_jet):
        # along the axis the envelope is the tangent-line hull of e^{-u} - e^{-1}
        ext = cf.build_extension(segment_jet, smoothing_eps=0.0)
        u = np.linspace(0.0, 1.0, 301)
        pts = np.stack([u, np.zeros_like(u)], axis=1)
        target = np.exp(-u) - math.exp(-1.0)
        vals = cf.eval_f(ext, pts)
        h = 1.0 / (len(segment_jet.values) - 1)
        assert np.all(vals <= target + 1e-12)
        assert np.abs(vals - target).max() <= h * h  # chord error O(grid^2)


class TestEvalGrad:
    def test_converges_to_anchor_gradient(self, circle_jet):
        j = 57
        x = circle_jet.anchors[j]
        errs = []
        for eps in (1e-2, 1e-4, 1e-6):
            ext = cf.build_extension(circle_jet, smoothing_eps=eps)
            errs.append(np.linalg.norm(cf.eval_grad(ext, x) - circle_jet.gradients[j]))
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-12
        assert errs[2] <= 1e-8

    def test_finite_difference_consistency(self, circle_jet):
        ext = cf.build_extension(circle_jet, smoothing_eps=1e-3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 1.5, size=(100, 2))
        h = 1e-6
        for x in pts:
            g = cf.eval_grad(ext, x)
            fd = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (cf.eval_f(ext, x + e) - cf.eval_f(ext, x - e)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-5

    def test_single_piece_affine(self):
        jet = JetData(anchors=np.array([[0.5, 0.5]]), values=np.array([2.0]),
                      gradients=np.array([[1.0, -1.0]]))
        ext = cf.build_extension(jet, smoothing_eps=0.0)
        rng = np.random.default_rng(4)
        for x in rng.normal(size=(5, 2)):
            np.testing.assert_allclose(cf.eval_grad(ext, x), [1.0, -1.0])
            assert cf.eval_f(ext, x) == pytest.approx(2.0 + np.array([1.0, -1.0]) @ (x - [0.5, 0.5]))

    def test_tie_breaks_to_lowest_index(self):
        # two identical pieces: argmax must pick index 0
        jet = JetData(anchors=np.array([[0.0, 0.0], [0.0, 0.0]]),
                      values=np.array([1.0, 1.0]),
                      gradients=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        ext = cf.ConvexExtension(anchors=jet.anchors, values=jet.values,
                                 gradients=jet.gradients, smoothing_eps=0.0)
        np.testing.assert_array_equal(cf.eval_grad(ext, np.zeros(2)), [1.0, 0.0])

    def test_one_point_matches_the_batch_formula_bit_for_bit(self, circle_jet):
        # the in-place path for one point against the formula it replaced,
        # with points far enough out that most softmax weights underflow to 0
        def reference(ext, x):
            p = np.asarray(x, dtype=float) @ ext.gradients.T + ext.offsets
            m = p.max(axis=-1, keepdims=True)
            w = np.exp((p - m) / ext.smoothing_eps)
            w /= w.sum(axis=-1, keepdims=True)
            return w @ ext.gradients

        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-0.5, 1.5, size=(1000, 2)),
                              rng.normal(scale=50.0, size=(1000, 2))])
        underflowed = 0
        for eps in (1e-2, 1e-6):
            ext = cf.build_extension(circle_jet, smoothing_eps=eps)
            for x in pts:
                got = cf.eval_grad(ext, x)
                assert got.tobytes() == reference(ext, x).tobytes()
                p = ext.piece_values(x)
                underflowed += np.count_nonzero(np.exp((p - p.max()) / eps) == 0.0)
            batch = cf.eval_grad(ext, pts[:64])
            assert batch.tobytes() == reference(ext, pts[:64]).tobytes()
        assert underflowed > 0

    @pytest.mark.parametrize("n", [200, 5000])
    def test_one_point_matches_the_in_place_formula_bit_for_bit(self, circle_jet, n):
        # one point against the in-place keepdims form, on a coarse and a fine
        # arc, with an eps at which some softmax weights underflow to 0
        def in_place(ext, x):
            p = ext.piece_values(x)
            p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            p /= ext.smoothing_eps
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            return p @ ext.gradients

        jet, step = circle_jet, 1
        if n != 200:  # a finer arc, at every 10th point
            arc = cf.make_circle_arc(np.pi / 2, n)
            jet, step = cf.curve_jet(arc, cf.exponential_plan_with_rate(arc, 1.0)), 10
        rng = np.random.default_rng(6)
        pts = np.concatenate([rng.uniform(-0.5, 1.5, size=(1000, 2)),
                              rng.normal(scale=50.0, size=(1000, 2))])[::step]
        underflowed = 0
        for eps in (1e-2, 1e-6):
            ext = cf.build_extension(jet, smoothing_eps=eps)
            for x in pts:
                assert cf.eval_grad(ext, x).tobytes() == in_place(ext, x).tobytes()
                p = ext.piece_values(x)
                underflowed += np.count_nonzero(np.exp((p - p.max()) / eps) == 0.0)
            assert cf.eval_grad(ext, pts[:64]).tobytes() == in_place(ext, pts[:64]).tobytes()
        assert underflowed > 0

    def test_a_square_grid_of_points_is_blended_point_by_point(self, circle_jet):
        # a (3, 3, 2) batch: each point's maximum and sum must meet its own pieces
        ext = cf.build_extension(circle_jet, smoothing_eps=1e-2)
        x = np.random.default_rng(7).uniform(-0.5, 1.5, size=(3, 3, 2))
        want = np.array([[cf.eval_grad(ext, x[a, b]) for b in range(3)] for a in range(3)])
        np.testing.assert_allclose(cf.eval_grad(ext, x), want, rtol=1e-12, atol=1e-15)


    def test_a_reversed_view_rounds_as_its_copy(self, circle_jet):
        # matmul takes another loop for a negative-stride point; the values,
        # gradients and flows of x[::-1] and of its copy must agree bitwise
        rng = np.random.default_rng(8)
        for _ in range(200):
            n, d = int(rng.integers(1, 300)), int(rng.integers(2, 4))
            ext = cf.ConvexExtension(anchors=rng.standard_normal((n, d)),
                                     values=rng.standard_normal(n),
                                     gradients=rng.standard_normal((n, d)),
                                     smoothing_eps=float(rng.choice([0.0, 1e-2, 1.0])))
            x = rng.standard_normal(d)
            view, copy = x[::-1], x[::-1].copy()
            assert np.asarray(cf.eval_f(ext, view)).tobytes() == np.asarray(
                cf.eval_f(ext, copy)).tobytes()
            assert cf.eval_grad(ext, view).tobytes() == cf.eval_grad(ext, copy).tobytes()
        ext = cf.build_extension(circle_jet, smoothing_eps=1e-2)
        times = np.linspace(0.0, 1.0, 11)
        for x in rng.uniform(-0.5, 1.5, size=(20, 2)):
            view, copy = x[::-1], x[::-1].copy()
            got = cf.flow.sample_states(ext, view, times).states
            assert got.tobytes() == cf.flow.sample_states(ext, copy, times).states.tobytes()

    def test_a_scalar_is_not_a_point_of_the_line(self):
        # a point is (d,) or (k, d) at d = 1 too; a 0-d x is refused by matmul
        ext = cf.ConvexExtension(anchors=np.array([[0.0], [1.0]]), values=np.array([0.0, 1.0]),
                                 gradients=np.array([[-1.0], [1.0]]), smoothing_eps=1e-2)
        for f in (cf.eval_f, cf.eval_grad):
            with pytest.raises(ValueError, match="matmul"):
                f(ext, 0.5)
            f(ext, np.array([0.5]))  # must not raise


class TestExtensionInvariants:
    def test_subgradient_property(self, circle_jet):
        ext = cf.build_extension(circle_jet, smoothing_eps=0.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.0, 2.0, size=(200, 2))
        vals = cf.eval_f(ext, pts)
        for j in (0, 50, 150, 199):
            planes = (circle_jet.values[j]
                      + (pts - circle_jet.anchors[j]) @ circle_jet.gradients[j])
            assert np.all(vals >= planes - 1e-12)

    def test_convexity_random_triples(self, circle_jet):
        rng = np.random.default_rng(8)
        for eps in (0.0, 1e-3):
            ext = cf.build_extension(circle_jet, smoothing_eps=eps)
            x = rng.uniform(-1, 2, size=(100, 2))
            y = rng.uniform(-1, 2, size=(100, 2))
            th = rng.uniform(0, 1, size=100)
            mid = th[:, None] * x + (1 - th[:, None]) * y
            lhs = cf.eval_f(ext, mid)
            rhs = th * cf.eval_f(ext, x) + (1 - th) * cf.eval_f(ext, y)
            assert np.all(lhs <= rhs + 1e-12)

    def test_gradient_lipschitz_ratio(self, circle_jet):
        eps = 1e-2
        ext = cf.build_extension(circle_jet, smoothing_eps=eps)
        spread = np.linalg.norm(
            circle_jet.gradients[:, None, :] - circle_jet.gradients[None, :, :],
            axis=2).max()
        k_theory = spread**2 / (4.0 * eps)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-0.5, 1.5, size=(200, 2))
        ys = xs + rng.normal(0, 1e-4, size=(200, 2))
        gx = cf.eval_grad(ext, xs)
        gy = cf.eval_grad(ext, ys)
        ratios = (np.linalg.norm(gx - gy, axis=1)
                  / np.linalg.norm(xs - ys, axis=1))
        assert ratios.max() <= 1.01 * k_theory

    @pytest.mark.parametrize("field", ["anchors", "values", "gradients", "eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_serialized_non_finite_numbers_are_rejected(self, circle_jet, field, value):
        doc = cf.build_extension(circle_jet, smoothing_eps=1e-3).to_json_dict()
        if field == "eps":
            doc[field] = value
        elif field == "values":
            doc[field][4] = value
        else:
            doc[field][4][0] = value
        with pytest.raises(ValueError, match=f"^extension:? {field}"):
            cf.extend.extension_from_json_dict(doc)

    def test_serialization_roundtrip(self, circle_jet):
        ext = cf.build_extension(circle_jet, smoothing_eps=1e-3)
        doc = ext.to_json_dict()
        back = cf.extend.extension_from_json_dict(doc)
        x = np.array([0.3, 0.4])
        assert cf.eval_f(back, x) == pytest.approx(cf.eval_f(ext, x), abs=1e-15)
