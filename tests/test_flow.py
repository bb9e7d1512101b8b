import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

import contractflow as cf
from contractflow import cli, flow, numint
from contractflow.contract import ContractLevel
from contractflow.errors import BlowUp, IdentityViolated
from contractflow.flow import Trajectory


def isotropic_grad(x):
    return x


def isotropic_val(x):
    return 0.5 * float(x @ x)


def aniso_grad(x):
    return np.array([x[0], 4.0 * x[1]])


def aniso_val(x):
    return 0.5 * (x[0] ** 2 + 4.0 * x[1] ** 2)


def nan_off_start(x):
    """A gradient that is NaN everywhere but at the start point (1, 0)."""
    return -x if x[0] == 1.0 else np.full(2, np.nan)


class TestIntegrate:
    def test_isotropic_quadratic(self):
        traj = cf.integrate(isotropic_grad, np.array([1.0, 0.0]), 1.0, 1e-3)
        np.testing.assert_allclose(traj.states[-1], [math.exp(-1.0), 0.0],
                                   atol=1e-6)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_anisotropic_closed_form(self):
        traj = cf.integrate(aniso_grad, np.array([1.0, 1.0]), 0.5, 1e-3)
        np.testing.assert_allclose(traj.states[-1],
                                   [math.exp(-0.5), math.exp(-2.0)], atol=1e-5)

    def test_stationary_start(self):
        traj = cf.integrate(isotropic_grad, np.zeros(2), 1.0, 1e-2)
        assert len(traj.times) == 1
        assert traj.speeds[0] < 1e-8

    def test_blow_up(self):
        with pytest.raises(BlowUp):
            cf.integrate(lambda x: -x, np.array([1.0, 0.0]), 40.0, 1e-2)

    def test_non_finite_state_blows_up(self):
        # NaN compares False with the norm limit; it must not flow on silently
        def nan_after_first_step(x):
            return -x if x[0] == 1.0 else np.full(2, np.nan)
        with pytest.raises(BlowUp, match="nan"):
            cf.integrate(nan_after_first_step, np.array([1.0, 0.0]), 1.0, 1e-2)

    @pytest.mark.parametrize("t_end,dt", [(1.0, math.nan), (math.inf, math.inf),
                                          (math.nan, 0.1), (math.inf, 0.1), (1.0, 0.0)])
    def test_rejects_non_finite_or_non_positive_times(self, t_end, dt):
        with pytest.raises(ValueError, match="positive and finite"):
            cf.integrate(isotropic_grad, np.array([1.0, 0.0]), t_end, dt)

    def test_speeds_match_gradient_norm(self):
        traj = cf.integrate(aniso_grad, np.array([1.0, 1.0]), 0.3, 1e-3)
        norms = np.linalg.norm([aniso_grad(x) for x in traj.states], axis=1)
        np.testing.assert_allclose(traj.speeds, norms, atol=1e-8)

    def test_rejects_unsmoothed_extension(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        ext = cf.build_extension(cf.curve_jet(segment, plan), smoothing_eps=0.0)
        with pytest.raises(ValueError):
            cf.integrate(ext, np.zeros(2), 1.0, 1e-2)

    def test_rk4_order(self):
        # halving dt cuts the error by ~2^4 on the closed-form linear flow
        errs = []
        for dt in (0.1, 0.05):
            traj = cf.integrate(isotropic_grad, np.array([1.0, 0.0]), 1.0, dt)
            errs.append(abs(traj.states[-1][0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 11.0 <= ratio <= 21.0


class TestSampleFlow:
    def test_closed_form_at_the_sample_times(self):
        times = np.linspace(0.0, 2.0, 21)
        traj = cf.sample_flow(aniso_grad, np.array([1.0, 1.0]), times)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_allclose(traj.states, np.column_stack(
            [np.exp(-times), np.exp(-4.0 * times)]), rtol=0, atol=1e-8)
        norms = np.linalg.norm([aniso_grad(x) for x in traj.states], axis=1)
        np.testing.assert_allclose(traj.speeds, norms, rtol=1e-14)

    def test_grad_evals_counts_every_call(self):
        calls = []

        def counted(x):
            calls.append(1)
            return aniso_grad(x)

        traj = cf.sample_flow(counted, np.array([1.0, 1.0]), np.linspace(0.0, 2.0, 21))
        assert traj.grad_evals == len(calls)
        assert traj.grad_evals < 1000

    def test_blow_up_names_the_state_norm(self):
        with pytest.raises(BlowUp, match="^state norm exceeds 2e\\+06 at t = 14.5"):
            cf.sample_flow(lambda x: -x, np.array([1.0, 0.0]), [0.0, 40.0])

    def test_step_size_collapse_blows_up(self, monkeypatch):
        # the error control shrinks the step until the trial states equal x0,
        # then grows it again, without end
        monkeypatch.setattr(flow, "MAX_EVALS", 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp, match="step size collapsed"):
                cf.sample_flow(nan_off_start, np.array([1.0, 0.0]), [0.0, 1.0])

    def test_solver_failure_blows_up(self):
        # late start times: the step size falls below the spacing of t first
        with pytest.raises(BlowUp, match="flow integration failed"):
            cf.sample_flow(nan_off_start, np.array([1.0, 0.0]), [1e6, 1e6 + 1.0])

    def test_overflowing_steps_blow_up_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp, match="^state norm"):
                cf.sample_flow(lambda x: np.array([-1e300 * x[0], 0.0]),
                               np.array([1.0, 0.0]), [0.0, 1.0])

    def test_extension_is_freed_on_return(self, segment):
        # without the cyclic collector: the solver's reference cycle must not hold F
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        ext = cf.build_extension(cf.curve_jet(segment, plan))
        ref = weakref.ref(ext)
        gc.disable()
        try:
            cf.sample_flow(ext, segment.points[0], [0.0, 1.0])
            del ext
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("times", [[0.0], [0.0, math.nan], [1.0, 0.0],
                                       [0.0, 1.0, 1.0], [0.0, math.inf]])
    def test_rejects_bad_times(self, times):
        with pytest.raises(ValueError, match="2 or more finite, strictly increasing"):
            cf.sample_flow(isotropic_grad, np.array([1.0, 0.0]), times)

    def test_rejects_unsmoothed_extension(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        ext = cf.build_extension(cf.curve_jet(segment, plan), smoothing_eps=0.0)
        with pytest.raises(ValueError, match="eps = 0"):
            cf.sample_flow(ext, np.zeros(2), [0.0, 1.0])


class TestPipelineFlow:
    @pytest.mark.parametrize("kwargs", [
        {"generator": "segment", "plan_kind": "exp"},
        {"generator": "circle", "plan_kind": "exp"},
        {"generator": "circle", "plan_kind": "endpoint"},
        {"generator": "circle", "plan_kind": "zeta"},
    ])
    def test_sup_distance_matches_a_dop853_reference(self, kwargs):
        report = cli.run_pipeline(cli.PipelineConfig(**kwargs))
        res = report.results
        ext = res["extension"]
        rc = cf.reparameterize(res["curve"], res["plan"], 400, res["horizon"])
        ref = solve_ivp(lambda t, x: -cf.eval_grad(ext, x), (0.0, rc.times[-1]),
                        rc.points[0], method="DOP853", t_eval=rc.times,
                        rtol=1e-11, atol=1e-13)
        exact = cf.roundtrip_error(Trajectory(ref.t, ref.y.T, np.zeros(len(ref.t))), rc)
        flow_data = report.stages[-1]["data"]
        assert abs(flow_data["sup_distance"] - exact.sup_distance) <= 1e-5

    def test_grad_evals_reports_every_evaluation(self, monkeypatch):
        calls = []

        def counted(ext, x):
            calls.append(np.ndim(x))
            return cf.eval_grad(ext, x)

        monkeypatch.setattr(flow, "eval_grad", counted)
        report = cli.run_pipeline(cli.PipelineConfig(generator="circle",
                                                     plan_kind="endpoint"))
        assert report.exit_code == 0
        # the solver's evaluations, then the final speed on the last block of
        # 64 rows of the 400 samples: rows 384 to 399
        assert calls.count(2) == 1 and len(calls) <= 1000
        assert report.stages[-1]["data"]["grad_evals"] == calls.count(1) + 16


def _rk4_reference(ext_or_f, x0, t_end, dt):
    """``integrate`` as first written: one NumPy array per stage and update."""
    grad = flow._gradient_fn(ext_or_f)
    x = np.asarray(x0, dtype=float).copy()
    limit = 1e6 * (np.linalg.norm(x) + 1.0)
    times = [0.0]
    states = [x.copy()]
    g = np.asarray(grad(x), dtype=float)
    speeds = [float(np.linalg.norm(g))]
    t = 0.0
    while t < t_end * (1.0 - 1e-12):
        if speeds[-1] < flow.GRAD_STOP:
            break
        h = min(dt, t_end - t)
        k1 = -g
        k2 = -np.asarray(grad(x + 0.5 * h * k1), dtype=float)
        k3 = -np.asarray(grad(x + 0.5 * h * k2), dtype=float)
        k4 = -np.asarray(grad(x + h * k3), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        norm = math.hypot(*x)
        if not norm <= limit:
            raise BlowUp(f"state norm {norm:.3g} is not within {limit:.3g} at t = {t:.6g}")
        g = np.asarray(grad(x), dtype=float)
        times.append(t)
        states.append(x.copy())
        speeds.append(float(np.linalg.norm(g)))
    return Trajectory(times=np.array(times), states=np.array(states),
                      speeds=np.array(speeds))


def _solve_ivp_reference(ext_or_f, x0, times):
    """``sample_flow`` as first written: RK45 through ``solve_ivp`` with an event."""
    times = np.asarray(times, dtype=float)
    grad = oracle = flow._gradient_fn(ext_or_f)
    x0 = np.asarray(x0, dtype=float)
    limit = 1e6 * (math.hypot(*x0) + 1.0)
    nfev = 0

    def velocity(t, x):
        nonlocal nfev
        nfev += 1
        if nfev > flow.MAX_EVALS:
            raise BlowUp(f"step size collapsed: {flow.MAX_EVALS} gradient evaluations "
                         f"reached only t = {t:.6g}")
        return -np.asarray(oracle(x), dtype=float)

    def escape(t, x):
        return limit - math.hypot(*x)
    escape.terminal = True

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(velocity, (times[0], times[-1]), x0, method="RK45",
                        t_eval=times, rtol=flow.RTOL, atol=flow.ATOL, events=escape)
    if sol.status == 1:
        raise BlowUp(f"state norm exceeds {limit:.3g} at t = {sol.t_events[0][0]:.6g}")
    if sol.status != 0:
        raise BlowUp(f"flow integration failed: {sol.message}")
    states = sol.y.T
    if not np.isfinite(states).all():
        raise BlowUp("flow state is not finite")
    if isinstance(ext_or_f, cf.ConvexExtension):
        g = np.concatenate([grad(states[i:i + flow.SPEED_ROWS])
                            for i in range(0, len(states), flow.SPEED_ROWS)])
    else:
        g = np.array([grad(x) for x in states], dtype=float)
    speeds = np.linalg.norm(g, axis=1)
    return Trajectory(times=times, states=states, speeds=speeds,
                      grad_evals=nfev + len(times))


def _outcome(run, *args):
    """A trajectory's exact bytes, layout and evaluation count, or the error raised."""
    try:
        traj = run(*args)
    except BlowUp as exc:
        return ("BlowUp", str(exc))
    return tuple((a.shape, a.strides, a.tobytes()) for a in
                 (traj.times, traj.states, traj.speeds)) + (traj.grad_evals,)


def _oracle(kind, d):
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d, d))
    A = m @ m.T / d + 0.1 * np.eye(d)
    x0 = rng.standard_normal(d)
    if kind == "linear":
        return (lambda x: A @ x), x0
    if kind == "identity":
        return (lambda x: x), x0  # returns its own input array
    return (lambda x: np.tanh(A @ x)), x0


@pytest.fixture(scope="module")
def arc_extension():
    crv = cf.make_circle_arc(np.pi / 2, 200)
    plan = cf.exponential_plan_with_rate(crv, 1.0)
    ext = cf.build_extension(cf.curve_jet(crv, plan))
    return ext, cf.reparameterize(crv, plan, 400, plan.T)


class TestIntegrateMatchesArrayForm:
    """The list-based RK4 loop reproduces the array loop bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("kind", ["linear", "identity", "tanh"])
    def test_random_flows(self, kind, d):
        grad, x0 = _oracle(kind, d)
        # t_end is not a multiple of dt: the last step is shorter
        for t_end, dt in ((1.0, 1e-2), (2.3, 0.07), (0.5, 0.3)):
            assert (_outcome(cf.integrate, grad, x0, t_end, dt)
                    == _outcome(_rk4_reference, grad, x0, t_end, dt))

    def test_extension_flow(self, arc_extension):
        ext, rc = arc_extension
        t_end = 0.37 * rc.times[-1]
        assert (_outcome(cf.integrate, ext, rc.points[0], t_end, t_end / 333.3)
                == _outcome(_rk4_reference, ext, rc.points[0], t_end, t_end / 333.3))

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [1e-7, -0.0], [1.0, -0.0]])
    def test_stationary_stop_and_signed_zeros(self, x0):
        for t_end in (1.0, 40.0):
            out = _outcome(cf.integrate, isotropic_grad, np.array(x0), t_end, 1e-2)
            assert out == _outcome(_rk4_reference, isotropic_grad, np.array(x0), t_end, 1e-2)

    @pytest.mark.parametrize("grad,match", [(lambda x: -x, "^state norm 2e\\+06 is not"),
                                            (nan_off_start, "^state norm nan is not")])
    def test_blow_up_messages(self, grad, match):
        out = _outcome(cf.integrate, grad, np.array([1.0, 0.0]), 40.0, 1e-2)
        assert out == _outcome(_rk4_reference, grad, np.array([1.0, 0.0]), 40.0, 1e-2)
        with pytest.raises(BlowUp, match=match):
            cf.integrate(grad, np.array([1.0, 0.0]), 40.0, 1e-2)

    def test_oracle_of_the_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="shape \\(3,\\) for a state of shape \\(2,\\)"):
            cf.integrate(lambda x: np.ones(3), np.array([1.0, 0.0]), 1.0, 1e-2)


class TestSampleFlowMatchesSolveIvp:
    """The RK45 stepper loop reproduces ``solve_ivp`` bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("kind", ["linear", "identity", "tanh"])
    def test_random_flows(self, kind, d):
        grad, x0 = _oracle(kind, d)
        for times in (np.linspace(0.0, 2.0, 21), np.linspace(0.5, 3.7, 400), [0.0, 1e-3]):
            assert (_outcome(cf.sample_flow, grad, x0, times)
                    == _outcome(_solve_ivp_reference, grad, x0, times))

    def test_extension_flow(self, arc_extension):
        ext, rc = arc_extension
        assert (_outcome(cf.sample_flow, ext, rc.points[0], rc.times)
                == _outcome(_solve_ivp_reference, ext, rc.points[0], rc.times))

    def test_escape_time(self):
        # the flow of roundtrip --gen circle --angle 2.5 meets the norm limit
        report = cli.run_pipeline(cli.PipelineConfig(generator="circle", angle=2.5),
                                  stop_after="extend")
        res = report.results
        rc = cf.reparameterize(res["curve"], res["plan"], 400, res["horizon"])
        out = _outcome(cf.sample_flow, res["extension"], rc.points[0], rc.times)
        assert out[0] == "BlowUp" and out[1].startswith("state norm exceeds")
        assert out == _outcome(_solve_ivp_reference, res["extension"], rc.points[0], rc.times)

    @pytest.mark.parametrize("grad,times", [
        (lambda x: -x, [0.0, 40.0]),
        (lambda x: np.array([-1e300 * x[0], 0.0]), [0.0, 1.0]),
        (nan_off_start, [1e6, 1e6 + 1.0]),  # the solver fails
    ])
    def test_failures(self, grad, times):
        out = _outcome(cf.sample_flow, grad, np.array([1.0, 0.0]), times)
        assert out[0] == "BlowUp"
        assert out == _outcome(_solve_ivp_reference, grad, np.array([1.0, 0.0]), times)

    def test_step_size_collapse(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_EVALS", 2000)
        out = _outcome(cf.sample_flow, nan_off_start, np.array([1.0, 0.0]), [0.0, 1.0])
        assert out[0] == "BlowUp" and "step size collapsed" in out[1]
        assert out == _outcome(_solve_ivp_reference, nan_off_start, np.array([1.0, 0.0]),
                               [0.0, 1.0])


class TestDenseSamplesMatchSolveIvp:
    """Many sample times per step: the dense output matches ``solve_ivp`` bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["linear", "identity", "tanh"])
    def test_random_flows(self, kind, d):
        # 5000 times on a span of a few steps: hundreds of samples per step
        grad, x0 = _oracle(kind, d)
        times = np.linspace(0.0, 0.2, 5000)
        out = _outcome(cf.sample_flow, grad, x0, times)
        assert out == _outcome(_solve_ivp_reference, grad, x0, times)
        assert out[-1] - len(times) <= 100  # the solver's evaluations

    def test_extension_flow(self, arc_extension):
        ext, rc = arc_extension
        times = np.linspace(0.0, 0.05 * rc.times[-1], 5000)
        assert (_outcome(cf.sample_flow, ext, rc.points[0], times)
                == _outcome(_solve_ivp_reference, ext, rc.points[0], times))


_A2 = np.array([[1.0, 0.3], [0.3, 2.0]])
# results that are not a fresh float64 array of the state's shape and layout
ODD_ORACLES = {
    "list": lambda x: [x[0], 4.0 * x[1]],
    "int": lambda x: np.rint(8.0 * x).astype(np.int64),
    "float32": lambda x: (_A2 @ x).astype(np.float32),
    "view": lambda x: x[::-1],  # of the state passed in
}
# results not of the state's shape (2,)
WRONG_SHAPES = [pytest.param(lambda x: float(x @ x), "()", id="scalar"),
                pytest.param(lambda x: np.ones(3), "(3,)", id="3-vector"),
                pytest.param(lambda x: x[None, :], "(1, 2)", id="row")]


class TestOracleResults:
    """Both integrators take any array-like of the state's shape and reject the rest."""

    @pytest.mark.parametrize("kind", ODD_ORACLES)
    def test_sample_flow_matches_solve_ivp(self, kind):
        grad, x0 = ODD_ORACLES[kind], np.array([1.0, 0.5])
        for times in (np.linspace(0.0, 2.0, 21), np.linspace(0.5, 3.7, 400)):
            assert (_outcome(cf.sample_flow, grad, x0, times)
                    == _outcome(_solve_ivp_reference, grad, x0, times))

    @pytest.mark.parametrize("kind", ODD_ORACLES)
    def test_integrate_matches_the_array_form(self, kind):
        grad, x0 = ODD_ORACLES[kind], np.array([1.0, 0.5])
        assert (_outcome(cf.integrate, grad, x0, 2.3, 0.07)
                == _outcome(_rk4_reference, grad, x0, 2.3, 0.07))

    @pytest.mark.parametrize("grad,shape", WRONG_SHAPES)
    def test_wrong_shape_is_rejected(self, grad, shape):
        # a scalar would broadcast into the stage derivatives and be integrated
        match = (f"^the gradient oracle returned shape {re.escape(shape)} "
                 f"for a state of shape \\(2,\\)$")
        x0 = np.array([1.0, 0.5])
        for run in (lambda: flow.sample_states(grad, x0, np.linspace(0.0, 1.0, 5)),
                    lambda: cf.sample_flow(grad, x0, np.linspace(0.0, 1.0, 5)),
                    lambda: cf.check_flow_self_contracted(grad, x0, 1.0),
                    lambda: cf.integrate(grad, x0, 1.0, 1e-2)):
            with pytest.raises(ValueError, match=match):
                run()

    def test_scalar_for_a_one_dimensional_state_is_rejected(self):
        # a 0-d gradient is not the (1,) gradient of a 1-d state in either integrator
        grad, x0 = (lambda x: 2.0 * float(x[0])), np.array([0.5])
        match = r"^the gradient oracle returned shape \(\) for a state of shape \(1,\)$"
        for run in (lambda: flow.sample_states(grad, x0, np.linspace(0.0, 1.0, 5)),
                    lambda: cf.integrate(grad, x0, 1.0, 1e-2)):
            with pytest.raises(ValueError, match=match):
                run()


class TestBrentMatchesScipy:
    """The Brent port returns SciPy's ``brentq`` root bit for bit."""

    tol = dict(xtol=4 * numint.EPS, rtol=4 * numint.EPS)

    def _both(self, f, a, b):
        return numint.brentq(f, a, b), brentq(f, a, b, **self.tol)

    @pytest.mark.parametrize("a,b", [(-3.0, 4.0), (0.5, 2.0), (1.0, 1.7), (-0.9, 0.0)])
    def test_cubic(self, a, b):
        got, want = self._both(lambda x: x**3 - 2.0 * x - 1.0, a, b)
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_gaps_on_dense_output(self, seed):
        # limit - ||y(s)|| on the quartic interpolant of one step, as for the escape time
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        t_old, t = 0.25, 0.25 + rng.uniform(0.05, 2.0)
        K = rng.standard_normal((7, d))
        y_old = rng.standard_normal(d)
        dense = flow._dense_output(t_old, t, y_old, K)
        lo, hi = math.hypot(*dense(t_old)), math.hypot(*dense(t))
        assert lo != hi
        limit = 0.5 * (lo + hi)
        sign = 1.0 if lo < hi else -1.0
        got, want = self._both(lambda s: sign * (limit - math.hypot(*dense(s))), t_old, t)
        assert got == want

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (-1.0, 1.0)])
    def test_root_at_an_endpoint(self, a, b):
        got, want = self._both(lambda x: x - 1.0, a, b)
        assert got == want == 1.0


class TestHausdorffMatchesCdist:
    """The blocked Hausdorff distance equals the cdist formula bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n,m", [(1, 1), (63, 64), (64, 63), (65, 65), (1, 65),
                                     (400, 399)])
    def test_random_point_sets(self, d, n, m):
        rng = np.random.default_rng(10 * n + d)
        a = rng.standard_normal((n, d)) * np.logspace(0, 3, d)
        b = np.asfortranarray(rng.standard_normal((m, d)))
        pair = cdist(a, b)
        want = max(float(pair.min(axis=1).max()), float(pair.min(axis=0).max()))
        assert flow._hausdorff(a, b) == want

    def test_flow_states_against_curve_points(self, arc_extension):
        ext, rc = arc_extension
        traj = cf.sample_flow(ext, rc.points[0], rc.times)
        pair = cdist(traj.states, rc.points)
        assert cf.roundtrip_error(traj, rc).hausdorff == max(
            float(pair.min(axis=1).max()), float(pair.min(axis=0).max()))


class TestRoundtripError:
    def test_identical_inputs(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        rc = cf.reparameterize(segment, plan, 50, plan.T)
        traj = Trajectory(times=rc.times, states=rc.points, speeds=rc.speeds)
        m = cf.roundtrip_error(traj, rc)
        assert m.sup_distance == 0.0
        assert m.terminal_distance == 0.0
        assert m.hausdorff == 0.0

    def test_segment_pipeline(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        ext = cf.build_extension(cf.curve_jet(segment, plan), smoothing_eps=1e-3)
        rc = cf.reparameterize(segment, plan, 400, plan.T)
        traj = cf.integrate(ext, rc.points[0], plan.T, 1e-3 * plan.T)
        m = cf.roundtrip_error(traj, rc)
        assert m.sup_distance <= 5e-2

    def test_unrelated_flow_is_far(self, segment):
        plan = cf.exponential_plan_with_rate(segment, 1.0)
        rc = cf.reparameterize(segment, plan, 100, plan.T)
        traj = cf.integrate(aniso_grad, np.array([0.0, 1.0]), plan.T,
                            1e-3 * plan.T)
        m = cf.roundtrip_error(traj, rc)
        assert m.sup_distance > 0.1


class TestFlowSelfContracted:
    def test_isotropic_ray(self):
        rep = cf.check_flow_self_contracted(isotropic_grad, np.array([1.0, 0.3]),
                                            3.0)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert rep.c0 == pytest.approx(0.9, abs=1e-6)

    def test_anisotropic_quadratic(self):
        rep = cf.check_flow_self_contracted(aniso_grad, np.array([1.0, 1.0]), 4.0)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert rep.c0 > 0.0

    def test_quasiconvex_bowl(self):
        # sqrt-shaped coercive bowl, smoothed at the origin
        a2 = 0.01

        def grad(x):
            return x / (2.0 * (x @ x + a2) ** 0.75)

        rep = cf.check_flow_self_contracted(grad, np.array([1.0, 0.5]), 3.0)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert rep.c0 > 0.0


class TestTraceEnergy:
    def test_isotropic_closed_form(self):
        traj = cf.integrate(isotropic_grad, np.array([1.0, 0.0]), 1.0, 1e-3)
        tr = cf.trace_energy(traj, isotropic_val)
        drop = tr.values[0] - tr.values[-1]
        assert drop == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-9)
        assert tr.max_residual <= 1e-9

    def test_anisotropic(self):
        traj = cf.integrate(aniso_grad, np.array([1.0, 1.0]), 1.0, 1e-3)
        tr = cf.trace_energy(traj, aniso_val)
        assert tr.max_residual <= 1e-6

    def test_corrupted_states(self):
        traj = cf.integrate(isotropic_grad, np.array([1.0, 0.0]), 1.0, 1e-3)
        rng = np.random.default_rng(0)
        bad = Trajectory(times=traj.times,
                         states=traj.states + rng.normal(0, 1e-2,
                                                         traj.states.shape),
                         speeds=traj.speeds)
        with pytest.raises(IdentityViolated):
            cf.trace_energy(bad, isotropic_val)


class TestFlowInvariants:
    def test_energy_decay_along_extension_flow(self, quarter_circle):
        c0 = cf.estimate_c0(quarter_circle)
        reg = cf.holder_seminorm(quarter_circle, 1.0, safety_factor=1.0)
        plan = cf.exponential_plan(quarter_circle, reg, c0)
        ext = cf.build_extension(cf.curve_jet(quarter_circle, plan))
        traj = cf.integrate(ext, quarter_circle.points[0], plan.T / 5.0,
                            1e-3 * plan.T)
        vals = cf.eval_f(ext, traj.states)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_random_spd_family(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            lams = rng.uniform(0.1, 10.0, size=2)
            while lams.max() / lams.min() > 100.0:
                lams = rng.uniform(0.1, 10.0, size=2)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            A = q @ np.diag(lams) @ q.T
            x0 = rng.normal(size=2)
            x0 /= np.linalg.norm(x0)
            rep = cf.check_flow_self_contracted(lambda x: A @ x, x0,
                                                2.0 / lams.min())
            assert rep.level == ContractLevel.UNIFORMLY_STRONGLY

    def test_endpoint_plan_speed_decay(self, quarter_circle):
        c0 = cf.estimate_c0(quarter_circle)
        tdb = cf.third_deriv_bound(quarter_circle)
        plan = cf.endpoint_plan(quarter_circle, c0, tdb.c1_cubic)
        ext = cf.build_extension(cf.curve_jet(quarter_circle, plan))
        t_end = 30.0
        traj = cf.integrate(ext, quarter_circle.points[0], t_end, 1e-3 * t_end)
        assert traj.speeds[-1] < 1e-2
        tail = traj.speeds[traj.times >= 0.9 * t_end]
        assert np.all(np.diff(tail) <= 1e-12)
