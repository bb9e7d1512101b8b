import math
import tracemalloc
import warnings

import numpy as np
import pytest
from test_scan import ROWS, block_rows

import contractflow as cf
from contractflow import contract, curve
from contractflow.cli import _jsonable
from contractflow.contract import ContractLevel, MetricReport
from contractflow.errors import BoundViolated, InconsistentTangents, NotStronglyContracted


class TestMetricCheck:
    def test_segment_self_contracted(self, segment):
        rep = cf.check_self_contracted_metric(segment)
        assert rep.level == ContractLevel.SELF_CONTRACTED
        assert rep.worst_triple[-1] >= 0.0

    def test_subcritical_spiral_violates(self, spiral_01):
        rep = cf.check_self_contracted_metric(spiral_01)
        assert rep.level == ContractLevel.NOT_SELF_CONTRACTED
        assert rep.worst_triple[-1] < -rep.tol

    def test_quarter_circle_brute_force(self):
        # exhaustive triples at small N as the independent oracle
        crv = cf.make_circle_arc(np.pi / 2, 60)
        P = crv.points
        worst = 0.0
        n = len(P)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    slack = (np.linalg.norm(P[i] - P[k])
                             - np.linalg.norm(P[j] - P[k]))
                    worst = min(worst, slack)
        assert worst >= -1e-12
        rep = cf.check_self_contracted_metric(crv)
        assert rep.level == ContractLevel.SELF_CONTRACTED


    def test_two_samples_rejected(self):
        crv = cf.make_segment([0.0, 0.0], [1.0, 0.0], 2)
        for check in (lambda: cf.check_self_contracted_metric(crv),
                      lambda: cf.classify(crv)):
            with pytest.raises(ValueError, match="at least 3 samples"):
                check()

    def test_peak_memory_at_n_5000(self):
        # three 32 x 5000 blocks of a planar N = 5000 curve, 3.8 MB
        crv = cf.make_circle_arc(np.pi / 2, 5000)
        tracemalloc.start()
        try:
            cf.check_self_contracted_metric(crv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


def _chords(P):
    """The N x N chords |P_k - P_i|, the squares summed in coordinate order."""
    sq = 0.0
    for x in P.T:
        diff = x[None, :] - x[:, None]
        sq = sq + diff * diff
    return np.sqrt(sq)


def _report(curve, slack, i, j, k):
    t, tol = curve.params, 1e-9 * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack < -tol
             else ContractLevel.SELF_CONTRACTED)
    return MetricReport(level=level, tol=tol,
                        worst_triple=(float(t[i]), float(t[j]), float(t[k]), float(slack)))


def _all_triples_reference(curve):
    """The metric check over all triples i < j < k, every slack D[i, k] - D[j, k] formed.

    The witness is the least slack first in (j, k) order, with i the first
    row below j at the least chord D[i, k].
    """
    D = _chords(curve.points)
    n = len(D)
    below = np.triu(np.ones((n, n), dtype=bool), k=1)  # i < j
    least = np.full((n, n), np.inf)  # [j, k]: the least slack over i < j
    for k in range(2, n):
        slacks = D[:k, k, None] - D[None, :k, k]  # [i, j]
        least[:k, k] = np.where(below[:k, :k], slacks, np.inf).min(axis=0)
    j, k = divmod(int(np.argmin(least)), n)
    return _report(curve, least[j, k], int(np.argmin(D[:j, k])), j, k)


def _column_reference(curve):
    """The metric check one column k at a time, at O(N) memory: any N."""
    P = curve.points
    best = (np.inf, 0, 0)  # (slack, j, k): the builtin min keeps the first (j, k) of a tie
    for k in range(2, len(P)):
        col = np.sqrt(sum((P[:k, c] - P[k, c]) ** 2 for c in range(P.shape[1])))
        slacks = np.minimum.accumulate(col)[:-1] - col[1:]  # j = 1 .. k - 1
        j = int(np.argmin(slacks))
        best = min(best, (float(slacks[j]), j + 1, k))
    slack, j, k = best
    column = np.sqrt(sum((P[:j, c] - P[k, c]) ** 2 for c in range(P.shape[1])))
    return _report(curve, slack, int(np.argmin(column)), j, k)


def _random_walk_curve(n, d, seed):
    rng = np.random.default_rng([n, d, seed])
    params = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
    tangents = rng.standard_normal((n, d))
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    return cf.Curve(params=params, points=np.cumsum(rng.standard_normal((n, d)), axis=0),
                    tangents=tangents)


def _with_points(crv, points):
    return cf.Curve(params=crv.params, points=points, tangents=crv.tangents)


def _assert_matches(crv, reference):
    ref = repr(reference(crv))
    for rows in ROWS:
        with block_rows(rows):
            assert repr(cf.check_self_contracted_metric(crv)) == ref


class TestMetricCheckOracle:
    """The blocked pass reproduces the references bit for bit, in blocks of 64 and 32 rows."""

    @pytest.mark.parametrize("n", [3, 4, 7, 30, 50, 70, 130, 200, 1000, 5000])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_random_walks(self, n, d):
        # every triple up to N = 200; beyond, the column-by-column reference,
        # which agrees with it on every smaller walk
        for seed in (0, 1):
            crv = _random_walk_curve(n, d, seed)
            if n <= 200:
                assert repr(_column_reference(crv)) == repr(_all_triples_reference(crv))
            _assert_matches(crv, _all_triples_reference if n <= 200 else _column_reference)

    @pytest.mark.parametrize("n", [3, 200, 1000])
    def test_segment_ties_keep_first_witness(self, n):
        # integer points on a line: every triple with j = i + 1 has slack
        # exactly 1, the minimum, so the witness is the first (j, k), (1, 2)
        crv = cf.make_segment([0.0, 0.0], [n - 1.0, 0.0], n)
        for rows in ROWS:
            with block_rows(rows):
                assert cf.check_self_contracted_metric(crv).worst_triple == (0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("n", [5, 40, 130])
    def test_integer_points_keep_first_witness(self, n):
        # integer points in a 7 x 7 square: chords and slacks tie across
        # triples, blocks and rows i, and the witness must be the first (j, k)
        # and the first i at the column's least chord
        for seed in range(10):
            rng = np.random.default_rng([n, seed])
            walk = _random_walk_curve(n, 2, seed)
            crv = _with_points(walk, rng.integers(-3, 4, size=(n, 2)).astype(float))
            _assert_matches(crv, _all_triples_reference)

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_witness_slack_is_its_chord_difference(self, d):
        # the reported slack has the bits of |P3 - P1| - |P3 - P2| taken one
        # coordinate at a time in Python floats
        lam0 = cf.log_spiral_critical_lambda()
        curves = [_random_walk_curve(n, d, seed) for n in (3, 130, 700) for seed in (0, 1)]
        if d == 2:
            curves.append(cf.make_log_spiral(lam0 - 0.15, 4 * np.pi, 400))
        for crv in curves:
            t, P = list(crv.params), crv.points.tolist()
            for rows in ROWS:
                with block_rows(rows):
                    t1, t2, t3, slack = cf.check_self_contracted_metric(crv).worst_triple
                i, j, k = t.index(t1), t.index(t2), t.index(t3)
                chord = [math.sqrt(sum((b - a) * (b - a) for a, b in zip(P[m], P[k])))
                         for m in (i, j)]
                assert i < j < k and slack == chord[0] - chord[1]


class TestCheckStrong:
    def test_segment(self, segment):
        rep = cf.check_strong(segment)
        assert rep.level == ContractLevel.STRONGLY
        # all normalized pair values equal 1 on a straight line
        assert rep.worst_pair[2] == pytest.approx(1.0, abs=1e-12)

    def test_half_circle_boundary(self, half_circle):
        # the (0, pi) pair has inner product sin(pi) = 0: not strongly
        rep = cf.check_strong(half_circle)
        assert rep.level == ContractLevel.SELF_CONTRACTED
        assert rep.worst_pair[2] == pytest.approx(0.0, abs=1e-9)

    def test_supercritical_spiral(self, spiral_05):
        assert cf.check_strong(spiral_05).level == ContractLevel.STRONGLY

    def test_subcritical_spiral(self, spiral_01):
        assert cf.check_strong(spiral_01).level == ContractLevel.NOT_SELF_CONTRACTED


class TestEstimateC0:
    def test_segment(self, segment):
        assert cf.estimate_c0(segment) == pytest.approx(0.9, abs=1e-12)

    def test_quarter_circle(self, quarter_circle):
        # grid minimum of sin(h)/h sits at h = L: 2/pi
        assert cf.estimate_c0(quarter_circle) == pytest.approx(0.9 * 2 / np.pi,
                                                               abs=1e-9)

    def test_half_circle_returns_zero(self, half_circle):
        assert cf.estimate_c0(half_circle) == 0.0

    def test_not_self_contracted_raises(self, spiral_01):
        with pytest.raises(NotStronglyContracted):
            cf.estimate_c0(spiral_01)

    def test_rigid_motion_invariance(self, quarter_circle):
        theta = 0.83
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        shift = np.array([2.5, -1.0])
        moved = cf.Curve(params=quarter_circle.params,
                         points=quarter_circle.points @ R.T + shift,
                         tangents=quarter_circle.tangents @ R.T,
                         source="sampled")
        assert cf.estimate_c0(moved) == pytest.approx(
            cf.estimate_c0(quarter_circle), abs=1e-12)


class TestClassify:
    def test_levels_consistent(self, segment, half_circle, spiral_01, spiral_05):
        assert cf.classify(segment).level == ContractLevel.UNIFORMLY_STRONGLY
        assert cf.classify(half_circle).level == ContractLevel.SELF_CONTRACTED
        assert cf.classify(spiral_01).level == ContractLevel.NOT_SELF_CONTRACTED
        rep = cf.classify(spiral_05)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert 0.0 < rep.c0 <= rep.worst_pair[2]

    def test_spiral_04_uniformly_strong(self):
        # lambda = 0.4 sits above the critical rate ~0.2744
        crv = cf.make_log_spiral(0.4, 4 * np.pi, 400)
        rep = cf.classify(crv)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert rep.c0 > 0.0

    def test_worst_pair_monotone_in_lambda(self):
        lam0 = cf.log_spiral_critical_lambda()
        vals = []
        for lam in (0.1, lam0, 0.5):
            crv = cf.make_log_spiral(lam, 4 * np.pi, 200)
            vals.append(cf.check_strong(crv).worst_pair[2])
        assert vals[0] < vals[1] < vals[2]

    def test_report_serializes(self, segment):
        rep = cf.classify(segment)
        doc = _jsonable(rep)
        assert doc["level"] == "uniformly_strongly"
        assert doc["c0"] == pytest.approx(0.9)
        assert doc["worst_pair"] == list(rep.worst_pair)
        assert set(doc) == {"level", "c0", "worst_pair", "tol"}


def _spd_orbit(seed, n_resample):
    """An orbit of x' = -A x, A SPD, sampled in closed form and resampled by from_samples."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.1, 10.0, size=2)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    x0 = rng.normal(size=2)
    times = np.linspace(0.0, 2.0 / lams.min(), 400)
    raw = (q * np.exp(-np.outer(times, lams))[:, None, :]) @ (q.T @ x0)
    return cf.from_samples(raw, n_resample)


class TestCheckTangents:
    def test_built_in_curves_pass(self, segment, quarter_circle, half_circle,
                                  spiral_01, spiral_05):
        curves = [segment, quarter_circle, half_circle, spiral_01, spiral_05,
                  cf.make_circle_arc(3.5, 1000), cf.make_circle_arc(2.5, 200, 2.0),
                  cf.make_circle_arc(np.pi / 2, 5000), cf.make_log_spiral(0.5, 4 * np.pi, 400),
                  cf.make_arc_chain([1.0, -2.0, 0.5], [0.5, 0.3, 1.0], 300)]
        for crv in curves:
            contract.check_tangents(crv)  # must not raise

    @pytest.mark.parametrize("n", [200, 1000])
    def test_sampled_spd_orbits_pass(self, n):
        for seed in range(5):
            contract.check_tangents(_spd_orbit(seed, n))  # must not raise

    def test_bisector_tangents_fail_at_sample_0(self, bisector_spiral):
        # the pairwise form holds strictly on these tangents, yet the points
        # are those of a spiral that is not self-contracted
        assert cf.check_strong(bisector_spiral).level == ContractLevel.STRONGLY
        assert (cf.check_self_contracted_metric(bisector_spiral).level
                == ContractLevel.NOT_SELF_CONTRACTED)
        with pytest.raises(InconsistentTangents, match=r"tangent check failed at sample 0 "):
            cf.classify(bisector_spiral)

    def test_rotated_tangents_fail(self, rotated_arc):
        assert cf.check_strong(rotated_arc).level == ContractLevel.STRONGLY
        with pytest.raises(InconsistentTangents,
                           match=r"^tangent check failed at sample 0 \(t = 0\): integrated "
                                 r"from t = 0 to the next sample, the tangents miss the points "
                                 r"by \S+, more than the bound \S+; the tangent columns "
                                 r"disagree with the points$"):
            cf.classify(rotated_arc)

    @pytest.mark.parametrize("n, start, first", [(200, 57, 58), (1000, 500, 502)])
    def test_names_the_first_failing_sample(self, n, start, first):
        # the tangents from sample `start` on turned by 0.3 rad: the kink into
        # that sample raises the bound of its cell, and the integral drifts
        # off the points a cell or two later
        arc = cf.make_circle_arc(np.pi / 2, n)
        T = arc.tangents.copy()
        c, s = np.cos(0.3), np.sin(0.3)
        T[start:] = T[start:] @ np.array([[c, s], [-s, c]])
        crv = cf.Curve(params=arc.params, points=arc.points, tangents=T)
        with pytest.raises(InconsistentTangents,
                           match=rf"at sample {first} \(t = {arc.params[first]:.6g}\)"):
            contract.check_tangents(crv)

    @pytest.mark.parametrize("n", [200, 1000, 5000])
    def test_rounding_of_the_data_passes(self, n, tmp_path):
        # points far from the origin, whose coordinates carry rounding of
        # about 1e-12 per cell, a 1-D line (H = 0 on every cell), and curve
        # files written to 6 digits
        t = np.linspace(0.0, 2.0, n)
        line = cf.Curve(params=t, points=(t - 7.3)[:, None], tangents=np.ones((n, 1)))
        curves = [cf.make_segment((1e4, 0.0), (1e4 + 1.0, 0.0), n),
                  cf.make_segment((-3e7, 2e7), (-3e7 + 1.0, 2e7 + 2.0), n), line]
        sources = [cf.make_segment((0.0, 0.0), (1.0, 1.0), n), cf.make_circle_arc(np.pi / 2, n),
                   cf.make_log_spiral(0.5, 4 * np.pi, n), line]
        for i, crv in enumerate(sources):
            for fmt in ("%.6f", "%.6g"):
                path = tmp_path / f"c{i}.csv"
                np.savetxt(path, np.column_stack([crv.params, crv.points, crv.tangents]),
                           delimiter=",", fmt=fmt)
                curves.append(curve.load_csv(path))
        for crv in curves:
            cf.classify(crv)  # must not raise


class TestTaylorBound:
    def test_segment_equality(self, segment):
        reg = cf.holder_seminorm(segment, 1.0)
        rep = cf.check_taylor_bound(segment, reg)
        assert rep.holder_slack == pytest.approx(0.0, abs=1e-12)

    def test_quarter_circle_exact_constant(self, quarter_circle):
        # sin h >= h - h^3/6 holds with the exact seminorm 1
        reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=1.0, c1=1.0 / 6.0)
        rep = cf.check_taylor_bound(quarter_circle, reg)
        assert rep.holder_slack >= -1e-12

    def test_deflated_constant_violates(self, quarter_circle):
        reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=0.245, c1=0.01)
        with pytest.raises(BoundViolated):
            cf.check_taylor_bound(quarter_circle, reg)

    def test_cubic_variant_on_circle(self, quarter_circle):
        reg = cf.holder_seminorm(quarter_circle, 1.0).with_third_deriv(1.0)
        rep = cf.check_taylor_bound(quarter_circle, reg)
        assert rep.cubic_slack is not None
        assert rep.cubic_slack >= -1e-12

    def test_double_exact_constant_never_fails(self, quarter_circle, segment):
        for crv, exact_sem in ((quarter_circle, 1.0), (segment, 0.0)):
            c1 = 2.0 * exact_sem**2 / 6.0
            reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=exact_sem, c1=c1)
            cf.check_taylor_bound(crv, reg)  # must not raise


# ---------------------------------------------------------------------------
# the blocked metric pass at more sizes, on overflowing chords, and its memory

class TestCachedMetricTriples:
    # Named for the chord table and plan cache the metric check once had; the
    # names stay so the suite's test ids do. The sizes straddle whole
    # numbers of blocks, 256 and 448 being multiples of both 32 and 64 rows,
    # and the second number seeds the walk.
    @pytest.mark.parametrize("n, seed", [(447, 100_000), (448, 100_000), (50, 7), (3, 7),
                                         (3, 1), (200, 100_000), (200, 19_999),
                                         (255, 100_000), (256, 100_000), (200, 100_001)])
    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_both_sides_of_the_table_rule(self, n, seed, d):
        _assert_matches(_random_walk_curve(n, d, seed), _column_reference)

    def test_many_triples_keep_nothing(self):
        # the 1.3 million triples at N = 200 are one pass, and nothing
        # outlives the call
        crv = _random_walk_curve(200, 2, 0)
        tracemalloc.start()
        try:
            rep = cf.check_self_contracted_metric(crv)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 100_000
        assert peak < 8_000_000
        assert repr(rep) == repr(_all_triples_reference(crv))

    @pytest.mark.parametrize("n", [200, 600])
    def test_nan_points(self, n):
        # planted points near the float64 limit give chords that overflow,
        # whose slacks would be NaN or -inf: the check raises, without a
        # RuntimeWarning
        for seed in (0, 1):
            crv = _random_walk_curve(n, 2, seed)
            P = crv.points.copy()
            P[[17, n // 2, n - 10]] = [[1.5e308, -1.5e308], [-1.5e308, 1.5e308], [1.5e308, 1.5e308]]
            for rows in ROWS:
                with block_rows(rows), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="overflows float64"):
                        cf.check_self_contracted_metric(_with_points(crv, P))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_tiny_curves_witness_a_scored_triple(self, n):
        # at N = 3-10 a random walk reports the reference's triple, t1 < t2 <
        # t3. The walk with one point near the float64 limit, and a line of
        # steps 1e154, whose chords of one step are finite and every longer
        # one overflows, raise
        line = np.column_stack([np.arange(n) * 1e154, np.zeros(n)])
        for seed in range(40):
            walk = _random_walk_curve(n, 2, seed)
            huge = walk.points.copy()
            huge[seed % n] = [1.5e308, -1.5e308]
            rep = cf.check_self_contracted_metric(walk)
            t1, t2, t3, _ = rep.worst_triple
            assert t1 < t2 < t3
            assert repr(rep) == repr(_all_triples_reference(walk))
            for points in (huge, line):
                with warnings.catch_warnings(), pytest.raises(ValueError, match="overflows"):
                    warnings.simplefilter("error")
                    cf.check_self_contracted_metric(_with_points(walk, points))

    def test_cold_call_memory_at_n_200(self):
        # three 64 x 200 blocks
        crv = cf.make_circle_arc(np.pi / 2, 200)
        tracemalloc.start()
        try:
            cf.check_self_contracted_metric(crv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000
