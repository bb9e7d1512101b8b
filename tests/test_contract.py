import tracemalloc

import numpy as np
import pytest

import contractflow as cf
from contractflow import contract
from contractflow.cli import _jsonable
from contractflow.contract import ContractLevel, ContractReport
from contractflow.errors import BoundViolated, NotStronglyContracted


class TestMetricCheck:
    def test_segment_self_contracted(self, segment):
        rep = cf.check_self_contracted_metric(segment, 5000, seed=1)
        assert rep.level == ContractLevel.SELF_CONTRACTED
        assert rep.worst_triple[-1] >= 0.0

    def test_subcritical_spiral_violates(self, spiral_01):
        rep = cf.check_self_contracted_metric(spiral_01, 50_000, seed=0)
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
        rep = cf.check_self_contracted_metric(crv, 20_000, seed=3)
        assert rep.level == ContractLevel.SELF_CONTRACTED


    def test_two_samples_rejected(self):
        crv = cf.make_segment([0.0, 0.0], [1.0, 0.0], 2)
        for check in (lambda: cf.check_self_contracted_metric(crv, 100),
                      lambda: cf.classify(crv, 100)):
            with pytest.raises(ValueError, match="at least 3 samples"):
                check()

    def test_peak_memory_is_one_stratum(self):
        # each stratum is scored before the next is drawn: 100 000 triples of a
        # planar N = 5000 curve take under 1 MB (about 5 MB when drawn all at once)
        crv = cf.make_circle_arc(np.pi / 2, 5000)
        tracemalloc.start()
        try:
            cf.check_self_contracted_metric(crv, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _sampled_metric_reference(curve, n_triples, seed=0, tol_factor=1e-9):
    """The metric check as first written: 24 draws compressed by boolean masks."""
    n = curve.n_samples
    t, P = curve.params, curve.points
    rng = np.random.default_rng(seed)
    chunks = []
    n_strata = 8
    per = max(n_triples // n_strata, 1)
    for k in range(n_strata):
        span = max(int(n * 2.0 ** (k - n_strata + 1)), 3)
        i = rng.integers(0, n - 2, size=per)
        j = i + rng.integers(1, span, size=per)
        kk = j + rng.integers(1, span, size=per)
        keep = kk < n
        chunks.append(np.stack([i[keep], j[keep], kk[keep]], axis=1))
    cons = np.stack([np.arange(n - 2), np.arange(1, n - 1), np.arange(2, n)], axis=1)
    chunks.append(cons)
    triples = np.concatenate(chunks, axis=0)
    d13 = np.linalg.norm(P[triples[:, 0]] - P[triples[:, 2]], axis=1)
    d23 = np.linalg.norm(P[triples[:, 1]] - P[triples[:, 2]], axis=1)
    slack = d13 - d23
    w = int(np.argmin(slack))
    tol = tol_factor * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack[w] < -tol
             else ContractLevel.SELF_CONTRACTED)
    worst = tuple(float(t[idx]) for idx in triples[w]) + (float(slack[w]),)
    return ContractReport(level=level, c0=0.0, worst_pair=None,
                          worst_triple=worst, tol=tol)


def _random_walk_curve(n, d, seed):
    rng = np.random.default_rng([n, d, seed])
    params = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
    tangents = rng.standard_normal((n, d))
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    return cf.Curve(params=params, points=np.cumsum(rng.standard_normal((n, d)), axis=0),
                    tangents=tangents)


class TestMetricCheckOracle:
    """The array metric check reproduces the masked reference bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 7, 50, 200, 1000, 5000])
    @pytest.mark.parametrize("d", [2, 3, 5, 9])
    def test_random_walks(self, n, d):
        for seed in (0, 1):
            crv = _random_walk_curve(n, d, seed)
            for n_triples in (1, 7, 2000, 100_000):
                assert (repr(cf.check_self_contracted_metric(crv, n_triples, seed=seed))
                        == repr(_sampled_metric_reference(crv, n_triples, seed=seed)))

    @pytest.mark.parametrize("n", [3, 200, 1000])
    def test_segment_ties_keep_first_witness(self, n):
        # integer points on a line: every triple with j = i + 1 has slack
        # exactly 1, the minimum, so the first such triple is the witness
        crv = cf.make_segment([0.0, 0.0], [n - 1.0, 0.0], n)
        for seed in (0, 1, 2):
            for n_triples in (7, 2000, 100_000):
                rep = cf.check_self_contracted_metric(crv, n_triples, seed=seed)
                assert rep.worst_triple[-1] == 1.0
                assert repr(rep) == repr(_sampled_metric_reference(crv, n_triples, seed=seed))


def test_nan_slack_is_the_witness_as_under_argmin():
    # chords to points near the float64 limit overflow and inf - inf is NaN:
    # the strata are scored apart, yet the first NaN triple is still the witness
    for seed in (0, 1, 2):
        crv = _random_walk_curve(300, 2, seed)
        P = crv.points.copy()
        P[[17, 150, 290]] = [[1.5e308, -1.5e308], [-1.5e308, 1.5e308], [1.5e308, 1.5e308]]
        crv = cf.Curve(params=crv.params, points=P, tangents=crv.tangents)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = cf.check_self_contracted_metric(crv, 2000, seed=seed)
            ref = _sampled_metric_reference(crv, 2000, seed=seed)
        assert np.isnan(rep.worst_triple[-1])
        assert repr(rep) == repr(ref)


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
        assert cf.classify(segment, 2000).level == ContractLevel.UNIFORMLY_STRONGLY
        assert cf.classify(half_circle, 2000).level == ContractLevel.SELF_CONTRACTED
        assert cf.classify(spiral_01, 2000).level == ContractLevel.NOT_SELF_CONTRACTED
        rep = cf.classify(spiral_05, 2000)
        assert rep.level == ContractLevel.UNIFORMLY_STRONGLY
        assert 0.0 < rep.c0 <= rep.worst_pair[2]

    def test_spiral_04_uniformly_strong(self):
        # lambda = 0.4 sits above the critical rate ~0.2744
        crv = cf.make_log_spiral(0.4, 4 * np.pi, 400)
        rep = cf.classify(crv, 20_000)
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
        rep = cf.classify(segment, 1000)
        doc = _jsonable(rep)
        assert doc["level"] == "uniformly_strongly"
        assert doc["c0"] == pytest.approx(0.9)
        assert doc["worst_pair"] == list(rep.worst_pair)
        assert set(doc) == {"level", "c0", "worst_pair", "worst_triple", "tol"}


class TestTaylorBound:
    def test_segment_equality(self, segment):
        reg = cf.holder_seminorm(segment, 1.0)
        rep = cf.check_taylor_bound(segment, reg)
        assert rep.holder_slack == pytest.approx(0.0, abs=1e-12)

    def test_quarter_circle_exact_constant(self, quarter_circle):
        # sin h >= h - h^3/6 holds with the exact seminorm 1
        reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=1.0,
                                          c1=1.0 / 6.0, safety_factor=1.0)
        rep = cf.check_taylor_bound(quarter_circle, reg)
        assert rep.holder_slack >= -1e-12

    def test_deflated_constant_violates(self, quarter_circle):
        reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=0.245,
                                          c1=0.01, safety_factor=1.0)
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
            reg = cf.curve.RegularityEstimate(alpha=1.0, holder_seminorm=exact_sem,
                                              c1=c1, safety_factor=1.0)
            cf.check_taylor_bound(crv, reg)  # must not raise


# ---------------------------------------------------------------------------
# the cached triples and the chord table against the per-stratum check they
# replaced at small N, copied here as the bitwise reference

def _old_chord_lengths(P, a, b):
    if P.shape[1] >= 8:
        return np.linalg.norm(P.take(a, axis=0) - P.take(b, axis=0), axis=1)
    out = None
    for x in P.T:
        x = np.ascontiguousarray(x)
        diff = x.take(a)
        diff -= x.take(b)
        diff *= diff
        if out is None:
            out = diff
        else:
            out += diff
    return np.sqrt(out, out=out)


def _per_stratum_metric_reference(curve, n_triples, seed=0, tol_factor=1e-9):
    """The metric check before its triples were cached: each stratum drawn and scored in turn."""
    n = curve.n_samples
    t, P = curve.params, curve.points
    rng = np.random.default_rng(seed)
    n_strata = 8
    per = max(n_triples // n_strata, 1)

    def least(i, j, kk):
        dropped = kk >= n
        np.minimum(j, n - 1, out=j)
        np.minimum(kk, n - 1, out=kk)
        slack = _old_chord_lengths(P, i, kk)
        slack -= _old_chord_lengths(P, j, kk)
        slack[dropped] = np.inf
        w = int(np.argmin(slack))
        return slack[w], i[w], j[w], kk[w]

    chunks = []
    for k in range(n_strata):
        span = max(int(n * 2.0 ** (k - n_strata + 1)), 3)
        i = rng.integers(0, n - 2, size=per)
        j = i + rng.integers(1, span, size=per)
        chunks.append(least(i, j, j + rng.integers(1, span, size=per)))
    i = np.arange(n - 2)
    chunks.append(least(i, i + 1, i + 2))
    slack, *triple = chunks[int(np.argmin([c[0] for c in chunks]))]
    tol = tol_factor * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack < -tol
             else ContractLevel.SELF_CONTRACTED)
    worst = tuple(float(t[m]) for m in triple) + (float(slack),)
    return ContractReport(level=level, c0=0.0, worst_pair=None,
                          worst_triple=worst, tol=tol)


def _assert_matches_reference(crv, n_triples, seed):
    assert (repr(cf.check_self_contracted_metric(crv, n_triples, seed=seed))
            == repr(_per_stratum_metric_reference(crv, n_triples, seed=seed)))


class TestCachedMetricTriples:
    @pytest.mark.parametrize("n, n_triples", [(447, 100_000), (448, 100_000), (50, 7), (3, 7),
                                              (3, 1), (200, 100_000), (200, 19_999),
                                              (255, 100_000), (256, 100_000), (200, 100_001)])
    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_both_sides_of_the_table_rule(self, n, n_triples, d):
        # 447^2 <= 200 000 < 448^2: the table scores the first, the chords the
        # second; more than TABLE_TRIPLES triples always take the chords
        for seed in (0, 1):
            crv = _random_walk_curve(n, d, seed)
            before = contract._triple_plan.cache_info()
            _assert_matches_reference(crv, n_triples, seed)
            used_table = contract._triple_plan.cache_info() != before
            assert used_table == (n_triples <= 100_000 and n * n <= 2 * n_triples)

    def test_repeated_calls_hit_the_cache(self):
        # the cache keeps the last key only
        contract._triple_plan.cache_clear()
        curves = [_random_walk_curve(200, 2, s) for s in (0, 1)]
        for seed in (0, 1):
            for _ in range(3):
                for crv in curves:
                    _assert_matches_reference(crv, 100_000, seed)
        info = contract._triple_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 10, 1)

    def test_many_triples_keep_nothing(self):
        # 10^6 triples at N = 200 pass N^2 <= 2 n_triples, but they are scored
        # one stratum at a time and no plan (4 MB) is kept after the call
        contract._triple_plan.cache_clear()
        crv = _random_walk_curve(200, 2, 0)
        tracemalloc.start()
        try:
            rep = cf.check_self_contracted_metric(crv, 1_000_000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert contract._triple_plan.cache_info().currsize == 0
        assert kept < 100_000
        assert peak < 8_000_000  # one stratum of 125 000 draws, 7.1 MB as before the cache
        assert repr(rep) == repr(_per_stratum_metric_reference(crv, 1_000_000))

    @pytest.mark.parametrize("n, dtype", [(15, np.uint8), (16, np.uint16), (200, np.uint16),
                                          (255, np.uint16), (256, np.uint32), (447, np.uint32)])
    def test_cached_plan_is_read_only_and_under_1mb(self, n, dtype):
        plan = contract._triple_plan(n, 100_000, 0)
        assert sum(a.nbytes for stratum in plan for a in stratum) < 1_000_000
        for stratum in plan:
            for a in stratum:
                assert a.dtype == dtype and not a.flags.writeable

    @pytest.mark.parametrize("n", [200, 600])
    def test_nan_points(self, n):
        # planted overflowing points give inf chords and NaN slacks, in the
        # table at N = 200 and in the per-stratum chords at N = 600
        for seed in (0, 1):
            crv = _random_walk_curve(n, 2, seed)
            P = crv.points.copy()
            P[[17, n // 2, n - 10]] = [[1.5e308, -1.5e308], [-1.5e308, 1.5e308], [1.5e308, 1.5e308]]
            crv = cf.Curve(params=crv.params, points=P, tangents=crv.tangents)
            with np.errstate(over="ignore", invalid="ignore"):
                rep = cf.check_self_contracted_metric(crv, 100_000, seed=seed)
                ref = _per_stratum_metric_reference(crv, 100_000, seed=seed)
            assert np.isnan(rep.worst_triple[-1])
            assert repr(rep) == repr(ref)

    def test_dropped_triple_can_be_the_witness(self):
        # every real slack is +inf (|P0 - P2| overflows, |P1 - P2| = 1), so the
        # first triple of stratum 0 is the witness, dropped or not, with its
        # indices clipped as the chords read them
        P = np.array([[-1.5e308, 0.0], [1.5e308, 1.0], [1.5e308, 0.0]])
        crv = cf.Curve(params=[0.0, 1.0, 2.0], points=P, tangents=[[1.0, 0.0]] * 3)
        for n_triples in (7, 1):  # the table, then the chords
            witnesses = set()
            for seed in range(8):
                with np.errstate(over="ignore"):
                    rep = cf.check_self_contracted_metric(crv, n_triples, seed=seed)
                    ref = _per_stratum_metric_reference(crv, n_triples, seed=seed)
                assert repr(rep) == repr(ref)
                witnesses.add(rep.worst_triple[:3])
            assert (0.0, 2.0, 2.0) in witnesses  # a dropped draw, j = 2 and k = 3 clipped

    def test_cold_call_memory_at_n_200(self):
        # the plan (0.4 MB, kept) is built one stratum at a time, and the
        # 200 x 200 table is 0.3 MB
        contract._triple_plan.cache_clear()
        crv = cf.make_circle_arc(np.pi / 2, 200)
        tracemalloc.start()
        try:
            cf.check_self_contracted_metric(crv, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000
