import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.optimize import brentq as scipy_brentq

from contractflow import numint
from contractflow.errors import QuadratureBudgetExceeded
from contractflow.numint import (
    CumulativeTable,
    adaptive_simpson,
    cumulative_simpson,
    invert_monotone,
    tail_limit_integral,
)


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly, so no refinement should be needed
    val = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0)
    assert val == pytest.approx(4.0 - 4.0, abs=1e-14)


def test_simpson_exponential():
    val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


def test_simpson_reciprocal():
    val = adaptive_simpson(lambda x: 1.0 / x, 1.0, 10.0, tol=1e-11)
    assert val == pytest.approx(math.log(10.0), abs=1e-9)


def test_simpson_empty_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


def test_simpson_survives_infinite_plateau():
    # integrand is +inf on half the interval; must terminate, not recurse forever
    f = lambda x: math.inf if x > 0.5 else 1.0
    val = adaptive_simpson(f, 0.0, 1.0, tol=1e-8)
    assert math.isinf(val)


def test_simpson_stops_on_noise_below_tol():
    # rounding-size noise never falls below tol = 1e-15, so every cell would
    # split again, toward 2^48 cells; the evaluation budget ends the call
    rng = random.Random(0)
    calls = []

    def noisy(x):
        calls.append(x)
        return 1.0 + 1e-12 * rng.random()

    start = time.perf_counter()
    with pytest.raises(QuadratureBudgetExceeded, match="did not reach tol"):
        adaptive_simpson(noisy, 0.0, 1.0, tol=1e-15)
    assert time.perf_counter() - start < 1.0
    assert len(calls) <= numint.MAX_EVALS


def test_simpson_end_values_from_the_caller():
    # given f(a) and f(b), the same cells are refined to the same bits, and
    # the evaluation budget ends a noisy call as before
    f = lambda x: math.exp(-3.0 * x) / (1.0 + x)
    for a, b in ((0.0, 1.0), (0.25, 3.0)):
        calls = []
        counted = lambda x: calls.append(x) or f(x)
        plain = adaptive_simpson(counted, a, b)
        n_plain = len(calls)
        calls.clear()
        assert adaptive_simpson(counted, a, b, fa=f(a), fb=f(b)) == plain
        assert len(calls) == n_plain - 2
    rng = random.Random(0)
    noisy = lambda x: 1.0 + 1e-12 * rng.random()
    with pytest.raises(QuadratureBudgetExceeded, match="did not reach tol"):
        adaptive_simpson(noisy, 0.0, 1.0, tol=1e-15, fa=1.0, fb=1.0)


def test_invert_monotone_cubic():
    fn = lambda x: x**3 + x
    x = invert_monotone(fn, 10.0, 0.0, 5.0)
    assert fn(x) == pytest.approx(10.0, abs=1e-10)


def test_invert_monotone_sinh():
    x = invert_monotone(math.sinh, 1.0, 0.0, 3.0)
    assert math.sinh(x) == pytest.approx(1.0, abs=1e-9)


def test_invert_monotone_clamps_to_bracket():
    assert invert_monotone(lambda x: x, -5.0, 0.0, 1.0) == 0.0
    assert invert_monotone(lambda x: x, 5.0, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("fn, target, lo, hi", [
    # the log-spiral threshold lam = e^(-3 pi lam / 2)
    (lambda lam: lam - math.exp(-1.5 * math.pi * lam), 0.0, 1e-4, 1.0),
    (lambda x: x**3 + x, 10.0, 0.0, 5.0),
    (math.sinh, 1.0, 0.0, 3.0),
], ids=["spiral-threshold", "cubic", "sinh"])
def test_invert_monotone_is_scipy_brentq(fn, target, lo, hi):
    want = scipy_brentq(lambda x: fn(x) - target, lo, hi,
                        xtol=4 * numint.EPS, rtol=4 * numint.EPS)
    assert invert_monotone(fn, target, lo, hi) == want


def test_cumulative_table_matches_closed_form():
    nodes = np.linspace(0.0, 2.0, 257)
    tab = CumulativeTable.simpson(nodes, np.cos(nodes))
    x = np.array([0.0, 0.3, 1.234, 2.0])
    np.testing.assert_allclose(tab(x), np.sin(x), atol=1e-9)
    assert tab.total == pytest.approx(math.sin(2.0), abs=1e-9)
    assert float(tab(0.3)) == pytest.approx(math.sin(0.3), abs=1e-9)
    # queries are clamped to the table
    assert tab(-1.0) == 0.0 and tab(3.0) == tab.total


def test_cumulative_table_inverse():
    nodes = np.linspace(0.0, 3.0, 513)
    tab = CumulativeTable.simpson(nodes, 1.0 + nodes)
    x = np.linspace(0.0, 3.0, 37)
    y = x + 0.5 * x * x
    np.testing.assert_allclose(tab.inverse(y), x, atol=1e-12)
    np.testing.assert_allclose(tab(tab.inverse(y)), y, atol=1e-12)
    # exact at both ends
    assert tab.inverse(0.0) == 0.0 and tab.inverse(tab.total) == 3.0


def test_cumulative_table_error_is_fourth_order():
    # F = e^x - 1: Simpson values and Hermite queries both converge as h^4,
    # so each halving of the node spacing cuts the error about 16x
    x = np.linspace(0.0, 1.0, 1001)
    errs = []
    for n_cells in (64, 128, 256):
        nodes = np.linspace(0.0, 1.0, n_cells + 1)
        tab = CumulativeTable.simpson(nodes, np.exp(nodes))
        err = max(np.abs(tab(x) - np.expm1(x)).max(),
                  np.abs(tab.inverse(np.expm1(x)) - x).max())
        assert err <= 0.2 / n_cells**4
        errs.append(err)
    assert errs[0] / errs[1] > 14.0 and errs[1] / errs[2] > 14.0


def test_cumulative_table_non_finite_tail():
    # an integrand that overflows: every later value is +inf, earlier queries hold
    nodes = np.linspace(0.0, 4.0, 9)
    f = np.array([1.0] * 6 + [np.inf] * 3)
    tab = CumulativeTable.simpson(nodes, f)
    assert tab.total == np.inf
    assert float(tab(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert tab(3.9) == np.inf
    assert float(tab.inverse(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_tail_limit_sqrt_singularity():
    L = 2.0
    val, conv = tail_limit_integral(lambda u: 1.0 / math.sqrt(L - u), 0.0, L)
    assert conv
    assert val == pytest.approx(2.0 * math.sqrt(L), rel=1e-8)


def test_tail_limit_divergent():
    L = 1.0
    _, conv = tail_limit_integral(lambda u: 1.0 / (L - u), 0.0, L)
    assert not conv


def test_tail_limit_smooth():
    val, conv = tail_limit_integral(math.exp, 0.0, 1.0)
    assert conv
    assert val == pytest.approx(math.e - 1.0, rel=1e-8)


class TestCumulativeSimpson:
    """The port reproduces SciPy's unequal-interval rule bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 1001])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_on_random_grids(self, n, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5
        for y in (rng.standard_normal(n), np.exp(x), x**3):
            got = cumulative_simpson(y, x=x)
            want = scipy_cumulative_simpson(y, x=x, initial=0.0)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_signed_zeros_match_scipy(self):
        # SciPy adds its initial 0.0 to every integral, which turns a -0.0 into 0.0
        x = np.array([0.0, 0.5, 1.5, 2.0])
        y = np.array([-0.0, -0.0, 0.0, -0.0])
        want = scipy_cumulative_simpson(y, x=x, initial=0.0)
        assert cumulative_simpson(y, x=x).tobytes() == want.tobytes()

    def test_rejects_a_grid_that_does_not_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative_simpson(np.ones(4), x=[0.0, 1.0, 1.0, 2.0])

    def test_rejects_fewer_than_3_samples(self):
        with pytest.raises(ValueError, match="3 or more samples"):
            cumulative_simpson(np.ones(2), x=[0.0, 1.0])
