"""Quadrature, cumulative tables and scalar roots.

Adaptive Simpson with the classical 15x error rule integrates scalar
functions with no closed form; ``CumulativeTable`` tabulates an integral once
and answers forward and inverse queries on whole arrays; scalar roots, the
inverses of increasing scalar functions among them, come from Brent's method.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureBudgetExceeded

# integrand evaluations one adaptive_simpson call may make (the most any
# built-in plan or test needs is under 7000)
MAX_EVALS = 100_000
# times adaptive_simpson may halve a cell
MAX_DEPTH = 48
# brentq solves to 4 EPS, as solve_ivp solves for its event times
EPS = np.finfo(float).eps


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     *, fa=None, fb=None) -> float:
    """Integrate a scalar function over [a, b] to absolute tolerance ``tol``.

    ``fa`` and ``fb``, when given, are the caller's f(a) and f(b), which
    are then not evaluated again (they still count against the budget).
    Raises QuadratureBudgetExceeded once MAX_EVALS evaluations of ``f`` have
    not reached ``tol``, as when the integrand's rounding noise exceeds it:
    the splitting would otherwise go on toward 2^MAX_DEPTH cells.
    """
    if a == b:
        return 0.0
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = [MAX_EVALS - 3]
    try:
        return _simpson_step(f, a, b, fa, fm, fb, whole, tol, MAX_DEPTH, budget)
    except QuadratureBudgetExceeded:
        raise QuadratureBudgetExceeded(
            f"adaptive Simpson on [{a:.6g}, {b:.6g}] did not reach tol {tol:.3g} "
            f"in {MAX_EVALS} integrand evaluations") from None


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth, budget):
    budget[0] -= 2
    if budget[0] < 0:
        raise QuadratureBudgetExceeded
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if not (np.isfinite(left) and np.isfinite(right)):
        # a non-finite plateau never refines; only mixed cells are worth splitting
        samples = (fa, flm, fm, frm, fb)
        if depth <= 0 or not any(np.isfinite(v) for v in samples):
            return left + right
    elif depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, flm, fm, left, half, depth - 1, budget) + _simpson_step(
        f, m, b, fm, frm, fb, right, half, depth - 1, budget
    )


def invert_monotone(fn, target: float, lo: float, hi: float) -> float:
    """Solve fn(x) = target for increasing fn on [lo, hi] by ``brentq``.

    Returns lo when fn(lo) >= target and hi when fn(hi) <= target.
    """
    f = lambda x: fn(x) - target
    if f(lo) >= 0.0:
        return lo
    if f(hi) <= 0.0:
        return hi
    return brentq(f, lo, hi)


def brentq(f, xpre, xcur):
    """A root of f between xpre and xcur, at whose ends f has opposite signs.

    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4) as SciPy's ``brentq`` runs it (brentq.c): inverse
    quadratic interpolation or secant steps, bisection when they are slow,
    to the tolerance 4 EPS (1 + |x|), ``brentq`` at xtol = rtol = 4 EPS.
    Raises RuntimeError after 100 iterations, ``brentq``'s default limit.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (4 * EPS + 4 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def cumulative_simpson(y, *, x) -> np.ndarray:
    """Integrals of the samples y from x[0] to each x[k].

    Cartwright's cumulative Simpson rule on a strictly increasing grid of 3
    or more nodes, as SciPy's ``integrate.cumulative_simpson`` computes it for
    unequal intervals, operation for operation: each interval's integral is
    that of the quadratic through it and its right neighbour, and through
    its left neighbour for every second interval and the last.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float))
    if len(y) < 3 or len(dx) != len(y) - 1:
        raise ValueError("cumulative Simpson needs 3 or more samples, one per node")
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    h1 = _simpson_intervals(y, dx)
    h2 = _simpson_intervals(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(dx))
    parts[:-1:2] = h1[::2]
    parts[1::2] = h2[::2]
    parts[-1] = h2[-1]
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(parts, out=out[1:])
    out[1:] += 0.0  # as SciPy adds its initial 0.0, which turns a -0.0 into 0.0
    return out


def _simpson_intervals(y, dx):
    """The integral over each interval [x_k, x_(k+1)], k < n - 2, of the
    quadratic through the nodes k, k + 1 and k + 2."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


class CumulativeTable:
    """F(x) = integral of a positive f from nodes[0] to x, tabulated once.

    Holds three arrays: the nodes, the cumulative values F(nodes) and the
    integrand f(nodes). Queries of F and of its inverse are vectorized cubic
    Hermite interpolants, with slopes f and 1/f, exact at the nodes and
    O(h^4) in the node spacing between them. Queries are clamped to the
    table; a non-finite cumulative value makes it and every later one +inf.
    """

    def __init__(self, nodes, values, f_nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.array(values, dtype=float)
        self.f_nodes = np.asarray(f_nodes, dtype=float)
        self.values[np.logical_or.accumulate(~np.isfinite(self.values))] = np.inf

    @classmethod
    def simpson(cls, nodes, f_nodes):
        """Table from f on the nodes; F by cumulative Simpson over cell pairs."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = cumulative_simpson(f_nodes, x=nodes)
        return cls(nodes, values, f_nodes)

    @property
    def total(self) -> float:
        return float(self.values[-1])

    def __call__(self, x):
        return _hermite(x, self.nodes, self.values, self.f_nodes)

    def inverse(self, y):
        """x with F(x) = y."""
        return _hermite(y, self.values, self.nodes, 1.0 / self.f_nodes)


def _hermite(x, xs, ys, slopes):
    """Cubic Hermite interpolant of (xs, ys, slopes) at x clamped to [xs[0], xs[-1]]."""
    x = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = xs[j + 1] - xs[j]
        u = (x - xs[j]) / h
        v = 1.0 - u
        out = (v * v * ((1.0 + 2.0 * u) * ys[j] + u * h * slopes[j])
               + u * u * ((3.0 - 2.0 * u) * ys[j + 1] - v * h * slopes[j + 1]))
    return np.where(np.isnan(out), np.inf, out)


def tail_limit_integral(f, a: float, b: float, max_halvings: int = 48):
    """Integral of f over [a, b) with a possible singularity at b.

    Integrates over [a, b - delta_k] for geometrically shrinking delta_k.
    Power-law endpoint singularities give geometric increments, so the tail
    is summed by ratio extrapolation; increments that do not decay
    geometrically (log or worse divergence) never converge. Each piece is
    integrated to tolerance 1e-9, and convergence is judged at 1e-9 relative
    to max(1, |value|). Returns
    ``(value, converged)``.
    """
    rel_tol = 1e-9
    delta = 0.5 * (b - a)
    total = adaptive_simpson(f, a, b - delta, rel_tol)
    prev_inc = None
    prev_extrap = None
    for _ in range(max_halvings):
        nd = 0.5 * delta
        if not b - nd < b:  # float resolution at the endpoint exhausted
            break
        inc = adaptive_simpson(f, b - delta, b - nd, rel_tol)
        total += inc
        delta = nd
        if abs(inc) <= rel_tol * max(1.0, abs(total)):
            return total, True
        if prev_inc is not None and abs(prev_inc) > 0.0:
            r = abs(inc) / abs(prev_inc)
            if r < 0.98:
                extrap = total + inc * r / (1.0 - r)
                if (prev_extrap is not None
                        and abs(extrap - prev_extrap) <= rel_tol * max(1.0, abs(extrap))):
                    return extrap, True
                prev_extrap = extrap
            else:
                prev_extrap = None
        prev_inc = inc
    return total, False
