"""Not-a-knot cubic spline interpolation through points in R^d.

``not_a_knot(x, y)`` gives the spline that SciPy's ``CubicSpline(x, y,
axis=0)`` gives, with the same slopes, coefficients and values bit for bit
(de Boor, *A Practical Guide to Splines*, IV). The slopes solve the same
tridiagonal system with the operations of LAPACK's ``dgtsv``, row
interchanges included; the coefficients are those of SciPy's
``CubicHermiteSpline`` and evaluation follows its ``PPoly``. The one
exception is three knots, where not-a-knot leaves the parabola through the
points: its slopes come in closed form, exact to a few ulps, where SciPy's
dense solve can be thousands of ulps off on uneven spacings.
"""

from __future__ import annotations

import numpy as np


class PiecewisePolynomial:
    """Piecewise polynomial on breaks ``x``: on [x[i], x[i+1]] the value is
    the sum over k of ``c[k, i] * (u - x[i]) ** (K - k)``, K = len(c) - 1.

    ``c`` has shape (K + 1, len(x) - 1, d); a call maps an array of
    parameters (or a 0-d one) to one row of d values per entry. Outside
    [x[0], x[-1]] the end pieces extend; a NaN parameter gives NaN.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self.x, u, side="right") - 1, 0, len(self.x) - 2)
        s = np.asarray(u - self.x[i])[..., None]
        # the power sum in PPoly's order: c_K + c_{K-1} s + c_{K-2} (s s) + ...
        value = 0.0 + self.c[-1, i]
        power = s
        for k in range(len(self.c) - 2, -1, -1):
            value = value + self.c[k, i] * power
            power = power * s
        return value

    def derivative(self) -> PiecewisePolynomial:
        order = len(self.c) - 1
        factor = np.arange(order, 0, -1, dtype=float)[:, None, None]
        return PiecewisePolynomial(self.x, self.c[:-1] * factor)


def not_a_knot(x, y) -> PiecewisePolynomial:
    """Cubic spline through (x[i], y[i]) with not-a-knot end conditions.

    x : (n,) strictly increasing, finite, n >= 2 (n = 2 gives the line)
    y : (n, d) finite values

    Raises ValueError on input that ``CubicSpline`` rejects, with its
    message, which a failed stage's report quotes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("`x` must contain only finite values.")
    if not np.isfinite(y).all():
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    s = _slopes(x, dx, slope)
    if not np.isfinite(s).all():
        raise ValueError("`dydx` must contain only finite values.")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PiecewisePolynomial(x, c)


def _slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Spline slopes at the knots, one row per knot."""
    n = len(x)
    if n == 3:
        # the parabola through the three points
        curv = (slope[1] - slope[0]) / (dx[0] + dx[1])
        return np.stack((slope[0] - curv * dx[0], slope[0] + curv * dx[0],
                         slope[1] + curv * dx[1]))
    if n == 2:
        # the line: both end conditions fix the slope of the one chord
        dl, d, du = [0.0], [1.0, 1.0], [0.0]
        b = np.concatenate((slope, slope))
    else:
        # CubicSpline's banded system: d on the diagonal, du above, dl below
        dxr = dx[:, None]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        dl = dx[1:].tolist() + [float(d1)]
        d = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
        du = [float(d0)] + dx[:-1].tolist()
        b = np.empty((n, slope.shape[1]))
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    return np.array(_gtsv(dl, d, du, b.T.tolist())).T


def _gtsv(dl: list, d: list, du: list, columns: list) -> list:
    """Solve a tridiagonal system for each right-hand column, as LAPACK's
    ``dgtsv`` does: Gaussian elimination with partial pivoting, where a row
    interchange fills a second superdiagonal, then back substitution.

    ``dl``, ``d`` and ``du`` are the sub-, main and superdiagonal. The matrix
    is factored once and each column swept in turn: dgtsv's operations in
    another order. Raises ``LinAlgError`` (a ValueError) on a zero pivot.
    """
    # factor: row i of U is (diag[i], sup1[i], sup2[i]); the running pivot
    # row (piv, up) is row i as rows 0..i-1 left it
    diag, sup1, sup2, swapped, facts = [], [], [], [], []
    piv, up = d[0], du[0]
    for low, nxt, up2 in zip(dl, d[1:], du[1:] + [0.0]):
        swap = abs(piv) < abs(low)
        if not swap:
            if piv == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = low / piv
            diag.append(piv)
            sup1.append(up)
            sup2.append(0.0)
            piv, up = nxt - fact * up, up2
        else:
            fact = piv / low
            diag.append(low)
            sup1.append(nxt)
            sup2.append(up2)
            piv, up = up - fact * nxt, -fact * up2
        swapped.append(swap)
        facts.append(fact)
    if piv == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    diag.append(piv)
    solved = []
    for b in columns:
        # forward: cur is entry i as rows 0..i-1 left it
        y, cur = [], b[0]
        for nxt, swap, fact in zip(b[1:], swapped, facts):
            if swap:
                y.append(nxt)
                cur = cur - fact * nxt
            else:
                y.append(cur)
                cur = nxt - fact * cur
        y.append(cur)
        # back substitution, carrying the last two solved entries
        x2 = y[-1] / diag[-1]
        x1 = (y[-2] - sup1[-1] * x2) / diag[-2]
        x = [x2, x1]
        for yi, u1, u2, di in zip(y[-3::-1], sup1[-2::-1], sup2[-2::-1], diag[-3::-1]):
            x2, x1 = x1, (yi - u1 * x1 - u2 * x2) / di
            x.append(x1)
        x.reverse()
        solved.append(x)
    return solved
