"""Curves in R^n: construction, arc-length resampling, generators, regularity.

Every curve in the pipeline is an arc-length parameterized sample set
(params, points, unit tangents) plus, when available, exact evaluators for
the underlying parameterization. All downstream constants assume unit speed.

Evaluators work on whole arrays: each maps an array of raw parameters (or a
0-d one) to one row per entry. The built-in generators pass such evaluators
directly; ``make_analytic`` accepts scalar ones and wraps each once with
``np.vectorize``, one Python call per parameter.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._scan import chord_lengths, map_blocks, mask_lower, pair_gaps
from ._spline import not_a_knot
from .errors import (
    DegenerateCurve,
    DuplicatePoint,
    InsufficientRegularity,
    OutOfDomain,
    StationaryPoint,
)
from .numint import CumulativeTable, invert_monotone

_UNIT_SPEED_TOL = 1e-9
UNIT_TANGENT_TOL = 1e-4  # largest | ||T_i|| - 1 | a Curve admits


class _ArcLengthMap:
    """Bijection between a raw parameter u in [u0, u1] and arc length s.

    ``dgamma`` maps an array of parameters to one velocity row each. When the
    input is already unit speed the map is the identity shift; otherwise the
    speed is tabulated once, on ``breaks`` split into at least 2048 Simpson
    cells, and both directions are table queries. Raises StationaryPoint
    before any table is built when the speed drops below 1e-10 on the probe.
    """

    def __init__(self, dgamma, breaks):
        breaks = np.asarray(breaks, dtype=float)
        self.u0, self.u1 = float(breaks[0]), float(breaks[-1])
        speed = lambda u: np.linalg.norm(dgamma(u), axis=-1)
        sp = speed(np.linspace(self.u0, self.u1, 257))
        if sp.min() < 1e-10:
            raise StationaryPoint("gamma' vanishes on the sampling grid")
        self.unit_speed = bool(np.abs(sp - 1.0).max() <= _UNIT_SPEED_TOL)
        if self.unit_speed:
            self._tab = None
            self.total = self.u1 - self.u0
        else:
            split = 2 * -(-1024 // (len(breaks) - 1))  # even: Simpson pairs per break
            k = np.arange((len(breaks) - 1) * split + 1) / split
            nodes = np.interp(k, np.arange(len(breaks)), breaks)
            self._tab = CumulativeTable.simpson(nodes, speed(nodes))
            self.total = self._tab.total

    def u_of_s(self, s):
        s = np.clip(s, 0.0, self.total)
        return self.u0 + s if self.unit_speed else self._tab.inverse(s)


@dataclass(frozen=True)
class _Geometry:
    """Exact evaluators in the raw parameter, plus the arc-length map.

    Every evaluator maps an array of parameters (or a 0-d one) to one row
    per entry.
    """

    gamma: object
    dgamma: object
    arcmap: _ArcLengthMap
    d3gamma: object = None

    @property
    def unit_speed(self) -> bool:
        return self.arcmap.unit_speed


@dataclass(frozen=True)
class Curve:
    """Arc-length parameterized discrete curve with unit tangents.

    Fields
    ------
    params : (N,) strictly increasing, params[0] = 0, params[-1] = L
    points : (N, dim) samples gamma(t_i)
    tangents : (N, dim) unit tangents gamma'(t_i)
    source : "sampled" or "analytic"
    """

    params: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    source: str = "sampled"
    geometry: _Geometry | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        params = np.ascontiguousarray(self.params, dtype=float)
        points = np.ascontiguousarray(self.points, dtype=float)
        tangents = np.ascontiguousarray(self.tangents, dtype=float)
        if params.ndim != 1 or points.ndim != 2 or tangents.shape != points.shape:
            raise ValueError("inconsistent curve arrays")
        if len(params) != len(points) or len(params) < 2:
            raise ValueError("need at least 2 samples with matching params")
        require_finite("curve", params=params, points=points, tangents=tangents)
        if abs(params[0]) > 1e-12:
            raise ValueError("arc-length parameters must start at 0")
        if np.any(np.diff(params) <= 0):
            raise ValueError("arc-length parameters must be strictly increasing")
        norms = np.linalg.norm(tangents, axis=1)
        if np.abs(norms - 1.0).max() > UNIT_TANGENT_TOL:
            raise ValueError("tangents must be unit vectors")
        for arr in (params, points, tangents):
            arr.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "tangents", tangents)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.params)

    @property
    def length(self) -> float:
        return float(self.params[-1])

    def _geom(self) -> _Geometry:
        if self.geometry is None:
            # direct-constructed curve: fit a spline through the stored samples
            object.__setattr__(self, "geometry", _spline_geometry(self.params, self.points))
        return self.geometry

    def _clamp(self, t):
        t = np.asarray(t, dtype=float)
        L = self.length
        slack = 1e-12 * max(L, 1.0)
        bad = t[(t < -slack) | (t > L + slack)]
        if bad.size:
            raise OutOfDomain(f"t={bad[0]} outside [0, {L}]")
        return np.clip(t, 0.0, L)

    def point_at(self, t):
        """gamma at arc length t; an array t gives one row per entry."""
        g = self._geom()
        return np.asarray(g.gamma(g.arcmap.u_of_s(self._clamp(t))), dtype=float)

    def tangent_at(self, t):
        """Unit tangent at arc length t; an array t gives one row per entry."""
        g = self._geom()
        v = np.asarray(g.dgamma(g.arcmap.u_of_s(self._clamp(t))), dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)


@dataclass(frozen=True)
class RegularityEstimate:
    """Hoelder data of the tangent field and the derived Taylor constant.

    c1 = holder_seminorm^2 / (2 (2 alpha + 1)) exactly as stored.
    """

    alpha: float
    holder_seminorm: float
    c1: float
    third_deriv_bound: float | None = None

    def with_third_deriv(self, bound: float) -> "RegularityEstimate":
        return replace(self, third_deriv_bound=float(bound))


@dataclass(frozen=True)
class ThirdDerivativeBound:
    """Sup bound on the third arc-length derivative with its running sup."""

    bound: float
    values: np.ndarray
    params: np.ndarray

    @property
    def c1_cubic(self) -> float:
        """Constant of the cubic Taylor lower bound, ||gamma'''|| / 6."""
        return self.bound / 6.0

    def zeta(self, t):
        """Running sup of ||gamma'''|| over [0, t] (nondecreasing)."""
        running = np.maximum.accumulate(self.values)
        return np.interp(t, self.params, running)


def _spline_geometry(knots, points) -> _Geometry:
    """Not-a-knot cubic spline through ``points`` at the raw parameters ``knots``."""
    spline = not_a_knot(knots, points)
    dspline = spline.derivative()
    return _Geometry(gamma=spline, dgamma=dspline, arcmap=_ArcLengthMap(dspline, knots))


def _resample(geom: _Geometry, n: int, source: str) -> Curve:
    s = np.linspace(0.0, geom.arcmap.total, n)
    u = geom.arcmap.u_of_s(s)
    u[0], u[-1] = geom.arcmap.u0, geom.arcmap.u1
    vel = np.asarray(geom.dgamma(u), dtype=float)
    tans = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    return Curve(params=s, points=np.asarray(geom.gamma(u), dtype=float), tangents=tans,
                 source=source, geometry=geom)


def from_samples(raw_points, n_resample: int) -> Curve:
    """Arc-length resample a raw point sequence through a cubic interpolant.

    Parameters
    ----------
    raw_points : (M, dim) array-like, M >= 3, consecutive points distinct
    n_resample : number of output samples

    Raises
    ------
    DuplicatePoint : consecutive raw points coincide
    DegenerateCurve : total chordal length below 1e-12
    StationaryPoint : the interpolant's speed drops below 1e-10 on the probe grid
    """
    pts = np.asarray(raw_points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("raw_points must be a 2-D array of points")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg == 0.0):
        raise DuplicatePoint("consecutive raw points coincide")
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")
    if seg.sum() < 1e-12:
        raise DegenerateCurve("total chordal length below 1e-12")
    if n_resample < 2:
        raise ValueError("n_resample must be at least 2")
    chord = np.concatenate([[0.0], np.cumsum(seg)])
    return _resample(_spline_geometry(chord, pts), n_resample, "sampled")


def _from_evaluators(gamma, dgamma, domain, n_samples: int, d3gamma=None) -> Curve:
    """Arc-length resampled curve from array evaluators on ``domain``."""
    u0, u1 = float(domain[0]), float(domain[1])
    if not u1 > u0:
        raise ValueError("domain must have positive width")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    geom = _Geometry(gamma=gamma, dgamma=dgamma, arcmap=_ArcLengthMap(dgamma, [u0, u1]),
                     d3gamma=d3gamma)
    return _resample(geom, n_samples, "analytic")


def make_analytic(gamma, gamma_prime, domain, n_samples: int,
                  third_derivative=None) -> Curve:
    """Arc-length resampled curve from exact scalar evaluators on ``domain``.

    Each evaluator maps one parameter to a point (or derivative) vector.
    Raises StationaryPoint if the speed drops below 1e-10 on the probe grid.
    """
    def on_arrays(f):
        # one Python call per parameter: an array of parameters gives one row each
        return None if f is None else np.vectorize(f, otypes=[float], signature="()->(d)")

    return _from_evaluators(on_arrays(gamma), on_arrays(gamma_prime), domain, n_samples,
                            on_arrays(third_derivative))


def resample(curve: Curve, n: int) -> Curve:
    """Resample to n points through the curve's own geometry."""
    return _resample(curve._geom(), n, curve.source)


def _rows(*coords):
    """Coordinate arrays of equal shape stacked into one row per entry."""
    return np.stack(coords, axis=-1)


def make_segment(p0, p1, n_samples: int = 100) -> Curve:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    L = float(np.linalg.norm(p1 - p0))
    if L < 1e-12:
        raise DegenerateCurve("segment endpoints coincide")
    d = (p1 - p0) / L
    gamma = lambda u: p0 + np.multiply.outer(u, d)
    dgamma = lambda u: np.tile(d, np.shape(u) + (1,))
    zero = lambda u: np.zeros(np.shape(u) + d.shape)
    return _from_evaluators(gamma, dgamma, (0.0, L), n_samples, d3gamma=zero)


def make_circle_arc(angle: float = math.pi / 2, n_samples: int = 200,
                    radius: float = 1.0) -> Curve:
    """Unit-speed circular arc from (radius, 0), counterclockwise."""
    if angle <= 0 or radius <= 0:
        raise ValueError("angle and radius must be positive")
    R = float(radius)
    gamma = lambda u: _rows(R * np.cos(u / R), R * np.sin(u / R))
    dgamma = lambda u: _rows(-np.sin(u / R), np.cos(u / R))
    d3 = lambda u: _rows(np.sin(u / R), -np.cos(u / R)) / R**2
    return _from_evaluators(gamma, dgamma, (0.0, R * angle), n_samples, d3gamma=d3)


def make_log_spiral(lam: float, t_max: float, n_samples: int) -> Curve:
    """Logarithmic spiral u -> e^{-lam u} (cos u, sin u) on [0, t_max].

    Resampled to arc length; the raw speed is e^{-lam u} sqrt(1 + lam^2), so
    the total length is sqrt(1 + lam^2) (1 - e^{-lam t_max}) / lam.
    """
    if not (0.0 < lam < math.inf and 0.0 < t_max < math.inf):
        raise ValueError("lam and t_max must be positive and finite")
    if n_samples < 10:
        raise ValueError("n_samples must be at least 10")
    w = 1j - lam

    def deriv(order):
        # c e^{w u} with the complex product written out in real parts, each
        # rounded on its own as in a scalar complex product; NumPy's complex
        # array product may fuse a multiply-add and round differently
        c = w**order

        def f(u):
            e = np.exp(w * u)
            return _rows(c.real * e.real - c.imag * e.imag, c.real * e.imag + c.imag * e.real)

        return f

    return _from_evaluators(deriv(0), deriv(1), (0.0, t_max), n_samples, d3gamma=deriv(3))


def log_spiral_arclength(lam: float, t_max: float) -> float:
    """Closed-form arc length of the log spiral on [0, t_max]."""
    return math.sqrt(1.0 + lam * lam) * (1.0 - math.exp(-lam * t_max)) / lam


def log_spiral_critical_lambda() -> float:
    """Root of lam = e^{-3 pi lam / 2}, the spiral classification threshold."""
    g = lambda lam: lam - math.exp(-1.5 * math.pi * lam)
    root = invert_monotone(g, 0.0, 1e-4, 1.0)
    assert abs(g(root)) < 1e-10
    return root


def make_arc_chain(curvatures, lengths, n_samples: int = 100,
                   start=(0.0, 0.0), heading: float = 0.0) -> Curve:
    """Planar C^1 chain of constant-curvature arcs, exactly unit speed.

    Useful as a closed-form test family: points and tangents carry no
    quadrature error, so chord <= arc holds to machine precision.
    """
    ks = np.asarray(curvatures, dtype=float)
    ls = np.asarray(lengths, dtype=float)
    if ks.shape != ls.shape or ks.ndim != 1 or len(ks) == 0:
        raise ValueError("curvatures and lengths must be matching 1-D sequences")
    if np.any(ls <= 0):
        raise ValueError("arc lengths must be positive")
    breaks = np.concatenate([[0.0], np.cumsum(ls)])
    psis = np.concatenate([[heading], heading + np.cumsum(ks * ls)])

    def arc_step(psi, kap, du):
        # du sinc(kap du / 2) (cos, sin)(psi + kap du / 2): cancellation-free
        # for every curvature, unlike (sin psi2 - sin psi) / kap
        half = 0.5 * kap * du
        s = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
        mid = psi + half
        return (du * s)[..., None] * _rows(np.cos(mid), np.sin(mid))

    starts = [np.asarray(start, dtype=float)]
    for k, (kap, a, b) in enumerate(zip(ks, breaks[:-1], breaks[1:])):
        starts.append(starts[-1] + arc_step(psis[k], kap, b - a))
    starts = np.array(starts)

    def locate(u):
        return np.clip(np.searchsorted(breaks, u, side="right") - 1, 0, len(ks) - 1)

    def gamma(u):
        j = locate(u)
        return starts[j] + arc_step(psis[j], ks[j], u - breaks[j])

    def dgamma(u):
        j = locate(u)
        psi2 = psis[j] + ks[j] * (u - breaks[j])
        return _rows(np.cos(psi2), np.sin(psi2))

    return _from_evaluators(gamma, dgamma, (0.0, breaks[-1]), n_samples)


def holder_seminorm(curve: Curve, alpha: float,
                    safety_factor: float = 1.25) -> RegularityEstimate:
    """Grid estimate of ||gamma'||_{C^{0,alpha}} and the Taylor constant.

    The seminorm is the safety-inflated max over sample pairs of
    ||gamma'(t_i) - gamma'(t_j)|| / (t_j - t_i)^alpha; the Taylor constant is
    c1 = seminorm^2 / (2 (2 alpha + 1)).

    At alpha = 1 the adjacent pairs hold the maximum: with K the largest
    adjacent quotient, the triangle inequality gives
    ||T_j - T_i|| <= sum_{i <= k < j} ||T_{k+1} - T_k|| <= K (t_j - t_i), so
    the N - 1 adjacent quotients are taken in one pass, each by the float
    operations of the pair scan (where the quotients agree to a few ulps, a
    longer pair may round an ulp above K). Below 1 the bound fails (on a
    circle arc the quotient 2 sin(g/2) / g^alpha grows with the gap g), and
    every pair is scanned.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (1/2, 1]")
    if curve.n_samples < 2:
        raise ValueError("need at least 2 samples")
    t, T = curve.params, curve.tangents

    def block_max(i0, i1):
        # rows i0:i1 against the columns j >= i0
        gaps = pair_gaps(t, i0, i1)
        dist = chord_lengths(T[i0:i1], T[i0:])
        np.power(gaps, alpha, out=gaps)
        dist /= gaps
        return float(mask_lower(dist, -np.inf).max())

    if alpha == 1.0:
        diff = T[1:] - T[:-1]
        dist = diff[:, 0] * diff[:, 0]
        for k in range(1, T.shape[1]):
            dist += diff[:, k] * diff[:, k]
        np.sqrt(dist, out=dist)
        dist /= t[1:] - t[:-1]
        sem = safety_factor * float(dist.max())
    else:
        sem = safety_factor * max(map_blocks(block_max, len(t) - 1))
    c1 = sem * sem / (2.0 * (2.0 * alpha + 1.0))
    return RegularityEstimate(alpha=alpha, holder_seminorm=sem, c1=c1)


def _second_differences(params: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    h0 = params[1:-1] - params[:-2]
    h1 = params[2:] - params[1:-1]
    d2 = 2.0 * ((tangents[2:] - tangents[1:-1]) / h1[:, None]
                - (tangents[1:-1] - tangents[:-2]) / h0[:, None]) / (h0 + h1)[:, None]
    return np.linalg.norm(d2, axis=1)


def third_deriv_bound(curve: Curve) -> ThirdDerivativeBound:
    """Sup of ||gamma'''|| over the grid, inflated by 1.25, with running sup.

    Uses the exact third-derivative evaluator when the curve is analytic and
    already unit speed; otherwise second differences of the tangents. The
    finite-difference path cross-checks a stride-2 subgrid and raises
    InsufficientRegularity when the estimates diverge (ratio above 2).
    """
    g = curve.geometry
    if g is not None and g.d3gamma is not None and g.unit_speed:
        v = np.asarray(g.d3gamma(g.arcmap.u0 + curve.params), dtype=float)
        # per-row sqrt(v . v): the same dot product as a 1-D np.linalg.norm
        vals = np.sqrt(np.vecdot(v, v))
    else:
        if curve.n_samples < 7:
            raise ValueError("finite-difference estimate needs at least 7 samples")
        full = _second_differences(curve.params, curve.tangents)
        coarse = _second_differences(curve.params[::2], curve.tangents[::2])
        if full.max() > 2.0 * coarse.max() + 1e-12:
            raise InsufficientRegularity(
                f"third-derivative estimate diverges under refinement "
                f"({full.max():.3g} vs {coarse.max():.3g} at stride 2)")
        vals = np.concatenate([[full[0]], full, [full[-1]]])
    vals = 1.25 * vals
    return ThirdDerivativeBound(bound=float(vals.max()), values=vals, params=curve.params)


# ---------------------------------------------------------------------------
# import/export

def require_samples(n: int) -> None:
    """ValueError unless a curve of n samples has the 3 that the pipeline needs."""
    if n < 3:
        raise ValueError("a curve needs at least 3 samples")


def require_finite(what: str, **fields) -> None:
    """ValueError naming the first of ``fields`` that holds a NaN or an infinity."""
    for name, values in fields.items():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))
        if len(bad):
            raise ValueError(f"{what}: {name} is not finite at sample {bad[0, 0]}")


def save_csv(curve: Curve, path) -> None:
    """One row per sample: t, x_1..x_n, tx_1..tx_n."""
    d = curve.dim
    header = ",".join(["t"] + [f"x{k+1}" for k in range(d)] + [f"tx{k+1}" for k in range(d)])
    data = np.column_stack([curve.params, curve.points, curve.tangents])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def load_csv(path) -> Curve:
    """Inverse of ``save_csv``; ValueError unless the rows are numbers with
    1 + 2d columns, d >= 1, and there are at least 3 of them."""
    with open(path) as fh:
        first = fh.readline()
    skip = 1 if first.lstrip().startswith("t") else 0
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as the one line of a ValueError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError:
        raise ValueError(_csv_fault(path, skip)) from None
    if data.size == 0:
        raise ValueError("curve file is empty: it holds no sample rows")
    k = data.shape[1]
    if k < 3 or k % 2 == 0:
        raise ValueError(f"curve file has {k} columns, expected 1 + 2d "
                         "(t, x_1..x_d, tx_1..tx_d) with d >= 1")
    require_samples(len(data))
    d = (k - 1) // 2
    params, points, tangents = data[:, 0], data[:, 1:1 + d], data[:, 1 + d:]
    require_finite("curve file", t=params, x=points, tx=tangents)
    return Curve(params=params, points=points, tangents=tangents, source="sampled")


def _csv_fault(path, skip: int) -> str:
    """Why ``np.loadtxt`` could not read a curve CSV: its first line that is
    not a row of numbers, or that has another column count than the first."""
    width = None
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()  # as loadtxt reads it
            if number <= skip or not text:
                continue
            try:
                row = np.loadtxt([text], delimiter=",", ndmin=1)
            except ValueError:
                what = ("neither a header starting with 't' nor a row of numbers"
                        if number == 1 else "not a row of numbers")
                return f"curve file line {number} is {what}: {text!r}"
            if width is None:
                width, first = len(row), number
            elif len(row) != width:
                return (f"curve file line {number} has {len(row)} columns, "
                        f"line {first} has {width}")
    return "curve file is not a table of comma-separated numbers"


def to_json_dict(curve: Curve, alpha: float | None = None) -> dict:
    return {
        "schema_version": 1,
        "dim": curve.dim,
        "L": curve.length,
        "alpha": alpha,
        "source": curve.source,
        "params": curve.params.tolist(),
        "points": curve.points.tolist(),
        "tangents": curve.tangents.tolist(),
    }


def from_json_dict(doc: dict) -> Curve:
    """Inverse of ``to_json_dict``; ValueError when malformed."""
    try:
        params, points, tangents = (np.asarray(doc[key], dtype=float)
                                    for key in ("params", "points", "tangents"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve document: {exc!r}") from None
    require_finite("curve document", params=params, points=points, tangents=tangents)
    return Curve(params=params, points=points, tangents=tangents,
                 source=doc.get("source", "sampled"))


def save_json(curve: Curve, path, alpha: float | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(curve, alpha), fh, sort_keys=True)


def load_json(path) -> Curve:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
