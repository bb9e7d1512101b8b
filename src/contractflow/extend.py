"""Trace jets on the curve and the explicit convex extension.

The jet prescribes values f_i = int_{t_i}^L 1/m and gradients
G_i = -gamma'(t_i) / m(t_i) at the anchors gamma(t_i). After the first-order
convexity condition is verified, the extension is the lower envelope of the
supporting hyperplanes, optionally smoothed by log-sum-exp so that the
gradient field is continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._scan import LOWER, block_argmin, block_product, map_blocks, scratch
from .curve import Curve, require_finite
from .errors import ConditionCFailed
from .repar import ReparamPlan

CW1_TOL = 1e-9  # equality band of (CW1), relative to max|f|


@dataclass(frozen=True)
class JetData:
    """Prescribed trace (values, gradients) at anchor points on the curve."""

    anchors: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    _scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.anchors, dtype=float)
        v = np.ascontiguousarray(self.values, dtype=float)
        g = np.ascontiguousarray(self.gradients, dtype=float)
        if a.ndim != 2 or g.shape != a.shape or v.shape != (len(a),):
            raise ValueError("inconsistent jet arrays")
        for arr in (a, v, g):
            arr.setflags(write=False)
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gradients", g)

    @property
    def value_range(self) -> float:
        return float(self.values.max() - self.values.min())


def curve_jet(curve: Curve, plan: ReparamPlan) -> JetData:
    """Jet of the target convex function along the curve.

    values[i] = int_{t_i}^L 1/m (so values[-1] = 0, decreasing in i) and
    gradients[i] = -gamma'(t_i) / m(t_i).
    """
    t = curve.params
    values = np.asarray(plan.inv_m_integral(t, curve.length), dtype=float)
    inv_m = np.asarray(plan.inv_m(t), dtype=float)
    gradients = -curve.tangents * inv_m[:, None]
    return JetData(anchors=curve.points, values=values, gradients=gradients)


@dataclass(frozen=True)
class ConditionCReport:
    passed: bool
    min_slack: float
    step1_min: float  # pairs with x earlier on the curve than y
    step2_min: float  # pairs with x later on the curve than y
    witness: tuple  # (i, j, slack) of the global minimum
    scale: float


def _slack_scan(jet: JetData, tol: float) -> tuple:
    """One blocked pass over slack[i, j] = f_i - f_j - <G_j, x_i - x_j>, i != j.

    Returns (min, i, j), the minima over j > i and over j < i, the count of
    pairs with |slack| <= tol max|f| and (-gap, i, j) of their widest gradient
    gap; witnesses are the first in row-major order. Memoized on the jet,
    whose arrays are read-only, so check_C, check_CW1 and build_extension
    share one scan.
    """
    if tol not in jet._scans:
        f, x, g = jet.values, jet.anchors, jet.gradients
        own = np.einsum("id,id->i", x, g)  # <x_j, G_j>
        band = tol * max(float(np.abs(f).max()), 1e-300)

        def block(i0, i1):
            shape = (i1 - i0, len(f))
            cross = block_product(x[i0:i1], g, scratch(shape))
            slack = scratch(shape)
            cross -= own[None, :]
            np.subtract(f[i0:i1, None], f[None, :], out=slack)
            slack -= cross
            corner = slack[:, i0:i1]
            np.fill_diagonal(corner, np.inf)  # the diagonal is not a pair
            lower = LOWER[:i1 - i0, :i1 - i0]
            step1 = np.minimum(np.min(slack[:, i1:], initial=np.inf),
                               np.min(corner, where=~lower, initial=np.inf))
            step2 = np.minimum(np.min(slack[:, :i0], initial=np.inf),
                               np.min(corner, where=lower, initial=np.inf))
            least = block_argmin(slack, i0)
            n_hits, widest = 0, (np.inf, i0, 0)
            if not least[0] > band:  # else no |slack| is within the band
                hits = np.less_equal(np.abs(slack, out=cross), band,
                                     out=scratch(shape, bool))
                n_hits = int(np.count_nonzero(hits))
                if n_hits:
                    r, c = np.divmod(np.flatnonzero(hits), len(f))
                    gaps = np.linalg.norm(g[i0 + r] - g[c], axis=1)
                    w = int(np.argmax(gaps))
                    widest = (-float(gaps[w]), i0 + int(r[w]), int(c[w]))
            return least, step1, step2, n_hits, widest

        least, step1, step2, n_equal, widest = zip(*map_blocks(block, len(f)))
        jet._scans[tol] = (min(least), float(min(step1)), float(min(step2)),
                           sum(n_equal), min(widest))
    return jet._scans[tol]


def check_C(jet: JetData) -> ConditionCReport:
    """First-order convexity: f(x) - f(y) >= <G(y), x - y> on all pairs.

    Passes iff the minimum slack is >= -1e-10 * max|f|. The report separates
    the two index orders (x before y on the curve, and after), which have
    different proof content: the "before" direction holds for any positive
    increasing profile, the "after" direction is exactly the (M)-inequality.
    """
    (min_slack, wi, wj), step1, step2, _, _ = _slack_scan(jet, CW1_TOL)
    scale = float(np.abs(jet.values).max())
    passed = bool(min_slack >= -1e-10 * scale)
    return ConditionCReport(passed=passed, min_slack=min_slack, step1_min=step1,
                            step2_min=step2, witness=(wi, wj, min_slack),
                            scale=scale)


@dataclass(frozen=True)
class ConditionCW1Report:
    passed: bool
    n_equality_pairs: int
    witness: tuple | None  # (i, j, gradient_gap) of the worst equality pair


def check_CW1(jet: JetData, tol: float = CW1_TOL) -> ConditionCW1Report:
    """Equality pairs of condition (C) must share their gradient.

    With a strict (M)-margin the nontrivial equality set is empty; exact ties
    (e.g. underflowed far-tail values) pass because their gradients agree.
    """
    _, _, _, count, (neg_gap, i, j) = _slack_scan(jet, tol)
    if count == 0:
        return ConditionCW1Report(passed=True, n_equality_pairs=0, witness=None)
    return ConditionCW1Report(passed=bool(-neg_gap <= tol), n_equality_pairs=count,
                              witness=(i, j, -neg_gap))


@dataclass(frozen=True)
class ConvexExtension:
    """Max of supporting hyperplanes, log-sum-exp smoothed when eps > 0.

    F_0(x) = max_i [f_i + <G_i, x - x_i>] interpolates the jet values at the
    anchors whenever condition (C) holds; F_eps = eps log sum exp(p_i / eps)
    is convex, smooth, and within eps log N above F_0.
    """

    anchors: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    smoothing_eps: float
    offsets: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("anchors", "values", "gradients"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.offsets is None:
            offs = self.values - np.einsum("id,id->i", self.gradients, self.anchors)
            offs.setflags(write=False)
            object.__setattr__(self, "offsets", offs)

    @property
    def n_pieces(self) -> int:
        return len(self.values)

    def piece_values(self, x: np.ndarray) -> np.ndarray:
        p = np.asarray(x, dtype=float) @ self.gradients.T
        p += self.offsets
        return p

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "anchors": self.anchors.tolist(),
            "values": self.values.tolist(),
            "gradients": self.gradients.tolist(),
            "eps": self.smoothing_eps,
        }


def extension_from_json_dict(doc: dict) -> ConvexExtension:
    """Inverse of ``ConvexExtension.to_json_dict``; ValueError when malformed."""
    try:
        anchors, values, gradients = (np.asarray(doc[key], dtype=float)
                                      for key in ("anchors", "values", "gradients"))
        eps = float(doc["eps"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed extension document: {exc!r}") from None
    if (anchors.ndim != 2 or gradients.shape != anchors.shape
            or values.shape != anchors.shape[:1]):
        raise ValueError("extension anchors, values and gradients disagree in shape")
    require_finite("extension", anchors=anchors, values=values, gradients=gradients)
    if not 0.0 <= eps < np.inf:
        raise ValueError("extension eps must be finite and nonnegative")
    return ConvexExtension(anchors=anchors, values=values, gradients=gradients,
                           smoothing_eps=eps)


def build_extension(jet: JetData, smoothing_eps: float | None = None,
                    eps_rel: float = 1e-3) -> ConvexExtension:
    """Build the envelope extension after verifying condition (C).

    ``smoothing_eps`` is the absolute log-sum-exp temperature; when None it
    defaults to eps_rel times the jet's value range (0 when the range is 0).
    """
    report = check_C(jet)
    if not report.passed:
        raise ConditionCFailed(
            f"condition (C) fails with slack {report.min_slack:.3g} "
            f"at pair {report.witness[:2]}")
    if smoothing_eps is None:
        smoothing_eps = eps_rel * jet.value_range
    if smoothing_eps < 0.0:
        raise ValueError("smoothing_eps must be nonnegative")
    return ConvexExtension(anchors=jet.anchors, values=jet.values,
                           gradients=jet.gradients, smoothing_eps=float(smoothing_eps))


def eval_f(ext: ConvexExtension, x) -> float | np.ndarray:
    """Extension value at x; x may be a point (d,) or a batch (k, d)."""
    p = ext.piece_values(x)
    eps = ext.smoothing_eps
    if eps == 0.0:
        return p.max(axis=-1)
    m = p.max(axis=-1, keepdims=True)
    out = m[..., 0] + eps * np.log(np.exp((p - m) / eps).sum(axis=-1))
    return out


def eval_grad(ext: ConvexExtension, x) -> np.ndarray:
    """Extension gradient at x (softmax blend; argmax piece when eps = 0).

    Ties at eps = 0 break to the lowest piece index.
    """
    p = ext.piece_values(x)
    eps = ext.smoothing_eps
    if eps == 0.0:
        idx = np.argmax(p, axis=-1)
        return ext.gradients[idx]
    # in place: no temporaries on the flow integrators' one-point calls
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    p /= eps
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p @ ext.gradients
