"""Self-contractedness hierarchy checks and the Taylor-type lower bound.

The pairwise differential form <gamma'(t), gamma(s) - gamma(t)> is the
authoritative test for differentiable curves. ``classify`` runs it after an
O(N) check that the tangent columns are the derivative of the points, the
one hypothesis under which the pairwise form implies the metric triple
inequality. ``check_self_contracted_metric`` checks that inequality itself
on every triple of samples, in one O(N^2) pass: a library cross-check that
the pipeline does not run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from ._scan import (block_argmin, chord_lengths, map_blocks, mask_lower, pair_gaps,
                    pairwise_min, scratch, tangent_chord)
from .curve import UNIT_TANGENT_TOL, Curve, RegularityEstimate, require_samples
from .errors import BoundViolated, InconsistentTangents, NotStronglyContracted

STRICT_TOL = 1e-9
DEFLATION = 0.9  # c0 is this share of the grid minimum of the normalized products


class ContractLevel(enum.Enum):
    NOT_SELF_CONTRACTED = "not_self_contracted"
    SELF_CONTRACTED = "self_contracted"
    STRONGLY = "strongly"
    UNIFORMLY_STRONGLY = "uniformly_strongly"

    @property
    def rank(self) -> int:
        """Position in the hierarchy: the declaration order, weakest first."""
        return list(ContractLevel).index(self)

    def __ge__(self, other):
        return self.rank >= other.rank

    def __gt__(self, other):
        return self.rank > other.rank


@dataclass(frozen=True)
class ContractReport:
    level: ContractLevel
    c0: float
    worst_pair: tuple | None  # (t, s, value) minimizing the normalized inner product
    tol: float


@dataclass(frozen=True)
class MetricReport:
    level: ContractLevel  # SELF_CONTRACTED or NOT_SELF_CONTRACTED
    worst_triple: tuple  # (t1, t2, t3, slack) minimizing the metric slack
    tol: float


def check_strong(curve: Curve) -> ContractReport:
    """Differential pairwise check: strictly positive inner products.

    Strongly self-contracted iff <T_i, P_j - P_i> > STRICT_TOL * (t_j - t_i)
    for all grid pairs i < j; a value below -STRICT_TOL * gap disproves
    self-contractedness.
    The worst pair minimizes <T_i, P_j - P_i> / (t_j - t_i).
    """
    t = curve.params

    def block(i0, i1):
        ip = tangent_chord(curve, i0, i1)
        return mask_lower(np.divide(ip, pair_gaps(t, i0, i1), out=ip))

    qmin, i, j = pairwise_min(block, len(t))
    worst = (float(t[i]), float(t[j]), qmin)
    if qmin > STRICT_TOL:
        level = ContractLevel.STRONGLY
    elif qmin >= -STRICT_TOL:
        level = ContractLevel.SELF_CONTRACTED
    else:
        level = ContractLevel.NOT_SELF_CONTRACTED
    return ContractReport(level=level, c0=0.0, worst_pair=worst, tol=STRICT_TOL)


def estimate_c0(curve: Curve) -> float:
    """Uniform strong constant: DEFLATION x (grid min of the normalized products).

    Returns 0.0 when the minimum sits at zero within tolerance (strongly
    fails only on a boundary pair); raises NotStronglyContracted when the
    curve is not even self-contracted on the grid.
    """
    strong = check_strong(curve)
    if strong.level == ContractLevel.NOT_SELF_CONTRACTED:
        qmin = strong.worst_pair[2]
        raise NotStronglyContracted(f"pairwise minimum {qmin:.3g} is negative")
    return upgrade_uniform(strong).c0


def upgrade_uniform(strong: ContractReport) -> ContractReport:
    """Lift a STRONGLY report to UNIFORMLY_STRONGLY, c0 = DEFLATION x its pairwise min."""
    if strong.level != ContractLevel.STRONGLY:
        return strong
    c0 = DEFLATION * strong.worst_pair[2]
    level = ContractLevel.UNIFORMLY_STRONGLY if c0 > 0.0 else ContractLevel.STRONGLY
    return replace(strong, level=level, c0=c0)


def check_self_contracted_metric(curve: Curve) -> MetricReport:
    """Metric triple inequality |P_k - P_j| <= |P_k - P_i| on every triple i < j < k.

    With D[i, k] = |P_k - P_i|, the least slack of column k is the min over
    j < k of (min_{i < j} D[i, k]) - D[j, k]. One pass over the upper
    triangle takes it: the inner minimum is a running minimum down each
    column, carried from one block of rows to the next. The witness is the
    first least slack in (j, k) order, with i the first row below j at the
    column's minimum, recomputed by the same chord operations. Violation
    threshold is STRICT_TOL * L. A chord that overflows raises ValueError.
    """
    n = curve.n_samples
    if n < 3:
        raise ValueError(f"the metric check needs at least 3 samples, got {n}")
    t, P = curve.params, curve.points
    carry = np.full(n, np.inf)  # min over i < j0 of D[i, k], for the columns k >= j0

    def block(j0, j1):
        dist = chord_lengths(P[j0:j1], P[j0:])
        run = scratch(dist.shape)  # min over i < j of D[i, k]
        run[0], run[1:] = carry[j0:], dist[:-1]
        np.minimum.accumulate(run, axis=0, out=run)
        np.minimum(run[-1, j1 - j0:], dist[-1, j1 - j0:], out=carry[j1:])
        # an inf or NaN chord D[j, k] makes its slack -inf or NaN, argmin's pick
        worst = block_argmin(mask_lower(np.subtract(run, dist, out=run)), j0, j0)
        if not worst[0] > -np.inf:
            raise ValueError("a chord of the metric check overflows float64")
        return worst

    with np.errstate(over="ignore", invalid="ignore"):
        slack, j, k = min(map_blocks(block, n))
    column = chord_lengths(P[k:k + 1], P[:j])[0]
    i = int(np.argmin(column))
    tol = STRICT_TOL * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack < -tol
             else ContractLevel.SELF_CONTRACTED)
    worst = (float(t[i]), float(t[j]), float(t[k]), slack)
    return MetricReport(level=level, worst_triple=worst, tol=tol)


def check_tangents(curve: Curve) -> None:
    """Raise InconsistentTangents unless the tangent columns integrate to the points.

    The trapezoid rule summed over the cells from sample 0 must reach every
    sample: with h_m = t_(m+1) - t_m,
    |P_(k+1) - P_0 - sum_(m <= k) h_m (T_m + T_(m+1)) / 2|
        <= sum_(m <= k) H_m h_m^2 / 2 + eps (t_(k+1) + L) + 4 ulp(max |P|).
    H_m h_m^2 / 2 bounds the trapezoid error on cell m for an H_m-Lipschitz
    tangent, with H_m = 1.25 ||T_(m+1) - T_m|| / h_m, the cell's
    adjacent-tangent quotient under the safety factor of ``holder_seminorm``.
    eps = UNIT_TANGENT_TOL, the norm error a Curve admits in its tangents, is
    granted to the tangents along the arc length and, times L, to the rounding
    of the points and parameters, so a file written to 6 digits passes. Summed
    from sample 0, rounding of the points does not add up over the cells, while
    tangents that are off along a stretch do, at any sampling density. The
    error names the sample that starts the first failing cell. A lone bad
    tangent, whose kink raises the bound of its two cells, can pass.
    """
    t, P, T = curve.params, curve.points, curve.tangents
    h = np.diff(t)
    miss = P[1:] - P[0]
    miss -= np.cumsum((0.5 * h)[:, None] * (T[:-1] + T[1:]), axis=0)
    kink = np.diff(T, axis=0)
    residual = np.sqrt(np.einsum("ij,ij->i", miss, miss))
    bound = np.cumsum(0.5 * 1.25 * np.sqrt(np.einsum("ij,ij->i", kink, kink)) * h)
    bound += UNIT_TANGENT_TOL * (t[1:] + curve.length) + 4.0 * np.spacing(np.abs(P).max())
    bad = np.flatnonzero(~(residual <= bound))
    if len(bad):
        k = bad[0]
        raise InconsistentTangents(
            f"tangent check failed at sample {k} (t = {t[k]:.6g}): integrated from "
            f"t = 0 to the next sample, the tangents miss the points by "
            f"{residual[k]:.3g}, more than the bound {bound[k]:.3g}; the tangent "
            f"columns disagree with the points")


def classify(curve: Curve) -> ContractReport:
    """Full hierarchy decision: tangent check, pairwise level (STRICT_TOL), c0."""
    require_samples(curve.n_samples)
    check_tangents(curve)
    return upgrade_uniform(check_strong(curve))


@dataclass(frozen=True)
class TaylorReport:
    holder_slack: float
    holder_witness: tuple  # (t, s, lhs, rhs)
    cubic_slack: float | None
    cubic_witness: tuple | None


def _taylor_scan(curve: Curve, bounds: list) -> list:
    """Min and witness of the slack of each (constant, power) bound, in one pass."""
    t, P, T = curve.params, curve.points, curve.tangents

    def block(i0, i1):
        ip, gaps = tangent_chord(curve, i0, i1), pair_gaps(t, i0, i1)
        out = scratch((len(bounds),) + ip.shape)
        for slack, (constant, power) in zip(out, bounds):
            # ip - (gap - constant * gap**power)
            np.power(gaps, power, out=slack)
            slack *= constant
            np.subtract(gaps, slack, out=slack)
            np.subtract(ip, slack, out=slack)
            mask_lower(slack)
        return out

    results = []
    scans = pairwise_min(block, len(t))
    for (constant, power), (worst, i, j) in zip(bounds, scans):
        gap = t[j] - t[i]
        lhs = float(T[i] @ (P[j] - P[i]))
        rhs = float(gap - constant * gap**power)
        results.append((worst, (float(t[i]), float(t[j]), lhs, rhs)))
    return results


def check_taylor_bound(curve: Curve, reg: RegularityEstimate) -> TaylorReport:
    """Verify <T(t), gamma(s)-gamma(t)> >= (s-t) - C (s-t)^{2 alpha + 1}.

    C is reg.c1; when reg carries a third-derivative bound the cubic variant
    with C1 = bound / 6 is verified too, in the same pass over the pairs.
    Raises BoundViolated with the witness pair when a slack dips below
    -STRICT_TOL * L, the Hoelder bound first.
    """
    tol = STRICT_TOL * curve.length
    bounds = [(reg.c1, 2.0 * reg.alpha + 1.0)]
    if reg.third_deriv_bound is not None:
        bounds.append((reg.third_deriv_bound / 6.0, 3.0))
    (slack, witness), *cubic = _taylor_scan(curve, bounds)
    if slack < -tol:
        raise BoundViolated(
            f"Hoelder Taylor bound violated by {slack:.3g}; "
            f"increase the safety factor", witness)
    cubic_slack = cubic_witness = None
    if cubic:
        cubic_slack, cubic_witness = cubic[0]
        if cubic_slack < -tol:
            raise BoundViolated(
                f"cubic Taylor bound violated by {cubic_slack:.3g}", cubic_witness)
    return TaylorReport(holder_slack=float(slack), holder_witness=witness,
                        cubic_slack=cubic_slack, cubic_witness=cubic_witness)
