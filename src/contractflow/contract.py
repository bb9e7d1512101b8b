"""Self-contractedness hierarchy checks and the Taylor-type lower bound.

The pairwise differential form <gamma'(t), gamma(s) - gamma(t)> is the
authoritative test for differentiable curves; the metric triple inequality
runs on a stratified random subsample as a cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from ._scan import mask_lower, pairwise_min, scratch, tangent_chord
from .curve import Curve, RegularityEstimate
from .errors import BoundViolated, NotStronglyContracted

STRICT_TOL = 1e-9


class ContractLevel(enum.Enum):
    NOT_SELF_CONTRACTED = "not_self_contracted"
    SELF_CONTRACTED = "self_contracted"
    STRONGLY = "strongly"
    UNIFORMLY_STRONGLY = "uniformly_strongly"

    @property
    def rank(self) -> int:
        return _LEVEL_RANK[self]

    def __ge__(self, other):
        return self.rank >= other.rank

    def __gt__(self, other):
        return self.rank > other.rank


_LEVEL_RANK = {
    ContractLevel.NOT_SELF_CONTRACTED: 0,
    ContractLevel.SELF_CONTRACTED: 1,
    ContractLevel.STRONGLY: 2,
    ContractLevel.UNIFORMLY_STRONGLY: 3,
}


@dataclass(frozen=True)
class ContractReport:
    level: ContractLevel
    c0: float
    worst_pair: tuple | None  # (t, s, value) minimizing the normalized inner product
    worst_triple: tuple | None  # (t1, t2, t3, slack) minimizing the metric slack
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "level": self.level.value,
            "c0": self.c0,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "worst_triple": list(self.worst_triple) if self.worst_triple else None,
            "tol": self.tol,
        }


def check_strong(curve: Curve, tol: float = STRICT_TOL) -> ContractReport:
    """Differential pairwise check: strictly positive inner products.

    Strongly self-contracted iff <T_i, P_j - P_i> > tol * (t_j - t_i) for all
    grid pairs i < j; a value below -tol * gap disproves self-contractedness.
    The worst pair minimizes <T_i, P_j - P_i> / (t_j - t_i).
    """
    t = curve.params

    def block(i0, i1):
        ip, gaps = tangent_chord(curve, i0, i1)
        return mask_lower(np.divide(ip, gaps, out=ip))

    qmin, i, j = pairwise_min(block, len(t))
    worst = (float(t[i]), float(t[j]), qmin)
    if qmin > tol:
        level = ContractLevel.STRONGLY
    elif qmin >= -tol:
        level = ContractLevel.SELF_CONTRACTED
    else:
        level = ContractLevel.NOT_SELF_CONTRACTED
    return ContractReport(level=level, c0=0.0, worst_pair=worst, worst_triple=None, tol=tol)


def estimate_c0(curve: Curve, deflation: float = 0.9, tol: float = STRICT_TOL) -> float:
    """Uniform strong constant: deflation x (grid min of the normalized products).

    Returns 0.0 when the minimum sits at zero within tolerance (strongly
    fails only on a boundary pair); raises NotStronglyContracted when the
    curve is not even self-contracted on the grid.
    """
    strong = check_strong(curve, tol=tol)
    if strong.level == ContractLevel.NOT_SELF_CONTRACTED:
        qmin = strong.worst_pair[2]
        raise NotStronglyContracted(f"pairwise minimum {qmin:.3g} is negative")
    return upgrade_uniform(strong, deflation).c0


def upgrade_uniform(strong: ContractReport, deflation: float = 0.9) -> ContractReport:
    """Lift a STRONGLY report to UNIFORMLY_STRONGLY, c0 from its own pairwise min."""
    if strong.level != ContractLevel.STRONGLY:
        return strong
    c0 = deflation * strong.worst_pair[2]
    level = ContractLevel.UNIFORMLY_STRONGLY if c0 > 0.0 else ContractLevel.STRONGLY
    return replace(strong, level=level, c0=c0)


def check_self_contracted_metric(curve: Curve, n_triples: int,
                                 seed: int = 0, tol_factor: float = 1e-9) -> ContractReport:
    """Metric triple inequality on random triples plus all consecutive ones.

    The random sample is stratified over triple spans so that both local and
    global configurations are covered. Violation threshold is
    tol = tol_factor * L.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
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


def classify(curve: Curve, n_triples: int = 100_000, seed: int = 0,
             tol: float = STRICT_TOL) -> ContractReport:
    """Full hierarchy decision: metric cross-check, pairwise level, c0."""
    metric = check_self_contracted_metric(curve, n_triples, seed=seed)
    strong = upgrade_uniform(check_strong(curve, tol=tol))
    # the metric cross-check can only veto; the pairwise scan sets the level
    if metric.level == ContractLevel.NOT_SELF_CONTRACTED:
        strong = replace(strong, level=ContractLevel.NOT_SELF_CONTRACTED, c0=0.0)
    return replace(strong, worst_triple=metric.worst_triple)


@dataclass(frozen=True)
class TaylorReport:
    holder_slack: float
    holder_witness: tuple  # (t, s, lhs, rhs)
    cubic_slack: float | None
    cubic_witness: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "holder_slack": self.holder_slack,
            "holder_witness": list(self.holder_witness),
            "cubic_slack": self.cubic_slack,
            "cubic_witness": list(self.cubic_witness) if self.cubic_witness else None,
        }


def _taylor_scan(curve: Curve, bounds: list) -> list:
    """Min and witness of the slack of each (constant, power) bound, in one pass."""
    t, P, T = curve.params, curve.points, curve.tangents

    def block(i0, i1):
        ip, gaps = tangent_chord(curve, i0, i1)
        out = scratch("taylor", (len(bounds),) + ip.shape)
        for slack, (constant, power) in zip(out, bounds):
            # ip - (gap - constant * gap**power)
            np.power(gaps, power, out=slack)
            slack *= constant
            np.subtract(gaps, slack, out=slack)
            np.subtract(ip, slack, out=slack)
            mask_lower(slack)
        return out

    results = []
    for (constant, power), (worst, i, j) in zip(bounds, pairwise_min(block, len(t))):
        gap = t[j] - t[i]
        lhs = float(T[i] @ (P[j] - P[i]))
        rhs = float(gap - constant * gap**power)
        results.append((worst, (float(t[i]), float(t[j]), lhs, rhs)))
    return results


def check_taylor_bound(curve: Curve, reg: RegularityEstimate,
                       tol_factor: float = 1e-9) -> TaylorReport:
    """Verify <T(t), gamma(s)-gamma(t)> >= (s-t) - C (s-t)^{2 alpha + 1}.

    C is reg.c1; when reg carries a third-derivative bound the cubic variant
    with C1 = bound / 6 is verified too, in the same pass over the pairs.
    Raises BoundViolated with the witness pair when a slack dips below
    -tol_factor * L, the Hoelder bound first.
    """
    tol = tol_factor * curve.length
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
