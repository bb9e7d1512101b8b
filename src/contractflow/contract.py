"""Self-contractedness hierarchy checks and the Taylor-type lower bound.

The pairwise differential form <gamma'(t), gamma(s) - gamma(t)> is the
authoritative test for differentiable curves; the metric triple inequality
runs on a stratified random subsample as a cross-check.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace

import numpy as np

from ._scan import mask_lower, pair_gaps, pairwise_min, scratch, tangent_chord
from .curve import Curve, RegularityEstimate
from .errors import BoundViolated, NotStronglyContracted

STRICT_TOL = 1e-9
DEFLATION = 0.9  # c0 is this share of the grid minimum of the normalized products
N_STRATA = 8  # span strata of the metric check
TABLE_TRIPLES = 100_000  # most triples the metric check scores from a chord table
METRIC_TRIPLES = 100_000  # triples of classify's metric cross-check, drawn with seed 0


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
    worst_triple: tuple | None  # (t1, t2, t3, slack) minimizing the metric slack
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
    return ContractReport(level=level, c0=0.0, worst_pair=worst, worst_triple=None,
                          tol=STRICT_TOL)


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


def _chord_lengths(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||P[a] - P[b]|| row by row, bitwise equal to ``np.linalg.norm(axis=1)``.

    Below 8 coordinates NumPy sums the squares in coordinate order, so the
    rows are built one coordinate at a time from 1-D gathers; from 8 on it
    sums them pairwise, and the rows are gathered whole.
    """
    if P.shape[1] >= 8:
        return np.linalg.norm(P.take(a, axis=0) - P.take(b, axis=0), axis=1)
    out = None
    for x in P.T:
        x = np.ascontiguousarray(x)
        diff = x.take(a)
        diff -= x.take(b)
        diff *= diff
        out = diff if out is None else np.add(out, diff, out=out)
    return np.sqrt(out, out=out)


def _strata(n: int, n_triples: int, seed: int):
    """The metric check's triples, one stratum at a time: ``(i, j, k)``.

    8 strata of n_triples // 8 draws, each a start index and two gaps below
    the stratum's span, then all n - 2 consecutive triples. A stratum keeps
    the draws that land (k < n) in draw order, and one where none lands is
    skipped. A stratum is drawn only when the one before it has been taken.
    """
    rng = np.random.default_rng(seed)
    per = max(n_triples // N_STRATA, 1)
    for s in range(N_STRATA):
        span = max(int(n * 2.0 ** (s - N_STRATA + 1)), 3)
        i = rng.integers(0, n - 2, size=per)
        j = i + rng.integers(1, span, size=per)
        k = j + rng.integers(1, span, size=per)
        land = k < n
        if not land.all():
            i, j, k = i[land], j[land], k[land]
        if len(i):
            yield i, j, k
    i = np.arange(n - 2)
    yield i, i + 1, i + 2


@functools.lru_cache(maxsize=1)
def _triple_plan(n: int, n_triples: int, seed: int) -> tuple:
    """Per stratum of ``_strata``, read-only rows ``i n + k`` and ``j n + k``.

    They index the flat ``_chord_table`` in the smallest unsigned type that
    holds n^2 - 1: uint8 up to N = 16, uint16 up to N = 256, then uint32."""
    index = np.min_scalar_type(n * n - 1)
    plan = tuple(np.stack([i * n + k, j * n + k]).astype(index)
                 for i, j, k in _strata(n, n_triples, seed))
    for stratum in plan:
        stratum.setflags(write=False)
    return plan


def _chord_table(P: np.ndarray) -> np.ndarray:
    """||P[r] - P[c]|| at row r, column c, each bitwise equal to ``_chord_lengths``."""
    n, d = P.shape
    if d >= 8:
        # whole rows, as _chord_lengths gathers them, a few table rows at a time
        table = np.empty((n, n))
        rows = max(1, 2**16 // (n * d))
        for r in range(0, n, rows):
            table[r:r + rows] = np.linalg.norm(P[r:r + rows, None] - P[None], axis=2)
        return table
    table = np.subtract.outer(P[:, 0], P[:, 0])
    table *= table
    diff = None
    for x in P.T[1:]:
        diff = np.subtract.outer(x, x, out=diff)
        diff *= diff
        table += diff
    return np.sqrt(table, out=table)


def check_self_contracted_metric(curve: Curve, n_triples: int,
                                 seed: int = 0) -> ContractReport:
    """Metric triple inequality on random triples plus all consecutive ones.

    The random sample is stratified over triple spans so that both local and
    global configurations are covered: 8 strata of n_triples // 8 draws,
    each a start index and two gaps below the stratum's span. Draws that run
    past the last sample are discarded as they are drawn, so every scored
    triple has t1 < t2 < t3; the witness is the first scored triple of least
    slack (the first NaN slack, if any). Violation threshold is STRICT_TOL * L.

    The draws depend only on (N, n_triples, seed). When n_triples is at most
    TABLE_TRIPLES and the N x N chord table is no larger than the chords the
    triples ask for (N^2 <= 2 n_triples), the draws of the last key are kept
    as table indices (0.3 MB at N = 200, 0.8 MB at most) and each call builds
    the table (1.6 MB at most). Otherwise each stratum is scored from its own
    chords before the next is drawn: a call keeps nothing and holds under 1 MB
    at 100 000 triples at any N. Both paths give the same slacks bit for bit.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
    n = curve.n_samples
    if n < 3:
        raise ValueError(f"the metric check needs at least 3 samples, got {n}")
    t, P = curve.params, curve.points
    if n_triples <= TABLE_TRIPLES and n * n <= 2 * n_triples:
        strata = _triple_plan(n, n_triples, seed)
        least = functools.partial(_least_in_table, _chord_table(P))
    else:
        least = functools.partial(_least_by_chords, P)
        strata = _strata(n, n_triples, seed)
    # map lets go of a stratum once it is scored, before the next is drawn
    chunks = list(map(least, strata))
    # argmin over the stratum minima keeps argmin's rule over all triples: the
    # first NaN, else the first least slack
    slack, *triple = chunks[int(np.argmin([c[0] for c in chunks]))]
    tol = STRICT_TOL * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack < -tol
             else ContractLevel.SELF_CONTRACTED)
    worst = tuple(float(t[m]) for m in triple) + (float(slack),)
    return ContractReport(level=level, c0=0.0, worst_pair=None,
                          worst_triple=worst, tol=tol)


def _least_in_table(table, stratum):
    """(slack, i, j, k) of a stratum's first least slack, scored from the chord table."""
    ik, jk = stratum
    slack = table.take(ik)
    slack -= table.take(jk)
    w = int(np.argmin(slack))
    i, k = divmod(int(ik[w]), len(table))
    return slack[w], i, int(jk[w]) // len(table), k


def _least_by_chords(P, stratum):
    """(slack, i, j, k) of a stratum's first least slack, scored from its own chords."""
    i, j, k = stratum
    slack = _chord_lengths(P, i, k)
    slack -= _chord_lengths(P, j, k)
    w = int(np.argmin(slack))
    return slack[w], i[w], j[w], k[w]


def classify(curve: Curve) -> ContractReport:
    """Full hierarchy decision: metric cross-check, pairwise level (STRICT_TOL), c0."""
    metric = check_self_contracted_metric(curve, METRIC_TRIPLES)
    strong = upgrade_uniform(check_strong(curve))
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
