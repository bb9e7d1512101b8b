"""Self-contractedness hierarchy checks and the Taylor-type lower bound.

The pairwise differential form <gamma'(t), gamma(s) - gamma(t)> is the
authoritative test for differentiable curves; the metric triple inequality
runs on a stratified random subsample as a cross-check.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from ._scan import mask_lower, pair_gaps, pairwise_min, scratch, tangent_chord
from .curve import Curve, RegularityEstimate
from .errors import BoundViolated, NotStronglyContracted

STRICT_TOL = 1e-9
DEFLATION = 0.9  # c0 is this share of the grid minimum of the normalized products
N_STRATA = 8  # span strata of the metric check
TABLE_TRIPLES = 100_000  # most triples the metric check scores from a chord table


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
        if out is None:
            out = diff
        else:
            out += diff
    return np.sqrt(out, out=out)


def _strata(n: int, n_triples: int, seed: int):
    """The metric check's triples, one stratum at a time: ``(i, j, k, dropped)``.

    8 strata of n_triples // 8 draws, each a start index and two gaps below
    the stratum's span, then all n - 2 consecutive triples. Draws that run
    past the last sample are clipped to it and marked in ``dropped``. A
    stratum is drawn only when the one before it has been taken.
    """
    rng = np.random.default_rng(seed)
    per = max(n_triples // N_STRATA, 1)
    for s in range(N_STRATA):
        span = max(int(n * 2.0 ** (s - N_STRATA + 1)), 3)
        i = rng.integers(0, n - 2, size=per)
        j = i + rng.integers(1, span, size=per)
        k = j + rng.integers(1, span, size=per)
        dropped = k >= n
        np.minimum(j, n - 1, out=j)
        np.minimum(k, n - 1, out=k)
        yield i, j, k, dropped
    i = np.arange(n - 2)
    yield i, i + 1, i + 2, np.zeros(n - 2, dtype=bool)


@functools.lru_cache(maxsize=1)
def _triple_plan(n: int, n_triples: int, seed: int) -> tuple:
    """Per stratum, read-only indices ``(i n + k, j n + k)`` into ``_chord_table``.

    A dropped triple reads the table's two sentinels instead, +inf and 0, so
    its slack is +inf whatever the chords. The indices take the smallest
    unsigned type that holds them: uint16 up to N = 255, then uint32.
    """
    index = np.min_scalar_type(n * n + 1)
    plan = []
    for ik, jk, k, dropped in _strata(n, n_triples, seed):
        ik *= n
        ik += k
        jk *= n
        jk += k
        ik[dropped], jk[dropped] = n * n, n * n + 1
        ik, jk = ik.astype(index), jk.astype(index)
        ik.setflags(write=False)
        jk.setflags(write=False)
        plan.append((ik, jk))
    return tuple(plan)


def _chord_table(P: np.ndarray) -> np.ndarray:
    """||P[r] - P[c]|| at r N + c, each bitwise equal to ``_chord_lengths``; then +inf, 0."""
    n, d = P.shape
    flat = np.empty(n * n + 2)
    table = flat[:-2].reshape(n, n)
    if d >= 8:
        # whole rows, as _chord_lengths gathers them, a few table rows at a time
        rows = max(1, 2**16 // (n * d))
        for r in range(0, n, rows):
            table[r:r + rows] = np.linalg.norm(P[r:r + rows, None] - P[None], axis=2)
    else:
        diff = None
        for c, x in enumerate(P.T):
            if c == 0:
                np.subtract.outer(x, x, out=table)
                table *= table
            else:
                diff = np.subtract.outer(x, x, out=diff)
                diff *= diff
                table += diff
        np.sqrt(table, out=table)
    flat[-2:] = np.inf, 0.0
    return flat


def check_self_contracted_metric(curve: Curve, n_triples: int,
                                 seed: int = 0) -> ContractReport:
    """Metric triple inequality on random triples plus all consecutive ones.

    The random sample is stratified over triple spans so that both local and
    global configurations are covered: 8 strata of n_triples // 8 draws,
    each a start index and two gaps below the stratum's span. Draws that run
    past the last sample are dropped (their slack is +inf), and the first
    triple of least slack is the witness (the first NaN slack, if any).
    Violation threshold is tol = 1e-9 * L.

    The draws depend only on (N, n_triples, seed). When n_triples is at most
    TABLE_TRIPLES and the N x N chord table is no larger than the chords the
    triples ask for (N^2 <= 2 n_triples: N <= 447 at the default 100 000),
    the draws of the last key are kept as table indices (0.4 MB at N = 200,
    0.8 MB at most), and each call builds the table (1.6 MB at most) and
    scores a stratum with two gathers from it. Otherwise the strata are drawn
    afresh on every call and each is scored before the next is drawn, so a
    call holds about one stratum and keeps nothing: under 1 MB at the
    default however large N is. Both paths give the same slacks bit for bit.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
    n = curve.n_samples
    if n < 3:
        raise ValueError(f"the metric check needs at least 3 samples, got {n}")
    t, P = curve.params, curve.points
    if n_triples <= TABLE_TRIPLES and n * n <= 2 * n_triples:
        plan = _triple_plan(n, n_triples, seed)
        table = _chord_table(P)
        chunks = [_least_in_table(table, n, ik, jk, lambda s=s: _stratum(n, n_triples, seed, s))
                  for s, (ik, jk) in enumerate(plan)]
    else:
        chunks = [_least_by_chords(P, *stratum) for stratum in _strata(n, n_triples, seed)]
    # argmin over the stratum minima keeps argmin's rule over all triples: the
    # first NaN, else the first least slack
    slack, *triple = chunks[int(np.argmin([c[0] for c in chunks]))]
    tol = 1e-9 * curve.length
    level = (ContractLevel.NOT_SELF_CONTRACTED if slack < -tol
             else ContractLevel.SELF_CONTRACTED)
    worst = tuple(float(t[m]) for m in triple) + (float(slack),)
    return ContractReport(level=level, c0=0.0, worst_pair=None,
                          worst_triple=worst, tol=tol)


def _stratum(n: int, n_triples: int, seed: int, s: int) -> tuple:
    """Stratum s of ``_strata``, drawn again."""
    return next(itertools.islice(_strata(n, n_triples, seed), s, None))


def _least_in_table(table, n, ik, jk, draws):
    """(slack, i, j, k) of a stratum's first least slack, scored from the chord table.

    ``draws()`` gives the stratum's clipped draws, which only a dropped
    triple needs: its table indices are the sentinels.
    """
    slack = table.take(ik)
    slack -= table.take(jk)
    w = int(np.argmin(slack))
    if ik[w] == n * n:
        i, j, k, _ = draws()
        return slack[w], i[w], j[w], k[w]
    i, k = divmod(int(ik[w]), n)
    return slack[w], i, int(jk[w]) // n, k


def _least_by_chords(P, i, j, k, dropped):
    """(slack, i, j, k) of a stratum's first least slack, scored from its own chords."""
    slack = _chord_lengths(P, i, k)
    slack -= _chord_lengths(P, j, k)
    slack[dropped] = np.inf
    w = int(np.argmin(slack))
    return slack[w], i[w], j[w], k[w]


def classify(curve: Curve, n_triples: int = 100_000, seed: int = 0) -> ContractReport:
    """Full hierarchy decision: metric cross-check, pairwise level (STRICT_TOL), c0."""
    metric = check_self_contracted_metric(curve, n_triples, seed=seed)
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
