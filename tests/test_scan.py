"""The row-block pair engine against small dense N x N references.

The references below build the full pair matrices the way a direct
implementation would (triu indices, an identity mask, argwhere) and exist
only in this test. Hypothesis draws arc chains; planted jets carry exact
ties: duplicate anchors, equal slacks in different row blocks, and sizes
that are not multiples of the 32-row block. Integer-valued jets make every
slack exact in float64, so the engine must reproduce the reference's values
and its first-witness tie rule bit for bit. Every comparison runs with
scans of any size in blocks of SMALL_BLOCK = 64 rows and of BLOCK = 32
rows. The tests parametrized by k run their checks on k user threads at
once, each of which must get the reference results. At N = 4999 the
references go one row at a time instead, so that no test holds an N x N
array.
"""

import math
import sys
import time
import tracemalloc
from contextlib import contextmanager
from threading import Thread, current_thread, get_ident

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import contractflow as cf
from contractflow import _scan, contract, curve, extend, flow, repar
from contractflow.extend import JetData

FINITE = dict(allow_nan=False, allow_infinity=False)

arc_chains = st.tuples(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, **FINITE), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.1, max_value=0.6, **FINITE), min_size=1, max_size=4),
    st.integers(min_value=20, max_value=200),
)


ROWS = (_scan.SMALL_BLOCK, _scan.BLOCK)


@contextmanager
def block_rows(rows):
    """Scans of any size in blocks of ``rows`` rows: BLOCK or SMALL_BLOCK."""
    floor = _scan.LARGE_PAIRS
    _scan.LARGE_PAIRS = 0 if rows == _scan.BLOCK else math.inf
    try:
        yield
    finally:
        _scan.LARGE_PAIRS = floor


def concurrently(k, fn):
    """``fn()`` on k user threads started together: their results, or the first failure."""
    results, failures = [None] * k, []

    def run(r):
        try:
            results[r] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    users = [Thread(target=run, args=(r,)) for r in range(k)]
    for user in users:
        user.start()
    for user in users:
        user.join(timeout=120)
        assert not user.is_alive()
    if failures:
        raise failures[0]
    return results


def build_chain(params):
    ks, ls, n = params
    m = min(len(ks), len(ls))
    return cf.make_arc_chain(ks[:m], ls[:m], n)


# ---------------------------------------------------------------------------
# dense references

def dense_holder(curve, alpha, safety_factor=1.25):
    t, T = curve.params, curve.tangents
    iu, ju = np.triu_indices(len(t), k=1)
    ratios = np.linalg.norm(T[ju] - T[iu], axis=1) / (t[ju] - t[iu]) ** alpha
    return safety_factor * float(ratios.max())


def dense_slack(jet):
    f, x, g = jet.values, jet.anchors, jet.gradients
    return f[:, None] - f[None, :] - (x @ g.T - np.einsum("id,id->i", x, g)[None, :])


def dense_C(jet):
    slack = dense_slack(jet)
    n = len(slack)
    iu, ju = np.triu_indices(n, k=1)
    flat = np.where(~np.eye(n, dtype=bool), slack, np.inf)
    wi, wj = divmod(int(np.argmin(flat)), n)
    step1, step2 = float(slack[iu, ju].min()), float(slack[ju, iu].min())
    return float(flat[wi, wj]), step1, step2, (wi, wj)


def dense_CW1(jet, tol):
    slack = dense_slack(jet)
    scale = max(float(np.abs(jet.values).max()), 1e-300)
    idx = np.argwhere((np.abs(slack) <= tol * scale) & ~np.eye(len(slack), dtype=bool))
    if len(idx) == 0:
        return 0, None
    gaps = np.linalg.norm(jet.gradients[idx[:, 0]] - jet.gradients[idx[:, 1]], axis=1)
    w = int(np.argmax(gaps))
    return len(idx), (int(idx[w, 0]), int(idx[w, 1]), float(gaps[w]))


def dense_taylor(curve, constant, power):
    t, P, T = curve.params, curve.points, curve.tangents
    n = len(t)
    gaps = t[None, :] - t[:, None]
    above = np.triu(np.ones((n, n), dtype=bool), k=1)
    ip = T @ P.T - np.einsum("id,id->i", T, P)[:, None]
    g = np.where(above, gaps, 1.0)
    slack = np.where(above, ip - (g - constant * g**power), np.inf)
    i, j = divmod(int(np.argmin(slack)), n)
    return float(slack[i, j]), slack


def assert_C_exact(jet):
    min_slack, step1, step2, (wi, wj) = dense_C(jet)
    rep = cf.check_C(JetData(jet.anchors, jet.values, jet.gradients))
    assert (rep.min_slack, rep.step1_min, rep.step2_min) == (min_slack, step1, step2)
    assert rep.witness == (wi, wj, min_slack)


def assert_CW1_exact(jet, tol):
    count, witness = dense_CW1(jet, tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extend, "CW1_TOL", tol)
        # a fresh jet: a jet remembers its scan
        rep = cf.check_CW1(JetData(jet.anchors, jet.values, jet.gradients))
    assert rep.n_equality_pairs == count
    assert rep.witness == witness
    assert rep.passed == (witness is None or witness[2] <= tol)


def integer_jet(rng, n, dim=2, span=3):
    return JetData(anchors=rng.integers(-span, span + 1, size=(n, dim)).astype(float),
                   values=rng.integers(-span, span + 1, size=n).astype(float),
                   gradients=rng.integers(-span, span + 1, size=(n, dim)).astype(float))


# ---------------------------------------------------------------------------
# hypothesis arc chains

@given(arc_chains, st.floats(min_value=0.55, max_value=1.0, exclude_max=True))
@settings(max_examples=25, deadline=None)
def test_holder_matches_dense(params, alpha):
    crv = build_chain(params)
    ref = dense_holder(crv, alpha)
    for rows in ROWS:
        with block_rows(rows):
            assert cf.holder_seminorm(crv, alpha).holder_seminorm == ref


@given(arc_chains)
@example(([0.0, 6.551524456746205e-13], [0.22682742618728496, 0.22682742618728496], 32))
@settings(max_examples=25, deadline=None)
def test_holder_at_alpha_one_is_dense_within_rounding(params):
    # alpha = 1 reads the adjacent pairs only, each as the dense reference
    # computes it, so it can never exceed the dense maximum. On a tangent that
    # turns almost linearly (the example: curvature 6.6e-13 after a straight
    # piece) the quotients of all pairs agree to a few ulps, and a longer pair
    # can round one ulp above every adjacent one.
    crv = build_chain(params)
    sem = cf.holder_seminorm(crv, 1.0).holder_seminorm
    ref = dense_holder(crv, 1.0)
    assert sem <= ref <= sem * (1.0 + 1e-14) + 1e-150


@given(arc_chains, st.floats(min_value=0.3, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_condition_C_matches_dense_on_arc_chains(params, b):
    crv = build_chain(params)
    jet = cf.curve_jet(crv, cf.exponential_plan_with_rate(crv, b))
    ref = dense_slack(jet)
    min_slack, step1, step2, _ = dense_C(jet)
    # the N x N product and a block product may round the cross term <x_i, G_j>
    # differently in the last bit; everything else is exact
    tol = 1e-14 * max(1.0, float(np.abs(jet.anchors).max() * np.abs(jet.gradients).max()))
    for rows in ROWS:
        with block_rows(rows):
            rep = cf.check_C(JetData(jet.anchors, jet.values, jet.gradients))
        assert rep.min_slack == pytest.approx(min_slack, abs=tol)
        assert rep.step1_min == pytest.approx(step1, abs=tol)
        assert rep.step2_min == pytest.approx(step2, abs=tol)
        wi, wj, value = rep.witness
        assert wi != wj and value == rep.min_slack
        assert ref[wi, wj] == pytest.approx(min_slack, abs=tol)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=200), st.sampled_from([1e-9, 0.2, 0.5]))
@settings(max_examples=40, deadline=None)
def test_integer_jets_match_dense_exactly(seed, n, tol):
    jet = integer_jet(np.random.default_rng(seed), n)
    for rows in ROWS:
        with block_rows(rows):
            assert_C_exact(jet)
            assert_CW1_exact(jet, tol)


@given(arc_chains, st.floats(min_value=0.55, max_value=1.0), st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_taylor_bounds_match_dense(params, alpha, third):
    crv = build_chain(params)
    bounds = [(cf.holder_seminorm(crv, alpha).c1, 2.0 * alpha + 1.0), (third / 6.0, 3.0)]
    for rows in ROWS:
        with block_rows(rows):
            scans = contract._taylor_scan(crv, bounds)  # the slacks, whatever their sign
        for (constant, power), (value, witness) in zip(bounds, scans, strict=True):
            ref, slack = dense_taylor(crv, constant, power)
            t0, s0, lhs, rhs = witness
            i, j = np.searchsorted(crv.params, [t0, s0])
            # the N x N product may round <T_i, P_j> differently in the last bit
            assert value == pytest.approx(ref, abs=1e-14)
            assert slack[i, j] == pytest.approx(value, abs=1e-14)
            assert lhs - rhs == pytest.approx(value, abs=1e-14)


def row_holder(curve, alpha, safety_factor=1.25):
    # one row at a time: O(N) memory at any N
    t, T = curve.params, curve.tangents
    best = max(float((np.linalg.norm(T[i + 1:] - T[i], axis=1)
                      / (t[i + 1:] - t[i]) ** alpha).max()) for i in range(len(t) - 1))
    return safety_factor * best


def row_M(curve, plan, i):
    # the (M) margins of the pairs (i, i+1:jmax), one row at a time
    t, P, T = curve.params, curve.points, curve.tangents
    jmax = len(t) if plan.kind == "exponential" else len(t) - 1
    return (P[i + 1:jmax] - P[i]) @ T[i] - plan.lhs_M(t[i], t[i + 1:jmax])


@pytest.mark.parametrize("k", [1, 3])
def test_large_scans_match_row_references(monkeypatch, k):
    # N = 4999: 157 blocks of 32 rows, the last of 7 rows, or 79 of 64; the
    # references hold O(N) memory, never an N x N array
    arc = cf.make_circle_arc(1.4, 4999)
    plans = [cf.exponential_plan_with_rate(arc, 3.0),
             cf.endpoint_plan(arc, cf.estimate_c0(arc), 1.0 / 6.0)]
    refs = [min(float(row_M(arc, plan, r).min())
                for r in range(len(arc.params) - (1 if plan.kind == "exponential" else 2)))
            for plan in plans]
    holder = row_holder(arc, 0.75)
    grids = {}  # the (margin, i, j) of each user thread's (M) scans
    original = repar.pairwise_min

    def recorded(block_fn, n_rows, **kw):
        grids.setdefault(current_thread(), []).append(original(block_fn, n_rows, **kw))
        return grids[current_thread()][-1]

    monkeypatch.setattr(repar, "pairwise_min", recorded)
    for rows in ROWS:
        grids.clear()
        with block_rows(rows):
            reports = concurrently(k, lambda: (cf.holder_seminorm(arc, 0.75).holder_seminorm,
                                               [cf.verify_M(arc, plan) for plan in plans]))
        assert reports == [reports[0]] * k and reports[0][0] == holder
        assert len(grids) == k
        for grid in grids.values():
            for plan, ref, (margin, i, j) in zip(plans, refs, grid, strict=True):
                # a row product may round <T_i, P_j> differently in the last bit
                assert margin == pytest.approx(ref, abs=1e-14)
                assert row_M(arc, plan, i)[j - i - 1] == pytest.approx(margin, abs=1e-14)


# ---------------------------------------------------------------------------
# planted ties

@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("n", [65, 130, 200])
def test_equal_slacks_across_blocks(k, n):
    # a block-periodic jet repeats every slack value in every row block, so
    # the minimum and the widest equality gap tie across blocks; k = None
    # keeps the default, blocks of SMALL_BLOCK = 2 BLOCK rows on the calling
    # thread, and k = 1 and 3 run blocks of BLOCK rows on k user threads
    rng = np.random.default_rng(n)
    base = integer_jet(rng, _scan.BLOCK)
    reps = -(-n // _scan.BLOCK)
    jet = JetData(anchors=np.tile(base.anchors, (reps, 1))[:n],
                  values=np.tile(base.values, reps)[:n],
                  gradients=np.tile(base.gradients, (reps, 1))[:n])

    def check():
        assert_C_exact(jet)
        assert_CW1_exact(jet, 1e-9)
        return cf.check_CW1(jet)

    if k is None:
        reps = [check()]
    else:
        with block_rows(_scan.BLOCK):
            reps = concurrently(k, check)
    assert all(rep.n_equality_pairs > 0 for rep in reps)  # duplicated anchors with equal values


# ---------------------------------------------------------------------------
# the serial engine

def all_checks(arc):
    plan = cf.exponential_plan_with_rate(arc, 3.0)
    endpoint = cf.endpoint_plan(arc, cf.estimate_c0(arc), 1.0 / 6.0)
    c1 = cf.holder_seminorm(arc, 0.75).c1
    return (cf.holder_seminorm(arc, 0.75), cf.check_strong(arc),
            cf.check_self_contracted_metric(arc),
            cf.verify_M(arc, plan), cf.verify_M(arc, endpoint),
            contract._taylor_scan(arc, [(c1, 2.5), (1.0 / 6.0, 3.0)]),
            cf.check_C(cf.curve_jet(arc, plan)), cf.check_CW1(cf.curve_jet(arc, plan)))


def test_threads_never_share_scratch(monkeypatch):
    # user threads running checks at once, switching every microsecond: each
    # carves from a slab of its own, and a slab shared by two of them would
    # corrupt a block and change a result
    monkeypatch.setattr(extend, "CW1_TOL", 1e-3)  # (CW1) counts equality pairs
    arc = cf.make_circle_arc(1.4, 600)
    interval = sys.getswitchinterval()
    for rows in ROWS:
        with block_rows(rows):
            serial = all_checks(arc)
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(2):
                    assert concurrently(4, lambda: all_checks(arc)) == [serial] * 4
            finally:
                sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_rows", [1, _scan.BLOCK, 2 * _scan.BLOCK + 1, 1000])
def test_at_most_one_worker_per_block(n_rows):
    # the calling thread runs every block, in order
    with block_rows(_scan.BLOCK):
        spans = _scan.map_blocks(lambda i0, i1: (i0, i1, get_ident()), n_rows)
    assert spans == [(i0, min(i0 + _scan.BLOCK, n_rows), get_ident())
                     for i0 in range(0, n_rows, _scan.BLOCK)]


def test_small_scans_stay_serial(monkeypatch):
    # small scans keep blocks of SMALL_BLOCK rows; 2048 rows make 2^21 pairs
    # j > i, the size from which scans run in blocks of BLOCK rows
    sizes = set()  # the heights of all but the last block of every scan
    original = _scan.map_blocks

    def recorded(fn, n_rows, **kw):
        def block(i0, i1):
            if i1 < n_rows:
                sizes.add(i1 - i0)
            return fn(i0, i1)
        return original(block, n_rows, **kw)

    monkeypatch.setattr(_scan, "map_blocks", recorded)
    cf.classify(cf.make_circle_arc(1.4, 2047))
    assert sizes == {_scan.SMALL_BLOCK}
    sizes.clear()
    cf.check_strong(cf.make_circle_arc(1.4, 2048))
    assert sizes == {_scan.BLOCK}


def test_a_failing_block_fails_the_scan():
    def block(i0, i1):
        if i0 == 320:  # a block start at both block sizes
            raise ValueError("row 320")
        return i0

    for rows in ROWS:
        with block_rows(rows), pytest.raises(ValueError, match="row 320"):
            _scan.map_blocks(block, 1000)
        # the scan dropped its slab: scratch outside a scan is a fresh array
        assert _scan.scratch((4,)).base is None


def test_kernels_carve_from_their_slab_after_the_first_block(monkeypatch):
    # the first block of a scan gets fresh arrays and sizes the slab; from
    # the second block on, every scratch array of every kernel is a view of
    # that slab, so none is allocated per block
    blocks = []  # the index of the running block of each scan, in scan order
    carved = set()  # the scans that carved from their slab
    original_map, original_scratch = _scan.map_blocks, _scan.scratch

    def counted(fn, n_rows):
        scan = len(blocks)
        blocks.append(-1)

        def block(i0, i1):
            blocks[scan] += 1
            return fn(i0, i1)
        return original_map(block, n_rows)

    def checked(shape, dtype=float):
        out = original_scratch(shape, dtype)
        scan = len(blocks) - 1
        # scratch after a scan, for the metric check's witness column, is a fresh array
        if blocks[scan] >= 1 and hasattr(_scan._local, "slab"):
            assert np.shares_memory(out, _scan._local.slab), (
                f"scan {scan}, block {blocks[scan] + 1}: a scratch array of shape {shape} "
                "is not in the slab")
            carved.add(scan)
        return out

    for module in (_scan, contract, curve, extend):
        monkeypatch.setattr(module, "map_blocks", counted)
    for module in (_scan, contract, repar, extend):
        monkeypatch.setattr(module, "scratch", checked)
    monkeypatch.setattr(extend, "CW1_TOL", 1e-3)  # (CW1) counts equality pairs
    arc = cf.make_circle_arc(1.4, 300)
    for rows in ROWS:
        blocks.clear()
        carved.clear()
        with block_rows(rows):
            all_checks(arc)
            repar._check_zeta_hypothesis(arc, lambda t: np.full_like(t, 10.0))
        # check_strong (twice, once for estimate_c0), the Hoelder scan (twice),
        # the metric check, verify_M (two plans), the Taylor scan, (C), (CW1)
        # and the zeta hypothesis: 11 scans of 300 rows, 5 or more blocks each
        assert len(blocks) == 11 and min(blocks) >= 4
        assert carved == set(range(len(blocks)))


@pytest.mark.parametrize("rows", ROWS)
def test_slab_grows_with_a_later_block(rows):
    # blocks 1 and 2 carve two arrays and block 3 a third one, which the slab
    # has no room for; block 4 on carve all three from a larger slab, which
    # is allocated after the smaller one is freed. Each array is filled
    # before the next is carved, so arrays that overlapped would change the
    # sums against the fresh arrays of a slab-free run
    n_rows = 6 * rows

    def compute(i0, i1):
        shape = (i1 - i0, 2000)
        a = _scan.scratch(shape)
        a[:] = np.arange(i0, i1)[:, None]
        arrays = [a, np.multiply(a, 2.0, out=_scan.scratch(shape))]
        if i0 >= 2 * rows:
            arrays.append(np.greater(arrays[1], i0 + 1, out=_scan.scratch(shape, bool)))
        return [float(x.sum()) for x in arrays], arrays

    seen = []  # (slab size, which arrays are views of the slab) per block

    def block(i0, i1):
        sums, arrays = compute(i0, i1)
        seen.append((_scan._local.slab.size,
                     [np.shares_memory(x, _scan._local.slab) for x in arrays]))
        return sums

    tracemalloc.start()
    try:
        with block_rows(rows):
            sums = _scan.map_blocks(block, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums == [compute(i0, i0 + rows)[0] for i0 in range(0, n_rows, rows)]
    sizes, views = zip(*seen)
    assert sizes[0] == 0 and views[0] == [False, False]
    assert sizes[1] == sizes[2] > 0 and views[1] == [True, True] and views[2] == [True, True, False]
    assert min(sizes[3:]) == max(sizes[3:]) > sizes[2]
    assert all(view == [True] * 3 for view in views[3:])
    assert peak < 1.25 * sizes[-1]  # the two slabs never coexist


def test_block_products_stay_on_the_calling_thread():
    # one 32 x 2 x 50000 product is well above the size at which a threaded
    # BLAS splits it, and its helper threads would spend about one
    # CPU-second per wall-second each, spinning or working
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(0)
    rows, cols = rng.random((_scan.BLOCK, 2)), rng.random((50_000, 2))
    out = np.empty((len(rows), len(cols)))

    def cpu():
        use = resource.getrusage(resource.RUSAGE_SELF)
        return use.ru_utime + use.ru_stime

    cpu0, wall0 = cpu(), time.perf_counter()
    while time.perf_counter() - wall0 < 0.3:
        _scan.block_product(rows, cols, out)
    assert (cpu() - cpu0) / (time.perf_counter() - wall0) < 1.4
    np.testing.assert_allclose(out, rows @ cols.T, rtol=1e-15)


@pytest.mark.parametrize("k", [1, 3])
def test_duplicate_anchors(k):
    rng = np.random.default_rng(7)
    jet = integer_jet(rng, 131)
    anchors = jet.anchors.copy()
    values = jet.values.copy()
    anchors[100] = anchors[3]
    values[100] = values[3]
    dup = JetData(anchors=anchors, values=values, gradients=jet.gradients)
    for rows in ROWS:
        with block_rows(rows):
            concurrently(k, lambda: (assert_C_exact(dup), assert_CW1_exact(dup, 1e-9)))


@pytest.mark.parametrize("k", [1, 3])
def test_constant_jet_counts_every_pair(k):
    n = 150

    def check():
        # a fresh jet: a jet remembers its scan
        jet = JetData(anchors=np.zeros((n, 2)), values=np.zeros(n), gradients=np.zeros((n, 2)))
        return cf.check_CW1(jet), cf.check_C(jet)

    for rows in ROWS:
        with block_rows(rows):
            for rep, c_rep in concurrently(k, check):
                assert rep.n_equality_pairs == n * (n - 1)
                assert rep.witness == (0, 1, 0.0)
                assert c_rep.witness == (0, 1, 0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_holder_on_planted_ties(k, segment):
    arc = cf.make_circle_arc(1.0, 130)
    refs = (dense_holder(segment, 1.0), dense_holder(arc, 0.75))
    for rows in ROWS:
        with block_rows(rows):
            sems = concurrently(k, lambda: (cf.holder_seminorm(segment, 1.0).holder_seminorm,
                                            cf.holder_seminorm(arc, 0.75).holder_seminorm))
        assert sems == [refs] * k


# ---------------------------------------------------------------------------
# scan counts and memory

def _count_scans(monkeypatch):
    calls = []
    original = contract.pairwise_min

    def counted(block_fn, n_rows, **kw):
        calls.append(n_rows)
        return original(block_fn, n_rows, **kw)

    monkeypatch.setattr(contract, "pairwise_min", counted)
    return calls


def test_classify_scans_pairs_once(monkeypatch, quarter_circle):
    calls = _count_scans(monkeypatch)
    rep = cf.classify(quarter_circle)
    assert rep.level == contract.ContractLevel.UNIFORMLY_STRONGLY
    assert len(calls) == 1


def test_taylor_bound_scans_pairs_once(monkeypatch, quarter_circle):
    reg = cf.holder_seminorm(quarter_circle, 1.0)
    reg = reg.with_third_deriv(cf.third_deriv_bound(quarter_circle).bound)
    calls = _count_scans(monkeypatch)
    rep = cf.check_taylor_bound(quarter_circle, reg)
    assert rep.cubic_slack is not None
    assert len(calls) == 1


def _count_pairs(monkeypatch):
    """Sizes of every block that contract's and repar's pair scans evaluate."""
    sizes = []
    for module in (contract, repar):
        def counted(block_fn, n_rows, original=module.pairwise_min, **kw):
            def sized(i0, i1):
                vals = block_fn(i0, i1)
                sizes.append(vals.size)
                return vals
            return original(sized, n_rows, **kw)

        monkeypatch.setattr(module, "pairwise_min", counted)
    return sizes


@pytest.mark.parametrize("n", [131, 1000])
def test_scans_visit_the_upper_triangle_only(monkeypatch, n):
    # a full row block would visit n^2 pairs; the pairs j > i are n (n - 1) / 2
    arc = cf.make_circle_arc(1.4, n)
    c0 = cf.estimate_c0(arc)
    plans = [cf.exponential_plan_with_rate(arc, 3.0), cf.endpoint_plan(arc, c0, 1.0 / 6.0)]
    sizes = _count_pairs(monkeypatch)
    checks = [lambda: cf.check_strong(arc)] + [lambda p=p: cf.verify_M(arc, p) for p in plans]
    for check in checks:
        sizes.clear()
        check()
        assert n * (n - 1) // 2 - n <= sum(sizes) <= n * (n + 1) // 2 + 64 * n


def test_converse_check_scans_pairs_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    rep = flow.check_flow_self_contracted(lambda x: np.array([2.0 * x[0], 8.0 * x[1]]),
                                          [1.0, 0.7], 3.0)
    assert rep.level == contract.ContractLevel.UNIFORMLY_STRONGLY
    assert len(calls) == 1


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_scans_hold_no_n_by_n_array():
    # one 3000 x 3000 float64 array is 72 MB; a 32-row block is 0.77 MB
    arc = cf.make_circle_arc(1.4, 3000)
    plan = cf.exponential_plan_with_rate(arc, 3.0)
    assert _peak_mb(cf.holder_seminorm, arc, 1.0) < 32.0
    # fresh jets: a jet remembers its scan, which would hide the second one
    assert _peak_mb(cf.check_C, cf.curve_jet(arc, plan)) < 32.0
    assert _peak_mb(cf.check_CW1, cf.curve_jet(arc, plan)) < 32.0
