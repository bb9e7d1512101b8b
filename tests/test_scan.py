"""The row-block pair engine against small dense N x N references.

The references below build the full pair matrices the way a direct
implementation would (triu indices, an identity mask, argwhere) and exist
only in this test. Hypothesis draws arc chains; planted jets carry exact
ties: duplicate anchors, equal slacks in different row blocks, and sizes
that are not multiples of the 64-row block. Integer-valued jets make every
slack exact in float64, so the engine must reproduce the reference's values
and its first-witness tie rule bit for bit. Every comparison runs with
CONTRACTFLOW_THREADS at 1 and at 3.
"""

import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contractflow as cf
from contractflow import contract, flow
from contractflow.extend import JetData

FINITE = dict(allow_nan=False, allow_infinity=False)

arc_chains = st.tuples(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, **FINITE), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.1, max_value=0.6, **FINITE), min_size=1, max_size=4),
    st.integers(min_value=20, max_value=200),
)


@contextmanager
def threads(k):
    old = os.environ.get("CONTRACTFLOW_THREADS")
    os.environ["CONTRACTFLOW_THREADS"] = str(k)
    try:
        yield
    finally:
        if old is None:
            del os.environ["CONTRACTFLOW_THREADS"]
        else:
            os.environ["CONTRACTFLOW_THREADS"] = old


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


def assert_C_exact(jet):
    min_slack, step1, step2, (wi, wj) = dense_C(jet)
    rep = cf.check_C(JetData(jet.anchors, jet.values, jet.gradients))
    assert (rep.min_slack, rep.step1_min, rep.step2_min) == (min_slack, step1, step2)
    assert rep.witness == (wi, wj, min_slack)


def assert_CW1_exact(jet, tol):
    count, witness = dense_CW1(jet, tol)
    rep = cf.check_CW1(JetData(jet.anchors, jet.values, jet.gradients), tol=tol)
    assert rep.n_equality_pairs == count
    assert rep.witness == witness
    assert rep.passed == (witness is None or witness[2] <= tol)


def integer_jet(rng, n, dim=2, span=3):
    return JetData(anchors=rng.integers(-span, span + 1, size=(n, dim)).astype(float),
                   values=rng.integers(-span, span + 1, size=n).astype(float),
                   gradients=rng.integers(-span, span + 1, size=(n, dim)).astype(float))


# ---------------------------------------------------------------------------
# hypothesis arc chains

@given(arc_chains, st.floats(min_value=0.55, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_holder_matches_dense(params, alpha):
    crv = build_chain(params)
    ref = dense_holder(crv, alpha)
    for k in (1, 3):
        with threads(k):
            assert cf.holder_seminorm(crv, alpha).holder_seminorm == ref


@given(arc_chains, st.floats(min_value=0.3, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_condition_C_matches_dense_on_arc_chains(params, b):
    crv = build_chain(params)
    jet = cf.curve_jet(crv, cf.exponential_plan_with_rate(crv, b))
    ref = dense_slack(jet)
    min_slack, step1, step2, _ = dense_C(jet)
    # the N x N product and a 64-row product may round the cross term <x_i, G_j>
    # differently in the last bit; everything else is exact
    tol = 1e-14 * max(1.0, float(np.abs(jet.anchors).max() * np.abs(jet.gradients).max()))
    for k in (1, 3):
        with threads(k):
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
    for k in (1, 3):
        with threads(k):
            assert_C_exact(jet)
            assert_CW1_exact(jet, tol)


# ---------------------------------------------------------------------------
# planted ties

@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [65, 130, 200])
def test_equal_slacks_across_blocks(k, n):
    # a 64-periodic jet repeats every slack value in every row block, so the
    # minimum and the widest equality gap tie across blocks
    rng = np.random.default_rng(n)
    base = integer_jet(rng, 64)
    reps = -(-n // 64)
    jet = JetData(anchors=np.tile(base.anchors, (reps, 1))[:n],
                  values=np.tile(base.values, reps)[:n],
                  gradients=np.tile(base.gradients, (reps, 1))[:n])
    with threads(k):
        assert_C_exact(jet)
        assert_CW1_exact(jet, 1e-9)
        rep = cf.check_CW1(jet)
    assert rep.n_equality_pairs > 0  # duplicated anchors with equal values


@pytest.mark.parametrize("k", [1, 3])
def test_duplicate_anchors(k):
    rng = np.random.default_rng(7)
    jet = integer_jet(rng, 131)
    anchors = jet.anchors.copy()
    values = jet.values.copy()
    anchors[100] = anchors[3]
    values[100] = values[3]
    dup = JetData(anchors=anchors, values=values, gradients=jet.gradients)
    with threads(k):
        assert_C_exact(dup)
        assert_CW1_exact(dup, 1e-9)


@pytest.mark.parametrize("k", [1, 3])
def test_constant_jet_counts_every_pair(k):
    n = 150
    jet = JetData(anchors=np.zeros((n, 2)), values=np.zeros(n), gradients=np.zeros((n, 2)))
    with threads(k):
        rep = cf.check_CW1(jet)
        c_rep = cf.check_C(jet)
    assert rep.n_equality_pairs == n * (n - 1)
    assert rep.witness == (0, 1, 0.0)
    assert c_rep.witness == (0, 1, 0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_holder_on_planted_ties(k, segment):
    with threads(k):
        sem = cf.holder_seminorm(segment, 1.0).holder_seminorm
        assert sem == dense_holder(segment, 1.0)
        arc = cf.make_circle_arc(1.0, 130)
        assert cf.holder_seminorm(arc, 0.75).holder_seminorm == dense_holder(arc, 0.75)


# ---------------------------------------------------------------------------
# scan counts and memory

def _count_scans(monkeypatch):
    calls = []
    original = contract.pairwise_min

    def counted(block_fn, n_rows):
        calls.append(n_rows)
        return original(block_fn, n_rows)

    monkeypatch.setattr(contract, "pairwise_min", counted)
    return calls


def test_classify_scans_pairs_once(monkeypatch, quarter_circle):
    calls = _count_scans(monkeypatch)
    rep = cf.classify(quarter_circle, 2000)
    assert rep.level == contract.ContractLevel.UNIFORMLY_STRONGLY
    assert len(calls) == 1


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


def test_scans_hold_no_n_by_n_array(monkeypatch):
    # one 3000 x 3000 float64 array is 72 MB; a 64-row block is 1.5 MB
    monkeypatch.setenv("CONTRACTFLOW_THREADS", "1")
    arc = cf.make_circle_arc(1.4, 3000)
    plan = cf.exponential_plan_with_rate(arc, 3.0)
    assert _peak_mb(cf.holder_seminorm, arc, 1.0) < 32.0
    # fresh jets: a jet remembers its scan, which would hide the second one
    assert _peak_mb(cf.check_C, cf.curve_jet(arc, plan)) < 32.0
    assert _peak_mb(cf.check_CW1, cf.curve_jet(arc, plan)) < 32.0
