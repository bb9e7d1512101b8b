"""Layer tracing from outside the program.

``Tracer`` replaces public functions of the contractflow modules with timing
wrappers and puts the originals back when it exits. That includes the
bindings a module imported by name (``contract.pairwise_min`` and
``repar.pairwise_min``, ``numint.adaptive_simpson`` and
``repar.adaptive_simpson``, ``flow.eval_grad``, ``flow.from_samples``), since
a call through such a binding never passes through the defining module.

Coarse functions record one span each: name, start, end, parent span and op
id, kept in memory until the run writes them out. Hot leaves (gradient
oracles, curve evaluators, scalar quadrature) are called up to thousands of
times per op, so they only add to per-name call counts and times. Both kinds
sit on one frame stack, so every self time is its duration minus the time of
its wrapped callees.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from contractflow import cli, contract, curve, extend, flow, numint, repar

# premise groups: time covered by any member, nested members counted once
GROUPS = {
    "scan_dense": {"scan.pairwise_min", "contract.classify", "curve.holder_seminorm",
                   "repar.verify_M", "extend.check_C", "extend.check_CW1"},
    "flow_integrate": {"flow.integrate"},
    "quadrature": {"numint.adaptive_simpson", "numint.invert_monotone",
                   "repar.reparameterize", "curve.from_samples"},
}


def _n_samples(args):
    return args[0].n_samples


def _n_anchors(args):
    return len(args[0].values)


def _count_pairs(tracer, args):
    block_fn = args[0]

    def counted(i0, i1):
        vals = block_fn(i0, i1)
        with tracer._lock:
            tracer.counts["scan.pairs"] += vals.size
        return vals

    if any(f[0] == "contract.classify" for f in tracer._stack):
        tracer.counts["scan.in_classify"] += 1
    return (counted,) + args[1:]


def _count_oracle(tracer, args):
    if isinstance(args[0], extend.ConvexExtension):
        return args
    return (tracer.wrap(args[0], "flow.grad_oracle", hot=True),) + args[1:]


def _record_steps(tracer, traj):
    steps = len(traj.times) - 1
    tracer.counts["flow.steps"] += steps
    tracer.op_steps += steps


def _record(key, attr):
    def post(tracer, result):
        tracer.values[key].append(float(getattr(result, attr)))
    return post


def targets():
    """(owner, attribute, span name, hot, pre, post, memory) for every wrapper."""
    plan = [(repar, name, "repar.plan") for name in
            ("exponential_plan", "exponential_plan_with_rate", "endpoint_plan", "zeta_plan")]
    rows = [
        (cli, "run_pipeline", "cli.run_pipeline"),
        (cli.PipelineReport, "render", "cli.render"),
        (cli, "build_curve", "curve.build"),
        (cli, "_build_plan", "cli.build_plan"),
        (contract, "classify", "contract.classify"),
        (contract, "check_self_contracted_metric", "contract.metric_check"),
        (contract, "check_strong", "contract.check_strong"),
        (contract, "estimate_c0", "contract.estimate_c0"),
        (contract, "pairwise_min", "scan.pairwise_min", False, _count_pairs),
        (repar, "pairwise_min", "scan.pairwise_min", False, _count_pairs),
        (curve, "holder_seminorm", "curve.holder_seminorm", False, None, None, _n_samples),
        (curve, "third_deriv_bound", "curve.third_deriv_bound"),
        (curve, "from_samples", "curve.from_samples"),
        (flow, "from_samples", "curve.from_samples"),
        (curve.Curve, "point_at", "curve.eval", True),
        (curve.Curve, "tangent_at", "curve.eval", True),
        *plan,
        (repar, "verify_M", "repar.verify_M", False, None, _record("repar.M_margin", "margin")),
        (repar, "reparameterize", "repar.reparameterize"),
        (extend, "curve_jet", "extend.curve_jet"),
        (extend, "check_C", "extend.check_C", False, None, None, _n_anchors),
        (extend, "check_CW1", "extend.check_CW1", False, None, None, _n_anchors),
        (extend, "build_extension", "extend.build_extension"),
        (flow, "eval_grad", "extend.eval_grad", True),
        (flow, "integrate", "flow.integrate", False, _count_oracle, _record_steps),
        (flow, "roundtrip_error", "flow.roundtrip_error", False, None,
         _record("flow.sup_distance", "sup_distance")),
        (flow, "check_flow_self_contracted", "flow.converse"),
        (flow, "trace_energy", "flow.trace_energy"),
        (numint, "adaptive_simpson", "numint.adaptive_simpson", True),
        (repar, "adaptive_simpson", "numint.adaptive_simpson", True),
        (numint, "invert_monotone", "numint.invert_monotone", True),
    ]
    return [row + (False, None, None, None)[len(row) - 3:] for row in rows]


class Tracer:
    """Context manager that wraps the program's layers and collects spans."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent span id, op id)
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(int)
        self.values = defaultdict(list)
        self.group_s = defaultdict(float)
        self.ops_calling = defaultdict(int)  # name -> ops that called it
        self.op_steps = 0
        self._op_calls = set()
        self._op_id = None
        self._stack = []
        self._next_id = 0
        self._saved = []
        self._lock = threading.Lock()
        self._groups_of = defaultdict(list)
        for group, members in GROUPS.items():
            for name in members:
                self._groups_of[name].append((group, members))

    def __enter__(self):
        try:
            for owner, attr, name, hot, pre, post, memory in targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hot, pre, post, memory))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name, hot=False, pre=None, post=None, memory=None):
        if hot:
            return self._wrap_hot(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(tracer, args)
            frame = tracer._enter(name)
            try:
                if memory is None:
                    result = fn(*args, **kwargs)
                else:
                    result = tracer._peak_memory(name, memory(args), fn, args, kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer, result)
            return result

        return wrapper

    def _wrap_hot(self, fn, name):
        """Lean wrapper for leaves called thousands of times: no span record."""
        tracer, stack, clock = self, self._stack, time.perf_counter
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        groups = self._groups_of.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0.0, None, None]
            if stack:
                top = stack[-1]
                frame[4] = top[4] if top[3] is None else top[3]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[2]
                tracer._op_calls.add(name)
                for group, members in groups:
                    if not any(f[0] in members for f in stack):
                        tracer.group_s[group] += dur

        return wrapper

    def _enter(self, name):
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[4] if top[3] is None else top[3]
        sid = self._next_id
        self._next_id += 1
        frame = [name, 0.0, 0.0, sid, parent]  # name, start, child s, span id, parent id
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, sid, parent = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        self._op_calls.add(name)
        for group, members in self._groups_of.get(name, ()):
            if not any(f[0] in members for f in self._stack):
                self.group_s[group] += dur
        self.spans.append((sid, name, start, end, parent, self._op_id))

    def _peak_memory(self, name, n, fn, args, kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            if started:
                tracemalloc.stop()
            self.values[name + ".peak_bytes"].append(peak)
            self.values[name + ".n"].append(n)

    @contextmanager
    def op(self, op_id):
        """Root span of one op; wrapped calls inside it carry ``op_id``."""
        self._op_id = op_id
        self._op_calls = set()
        self.op_steps = 0
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)
            for name in self._op_calls:
                self.ops_calling[name] += 1
            self._op_id = None

    def self_times(self) -> dict:
        return {name: {"calls": c, "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in sorted(self.totals.items())}

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for sid, name, start, end, parent, op in self.spans]


def layer_metrics(tr: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, per pass over the op list.

    Layers that some workloads never enter report calls and a share of op
    time (%), so that no metric in seconds reads a constant zero.
    """
    def calls(name):
        return tr.totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tr.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tr.totals.get(name, (0, 0.0, 0.0))[2]

    def per(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(s):
        return 100.0 * ratio(s, op_s)

    def peak_mb(names):
        return max((v for n in names for v in tr.values[n + ".peak_bytes"]), default=0) / 1e6

    def largest(names):
        return max((v for n in names for v in tr.values[n + ".n"]), default=0)

    def median(key):
        vals = tr.values[key]
        return statistics.median(vals) if vals else 0.0

    op_s = incl("op")
    scan_s = incl("scan.pairwise_min")
    n_holder = largest(["curve.holder_seminorm"])
    n_dense = largest(["extend.check_C", "extend.check_CW1"])
    grad_calls = calls("extend.eval_grad")
    m = {
        "scan.calls": (per(calls("scan.pairwise_min")), "count"),
        "scan.pairs": (per(tr.counts["scan.pairs"]), "count"),
        "scan.s": (per(scan_s), "s"),
        "scan.pairs_per_s": (ratio(tr.counts["scan.pairs"], scan_s), "1/s"),
        "contract.classify_s": (per(incl("contract.classify")), "s"),
        "contract.metric_check_s": (per(incl("contract.metric_check")), "s"),
        "contract.pairwise_s": (per(incl("contract.check_strong")
                                    + incl("contract.estimate_c0")), "s"),
        "contract.scans_per_op": (ratio(tr.counts["scan.in_classify"],
                                        calls("contract.classify")), "count"),
        "curve.build_s": (per(incl("curve.build")), "s"),
        "curve.holder_seminorm_s": (per(incl("curve.holder_seminorm")), "s"),
        "curve.holder_seminorm_peak_mb": (peak_mb(["curve.holder_seminorm"]), "MB"),
        "curve.holder_pairs_computed_mb": (8e-6 * n_holder * (n_holder - 1) / 2, "MB"),
        "curve.third_deriv_bound_calls": (per(calls("curve.third_deriv_bound")), "count"),
        "curve.third_deriv_bound_pct": (pct(incl("curve.third_deriv_bound")), "%"),
        "curve.eval_calls": (per(calls("curve.eval")), "count"),
        "curve.eval_s": (per(incl("curve.eval")), "s"),
        "curve.from_samples_calls": (per(calls("curve.from_samples")), "count"),
        "curve.from_samples_pct": (pct(incl("curve.from_samples")), "%"),
        "repar.plan_s": (per(incl("repar.plan")), "s"),
        "repar.verify_M_s": (per(incl("repar.verify_M")), "s"),
        "repar.reparameterize_s": (per(incl("repar.reparameterize")), "s"),
        "repar.M_margin": (median("repar.M_margin"), "length"),
        "extend.check_C_s": (per(incl("extend.check_C")), "s"),
        "extend.check_C_calls_per_op": (ratio(calls("extend.check_C"),
                                              tr.ops_calling["extend.check_C"]), "count"),
        "extend.check_CW1_s": (per(incl("extend.check_CW1")), "s"),
        "extend.build_extension_self_s": (per(self_s("extend.build_extension")), "s"),
        "extend.dense_peak_mb": (peak_mb(["extend.check_C", "extend.check_CW1"]), "MB"),
        "extend.dense_nxn_computed_mb": (8e-6 * n_dense * n_dense, "MB"),
        "extend.eval_grad_calls": (per(grad_calls), "count"),
        "extend.eval_grad_us": (1e6 * ratio(incl("extend.eval_grad"), grad_calls), "us"),
        "flow.integrate_s": (per(incl("flow.integrate")), "s"),
        "flow.steps": (per(tr.counts["flow.steps"]), "count"),
        "flow.grad_evals": (per(grad_calls + calls("flow.grad_oracle")), "count"),
        "flow.roundtrip_error_s": (per(incl("flow.roundtrip_error")), "s"),
        "flow.converse_calls": (per(calls("flow.converse")), "count"),
        "flow.converse_pct": (pct(incl("flow.converse")), "%"),
        "flow.trace_energy_calls": (per(calls("flow.trace_energy")), "count"),
        "flow.trace_energy_pct": (pct(incl("flow.trace_energy")), "%"),
        "flow.sup_distance": (median("flow.sup_distance"), "length"),
        "numint.simpson_calls": (per(calls("numint.adaptive_simpson")), "count"),
        "numint.simpson_pct": (pct(incl("numint.adaptive_simpson")), "%"),
        "numint.invert_calls": (per(calls("numint.invert_monotone")), "count"),
        "cli.run_pipeline_self_s": (per(self_s("cli.run_pipeline")), "s"),
        "cli.render_s": (per(incl("cli.render")), "s"),
        "share.scan_dense_pct": (pct(tr.group_s["scan_dense"]), "%"),
        "share.flow_integrate_pct": (pct(tr.group_s["flow_integrate"]), "%"),
        "share.quadrature_pct": (pct(tr.group_s["quadrature"]), "%"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m
