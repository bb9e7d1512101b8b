"""contractflow: self-contracted curves as gradient flows of convex functions.

Pipeline: verify contractedness of a curve, build a speed profile satisfying
the (M)-inequality, lift the trace jet to an explicit convex function, and
integrate its gradient flow back onto the curve. The converse direction
checks that orbits of convex gradient flows are strongly self-contracted.
"""

from . import contract, curve, extend, flow, numint, repar
from .contract import (
    ContractLevel,
    ContractReport,
    MetricReport,
    check_self_contracted_metric,
    check_strong,
    check_tangents,
    check_taylor_bound,
    classify,
    estimate_c0,
)
from .curve import (
    Curve,
    RegularityEstimate,
    from_samples,
    holder_seminorm,
    log_spiral_critical_lambda,
    make_analytic,
    make_arc_chain,
    make_circle_arc,
    make_log_spiral,
    make_segment,
    third_deriv_bound,
)
from .extend import (
    ConvexExtension,
    JetData,
    build_extension,
    check_C,
    check_CW1,
    curve_jet,
    eval_f,
    eval_grad,
)
from .flow import (
    Trajectory,
    check_flow_self_contracted,
    integrate,
    roundtrip_error,
    sample_flow,
    trace_energy,
)
from .repar import (
    MReport,
    ReparamCurve,
    ReparamPlan,
    endpoint_plan,
    exponential_plan,
    exponential_plan_with_rate,
    reparameterize,
    verify_M,
    zeta_plan,
)

__version__ = "0.1.0"
