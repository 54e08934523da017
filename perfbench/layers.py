"""Per-layer metrics of one traced pass, by name, with their units.

Which end-to-end metric each one should move, and on which workload,
is written down in perfbench/README.md.
"""

from __future__ import annotations

from workloads import SUITES

CALLS_AND_SELF = (
    "scalars.parse",
    "linalg.rref",
    "linalg.matmul",
    "linalg.null_space",
    "linalg.solve",
    "linalg.gram_projection",
    "linalg.matrix_inverse",
    "subspace.init",
    "subspace.meet",
    "subspace.join",
    "subspace.perp",
    "subspace.leq",
    "subspace.contains",
    "subspace.projector",
    "ortho.init",
    "ortho.leq",
    "partial_op.operator_init",
    "partial_op.projection_init",
    "quotient.q_eq",
    "quotient.q_inner",
    "cli.load_instances",
)
SELF_ONLY = (
    "linalg.rref_gauss",
    "partial_op.compose",
    "partial_op.op_neq",
    "partial_op.projection_of",
    "partial_op.subspaces_of",
    "partial_op.check_order",
    "partial_op.commuting_calculus",
    "partial_op.cor7_calculus",
    "generators.commuting_pairs",
    "cli.main",
)
HIT_RATIOS = ("subspace.perp", "subspace.projector")


def metrics(tracer, suite_wall: dict, overhead_frac: float, scale: float = 1.0) -> dict:
    """name -> (value, unit) for every per-layer metric.  Span times are
    multiplied by ``scale``, which converts them to reference seconds."""
    stats = {name: (calls, total * scale, own * scale) for name, (calls, total, own) in tracer.stats().items()}
    out = {}
    for name in ("scalars.coerce.calls", "scalars.gaussian_ops.calls"):
        out[name] = (tracer.counters.get(name, 0), "count")
    for name in CALLS_AND_SELF:
        calls, _, own = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (stats.get(name, (0, 0.0, 0.0))[2], "s")
    out["linalg.rref.cells"] = (tracer.rref_cells, "cells")
    for name, value in tracer.maxima.items():
        out[name] = (value, "bits")
    for name in HIT_RATIOS:
        out[f"{name}.hit_ratio"] = (tracer.hit_ratio(name), "ratio")
    out["generators.self_s"] = (
        sum(row[2] for name, row in stats.items() if name.startswith("generators.")),
        "s",
    )
    for suite in SUITES:
        instances, met = tracer.tally.get(suite, (0, 0))
        out[f"laws.{suite}.wall_s"] = (suite_wall.get(suite, 0.0), "s")
        out[f"laws.{suite}.hypothesis_met_ratio"] = (met / instances if instances else 0.0, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
