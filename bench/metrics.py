"""Metric names and units printed by the benchmark; BENCHMARK.json lists the
same names (a test keeps the two in step)."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

# Every workload reports all of these (the record in bench/out gives the
# sample counts behind each).  Times are seconds at a fixed reference machine
# speed (speed.py), so that a slow spell of a shared machine does not read as
# a regression:
#   setup_s           median over fresh workers of spawn -> first timed
#                     operation: imports, inputs and, on query-warm, filling
#                     the memo, so work moved into set-up shows
#   wall_s            one pass of the workload, each operation (a rung, a
#                     query or a CLI child) at its median over the passes
#   op_p50_ms/p99_ms  percentiles over the operations of a pass of those
#                     medians; nearest rank, so with fewer than 100
#                     operations in a pass p99 is the slowest one
#   peak_rss_mb       peak resident memory of the worker, or of its largest
#                     child on verify-cli
#   cli_cold_start_s  median spawn-to-exit time of the smallest CLI query,
#                     probed between passes
# fail_ratio is not among them because it is 0 on a correct run; every record
# carries it, and the last line carries attempted and failed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_cold_start_s": "s",
}

# From one traced run: set-up plus one traced pass.  `.calls` counts calls,
# `.s` is inclusive time of the outermost calls, `.self_s` excludes traced
# children, `.out` sums the work returned (terms, splittings, geodesics).
# Expected movers: recursion.*, kernels.moment_integral and polyalg.terms_out /
# coeff_bits_max move wall_s on ladder-cold; boundary_volume calls/miss move
# setup_s on query-warm; the polyalg read path and conepoints.* move op_p50_ms,
# op_p99_ms and wall_s on query-warm; integrate_decaying, numeric_volume_value,
# cone_volume_direct and mcshane.* move wall_s on verify-cli; cli.* move
# cli_cold_start_s.  A function that is never called reads 0.
PER_LAYER = {
    "recursion.compute_volume.s": "s",
    "recursion.assemble_rhs.self_s": "s",
    "recursion.assemble_rhs.calls": "count",
    "recursion.enumerate_splittings.s": "s",
    "recursion.enumerate_splittings.out": "count",
    "recursion.integrate_distinguished.s": "s",
    "recursion.boundary_volume.calls": "count",
    "recursion.boundary_volume.miss": "count",
    "recursion.boundary_volume.hit_ratio": "ratio",
    "recursion.cone_volume_direct.calls": "count",
    "recursion.cone_volume_direct.s": "s",
    "recursion.numeric_volume_value.s": "s",
    "kernels.moment_integral.calls": "count",
    "kernels.moment_integral.s": "s",
    "kernels.integrate_decaying.calls": "count",
    "kernels.integrate_decaying.s": "s",
    "polyalg.substitute_imaginary.calls": "count",
    "polyalg.substitute_imaginary.s": "s",
    "polyalg.eval_numeric.calls": "count",
    "polyalg.eval_numeric.s": "s",
    "polyalg.to_json.s": "s",
    "polyalg.to_latex.s": "s",
    "polyalg.substitute_zero.s": "s",
    "polyalg.terms_out": "count",
    "polyalg.coeff_bits_max": "bits",
    "conepoints.volume_value.s": "s",
    "conepoints.volume_polynomial.s": "s",
    "conepoints.cusp_limit.s": "s",
    "conepoints.closed_refused": "count",
    "mcshane.root_triple.s": "s",
    "mcshane.enumerate_geodesics.s": "s",
    "mcshane.enumerate_geodesics.out": "count",
    "mcshane.mcshane_sum.s": "s",
    "mcshane.integrate_volume_identity.s": "s",
    "cli.import_s": "s",
    "cli.main.volume.s": "s",
    "cli.main.verify_mcshane.s": "s",
    "cli.main.verify_kernel.s": "s",
    "cli.main.verify_identity.s": "s",
    "cli.main.verify_recursion.s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

# traced polyalg functions that return polynomials (their work count is terms)
POLY_RESULTS = (
    "substitute_imaginary", "substitute_zero", "antiderivative",
    "divide_by_slot_length", "scale",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(table: Dict[str, Dict[str, float]], extras: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER value from a span summary plus directly measured extras.

    A name `<layer>.<function>.<field>` reads that field of the function's
    summary row; a function never called (or absent) reads 0.
    """
    out = {}
    for name in PER_LAYER:
        if name in extras:
            out[name] = extras[name]
            continue
        key, field = name.rsplit(".", 1)
        out[name] = table.get(key, {}).get(field, 0)
    bv = table.get("recursion.boundary_volume", {})
    calls = bv.get("calls", 0)
    out["recursion.boundary_volume.hit_ratio"] = (calls - bv.get("miss", 0)) / calls if calls else 0.0
    out["polyalg.terms_out"] = sum(
        table.get("polyalg." + name, {}).get("out", 0) for name in POLY_RESULTS
    )
    return out


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }
