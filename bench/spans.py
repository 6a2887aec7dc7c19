"""In-memory call spans around the public functions of each wpcone layer.

A `Tracer` replaces each named function at every module binding of it
(the defining module and every `from ... import` copy inside `wpcone`), so
call sites that imported the name directly are seen as well.  Each call
records one span: name, start, end, parent span, a count of the work the
call returned (polynomial terms, list length, geodesics, characters) and the
request (workload operation) it served; every span of a run shares the
tracer's run id.  Nothing is written until the caller dumps the spans at the
end of a run.

Functions that no longer exist at the measured commit are listed as absent
instead of raising, so the same tracer can measure a refactored parent and
child.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer.function names traced; the layer is the module under wpcone
TRACED = (
    "recursion.compute_volume",
    "recursion.boundary_volume",
    "recursion.assemble_rhs",
    "recursion.enumerate_splittings",
    "recursion.integrate_distinguished",
    "recursion.cone_volume_direct",
    "recursion.numeric_volume_value",
    "polyalg.substitute_imaginary",
    "polyalg.substitute_zero",
    "polyalg.eval_numeric",
    "polyalg.to_json",
    "polyalg.to_latex",
    "polyalg.antiderivative",
    "polyalg.divide_by_slot_length",
    "polyalg.scale",
    "kernels.moment_integral",
    "kernels.integrate_decaying",
    "conepoints.volume_value",
    "conepoints.volume_polynomial",
    "conepoints.cusp_limit",
    "mcshane.root_triple",
    "mcshane.enumerate_geodesics",
    "mcshane.mcshane_sum",
    "mcshane.integrate_volume_identity",
    "cli.main",
)

NAME, START, END, PARENT, OUT, REQUEST = range(6)


def work_count(result) -> Optional[int]:
    """How much a call produced, read off its result without copying it."""
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    count = getattr(result, "geodesic_count", None)
    if isinstance(count, int):
        return count
    if isinstance(result, (list, tuple, str)):
        return len(result)
    return None


def _cli_label(argv) -> str:
    """cli.main.<subcommand>, with verify suites named verify_<suite>."""
    words = list(argv or sys.argv[1:])
    if words[:1] == ["verify"] and len(words) > 1:
        return "cli.main.verify_" + words[1]
    return "cli.main." + (words[0] if words else "none")


class Tracer:
    """Patches the traced functions in place; `uninstall` restores them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.request = 0  # set by the workload before each operation
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def install(self, names=TRACED) -> None:
        self.absent = []
        for qualified in names:
            layer, func = qualified.split(".")
            try:
                module = importlib.import_module("wpcone." + layer)
            except ImportError:
                self.absent.append(qualified)
                continue
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("wpcone"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        label = _cli_label if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                label(args[0] if args else kwargs.get("argv")) if label else name,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                None,
                self.request,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[OUT] = work_count(result)
            return result

        return traced

    def dump(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "absent": self.absent,
            "fields": ["name", "start", "end", "parent", "out", "request"],
            "spans": self.spans,
        }


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, work out.

    Inclusive time counts only the outermost span of a name, so recursive
    calls are not counted twice.  Self time is a span's duration minus the
    durations of its direct children (one thread, so children never
    overlap).  `miss` counts spans with a direct `recursion.assemble_rhs`
    child: a memoized call that had to compute.
    """
    child_time = [0.0] * len(spans)
    has_assembly = [False] * len(spans)
    ancestry: List[frozenset] = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            ancestry.append(frozenset())
            continue
        child_time[parent] += span[END] - span[START]
        if span[NAME] == "recursion.assemble_rhs":
            has_assembly[parent] = True
        above, parent_name = ancestry[parent], spans[parent][NAME]
        ancestry.append(above if parent_name in above else above | {parent_name})
    table: Dict[str, Dict[str, float]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        row = table.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "out": 0, "miss": 0}
        )
        duration = span[END] - span[START]
        row["calls"] += 1
        if name not in ancestry[i]:
            row["s"] += duration
        row["self_s"] += duration - child_time[i]
        row["out"] += span[OUT] or 0
        row["miss"] += has_assembly[i]
    return table
