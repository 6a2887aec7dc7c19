"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --seeds 1-10 --out bench/results/BENCH_<date>.json

For every workload and seed it runs run.py untraced, then one traced run per
workload on the first seed.  For each end-to-end metric it reports the ten
values, their median and quartiles, and the quartile distance as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json.  The per-run records stay in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    record = os.path.join(HERE, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(record) as handle:
        return json.load(handle)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        records = [run(workload, s, bench["run_seconds"], 0) for s in summary["seeds"]]
        entry = {
            "provenance": records[0]["provenance"],
            "correct": all(r["line"]["correct"] for r in records),
            "attempted": [r["result"]["attempted"] for r in records],
            "failed": [r["result"]["failed"] for r in records],
            "fail_ratio": [r["result"]["fail_ratio"] for r in records],
            "op_items": records[0]["result"]["op_items"],
            "end_to_end": {},
        }
        for name in metrics.END_TO_END:
            values = [r["line"]["metrics"][name]["value"] for r in records]
            stats = metrics.spread(values)
            entry["end_to_end"][name] = {"values": values, **stats, "bound": bounds[name]}
            print(
                "%-12s %-17s median %12.6g  spread %6.3f  (bound %.2f)"
                % (workload, name, stats["median"], stats["spread"], bounds[name]),
                flush=True,
            )
        traced = run(workload, summary["seeds"][0], bench["run_seconds"], 1)
        entry["per_layer"] = {
            name: traced["line"]["metrics"][name]["value"] for name in metrics.PER_LAYER
        }
        entry["absent"] = traced["result"]["absent"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
