"""wpcone benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload ladder-cold --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  ladder-cold  cold exact compute_volume over a ladder of signatures, the
               memo cleared before each rung, caps lifted
  query-warm   a seeded stream of volume_value / volume_polynomial+to_json /
               to_latex / cusp_limit queries against a warm memo
  verify-cli   the `wpcone verify` suites and cold `wpcone volume` starts,
               each in its own child process, one at a time

Each workload is a closed loop with one client.  With --trace 0 the run
times set-up in several fresh workers (the median is setup_s) and lets one
more run whole passes for --seconds, check every output against the gate in
gate.py and time cold starts of the smallest CLI query; then it prints the
end-to-end metrics.  Times are in seconds at a fixed reference machine
speed, measured next to the work they scale (speed.py).  With --trace 1 one
worker runs traced and the line carries the per-layer metrics; the spans go
to bench/out/.  Every run also writes its full record, with provenance, to
bench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when the run completed (even if the gate failed, which
`correct` reports) and nonzero when it could not run at all.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
import speed  # noqa: E402
from worker import SPEED_BURST, child_env  # noqa: E402

# fresh workers timed from spawn to READY, on each side of the measuring
# worker: at least SETUP_MIN, and more while the side has taken less than
# SETUP_BUDGET_S, up to SETUP_MAX (cheap set-ups get more samples)
SETUP_MIN = {"full": 3, "tiny": 1}
SETUP_MAX = {"full": 12, "tiny": 1}
SETUP_BUDGET_S = 1.0
WORKER_TIMEOUT_S = 150


def worker_argv(args, *extra):
    return [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, *extra,
    ]


def start_worker(argv):
    """Spawn a worker; return (process, seconds from spawn to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError("worker exited during set-up (exit %s)" % proc.wait(WORKER_TIMEOUT_S))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def finish_worker(proc):
    """Wait for the worker; its last line (a JSON result), if it printed one."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError("worker failed with exit code %d" % proc.returncode)
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_probe(args, probe: speed.Probe) -> float:
    """Set-up time of a fresh worker that stops at READY, scaled by speed
    samples taken just before and after it."""
    before = probe.sample(SPEED_BURST)
    proc, ready = start_worker(worker_argv(args, "--setup-only"))
    finish_worker(proc)
    return ready * speed.scale(before + probe.sample(SPEED_BURST))


def setup_probes(args, probe: speed.Probe) -> list:
    times, start = [], time.perf_counter()
    while len(times) < SETUP_MIN[args.size] or (
        len(times) < SETUP_MAX[args.size] and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        times.append(setup_probe(args, probe))
    return times


def provenance(args) -> dict:
    def git(*cmd):
        try:
            return subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    is_repo = os.path.isdir(os.path.join(ROOT, ".git"))
    sha = git("rev-parse", "HEAD") if is_repo else None
    status = git("status", "--porcelain", "--", "src") if is_repo else None
    src_hash = hashlib.sha256()
    package = os.path.join(SRC, "wpcone")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                src_hash.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_dirty": None if status is None else bool(status),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(args):
    """(record for bench/out, metrics for the last line)."""
    if args.trace:
        spans_path = os.path.join(args.out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))
        proc, _ = start_worker(worker_argv(args, "--spans-out", spans_path))
        result = finish_worker(proc)
        values = result["per_layer"]
        units = metrics.PER_LAYER
        result["spans_file"] = spans_path
    else:
        # set-up probes on both sides of the measuring worker, so that their
        # median samples the machine over the whole run
        with speed.Probe() as probe:
            setup = setup_probes(args, probe)
            proc, _ = start_worker(worker_argv(args))
            result = finish_worker(proc)
            setup += setup_probes(args, probe)
        cold = result.pop("cold_start_s")
        items = result["item_ms"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(items) / 1000.0,
            "op_p50_ms": statistics.median(items),
            "op_p99_ms": metrics.percentile(items, 99),
            "peak_rss_mb": result["peak_rss_mb"],
            "cli_cold_start_s": statistics.median(cold),
        }
        units = metrics.END_TO_END
        result.update(setup_s_samples=setup, cold_start_s_samples=cold, op_items=len(items))
    result["fail_ratio"] = (result["failed"] + result["known_unsupported"]) / result["attempted"]
    line = {
        "correct": result["failed"] == 0 and not result["fact_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {"provenance": provenance(args), "result": result, "line": line}, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=inputs.SIZES, default="full",
        help="tiny: a seconds-long smoke run for the benchmark's own tests",
    )
    parser.add_argument("--out-dir", default=OUT_DIR, help="where run records go")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wpcone", "__init__.py")):
        print("error: no wpcone sources under %s" % SRC, file=sys.stderr)
        return 2
    # byte-compile up front so no run pays for compilation during set-up
    compileall.compile_dir(os.path.join(SRC, "wpcone"), quiet=1)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        record, line = measure(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(args.out_dir, name), "w") as handle:
        json.dump(record, handle, indent=1)
    result = record["result"]
    print(
        "%s seed %d: %d operations, %d failed, %d closed-surface refusals (fail_ratio %.6f)%s"
        % (
            args.workload, args.seed, result["attempted"], result["failed"],
            result["known_unsupported"], result["fail_ratio"],
            "" if args.trace else ", latency percentiles over %d items" % result["op_items"],
        )
    )
    for failure in result["failures"] + result["fact_failures"]:
        print("  gate: %s" % failure)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
