"""Tests of the benchmark itself: metric names, gate, inputs, tracer."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def run_bench(*args, cwd=ROOT, out_dir=None):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    if out_dir is not None:
        argv += ["--out-dir", str(out_dir)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert bench["command"][1] == "bench/run.py" and bench["paths"] == ["bench"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny", out_dir=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads((tmp_path / ("%s-seed7-trace%d.json" % (workload, trace))).read_text())
    assert record["provenance"]["seed"] == 7 and record["provenance"]["nproc"] >= 1
    result = record["result"]
    assert result["fact_failures"] == []
    if workload == "query-warm":
        # every pass sends each query kind for the closed surface (2, 0, 0),
        # which raises until closed volumes are supported
        per_pass = sum(count for _, count in inputs.QUERY_MIX)
        passes = result["attempted"] // (per_pass * len(inputs.query_signatures("tiny")))
        assert result["known_unsupported"] == per_pass * passes > 0
        assert result["fail_ratio"] == result["known_unsupported"] / result["attempted"]
    else:
        assert result["known_unsupported"] == 0 and result["fail_ratio"] == 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "ladder-cold", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- correctness gate -----------------------------------------------------------


def _canonical(g, m, n):
    from wpcone.polyalg import to_json
    from wpcone.recursion import SurfaceSignature, compute_volume

    return to_json(compute_volume(SurfaceSignature(g, m, n)))


def _perturb(text):
    doc = json.loads(text)
    num, den = doc["terms"][0]["coeff"].split("/")
    doc["terms"][0]["coeff"] = "%d/%s" % (int(num) + 1, den)
    return json.dumps(doc, separators=(",", ":"))


def test_gate_accepts_the_program():
    assert gate.fact_failures(_canonical) == []


@pytest.mark.parametrize("sig", [(1, 2, 0), (3, 1, 0)])
def test_gate_rejects_one_perturbed_coefficient(sig):
    def canonical(*s):
        text = _canonical(*s)
        return _perturb(text) if s == sig else text

    assert len(gate.fact_failures(canonical)) == 1
    digests = gate.load_digests()
    assert gate.digest(_perturb(_canonical(1, 1, 2))) != digests["poly"]["1,1,2"]
    assert gate.digest(_canonical(1, 1, 2)) == digests["poly"]["1,1,2"]


def test_gate_checks_values_exactly():
    from wpcone.conepoints import ConeSurfaceSpec, volume_value
    from wpcone.recursion import SurfaceSignature

    text = _canonical(1, 2, 2)
    got = volume_value(ConeSurfaceSpec(SurfaceSignature(1, 2, 2), (1.0, 3.0), (2.0, 0.5)))
    assert gate.value_matches(text, [2.0, 0.5, 1.0, 3.0], got)
    assert not gate.value_matches(text, [2.0, 0.5, 1.0, 3.0], got * (1 + 1e-9))
    assert not gate.value_matches(_perturb(text), [2.0, 0.5, 1.0, 3.0], got)


# -- inputs -----------------------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.query_stream, inputs.ladder, inputs.verify_suites])
def test_seed_fixes_the_inputs(make):
    assert make(5, "full") == make(5, "full")
    assert make(5, "full") != make(6, "full")


def test_query_mix_does_not_depend_on_the_seed():
    def mix(seed):
        return sorted((q["kind"], q["sig"]) for q in inputs.query_stream(seed, "full"))

    assert mix(1) == mix(2)
    assert len(inputs.query_signatures("full")) == 56
    # a closed surface has no cone slot and no LaTeX digest: JSON instead
    assert {kind for kind, sig in mix(1) if sig == (2, 0, 0)} == {"value", "json"}
    for q in inputs.query_stream(1, "full"):
        assert all(0.1 < x <= 10.0 for x in q["lengths"])
        assert all(0.0 < a <= 3.141592653589793 for a in q["angles"])


# -- tracer -------------------------------------------------------------------------


def test_tracer_lists_absent_functions_and_restores_originals():
    from wpcone import recursion

    original = recursion.boundary_volume
    tracer = spans.Tracer("test")
    tracer.install(["recursion.boundary_volume", "recursion.no_such_function", "nomodule.f"])
    try:
        assert tracer.absent == ["recursion.no_such_function", "nomodule.f"]
        assert recursion.boundary_volume is not original
        recursion.clear_memo()
        recursion.compute_volume(recursion.SurfaceSignature(0, 4, 0))
    finally:
        tracer.uninstall()
    assert recursion.boundary_volume is original
    table = spans.summarize(tracer.spans)
    assert table["recursion.boundary_volume"]["calls"] >= 2


def test_summarize_self_time_and_misses():
    S = [
        # name, start, end, parent, out, request
        ["recursion.boundary_volume", 0.0, 10.0, -1, 5, 0],
        ["recursion.assemble_rhs", 1.0, 9.0, 0, 4, 0],
        ["recursion.boundary_volume", 2.0, 3.0, 1, 3, 0],
        ["kernels.moment_integral", 4.0, 6.0, 1, 1, 0],
    ]
    table = spans.summarize(S)
    bv = table["recursion.boundary_volume"]
    assert bv == {"calls": 2, "s": 10.0, "self_s": 3.0, "out": 8, "miss": 1}
    assert table["recursion.assemble_rhs"]["self_s"] == 5.0
    layer = metrics.per_layer(table, {})
    assert layer["recursion.boundary_volume.hit_ratio"] == 0.5
    assert layer["cli.main.volume.s"] == 0


# -- speed probe --------------------------------------------------------------------


def test_speed_probe_samples_and_exits():
    with speed.Probe() as probe:
        samples = probe.sample(3)
    assert len(samples) == 3 and all(t > 0 for t in samples)
    assert probe.proc.returncode == 0
    assert speed.scale([2 * speed.REFERENCE_S]) == 0.5
