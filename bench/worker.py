"""One benchmark worker: set-up, timed passes, correctness gate.

Started by run.py as a fresh process.  It prints READY on stdout just before
its first timed operation (run.py times set-up from spawn to that line),
then runs whole passes of the workload until the timed passes add up to
--seconds, checks every pass's outputs after it ends (outside the timing),
checks the published facts once at the end (apart from the operation
count), and prints one JSON line.  Every time it reports is scaled to the
reference machine speed with speed samples taken between operations
(speed.py); the raw pass times stay in the line beside them.

With --trace 1 the set-up runs traced, the timed passes untraced, and one
more pass traced at the end; the verify-cli suites then run in this process
through wpcone.cli.main.  The line carries the per-layer metrics (set-up
plus the traced pass) and the traced pass's time over the untraced median,
instead of the end-to-end figures.  With --setup-only it exits right after READY.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import gate  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

clock = time.perf_counter
SUITE_TIMEOUT_S = 120
# speed samples (speed.py) during a pass: one per SPEED_EVERY_S of measured
# time, at most SPEED_BURST after one operation, and SPEED_BURST at each end;
# an operation is scaled by the SPEED_BURST samples on either side of it
# (steadier, over runs, than scaling by all samples of a pass or of a window
# of one or two seconds)
SPEED_EVERY_S = 0.02
SPEED_BURST = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv):
    """`python -m wpcone.cli argv` in a child process: (exit code, stdout).

    Reading the output to its end returns as soon as the child exits; a
    bare wait with a timeout would poll in steps of up to 50 ms.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "wpcone.cli", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=SUITE_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cold_starts(count: int, probe: speed.Probe):
    """Spawn-to-exit seconds of the smallest CLI query, each one checked and
    scaled by speed samples taken just before and after it."""
    times = []
    for _ in range(count):
        before = probe.sample(SPEED_BURST)
        start = clock()
        code, text = run_cli(inputs.SMALLEST_QUERY)
        elapsed = clock() - start
        times.append(elapsed * speed.scale(before + probe.sample(SPEED_BURST)))
        if code != 0 or gate.parse_canonical(text)[1] != gate.published()[(1, 0, 1)]:
            raise RuntimeError("the smallest CLI query failed (exit %r)" % code)
    return times


def sig_key(sig) -> str:
    return "%d,%d,%d" % tuple(sig)


class Workload:
    """A pass sends each of `items` through `_call`; `check` lists failures."""

    tracer = None

    def __init__(self, seed: int, size: str, traced: bool) -> None:
        self.seed, self.size, self.traced = seed, size, traced
        self.digests = gate.load_digests()
        self.known_unsupported = 0
        self.json_texts = []  # canonical JSON outputs of the last pass

    def warm(self) -> None:
        """Set-up work done after imports (traced in a traced run)."""

    def facts(self):
        from wpcone import polyalg, recursion

        def canonical_of(g, m, n):
            return polyalg.to_json(recursion.compute_volume(recursion.SurfaceSignature(g, m, n)))

        return gate.fact_failures(canonical_of)

    def run_pass(self, probe: speed.Probe):
        """Send every item once, one at a time, with speed samples between
        them; (outputs, scaled seconds per item, speed samples)."""
        outs, lats, marks = [], [], []
        samples = probe.sample(SPEED_BURST)
        owed = 0.0
        for i, item in enumerate(self.items):
            marks.append(len(samples))
            call = self._call(item)
            if self.tracer is not None:
                self.tracer.request = i
            start = clock()
            try:
                out = call()
            except Exception as exc:  # a failed operation, judged by check()
                out = exc
            lats.append(clock() - start)
            outs.append(out)
            owed += lats[-1]
            if owed >= SPEED_EVERY_S:
                samples += probe.sample(min(SPEED_BURST, int(owed / SPEED_EVERY_S)))
                owed = 0.0
        samples += probe.sample(SPEED_BURST)
        scaled = [
            t * speed.scale(samples[max(0, m - SPEED_BURST) : m + SPEED_BURST])
            for t, m in zip(lats, marks)
        ]
        return outs, scaled, samples

    def _expect(self, table: str, key: str, text: str) -> bool:
        want = self.digests[table].get(key)
        return want is not None and gate.digest(text) == want


class LadderCold(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        from wpcone import polyalg, recursion

        self.recursion, self.polyalg = recursion, polyalg
        self.items = inputs.ladder(self.seed, self.size)

    def _call(self, sig):
        recursion = self.recursion
        recursion.clear_memo()  # outside the timed call
        return lambda: recursion.compute_volume(
            recursion.SurfaceSignature(*sig), max_moment_k=None, max_genus=None, max_slots=None
        )

    def check(self, outs):
        failures, self.json_texts = [], []
        for sig, out in zip(self.items, outs):
            if isinstance(out, Exception):
                failures.append("ladder %s raised %r" % (sig, out))
                continue
            text = self.polyalg.to_json(out)
            self.json_texts.append(text)
            if not self._expect("ladder", sig_key(sig), text):
                failures.append("ladder %s: canonical JSON digest mismatch" % (sig,))
        return failures


class QueryWarm(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        from wpcone import conepoints, polyalg, recursion

        self.conepoints, self.polyalg, self.recursion = conepoints, polyalg, recursion
        self.items = inputs.query_stream(self.seed, self.size)
        self.sample = set(inputs.value_sample(self.items, self.seed))
        self.canonical = {}

    def warm(self) -> None:
        recursion = self.recursion
        for g, m, n in inputs.query_signatures(self.size):
            try:
                recursion.compute_volume(recursion.SurfaceSignature(g, m, n))
            except ValueError:
                if m + n:
                    raise

    def _call(self, q):
        cp, pa, recursion = self.conepoints, self.polyalg, self.recursion
        g, m, n = q["sig"]
        kind = q["kind"]
        if kind == "value":
            return lambda: cp.volume_value(
                cp.ConeSurfaceSpec(
                    recursion.SurfaceSignature(g, m, n), q["angles"], q["lengths"] if m else None
                )
            )
        if kind == "cusp":
            return lambda: cp.cusp_limit(recursion.SurfaceSignature(g, m, n), q["slot"])

        def polynomial():
            return cp.volume_polynomial(
                cp.ConeSurfaceSpec(recursion.SurfaceSignature(g, m, n), q["angles"])
            )

        if kind == "json":
            return lambda: pa.to_json(polynomial())
        kinds = ("length",) * m + ("angle",) * n
        return lambda: pa.to_latex(polynomial(), kinds=kinds)

    def _canonical(self, sig):
        """The program's JSON for a signature, checked once per run."""
        if sig not in self.canonical:
            text = self.polyalg.to_json(
                self.recursion.compute_volume(self.recursion.SurfaceSignature(*sig))
            )
            facts = gate.published()
            ok = (
                gate.parse_canonical(text)[1] == facts[sig]
                if sig in facts
                else self._expect("poly", sig_key(sig), text)
            )
            self.canonical[sig] = text if ok else None
        return self.canonical[sig]

    def check(self, outs):
        failures, self.json_texts = [], []
        self.known_unsupported = 0
        for i, (q, out) in enumerate(zip(self.items, outs)):
            sig, kind = tuple(q["sig"]), q["kind"]
            if isinstance(out, Exception):
                if isinstance(out, ValueError) and sig[1] + sig[2] == 0:
                    self.known_unsupported += 1  # closed surfaces: ROADMAP direction 4
                else:
                    failures.append("query %d %s %s raised %r" % (i, kind, sig, out))
                continue
            if kind == "value":
                ok = isinstance(out, float) and math.isfinite(out) and out > 0
                if ok and i in self.sample:
                    text = self._canonical(sig)
                    ok = text is not None and gate.value_matches(
                        text, list(q["lengths"]) + list(q["angles"]), out
                    )
            elif kind == "json":
                self.json_texts.append(out)
                ok = out == self._canonical(sig)
            elif kind == "latex":
                ok = self._expect("latex", sig_key(sig), out)
            else:
                text = self.polyalg.to_json(out)
                self.json_texts.append(text)
                ok = self._expect("cusp", "%s/%d" % (sig_key(sig), q["slot"]), text)
            if not ok:
                failures.append("query %d %s %s: wrong output" % (i, kind, sig))
        return failures


class VerifyCli(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.items = inputs.verify_suites(self.seed, self.size)
        if self.traced:
            # in-process suites: load what a fresh process would import
            # lazily, so the traced pass does not pay for it alone
            import scipy.integrate  # noqa: F401
            import scipy.optimize  # noqa: F401
            from wpcone import cli, recursion

            self.cli, self.recursion = cli, recursion

    def _in_process(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        clear = getattr(self.recursion, "clear_memo", None)
        if clear is not None:
            clear()  # a fresh process starts with an empty memo
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue()

    def _call(self, argv):
        run = self._in_process if self.traced else run_cli
        return lambda: run(argv)

    def check(self, outs):
        failures, self.json_texts = [], []
        for argv, out in zip(self.items, outs):
            name = " ".join(argv)
            if isinstance(out, Exception):
                failures.append("%s raised %r" % (name, out))
                continue
            code, text = out
            lines = text.strip().splitlines()
            if code != 0 or not lines:
                failures.append("%s exited %r" % (name, code))
                continue
            if argv[0] == "volume":
                self.json_texts.append(lines[-1])
                ok = gate.parse_canonical(lines[-1])[1] == gate.published()[(1, 0, 1)]
            elif argv[1] == "mcshane":
                count = lines[0].rsplit(" over ", 1)[-1].split()[0]
                ok = "result: pass" in text and self.digests["geodesics"].get(name) == int(count)
            else:
                ok = lines[-1].endswith("pass")
            if not ok:
                failures.append("%s: wrong output" % name)
        return failures


WORKLOADS = {"ladder-cold": LadderCold, "query-warm": QueryWarm, "verify-cli": VerifyCli}


def cli_import_s(repeats: int = 5) -> float:
    """Median time to import wpcone.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import wpcone.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
            timeout=SUITE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(args, work: Workload, tracer, probe: speed.Probe) -> dict:
    """Timed passes for --seconds, the gate, then the traced pass if any.

    Times are scaled to the reference machine speed (speed.py) operation by
    operation.  Each item of the pass is summarized by its median over the
    passes.
    """
    failures, op_s, raw_pass_s, speed_s = [], [], [], []
    attempted = known = 0

    def timed_pass():
        nonlocal attempted, known
        start = clock()
        outs, lats, samples = work.run_pass(probe)
        elapsed = clock() - start
        attempted += len(outs)
        failures.extend(work.check(outs))
        known += work.known_unsupported
        speed_s.append(statistics.median(samples))
        return elapsed, lats, speed.scale(samples)

    # cold starts between passes, spread over the run as measured time goes by
    probes = 0 if tracer else inputs.COLD_PROBES[args.size]
    cold_s = []
    while not raw_pass_s or sum(raw_pass_s) < args.seconds:
        elapsed, lats, _ = timed_pass()
        raw_pass_s.append(elapsed)
        op_s.extend(lats)
        due = min(probes, math.ceil(probes * sum(raw_pass_s) / args.seconds))
        cold_s.extend(cold_starts(due - len(cold_s), probe))
    if tracer is not None:
        # one traced pass after the untraced ones, so the spans it keeps in
        # memory cannot slow the passes it is compared with
        tracer.install()
        work.tracer = tracer
        _, lats, factor = timed_pass()
        tracer.uninstall()
        work.tracer = None

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "known_unsupported": known,
        "failures": failures[:20],
        # once-per-run checks of published facts, not operations
        "fact_failures": work.facts(),
        "raw_pass_s": raw_pass_s,
        "speed_median_s": speed_s,
    }
    per_item = [op_s[i :: len(work.items)] for i in range(len(work.items))]
    item_s = [statistics.median(times) for times in per_item]
    if tracer is not None:
        # span times scaled like the traced pass
        table = spans.summarize(tracer.spans)
        for row in table.values():
            row["s"] *= factor
            row["self_s"] *= factor
        extras = {
            "polyalg.coeff_bits_max": gate.coeff_bits_max(work.json_texts),
            "conepoints.closed_refused": work.known_unsupported,
            "cli.import_s": cli_import_s() * factor,
            "trace.overhead": sum(lats) / sum(item_s),
            "trace.spans": len(tracer.spans),
        }
        result["per_layer"] = metrics.per_layer(table, extras)
        result["absent"] = tracer.absent
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({**tracer.dump(), "summary": table}, handle)
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "verify-cli" else resource.RUSAGE_SELF
        result["item_ms"] = [1000.0 * t for t in item_s]
        result["op_ms"] = [1000.0 * t for t in op_s]
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        result["cold_start_s"] = cold_s
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    work = WORKLOADS[args.workload](args.seed, args.size, traced)
    tracer = None
    if traced:
        tracer = spans.Tracer("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
        tracer.install()
        work.tracer = tracer
    work.warm()
    if tracer is not None:
        tracer.uninstall()
        work.tracer = None
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with speed.Probe() as probe:
        result = measure(args, work, tracer, probe)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
