"""Record digests.json: SHA-256 of every output the workloads can return.

Run once at a commit whose outputs are trusted (the published-value and
dilaton checks in gate.py must pass there); later runs compare against it,
which makes byte-identical canonical JSON the benchmark's fixed point.

    python3 bench/record_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
from worker import sig_key as key  # noqa: E402


def main() -> int:
    from wpcone import cli, conepoints, polyalg, recursion

    def volume(sig, **caps):
        return recursion.compute_volume(recursion.SurfaceSignature(*sig), **caps)

    def canonical_of(g, m, n):
        return polyalg.to_json(volume((g, m, n)))

    failures = gate.fact_failures(canonical_of)
    if failures:
        print("refusing to record: %s" % "; ".join(failures), file=sys.stderr)
        return 1

    lifted = dict(max_moment_k=None, max_genus=None, max_slots=None)
    doc = {"ladder": {}, "poly": {}, "latex": {}, "cusp": {}, "geodesics": {}}
    for size in inputs.SIZES:
        for sig in inputs.LADDER[size]:
            doc["ladder"][key(sig)] = gate.digest(polyalg.to_json(volume(sig, **lifted)))
    for sig in inputs.query_signatures("full"):
        g, m, n = sig
        if m + n == 0:
            continue  # closed surfaces raise at this commit; gate.published() covers them
        poly = volume(sig)
        doc["poly"][key(sig)] = gate.digest(polyalg.to_json(poly))
        kinds = ("length",) * m + ("angle",) * n
        doc["latex"][key(sig)] = gate.digest(polyalg.to_latex(poly, kinds=kinds))
        for slot in range(n):
            cusp = conepoints.cusp_limit(recursion.SurfaceSignature(*sig), slot)
            doc["cusp"]["%s/%d" % (key(sig), slot)] = gate.digest(polyalg.to_json(cusp))
    for size in inputs.SIZES:
        for argv in inputs.verify_suites(0, size):
            if argv[:2] != ["verify", "mcshane"]:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if cli.main(argv) != 0:
                    print("%s failed" % " ".join(argv), file=sys.stderr)
                    return 1
            first = out.getvalue().splitlines()[0]
            doc["geodesics"][" ".join(argv)] = int(first.rsplit(" over ", 1)[-1].split()[0])
    with open(gate.DIGESTS_PATH, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % gate.DIGESTS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
