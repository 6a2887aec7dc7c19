"""Seeded inputs for the three workloads; pure data, no wpcone import.

The same (workload, seed, size) always gives the same inputs.  Work per pass
does not depend on the seed: the seed picks the order, the numeric lengths
and angles and the cone slots, while the mix of signatures and query kinds
is fixed, so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

Sig = Tuple[int, int, int]

WORKLOADS = ("ladder-cold", "query-warm", "verify-cli")
SIZES = ("full", "tiny")

# ROADMAP families with cone slots.  (0, 5, 4) is left out: at about 5 s cold
# it would take a whole run by itself.  (5, 0, 1) stands in for (6, 0, 1),
# which at about 2 s would be half of every pass and leave too few passes
# for a steady median per rung.  The cheap (0, 3, 4) makes the count odd, so
# the median operation is the middle rung's own median rather than the gap
# between two rungs.
LADDER = {
    "full": [(0, 2, 6), (0, 3, 4), (1, 3, 3), (2, 2, 2), (3, 1, 2), (4, 1, 1), (5, 0, 1)],
    "tiny": [(0, 2, 2), (1, 1, 1)],
}

# per signature and pass: volume_value, volume_polynomial + to_json,
# to_latex and cusp_limit.  Without cone slots cusp_limit becomes a JSON
# query, and so does to_latex on a closed surface, whose JSON the gate
# checks against the published value.
QUERY_MIX = (("value", 4), ("json", 2), ("latex", 1), ("cusp", 1))

QUERY_BOUNDS = {"full": (2, 5), "tiny": (1, 3)}  # (max genus, max slots)

COLD_PROBES = {"full": 16, "tiny": 2}  # per untraced run, between passes
SMALLEST_QUERY = ["volume", "--g", "1", "--cones", "1", "--format", "json"]
# `verify kernel` and `verify recursion` sample their own points, and their
# cost depends on the points, so they take this fixed seed: with the workload
# seed their work would differ from seed to seed by a fifth
SUITE_SEED = "20260817"


def stable_signatures(max_genus: int, max_slots: int) -> List[Sig]:
    """Every stable (g, m, n) within the bounds, closed surfaces included."""
    return [
        (g, total - n, n)
        for g in range(max_genus + 1)
        for total in range(max_slots + 1)
        if 2 * g - 2 + total > 0
        for n in range(total + 1)
    ]


def query_signatures(size: str) -> List[Sig]:
    sigs = stable_signatures(*QUERY_BOUNDS[size])
    if (2, 0, 0) not in sigs:
        sigs.append((2, 0, 0))  # keep the closed surface in every mix
    return sigs


def ladder(seed: int, size: str) -> List[Sig]:
    rungs = list(LADDER[size])
    random.Random("ladder:%d" % seed).shuffle(rungs)
    return rungs


def _angle(rng: random.Random) -> float:
    return math.pi * (1.0 - rng.random())  # in (0, pi]


def query_stream(seed: int, size: str) -> List[Dict[str, object]]:
    """One pass of user queries: a fixed mix over the signatures, shuffled."""
    rng = random.Random("query:%d" % seed)
    queries = []
    for sig in query_signatures(size):
        g, m, n = sig
        for kind, count in QUERY_MIX:
            if (kind == "cusp" and n == 0) or (kind == "latex" and m + n == 0):
                kind = "json"
            for _ in range(count):
                queries.append(
                    {
                        "kind": kind,
                        "sig": sig,
                        "lengths": [0.1 + 9.9 * (1.0 - rng.random()) for _ in range(m)],
                        "angles": [_angle(rng) for _ in range(n)],
                        "slot": rng.randrange(n) if n else 0,
                    }
                )
    rng.shuffle(queries)
    return queries


def value_sample(queries: List[Dict[str, object]], seed: int, k: int = 16) -> List[int]:
    """Indices of the volume_value queries re-evaluated exactly by the gate."""
    picks = [i for i, q in enumerate(queries) if q["kind"] == "value"]
    rng = random.Random("sample:%d" % seed)
    return sorted(rng.sample(picks, min(k, len(picks))))


def verify_suites(seed: int, size: str) -> List[List[str]]:
    """One pass of CLI invocations, in seeded order."""
    if size == "full":
        suites = [
            ["verify", "mcshane", "--theta", "pi", "--cutoff", "300"],
            ["verify", "mcshane", "--length", "2.0", "--cutoff", "300"],
            ["verify", "mcshane", "--cusp", "--cutoff", "300"],
            ["verify", "kernel", "--seed", SUITE_SEED],
            ["verify", "identity"],
            ["verify", "recursion", "--seed", SUITE_SEED],
        ]
    else:
        suites = [
            ["verify", "mcshane", "--cusp", "--cutoff", "40"],
            ["verify", "kernel", "--seed", SUITE_SEED, "--max-k", "1", "--samples", "2"],
            ["verify", "identity", "--grid", "2"],
            [
                "verify", "recursion", "--seed", SUITE_SEED,
                "--g-max", "1", "--slot-max", "3", "--samples", "1",
            ],
        ]
    # one cold start among the suites; COLD_PROBES repeats it between passes,
    # and an odd count keeps the median operation a single operation
    suites.append(list(SMALLEST_QUERY))
    random.Random("verify:%d" % seed).shuffle(suites)
    return suites
