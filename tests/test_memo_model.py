"""A model-based test of the memo contract: caps, memoization and the order of
calls never change what an entry point returns or raises.

A hypothesis state machine interleaves clear_memo, the three memoized entry
points (compute_volume, cone_volume_direct, cusp_limit) under drawn caps, and
reads of the volumes they returned.  Every read is compared with a reference
taken before the machine runs, each from a cold memo, and every refusal is
predicted from the cap rule alone.  Between two clears a repeated call
returns the object it returned before; after a clear it returns a new one.
"""

import functools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    multiple,
    rule,
    run_state_machine_as_test,
)
import pytest

from wpcone.conepoints import cusp_limit
from wpcone.polyalg import eval_numeric, to_json, to_latex
from wpcone.recursion import SurfaceSignature, clear_memo, compute_volume, cone_volume_direct

# every stable (g, m, n) with g <= 2 and 1 <= m + n <= 5
SIGNATURES = [
    (g, m, n)
    for g in range(3)
    for m in range(6)
    for n in range(6 - m)
    if m + n and 2 * g - 2 + m + n > 0
]
ENTRIES = ("compute_volume", "cone_volume_direct", "cusp_limit")
POINT = (0.3, 1.1, 0.7, 2.0, 0.4)
# a cap is usually lifted; 1 and 3 refuse some of the signatures
CAPS = st.sampled_from([None, None, None, None, 1, 3])


def call(entry, sig, cone_slot=0, max_genus=None, max_slots=None, max_moment_k=None):
    g, m, n = sig
    if entry == "cone_volume_direct":
        return cone_volume_direct(g, m, n, max_moment_k)
    caps = {"max_genus": max_genus, "max_slots": max_slots, "max_moment_k": max_moment_k}
    if entry == "compute_volume":
        return compute_volume(SurfaceSignature(*sig), **caps)
    return cusp_limit(SurfaceSignature(*sig), cone_slot, **caps)


def refused(entry, sig, max_genus, max_slots, max_moment_k):
    """The cap rule: genus and slots bound compute_volume and cusp_limit,
    the moment index 3g - 4 + m + n bounds all three."""
    g, m, n = sig
    if max_moment_k is not None and 3 * g - 4 + m + n > max_moment_k:
        return True
    if entry == "cone_volume_direct":
        return False
    return (max_genus is not None and g > max_genus) or (
        max_slots is not None and m + n > max_slots
    )


READS = {
    "to_json": lambda p, m, n: to_json(p),
    "to_latex": lambda p, m, n: to_latex(p, ("length",) * m + ("angle",) * n),
    "eval_numeric": lambda p, m, n: eval_numeric(p, POINT[: m + n]),
    "terms": lambda p, m, n: p.terms,
}


@functools.lru_cache(maxsize=None)
def references():
    """(entry, sig) -> {read: value}, and the volume itself under "volume",
    each volume computed from a cold memo with every cap lifted."""
    refs = {}
    for entry in ENTRIES:
        for sig in SIGNATURES:
            if entry == "cusp_limit" and not sig[2]:
                continue
            clear_memo()
            p = call(entry, sig)
            m, n = sig[1], sig[2] - (entry == "cusp_limit")
            refs[entry, sig] = {name: read(p, m, n) for name, read in READS.items()}
            refs[entry, sig]["volume"] = p
    clear_memo()
    return refs


class MemoModel(RuleBasedStateMachine):
    volumes = Bundle("volumes")

    def __init__(self):
        super().__init__()
        self.refs = references()
        self.epoch = 0  # clears so far
        self.returned = {}  # (entry, sig) -> (epoch, the volume it returned)
        clear_memo()

    @rule(roll=st.integers(0, 3))
    def clear(self, roll):
        if not roll:  # one draw in four: each clear destroys the state under test
            clear_memo()
            self.epoch += 1

    def _call(self, entry, sig, slot, genus, slots, moment):
        if entry == "cusp_limit" and not sig[2]:
            return multiple()  # no cone to take to a cusp
        if entry == "cone_volume_direct":
            genus = slots = None  # it takes only the moment cap
        args = (entry, sig, slot % max(sig[2], 1), genus, slots, moment)
        if refused(entry, sig, genus, slots, moment):
            with pytest.raises(ValueError, match=r"exceeds? max_(genus|slots|moment_k)="):
                call(*args)
            return multiple()
        p = call(*args)
        assert p == self.refs[entry, sig]["volume"], (entry, sig)  # exact, keeps nothing
        epoch, before = self.returned.get((entry, sig), (None, None))
        if before is not None:
            assert (p is before) == (epoch == self.epoch), (entry, sig)  # memo hit or recomputed
        self.returned[entry, sig] = (self.epoch, p)
        return (entry, sig, p)

    @rule(
        target=volumes,
        entry=st.sampled_from(ENTRIES),
        sig=st.sampled_from(SIGNATURES),
        slot=st.integers(0, 4),
        genus=CAPS,
        slots=CAPS,
        moment=CAPS,
    )
    def fresh(self, entry, sig, slot, genus, slots, moment):
        return self._call(entry, sig, slot, genus, slots, moment)

    @rule(
        target=volumes,
        volume=volumes,
        entry=st.sampled_from((None,) + ENTRIES),
        mirror=st.booleans(),
        slot=st.integers(0, 4),
        genus=CAPS,
        slots=CAPS,
        moment=CAPS,
    )
    def again(self, volume, entry, mirror, slot, genus, slots, moment):
        # a signature met before, or its mirror (g, n, m), through the same
        # entry point (entry None) or another: the keys a memo could confuse,
        # reached far more often than by fresh draws
        g, m, n = volume[1]
        sig = (g, n, m) if mirror else (g, m, n)
        return self._call(entry or volume[0], sig, slot, genus, slots, moment)

    @rule(volume=volumes, read=st.sampled_from(sorted(READS)))
    def read(self, volume, read):
        entry, sig, p = volume
        m, n = sig[1], sig[2] - (entry == "cusp_limit")
        ref = self.refs[entry, sig]
        assert p == ref["volume"], (entry, sig)  # no later step changed it
        assert READS[read](p, m, n) == ref[read], (entry, sig, read)


def test_memo_contract_holds_under_interleaved_calls_and_reads():
    assert len(SIGNATURES) == 55
    references()  # taken before the machine runs, so no step can disturb them
    run_state_machine_as_test(
        MemoModel,
        settings=settings(
            derandomize=True,
            database=None,
            deadline=None,
            max_examples=100,
            stateful_step_count=40,
        ),
    )
