import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from wpcone import recursion
from wpcone.kernels import integrate_decaying, moment_integral, pairing_kernel
from wpcone.polyalg import VolumePolynomial, eval_numeric, from_orbits, substitute_imaginary
from wpcone.recursion import (
    SurfaceSignature,
    boundary_volume,
    clear_memo,
    compute_volume,
    cone_volume_direct,
    numeric_volume_value,
)

Q = Fraction


def enumerate_splittings(sig, distinguished_slot):
    """Every ordered stable splitting (g1, g2, I1, I2, J1, J2) in the
    recursion's order: the separating groups of _cut_groups, expanded into
    the boundary slots I and cone slots J each side receives."""
    bounds = recursion._without(range(sig.boundaries), (distinguished_slot,))
    cones = recursion._without(range(sig.boundaries, sig.slots), (distinguished_slot,))
    out = []
    for group in recursion._cut_groups(sig.genus, len(bounds), len(cones)):
        if group.kind == "separating":
            (g1, _, _), (g2, _, _) = group.pieces
            for I1, J1 in recursion._choices(group, bounds, cones):
                I2, J2 = recursion._without(bounds, I1), recursion._without(cones, J1)
                out.append((g1, g2, I1, I2, J1, J2))
    return out


def assemble_rhs(g, nslots):
    """d(l_1 V_{g,nslots} / 2)/dl_1 as a polynomial: _rhs with every e0,
    its keys (e0,) + rest orbit keys of the blocks (1, nslots - 1)."""
    return from_orbits(nslots, *recursion._rhs(g, nslots, 0, every=True), (1, nslots - 1))


def integrate_distinguished(rhs, slot):
    """Invert d(l V/2)/dl on one slot of a polynomial with _invert."""
    den, nums, degree = rhs.numerators
    den, nums = recursion._invert(den, nums, slot)
    return from_orbits(rhs.num_vars, den, nums, degree, (1,) * rhs.num_vars)


# -- signatures and splittings --------------------------------------------------


def test_signature_validation():
    sig = SurfaceSignature(1, 1, 1)
    assert sig.slots == 2 and sig.dimension == 4
    assert SurfaceSignature(0, 3, 0).dimension == 0
    for bad in [(0, 2, 0), (0, 0, 2), (1, 0, 0), (0, 1, 1)]:
        with pytest.raises(ValueError, match="unstable"):
            SurfaceSignature(*bad)
    with pytest.raises(ValueError):
        SurfaceSignature(-1, 5, 0)


@pytest.mark.parametrize(
    "components, name",
    [
        ((1.5, 1, 0), "genus"),
        ((1, 1.0, 0), "boundaries"),
        ((0, 3, 0.5), "cones"),
        ((0, "3", 0), "boundaries"),
    ],
)
def test_signature_component_that_is_not_an_integer_is_refused(components, name):
    with pytest.raises(ValueError, match="component %s must be an integer" % name):
        SurfaceSignature(*components)


def test_signature_stores_its_components_as_ints():
    class Two:
        def __index__(self):
            return 2

    sig = SurfaceSignature(Two(), 1, 0)
    assert sig == (2, 1, 0) and type(sig.genus) is int
    assert compute_volume(sig) == compute_volume(SurfaceSignature(2, 1, 0))


def brute_force_splittings(sig, distinguished_slot):
    """Independent enumeration: try every genus split and every pair of
    disjoint slot subsets, keeping those where both sides (with their new
    pants boundary) are stable."""
    bounds = [i for i in range(sig.boundaries) if i != distinguished_slot]
    cones = [i for i in range(sig.boundaries, sig.slots) if i != distinguished_slot]
    found = set()
    for g1 in range(sig.genus + 1):
        g2 = sig.genus - g1
        for r1 in range(len(bounds) + 1):
            for I1 in itertools.combinations(bounds, r1):
                I2 = tuple(i for i in bounds if i not in I1)
                for r2 in range(len(cones) + 1):
                    for J1 in itertools.combinations(cones, r2):
                        J2 = tuple(i for i in cones if i not in J1)
                        side1 = 2 * g1 - 2 + (len(I1) + 1) + len(J1)
                        side2 = 2 * g2 - 2 + (len(I2) + 1) + len(J2)
                        if side1 > 0 and side2 > 0:
                            found.add((g1, g2, I1, I2, J1, J2))
    return found


@pytest.mark.parametrize(
    "sig,slot",
    [
        (SurfaceSignature(0, 4, 0), 0),
        (SurfaceSignature(1, 1, 0), 0),
        (SurfaceSignature(1, 2, 1), 0),
        (SurfaceSignature(2, 1, 0), 0),
        (SurfaceSignature(1, 1, 2), 1),
        (SurfaceSignature(0, 2, 3), 2),
    ],
)
def test_enumerate_splittings_against_brute_force(sig, slot):
    got = enumerate_splittings(sig, slot)
    as_tuples = set(got)
    assert len(as_tuples) == len(got)  # duplicate-free
    assert as_tuples == brute_force_splittings(sig, slot)
    # deterministic order
    assert got == enumerate_splittings(sig, slot)


def test_splittings_come_in_mirror_pairs():
    for sig in [SurfaceSignature(2, 3, 0), SurfaceSignature(1, 2, 2)]:
        sps = enumerate_splittings(sig, 0)
        mirrored = {(g2, g1, I2, I1, J2, J1) for g1, g2, I1, I2, J1, J2 in sps}
        assert set(sps) == mirrored


def test_separating_groups_are_closed_under_the_mirror():
    # _rhs assembles one group of each mirror pair at twice its scale
    for g, ms, ns in itertools.product(range(5), range(7), range(4)):
        groups = {
            (group.pieces, group.taken)
            for group in recursion._cut_groups(g, ms, ns)
            if group.kind == "separating"
        }
        mirrored = {((p2, p1), (ms - i, ns - j)) for (p1, p2), (i, j) in groups}
        assert groups == mirrored, (g, ms, ns)


def test_grouped_cut_multiplicities_sum_to_the_ungrouped_count():
    # the multiplicities are those the assembly uses: sub-multisets of a
    # rest with repeated exponents (separating) and counts of each distinct
    # partner exponent (pairings)
    for g in range(3):
        for total in range(1, 7):
            for m in range(total + 1):
                n = total - m
                if 2 * g - 2 + total <= 0:
                    continue
                sig = SurfaceSignature(g, m, n)
                for slot in {0, m} & set(range(total)):
                    ms, ns = m - (slot < m), n - (slot >= m)
                    B = (2, 1, 1, 0, 0, 0)[:ms]
                    C = (1, 1, 0, 0, 0)[:ns]
                    separating = pairings = 0
                    for group in recursion._cut_groups(g, ms, ns):
                        i, j = group.taken
                        if group.kind == "separating":
                            separating += sum(
                                mb for *_, mb in recursion._splits(B, i)
                            ) * sum(mc for *_, mc in recursion._splits(C, j))
                        elif group.kind == "pairing":
                            runs = recursion._splits(C if j else B, 1)
                            pairings += sum(count for *_, count in runs)
                    ungrouped = len(enumerate_splittings(sig, slot))
                    assert separating == ungrouped, (sig, slot)
                    assert ungrouped == len(brute_force_splittings(sig, slot))
                    # any partner leaves a genus-g piece with ms + ns slots
                    stable_pairings = (ms + ns) * (2 * g - 2 + ms + ns > 0)
                    assert pairings == stable_pairings, (sig, slot)


def test_split_table_against_brute_force():
    # every sub-multiset of a block with its complement and multiplicity,
    # against index subsets grouped by the values they pick
    for length in range(8):
        for block in itertools.combinations_with_replacement(range(3, -1, -1), length):
            for size in range(length + 1):
                want = {}
                for picked in itertools.combinations(range(length), size):
                    first = tuple(block[i] for i in picked)
                    rest = tuple(v for i, v in enumerate(block) if i not in picked)
                    want[first, rest] = want.get((first, rest), 0) + 1
                splits = recursion._splits(block, size)
                assert len(splits) == len(want), (block, size)
                assert {(f, r): m for f, r, m in splits} == want, (block, size)
    clear_memo()


def test_block_lists_against_brute_force():
    for length in range(5):
        for total in range(7):
            want = sorted(
                (b for b in itertools.product(range(total, -1, -1), repeat=length)
                 if sum(b) <= total and list(b) == sorted(b, reverse=True)),
                reverse=True,
            )
            assert recursion._blocks(length, total) == want, (length, total)
    clear_memo()


def test_four_holed_sphere_has_no_stable_splitting():
    # genus-zero sides need two surviving slots each; three do not suffice
    assert enumerate_splittings(SurfaceSignature(0, 4, 0), 0) == []


# -- frozen volumes --------------------------------------------------------------


def test_pants_volume_is_one():
    assert boundary_volume(0, 3).terms == {(0, 0, 0): {0: Q(1)}}


def test_one_handle_torus_volume():
    assert boundary_volume(1, 1).terms == {
        (1,): {0: Q(1, 48)},
        (0,): {2: Q(1, 12)},
    }


def test_four_holed_sphere_volume():
    expect = {(0, 0, 0, 0): {2: Q(2)}}
    for i in range(4):
        key = tuple(1 if j == i else 0 for j in range(4))
        expect[key] = {0: Q(1, 2)}
    assert boundary_volume(0, 4).terms == expect


def test_two_holed_torus_volume():
    # (s + 4 pi^2)(s + 12 pi^2)/192 with s = l1^2 + l2^2
    expect = {
        (2, 0): {0: Q(1, 192)},
        (1, 1): {0: Q(1, 96)},
        (0, 2): {0: Q(1, 192)},
        (1, 0): {2: Q(1, 12)},
        (0, 1): {2: Q(1, 12)},
        (0, 0): {4: Q(1, 4)},
    }
    assert boundary_volume(1, 2).terms == expect


def test_genus_two_one_boundary_volume():
    # published value: (4pi^2+x)(12pi^2+x)(6960pi^4+384pi^2 x+5x^2)/2211840
    expect = {
        (4,): {0: Q(1, 442368)},
        (3,): {2: Q(29, 138240)},
        (2,): {4: Q(139, 23040)},
        (1,): {6: Q(169, 2880)},
        (0,): {8: Q(29, 192)},
    }
    assert boundary_volume(2, 1).terms == expect


def test_five_holed_sphere_and_three_holed_torus_structurally():
    for g, nskip, d in [(0, 5, 2), (1, 3, 3)]:
        p = boundary_volume(g, nskip)
        assert p.num_vars == nskip
        for xexp, graded in p.terms.items():
            for piexp, coeff in graded.items():
                assert sum(xexp) + piexp // 2 == d
                assert coeff > 0


# -- recursion structure ----------------------------------------------------------


def test_assemble_rhs_one_handle_is_sixteenth_moment():
    rhs = assemble_rhs(1, 1)
    assert rhs.terms == {(1,): {0: Q(1, 32)}, (0,): {2: Q(1, 24)}}
    sixteenth = VolumePolynomial(
        1,
        {
            xexp: {pe: c / 16 for pe, c in graded.items()}
            for xexp, graded in moment_integral(0).terms.items()
        },
    )
    assert rhs == sixteenth


def test_assemble_rhs_four_holed_sphere_pairings_only():
    # only boundary pairings contribute: 1/4 sum_j (x1 + xj + 4 pi^2/3)
    rhs = assemble_rhs(0, 4)
    expect = {
        (1, 0, 0, 0): {0: Q(3, 4)},
        (0, 1, 0, 0): {0: Q(1, 4)},
        (0, 0, 1, 0): {0: Q(1, 4)},
        (0, 0, 0, 1): {0: Q(1, 4)},
        (0, 0, 0, 0): {2: Q(1)},
    }
    assert rhs.terms == expect


def half_length_derivative(vol):
    """d(l_1 V / 2)/dl_1 term by term: l_1^(2e) becomes (2e + 1)/2 l_1^(2e)."""
    return VolumePolynomial(
        vol.num_vars,
        {
            xexp: {pe: c * Q(2 * xexp[0] + 1, 2) for pe, c in graded.items()}
            for xexp, graded in vol.terms.items()
        },
    )


def test_round_trip_rhs_is_derivative_of_half_length_times_volume():
    for g, nslots in [(0, 4), (1, 1), (1, 2), (2, 1), (0, 5), (1, 3)]:
        vol = boundary_volume(g, nslots)
        lhs = half_length_derivative(vol)
        assert assemble_rhs(g, nslots) == lhs, (g, nslots)


def test_integrate_distinguished_round_trip():
    vol = boundary_volume(0, 4)
    rhs = half_length_derivative(vol)
    assert integrate_distinguished(rhs, 0) == vol
    assert not integrate_distinguished(VolumePolynomial(1), 0)


def permute(vol, perm):
    """Slot i of the result is slot perm[i] of vol."""
    return VolumePolynomial(
        vol.num_vars,
        {tuple(xexp[i] for i in perm): graded for xexp, graded in vol.terms.items()},
    )


def test_volume_symmetry_under_slot_permutations():
    rng = random.Random(17)
    for g, nslots in [(0, 4), (1, 2), (1, 3), (0, 5)]:
        vol = boundary_volume(g, nslots)
        for _ in range(4):
            perm = list(range(nslots))
            rng.shuffle(perm)
            assert permute(vol, perm) == vol, (g, nslots, perm)


@pytest.mark.parametrize(
    "g,m,n",
    [(0, k, 0) for k in range(4, 8)]
    + [(1, k, 0) for k in range(2, 6)]
    + [(2, k, 0) for k in range(1, 5)]
    + [(3, k, 0) for k in range(1, 4)]
    + [(1, 2, 2)],
)
def test_every_exponent_of_an_orbit_gives_its_coefficient(g, m, n):
    # V is stored once per orbit, computed with the distinguished slot
    # taking the largest exponent of its block; inverting the right-hand
    # side with any other exponent of the orbit as e0 must agree, which
    # the recursion satisfies only with the right cut weights
    vol = cone_volume_direct(g, m, n, max_moment_k=None).orbits
    den, rhs, _ = recursion._rhs(g, m, n, every=True)
    slot = m if n else 0
    start, stop = (m, m + n) if n else (0, m)
    seen = set()
    for key, num in rhs.items():
        e0 = key[slot]
        block = sorted(key[start:stop], reverse=True)
        orbit = key[:start] + tuple(block) + key[stop:]
        got = Q(2 * num, (2 * e0 + 1) * den)
        assert got == Q(vol.nums.get(orbit, 0), vol.den), (orbit, e0)
        seen.add((orbit, e0))
    every = {(o, e) for o in vol.nums for e in o[start:stop]}
    assert every <= seen
    if stop - start > 1:  # some orbit offers two different e0
        assert any(len(set(o[start:stop])) > 1 for o in vol.nums)


def test_volume_homogeneity():
    for g, nslots in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (1, 3)]:
        d = 3 * g - 3 + nslots
        p = boundary_volume(g, nslots)
        for xexp, graded in p.terms.items():
            for piexp in graded:
                assert sum(xexp) + piexp // 2 == d


def test_closed_surface_rejected():
    # one guard for both recursion paths: closed first, then stability, then
    # the moment cap
    for call in (
        lambda: boundary_volume(2, 0),
        lambda: cone_volume_direct(2, 0, 0),
        lambda: compute_volume(SurfaceSignature(2, 0, 0)),
        lambda: cone_volume_direct(0, 0, 0, max_moment_k=-1),
    ):
        with pytest.raises(ValueError) as closed:
            call()
        assert str(closed.value) == (
            "closed surfaces have no distinguished boundary to recurse on; "
            "add a boundary or cone point"
        )
    for call in (
        lambda: boundary_volume(0, 2),
        lambda: boundary_volume(0, 2, max_moment_k=-1),
        lambda: cone_volume_direct(0, 1, 1, max_moment_k=-1),
    ):
        with pytest.raises(ValueError, match="unstable"):
            call()
    # the signature is checked with no cones too
    with pytest.raises(ValueError, match="component cones must be an integer"):
        cone_volume_direct(1, 2, 0.0)


def test_memoization_purity():
    clear_memo()
    first = boundary_volume(1, 2)
    assert boundary_volume(1, 2) is first  # memo returns the stored object
    # boundary_volume is the direct path with no cones: one memo entry
    for g, nslots in [(0, 3), (0, 5), (1, 2), (2, 2), (3, 1)]:
        assert boundary_volume(g, nslots) is cone_volume_direct(g, nslots, 0)


def test_clear_memo_leaves_every_memo_empty():
    # a cold ladder rung fills every memo; clear_memo empties them all, and
    # only the kernel moment table outlives it
    from wpcone.conepoints import cusp_limit

    memos = {name: v for name, v in vars(recursion).items() if name.endswith("_MEMO")}
    assert len(memos) == 5 and all(type(v) is dict for v in memos.values())
    clear_memo()
    cusp_limit(SurfaceSignature(2, 2, 2), 1)
    assert all(memos.values())
    clear_memo()
    assert not any(memos.values())
    cached = [
        f
        for f in vars(recursion).values()
        if hasattr(f, "cache_info") and f.__module__ == recursion.__name__
    ]
    assert cached == [recursion._moment_table]
    assert recursion._moment_table.cache_info().currsize


def test_threads_computing_cold_get_the_single_threaded_bytes():
    # eight threads fill the five memos at once from empty: each computes
    # one ladder signature on both paths and its cusp limit
    from wpcone.conepoints import cusp_limit
    from wpcone.polyalg import to_json

    sigs = [(0, 2, 6), (0, 3, 4), (1, 3, 3), (2, 2, 2), (3, 1, 2), (4, 1, 1),
            (5, 0, 1), (1, 5, 0)]
    lifted = {"max_genus": None, "max_slots": None, "max_moment_k": None}

    def outputs(g, m, n):
        sig = SurfaceSignature(g, m, n)
        polys = [compute_volume(sig, **lifted), cone_volume_direct(g, m, n, None)]
        if n:
            polys.append(cusp_limit(sig, n - 1, **lifted))
        return [to_json(p) for p in polys]

    clear_memo()
    want = [outputs(*sig) for sig in sigs]
    clear_memo()
    start = threading.Barrier(len(sigs))
    got = {}

    def work(sig):
        start.wait()
        got[sig] = outputs(*sig)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(sig,)) for sig in sigs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got.get(sig) for sig in sigs] == want


def test_threads_reading_a_fresh_volume_first_get_the_single_threaded_forms():
    # eight threads take the first reads of one volume at once, each in its
    # own order, so every kept form (the expansion, the canonical order, the
    # flat form and the Fraction view) is first built under contention; a
    # round can miss a race, so there are four, each on a fresh volume
    from wpcone.polyalg import to_json, to_latex

    sig = SurfaceSignature(2, 4, 2)
    kinds = ("length",) * sig.boundaries + ("angle",) * sig.cones
    values = [0.3, 1.1, 0.7, 2.0, 0.4, 0.9]
    orbits = compute_volume(sig).orbits

    def fresh():
        return from_orbits(sig.slots, *orbits, (sig.boundaries, sig.cones))

    reads = [
        to_json,
        lambda p: to_latex(p, kinds),
        lambda p: eval_numeric(p, values),
        lambda p: p.terms,
    ]
    single = fresh()
    want = [read(single) for read in reads]
    kept = {"num_vars", "_blocks", "orbits", "numerators", "terms", "_order", "_flat"}
    assert set(vars(single)) == kept
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            shared = fresh()
            start = threading.Barrier(8)
            got = {}

            def work(k):
                start.wait()
                order = [(k + i) % len(reads) for i in range(len(reads))]
                got[k] = {i: reads[i](shared) for i in order}

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert [got.get(k) for k in range(8)] == [dict(enumerate(want))] * 8
            assert set(vars(shared)) == kept
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("sig,pieces", [((5, 0, 1), 19), ((2, 2, 2), 13)])
def test_each_piece_is_checked_once(monkeypatch, sig, pieces):
    # a memoized piece is read as it is: cone_volume_direct checks each key
    # that ends up in the memo once, on its first (cold) read
    calls = []
    checked = recursion.cone_volume_direct

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return checked(*args, **kwargs)

    monkeypatch.setattr(recursion, "cone_volume_direct", counting)
    clear_memo()
    compute_volume(SurfaceSignature(*sig))
    assert len(calls) == len(set(calls)) == pieces
    assert set(calls) == set(recursion._RECURSION_MEMO)


def test_moment_cap_propagates_with_clear_message():
    clear_memo()
    with pytest.raises(ValueError) as capped:
        boundary_volume(2, 1, max_moment_k=2)
    assert str(capped.value) == (
        "moment index 3 exceeds max_moment_k=2; raise the max_moment_k "
        "configuration knob to allow this computation"
    )
    clear_memo()
    assert boundary_volume(2, 1, max_moment_k=3) == boundary_volume(2, 1)


@pytest.mark.parametrize("bad", [math.nan, 1.5, "3"])
@pytest.mark.parametrize("cap", ["max_genus", "max_slots", "max_moment_k"])
def test_cap_that_is_not_an_integer_or_none_is_refused(cap, bad):
    # a nan cap compares False with every bound, so it would lift the cap
    sig = SurfaceSignature(1, 1, 1)
    compute_volume(sig)  # a warm memo refuses it too
    with pytest.raises(ValueError, match=f"^{cap} must be an integer"):
        compute_volume(sig, **{cap: bad})
    if cap == "max_moment_k":
        with pytest.raises(ValueError, match="^max_moment_k must be an integer"):
            cone_volume_direct(1, 1, 1, max_moment_k=bad)


def test_moment_cap_does_not_depend_on_memo_state():
    # (5, 2, 0) reads moments up to k = 3g - 4 + m + n = 13 > 12, the default
    clear_memo()
    boundary_volume(5, 2, max_moment_k=None)  # warm every sub-volume
    with pytest.raises(ValueError, match="max_moment_k"):
        compute_volume(SurfaceSignature(5, 2, 0))
    with pytest.raises(ValueError, match="max_moment_k"):
        boundary_volume(5, 2)
    assert compute_volume(SurfaceSignature(5, 2, 0), max_moment_k=13) is (
        boundary_volume(5, 2, max_moment_k=None)
    )
    # the cap admits exactly k = 3g - 4 + m + n, warm or cold
    for g, m, n in [(2, 1, 0), (0, 5, 0), (1, 2, 1), (1, 1, 2)]:
        k = 3 * g - 4 + m + n
        for warm in (False, True):
            clear_memo()
            if warm:
                compute_volume(SurfaceSignature(g, m, n), max_moment_k=None)
            with pytest.raises(ValueError, match="max_moment_k"):
                compute_volume(SurfaceSignature(g, m, n), max_moment_k=k - 1)
            if n:
                with pytest.raises(ValueError, match="max_moment_k"):
                    cone_volume_direct(g, m, n, max_moment_k=k - 1)
            assert compute_volume(SurfaceSignature(g, m, n), max_moment_k=k)
            assert cone_volume_direct(g, m, n, max_moment_k=k)


# -- signature-level API -----------------------------------------------------------


def test_compute_volume_cone_torus():
    poly = compute_volume(SurfaceSignature(1, 0, 1))
    assert poly.terms == {(1,): {0: Q(-1, 48)}, (0,): {2: Q(1, 12)}}


def test_compute_volume_pants_with_cones():
    for m, n in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        poly = compute_volume(SurfaceSignature(0, m, n))
        assert poly.terms == {(0, 0, 0): {0: Q(1)}}


def test_compute_volume_caps():
    with pytest.raises(ValueError, match="max_genus"):
        compute_volume(SurfaceSignature(6, 1, 0))
    with pytest.raises(ValueError, match="max_slots"):
        compute_volume(SurfaceSignature(0, 9, 0))
    # caps are knobs, not hard limits
    nine = compute_volume(SurfaceSignature(0, 9, 0), max_slots=9)
    assert max(sum(xexp) for xexp in nine.terms) == 6


def test_compute_volume_realness_after_substitution():
    rng = random.Random(23)
    for sig in [SurfaceSignature(1, 1, 1), SurfaceSignature(0, 2, 2)]:
        poly = compute_volume(sig)
        assert poly.num_vars == sig.slots
        boundary = boundary_volume(sig.genus, sig.slots)
        for _ in range(5):
            lengths = [rng.uniform(0.2, 3.0) for _ in range(sig.boundaries)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(sig.cones)]
            direct = eval_numeric(
                boundary, lengths + [a * 1j for a in angles]
            )
            subbed = eval_numeric(poly, lengths + angles)
            assert abs(direct.imag) < 1e-12
            assert abs(direct.real - subbed) < 1e-10 * max(1.0, abs(subbed))


# -- direct cone path vs substitution ----------------------------------------------


def stable_cone_signatures(max_genus, max_slots):
    for g in range(max_genus + 1):
        for total in range(1, max_slots + 1):
            if 2 * g - 2 + total <= 0:
                continue
            for n in range(1, total + 1):
                yield g, total - n, n


def test_direct_cone_recursion_matches_substitution_small():
    for g, m, n in stable_cone_signatures(1, 3):
        direct = cone_volume_direct(g, m, n)
        assert direct == compute_volume(SurfaceSignature(g, m, n)), (g, m, n)


def test_compute_volume_matches_slot_by_slot_substitution():
    # compute_volume signs each boundary/cone split of an all-boundary
    # orbit once; substitute_imaginary flips one slot at a time, term by term
    for g, m, n in stable_cone_signatures(2, 4):
        expect = boundary_volume(g, m + n)
        for slot in range(m, m + n):
            expect = substitute_imaginary(expect, slot)
        assert compute_volume(SurfaceSignature(g, m, n)) == expect, (g, m, n)


def test_direct_cone_recursion_genus_two():
    assert cone_volume_direct(2, 0, 1) == compute_volume(SurfaceSignature(2, 0, 1))


# -- the double-moment reduction, certified in two dimensions ----------------------


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 1)])
def test_double_moment_reduction_against_dblquad(a, b):
    from scipy.integrate import dblquad

    for t in (0.7, 2.0):
        fac = Fraction(
            math.factorial(2 * a + 1) * math.factorial(2 * b + 1),
            math.factorial(2 * a + 2 * b + 3),
        )
        expect = float(fac) * eval_numeric(moment_integral(a + b + 1), [t])
        got, err = dblquad(
            lambda y, x: x ** (2 * a + 1)
            * y ** (2 * b + 1)
            * pairing_kernel(x + y, t).real,
            0.0,
            90.0,
            0.0,
            90.0,
            epsabs=1e-7,
            epsrel=1e-10,
        )
        assert abs(got - expect) < 1e-8 * max(1.0, abs(expect)), (a, b, t)


# -- quadrature-backed numeric assembly --------------------------------------------


def test_numeric_volume_matches_symbolic():
    rng = random.Random(11)
    for g, m, n in [(0, 4, 0), (1, 1, 0), (1, 1, 1), (0, 2, 1)]:
        poly = compute_volume(SurfaceSignature(g, m, n))
        for _ in range(3):
            lengths = [rng.uniform(0.3, 4.0) for _ in range(m)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(n)]
            sym = eval_numeric(poly, lengths + angles)
            num = numeric_volume_value(g, m, n, lengths, angles)
            assert abs(sym - num) <= 1e-8 * max(1.0, abs(sym)), (g, m, n)


def test_numeric_volume_matches_symbolic_with_real_and_cone_partners():
    rng = random.Random(23)
    for g, m, n in [(0, 3, 2), (1, 1, 2), (2, 2, 0)]:
        poly = compute_volume(SurfaceSignature(g, m, n))
        for _ in range(3):
            lengths = [rng.uniform(0.3, 4.0) for _ in range(m)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(n)]
            sym = eval_numeric(poly, lengths + angles)
            num = numeric_volume_value(g, m, n, lengths, angles)
            assert abs(sym - num) <= 1e-8 * max(1.0, abs(sym)), (g, m, n)


def test_numeric_volume_takes_one_integral_per_call(monkeypatch):
    calls = []
    integrate = recursion.integrate_decaying

    def counting(f, *args, **kwargs):
        calls.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(recursion, "integrate_decaying", counting)
    for g, m, n in [(0, 3, 0), (0, 4, 0), (1, 1, 0), (1, 1, 2), (0, 3, 2), (2, 1, 0)]:
        calls.clear()
        numeric_volume_value(g, m, n, [1.5] * m, [0.7] * n)
        assert len(calls) == (0 if (g, m + n) == (0, 3) else 1), (g, m, n)


def test_numeric_volume_reads_no_closed_form_moment(monkeypatch):
    signatures = [(1, 1, 1), (2, 1, 0)]
    for g, m, n in signatures:  # sub-volumes stay symbolic: build them first
        compute_volume(SurfaceSignature(g, m, n))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read a closed-form moment")

    monkeypatch.setattr(recursion, "moment_integral", refuse)
    monkeypatch.setattr(recursion, "_moment_table", refuse)
    for g, m, n in signatures:
        poly = compute_volume(SurfaceSignature(g, m, n))
        lengths, angles = [1.3] * m, [0.9] * n
        num = numeric_volume_value(g, m, n, lengths, angles)
        sym = eval_numeric(poly, lengths + angles)
        assert abs(sym - num) <= 1e-8 * max(1.0, abs(sym)), (g, m, n)


def test_numeric_volume_at_extreme_lengths_and_angles():
    # tiny and long distinguished lengths, where the closed-form u-integral
    # must not cancel, and cone angles at both ends of (0, pi]
    for g, m, n in [(1, 1, 0), (0, 4, 0), (1, 2, 0), (1, 1, 1), (0, 3, 1)]:
        poly = compute_volume(SurfaceSignature(g, m, n))
        for first in (1e-4, 1e-3, 20.0):
            for theta in (1e-3, math.pi):
                lengths = [first] + [1.7] * (m - 1)
                angles = [theta] * n
                sym = eval_numeric(poly, lengths + angles)
                num = numeric_volume_value(g, m, n, lengths, angles)
                assert abs(sym - num) <= 1e-8 * max(1.0, abs(sym)), (g, m, n, first)


def test_numeric_volume_matches_the_verify_suite_points_to_full_precision():
    # the 20 points of `wpcone verify recursion` at its default seed, held far
    # inside the suite's 1e-8 gate, so a lost digit shows before the gate does
    rng = random.Random(20260817)
    for g, m, n in [(0, 4, 0), (1, 2, 0), (1, 1, 1), (2, 1, 0)]:
        poly = compute_volume(SurfaceSignature(g, m, n))
        for _ in range(5):
            lengths = [rng.uniform(0.3, 4.0) for _ in range(m)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(n)]
            sym = eval_numeric(poly, lengths + angles)
            num = numeric_volume_value(g, m, n, lengths, angles)
            assert abs(sym - num) <= 1e-12 * abs(sym), (g, m, n)


def test_numeric_volume_refuses_a_length_that_is_not_positive():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="boundary length must be positive"):
            numeric_volume_value(1, 1, 1, [bad], [1.0])
        with pytest.raises(ValueError, match="boundary length must be positive"):
            numeric_volume_value(0, 4, 0, [1.0, 2.0, bad, 1.0])
    # (0, 3, 0) is 1 at every point, but its inputs are still checked
    with pytest.raises(ValueError, match="boundary length must be positive"):
        numeric_volume_value(0, 3, 0, [1.0, bad, 1.0])


def test_numeric_volume_refuses_an_unreachable_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        numeric_volume_value(1, 1, 0, [1.0], tol=1e-20)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize(
    "integrate",
    [
        lambda tol: integrate_decaying(lambda x: math.exp(-x), tol),
        lambda tol: numeric_volume_value(1, 1, 0, [1.0], tol=tol),
        lambda tol: numeric_volume_value(0, 3, 0, [1.0, 1.0, 1.0], tol=tol),
    ],
    ids=[
        "integrate_decaying", "numeric_volume_value", "numeric_volume_value_pants"
    ],
)
def test_tolerance_that_is_not_positive_and_finite_is_refused(integrate, tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        integrate(tol)


def test_numeric_volume_requires_boundary():
    with pytest.raises(ValueError, match="boundary"):
        numeric_volume_value(1, 0, 1, [], [1.0])


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
