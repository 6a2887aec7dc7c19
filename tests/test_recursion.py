import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from wpcone.kernels import moment_integral, pairing_kernel
from wpcone.polyalg import (
    VolumePolynomial,
    eval_numeric,
    mul_by_slot_length,
    partial_derivative,
    permute_slots,
    scale,
    substitute_imaginary,
    to_text,
)
from wpcone.recursion import (
    Splitting,
    SurfaceSignature,
    assemble_rhs,
    boundary_volume,
    clear_memo,
    compute_volume,
    cone_volume_direct,
    delta_factor,
    enumerate_splittings,
    integrate_distinguished,
    numeric_volume_value,
)

Q = Fraction


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


def test_delta_factor():
    assert delta_factor(SurfaceSignature(1, 1, 0)) == 1
    assert delta_factor(SurfaceSignature(0, 3, 0)) == 0
    assert delta_factor(SurfaceSignature(2, 1, 0)) == 0
    assert delta_factor(SurfaceSignature(1, 0, 1)) == 0


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
    as_tuples = {
        (
            sp.genus_first,
            sp.genus_second,
            sp.boundaries_first,
            sp.boundaries_second,
            sp.cones_first,
            sp.cones_second,
        )
        for sp in got
    }
    assert len(as_tuples) == len(got)  # duplicate-free
    assert as_tuples == brute_force_splittings(sig, slot)
    # deterministic order
    assert got == enumerate_splittings(sig, slot)


def test_splittings_come_in_mirror_pairs():
    for sig in [SurfaceSignature(2, 3, 0), SurfaceSignature(1, 2, 2)]:
        sps = enumerate_splittings(sig, 0)
        mirrored = {
            (
                sp.genus_second,
                sp.genus_first,
                sp.boundaries_second,
                sp.boundaries_first,
                sp.cones_second,
                sp.cones_first,
            )
            for sp in sps
        }
        direct = {
            (
                sp.genus_first,
                sp.genus_second,
                sp.boundaries_first,
                sp.boundaries_second,
                sp.cones_first,
                sp.cones_second,
            )
            for sp in sps
        }
        assert direct == mirrored


def test_four_holed_sphere_has_no_stable_splitting():
    # genus-zero sides need two surviving slots each; three do not suffice
    assert enumerate_splittings(SurfaceSignature(0, 4, 0), 0) == []


def test_one_handle_flags():
    sps = enumerate_splittings(SurfaceSignature(2, 1, 0), 0)
    assert len(sps) == 1
    sp = sps[0]
    assert sp.one_handle_first == 1 and sp.one_handle_second == 1


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
    sixteenth = scale(moment_integral(0), Q(1, 16))
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


def test_round_trip_rhs_is_derivative_of_half_length_times_volume():
    for g, nslots in [(0, 4), (1, 1), (1, 2), (2, 1), (0, 5), (1, 3)]:
        vol = boundary_volume(g, nslots)
        lhs = partial_derivative(
            scale(mul_by_slot_length(vol, 0), Q(1, 2)), 0
        )
        assert assemble_rhs(g, nslots) == lhs, (g, nslots)


def test_integrate_distinguished_round_trip():
    vol = boundary_volume(0, 4)
    rhs = partial_derivative(scale(mul_by_slot_length(vol, 0), Q(1, 2)), 0)
    assert integrate_distinguished(rhs, 0) == vol
    assert integrate_distinguished(
        VolumePolynomial(1, {}, parity=(0,)), 0
    ).is_zero()


def test_volume_symmetry_under_slot_permutations():
    rng = random.Random(17)
    for g, nslots in [(0, 4), (1, 2), (1, 3), (0, 5)]:
        vol = boundary_volume(g, nslots)
        for _ in range(4):
            perm = list(range(nslots))
            rng.shuffle(perm)
            assert permute_slots(vol, perm) == vol, (g, nslots, perm)


def test_volume_homogeneity():
    for g, nslots in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (1, 3)]:
        d = 3 * g - 3 + nslots
        p = boundary_volume(g, nslots)
        for xexp, graded in p.terms.items():
            for piexp in graded:
                assert sum(xexp) + piexp // 2 == d


def test_closed_surface_rejected():
    with pytest.raises(ValueError, match="closed"):
        boundary_volume(2, 0)
    with pytest.raises(ValueError, match="unstable"):
        boundary_volume(0, 2)


def test_memoization_purity_and_thread_mode():
    clear_memo()
    first = boundary_volume(1, 2)
    assert boundary_volume(1, 2) is first  # memo returns the stored object
    clear_memo()
    threaded = boundary_volume(1, 2, threads=3)
    assert threaded == first
    clear_memo()
    assert compute_volume(SurfaceSignature(1, 1, 1), threads=2) == (
        compute_volume(SurfaceSignature(1, 1, 1), threads=1)
    )


def test_moment_cap_propagates_with_clear_message():
    clear_memo()
    with pytest.raises(ValueError, match="max_moment_k"):
        boundary_volume(2, 1, max_moment_k=2)
    clear_memo()
    assert boundary_volume(2, 1, max_moment_k=3) == boundary_volume(2, 1)


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


def test_integrate_distinguished_refuses_an_odd_slot():
    odd = VolumePolynomial(1, {(0,): {0: Q(1)}}, parity=(1,))
    with pytest.raises(RuntimeError, match="residue"):
        integrate_distinguished(odd, 0)


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
    assert compute_volume(
        SurfaceSignature(0, 9, 0), max_slots=9
    ).total_x_degree() == 6


def test_compute_volume_realness_after_substitution():
    rng = random.Random(23)
    for sig in [SurfaceSignature(1, 1, 1), SurfaceSignature(0, 2, 2)]:
        poly = compute_volume(sig)
        assert poly.parity == (0,) * sig.slots
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


def test_numeric_volume_requires_boundary():
    with pytest.raises(ValueError, match="boundary"):
        numeric_volume_value(1, 0, 1, [], [1.0])


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
