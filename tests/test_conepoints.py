import math
import random
import sys
from fractions import Fraction

import pytest

from wpcone import recursion
from wpcone.conepoints import (
    ConeSurfaceSpec,
    cusp_limit,
    volume_polynomial,
    volume_value,
)
from wpcone.kernels import (
    BoundaryLabel,
    boundary_torus_gap,
    check_cone_angle,
    check_length,
    cone_torus_gap,
    geodesic,
    pairing_kernel_span,
)
from wpcone.mcshane import integrate_volume_identity
from wpcone.polyalg import (
    VolumePolynomial,
    eval_numeric,
    substitute_zero,
    to_latex,
)
from wpcone.recursion import (
    SurfaceSignature,
    boundary_volume,
    clear_memo,
    compute_volume,
    numeric_volume_value,
)

Q = Fraction


# -- validation -------------------------------------------------------------------


def test_angle_bounds():
    sig = SurfaceSignature(1, 0, 1)
    ConeSurfaceSpec(sig, (math.pi,))  # the closed endpoint is legal
    ConeSurfaceSpec(sig, (1e-9,))
    for bad in (0.0, -0.3, math.pi + 1e-9, 4.0):
        with pytest.raises(ValueError, match=r"\(0, pi\]"):
            ConeSurfaceSpec(sig, (bad,))


#: Every entry point that takes a cone angle, called with one angle.
ANGLE_ENTRY_POINTS = {
    "check_cone_angle": check_cone_angle,
    "ConeSurfaceSpec": lambda t: ConeSurfaceSpec(SurfaceSignature(1, 0, 1), (t,)),
    "BoundaryLabel": lambda t: BoundaryLabel("cone", t),
    "cone_torus_gap": cone_torus_gap,
    "integrate_volume_identity": integrate_volume_identity,
    "numeric_volume_value": lambda t: numeric_volume_value(1, 1, 1, [1.0], [t]),
}


@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
def test_every_entry_point_refuses_a_cone_angle_with_one_message(entry):
    call = ANGLE_ENTRY_POINTS[entry]
    for bad in (0.0, -0.5, math.pi + 1e-9, math.nan):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value) == (
            "cone angle must lie in (0, pi]; wider cones obstruct the pants "
            "decompositions this computation relies on (got %r)" % bad
        ), entry
    call(math.pi)  # the closed endpoint is legal everywhere


#: Every entry point that takes a boundary length, called with one length.
LENGTH_ENTRY_POINTS = {
    "check_length": check_length,
    "ConeSurfaceSpec": lambda x: ConeSurfaceSpec(
        SurfaceSignature(0, 3, 0), (), (1.0, x, 1.0)
    ),
    "geodesic": geodesic,
    "boundary_torus_gap": boundary_torus_gap,
    "pairing_kernel_span": pairing_kernel_span,
    "numeric_volume_value": lambda x: numeric_volume_value(0, 3, 0, [1.0, x, 1.0]),
}


@pytest.mark.parametrize("entry", sorted(LENGTH_ENTRY_POINTS))
def test_every_entry_point_refuses_a_length_with_one_message(entry):
    call = LENGTH_ENTRY_POINTS[entry]
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value) == (
            "boundary length must be positive and finite (got %r)" % bad
        ), entry
    call(1e-9)
    call(30.0)


def test_angle_count_and_length_validation():
    with pytest.raises(ValueError, match="cone angles"):
        ConeSurfaceSpec(SurfaceSignature(1, 0, 1), ())
    with pytest.raises(ValueError, match="boundary lengths"):
        ConeSurfaceSpec(SurfaceSignature(0, 2, 1), (1.0,), (2.0,))
    with pytest.raises(ValueError, match="positive"):
        ConeSurfaceSpec(SurfaceSignature(0, 2, 1), (1.0,), (2.0, -1.0))
    spec = ConeSurfaceSpec(SurfaceSignature(0, 2, 1), (1.0,), (2.0, 0.5))
    assert spec.boundary_lengths == (2.0, 0.5)


@pytest.mark.parametrize(
    "field, angles, lengths",
    [
        ("cone_angles", "3", (2.0, 5.0)),
        ("cone_angles", b"3", (2.0, 5.0)),
        ("cone_angles", 3.0, (2.0, 5.0)),
        ("boundary_lengths", (3.0,), "25"),
        ("boundary_lengths", (3.0,), 25),
        ("cone_angles", ["3"], (2.0, 5.0)),
        ("cone_angles", [None], (2.0, 5.0)),
        ("boundary_lengths", (3.0,), ["2", b"5"]),
        ("boundary_lengths", (3.0,), [2.0, bytearray(b"5")]),
        ("boundary_lengths", (3.0,), iter([2.0, None])),
    ],
)
def test_spec_fields_are_sequences_of_numbers(field, angles, lengths):
    # a string would be read digit by digit: '25' as the lengths (2.0, 5.0)
    with pytest.raises(ValueError, match=f"^{field} must be a sequence of numbers"):
        ConeSurfaceSpec(SurfaceSignature(0, 2, 1), angles, lengths)
    spec = ConeSurfaceSpec(SurfaceSignature(0, 2, 1), [3], iter([2, 5]))
    assert spec.cone_angles == (3.0,) and spec.boundary_lengths == (2.0, 5.0)


def test_unstable_signature_rejected_upstream():
    with pytest.raises(ValueError, match="unstable"):
        ConeSurfaceSpec(SurfaceSignature(0, 1, 1), (1.0,))


# -- polynomial goldens -----------------------------------------------------------


def test_cone_torus_polynomial():
    spec = ConeSurfaceSpec(SurfaceSignature(1, 0, 1), (math.pi,))
    poly = volume_polynomial(spec)
    assert poly.terms == {(1,): {0: Q(-1, 48)}, (0,): {2: Q(1, 12)}}
    assert to_latex(poly, kinds=("angle",)) == (
        "-\\frac{\\theta_1^2}{48}+\\frac{\\pi^2}{12}"
    )


def test_all_pants_flavors_are_one():
    for m, n in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        spec = ConeSurfaceSpec(
            SurfaceSignature(0, m, n), tuple([1.0] * n), tuple([1.0] * m)
        )
        assert volume_polynomial(spec).terms == {(0, 0, 0): {0: Q(1)}}
        assert volume_value(spec) == 1.0


# -- numeric evaluation -----------------------------------------------------------


def test_cone_torus_values():
    sig = SurfaceSignature(1, 0, 1)
    at_pi = volume_value(ConeSurfaceSpec(sig, (math.pi,)))
    assert abs(at_pi - math.pi ** 2 / 16) < 1e-13
    at_half_pi = volume_value(ConeSurfaceSpec(sig, (math.pi / 2,)))
    assert abs(at_half_pi - 5 * math.pi ** 2 / 64) < 1e-13


def test_volume_value_requires_numeric_lengths():
    spec = ConeSurfaceSpec(SurfaceSignature(1, 1, 1), (1.0,))
    with pytest.raises(ValueError, match="boundary lengths"):
        volume_value(spec)


def test_volume_value_guards_positivity(monkeypatch):
    # a correct recursion can never produce this, so fake a defective one
    import wpcone.conepoints as cp

    bogus = VolumePolynomial(1, {(0,): {0: Q(-1)}})
    monkeypatch.setattr(cp, "compute_volume", lambda sig, **kw: bogus)
    spec = ConeSurfaceSpec(SurfaceSignature(1, 0, 1), (1.0,))
    with pytest.raises(RuntimeError, match="non-positive"):
        volume_value(spec)


# -- cusp degeneration ------------------------------------------------------------


def test_cusp_limit_cone_torus():
    limit = cusp_limit(SurfaceSignature(1, 0, 1), 0)
    assert limit.num_vars == 0
    assert limit.terms == {(): {2: Q(1, 12)}}


def test_cusp_limit_pants():
    limit = cusp_limit(SurfaceSignature(0, 2, 1), 0)
    assert limit.terms == {(0, 0): {0: Q(1)}}


def test_cusp_limit_matches_zero_length_boundary():
    # sending a cone angle to zero equals sending a boundary length to zero
    cases = [
        (SurfaceSignature(1, 1, 1), 0, SurfaceSignature(1, 2, 0)),
        (SurfaceSignature(0, 2, 2), 1, SurfaceSignature(0, 3, 1)),
        (SurfaceSignature(1, 0, 2), 0, SurfaceSignature(1, 1, 1)),
    ]
    for sig, slot, boundary_sig in cases:
        via_cone = cusp_limit(sig, slot)
        boundary_poly = compute_volume(boundary_sig)
        # the extra boundary sits in front; move it to the vanishing slot's
        # position by comparing against substitution at slot index m
        via_length = substitute_zero(boundary_poly, boundary_sig.boundaries - 1)
        assert via_cone == via_length, (sig, slot)


def test_cusp_limit_slot_range():
    with pytest.raises(ValueError, match="cone slot"):
        cusp_limit(SurfaceSignature(1, 0, 1), 1)


@pytest.mark.parametrize("slot", [0.5, 1.0, "1", math.nan])
def test_cusp_limit_refuses_a_slot_that_is_not_an_integer(slot):
    sig = SurfaceSignature(1, 1, 2)
    clear_memo()
    with pytest.raises(ValueError, match="cone slot must be an integer"):
        cusp_limit(sig, slot)
    assert not recursion._CUSP_MEMO


def test_cusp_limit_memo_keeps_caps_and_identity():
    sig = SurfaceSignature(2, 1, 2)  # k = 3g - 4 + m + n = 5, genus 2, 3 slots
    clear_memo()
    first = cusp_limit(sig, 1)
    assert cusp_limit(sig, 1) is first
    assert cusp_limit(sig, 0) is first  # one result per signature
    # a warm memo still refuses every cap the signature exceeds
    for caps, match in (
        ({"max_moment_k": 4}, "max_moment_k"),
        ({"max_genus": 1}, "max_genus"),
        ({"max_slots": 2}, "max_slots"),
    ):
        with pytest.raises(ValueError, match=match):
            cusp_limit(sig, 1, **caps)
    assert cusp_limit(sig, 1, max_moment_k=5, max_genus=2, max_slots=3) is first
    clear_memo()
    again = cusp_limit(sig, 1)
    assert again is not first and again == first


# Each spec exceeds the default of the cap it names; genus 6 also needs
# moment index k = 15 > 12, so max_moment_k is lifted for it throughout.
OVER_A_DEFAULT_CAP = [
    ("max_genus", ConeSurfaceSpec(SurfaceSignature(6, 0, 1), (1.0,))),
    ("max_slots", ConeSurfaceSpec(SurfaceSignature(0, 0, 9), (1.0,) * 9)),
    ("max_moment_k", ConeSurfaceSpec(SurfaceSignature(5, 1, 1), (1.0,), (2.0,))),
]


@pytest.mark.parametrize("read", [volume_value, volume_polynomial])
@pytest.mark.parametrize("cap, spec", OVER_A_DEFAULT_CAP)
def test_caps_are_compute_volumes(read, cap, spec):
    """The entry points pass their caps on to compute_volume: its defaults,
    its exact message, and None lifts the cap."""
    lifted = {"max_moment_k": None} if cap == "max_genus" else {}
    with pytest.raises(ValueError) as expected:
        compute_volume(spec.sig, **lifted)
    assert cap + "=" in str(expected.value)
    with pytest.raises(ValueError) as got:
        read(spec, **lifted)
    assert str(got.value) == str(expected.value)
    lifted[cap] = None
    poly = compute_volume(spec.sig, **lifted)
    if read is volume_polynomial:
        assert read(spec, **lifted) is poly
    else:
        values = list(spec.boundary_lengths or ()) + list(spec.cone_angles)
        assert read(spec, **lifted) == eval_numeric(poly, values)


def test_caps_are_keyword_only_and_named_by_compute_volume():
    spec = ConeSurfaceSpec(SurfaceSignature(1, 1, 1), (1.0,), (2.0,))
    sig = spec.sig
    for call in (
        lambda: volume_value(spec, max_gneus=3),
        lambda: volume_polynomial(spec, max_gneus=3),
        lambda: cusp_limit(sig, 0, max_gneus=3),
        lambda: volume_value(spec, 12),
        lambda: volume_polynomial(spec, 12),
        lambda: cusp_limit(sig, 0, 12),
    ):
        with pytest.raises(TypeError):
            call()


# -- realness, interpolation, monotonicity, positivity ------------------------------


def test_interpolation_consistency_hundred_points():
    rng = random.Random(20260817)
    specs = [
        SurfaceSignature(1, 0, 1),
        SurfaceSignature(1, 1, 1),
        SurfaceSignature(0, 2, 2),
        SurfaceSignature(2, 0, 1),
    ]
    polys = {sig: compute_volume(sig) for sig in specs}
    boundary = {sig: boundary_volume(sig.genus, sig.slots) for sig in specs}
    for i in range(100):
        sig = specs[i % len(specs)]
        lengths = [rng.uniform(0.1, 5.0) for _ in range(sig.boundaries)]
        angles = [rng.uniform(1e-3, math.pi) for _ in range(sig.cones)]
        complex_path = eval_numeric(
            boundary[sig], lengths + [1j * a for a in angles]
        )
        real_path = eval_numeric(polys[sig], lengths + angles)
        assert abs(complex_path.imag) < 1e-12 * max(1.0, abs(real_path))
        assert abs(complex_path.real - real_path) < 1e-12 * max(
            1.0, abs(real_path)
        )


def test_cone_torus_volume_decreases_in_angle():
    sig = SurfaceSignature(1, 0, 1)
    grid = [k * math.pi / 40 for k in range(1, 41)]
    values = [volume_value(ConeSurfaceSpec(sig, (t,))) for t in grid]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_positivity_on_sampled_grids():
    rng = random.Random(7)
    for g in range(3):
        for total in range(1, 5):
            if 2 * g - 2 + total <= 0:
                continue
            for n in range(total + 1):
                m = total - n
                sig = SurfaceSignature(g, m, n)
                poly = compute_volume(sig)
                for _ in range(6):
                    lengths = [rng.uniform(0.0, 10.0) for _ in range(m)]
                    angles = [rng.uniform(1e-6, math.pi) for _ in range(n)]
                    value = eval_numeric(poly, lengths + angles)
                    assert value > 0.0, (sig, lengths, angles)


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
