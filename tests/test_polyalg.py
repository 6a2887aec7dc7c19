import json
import math
import random
import sys
from fractions import Fraction

import pytest

from wpcone.polyalg import (
    Numerators,
    VolumePolynomial,
    eval_numeric,
    from_orbits,
    substitute_imaginary,
    substitute_zero,
    to_json,
    to_latex,
    to_text,
)
from wpcone import recursion
from wpcone.kernels import moment_integral
from wpcone.recursion import SurfaceSignature, clear_memo, compute_volume


def random_poly(rng, num_vars, degree=3, num_terms=4):
    """A random homogeneous polynomial: x^e carries pi^(2(degree - |e|))."""
    terms = {}
    for _ in range(num_terms):
        xexp = tuple(rng.randrange(degree + 1) for _ in range(num_vars))
        if sum(xexp) > degree:
            continue
        coeff = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
        terms[xexp] = {2 * (degree - sum(xexp)): coeff}
    return VolumePolynomial(num_vars, terms)


def test_construction_prunes_zeros_and_merges():
    p = VolumePolynomial(
        2,
        {
            (1, 0): {0: Fraction(1, 2), 2: Fraction(0), 3: Fraction(0)},
            (0, 0): {2: Fraction(-3)},
            (0, 1): {0: Fraction(0)},
        },
    )
    assert p.terms == {(1, 0): {0: Fraction(1, 2)}, (0, 0): {2: Fraction(-3)}}
    # every coefficient merges onto one denominator, the pi-power implied
    assert p.numerators == Numerators(2, {(1, 0): 1, (0, 0): -6}, 1)
    q = VolumePolynomial(2, {(1, 0): {0: Fraction(0)}, (0, 0): {2: 0}})
    assert not q and q.terms == {} and q.numerators.nums == {}


def test_construction_validation():
    with pytest.raises(ValueError):
        VolumePolynomial(-1)
    with pytest.raises(ValueError):
        VolumePolynomial(2, {(1,): {0: Fraction(1)}})  # wrong vector length
    with pytest.raises(ValueError):
        VolumePolynomial(1, {(-1,): {0: Fraction(1)}})
    with pytest.raises(ValueError):
        VolumePolynomial(1, {(0,): {3: Fraction(1)}})  # odd pi power
    with pytest.raises(ValueError):
        VolumePolynomial(1, {(0,): {-2: Fraction(1)}})  # negative pi power
    with pytest.raises(ValueError, match="not an integer"):
        VolumePolynomial(1, {(1.5,): {0: Fraction(1)}})  # not x^1
    with pytest.raises(ValueError, match="not an integer"):
        VolumePolynomial(1, {(0,): {2.9: Fraction(1)}})  # not pi^2
    with pytest.raises(ValueError, match="homogeneous"):
        VolumePolynomial(1, {(1,): {0: Fraction(1)}, (0,): {0: Fraction(1)}})
    with pytest.raises(ValueError, match="homogeneous"):
        VolumePolynomial(1, {(0,): {0: Fraction(1), 2: Fraction(1)}})
    with pytest.raises(ValueError, match="homogeneous"):
        # F_1 = t^2/2 + 2 pi^2/3 with its constant's pi-power shifted
        VolumePolynomial(1, {(1,): {0: Fraction(1, 2)}, (0,): {4: Fraction(2, 3)}})


def small_signatures():
    """Every stable (g, m, n) with g <= 2 and 1 <= m + n <= 5: 55 of them."""
    for g in range(3):
        for total in range(1, 6):
            if 2 * g - 2 + total > 0:
                for n in range(total + 1):
                    yield SurfaceSignature(g, total - n, n)


def test_constructor_rebuilds_every_small_volume_from_its_terms():
    clear_memo()
    sigs = list(small_signatures())
    assert len(sigs) == 55
    for sig in sigs:
        p = compute_volume(sig)
        q = VolumePolynomial(p.num_vars, p.terms)
        assert q == p, sig
        assert to_json(q) == to_json(p), sig


def test_derivative_and_antiderivative_are_inverse():
    # _invert, the recursion's antiderivative, inverts d(l V/2)/dl, which
    # takes l^(2e) on the slot to (2e + 1)/2 l^(2e)
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, 2)
        for slot in (0, 1):
            derivative = VolumePolynomial(
                2,
                {
                    xexp: {
                        pe: c * Fraction(2 * xexp[slot] + 1, 2)
                        for pe, c in graded.items()
                    }
                    for xexp, graded in p.terms.items()
                },
            )
            den, nums, degree = derivative.numerators
            den, nums = recursion._invert(den, nums, slot)
            assert from_orbits(2, den, nums, degree, (1, 1)) == p, slot


def test_substitute_imaginary_is_involution_and_flips_odd_powers():
    p = VolumePolynomial(
        1, {(1,): {0: Fraction(1, 48)}, (0,): {2: Fraction(1, 12)}}
    )
    q = substitute_imaginary(p, 0)
    assert q.terms == {(1,): {0: Fraction(-1, 48)}, (0,): {2: Fraction(1, 12)}}
    assert substitute_imaginary(q, 0) == p
    with pytest.raises(ValueError):
        substitute_imaginary(p, 1)


def test_substitute_imaginary_matches_complex_evaluation():
    rng = random.Random(23)
    for _ in range(10):
        p = random_poly(rng, 2)
        q = substitute_imaginary(p, 0)
        theta = rng.uniform(0.1, 3.0)
        other = rng.uniform(0.1, 3.0)
        direct = eval_numeric(p, [theta * 1j, other])
        subbed = eval_numeric(q, [theta, other])
        assert abs(direct - subbed) < 1e-12 * max(1.0, abs(subbed))
        assert abs(direct.imag) < 1e-12


def test_substitute_zero_drops_slot():
    p = VolumePolynomial(
        2,
        {
            (1, 1): {0: Fraction(1, 2)},
            (0, 1): {2: Fraction(3)},
            (0, 0): {4: Fraction(1, 12)},
        },
    )
    q = substitute_zero(p, 0)
    assert q.num_vars == 1
    assert q.terms == {(1,): {2: Fraction(3)}, (0,): {4: Fraction(1, 12)}}
    assert substitute_zero(q, 0).terms == {(): {4: Fraction(1, 12)}}


def test_equality_on_integer_forms_agrees_with_the_terms_view():
    rng = random.Random(37)
    polys = []
    for _ in range(40):
        num_vars = rng.randrange(3)
        degree = rng.randrange(4)
        p = random_poly(rng, num_vars, degree, num_terms=rng.randrange(4))
        scale = rng.randrange(1, 5)  # the same polynomial over a larger den
        den, nums, _ = p.numerators
        plain = (1,) * num_vars
        scaled = {e: n * scale for e, n in nums.items()}
        q = from_orbits(num_vars, den * scale, scaled, degree, plain)
        polys += [p, q, from_orbits(num_vars, 1, {}, rng.randrange(4), plain)]
        # the same numerators one degree up: every pi-power two higher
        polys.append(from_orbits(num_vars, den, nums, p.numerators.degree + 1, plain))
    for a in polys:
        for b in polys:
            want = a.num_vars == b.num_vars and a.terms == b.terms
            assert (a == b) is want, (a, b)
    # a memoized volume, kept on orbits, against its expanded copy
    clear_memo()
    p = compute_volume(SurfaceSignature(1, 2, 2))
    assert p.orbits is not None
    plain = (1,) * p.num_vars
    copy = from_orbits(p.num_vars, *p.numerators, plain)
    assert p == copy and copy == p
    off = dict(copy.numerators.nums)
    off[next(iter(off))] += 1
    assert p != from_orbits(p.num_vars, copy.numerators.den, off, copy.numerators.degree, plain)


def test_equality_on_orbits_agrees_with_the_expanded_compare():
    clear_memo()
    p = compute_volume(SurfaceSignature(1, 2, 2))
    den, nums, degree = p.orbits
    blocks = p._blocks
    assert blocks == (2, 2)
    off = dict(nums)
    off[next(iter(off))] += 1
    doubled = {e: 2 * n for e, n in nums.items()}

    def fresh():
        return from_orbits(4, den, nums, degree, blocks)

    same_blocks = [
        (fresh(), fresh(), True),
        (fresh(), from_orbits(4, den, off, degree, blocks), False),
        (fresh(), from_orbits(4, 2 * den, doubled, degree, blocks), True),
        (from_orbits(4, 1, {}, 2, blocks), from_orbits(4, 3, {}, 5, blocks), True),
    ]
    for a, b, want in same_blocks:
        assert (a == b) is want and (b == a) is want
        # compared on the orbit maps: neither side was expanded
        assert a._numerators is None and b._numerators is None
        assert (a.terms == b.terms) is want  # the expanded compare

    # mixed blocks: one-slot blocks against (m, n) blocks fall back to the
    # expanded compare
    plain = (1,) * 4
    for other_nums, want in ((nums, True), (off, False)):
        orbit = from_orbits(4, den, other_nums, degree, blocks)
        flat = from_orbits(4, *fresh().numerators, plain)
        assert (orbit == flat) is want and (flat == orbit) is want
        assert (orbit.terms == flat.terms) is want


def eval_exact(p, values):
    """{pi-exponent: exact value} at rational slot values, pi kept symbolic."""
    out = {}
    for xexp, graded in p.terms.items():
        mono = Fraction(1)
        for v, e in zip(values, xexp):
            mono *= Fraction(v) ** (2 * e)
        for pe, c in graded.items():
            out[pe] = out.get(pe, Fraction(0)) + c * mono
    return out


def test_eval_exact_matches_numeric():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poly(rng, 2)
        vals = [Fraction(rng.randrange(0, 7), rng.randrange(1, 5)) for _ in range(2)]
        graded = eval_exact(p, vals)
        num = sum(float(c) * math.pi**pe for pe, c in graded.items())
        assert abs(num - eval_numeric(p, [float(v) for v in vals])) < 1e-12 * max(
            1.0, abs(num)
        )


def test_eval_numeric_rounds_each_coefficient_like_fraction():
    # num / den over an unreduced denominator rounds as float(Fraction) does
    p = from_orbits(1, 3 * 10**40, {(1,): 10**40, (0,): -2 * 10**40}, 1, (1,))
    want = float(Fraction(1, 3)) * 2.5**2 + float(Fraction(-2, 3)) * math.pi**2
    assert eval_numeric(p, [2.5]) == want


def test_eval_numeric_rejects_negative_lengths():
    p = VolumePolynomial(1, {(0,): {0: Fraction(1)}})
    with pytest.raises(ValueError):
        eval_numeric(p, [-1.0])


def test_eval_numeric_refuses_a_coefficient_past_the_largest_double():
    # moment_integral(100) has coefficients beyond 1e308, on every call
    p = moment_integral(100)
    for _ in range(2):
        with pytest.raises(ValueError, match="coefficient is not a finite double"):
            eval_numeric(p, [1.0])


def test_canonical_order_is_graded_lex_descending():
    p = VolumePolynomial(
        2,
        {
            (0, 0): {4: Fraction(2)},
            (1, 0): {2: Fraction(3)},
            (1, 1): {0: Fraction(1)},
            (2, 0): {0: Fraction(1)},
            (0, 2): {0: Fraction(1)},
            (0, 1): {2: Fraction(5)},
        },
    )
    order = [(tuple(t["xexp"]), t["piexp"]) for t in json.loads(to_json(p))["terms"]]
    assert order == [
        ((2, 0), 0),
        ((1, 1), 0),
        ((0, 2), 0),
        ((1, 0), 2),
        ((0, 1), 2),
        ((0, 0), 4),
    ]


CONE_TORUS = VolumePolynomial(
    1, {(1,): {0: Fraction(-1, 48)}, (0,): {2: Fraction(1, 12)}}
)


def test_latex_golden_cone_torus():
    assert to_latex(CONE_TORUS, kinds=["angle"]) == (
        "-\\frac{\\theta_1^2}{48}+\\frac{\\pi^2}{12}"
    )


def test_latex_golden_four_holed_sphere():
    half = Fraction(1, 2)
    p = VolumePolynomial(
        4,
        {
            (1, 0, 0, 0): {0: half},
            (0, 1, 0, 0): {0: half},
            (0, 0, 1, 0): {0: half},
            (0, 0, 0, 1): {0: half},
            (0, 0, 0, 0): {2: Fraction(2)},
        },
    )
    assert to_latex(p) == (
        "\\frac{\\ell_1^2}{2}+\\frac{\\ell_2^2}{2}+\\frac{\\ell_3^2}{2}"
        "+\\frac{\\ell_4^2}{2}+2\\pi^2"
    )


def test_latex_suppresses_unit_coefficients_and_braces_large_powers():
    p = VolumePolynomial(1, {(5,): {0: Fraction(1)}, (0,): {10: Fraction(-1)}})
    assert to_latex(p) == "\\ell_1^{10}-\\pi^{10}"
    assert to_latex(VolumePolynomial(1)) == "0"


def test_json_golden():
    assert to_json(CONE_TORUS) == (
        '{"vars":1,"terms":[{"xexp":[1],"piexp":0,"coeff":"-1/48"},'
        '{"xexp":[0],"piexp":2,"coeff":"1/12"}]}'
    )


def test_text_rendering():
    assert to_text(CONE_TORUS, kinds=["angle"]) == "-1/48*theta_1^2 + 1/12*pi^2"
    negated = VolumePolynomial(
        1, {(1,): {0: Fraction(1, 48)}, (0,): {2: Fraction(-1, 12)}}
    )
    assert to_text(negated, kinds=["angle"]) == (
        "1/48*theta_1^2 - 1/12*pi^2"
    )


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
