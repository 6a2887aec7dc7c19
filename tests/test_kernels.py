import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from wpcone.kernels import (
    BoundaryLabel,
    GapKernel,
    boundary_torus_gap,
    cone,
    cone_torus_gap,
    cusp,
    eta_even,
    gap_value,
    geodesic,
    integrate_decaying,
    moment_integral,
    pairing_kernel,
    pairing_kernel_re,
    pairing_kernel_span,
    zeta_even,
    _G10_WEIGHTS,
    _GK21_NODES,
    _bernoulli,
    _panel,
    _partner_tau,
)
from wpcone.polyalg import VolumePolynomial, eval_numeric, substitute_imaginary


# -- analytic derivatives, the references for finite differences -------------


def gap_dgamma(k):
    """Analytic derivative of gap_value in the length of gamma.

    For the two-interior-geodesic pants the derivative collapses to half the
    pairing kernel: d/dg 2*atanh(sinh(g/2)/(cosh(g/2)+e^s)) =
    (1 + e^s cosh(g/2)) / (1 + 2 e^s cosh(g/2) + e^(2s)) = h(2s, g)/2.
    """
    g = k.gamma.complex_length()
    b = k.beta.value
    if k.alpha_interior:
        return pairing_kernel(k.alpha.value + b, g) / 2
    tau = _partner_tau(k.alpha)
    plus = (g + b) / 2
    minus = (g - b) / 2
    bracket = (
        cmath.sinh(plus) / (tau + cmath.cosh(plus))
        - cmath.sinh(minus) / (tau + cmath.cosh(minus))
    )
    return (1 - bracket / 2) / 2


def cone_torus_kernel_dtheta(theta, x):
    """theta-derivative of the cone_torus_gap width (identity normalization).

    Equals half the conjugate-pair sum 1/(1+e^(x - i theta/2)) +
    1/(1+e^(x + i theta/2)), i.e. pairing_kernel(2x, i*theta)/2; the
    imaginary parts cancel exactly.
    """
    z = pairing_kernel(2 * x, 1j * theta)
    assert abs(z.imag) <= 1e-13 * max(1.0, abs(z.real)), "pair failed to cancel"
    return z.real / 2


# -- boundary labels ----------------------------------------------------------


def test_boundary_label_validation():
    assert geodesic(2.5).complex_length() == 2.5 + 0j
    assert cone(math.pi).complex_length() == math.pi * 1j
    assert cusp().complex_length() == 0j
    with pytest.raises(ValueError):
        geodesic(0.0)
    with pytest.raises(ValueError):
        cone(0.0)
    with pytest.raises(ValueError):
        cone(math.pi + 1e-9)
    with pytest.raises(ValueError):
        BoundaryLabel("funnel", 1.0)


def test_gap_kernel_validation():
    with pytest.raises(ValueError):
        GapKernel(cusp(), geodesic(1), geodesic(1))
    with pytest.raises(ValueError):
        GapKernel(geodesic(1), geodesic(1), cone(1))
    with pytest.raises(ValueError):
        GapKernel(geodesic(1), cone(1), geodesic(1), alpha_interior=True)


# -- zeta machinery -----------------------------------------------------------


def test_bernoulli_numbers():
    known = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
        3: Fraction(0),
        5: Fraction(0),
    }
    for n, val in known.items():
        assert _bernoulli(n) == val


def test_zeta_even_values():
    assert zeta_even(1) == Fraction(1, 6)
    assert zeta_even(2) == Fraction(1, 90)
    assert zeta_even(3) == Fraction(1, 945)
    assert eta_even(1) == Fraction(1, 12)
    assert eta_even(2) == Fraction(7, 720)
    assert eta_even(3) == Fraction(31, 30240)
    assert eta_even(4) == Fraction(127, 1209600)
    mpmath.mp.dps = 30
    for m in range(1, 11):
        exact = float(zeta_even(m)) * math.pi ** (2 * m)
        assert abs(exact - float(mpmath.zeta(2 * m))) < 1e-13 * exact


# -- moment integrals: frozen values, dual derivation, quadrature -------------


def expected_moment(terms):
    return VolumePolynomial(1, terms)


FROZEN_MOMENTS = {
    0: {(1,): {0: Fraction(1, 2)}, (0,): {2: Fraction(2, 3)}},
    1: {
        (2,): {0: Fraction(1, 4)},
        (1,): {2: Fraction(2)},
        (0,): {4: Fraction(28, 15)},
    },
    2: {
        (3,): {0: Fraction(1, 6)},
        (2,): {2: Fraction(10, 3)},
        (1,): {4: Fraction(56, 3)},
        (0,): {6: Fraction(992, 63)},
    },
    3: {
        (4,): {0: Fraction(1, 8)},
        (3,): {2: Fraction(14, 3)},
        (2,): {4: Fraction(196, 3)},
        (1,): {6: Fraction(992, 3)},
        (0,): {8: Fraction(4064, 15)},
    },
}


def test_moment_integral_frozen_values():
    for k, terms in FROZEN_MOMENTS.items():
        assert moment_integral(k) == expected_moment(terms)


def moment_via_zeta_expansion(k):
    """Independent derivation: F_{2k+1}(t) = (2k+1)! * sum_{i=0}^{k+1}
    zeta(2i) (2^(2i+1) - 4) t^(2k+2-2i) / (2k+2-2i)!  with zeta(0) = -1/2."""
    terms = {}
    fact = math.factorial(2 * k + 1)
    for i in range(k + 2):
        zi = Fraction(-1, 2) if i == 0 else zeta_even(i)
        coeff = fact * zi * (2 ** (2 * i + 1) - 4)
        coeff /= math.factorial(2 * k + 2 - 2 * i)
        terms[(k + 1 - i,)] = {2 * i: coeff}
    return VolumePolynomial(1, terms)


def test_moment_integral_matches_zeta_expansion():
    for k in range(13):
        assert moment_integral(k) == moment_via_zeta_expansion(k)


def test_moment_integral_homogeneous_and_even():
    for k in range(13):
        p = moment_integral(k)
        assert p.numerators.degree == k + 1
        for (e,), graded in p.terms.items():
            for piexp in graded:
                assert 2 * e + piexp == 2 * k + 2


def test_moment_integral_k_cap():
    # the cap on moment indices is the recursion's (max_moment_k); kernels
    # serves any index k >= 0
    assert moment_integral(13).numerators.degree == 14
    with pytest.raises(ValueError):
        moment_integral(-1)


def test_moment_integral_against_quadrature_real_t():
    rng = random.Random(5)
    for k in range(9):
        poly = moment_integral(k)
        for t in [0.0, 0.5, 8.0] + [rng.uniform(0.1, 6.0) for _ in range(7)]:
            num = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel(x, t).real
            )
            sym = eval_numeric(poly, [t])
            assert abs(num - sym) <= 1e-9 * max(1.0, abs(sym)), (k, t)


def test_moment_integral_against_quadrature_imaginary_t():
    for k in range(3):
        poly = substitute_imaginary(moment_integral(k), 0)
        for theta in (0.5, 1.5, math.pi):
            num = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel(x, 1j * theta).real
            )
            sym = eval_numeric(poly, [theta])
            assert abs(num - sym) <= 1e-9 * max(1.0, abs(sym))
            # complex evaluation of the unsubstituted polynomial agrees
            direct = eval_numeric(moment_integral(k), [1j * theta])
            assert abs(direct - sym) < 1e-12 * max(1.0, abs(sym))


def test_moment_zero_t_is_dilogarithm_constant():
    # F_1(0) = 2 * int_0^inf x/(1+e^(x/2)) dx = 2 pi^2 / 3
    num = 2 * integrate_decaying(lambda x: x * pairing_kernel(x, 0).real / 2)
    assert abs(num - 2 * math.pi**2 / 3) < 1e-10
    assert eval_numeric(moment_integral(0), [0.0]) == pytest.approx(
        2 * math.pi**2 / 3, abs=1e-12
    )


# -- quadrature oracle --------------------------------------------------------


def test_quadrature_dilogarithm_value():
    val = integrate_decaying(lambda x: 2 * x / (1 + math.exp(x)))
    assert abs(val - math.pi**2 / 6) < 1e-10


def test_quadrature_zero_integrand():
    assert integrate_decaying(lambda x: 0.0) == 0.0


def test_quadrature_rejects_slow_decay():
    with pytest.raises(RuntimeError):
        integrate_decaying(lambda x: 1 / (1 + x * x))


def test_conjugate_pair_moment_value():
    # int_0^inf x * (1/(1+e^(x - i/2)) + 1/(1+e^(x + i/2))) dx = pi^2/6 - 1/8
    val = integrate_decaying(lambda x: x * pairing_kernel(2 * x, 1j).real)
    assert abs(val - (math.pi**2 / 6 - 1 / 8)) < 1e-9
    # and through the derivative kernel (factor two relation)
    val2 = integrate_decaying(lambda x: 2 * x * cone_torus_kernel_dtheta(1.0, x))
    assert abs(val2 - val) < 1e-10


def _legendre(n, x):
    """P_n(x) and P_n'(x), by the three-term recurrence
    (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}; needs |x| < 1."""
    prev, p = 1.0, x
    for j in range(1, n):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, n * (x * p - prev) / (x * x - 1)


def gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], exact for polynomials of degree up to 2n - 1: the reference the
    G10 table of the (G10, K21) pair is checked against.

    Each node is a root of P_n found by Newton's method from the classical
    guess cos(pi (i + 3/4) / (n + 1/2)) for the i-th root; the weight is
    2 / ((1 - x^2) P_n'(x)^2).  Nodes are computed on the positive side and
    mirrored, so the rule is exactly symmetric, and an odd rule has the node
    0.0 exactly.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    nodes = [0.0] * n
    weights = [0.0] * n
    for i in range((n + 1) // 2):
        x = 0.0
        if 2 * i + 1 < n:
            x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
            for _ in range(100):
                p, dp = _legendre(n, x)
                step = p / dp
                x -= step
                if abs(step) < 1e-15:
                    break
        _, dp = _legendre(n, x)
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = 2 / ((1 - x * x) * dp * dp)
    return tuple(nodes), tuple(weights)


def test_gauss_legendre_is_exact_to_degree_2n_minus_1():
    for n in range(1, 41):
        nodes, weights = gauss_legendre(n)
        assert list(nodes) == sorted(nodes) and len(weights) == n
        for j in range(2 * n):
            exact = 2 / (j + 1) if j % 2 == 0 else 0.0
            got = math.fsum(w * x**j for x, w in zip(nodes, weights))
            assert abs(got - exact) <= 1e-15, (n, j)
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gk21_embeds_the_10_point_gauss_rule():
    nodes, weights = gauss_legendre(10)
    # gauss_legendre ascends; the qk21 tables run from 1 down to 0
    for got, want in zip(_GK21_NODES[1::2], reversed(nodes[5:])):
        assert abs(got - want) <= 1e-15
    for got, want in zip(_G10_WEIGHTS, reversed(weights[5:])):
        assert abs(got - want) <= 1e-15
    assert len(_GK21_NODES[1::2]) == len(_G10_WEIGHTS) == 5


def test_k21_is_exact_to_degree_31_and_g10_to_degree_19():
    for j in range(32):
        exact = 2 / (j + 1) if j % 2 == 0 else 0.0
        value, err = _panel(lambda x: x**j, -1.0, 1.0)
        assert abs(value - exact) <= 1e-15, j
        # |K21 - G10| vanishes while both rules are exact
        if j < 20:
            assert err <= 1e-15, j
    assert _panel(lambda x: x**20, -1.0, 1.0)[1] > 1e-6


def test_panel_costs_21_integrand_calls():
    calls = []

    def counting(x):
        calls.append(x)
        return math.exp(-x)

    value, _ = _panel(counting, 2.0, 5.0)
    assert len(calls) == len(set(calls)) == 21
    assert all(2.0 < x < 5.0 for x in calls)
    assert abs(value - (math.exp(-2) - math.exp(-5))) < 1e-15
    calls.clear()
    assert integrate_decaying(lambda x: 0.0 * counting(x)) == 0.0
    assert len(calls) == 23  # two decay probes, then one panel meets the tolerance
    calls.clear()
    integrate_decaying(lambda x: counting(x) * math.sin(5 * x))
    assert len(calls) > 23 and (len(calls) - 2) % 21 == 0


def mp_quad_0_inf(f):
    """int_0^inf f by mpmath's tanh-sinh rule at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.quad(f, [0, mpmath.inf])


def mp_pairing_kernel(x, t):
    """h(x, t) at mpmath precision; t = i*theta in the real conjugate-pair
    form 2 (1 + E cos(theta/2)) / (1 + 2 E cos(theta/2) + E^2), E = e^(x/2)."""
    if isinstance(t, complex):
        c = mpmath.cos(mpmath.mpf(t.imag) / 2)
        e = mpmath.exp(x / 2)
        return 2 * (1 + e * c) / (1 + 2 * e * c + e * e)
    return 1 / (1 + mpmath.exp((x + t) / 2)) + 1 / (1 + mpmath.exp((x - t) / 2))


def test_adaptive_quadrature_against_mpmath_on_moments():
    for k in range(7):
        for t in (0.3, 5.5, 0.5j, math.pi * 1j):
            got = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel(x, t).real
            )
            want = mp_quad_0_inf(
                lambda x: x ** (2 * k + 1) * mp_pairing_kernel(x, t)
            )
            # the contract is 1e-10; the kept K21 values are far closer,
            # which is what makes the |K21 - G10| error estimate conservative
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k, t)


def test_adaptive_quadrature_against_mpmath_on_cone_torus_kernel():
    for theta in (0.1, 1.0, 2.5, math.pi):
        got = integrate_decaying(lambda x: x * cone_torus_gap(theta)(x))
        half = mpmath.mpf(theta) / 2
        want = mp_quad_0_inf(
            lambda x: x
            * 2
            * mpmath.atan(mpmath.sin(half) / (mpmath.cos(half) + mpmath.exp(x)))
        )
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), theta


# -- pairing kernel and the one-cone torus kernel -----------------------------


def test_pairing_kernel_unit_sum_identity():
    # 1/(1+e^(ix)) + 1/(1+e^(-ix)) = 1
    for x in [0.1, 0.5, 1.0, 2.0, 3.0]:
        z = pairing_kernel(0.0, 2j * x)
        assert abs(z - 1) < 1e-15


def test_pairing_kernel_conjugate_realness_and_evenness():
    for theta in [0.1, 1.0, 2.0, math.pi]:
        for x in [0.01, 0.5, 1.0, 10.0, 300.0]:
            z = pairing_kernel(2 * x, 1j * theta)
            assert abs(z.imag) <= 1e-15
            assert z == pairing_kernel(2 * x, -1j * theta)


def test_pairing_kernel_no_overflow():
    # far past double-precision underflow the value is an honest zero
    assert pairing_kernel(2000.0, 1j) == 0
    # still representable: h(600, 100) ~ e^(-250)
    val = pairing_kernel(600.0, 100.0).real
    assert val == pytest.approx(math.exp(-250), rel=1e-10)


def test_pairing_kernel_re_matches_complex_reference():
    for theta in (0.0, 0.1, math.pi / 2, math.pi):
        c = math.cos(theta / 2)
        for a in (0.0, 0.3, -0.3, 8.0, -8.0):
            for x in (0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 300.0, 700.0, 1500.0):
                got = pairing_kernel_re(x, a, c)
                want = pairing_kernel(x, complex(a, theta)).real
                assert math.isfinite(got)
                assert abs(got - want) <= 1e-14 * abs(want), (x, a, theta)
    # real t is c = 1
    for x, t in ((0.0, 0.0), (2.0, 5.5), (600.0, 100.0)):
        assert pairing_kernel_re(x, t) == pytest.approx(
            pairing_kernel(x, t).real, rel=1e-14
        )


def test_pairing_kernel_span_matches_quadrature_of_pairing_kernel_re():
    # the closed-form u-integral against a quadrature of its integrand, from
    # lengths where a naive difference of logs loses digits to lengths where
    # the bands run far left of 0
    nodes, weights = gauss_legendre(40)

    def quadrature(f, length):
        """int_0^length f by the 40-point rule on pieces at most 5 wide; the
        integrand's poles lie at least pi off the real axis."""
        pieces = math.ceil(length / 5)
        half = length / pieces / 2
        return half * math.fsum(
            w * f(half * (2 * i + 1 + x))
            for i in range(pieces)
            for x, w in zip(nodes, weights)
        )

    for length in (1e-6, 1e-3, 1.0, 30.0):
        for c in [1.0] + [math.cos(theta / 2) for theta in (0.01, 1.0, math.pi)]:
            span = pairing_kernel_span(length, c)
            for a in (0.0, 0.5, -0.5, 4.0, -4.0):
                for x in (0.0, 0.1, length, 5.0, 60.0, 400.0):
                    want = quadrature(lambda u: pairing_kernel_re(x, u + a, c), length)
                    # relative everywhere, small lengths and far tails
                    # included: tighter than absolute below 1
                    got = span(x, a)
                    assert abs(got - want) <= 1e-13 * abs(want), (length, c, a, x)


def test_pairing_kernel_span_refuses_a_length_that_is_not_positive():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="boundary length must be positive"):
            pairing_kernel_span(bad)


def test_boundary_torus_kernel_is_the_real_gap_value():
    for length in (0.1, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        for x in (0.05, 0.5, 1.0, 3.0, 10.0, 40.0, 300.0):
            got = boundary_torus_gap(length)(x)
            want = gap_value(
                GapKernel(geodesic(length), geodesic(x), geodesic(x), alpha_interior=True)
            ).real
            assert abs(got - want) <= 1e-14 * abs(want), (length, x)
    assert boundary_torus_gap(1.0)(800.0) < 1e-300  # decays, never overflows


def test_boundary_torus_kernel_against_high_precision():
    # past L = 10 the atanh argument nears 1 at short x, where the literal
    # atanh form loses up to 1e-13; the log1p form keeps full precision
    with mpmath.workdps(40):
        for length in (1e-6, 0.1, 2.0, 10.0, 20.0, 100.0):
            half = mpmath.mpf(length) / 2
            for x in (1e-6, 0.05, 0.5, 1.0, 3.0, 10.0, 40.0, 300.0):
                want = 2 * mpmath.atanh(
                    mpmath.sinh(half) / (mpmath.cosh(half) + mpmath.exp(x))
                )
                got = boundary_torus_gap(length)(x)
                assert abs(got - want) <= 1e-15 * want, (length, x)
    with pytest.raises(ValueError):
        boundary_torus_gap(0.0)(1.0)
    with pytest.raises(ValueError):
        boundary_torus_gap(1.0)(0.0)


def test_cone_torus_kernel_bounds_and_monotonicity():
    for theta in [0.3, 1.0, math.pi]:
        values = [cone_torus_gap(theta)(x) for x in (0.1, 0.5, 1, 2, 5, 20)]
        assert all(0 < v < theta for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
    assert cone_torus_gap(1.0)(800.0) < 1e-300  # decays, never overflows
    assert cone_torus_gap(1e-12)(1.0) < 1e-11  # vanishing angle
    with pytest.raises(ValueError):
        cone_torus_gap(0.0)(1.0)
    with pytest.raises(ValueError):
        cone_torus_gap(1.0)(-1.0)


def test_cone_torus_kernel_closed_forms_agree():
    # at theta = pi the half-angle cosine vanishes
    assert cone_torus_gap(math.pi)(1.0) == pytest.approx(
        2 * math.atan(math.exp(-1)), abs=1e-14
    )
    for theta in [0.4, 1.3, math.pi]:
        for x in [0.2, 1.0, 4.0]:
            doubled = 2 * cone_torus_gap(theta)(x)
            atan2_form = 4 * math.atan2(
                math.sin(theta / 2), math.cos(theta / 2) + math.exp(x)
            )
            assert abs(doubled - atan2_form) < 1e-14


def test_torus_gap_factories_refuse_bad_input():
    for bad in (0.0, 3.5, math.nan):
        with pytest.raises(ValueError, match="cone angle"):
            cone_torus_gap(bad)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="boundary length"):
            boundary_torus_gap(bad)
    for gap in (cone_torus_gap(1.0), boundary_torus_gap(1.0)):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="geodesic length"):
                gap(bad)


def test_cone_torus_kernel_derivative_finite_difference():
    h = 1e-5
    for theta, x in [(1.0, 1.0), (2.0, 0.5), (3.0, 2.0)]:
        fd = (
            cone_torus_gap(theta + h)(x) - cone_torus_gap(theta - h)(x)
        ) / (2 * h)
        assert abs(fd - cone_torus_kernel_dtheta(theta, x)) < 5 * h * h


# -- gap values ---------------------------------------------------------------


def test_gap_interior_pair_cone_specialization():
    # cone gamma with equal interior geodesics: i * the one-cone torus kernel
    for theta in [0.5, 1.5, math.pi]:
        for s in [0.3, 1.0, 2.5]:
            k = GapKernel(cone(theta), geodesic(s), geodesic(s), alpha_interior=True)
            val = gap_value(k)
            expect = 1j * cone_torus_gap(theta)(s)
            assert abs(val - expect) < 1e-12
            assert abs(val.real) < 1e-14


def test_interior_gap_value_against_high_precision():
    # 2 atanh(sinh(g/2) / (cosh(g/2) + e^s)), s the partners' mean length,
    # for a geodesic g = L and a cone g = i theta; long gammas with short
    # partners put the atanh argument next to 1
    partners = (0.05, 0.5, 2.0, 30.0)
    with mpmath.workdps(40):
        gammas = [(geodesic(L), mpmath.mpf(L)) for L in (1e-6, 2.0, 20.0, 100.0)]
        gammas += [(cone(t), 1j * mpmath.mpf(t)) for t in (1e-6, 1.5, math.pi)]
        for label, g in gammas:
            for a in partners:
                for b in partners:
                    s = (mpmath.mpf(a) + b) / 2
                    want = complex(
                        2 * mpmath.atanh(
                            mpmath.sinh(g / 2) / (mpmath.cosh(g / 2) + mpmath.exp(s))
                        )
                    )
                    got = gap_value(
                        GapKernel(label, geodesic(a), geodesic(b), alpha_interior=True)
                    )
                    assert abs(got - want) <= 1e-15 * abs(want), (label, a, b)


def test_gap_vanishes_with_gamma():
    k = GapKernel(geodesic(1e-14), geodesic(1), geodesic(2), alpha_interior=True)
    assert abs(gap_value(k)) < 1e-13


def test_gap_cone_partner_against_high_precision():
    mpmath.mp.dps = 50
    for length in [0.5, 1.0, 3.0]:
        val = gap_value(GapKernel(geodesic(length), cone(math.pi), geodesic(1.0)))
        L = mpmath.mpf(length)
        tau = mpmath.cos(mpmath.pi / 2)
        ratio = (tau + mpmath.cosh((L + 1) / 2)) / (tau + mpmath.cosh((L - 1) / 2))
        expect = (L - mpmath.log(ratio)) / 2
        assert abs(val - complex(expect)) < 1e-14
        assert abs(val.imag) == 0


def test_gap_positivity_bounds():
    rng = random.Random(99)
    for _ in range(50):
        L = rng.uniform(0.2, 6.0)
        b = rng.uniform(0.2, 6.0)
        inner = gap_value(
            GapKernel(
                geodesic(L), geodesic(rng.uniform(0.2, 6.0)), geodesic(b),
                alpha_interior=True,
            )
        ).real
        assert 0 < inner < L
        for partner in (geodesic(rng.uniform(0.2, 6.0)), cone(rng.uniform(0.1, math.pi)), cusp()):
            v = gap_value(GapKernel(geodesic(L), partner, geodesic(b))).real
            assert 0 < v < L / 2, (L, b, partner)


def tan_branch_gap(theta, partner, b):
    """Real form of the cone-gamma gap, independent of the complex route."""
    if partner.kind == "geodesic":
        tau = math.cosh(partner.value / 2)
    elif partner.kind == "cone":
        tau = math.cos(partner.value / 2)
    else:
        tau = 1.0
    num = math.sinh(b / 2) * math.sin(theta / 2)
    den = tau + math.cosh(b / 2) * math.cos(theta / 2)
    return theta / 2 - math.atan2(num, den)


def test_gap_imaginary_gamma_correspondence():
    rng = random.Random(7)
    for _ in range(30):
        theta = rng.uniform(0.05, math.pi)
        b = rng.uniform(0.2, 5.0)
        partner = rng.choice(
            [geodesic(rng.uniform(0.2, 5.0)), cone(rng.uniform(0.1, math.pi)), cusp()]
        )
        val = gap_value(GapKernel(cone(theta), partner, geodesic(b)))
        assert abs(val - 1j * tan_branch_gap(theta, partner, b)) < 1e-12
        assert abs(val.real) < 1e-13


def test_gap_derivative_transfer_at_imaginary_gamma():
    # d/dtheta of the gap at i*theta equals i * (d/dgamma gap)(i*theta)
    h = 1e-5
    cases = [
        GapKernel(cone(1.2), geodesic(0.7), geodesic(1.1), alpha_interior=True),
        GapKernel(cone(2.0), geodesic(1.5), geodesic(0.6)),
        GapKernel(cone(0.8), cone(2.2), geodesic(1.3)),
    ]
    for k in cases:
        theta = k.gamma.value
        up = gap_value(GapKernel(cone(theta + h), k.alpha, k.beta, k.alpha_interior))
        dn = gap_value(GapKernel(cone(theta - h), k.alpha, k.beta, k.alpha_interior))
        fd = (up - dn) / (2 * h)
        assert abs(fd - 1j * gap_dgamma(k)) < 1e-8


def test_gap_derivative_matches_finite_difference_real_gamma():
    h = 1e-6
    for k in [
        GapKernel(geodesic(1.7), geodesic(0.9), geodesic(1.2), alpha_interior=True),
        GapKernel(geodesic(0.8), cone(1.0), geodesic(2.0)),
        GapKernel(geodesic(2.5), cusp(), geodesic(0.5)),
    ]:
        L = k.gamma.value
        up = gap_value(GapKernel(geodesic(L + h), k.alpha, k.beta, k.alpha_interior))
        dn = gap_value(GapKernel(geodesic(L - h), k.alpha, k.beta, k.alpha_interior))
        fd = (up - dn) / (2 * h)
        assert abs(fd - gap_dgamma(k)) < 1e-8


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
