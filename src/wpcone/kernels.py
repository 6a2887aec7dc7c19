"""Pants-gap kernels on hyperbolic surfaces and their exact moment integrals.

A pair of pants embedded in a surface cuts a "gap" out of a distinguished
boundary curve gamma; summing the gap widths over all embedded pants recovers
half the length of gamma (the generalized McShane identity).  Cone points ride
along by giving a cone point of angle theta the imaginary length i*theta, so
every kernel here accepts complex lengths and the real cone formulas are the
imaginary specializations of the geodesic ones.

The recursion for the volume polynomials integrates these kernels against
odd powers of length.  Those moment integrals

    F_{2k+1}(t) = int_0^inf x^(2k+1) * h(x, t) dx,
    h(x, t) = 1/(1 + exp((x+t)/2)) + 1/(1 + exp((x-t)/2)),

have exact closed forms: polynomials in t**2 with rational multiples of even
pi-powers as coefficients.  They are frozen here symbolically and re-certified
against adaptive quadrature by the test suite.  Any index k >= 0 is served;
the recursion caps the indices it requests (recursion.DEFAULT_MAX_MOMENT_K).

The gap widths of the one-holed torus, which the McShane sums add up, come
from two factories, cone_torus_gap and boundary_torus_gap: each checks its
angle or length, fixes its constants once, and returns the width as a
function of the geodesic length.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

    from wpcone.polyalg import VolumePolynomial

# -- boundary data -----------------------------------------------------------


def check_cone_angle(theta: float) -> None:
    """Refuse a cone angle outside (0, pi], nan included: wider cones
    obstruct the pants decompositions the volumes and gap sums rest on."""
    if not 0 < theta <= math.pi:
        raise ValueError(
            "cone angle must lie in (0, pi]; wider cones obstruct the pants "
            f"decompositions this computation relies on (got {theta!r})"
        )


def check_length(length: float) -> None:
    """Refuse a boundary length outside (0, inf), nan included."""
    if not 0 < length < math.inf:
        raise ValueError(
            f"boundary length must be positive and finite (got {length!r})"
        )


def check_tolerance(tol: float) -> None:
    """Refuse a quadrature tolerance outside (0, inf), nan included."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


class BoundaryLabel(namedtuple("BoundaryLabel", "kind value")):
    """One end of a surface: a geodesic boundary, a cone point, or a cusp.

    A cone point of angle theta behaves throughout as a boundary of imaginary
    length i*theta; a cusp is the zero-length limit of either.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: float = 0.0) -> BoundaryLabel:
        if kind == "geodesic":
            check_length(value)
        elif kind == "cone":
            check_cone_angle(value)
        elif kind == "cusp":
            if value:
                raise ValueError("a cusp carries no length or angle")
        else:
            raise ValueError(f"unknown boundary kind {kind!r}")
        return tuple.__new__(cls, (kind, value))

    def complex_length(self) -> complex:
        """Length as a complex number: L, i*theta, or 0 for a cusp."""
        if self.kind == "geodesic":
            return complex(self.value)
        if self.kind == "cone":
            return 1j * self.value
        return 0j


def geodesic(length: float) -> BoundaryLabel:
    return BoundaryLabel("geodesic", float(length))


def cone(angle: float) -> BoundaryLabel:
    return BoundaryLabel("cone", float(angle))


def cusp() -> BoundaryLabel:
    return BoundaryLabel("cusp")


class GapKernel(namedtuple("GapKernel", "gamma alpha beta alpha_interior")):
    """A pants gap on the distinguished curve gamma.

    The pants has boundary gamma plus alpha and beta.  beta is always an
    interior simple closed geodesic.  alpha is either a second interior
    geodesic (alpha_interior=True) or a fixed end of the surface: a geodesic
    boundary, a cone point, or a cusp.
    """

    __slots__ = ()

    def __new__(
        cls,
        gamma: BoundaryLabel,
        alpha: BoundaryLabel,
        beta: BoundaryLabel,
        alpha_interior: bool = False,
    ) -> GapKernel:
        if gamma.kind == "cusp":
            raise ValueError("the distinguished curve must carry a length or angle")
        if beta.kind != "geodesic":
            raise ValueError("beta must be an interior simple closed geodesic")
        if alpha_interior and alpha.kind != "geodesic":
            raise ValueError("an interior alpha must be a geodesic")
        return tuple.__new__(cls, (gamma, alpha, beta, alpha_interior))


def _partner_tau(alpha: BoundaryLabel) -> float:
    """cosh of the half-length of alpha: cosh(L/2), cos(phi/2), or 1."""
    if alpha.kind == "geodesic":
        return math.cosh(alpha.value / 2)
    if alpha.kind == "cone":
        return math.cos(alpha.value / 2)
    return 1.0


def gap_value(k: GapKernel) -> complex:
    """Width of the gap cut out of gamma by the pants (alpha, beta).

    For a geodesic gamma of length L the value is real in (0, L); for a cone
    gamma of angle theta it is i times a real value in (0, theta).  Principal
    branches everywhere; arguments stay off the cuts because angles are at
    most pi.
    """
    g = k.gamma.complex_length()
    b = k.beta.value
    if k.alpha_interior:
        # 2 atanh(sinh(g/2) / (cosh(g/2) + e^s)), whose argument nears 1 for
        # a long gamma and short partners, taken as the equal
        # log1p(2 sinh(g/2) e^-s / (1 + e^(-g/2-s))), as boundary_torus_gap
        w = math.exp(-(k.alpha.value + b) / 2)
        return _log1p(2 * cmath.sinh(g / 2) * w / (1 + cmath.exp(-g / 2) * w))
    tau = _partner_tau(k.alpha)
    ratio = (tau + cmath.cosh((g + b) / 2)) / (tau + cmath.cosh((g - b) / 2))
    return (g - cmath.log(ratio)) / 2


def _log1p(z: complex) -> complex:
    """log(1 + z) without forming 1 + z where it would cost digits: the real
    part is log|1 + z| = log1p(2 Re z + |z|^2) / 2 (math.log1p(z) for real z),
    the imaginary part arg(1 + z)."""
    x, y = z.real, z.imag
    if not y:
        return complex(math.log1p(x))
    return complex(0.5 * math.log1p(x * (2 + x) + y * y), math.atan2(y, 1 + x))


# -- one-holed torus kernels and the pairing kernel ---------------------------


def cone_torus_gap(theta: float) -> Callable[[float], float]:
    """The gap width on the cone point of a one-cone torus, as a function
    of the length x of a simple closed geodesic:

        x -> 2*atan(sin(theta/2) / (cos(theta/2) + e^x)).

    Summed over all simple closed geodesics this normalization recovers
    theta/2; the logarithmic form of the same identity is twice it.  theta
    is checked and its half-angle sine and cosine taken once, for sums and
    integrals over many lengths.  Evaluated through e^(-x) so arbitrarily
    long geodesics cannot overflow.
    """
    check_cone_angle(theta)
    s, c = math.sin(theta / 2), math.cos(theta / 2)

    def gap(x: float) -> float:
        if not x > 0:
            raise ValueError("geodesic length must be positive")
        w = math.exp(-x)
        return 2 * math.atan(s * w / (1 + c * w))

    return gap


def boundary_torus_gap(length: float) -> Callable[[float], float]:
    """The gap width on the boundary of a one-holed torus of boundary
    length L, as a function of the length x of a simple closed geodesic:

        x -> 2*atanh(sinh(L/2) / (cosh(L/2) + e^x)).

    The twin of cone_torus_gap: gap_value of the pants (L, x, x) with both
    partners interior, in real arithmetic.  Summed over all simple closed
    geodesics it recovers L/2.  The atanh argument nears 1 for long
    boundaries and short geodesics, where atanh loses digits, so the value
    is taken as log1p(2 sinh(L/2) e^(-x) / (1 + e^(-L/2-x))), the same
    function with every step well conditioned.  L is checked and
    2 sinh(L/2) and e^(-L/2) taken once.  Evaluated through e^(-x) so
    arbitrarily long geodesics cannot overflow.
    """
    check_length(length)
    half = length / 2
    s, e = 2 * math.sinh(half), math.exp(-half)

    def gap(x: float) -> float:
        if not x > 0:
            raise ValueError("geodesic length must be positive")
        w = math.exp(-x)
        return math.log1p(s * w / (1 + e * w))

    return gap


def pairing_kernel(x: float, t: complex) -> complex:
    """h(x, t) = 1/(1+e^((x+t)/2)) + 1/(1+e^((x-t)/2)); even in t.

    This is the kernel whose odd moments moment_integral computes.  Rather
    than summing the two logistic terms (which cancel catastrophically when
    the denominators get small), the pair is evaluated as a single rational
    expression over a common denominator,

        h = (2 + e^u + e^v) / (1 + e^u + e^v + e^(u+v)),   u, v = (x +- t)/2,

    rescaled by the dominant exponential so nothing overflows.  At t =
    i*theta the exponentials are conjugate and their imaginary parts cancel
    bit-exactly, so the result is genuinely real.
    """
    t = complex(t)
    u = (x + t) / 2
    v = (x - t) / 2
    m = max(0.0, u.real, v.real, u.real + v.real)
    eu = cmath.exp(u - m)
    ev = cmath.exp(v - m)
    ex = cmath.exp((u + v) - m)
    base = math.exp(-m)
    num = (2 * base + eu) + ev
    den = ((base + eu) + ev) + ex
    return num / den


def pairing_kernel_re(x: float, a: float, c: float = 1.0) -> float:
    """Re h(x, a + i*theta) in real arithmetic, with c = cos(theta/2).

    The logistic term 1/(1 + e^(p +- i*theta/2)), p = (x +- a)/2, has real
    part (1 + w c) / (1 + 2 w c + w^2) with w = e^p; both terms share c
    because cos is even.  Each is rescaled by v = e^(-|p|): the numerator
    is 1 + v c for p <= 0 and v (v + c) for p > 0, and the denominator
    1 + v (2c + v) either way.  For c >= 0 (theta in [0, pi]) every sum has
    nonnegative terms, so nothing cancels and nothing overflows.  Real t is
    c = 1.  pairing_kernel is the complex reference this is tested against.
    """
    p = (x + a) / 2
    q = (x - a) / 2
    v = math.exp(-abs(p))
    w = math.exp(-abs(q))
    re_p = (v * (v + c) if p > 0 else 1 + v * c) / (1 + v * (2 * c + v))
    re_q = (w * (w + c) if q > 0 else 1 + w * c) / (1 + w * (2 * c + w))
    return re_p + re_q


def pairing_kernel_span(
    length: float, c: float = 1.0
) -> Callable[[float, float], float]:
    """(x, a) -> int_0^L pairing_kernel_re(x, u + a, c) du in closed form,
    the length checked and e^(-L/2) taken once; needs 0 <= c <= 1.

    f(y) = Re 1/(1 + e^(y/2 + i theta/2)) has the antiderivative
    -log(1 + 2wc + w^2), w = e^(-y/2).  Over a band [y, y + L] with y >= 0
    the two logs are one log1p(w q (2c + w + wr) / (1 + wr (2c + wr))),
    r = e^(-L/2), q = 1 - r by expm1: no term cancels or overflows at any L.
    By f(y) = 1 - f(-y) a band left of 0 is L minus its mirror (at most
    L/2), and a band across 0 is split there.  The u-integral is
    band(x + a) + band(x - a - L); pairing_kernel_re is the reference.
    """
    check_length(length)
    c2 = 2 * c

    def edge(d: float) -> float:  # the integral of f over [0, d]
        r = math.exp(-d / 2)
        return math.log1p(-math.expm1(-d / 2) * (1 + c2 + r) / (1 + r * (c2 + r)))

    r, q = math.exp(-length / 2), -math.expm1(-length / 2)

    def band(y: float) -> float:
        if -length < y < 0:
            return edge(y + length) - y - edge(-y)
        z = y if y >= 0 else -y - length  # the mirrored band
        w = math.exp(-z / 2)
        wr = w * r
        v = math.log1p(w * q * (c2 + w + wr) / (1 + wr * (c2 + wr)))
        return v if y >= 0 else length - v

    def span(x: float, a: float) -> float:
        return band(x + a) + band(x - a - length)

    return span


# -- exact moment integrals ---------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the defining recurrence."""
    from fractions import Fraction

    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli(j)
    return -acc / (n + 1)


def zeta_even(m: int) -> Fraction:
    """zeta(2m) as a rational multiple of pi^(2m)."""
    from fractions import Fraction

    if m < 1:
        raise ValueError("zeta_even expects m >= 1")
    sign = 1 if m % 2 else -1
    return Fraction(sign * 2 ** (2 * m - 1), math.factorial(2 * m)) * _bernoulli(
        2 * m
    )


@lru_cache(maxsize=None)
def eta_even(m: int) -> Fraction:
    """Alternating zeta value eta(2m) = (1 - 2^(1-2m)) zeta(2m), over pi^(2m);
    cached, as every moment_integral(k >= m - 1) reads it."""
    from fractions import Fraction

    return (1 - Fraction(1, 2 ** (2 * m - 1))) * zeta_even(m)


@lru_cache(maxsize=None)
def moment_integral(k: int) -> VolumePolynomial:
    """Exact value of int_0^inf x^(2k+1) h(x, t) dx as a polynomial in t.

    Expanding each logistic factor of h as a geometric series in e^(-x/2) and
    integrating termwise reduces the tail of the integral to the alternating
    zeta values eta(2), ..., eta(2k+2); the head (x below |t| for real t,
    where the series for the second factor flips) contributes the pure power
    t^(2k+2)/(2k+2).  Collecting terms:

        F_{2k+1}(t) = t^(2k+2)/(2k+2)
          + 4 * sum_{i=0}^{k} C(2k+1, 2i+1) 2^(2i+1) (2i+1)! eta(2i+2)
                * t^(2(k-i))

    so F_1 = t^2/2 + 2 pi^2/3, F_3 = t^4/4 + 2 pi^2 t^2 + 28 pi^4/15, and so
    on: even in t and homogeneous of degree 2k+2 across (t, pi).  The test
    suite re-derives the coefficients through an independent zeta-value
    expansion and certifies every polynomial against adaptive quadrature.

    The single slot of the returned polynomial is t itself; substituting
    t = i*theta is substitute_imaginary on that slot.
    """
    if k < 0:
        raise ValueError("moment index must be nonnegative")
    from fractions import Fraction

    from wpcone.polyalg import VolumePolynomial

    terms = {(k + 1,): {0: Fraction(1, 2 * k + 2)}}
    for i in range(k + 1):
        coeff = (
            4
            * math.comb(2 * k + 1, 2 * i + 1)
            * 2 ** (2 * i + 1)
            * math.factorial(2 * i + 1)
            * eta_even(i + 1)
        )
        terms[(k - i,)] = {2 * i + 2: coeff}
    return VolumePolynomial(1, terms)


# -- adaptive quadrature -----------------------------------------------------


#: The nested (G10, K21) Gauss-Kronrod pair of QUADPACK's qk21 (Piessens
#: et al., 1983).  Nodes on [0, 1) in descending order, ending at 0: the odd
#: positions 1, 3, ..., 9 are the positive nodes of the 10-point Gauss rule,
#: the others the 11 Kronrod nodes added to them.  K21 is exact for
#: polynomials of degree up to 31, G10 up to degree 19.
_GK21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
#: Kronrod weights, one per node of _GK21_NODES.
_K21_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
#: Gauss weights of the nodes at _GK21_NODES[1], [3], ..., [9].
_G10_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _panel(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """The K21 integral of f over [lo, hi] and its distance from the nested
    G10 integral, from 21 integrand calls."""
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    # f summed over each symmetric pair of nodes, then once at the centre
    sums = [f(mid - half * x) + f(mid + half * x) for x in _GK21_NODES[:-1]]
    sums.append(f(mid))
    k21 = half * math.fsum([w * s for w, s in zip(_K21_WEIGHTS, sums)])
    g10 = half * math.fsum([w * s for w, s in zip(_G10_WEIGHTS, sums[1::2])])
    return k21, abs(k21 - g10)


def integrate_decaying(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Integrate a smooth, exponentially decaying integrand on [0, inf).

    The truncation point is chosen adaptively: starting from X = 40, X grows
    until both |f(X+3)| <= |f(X)|/2 (the decay is actually exponential
    there) and |f| <= tol/80 at both probes.  Summing the implied geometric
    bound over steps of 3, the discarded tail is below 6*|f(X)| <= tol/13,
    comfortably inside the budget.  The integral is then taken on [0, X+3].

    The finite integral is adaptive Gauss-Kronrod on panels.  Each panel is
    integrated by the nested (G10, K21) pair: the 21-point Kronrod rule
    reuses the 10 Gauss nodes, so a panel costs 21 integrand calls.  It
    contributes the K21 value, and |K21 - G10| is its error estimate.  That
    difference is about the error of the 10-point Gauss rule, far above the
    error of the K21 value that is kept, so the estimate is conservative.
    The panel with the largest estimate is bisected first, until the summed
    estimate is at most max(tol/10, 1e-10 * |value|) or 400 panels are in
    use.  The summed estimate must then meet tol, read relative for values
    beyond unit size (an absolute 1e-10 on an integral of size 1e8 would
    demand more than double precision holds).

    Raises ValueError when tol is not positive and finite, RuntimeError
    when the integrand shows no exponential decay, and ValueError when the
    integrand overflows or the error estimate misses tol: a tolerance the
    rule does not reach on this integrand is an input it cannot honour.
    """
    check_tolerance(tol)
    try:
        x = 40.0
        while True:
            fx, fx3 = abs(f(x)), abs(f(x + 3))
            if fx3 <= 0.5 * fx and max(fx, fx3) <= tol / 80:
                break
            if x > 100000:
                raise RuntimeError(
                    "integrand does not exhibit exponential decay; cannot truncate"
                )
            x = x * 2 if x < 2000 else x * 1.5
        upper = x + 3
        value, err = _panel(f, 0.0, upper)
        # max-heap on the error estimate: (-err, lo, hi, value)
        panels = [(-err, 0.0, upper, value)]
        while err > max(tol / 10, 1e-10 * abs(value)) and len(panels) < 400:
            _, lo, hi, _ = heapq.heappop(panels)
            mid = (lo + hi) / 2
            for left, right in ((lo, mid), (mid, hi)):
                part, part_err = _panel(f, left, right)
                heapq.heappush(panels, (-part_err, left, right, part))
            value = math.fsum(p[3] for p in panels)
            err = -math.fsum(p[0] for p in panels)
    except OverflowError as exc:  # e.g. x ** n past the largest double
        raise ValueError("integrand overflows a double: %s" % exc.args[-1]) from None
    if err > tol * max(1.0, abs(value)):
        raise ValueError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}"
        )
    return value
