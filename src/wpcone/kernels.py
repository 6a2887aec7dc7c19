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
against adaptive quadrature by the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from wpcone.polyalg import VolumePolynomial

#: Largest moment index the volume recursion will request by default.  A
#: signature (g, m, n) needs moments up to k = 3g - 4 + m + n; raise the
#: max_moment_k configuration knob to go beyond the default.
DEFAULT_MAX_MOMENT_K = 12


# -- boundary data -----------------------------------------------------------


@dataclass(frozen=True)
class BoundaryLabel:
    """One end of a surface: a geodesic boundary, a cone point, or a cusp.

    A cone point of angle theta behaves throughout as a boundary of imaginary
    length i*theta; a cusp is the zero-length limit of either.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "geodesic":
            if not self.value > 0:
                raise ValueError("geodesic boundary length must be positive")
        elif self.kind == "cone":
            if not 0 < self.value <= math.pi:
                raise ValueError(
                    "cone angle must lie in (0, pi]; wider cones obstruct the "
                    "pants decompositions this computation relies on"
                )
        elif self.kind == "cusp":
            if self.value:
                raise ValueError("a cusp carries no length or angle")
        else:
            raise ValueError(f"unknown boundary kind {self.kind!r}")

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


@dataclass(frozen=True)
class GapKernel:
    """A pants gap on the distinguished curve gamma.

    The pants has boundary gamma plus alpha and beta.  beta is always an
    interior simple closed geodesic.  alpha is either a second interior
    geodesic (alpha_interior=True) or a fixed end of the surface: a geodesic
    boundary, a cone point, or a cusp.
    """

    gamma: BoundaryLabel
    alpha: BoundaryLabel
    beta: BoundaryLabel
    alpha_interior: bool = False

    def __post_init__(self) -> None:
        if self.gamma.kind == "cusp":
            raise ValueError("the distinguished curve must carry a length or angle")
        if self.beta.kind != "geodesic":
            raise ValueError("beta must be an interior simple closed geodesic")
        if self.alpha_interior and self.alpha.kind != "geodesic":
            raise ValueError("an interior alpha must be a geodesic")


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
        s = (k.alpha.value + b) / 2
        u = cmath.sinh(g / 2) / (cmath.cosh(g / 2) + math.exp(s))
        return 2 * cmath.atanh(u)
    tau = _partner_tau(k.alpha)
    ratio = (tau + cmath.cosh((g + b) / 2)) / (tau + cmath.cosh((g - b) / 2))
    return (g - cmath.log(ratio)) / 2


def gap_dgamma(k: GapKernel) -> complex:
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


# -- the one-cone torus kernel ------------------------------------------------


def _check_theta_x(theta: float, x: float) -> None:
    if not 0 < theta <= math.pi:
        raise ValueError("cone angle must lie in (0, pi]")
    if not x > 0:
        raise ValueError("geodesic length must be positive")


def cone_torus_kernel(theta: float, x: float, doubled: bool = False) -> float:
    """Gap width on the cone point of a one-cone torus, from a geodesic of
    length x: 2*atan(sin(theta/2) / (cos(theta/2) + e^x)).

    Summed over all simple closed geodesics this normalization recovers
    theta/2.  The logarithmic form of the same identity carries an extra
    factor of two; pass doubled=True for that variant.  Evaluated through
    e^(-x) so arbitrarily long geodesics cannot overflow.
    """
    _check_theta_x(theta, x)
    w = math.exp(-x)
    val = 2 * math.atan(
        math.sin(theta / 2) * w / (1 + math.cos(theta / 2) * w)
    )
    return 2 * val if doubled else val


def cone_torus_kernel_dtheta(theta: float, x: float) -> float:
    """theta-derivative of cone_torus_kernel (identity normalization).

    Equals half the conjugate-pair sum 1/(1+e^(x - i theta/2)) +
    1/(1+e^(x + i theta/2)), i.e. pairing_kernel(2x, i*theta)/2; the
    imaginary parts cancel exactly.
    """
    _check_theta_x(theta, x)
    z = pairing_kernel(2 * x, 1j * theta)
    if abs(z.imag) > 1e-13 * max(1.0, abs(z.real)):
        raise RuntimeError("conjugate pair failed to cancel")
    return z.real / 2


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


# -- exact moment integrals ---------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli(j)
    return -acc / (n + 1)


def zeta_even(m: int) -> Fraction:
    """zeta(2m) as a rational multiple of pi^(2m)."""
    if m < 1:
        raise ValueError("zeta_even expects m >= 1")
    sign = 1 if m % 2 else -1
    return Fraction(sign * 2 ** (2 * m - 1), math.factorial(2 * m)) * _bernoulli(
        2 * m
    )


def eta_even(m: int) -> Fraction:
    """Alternating zeta value eta(2m) = (1 - 2^(1-2m)) zeta(2m), over pi^(2m)."""
    return (1 - Fraction(1, 2 ** (2 * m - 1))) * zeta_even(m)


@lru_cache(maxsize=None)
def _moment_poly(k: int) -> VolumePolynomial:
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


def moment_integral(
    k: int, max_k: Optional[int] = DEFAULT_MAX_MOMENT_K
) -> VolumePolynomial:
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
    check_moment_index(k, max_k)
    return _moment_poly(k)


def check_moment_index(k: int, max_k: Optional[int]) -> None:
    """Raise if moment index k exceeds the max_moment_k cap (None lifts it)."""
    if max_k is not None and k > max_k:
        raise ValueError(
            f"moment index {k} exceeds max_moment_k={max_k}; raise the "
            "max_moment_k configuration knob to allow this computation"
        )


# -- numerical quadrature oracle ----------------------------------------------


def integrate_decaying(
    f: Callable[[float], float],
    a: float = 0.0,
    upper: Optional[float] = None,
    tol: float = 1e-10,
) -> float:
    """Integrate a smooth, exponentially decaying integrand on [a, upper].

    With upper=None the truncation point is chosen adaptively: starting from
    X = 40, X grows until both |f(X+3)| <= |f(X)|/2 (the decay is actually
    exponential there) and |f| <= tol/80 at both probes.  Summing the implied
    geometric bound over steps of 3, the discarded tail is below 6*|f(X)|
    <= tol/13, comfortably inside the budget.  The finite integral is then
    handed to adaptive Gauss-Kronrod quadrature and the reported error
    estimate must meet tol, read relative for values beyond unit size (an
    absolute 1e-10 on an integral of size 1e8 would demand more than double
    precision holds).
    """
    from scipy.integrate import quad

    if upper is None:
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
    value, err = quad(f, a, upper, epsabs=tol / 10, epsrel=1e-10, limit=400)
    if err > tol * max(1.0, abs(value)):
        raise RuntimeError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}"
        )
    return value
