"""Exact identities from outside the recursion.

Every check here is an exact substitution in Q[pi^2]: volumes are read as
{x-exponents: {pi-exponent: Fraction}} with x = L^2 per slot, and a boundary
of length 2*pi*i (x = -4 pi^2) or a cone of angle 2*pi (theta^2 = +4 pi^2)
is substituted symbolically.  No floats are involved, so these gates do not
share the recursion's cut structure, kernels or quadrature.
"""

import math
from fractions import Fraction

import pytest

from wpcone.recursion import boundary_volume, cone_volume_direct

Q = Fraction

# stable (g, n) with g <= 2 and 1 <= n <= 4
STABLE = [
    (g, n) for g in range(3) for n in range(1, 5) if 2 * g - 2 + n > 0
]
# the benchmark ladder's scale and the (g <= 8, 1) end of the ROADMAP ladder,
# V_{g,n+1} up to (0, 8), (5, 2) and (8, 2) against V_{g,n}; (2, 3) is in STABLE
LADDER = [(0, 7), (1, 5), (3, 2), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)]


def _add(out, xexp, piexp, coeff):
    graded = out.setdefault(xexp, {})
    graded[piexp] = graded.get(piexp, 0) + coeff
    if not graded[piexp]:
        del graded[piexp]
        if not graded:
            del out[xexp]


def at_last_slot(terms, x):
    """Substitute x_last = x * pi^2 (x rational) into a polynomial."""
    out = {}
    for xexp, graded in terms.items():
        e = xexp[-1]
        for piexp, coeff in graded.items():
            _add(out, xexp[:-1], piexp + 2 * e, coeff * x ** e)
    return out


def string_rhs(terms):
    """sum_k int_0^{L_k} L_k V dL_k: x^e -> x^(e + delta_k) / (2 e_k + 2)."""
    out = {}
    for xexp, graded in terms.items():
        for k, ek in enumerate(xexp):
            raised = xexp[:k] + (ek + 1,) + xexp[k + 1 :]
            for piexp, coeff in graded.items():
                _add(out, raised, piexp, coeff / (2 * ek + 2))
    return out


def derivative_at_last_slot(terms, x):
    """d/dx_last, then x_last = x * pi^2."""
    shifted = {}
    for xexp, graded in terms.items():
        e = xexp[-1]
        if e:
            for piexp, coeff in graded.items():
                _add(shifted, xexp[:-1] + (e - 1,), piexp, coeff * e)
    return at_last_slot(shifted, x)


def dilaton(terms, chi):
    """Do-Norbury: dV_{g,n+1}/dL (2 pi i) = 2 pi i chi V_{g,n}, chi = 2g - 2 + n;
    with x = L^2 this gives V_{g,n} = 2 V'_{g,n+1}(x = -4 pi^2) / chi."""
    return {
        xexp: {q: 2 * c / chi for q, c in graded.items()}
        for xexp, graded in derivative_at_last_slot(terms, Q(-4)).items()
    }


def volume(g, n):
    return boundary_volume(g, n, max_moment_k=None).terms


# -- the same identities on orbit keys ------------------------------------------
#
# A volume keeps one numerator per orbit: its key is the exponent vector
# sorted within each block of symmetric slots, and each distinct entry of a
# key stands for its count of slots.  These helpers apply the substitution,
# the slot derivative and the slot integral per orbit key, so the wide ends
# of the ladder are checked without expanding a volume to every exponent
# vector.  A map {key: c} reads c * x^key * pi^(2 * (degree - sum(key))).


def orbit_form(poly):
    """(degree, {orbit key: Fraction})."""
    den, nums, degree = poly.orbits
    return degree, {key: Q(num, den) for key, num in nums.items()}


def _less(key, w):
    i = key.index(w)
    return key[:i] + key[i + 1 :]


def _raise(key, u):
    """key with one entry u raised to u + 1, still non-increasing."""
    i = key.index(u)
    return key[:i] + (u + 1,) + key[i + 1 :]


def orbit_at_last_slot(poly, x, own_block=False, derivative=False):
    """x_last = x * pi^2 (after d/dx_last if derivative) on orbit keys.  The
    last slot is one more entry of the single block, or a block of its own
    (own_block: the direct cone path's cone).  Each key y of the other slots
    collects V[y with w] x^w over the last slot's exponent w: one term per
    distinct entry w of each key of V."""
    degree, coeffs = orbit_form(poly)
    out = {}
    for key, c in coeffs.items():
        for w in (key[-1],) if own_block else set(key):
            rest = key[:-1] if own_block else _less(key, w)
            term = w * c * x ** (w - 1) if derivative else c * x**w
            out[rest] = out.get(rest, 0) + term
    return degree - derivative, {y: c for y, c in out.items() if c}


def orbit_string_rhs(poly):
    """sum_k int_0^{L_k} L_k V dL_k on orbit keys: raising one entry u of a
    key to u + 1 divides by 2u + 2, and every slot of the raised key that
    holds u + 1 is a slot the integral may have raised."""
    degree, coeffs = orbit_form(poly)
    out = {}
    for key, c in coeffs.items():
        for u in set(key):
            raised = _raise(key, u)
            out[raised] = out.get(raised, 0) + raised.count(u + 1) * c / (2 * u + 2)
    return degree + 1, out


def orbit_dilaton(poly, chi):
    """V_{g,n} = 2 V'_{g,n+1}(x = -4 pi^2) / chi on orbit keys."""
    degree, coeffs = orbit_at_last_slot(poly, Q(-4), derivative=True)
    return degree, {y: 2 * c / chi for y, c in coeffs.items()}


def boundary(g, n):
    return boundary_volume(g, n, max_moment_k=None)


# the north-star ends of the ROADMAP ladder: V_{0,11} and V_{1,8} against
# V_{0,10} and V_{1,7}, too wide for the Fraction view; a few smaller
# signatures check the orbit helpers where the Fraction helpers also run
NORTH_STAR = [(0, 10), (1, 7), (0, 4), (1, 3), (2, 2), (3, 1)]


@pytest.mark.parametrize("g,n", NORTH_STAR)
def test_string_equation_on_orbit_keys_boundary_path(g, n):
    assert orbit_at_last_slot(boundary(g, n + 1), Q(-4)) == orbit_string_rhs(boundary(g, n))


@pytest.mark.parametrize("g,n", NORTH_STAR)
def test_string_equation_on_orbit_keys_direct_cone_path(g, n):
    cone = cone_volume_direct(g, n, 1, max_moment_k=None)
    lhs = orbit_at_last_slot(cone, Q(4), own_block=True)
    assert lhs == orbit_string_rhs(boundary(g, n))


@pytest.mark.parametrize("g,n", NORTH_STAR)
def test_dilaton_equation_on_orbit_keys(g, n):
    assert orbit_dilaton(boundary(g, n + 1), 2 * g - 2 + n) == orbit_form(boundary(g, n))


@pytest.mark.parametrize("g,n", STABLE + LADDER)
def test_string_equation_boundary_path(g, n):
    # V_{g,n+1}(L, 2 pi i) = sum_k int_0^{L_k} L_k V_{g,n}(L) dL_k
    assert at_last_slot(volume(g, n + 1), Q(-4)) == string_rhs(volume(g, n))


@pytest.mark.parametrize("g,n", STABLE + LADDER)
def test_string_equation_direct_cone_path(g, n):
    # a cone of angle 2 pi is the boundary of length 2 pi i; the cone
    # variable theta^2 carries the sign, so it is set to +4 pi^2
    lhs = at_last_slot(cone_volume_direct(g, n, 1, max_moment_k=None).terms, Q(4))
    assert lhs == string_rhs(volume(g, n))


@pytest.mark.parametrize("g,n", STABLE + LADDER)
def test_dilaton_equation_with_boundaries(g, n):
    assert dilaton(volume(g, n + 1), 2 * g - 2 + n) == volume(g, n)


@pytest.mark.parametrize(
    "g,published",
    [(2, {(): {6: Q(43, 2160)}}), (3, {(): {12: Q(176557, 1209600)}})],
)
def test_dilaton_gives_published_closed_volumes(g, published):
    assert dilaton(volume(g, 1), 2 * g - 2) == published


def test_published_four_holed_sphere_and_one_holed_torus():
    # V_{0,4} = (4 pi^2 + sum L_i^2) / 2 and V_{1,1} = (L^2 + 4 pi^2) / 48
    v04 = {(0, 0, 0, 0): {2: Q(2)}}
    for i in range(4):
        v04[tuple(int(j == i) for j in range(4))] = {0: Q(1, 2)}
    assert boundary_volume(0, 4).terms == v04
    assert boundary_volume(1, 1).terms == {(1,): {0: Q(1, 48)}, (0,): {2: Q(1, 12)}}


def test_mirzakhani_zograf_ratio_rises_toward_one():
    # Mirzakhani-Zograf (arXiv:1112.1151): V_{g,2}(0) / ((2g - 1) V_{g,1}(0))
    # tends to 4 pi^2 as g grows.  V_{g,n}(0) is c_{g,n} pi^(2(3g - 3 + n)),
    # so the ratio over 4 pi^2 is the rational c_{g,2} / (4 (2g - 1) c_{g,1}).
    def constant_term(g, n):
        den, nums, _ = boundary_volume(g, n, max_moment_k=None).numerators
        return Q(nums[(0,) * n], den)

    ratios = [
        constant_term(g, 2) / (4 * (2 * g - 1) * constant_term(g, 1))
        for g in range(1, 9)
    ]
    assert ratios[0] == Q(3, 4)  # V_{1,2}(0) = pi^4 / 4, V_{1,1}(0) = pi^2 / 12
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1
    expected = [0.7500, 0.9046, 0.9416, 0.9580, 0.9672, 0.9731, 0.9773, 0.9803]
    assert [round(float(r), 4) for r in ratios] == expected


def test_zograf_genus_zero_recursion_gives_every_constant_term():
    # Zograf (1993): V_{0,n}(0) = (2 pi^2)^(n-3) v_n / (n-3)!, with v_3 = 1
    # and v_n = 1/2 sum_{i=1}^{n-3} i (n-2-i) / (n-1) C(n-4, i-1) C(n, i+1)
    # v_{i+2} v_{n-i}, a recursion over the boundary divisors of the
    # punctured sphere that shares nothing with the cut structure
    v = {3: Q(1)}
    for n in range(4, 15):
        v[n] = sum(
            Q(i * (n - 2 - i), n - 1) * math.comb(n - 4, i - 1)
            * math.comb(n, i + 1) * v[i + 2] * v[n - i]
            for i in range(1, n - 2)
        ) / 2
    assert [v[n] for n in range(4, 8)] == [1, 5, 61, 1379]
    for n in range(4, 15):
        den, nums, degree = boundary(0, n).orbits
        assert degree == n - 3
        assert Q(nums[(0,) * n], den) == 2 ** (n - 3) * v[n] / math.factorial(n - 3), n
