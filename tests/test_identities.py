"""Exact identities from outside the recursion.

Every check here is an exact substitution in Q[pi^2]: volumes are read as
{x-exponents: {pi-exponent: Fraction}} with x = L^2 per slot, and a boundary
of length 2*pi*i (x = -4 pi^2) or a cone of angle 2*pi (theta^2 = +4 pi^2)
is substituted symbolically.  No floats are involved, so these gates do not
share the recursion's cut structure, kernels or quadrature.
"""

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
