"""Volume coefficients against intersection numbers, sharing no code with
the recursion.

Mirzakhani (JAMS 2007; see also Do, arXiv:1103.4674):

    V_{g,n}(L) = sum_{|d| + m = 3g - 3 + n} (2 pi^2)^m <kappa_1^m tau_d>_g
                 / (2^|d| d! m!) * prod L_i^(2 d_i),

so the coefficient of x^d pi^(2m), x_i = L_i^2, is
2^m <kappa_1^m tau_d>_g / (2^|d| d! m!).  The psi-class numbers <tau_d>_g
come from the DVV (Virasoro) recursion, Witten's conjecture proved by
Kontsevich, from <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  kappa_1 is removed
by Kaufmann-Manin-Zagier / Arbarello-Cornalba:

    <kappa_1^m tau_d>_g = sum_{k=1}^{m} (-1)^(m-k) / k!
        sum_{m_1 + ... + m_k = m, m_i >= 1} m! / (m_1! ... m_k!)
        <tau_d tau_{m_1+1} ... tau_{m_k+1}>_g.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from wpcone.recursion import boundary_volume


def double_factorial(n):
    """n!! for odd n >= -1, with (-1)!! = 1."""
    return math.prod(range(n, 0, -2))


def sub_multisets(d):
    """(first, rest, multiplicity) for each sub-multiset of a sorted tuple;
    the multiplicity counts the index subsets behind it."""
    runs = [(v, len(list(run))) for v, run in itertools.groupby(d)]
    for picks in itertools.product(*(range(c + 1) for _, c in runs)):
        first = tuple(v for (v, _), p in zip(runs, picks) for _ in range(p))
        rest = tuple(v for (v, c), p in zip(runs, picks) for _ in range(c - p))
        yield first, rest, math.prod(math.comb(c, p) for (_, c), p in zip(runs, picks))


def psi(g, d):
    return _psi(g, tuple(sorted(d)))


@lru_cache(maxsize=None)
def _psi(g, d):
    """<tau_{d_1} ... tau_{d_n}>_g by DVV on the largest index, d sorted."""
    n = len(d)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    if (g, d) == (1, (1,)):
        return Fraction(1, 24)
    k, rest = d[-1] - 1, d[:-1]
    total = Fraction(0)
    for i, v in enumerate(rest):
        others = rest[:i] + rest[i + 1 :]
        weight = Fraction(
            double_factorial(2 * k + 2 * v + 1), double_factorial(2 * v - 1)
        )
        total += weight * psi(g, others + (v + k,))
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        total += weight * psi(g - 1, rest + (r, s))
    for g1 in range(g + 1):
        for first, second, mult in sub_multisets(rest):
            # the dimension constraint fixes r on the first side
            r = 3 * g1 - 2 + len(first) - sum(first)
            s = k - 1 - r
            if r < 0 or s < 0:
                continue
            pair = double_factorial(2 * r + 1) * double_factorial(2 * s + 1)
            sides = psi(g1, first + (r,)) * psi(g - g1, second + (s,))
            total += Fraction(pair, 2) * mult * sides
    return total / double_factorial(2 * k + 3)


def compositions(m, k):
    """Ordered k-tuples of positive integers summing to m."""
    for cuts in itertools.combinations(range(1, m), k - 1):
        bounds = (0,) + cuts + (m,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def kappa_psi(g, m, d):
    """<kappa_1^m tau_d>_g through the KMZ sum."""
    if m == 0:
        return psi(g, d)
    total = Fraction(0)
    for k in range(1, m + 1):
        inner = Fraction(0)
        for parts in compositions(m, k):
            multinomial = math.factorial(m)
            for p in parts:
                multinomial //= math.factorial(p)
            inner += multinomial * psi(g, d + tuple(p + 1 for p in parts))
        total += Fraction((-1) ** (m - k), math.factorial(k)) * inner
    return total


def expected_terms(g, n):
    """The volume's pi-graded terms from intersection numbers."""
    top = 3 * g - 3 + n
    terms = {}
    for d in itertools.product(range(top + 1), repeat=n):
        m = top - sum(d)
        if m < 0:
            continue
        value = kappa_psi(g, m, d) * 2**m / (
            2 ** sum(d) * math.prod(math.factorial(e) for e in d) * math.factorial(m)
        )
        if value:
            terms[d] = {2 * m: value}
    return terms


def test_dvv_reproduces_known_numbers():
    assert psi(0, (0, 0, 0, 1)) == 1
    assert psi(1, (1, 1)) == Fraction(1, 24)  # dilaton
    assert psi(2, (4,)) == Fraction(1, 1152)
    assert psi(3, (7,)) == Fraction(1, 82944)
    assert psi(2, (2, 3)) == Fraction(29, 5760)


@pytest.mark.parametrize(
    "g,n",
    [(g, n) for g in range(3) for n in range(1, 5) if 2 * g - 2 + n > 0],
)
def test_every_coefficient_is_an_intersection_number(g, n):
    assert boundary_volume(g, n).terms == expected_terms(g, n), (g, n)


@pytest.mark.parametrize("g", range(1, 6))
def test_leading_one_boundary_coefficient(g):
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    top = 3 * g - 2
    assert psi(g, (top,)) == Fraction(1, 24**g * math.factorial(g))
    expect = Fraction(1, 2**top * math.factorial(top) * 24**g * math.factorial(g))
    assert boundary_volume(g, 1, max_moment_k=None).terms[(top,)] == {0: expect}


@pytest.mark.parametrize("n", range(3, 9))
def test_genus_zero_top_slice(n):
    # <tau_d>_0 = (n - 3)! / prod d_i! when |d| = n - 3
    vol = boundary_volume(0, n, max_moment_k=None).terms
    top = {d: graded for d, graded in vol.items() if sum(d) == n - 3}
    # the weak compositions of n - 3 into n parts, by stars and bars
    bars = list(itertools.combinations(range(2 * n - 4), n - 1))
    assert len(top) == len(bars)
    for cut in bars:
        d = tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (2 * n - 4,)))
        fact = math.prod(math.factorial(e) for e in d)
        expect = Fraction(math.factorial(n - 3), fact * fact * 2 ** (n - 3))
        assert top[d] == {0: expect}, d
