"""Exact recursion computing the volume polynomials V_{g,m,n}.

The volume of the moduli space of genus-g hyperbolic surfaces with N
geodesic boundaries satisfies an integral recursion in a distinguished
boundary: differentiating half the boundary length times the volume produces
a sum of pairing-kernel integrals against lower volumes.  Because every
integral is an odd moment of the pairing kernel, the whole right-hand side
collapses to exact polynomial algebra through moment_integral, and the
recursion runs entirely over rationals.

Cone points enter by substitution: a cone of angle theta is a boundary of
imaginary length i*theta, so the primary computation path evaluates the
all-boundary polynomial and substitutes -theta^2 for the squared length on
each cone slot.  An independent direct path (cone_volume_direct) re-runs the
recursion with the distinguished slot an actual cone and the kernels
evaluated at imaginary length; the two must agree exactly, term by term.
Both paths run through the one assembly below (_rhs); they differ only in
which slot is distinguished and in the signs an angle slot puts on the
kernel moments.

The right-hand side for distinguished boundary 1 of V_{g,N} has four parts:

  * non-separating: cutting along a pants bounded by boundary 1 and two
    interior geodesics x, y that stay connected: the double moment of
    V_{g-1, N+1}(x, y, rest), weight 1/4;
  * separating: the same pants disconnects the surface into an ordered pair
    of stable pieces sharing out genus and the remaining slots, weight 1/4;
  * boundary pairing: a pants bounded by boundary 1, another boundary j and
    one interior geodesic x: single moments of V_{g, N-1} at shifted
    arguments, weight 1/4;
  * the one-handled torus cap: for (g, N) = (1, 1) the interior geodesic
    bounds the handle by itself and contributes the bare first moment with
    weight 1/16.

The stored one-handled-torus volume is x/48 + pi^2/12: it already carries
the half coming from the elliptic involution of the torus, so no splitting
term applies any further weight for that piece.

Working form.  The recursion computes on polyalg.Numerators: one integer
denominator, a map {exponent vector: integer numerator} and the degree.
The pi-power is not stored: a volume of degree d = 3g - 3 + m + n is
homogeneous, so the term x^e carries pi^(2(d - sum(e))), and every
transform above preserves that (a moment F_{2k+1} has t^(2r) with
pi^(2(k+1-r)), asserted when the weight tables are built).  The weights of
each transform (1/4 times the pair coefficient times a moment coefficient,
or 1/4 * 2 * C(2r, 2i) times a moment coefficient for a pairing, with the
signs of the angle slots) are precomputed as integers over one denominator
per table, so assembly is integer multiply-adds.  Inverting d(l V/2)/dl is
V[e] = 2 rhs[e] / (2 e_l + 1), after which one gcd reduces the signature's
numerators and denominator.  The homogeneity check (_assert_homogeneous)
runs on every memoized volume at that point: each term's x-degree must stay
at most d, or its implied pi-power would be negative.  The memo holds
VolumePolynomial objects that carry their working form; their Fraction
terms are built only if a caller reads them (polyalg.from_numerators).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from wpcone.kernels import (
    DEFAULT_MAX_MOMENT_K,
    check_moment_index,
    moment_integral,
    pairing_kernel,
)
from wpcone.polyalg import Exponent, Numerators, VolumePolynomial, from_numerators

#: Caps on user-requested signatures; the recursion itself has no intrinsic
#: limit, these keep accidental inputs from launching week-long computations.
DEFAULT_MAX_GENUS = 5
DEFAULT_MAX_SLOTS = 8


@dataclass(frozen=True)
class SurfaceSignature:
    """Topological type: genus, geodesic-boundary count, cone-point count."""

    genus: int
    boundaries: int
    cones: int

    def __post_init__(self) -> None:
        if min(self.genus, self.boundaries, self.cones) < 0:
            raise ValueError("signature components must be nonnegative")
        if 2 * self.genus - 2 + self.boundaries + self.cones <= 0:
            raise ValueError(
                f"signature (g={self.genus}, m={self.boundaries}, "
                f"n={self.cones}) is unstable: needs 2g - 2 + m + n > 0"
            )

    @property
    def slots(self) -> int:
        return self.boundaries + self.cones

    @property
    def dimension(self) -> int:
        """Real dimension of the moduli space, 6g - 6 + 2(m + n)."""
        return 6 * self.genus - 6 + 2 * self.slots


def delta_factor(sig: SurfaceSignature) -> int:
    """1 for the one-handled torus (1, 1, 0), else 0.

    Marks the signature whose stored volume already absorbs the factor half
    from the elliptic involution; assembly applies no further weight.
    """
    return int((sig.genus, sig.boundaries, sig.cones) == (1, 1, 0))


@dataclass(frozen=True)
class Splitting:
    """One ordered way a separating pants cut shares out genus and slots.

    Slot indices refer to the parent surface; each side additionally receives
    one new boundary (the pants curve it meets).  one_handle_* records which
    sides are bare one-handled tori -- informational only, since the stored
    torus volume is already halved (see the module docstring).
    """

    genus_first: int
    genus_second: int
    boundaries_first: Tuple[int, ...]
    boundaries_second: Tuple[int, ...]
    cones_first: Tuple[int, ...]
    cones_second: Tuple[int, ...]

    @property
    def one_handle_first(self) -> int:
        return int(
            self.genus_first == 1
            and not self.boundaries_first
            and not self.cones_first
        )

    @property
    def one_handle_second(self) -> int:
        return int(
            self.genus_second == 1
            and not self.boundaries_second
            and not self.cones_second
        )


def _subsets(items: Sequence[int]):
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def enumerate_splittings(
    sig: SurfaceSignature, distinguished_slot: int = 0
) -> List[Splitting]:
    """All ordered stable splittings, in a fixed deterministic order.

    A side with genus h receiving k of the remaining slots is stable iff
    2h + k >= 2 (it keeps the new pants boundary as well).  Ordered pairs:
    an asymmetric split appears once per orientation.
    """
    if not 0 <= distinguished_slot < sig.slots:
        raise ValueError("distinguished slot out of range")
    bounds = [i for i in range(sig.boundaries) if i != distinguished_slot]
    cones = [
        i
        for i in range(sig.boundaries, sig.slots)
        if i != distinguished_slot
    ]
    out: List[Splitting] = []
    for g1 in range(sig.genus + 1):
        g2 = sig.genus - g1
        for I1 in _subsets(bounds):
            I2 = tuple(i for i in bounds if i not in I1)
            for J1 in _subsets(cones):
                J2 = tuple(i for i in cones if i not in J1)
                if 2 * g1 + len(I1) + len(J1) < 2:
                    continue
                if 2 * g2 + len(I2) + len(J2) < 2:
                    continue
                out.append(Splitting(g1, g2, I1, I2, J1, J2))
    return out


# -- memoization ---------------------------------------------------------------

# (g, m, n) -> volume from the recursion: the all-boundary recursion when
# n == 0, the direct cone path (first cone distinguished) otherwise
_RECURSION_MEMO: Dict[Tuple[int, int, int], VolumePolynomial] = {}
_MEMO_LOCK = threading.Lock()


def clear_memo() -> None:
    """Drop all memoized volumes (mainly for tests and benchmarks)."""
    with _MEMO_LOCK:
        _RECURSION_MEMO.clear()


def _memo_get(table, key):
    with _MEMO_LOCK:
        return table.get(key)


def _memo_put(table, key, value):
    # first writer wins; concurrent computations of the same key produce
    # identical exact polynomials, so returning the stored one keeps the
    # table linearizable
    with _MEMO_LOCK:
        return table.setdefault(key, value)


# -- integer weight tables -------------------------------------------------------


def _pair_coefficient(a: int, b: int) -> Fraction:
    """The double moment collapses to a single one:

    int_0^inf int_0^inf x^(2a+1) y^(2b+1) h(x+y, t) dx dy
        = (2a+1)! (2b+1)! / (2a+2b+3)!  *  F_{2(a+b+1)+1}(t),

    by integrating the pairing kernel along lines x + y = const (the inner
    Euler beta integral produces the factorial ratio).  Certified directly
    against two-dimensional quadrature in the test suite.
    """
    return Fraction(
        math.factorial(2 * a + 1) * math.factorial(2 * b + 1),
        math.factorial(2 * a + 2 * b + 3),
    )


@lru_cache(maxsize=None)
def _moment_coefficients(k: int) -> Tuple[Fraction, ...]:
    """c_0..c_{k+1} with F_{2k+1}(t) = sum_r c_r pi^(2(k+1-r)) t^(2r).

    Asserts that pi-power, on which the implied pi-powers of the working
    form rest.
    """
    coeffs = [Fraction(0)] * (k + 2)
    for (r,), graded in moment_integral(k, max_k=None).terms.items():
        q = 2 * (k + 1 - r)
        if list(graded) != [q]:
            raise RuntimeError(
                f"moment F_{2 * k + 1} has pi-powers {sorted(graded)} on "
                f"t^{2 * r}; homogeneity needs exactly pi^{q}"
            )
        coeffs[r] = graded[q]
    return tuple(coeffs)


def _over_common_denominator(weights: Dict[tuple, Fraction]):
    """(den, {key: integer numerator}) with weights[key] = numerator / den."""
    den = math.lcm(*(w.denominator for w in weights.values()))
    return den, {
        key: w.numerator * (den // w.denominator) for key, w in weights.items()
    }


def _angle_sign(is_angle: bool, power: int) -> int:
    """(i theta)^(2 power) = (-1)^power theta^(2 power) on an angle slot."""
    return -1 if is_angle and power % 2 else 1


@lru_cache(maxsize=None)
def _double_table(kmax: int, dist_is_angle: bool):
    """(den, {(a, b): ((r, w), ...)}) for the double moment of cut-slot
    exponents a, b with a + b + 1 <= kmax: x^a y^b becomes
    sum_r (w / den) t^(2r), w / den = 1/4 * pair coefficient(a, b) * c_r of
    F_{2(a+b+1)+1}, signed when the distinguished slot t is an angle."""
    weights: Dict[tuple, Fraction] = {}
    for k in range(1, kmax + 1):
        coeffs = _moment_coefficients(k)
        for a in range(k):
            quarter_pair = _pair_coefficient(a, k - 1 - a) / 4
            for r, c in enumerate(coeffs):
                sign = _angle_sign(dist_is_angle, r)
                weights[a, k - 1 - a, r] = quarter_pair * c * sign
    den, ints = _over_common_denominator(weights)
    table: Dict[Tuple[int, int], list] = {}
    for (a, b, r), w in ints.items():
        table.setdefault((a, b), []).append((r, w))
    return den, {ab: tuple(entries) for ab, entries in table.items()}


@lru_cache(maxsize=None)
def _pair_table(
    kmax: int, dist_is_angle: bool, partner_is_angle: bool, partner_first: bool
):
    """(den, {k: ((u, v, w), ...)}) for a pairing with cut-slot exponent
    k <= kmax.  F(t+s) + F(t-s) expands through the binomial theorem (odd
    powers cancel): writing F(t) = sum_r c_r t^(2r),

        F(t+s) + F(t-s) = 2 sum_r c_r sum_{i=0}^{r} C(2r, 2i) t^(2(r-i)) s^(2i)

    with t the distinguished slot and s the partner; an angle slot
    contributes (i*theta)^(2j) = (-1)^j theta^(2j).  Each entry carries
    w / den = 1/4 * 2 * C(2r, 2i) * c_r with its signs, and the exponents
    (u, v) of the lower- and higher-numbered of the two slots: (r-i, i), or
    (i, r-i) when the partner comes first."""
    weights: Dict[tuple, Fraction] = {}
    for k in range(kmax + 1):
        for r, c in enumerate(_moment_coefficients(k)):
            for i in range(r + 1):
                sign = _angle_sign(dist_is_angle, r - i) * _angle_sign(
                    partner_is_angle, i
                )
                uv = (i, r - i) if partner_first else (r - i, i)
                weights[(k,) + uv] = Fraction(sign * math.comb(2 * r, 2 * i), 2) * c
    den, ints = _over_common_denominator(weights)
    table: Dict[int, list] = {}
    for (k, u, v), w in ints.items():
        table.setdefault(k, []).append((u, v, w))
    return den, {k: tuple(entries) for k, entries in table.items()}


@lru_cache(maxsize=None)
def _cap_table(dist_is_angle: bool):
    """(den, ((r, w), ...)): the one-handled torus cap, 1/16 F_1(t)."""
    weights = {
        r: c / 16 * _angle_sign(dist_is_angle, r)
        for r, c in enumerate(_moment_coefficients(0))
    }
    den, ints = _over_common_denominator(weights)
    return den, tuple(ints.items())


# -- integer kernels -------------------------------------------------------------

# A push adds one cut group's numerators into `out`; the group's own
# denominator times `scale` is the denominator of the whole right-hand side.


def _double_moment_terms(out: Dict[Exponent, int], dist: int, table, pairs) -> None:
    """Accumulate the non-separating/separating transform.

    pairs yields (a, b, rest, n): the exponents of the two cut slots, the
    exponents of the surviving slots (every parent slot but dist, in order)
    and the term's scaled numerator.
    """
    for a, b, rest, n in pairs:
        head, tail = rest[:dist], rest[dist:]
        for r, w in table[a, b]:
            key = head + (r,) + tail
            out[key] = out.get(key, 0) + n * w


def _pair_sum_terms(
    out: Dict[Exponent, int], dist: int, partner: int, table, terms
) -> None:
    """Accumulate a boundary/cone pairing transform.

    terms yields (k, rest, n): the cut-slot exponent, the exponents of every
    parent slot but dist and partner (in order), and the scaled numerator.
    """
    lo, hi = min(dist, partner), max(dist, partner) - 1
    for k, rest, n in terms:
        head, mid, tail = rest[:lo], rest[lo:hi], rest[hi:]
        for u, v, w in table[k]:
            key = head + (u,) + mid + (v,) + tail
            out[key] = out.get(key, 0) + n * w


def _gather(order: Sequence[int]) -> Callable[[tuple], tuple]:
    """c -> tuple(c[i] for i in order); itemgetter returns a bare item for
    one index, so it serves two or more."""
    if len(order) > 1:
        return itemgetter(*order)
    return lambda c: tuple(c[i] for i in order)


def _push_nonseparating(sub: Numerators, dist: int, table, out, scale: int) -> None:
    # the piece's slots: x, y, then the survivors in parent order
    pairs = ((e[0], e[1], e[2:], n * scale) for e, n in sub.nums.items())
    _double_moment_terms(out, dist, table, pairs)


def _push_separating(
    sub1: Numerators, sub2: Numerators, sp: Splitting, dist: int, table, out, scale: int
) -> None:
    # each side's slots: the pants curve, then its share of the survivors
    slots = (
        sp.boundaries_first + sp.cones_first + sp.boundaries_second + sp.cones_second
    )
    gather = _gather(sorted(range(len(slots)), key=slots.__getitem__))
    second = [(e[0], e[1:], n) for e, n in sub2.nums.items()]

    def pairs():
        for e1, n1 in sub1.nums.items():
            a, rest1, scaled = e1[0], e1[1:], n1 * scale
            for b, rest2, n2 in second:
                yield a, b, gather(rest1 + rest2), scaled * n2

    _double_moment_terms(out, dist, table, pairs())


def _push_pairing(
    sub: Numerators, dist: int, partner: int, table, out, scale: int
) -> None:
    # the piece's slots: x, then the survivors other than the partner
    terms = ((e[0], e[1:], n * scale) for e, n in sub.nums.items())
    _pair_sum_terms(out, dist, partner, table, terms)


def _push_cap(table, out, scale: int) -> None:
    for r, w in table:
        out[(r,)] = out.get((r,), 0) + w * scale


def _run_jobs(jobs: List[Callable[[Dict[Exponent, int]], None]], threads: int):
    """Evaluate independent term groups.  Integer sums are exact, so the
    result is identical whatever the thread count."""
    total: Dict[Exponent, int] = {}
    if threads > 1 and len(jobs) > 1:

        def run(job):
            part: Dict[Exponent, int] = {}
            job(part)
            return part

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(run, jobs):
                for key, n in part.items():
                    total[key] = total.get(key, 0) + n
    else:
        for job in jobs:
            job(total)
    return total


# -- the recursion -----------------------------------------------------------------


def _sub_volume(g: int, m: int, n: int) -> Numerators:
    """Working form of a piece, through the memoized public entry points."""
    if n == 0:
        return boundary_volume(g, m, max_moment_k=None).numerators
    return cone_volume_direct(g, m, n, max_moment_k=None).numerators


def _rhs(g: int, m: int, n: int, threads: int) -> Numerators:
    """d(l V/2)/dl on the distinguished slot, in working form.

    The distinguished slot is boundary 0 when n == 0 and cone m otherwise.
    Sub-surface slot layouts stay canonical (new boundaries first, surviving
    lengths, then surviving cones), so every piece's exponents after its new
    boundaries are the parent's survivors in order.  Pairings: the
    distinguished slot is the gap's base curve and the surviving slot is the
    partner (the exact-equality test against the substitution path pins
    this reading).
    """
    nslots = m + n
    angle = n > 0
    dist = m if angle else 0
    length_partners = range(m) if angle else range(1, m)
    cone_partners = range(m + 1, nslots)
    ms, ns = len(length_partners), len(cone_partners)
    kmax = 3 * g - 4 + nslots  # the largest moment index any group needs
    wden, wtab = _double_table(kmax, angle)
    groups: List[Tuple[int, Callable]] = []  # (group denominator, push)

    # non-separating cut: two new boundaries x, y on one connected piece
    if g >= 1 and 2 * g - 3 + nslots > 0:
        sub = _sub_volume(g - 1, ms + 2, ns)
        groups.append((sub.den * wden, partial(_push_nonseparating, sub, dist, wtab)))

    # separating cuts: ordered stable pairs sharing genus and slots
    for sp in enumerate_splittings(SurfaceSignature(g, m, n), dist):
        sub1 = _sub_volume(
            sp.genus_first, len(sp.boundaries_first) + 1, len(sp.cones_first)
        )
        sub2 = _sub_volume(
            sp.genus_second, len(sp.boundaries_second) + 1, len(sp.cones_second)
        )
        groups.append(
            (
                sub1.den * sub2.den * wden,
                partial(_push_separating, sub1, sub2, sp, dist, wtab),
            )
        )

    # pairings: a pants swallows a surviving boundary (the piece trades it
    # for x) or a surviving cone (the piece trades it for a boundary x)
    if 2 * g - 3 + nslots > 0:
        for partners, piece, partner_angle in (
            (length_partners, (g, ms, ns), False),
            (cone_partners, (g, ms + 1, ns - 1), True),
        ):
            for partner in partners:
                sub = _sub_volume(*piece)
                pden, ptab = _pair_table(kmax, angle, partner_angle, partner < dist)
                groups.append(
                    (sub.den * pden, partial(_push_pairing, sub, dist, partner, ptab))
                )

    # one-handled torus cap: the bare first moment, weight 1/16
    if g == 1 and nslots == 1:
        cden, ctab = _cap_table(angle)
        groups.append((cden, partial(_push_cap, ctab)))

    den = math.lcm(*(d for d, _ in groups))
    jobs = [partial(push, scale=den // d) for d, push in groups]
    return Numerators(den, _run_jobs(jobs, threads), 3 * g - 3 + nslots)


def _invert(den: int, nums: Dict[tuple, int], slot: int):
    """Invert d(l V/2)/dl on an even slot: V[e] = 2 rhs[e] / (2 e_slot + 1),
    over the common multiple of the odd divisors, then one gcd reduction.
    Returns (den, nums)."""
    nums = {e: n for e, n in nums.items() if n}
    odd = math.lcm(*{2 * e[slot] + 1 for e in nums})
    out = {e: 2 * n * (odd // (2 * e[slot] + 1)) for e, n in nums.items()}
    den *= odd
    common = math.gcd(den, *out.values())
    return den // common, {e: n // common for e, n in out.items()}


def _assert_homogeneous(p: VolumePolynomial, degree: int) -> None:
    """No term of the volume's working form may exceed its degree: the
    implied pi-power 2 * (degree - sum(e)) must be >= 0."""
    for xexp in p.numerators.nums:
        if sum(xexp) > degree:
            raise RuntimeError(
                f"volume lost homogeneity: term {xexp} in a "
                f"degree-{degree} polynomial"
            )


def _check_moment_cap(g: int, nslots: int, max_moment_k: Optional[int]) -> None:
    """The recursion for (g, m + n = nslots) reads moments up to
    k = 3g - 4 + nslots; checked from the signature, never from memo state,
    so the recursion inside runs uncapped."""
    check_moment_index(3 * g - 4 + nslots, max_moment_k)


def _recurse(g: int, m: int, n: int, threads: int) -> VolumePolynomial:
    """Memoized V_{g,m,n}: the all-boundary recursion when n == 0, else the
    direct cone path with the first cone (slot m) distinguished."""
    key = (g, m, n)
    cached = _memo_get(_RECURSION_MEMO, key)
    if cached is not None:
        return cached
    if g == 0 and m + n == 3:
        result = from_numerators(3, 1, {(0, 0, 0): 1}, 0)
    elif n:
        rhs = from_numerators(m + n, *_rhs(g, m, n, threads))
        result = integrate_distinguished(rhs, m)
    else:
        rhs = assemble_rhs(g, m, threads=threads, max_moment_k=None)
        result = integrate_distinguished(rhs, 0)
    _assert_homogeneous(result, 3 * g - 3 + m + n)
    return _memo_put(_RECURSION_MEMO, key, result)


# -- public entry points -------------------------------------------------------


def boundary_volume(
    g: int,
    nslots: int,
    threads: int = 1,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
) -> VolumePolynomial:
    """Exact volume polynomial for genus g with nslots geodesic boundaries.

    Memoized by (g, nslots); slot roles (length vs angle) are attached later
    by substitution.  Raises for unstable signatures and for closed surfaces,
    which have no boundary to recurse on.
    """
    if nslots == 0:
        raise ValueError(
            "closed surfaces have no distinguished boundary to recurse on; "
            "add a boundary or cone point"
        )
    SurfaceSignature(g, nslots, 0)  # stability check
    _check_moment_cap(g, nslots, max_moment_k)
    return _recurse(g, nslots, 0, threads)


def assemble_rhs(
    g: int,
    nslots: int,
    threads: int = 1,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
) -> VolumePolynomial:
    """Right-hand side of the recursion: the exact polynomial equal to
    d(l_1 * V_{g,nslots} / 2)/dl_1, distinguished slot 0.

    See the module docstring for the four term groups and their weights.
    """
    SurfaceSignature(g, nslots, 0)
    if nslots < 1:
        raise ValueError("the recursion needs a distinguished boundary")
    if (g, nslots) == (0, 3):
        raise ValueError("the three-holed sphere is a base case, not assembled")
    _check_moment_cap(g, nslots, max_moment_k)
    return from_numerators(nslots, *_rhs(g, nslots, 0, threads))


def integrate_distinguished(rhs: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Invert d(l V/2)/dl on the distinguished slot.

    The recursion's own inversion (_invert): on the working form when rhs
    has one, else on each pi-grade of its terms.  Only an rhs even in the
    slot has an even preimage: an odd l-power there integrates to an even
    one whose division by l leaves an odd residue, and that raises.
    """
    if not 0 <= slot < rhs.num_vars:
        raise ValueError(f"slot {slot} out of range for {rhs.num_vars} variables")
    if rhs.parity[slot]:
        raise RuntimeError("division by the slot length leaves a nonzero residue")
    work = rhs.numerators
    if work is not None:
        return from_numerators(
            rhs.num_vars, *_invert(work.den, work.nums, slot), work.degree
        )
    # the pi-exponent rides along as a last coordinate the inversion ignores
    flat = {
        xexp + (piexp,): coeff
        for xexp, graded in rhs.terms.items()
        for piexp, coeff in graded.items()
    }
    den, nums = _invert(*_over_common_denominator(flat), slot)
    terms: Dict[Exponent, Dict[int, Fraction]] = {}
    for key, num in nums.items():
        terms.setdefault(key[:-1], {})[key[-1]] = Fraction(num, den)
    return VolumePolynomial(rhs.num_vars, terms, rhs.parity)


def compute_volume(
    sig: SurfaceSignature,
    threads: int = 1,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
    max_genus: Optional[int] = DEFAULT_MAX_GENUS,
    max_slots: Optional[int] = DEFAULT_MAX_SLOTS,
) -> VolumePolynomial:
    """Volume polynomial for (g, m, n): slots 0..m-1 are boundary lengths,
    slots m..m+n-1 are cone angles (squared-variable convention throughout).

    Computed on the all-boundary recursion, then each cone slot gets the
    imaginary substitution l -> i*theta, i.e. x -> -x, all slots in one
    pass over the memoized working form.  The substituted polynomial is not
    memoized: its Fraction terms, kept per (g, m, n), would cost more memory
    than the pass saves.  The caps bound only the requested signature, not
    the recursion's internal sub-surfaces; max_moment_k is checked as
    3g - 4 + m + n.
    """
    if max_genus is not None and sig.genus > max_genus:
        raise ValueError(
            f"genus {sig.genus} exceeds max_genus={max_genus}; raise the "
            "max_genus configuration knob to allow it"
        )
    if max_slots is not None and sig.slots > max_slots:
        raise ValueError(
            f"{sig.slots} boundary+cone slots exceed max_slots={max_slots}; "
            "raise the max_slots configuration knob to allow it"
        )
    _check_moment_cap(sig.genus, sig.slots, max_moment_k)
    boundary = boundary_volume(sig.genus, sig.slots, threads, max_moment_k=None)
    if not sig.cones:
        return boundary
    return from_numerators(
        sig.slots, *boundary.numerators, negate=range(sig.boundaries, sig.slots)
    )


def cone_volume_direct(
    g: int,
    m: int,
    n: int,
    threads: int = 1,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
) -> VolumePolynomial:
    """Volume polynomial computed with the first cone slot distinguished.

    Verification path: the recursion runs with the distinguished slot an
    actual cone point, so every kernel moment is evaluated at imaginary
    length during assembly instead of substituted afterwards.  Must agree
    exactly with compute_volume; slot layout is identical (lengths first).
    """
    if n == 0:
        return boundary_volume(g, m, threads=threads, max_moment_k=max_moment_k)
    SurfaceSignature(g, m, n)
    _check_moment_cap(g, m + n, max_moment_k)
    return _recurse(g, m, n, threads)


# -- quadrature-backed numeric assembly (oracle path) -----------------------------


def numeric_volume_value(
    g: int,
    m: int,
    n: int,
    lengths: Sequence[float],
    angles: Sequence[float] = (),
    tol: float = 1e-10,
) -> float:
    """Evaluate V_{g,m,n} at one point with every kernel moment computed by
    quadrature instead of the frozen closed forms.

    The right-hand side is assembled with the same term structure as the
    symbolic path but each moment F_k(t) is an adaptive-quadrature integral,
    and the final inversion V = (2/L1) * int_0^{L1} rhs(u) du uses
    Gauss-Legendre with enough nodes to be exact on the polynomial
    integrand.  Requires m >= 1 (the distinguished slot must be a real
    boundary to integrate over).  Sub-volumes below the top level stay
    symbolic: the oracle isolates the top assembly step, which is the one
    the closed forms feed.
    """
    from numpy.polynomial.legendre import leggauss

    if m < 1:
        raise ValueError("the numeric oracle needs at least one boundary")
    if len(lengths) != m or len(angles) != n:
        raise ValueError("lengths/angles must match the signature")
    SurfaceSignature(g, m, n)
    nslots = m + n
    if (g, nslots) == (0, 3):
        return 1.0
    d = 3 * g - 3 + nslots
    big_l = lengths[0]
    rest = list(lengths[1:]) + list(angles)
    rest_is_angle = [False] * (m - 1) + [True] * n
    cache: Dict[tuple, float] = {}
    nodes, weights = leggauss(d + 2)
    half = big_l / 2
    total = 0.0
    for node, weight in zip(nodes, weights):
        u = half * (node + 1)
        total += weight * _numeric_rhs(
            g, nslots, u, rest, rest_is_angle, cache, tol
        )
    integral = half * total
    return 2 / big_l * integral


def _numeric_moment(k: int, t: complex, cache: Dict[tuple, float], tol: float) -> float:
    """F_{2k+1}(t) by quadrature; complex t pairs with its conjugate, so the
    cached value is the real integral of x^(2k+1) * 2 Re h(x, t) when t is
    complex and of x^(2k+1) h(x, t) when t is real."""
    from wpcone.kernels import integrate_decaying

    t = complex(t)
    if abs(t.imag) < 1e-15:
        key = ("r", k, round(t.real, 12))
        if key not in cache:
            tr = t.real
            cache[key] = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel(x, tr).real, tol=tol
            )
        return cache[key]
    key = ("c", k, round(t.real, 12), round(abs(t.imag), 12))
    if key not in cache:
        tc = complex(t.real, abs(t.imag))
        cache[key] = integrate_decaying(
            lambda x: x ** (2 * k + 1) * 2 * pairing_kernel(x, tc).real, tol=tol
        )
    return cache[key]


def _eval_rest(rest_xexp, rest_vals, rest_is_angle) -> float:
    mono = 1.0
    for e, val, is_angle in zip(rest_xexp, rest_vals, rest_is_angle):
        if e:
            x = -(val * val) if is_angle else val * val
            mono *= x**e
    return mono


def _numeric_rhs(
    g: int,
    nslots: int,
    u: float,
    rest_vals: Sequence[float],
    rest_is_angle: Sequence[bool],
    cache: Dict[tuple, float],
    tol: float,
) -> float:
    pi = math.pi
    acc = 0.0

    def graded_value(graded, extra=1.0):
        return sum(float(c) * pi**q for q, c in graded.items()) * extra

    # non-separating
    if g >= 1 and 2 * (g - 1) + (nslots + 1) > 2:
        sub = boundary_volume(g - 1, nslots + 1, max_moment_k=None)
        for xexp, graded in sub.terms.items():
            a, b = xexp[0], xexp[1]
            mono = _eval_rest(xexp[2:], rest_vals, rest_is_angle)
            fnum = _numeric_moment(a + b + 1, u, cache, tol)
            acc += 0.25 * float(_pair_coefficient(a, b)) * graded_value(
                graded, mono
            ) * fnum

    # separating
    for sp in enumerate_splittings(SurfaceSignature(g, nslots, 0), 0):
        sub1 = boundary_volume(sp.genus_first, len(sp.boundaries_first) + 1,
                               max_moment_k=None)
        sub2 = boundary_volume(sp.genus_second, len(sp.boundaries_second) + 1,
                               max_moment_k=None)
        for e1, graded1 in sub1.terms.items():
            v1 = graded_value(graded1) * math.prod(
                _rest_value(rest_vals, rest_is_angle, slot, e1[1 + i])
                for i, slot in enumerate(sp.boundaries_first)
            )
            for e2, graded2 in sub2.terms.items():
                v2 = graded_value(graded2) * math.prod(
                    _rest_value(rest_vals, rest_is_angle, slot, e2[1 + i])
                    for i, slot in enumerate(sp.boundaries_second)
                )
                fnum = _numeric_moment(e1[0] + e2[0] + 1, u, cache, tol)
                acc += 0.25 * float(_pair_coefficient(e1[0], e2[0])) * v1 * v2 * fnum

    # pairings
    if nslots >= 2 and 2 * g + (nslots - 1) > 2:
        sub = boundary_volume(g, nslots - 1, max_moment_k=None)
        for j in range(1, nslots):
            s_val = rest_vals[j - 1]
            s_is_angle = rest_is_angle[j - 1]
            other = [s for s in range(1, nslots) if s != j]
            for xexp, graded in sub.terms.items():
                mono = 1.0
                for i, slot in enumerate(other):
                    mono *= _rest_value(
                        rest_vals, rest_is_angle, slot, xexp[1 + i]
                    )
                k = xexp[0]
                if s_is_angle:
                    # F(u + i*theta) + F(u - i*theta), one conjugate-pair quad
                    fnum = _numeric_moment(k, complex(u, s_val), cache, tol)
                else:
                    fnum = _numeric_moment(k, u + s_val, cache, tol) + (
                        _numeric_moment(k, u - s_val, cache, tol)
                    )
                acc += 0.25 * graded_value(graded, mono) * fnum

    # cap
    if (g, nslots) == (1, 1):
        acc += _numeric_moment(0, u, cache, tol) / 16

    return acc


def _rest_value(rest_vals, rest_is_angle, slot, exp) -> float:
    if not exp:
        return 1.0
    val = rest_vals[slot - 1]
    x = -(val * val) if rest_is_angle[slot - 1] else val * val
    return x**exp
