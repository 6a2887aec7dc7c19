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

The cut structure is written once, in _cut_groups: the cuts grouped by the
signatures of their pieces, with how many surviving boundaries and cones
the first piece takes (or the pairing swallows) and how many cuts the group
stands for.  The exact assembly _rhs reads the groups; the quadrature
oracle numeric_volume_value expands them into cuts (_choices, _without).

Working form and orbit keys.  A volume of degree d = 3g - 3 + m + n is
homogeneous, so the term x^e carries pi^(2(d - sum(e))) and only integer
numerators over one denominator are kept (polyalg.Numerators); a moment
F_{2k+1} is homogeneous of degree k + 1 (checked when kernels builds it),
so its t^(2r) carries pi^(2(k+1-r)).  V_{g,m,n} is symmetric in its
boundaries and, separately, in its cones, so the recursion keeps one
numerator per orbit: the exponent vector sorted non-increasing within each
block (polyalg.from_orbits; `numerators` expands the orbits when read).

Pull assembly.  _rhs computes one right-hand side per orbit: the
distinguished slot takes the largest exponent e0 of its block, the other
slots form the multiset `rest` (boundaries and cones as two blocks on the
cone path), and every contribution is one read of a piece's column index
(_columns): column left + right, one flat tuple, lists (2a+1)!
V[_insert(left, a) + right] over a.  One pass over the piece's orbit map
builds the index, each key less each distinct a of its boundary block
naming a column; it is kept with the memoized volume until clear_memo, and
an absent column is all zero and is skipped.  The cut groups are compiled
once per right-hand side into one work list per kind (the non-separating
index, the separating index pairs by taken (i, j), the pairing indexes,
the cap's scale), so the orbit loop dispatches on no kind.  It walks only
the rests whose distinguished block's largest entry fits beside them, as
e0 is no smaller, and fetches a block's splits of a taken size where it
uses them.  The blocks come from one block table, _BLOCK_MEMO, built as the
recursion meets them and dropped by clear_memo with the volumes, so the
calls of one cold computation share them: _blocks lists the blocks to walk,
_splits each block's sub-multisets of one size with their multiplicities
(one recurrence).  The double moment of x^a y^b is (2a+1)!(2b+1)! M_k
with k = a + b + 1 and M_k[r] = c_r / (4 (2k+1)!), c_r the coefficient of
t^(2r) in F_{2k+1}, so the non-separating and separating cuts give
sum_k M_k[e0] S_k(rest) with

    S_k(rest) = sum_{a+b=k-1} (2a+1)! (2b+1)! (V_{g-1}[(a, b) + rest]
                + sum over separating groups and sub-multisets R1 of rest
                  of prod C(count, picked) * A[(a,) + R1] B[(b,) + rest - R1]),

built once per `rest` and shared by every e0.  A separating group and its
mirror (pieces swapped, taken slots complemented) pair their sub-multisets
with equal multiplicities and the sum over a + b is symmetric, so the
first is assembled at twice its scale and the mirror is skipped.  A
pairing with partner exponent v adds C(2r, 2v) c_r / 2 times the piece's
coefficient, r = e0 + v, once per distinct v times its count; the cap's
c_r / 16 = M_0[r] / 4 is S_0, which no cut reaches; an angle slot signs
t^(2r) by (-1)^r.  The weights are integers over one denominator, so
assembly is integer multiply-adds.  Inverting d(l V/2)/dl is
V[e] = 2 rhs[e] / (2 e0 + 1), then one gcd reduces the signature's
numerators and denominator, and _assert_homogeneous checks that no
orbit's x-degree exceeds d (its implied pi-power would be negative).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from wpcone.kernels import (
    check_cone_angle,
    check_length,
    check_tolerance,
    integrate_decaying,
    moment_integral,
    pairing_kernel_span,
)
from wpcone.polyalg import (
    Exponent,
    Numerators,
    VolumePolynomial,
    _integer,
    from_orbits,
)

#: Caps on user-requested signatures; the recursion itself has no intrinsic
#: limit, these keep accidental inputs from launching week-long computations.
DEFAULT_MAX_GENUS = 5
DEFAULT_MAX_SLOTS = 8
#: Largest moment index a requested signature may need: (g, m, n) reads
#: moments up to k = 3g - 4 + m + n.
DEFAULT_MAX_MOMENT_K = 12


# how _integer names a signature component that is not an integer
_COMPONENTS = tuple(f"signature component {f}" for f in ("genus", "boundaries", "cones"))


class SurfaceSignature(namedtuple("SurfaceSignature", "genus boundaries cones")):
    """Topological type: genus, geodesic-boundary count, cone-point count."""

    __slots__ = ()

    def __new__(cls, genus: int, boundaries: int, cones: int) -> SurfaceSignature:
        genus, boundaries, cones = map(_integer, _COMPONENTS, (genus, boundaries, cones))
        if min(genus, boundaries, cones) < 0:
            raise ValueError("signature components must be nonnegative")
        if 2 * genus - 2 + boundaries + cones <= 0:
            raise ValueError(
                f"signature (g={genus}, m={boundaries}, "
                f"n={cones}) is unstable: needs 2g - 2 + m + n > 0"
            )
        return tuple.__new__(cls, (genus, boundaries, cones))

    @property
    def slots(self) -> int:
        return self.boundaries + self.cones

    @property
    def dimension(self) -> int:
        """Real dimension of the moduli space, 6g - 6 + 2(m + n)."""
        return 6 * self.genus - 6 + 2 * self.slots


class _CutGroup(NamedTuple):
    """Cuts of the recursion's right-hand side whose pieces share signatures.

    kind is "nonseparating", "separating", "pairing" or "cap"; pieces are
    the (g, m, n) of the pieces left after the cut (none for the cap).
    taken = (i, j): a separating cut gives i surviving boundaries and j
    surviving cones to its first piece; a pairing swallows one partner,
    (1, 0) for a boundary and (0, 1) for a cone.  The group stands for one
    cut per choice of the taken slots.
    """

    kind: str
    pieces: Tuple[Tuple[int, int, int], ...]
    taken: Tuple[int, int] = (0, 0)


def _stable(g: int, m: int, n: int) -> bool:
    return 2 * g - 2 + m + n > 0


def _cut_groups(g: int, ms: int, ns: int) -> Iterator[_CutGroup]:
    """Every cut of a genus-g surface along a pants bounded by its
    distinguished slot, grouped, in a fixed order; ms and ns count the
    surviving boundaries and cones (every slot but the distinguished one).

    Piece slot layouts are canonical: new boundaries first, then surviving
    boundaries, then surviving cones.
    """
    # non-separating: two new boundaries x, y on one connected piece
    if g >= 1 and _stable(g - 1, ms + 2, ns):
        yield _CutGroup("nonseparating", ((g - 1, ms + 2, ns),))

    # separating: ordered stable pairs sharing genus and surviving slots
    for g1 in range(g + 1):
        for i in range(ms + 1):
            for j in range(ns + 1):
                first = (g1, i + 1, j)
                second = (g - g1, ms - i + 1, ns - j)
                if _stable(*first) and _stable(*second):
                    yield _CutGroup("separating", (first, second), (i, j))

    # pairings: the pants swallows a surviving boundary (the piece trades it
    # for x) or a surviving cone (the piece trades it for a boundary x)
    if ms and _stable(g, ms, ns):
        yield _CutGroup("pairing", ((g, ms, ns),), (1, 0))
    if ns and _stable(g, ms + 1, ns - 1):
        yield _CutGroup("pairing", ((g, ms + 1, ns - 1),), (0, 1))

    # one-handled torus cap: the interior geodesic bounds the handle alone
    if g == 1 and ms + ns == 0:
        yield _CutGroup("cap", ())


def _choices(group: _CutGroup, bounds: Sequence[int], cones: Sequence[int]):
    """(taken boundaries, taken cones) as slot tuples, once per cut of the
    group, in increasing slot order."""
    i, j = group.taken
    return itertools.product(
        itertools.combinations(bounds, i), itertools.combinations(cones, j)
    )


def _without(slots: Sequence[int], taken: Sequence[int]) -> Tuple[int, ...]:
    return tuple(s for s in slots if s not in taken)


# -- memoization ---------------------------------------------------------------

# (g, m, n) -> volume from the recursion: the all-boundary recursion when
# n == 0, the direct cone path (first cone distinguished) otherwise.  Two
# threads may compute one key at once; they build equal polynomials and
# setdefault keeps the first.
_RECURSION_MEMO: Dict[Tuple[int, int, int], VolumePolynomial] = {}

# (g, m, n) with n > 0 -> compute_volume's cone volume, signed from the
# all-boundary orbits.  Kept apart from _RECURSION_MEMO, which holds the
# direct cone path under the same key: the two must stay independent.
_SIGNED_MEMO: Dict[Tuple[int, int, int], VolumePolynomial] = {}

# (g, m, n) -> conepoints.cusp_limit's polynomial, the _SIGNED_MEMO volume
# with one cone angle set to zero (any one: the cone block is symmetric).
# Kept here so that clear_memo drops it with the volumes it is built from.
_CUSP_MEMO: Dict[Tuple[int, int, int], VolumePolynomial] = {}

# (g, m, n) -> _columns' index of the _RECURSION_MEMO volume under that key.
_COLUMN_MEMO: Dict[Tuple[int, int, int], Dict[tuple, List[int]]] = {}

# The block table, built as the recursion meets its blocks:
# (block, size) -> _splits(block, size), (length, total, top, twice) ->
# _blocks(...).
_BLOCK_MEMO: Dict[tuple, list] = {}


def clear_memo() -> None:
    """Drop all memoized volumes, column indexes and the block table, so the
    next call recomputes them all.  A memoized volume keeps its read forms
    (_order, _flat, and numerators/terms once read) until this is called, so
    a long-running caller that serializes many large volumes should call it."""
    _RECURSION_MEMO.clear()
    _SIGNED_MEMO.clear()
    _CUSP_MEMO.clear()
    _COLUMN_MEMO.clear()
    _BLOCK_MEMO.clear()


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
def _moment_table(kmax: int):
    """(den, table, fact): table[r][k] / den = M_k[r] = c_r / (4 (2k+1)!),
    zero when r > k + 1, a sum over k <= kmax being one dot product, with
    F_{2k+1}(t) = sum_r c_r pi^(2(k+1-r)) t^(2r); fact[a] = (2a+1)!.

    One table serves every cut: the double moment of x^a y^b is
    (2a+1)!(2b+1)! M_k[r] with k = a + b + 1; a pairing, c_r / 2 * C(2r, 2v),
    is (2k+1)! M_k[r] * 2 C(2r, 2v) on the piece's x^k; the cap, c_r / 16,
    is M_0[r] / 4.  The pi-powers rest on F_{2k+1} being homogeneous of
    degree k + 1, which VolumePolynomial checks when kernels builds it.
    """
    table = [[Fraction(0)] * (kmax + 1) for _ in range(kmax + 2)]
    for k in range(kmax + 1):
        den, nums, degree = moment_integral(k).numerators
        if degree != k + 1:
            raise RuntimeError(f"moment F_{2 * k + 1} has degree {degree}, not {k + 1}")
        for (r,), num in nums.items():
            table[r][k] = Fraction(num, 4 * math.factorial(2 * k + 1) * den)
    den = math.lcm(*(w.denominator for row in table for w in row))
    return den, tuple(
        tuple(w.numerator * (den // w.denominator) for w in row) for row in table
    ), [math.factorial(2 * a + 1) for a in range(kmax + 2)]


# -- orbit keys --------------------------------------------------------------------


def _blocks(
    length: int, total: int, top: Optional[int] = None, twice: bool = False
) -> List[Exponent]:
    """Every non-increasing tuple of `length` entries, each at most `top`,
    with sum at most `total`, largest first; kept in _BLOCK_MEMO.  twice
    counts the largest entry twice: the rests whose largest entry fits
    beside them, as _rhs walks them."""
    top = min(total if top is None else top, total // (1 + twice))
    key = (length, total, top, twice)
    blocks = _BLOCK_MEMO.get(key)
    if blocks is None:
        blocks = [()] if length == 0 else [
            (first,) + tail
            for first in range(top, -1, -1)
            for tail in _blocks(length - 1, total - (1 + twice) * first, first)
        ]
        blocks = _BLOCK_MEMO.setdefault(key, blocks)
    return blocks


def _insert(block: Exponent, a: int) -> Exponent:
    """The non-increasing block with one more entry a."""
    for i, x in enumerate(block):
        if x <= a:
            return block[:i] + (a,) + block[i:]
    return block + (a,)


def _splits(block: Exponent, size: int) -> List[Tuple[Exponent, Exponent, int]]:
    """[(first, rest, multiplicity)]: each sub-multiset `first` of `size`
    entries of a non-increasing block, its complement, and the number of
    index subsets behind it, prod C(count, picked), by one recurrence for
    every size (size 1 gives the runs, smallest first); in _BLOCK_MEMO."""
    key = (block, size)
    splits = _BLOCK_MEMO.get(key)
    if splits is None:
        if size in (0, len(block)):
            splits = [(block[:size], block[size:], 1)]
        else:  # the first run gives p entries, the tail the others
            v, c = block[0], block.count(block[0])
            tail = block[c:]
            splits = [
                ((v,) * p + first, (v,) * (c - p) + rest, math.comb(c, p) * mult)
                for p in range(max(0, size - len(tail)), min(c, size) + 1)
                for first, rest, mult in _splits(tail, size - p)
            ]
        splits = _BLOCK_MEMO.setdefault(key, splits)
    return splits


# -- the recursion -----------------------------------------------------------------


def _sub_volume(g: int, m: int, n: int) -> VolumePolynomial:
    """A piece's volume: a memo hit as it is, a miss through the public
    entry points, which check it."""
    cached = _RECURSION_MEMO.get((g, m, n))
    if cached is not None:
        return cached
    if n == 0:
        return boundary_volume(g, m, max_moment_k=None)
    return cone_volume_direct(g, m, n, max_moment_k=None)


def _columns(piece: Tuple[int, int, int], V: Numerators, fact: List[int]):
    """A piece's column index (see the module docstring): left is its
    boundary block less the new boundary, right its cone block, and a runs
    up to what the degree allows; fact[a] = (2a+1)!."""
    index = _COLUMN_MEMO.get(piece)
    if index is not None:
        return index
    m, degree = piece[1], V.degree
    index = {}
    for key, num in V.nums.items():
        free, last = degree - sum(key), None
        for i in range(m):
            a = key[i]
            if a != last:
                last = a
                rest = key[:i] + key[i + 1 :]
                col = index.get(rest)
                if col is None:
                    col = index[rest] = [0] * (free + a + 1)
                col[a] = fact[a] * num
    return _COLUMN_MEMO.setdefault(piece, index)


def _rhs(g: int, m: int, n: int, every: bool = False) -> Numerators:
    """d(l V/2)/dl on the distinguished slot, one coefficient per orbit of
    the surviving slots, gathered pull-style (see the module docstring).

    The distinguished slot is boundary 0 when n == 0 and cone m otherwise.
    Keys are (e0,) + B on the boundary path and B + (e0,) + C on the cone
    path, B and C the surviving boundary and cone blocks.  e0 starts at the
    largest exponent of its block, so each key is an orbit key of V;
    every=True starts it at 0 and walks every rest.  That flag exists only
    for the symmetry checks in tests/test_recursion.py (its assemble_rhs
    helper and test_every_exponent_of_an_orbit_gives_its_coefficient);
    _recurse never sets it.  Pairings: the distinguished slot is the gap's
    base curve and the surviving slot is the partner (the exact equality
    with the substitution path pins this reading).
    """
    angle = n > 0
    ms, ns = (m, n - 1) if angle else (m - 1, 0)
    d = 3 * g - 3 + m + n
    mden, table, fact = _moment_table(3 * g - 4 + m + n)
    groups = list(_cut_groups(g, ms, ns))
    orbits = {p: _sub_volume(*p).orbits for group in groups for p in group.pieces}
    cols = {p: _columns(p, V, fact) for p, V in orbits.items()}

    # one denominator for the whole right-hand side; each group's numerators
    # are scaled to it
    group_dens = [
        mden * (4 if group.kind == "cap" else 1)
        * math.prod(orbits[p].den for p in group.pieces)
        for group in groups
    ]
    den = math.lcm(*set(group_dens))
    # one work list per kind; each separating group takes in its mirror
    nonsep, seps, pairs, cap = None, {}, [], 0
    for group, gd in zip(groups, group_dens):
        scale, kind, pieces = den // gd, group.kind, group.pieces
        if kind == "nonseparating":
            nonsep = cols[pieces[0]], scale
        elif kind == "separating":
            (i, j), g1 = group.taken, pieces[0][0]
            mine, mirror = (g1, i, j), (g - g1, ms - i, ns - j)
            if mine <= mirror:
                work = cols[pieces[0]], cols[pieces[1]], scale * (1 + (mine < mirror))
                seps.setdefault((i, j), []).append(work)
        elif kind == "pairing":
            pairs.append((cols[pieces[0]], group.taken[1], 2 * scale))
        else:
            cap = scale
    # the rests whose distinguished block's largest entry fits beside them; the
    # boundary path's () saves ~2% of a cold rung (BENCH_2026-10-20_one_recurrence)
    walk = [
        (B, C)
        for B in _blocks(ms, d, twice=not (angle or every))
        for C in (_blocks(ns, d - sum(B), twice=not every) if angle else [()])
    ]

    out: Dict[Exponent, int] = {}
    for B, C in walk:
        free = d - sum(B) - sum(C)  # e0 runs up to free; S[k] for k < free
        dist_block = C if angle else B
        lo = 0 if every or not dist_block else dist_block[0]
        S = [cap] + [0] * (free - 1)  # the cap is the k = 0 term
        if nonsep:
            index, scale = nonsep
            for a in range(free - 1):
                col = index.get(_insert(B, a) + C)
                if col is not None:
                    x = scale * fact[a]
                    for k, y in enumerate(col, a + 1):
                        S[k] += x * y
        for (i, j), work in seps.items():
            for (B1, B2, mb), (C1, C2, mc) in itertools.product(
                _splits(B, i), _splits(C, j)
            ):
                key1, key2 = B1 + C1, B2 + C2
                for first, second, scale in work:
                    col1 = first.get(key1)
                    if col1 is None:
                        continue
                    col2 = second.get(key2)
                    if col2 is None:
                        continue
                    weight = scale * mb * mc
                    for a, x in enumerate(col1):
                        if x:
                            x *= weight
                            for k, y in enumerate(col2, a + 1):
                                S[k] += x * y
        runs = []  # (column, partner exponent v, weight) of each pairing
        for index, cone, scale in pairs:
            for (v,), rest, count in _splits(C if cone else B, 1):
                col = index.get(B + rest if cone else rest + C)
                if col is not None:
                    runs.append((col, v, (-scale if cone and v % 2 else scale) * count))
        for e0 in range(lo, free + 1):
            total = sum(map(operator.mul, table[e0], S))
            for col, v, weight in runs:
                r = e0 + v
                acc = sum(map(operator.mul, table[r], col))
                total += weight * math.comb(2 * r, 2 * v) * acc
            if total:
                if angle and e0 % 2:
                    total = -total
                out[B + (e0,) + C if angle else (e0,) + B] = total
    return Numerators(den, out, d)


def _invert(den: int, nums: Dict[tuple, int], slot: int):
    """Invert d(l V/2)/dl on an even slot: V[e] = 2 rhs[e] / (2 e_slot + 1),
    over the common multiple of the odd divisors, then one gcd reduction.
    Returns (den, nums)."""
    odd = math.lcm(*{2 * v + 1 for v in map(operator.itemgetter(slot), nums)})
    out = {e: 2 * n * (odd // (2 * e[slot] + 1)) for e, n in nums.items()}
    common = math.gcd(den * odd, *out.values())
    return den * odd // common, {e: n // common for e, n in out.items()}


def _assert_homogeneous(nums: Dict[Exponent, int], degree: int) -> None:
    """No term of a volume's working form may exceed its degree: the
    implied pi-power 2 * (degree - sum(e)) must be >= 0."""
    for xexp in nums:
        if sum(xexp) > degree:
            raise RuntimeError(
                f"volume lost homogeneity: term {xexp} in a "
                f"degree-{degree} polynomial"
            )


def _check_moment_cap(g: int, nslots: int, max_moment_k: Optional[int]) -> None:
    """The recursion for (g, m + n = nslots) reads moments up to
    k = 3g - 4 + nslots; checked from the signature, never from memo state,
    so the recursion inside runs uncapped.  A cap is an int or None (see
    compute_volume)."""
    k = 3 * g - 4 + nslots
    if max_moment_k is not None and k > _integer("max_moment_k", max_moment_k):
        raise ValueError(
            f"moment index {k} exceeds max_moment_k={max_moment_k}; raise the "
            "max_moment_k configuration knob to allow this computation"
        )


def _recurse(g: int, m: int, n: int) -> VolumePolynomial:
    """Memoized V_{g,m,n} on orbit keys: the all-boundary recursion when
    n == 0, else the direct cone path with the first cone (slot m)
    distinguished."""
    key = (g, m, n)
    cached = _RECURSION_MEMO.get(key)
    if cached is not None:
        return cached
    degree = 3 * g - 3 + m + n
    if g == 0 and m + n == 3:
        den, nums = 1, {(0, 0, 0): 1}
    else:
        rden, rnums, _ = _rhs(g, m, n)
        den, nums = _invert(rden, rnums, m if n else 0)
    _assert_homogeneous(nums, degree)
    result = from_orbits(m + n, den, nums, degree, (m, n))
    return _RECURSION_MEMO.setdefault(key, result)


def boundary_volume(
    g: int,
    nslots: int,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
) -> VolumePolynomial:
    """Exact volume polynomial for genus g with nslots geodesic boundaries:
    cone_volume_direct with no cones, so it is checked and memoized there.
    Slot roles (length vs angle) are attached later by substitution."""
    return cone_volume_direct(g, nslots, 0, max_moment_k)


def compute_volume(
    sig: SurfaceSignature,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
    max_genus: Optional[int] = DEFAULT_MAX_GENUS,
    max_slots: Optional[int] = DEFAULT_MAX_SLOTS,
) -> VolumePolynomial:
    """Volume polynomial for (g, m, n): slots 0..m-1 are boundary lengths,
    slots m..m+n-1 are cone angles (squared-variable convention throughout).

    Computed on the all-boundary recursion, then each cone slot gets the
    imaginary substitution l -> i*theta, i.e. x -> -x.  A term's sign is
    (-1) to the sum of its cone exponents, so it depends only on how its
    orbit's exponents split between the boundary block and the cone block:
    each split of each all-boundary orbit is signed once, and the result is
    kept on orbits of the (m, n) blocks and memoized per (g, m, n), so a
    repeated call returns the same object.  Memory stays nearly flat: per
    cone signature the memo adds one integer per orbit split, and the full
    exponent map once it is first read, as every memoized volume has; in
    exchange no reader builds the Fraction `terms` view any more, which the
    serializers used to cache on every volume they wrote.  The caps are
    checked before the memo and bound only the requested signature, not the
    recursion's internal sub-surfaces; max_moment_k is checked as
    3g - 4 + m + n.  A memo hit is returned right after the caps: `sig` was
    checked when it was built, so only a miss goes on to boundary_volume,
    which checks the signature again and raises for a closed surface.  A
    cap is an int or None, which lifts it: nan, 1.5 or '3' raises
    ValueError, as a nan compares False with every bound.
    """
    if max_genus is not None and sig.genus > _integer("max_genus", max_genus):
        raise ValueError(
            f"genus {sig.genus} exceeds max_genus={max_genus}; raise the "
            "max_genus configuration knob to allow it"
        )
    if max_slots is not None and sig.slots > _integer("max_slots", max_slots):
        raise ValueError(
            f"{sig.slots} boundary+cone slots exceed max_slots={max_slots}; "
            "raise the max_slots configuration knob to allow it"
        )
    _check_moment_cap(sig.genus, sig.slots, max_moment_k)
    # a signature is a (g, m, n) tuple, so it is its own memo key
    cached = (_SIGNED_MEMO if sig.cones else _RECURSION_MEMO).get(sig)
    if cached is not None:
        return cached
    boundary = boundary_volume(sig.genus, sig.slots, max_moment_k=None)
    if not sig.cones:
        return boundary
    den, nums, degree = boundary.orbits
    signed: Dict[Exponent, int] = {}
    for orbit, num in nums.items():
        for cones, bounds, _ in _splits(orbit, sig.cones):
            signed[bounds + cones] = -num if sum(cones) % 2 else num
    result = from_orbits(sig.slots, den, signed, degree, (sig.boundaries, sig.cones))
    return _SIGNED_MEMO.setdefault(tuple(sig), result)


def cone_volume_direct(
    g: int,
    m: int,
    n: int,
    max_moment_k: Optional[int] = DEFAULT_MAX_MOMENT_K,
) -> VolumePolynomial:
    """Volume polynomial computed with the first cone slot distinguished.

    Verification path: the recursion runs with the distinguished slot an
    actual cone point, so every kernel moment is evaluated at imaginary
    length during assembly instead of substituted afterwards.  Must agree
    exactly with compute_volume; slot layout is identical (lengths first).
    With n == 0 it is the all-boundary recursion (boundary_volume).
    Memoized by (g, m, n).  Raises for closed surfaces, which have no slot
    to recurse on, for unstable signatures and past max_moment_k.
    """
    if m == n == 0:
        raise ValueError(
            "closed surfaces have no distinguished boundary to recurse on; "
            "add a boundary or cone point"
        )
    SurfaceSignature(g, m, n)  # stability check
    _check_moment_cap(g, m + n, max_moment_k)
    return _recurse(g, m, n)


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

    The right-hand side runs over the cuts of the all-boundary recursion
    (the groups of _cut_groups expanded, slot 0 distinguished), with each
    cone a boundary of imaginary length i*theta.  It is a sum of weighted
    moments F_{2k+1}(t) = int_0^oo x^(2k+1) h(x, t) dx, t being u or u
    shifted by a partner's length; each partner's weights make one odd
    polynomial P(x) = sum_k w_k x^(2k+1), which does not depend on u.  So
    the inversion V = (2/L1) int_0^{L1} rhs(u) du swaps its two integrals
    (Fubini): V = int_0^oo (2/L1) x sum_partners P(x) H(x) dx, H being the
    partner's kernel integrated over u in closed form
    (kernels.pairing_kernel_span).  One call is one adaptive integral
    (integrate_decaying), and `tol` bounds the error on V, read relative
    above 1; a `tol` that is not positive and finite, or that it cannot
    reach, raises ValueError.  No closed-form moment is read: the oracle
    checks the closed-form moments and the weight table, not the cut
    structure.  Sub-volumes below the top level stay symbolic, isolating
    the top assembly step, the one the closed forms feed.  Requires m >= 1
    (a real boundary to integrate over), positive finite lengths and cone
    angles in (0, pi].
    """
    if m < 1:
        raise ValueError("the numeric oracle needs at least one boundary")
    if len(lengths) != m or len(angles) != n:
        raise ValueError("lengths/angles must match the signature")
    SurfaceSignature(g, m, n)
    for length in lengths:
        check_length(length)
    for theta in angles:
        check_cone_angle(theta)
    check_tolerance(tol)
    nslots = m + n
    if (g, nslots) == (0, 3):
        return 1.0
    values = list(lengths) + list(angles)
    squares = [v * v for v in lengths] + [-(v * v) for v in angles]

    # the right-hand side as sum of weight * F_{2k+1}(t): per partner slot
    # (None for t = u), the weights by k, the coefficients of P
    by_partner: Dict[Optional[int], List[float]] = {}
    survivors = tuple(range(1, nslots))
    for group in _cut_groups(g, nslots - 1, 0):
        for taken, _ in _choices(group, survivors, ()):
            left = _without(survivors, taken)
            slots = {
                "nonseparating": (survivors,),
                "separating": (taken, left),
                "pairing": (left,),
                "cap": (),
            }[group.kind]
            for cut_exps, value in _numeric_pieces(group.pieces, slots, squares):
                if group.kind == "cap":
                    k, partner, weight = 0, None, value / 16
                elif group.kind == "pairing":
                    k, partner, weight = cut_exps[0], taken[0], 0.25 * value
                else:
                    a, b = cut_exps
                    k, partner = a + b + 1, None
                    weight = 0.25 * float(_pair_coefficient(a, b)) * value
                coeffs = by_partner.setdefault(partner, [])
                coeffs.extend([0.0] * (k + 1 - len(coeffs)))
                coeffs[k] += weight

    # per partner: P's coefficients from the top k down, times 2/L1 (and 2
    # for a cone), against H(x) = sum over the partner's shifts a of span(x, a)
    length = lengths[0]
    real_span = pairing_kernel_span(length)
    parts = []
    for partner, coeffs in by_partner.items():
        if partner is None:  # t = u
            span, shifts, scale = real_span, (0.0,), 2 / length
        elif partner >= m:  # F(u + i*theta) + F(u - i*theta) = 2 Re F(u + i*theta)
            c = math.cos(values[partner] / 2)
            span, shifts, scale = pairing_kernel_span(length, c), (0.0,), 4 / length
        else:  # F(u + s) + F(u - s)
            s = values[partner]
            span, shifts, scale = real_span, (s, -s), 2 / length
        parts.append(([scale * w for w in reversed(coeffs)], span, shifts))

    def integrand(x: float) -> float:
        x2 = x * x
        acc = 0.0
        for coeffs, span, shifts in parts:
            poly = 0.0
            for w in coeffs:
                poly = poly * x2 + w
            h = 0.0
            for shift in shifts:
                h += span(x, shift)
            acc += poly * h
        return x * acc

    return integrate_decaying(integrand, tol=tol)


def _numeric_pieces(
    pieces: Sequence[Tuple[int, int, int]],
    slots: Sequence[Tuple[int, ...]],
    squares: Sequence[float],
) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """(exponents of the cut slots, value) for every choice of one term per
    piece, the value being the product of the chosen terms' coefficients
    with their surviving slots (slots[i] for piece i, after its new
    boundaries) set to the parent's squared values."""
    per_piece = []
    for piece, piece_slots in zip(pieces, slots):
        sub = _sub_volume(*piece).numerators
        new = piece[1] + piece[2] - len(piece_slots)  # the cut slots come first
        terms = []
        for e, num in sub.nums.items():
            value = num / sub.den * math.pi ** (2 * (sub.degree - sum(e)))
            for slot, k in zip(piece_slots, e[new:]):
                value *= squares[slot] ** k
            terms.append((e[:new], value))
        per_piece.append(terms)
    for choice in itertools.product(*per_piece):
        yield sum((c for c, _ in choice), ()), math.prod(v for _, v in choice)
