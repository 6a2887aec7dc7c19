"""Exact volume polynomials, stored in one integer form.

A volume polynomial is a polynomial in the squared slot variables
x_i = l_i**2 (one slot per boundary curve; after an imaginary substitution a
slot is read as x_i = theta_i**2) whose coefficients are rational multiples of
even powers of pi.  Every one of them is homogeneous: x-degree plus half the
pi-power is the same number d in every term (3g - 3 + m + n for a volume,
k + 1 for the kernel moment F_{2k+1}).  So the pi-power of the term x^e is
implied, 2 * (d - sum(e)), each exponent vector carries one coefficient, and
a VolumePolynomial stores its Numerators: one positive integer
denominator, a map {exponent vector: nonzero integer numerator} and the
degree d.  The coefficient of x^e is nums[e] / den * pi**(2 * (d - sum(e))).

Every polynomial is stored on orbits, in `orbits`: one numerator per
exponent vector sorted non-increasing within each block of symmetric slots.
A volume is symmetric in its boundary slots and, separately, in its cone
slots, so the recursion stores it over those two blocks (from_orbits); a
polynomial built from terms has one-slot blocks, where each vector is its
own orbit key.  `numerators` is the orbits expanded to every exponent
vector.

`terms` is the public pi-graded view of the same polynomial:

  terms:  Dict[Exponent, PiGraded]
  Exponent = Tuple[int, ...]        one entry per slot, the power of x_i
  PiGraded = Dict[int, Fraction]    pi-exponent (even, >= 0) -> rational

so  {(1,): {0: Fraction(-1, 48)}, (0,): {2: Fraction(1, 12)}}  is
-x/48 + pi**2/12.  The view is for callers; nothing in this module reads
it but substitute_imaginary, the test reference.  Equality (==)
cross-multiplies the integer numerators; the serializers (to_json,
to_latex, to_text) walk the integer form in canonical order, reducing each
distinct numerator over den once; eval_numeric reads the integer form too,
so serving a volume builds no Fraction.  The constructor takes this view,
checks it (slot count, nonnegative x-exponents, even nonnegative
pi-powers, homogeneity) and converts it; from_orbits is the trusted entry
for the recursion's own results.  Zero coefficients are never stored; the
zero polynomial has an empty term map.

What is kept per volume.  A VolumePolynomial is immutable by convention:
no caller mutates one after construction, and the recursion memoizes its
volumes, so one object answers every query for its signature.  A form
derived from it is therefore a pure function of the volume and can be
built on first read and kept on it (_kept): the expanded `numerators` and
the `terms` view, for callers; `_order`, the serializers' terms in
canonical order; and `_flat`, eval_numeric's float coefficients and one
gatherer per slot.  `_order` and `_flat` expand the orbits to be built,
keeping no expanded map, so no read keeps `numerators`.  The rendered
strings are not kept: each call renders afresh from the kept order.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
PiGraded = Dict[int, Fraction]
Terms = Dict[Exponent, PiGraded]


class Numerators(NamedTuple):
    """Working form of a degree-homogeneous polynomial: the coefficient of
    x^e is nums[e] / den times pi^(2 * (degree - sum(e)))."""

    den: int
    nums: Dict[Exponent, int]
    degree: int


class _kept:
    """functools.cached_property as of Python 3.12: the form is built on
    first read and stored in the instance __dict__, where later reads find
    it first.  On 3.10 and 3.11 cached_property holds one lock per property
    across every instance, making one volume's first read wait for another's."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        form = instance.__dict__[self.name] = self.build(instance)
        return form


class VolumePolynomial:
    """Immutable-by-convention exact polynomial; see the module docstring.

    `orbits` is the integer form over the slot blocks.  Each form derived
    from it is built on first read and kept on the volume (_kept):
    `numerators`, its expansion to every exponent vector (set by the
    checking constructor, whose one-slot blocks are expanded already);
    `terms`, the pi-graded view; `_order`, the serializers' terms; and
    `_flat`, eval_numeric's form.  The last two are built from the orbits,
    so no read keeps `numerators`.  Everything kept on a volume stays valid
    only because nothing mutates a volume after construction.
    """

    orbits: Numerators
    _blocks: Tuple[int, ...]

    def __init__(
        self,
        num_vars: int,
        terms: Mapping[Exponent, Mapping[int, Fraction]] | None = None,
    ) -> None:
        num_vars = _integer("num_vars", num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        coeffs: Dict[Exponent, Fraction] = {}
        degree: Optional[int] = None
        for xexp, graded in (terms or {}).items():
            key = tuple(_integer("exponent", e) for e in xexp)
            if len(key) != num_vars:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {num_vars}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            for piexp, coeff in graded.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                p = _integer("pi-exponent", piexp)
                if p < 0 or p % 2:
                    raise ValueError(f"pi-exponent {p} must be even and nonnegative")
                d = sum(key) + p // 2
                if degree is None:
                    degree = d
                elif d != degree:
                    raise ValueError(
                        f"term x^{key} pi^{p} has degree {d}, another has "
                        f"{degree}: the polynomial is not homogeneous"
                    )
                coeffs[key] = c  # homogeneity leaves one pi-power per key
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        nums = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self.num_vars = num_vars
        # one-slot blocks are already expanded; _kept has no __set__, so
        # this assignment is the kept `numerators`
        self.orbits = self.numerators = Numerators(den, nums, degree or 0)
        self._blocks = (1,) * num_vars

    @_kept
    def numerators(self) -> Numerators:
        return _expand(self.orbits, self._blocks)

    @_kept
    def terms(self) -> Terms:
        den, nums, degree = self.numerators
        return {
            xexp: {2 * (degree - sum(xexp)): Fraction(num, den)}
            for xexp, num in nums.items()
        }

    @_kept
    def _flat(self) -> Tuple[List[float], List[operator.itemgetter]]:
        """eval_numeric's float coefficients and one gatherer per slot: an
        itemgetter taking each term's power of the slot's value from a
        table."""
        den, nums, degree = _expand(self.orbits, self._blocks)
        try:
            pis = [math.pi ** (2 * j) for j in range(degree + 1)]
            coeffs = [num / den * pis[degree - sum(e)] for e, num in nums.items()]
        except OverflowError:  # an inf product of finite factors fails the sum's check
            raise ValueError("a coefficient is not a finite double") from None
        # itemgetter of one index returns the item, not a tuple: a one-term
        # column gathers a one-item slice instead
        return coeffs, [
            operator.itemgetter(*column)
            if len(column) > 1
            else operator.itemgetter(slice(column[0], column[0] + 1))
            for column in zip(*nums)
        ]

    @_kept
    def _order(self) -> Tuple[List[Exponent], List[int], List[Tuple[int, int]]]:
        """The serializers' terms, leading term first (higher x-degree, then
        the larger exponent vector), as three parallel lists: the vectors,
        their pi-exponents and their (num, den) in lowest terms, one shared
        pair per distinct numerator."""
        den, nums, degree = _expand(self.orbits, self._blocks)
        order = sorted(nums, key=lambda e: (sum(e), e), reverse=True)
        reduced = {}
        for num in set(nums.values()):
            common = math.gcd(num, den)
            reduced[num] = (num // common, den // common)
        return order, [2 * (degree - sum(e)) for e in order], [reduced[nums[e]] for e in order]

    def __bool__(self) -> bool:
        return bool(self.orbits.nums)  # empty exactly when its expansion is

    def __eq__(self, other: object) -> bool:
        """Equal polynomials: compared on the integer forms, num1 * den2 ==
        num2 * den1 per key, so no Fraction view is built.  Over the same
        blocks the orbit maps are compared and nothing is expanded: each is
        canonical (keys sorted within each block, zeros dropped).  Two zero
        polynomials are equal whatever their degree."""
        if not isinstance(other, VolumePolynomial):
            return NotImplemented
        if self.num_vars != other.num_vars:
            return False
        if self._blocks == other._blocks:
            den1, nums1, degree1 = self.orbits
            den2, nums2, degree2 = other.orbits
        else:
            den1, nums1, degree1 = self.numerators
            den2, nums2, degree2 = other.numerators
        if nums1.keys() != nums2.keys():
            return False
        return not nums1 or (
            degree1 == degree2
            and all(num * den2 == nums2[e] * den1 for e, num in nums1.items())
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"VolumePolynomial({self.num_vars}, {to_text(self)!r})"


def _integer(what: str, value: object) -> int:
    """value as an int; refuses 1.5, 1.0, nan or '3' rather than truncating
    it or comparing it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer (got {value!r})") from None


def from_orbits(
    num_vars: int,
    den: int,
    nums: Mapping[Exponent, int],
    degree: int,
    blocks: Sequence[int],
) -> VolumePolynomial:
    """The polynomial symmetric within each block of consecutive slots
    (`blocks` gives their lengths), from one numerator per orbit: the
    coefficient of every arrangement of the key e within its blocks is
    nums[e]/den * pi^(2(degree - sum(e))).  Zero numerators are dropped.
    The caller vouches that den > 0, that every key has num_vars
    nonnegative entries, sorted non-increasing within each block, that no
    x-degree exceeds `degree` and that no two keys lie in one orbit.
    One-slot blocks, (1,) * num_vars, give a polynomial with no symmetry.
    """
    p = object.__new__(VolumePolynomial)
    p.num_vars, p._blocks = num_vars, tuple(blocks)
    nums = {e: n for e, n in nums.items() if n} if 0 in nums.values() else dict(nums)
    p.orbits = Numerators(den, nums, degree)
    return p


def _expand(orbits: Numerators, blocks: Tuple[int, ...]) -> Numerators:
    """Every exponent vector of every orbit, with the orbit's numerator."""
    den, nums, degree = orbits
    memo: Dict[Exponent, List[Exponent]] = {}
    full: Dict[Exponent, int] = {}
    for key, num in nums.items():
        vectors: List[Exponent] = [()]
        start = 0
        for length in blocks:
            tails = _arrangements(key[start : start + length], memo)
            vectors = [head + tail for head in vectors for tail in tails]
            start += length
        full.update(dict.fromkeys(vectors, num))
    return Numerators(den, full, degree)


def _arrangements(block: Exponent, memo: Dict[Exponent, List[Exponent]]):
    """The distinct orderings of a non-increasing block, in descending order."""
    if len(block) < 2:
        return [block]
    if block not in memo:
        memo[block] = [
            (v,) + tail
            for i, v in enumerate(block)
            if not i or block[i - 1] != v
            for tail in _arrangements(block[:i] + block[i + 1 :], memo)
        ]
    return memo[block]


# -- substitution and evaluation ---------------------------------------------


def substitute_imaginary(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Substitute l_slot = i*theta, i.e. x_slot -> -x_slot, term by term.

    The reference that compute_volume's cone signs are tested against, so
    it works on the pi-graded view and goes through the checking
    constructor.  Applying the substitution twice returns the original
    polynomial.
    """
    slot = _check_slot(p, slot)
    return VolumePolynomial(
        p.num_vars,
        {
            xexp: {pe: -c if xexp[slot] % 2 else c for pe, c in graded.items()}
            for xexp, graded in p.terms.items()
        },
    )


def substitute_zero(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Set l_slot (or theta_slot) to 0 and drop the slot from the ring.

    On orbits, the exponent vectors with a 0 in the slot are exactly the
    arrangements of the orbits whose key has a 0 in the slot's block; a
    key is sorted non-increasing there, so it ends that block in 0, and
    dropping that 0 leaves an orbit key of the block one slot shorter.
    """
    slot = _check_slot(p, slot)
    den, nums, degree = p.orbits
    blocks = list(p._blocks)
    end = 0
    for i, length in enumerate(blocks):
        end += length
        if slot < end:
            break
    blocks[i] -= 1
    last = end - 1
    kept = {e[:last] + e[end:]: n for e, n in nums.items() if not e[last]}
    return from_orbits(p.num_vars - 1, den, kept, degree, blocks)


def eval_numeric(
    p: VolumePolynomial, values: Sequence[float | complex]
) -> float | complex:
    """Substitute l_i = values[i], floating evaluation.

    Real entries must be nonnegative (they are lengths or angles); complex
    entries are allowed for the imaginary-substitution cross-checks.  Each
    coefficient is the correctly rounded quotient of its numerator and the
    shared denominator, times its power of pi.  The float coefficients and
    one gatherer per slot (an operator.itemgetter over the slot's exponent
    column) are the volume's kept `_flat`, built from the orbits on the
    first call and keeping no expanded map; each call gathers every term's
    power of each value in one call per slot, multiplies every coefficient
    by its powers and sums the products.  A real sum is taken with
    math.fsum, which rounds the exact sum of the products once, so terms
    that cancel lose nothing; ValueError is raised when that sum, or a
    coefficient, is not a finite double.
    """
    vals = tuple(values)
    if len(vals) != p.num_vars:
        raise ValueError(
            f"expected {p.num_vars} slot values, got {len(vals)}"
        )
    real = True
    for v in vals:
        if isinstance(v, complex):
            real = False
        elif not v >= 0:  # refuses nan too
            raise ValueError("slot values must be nonnegative")
    coeffs, gathers = p._flat
    # powers of v**2 up to the degree, each once per call
    top = p.orbits.degree
    products: Iterable[float | complex] = coeffs
    for v, gather in zip(vals, gathers):
        table = list(itertools.accumulate(itertools.repeat(v * v, top), operator.mul, initial=1.0))
        products = map(operator.mul, products, gather(table))
    if not real:
        return sum(products, 0.0)
    try:
        total = math.fsum(products)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("the value is not a finite double at these slot values")
    return total


# -- canonical order and serialization ---------------------------------------


def to_json(p: VolumePolynomial) -> str:
    """Canonical JSON: {"vars": N, "terms": [{"xexp", "piexp", "coeff"}...]}."""
    terms = [
        {"xexp": list(xexp), "piexp": piexp, "coeff": f"{num}/{den}"}
        for xexp, piexp, (num, den) in zip(*p._order)
    ]
    return json.dumps({"vars": p.num_vars, "terms": terms}, separators=(",", ":"))


def slot_names(
    num_vars: int, kinds: Sequence[str] | None, latex: bool
) -> List[str]:
    """Display names per slot: lengths ell_1..ell_m, angles theta_1..theta_n."""
    if kinds is None:
        kinds = ("length",) * num_vars
    if len(kinds) != num_vars:
        raise ValueError("kinds must name every slot")
    names = []
    nl = nt = 0
    for kind in kinds:
        if kind == "length":
            nl += 1
            idx = str(nl) if nl < 10 else f"{{{nl}}}"
            names.append(f"\\ell_{idx}" if latex else f"l_{nl}")
        elif kind == "angle":
            nt += 1
            idx = str(nt) if nt < 10 else f"{{{nt}}}"
            names.append(f"\\theta_{idx}" if latex else f"theta_{nt}")
        else:
            raise ValueError(f"unknown slot kind {kind!r}")
    return names


def _latex_pow(base: str, k: int) -> str:
    if k == 1:
        return base
    return f"{base}^{k}" if k < 10 else f"{base}^{{{k}}}"


def to_latex(p: VolumePolynomial, kinds: Sequence[str] | None = None) -> str:
    """Render in canonical order, e.g. -\\frac{\\theta_1^2}{48}+\\frac{\\pi^2}{12}.

    Subscripts below 10 are left unbraced so the degree-one cone volume
    round-trips to the exact golden string.
    """
    # per-call tables: [e] renders x^e of a slot (l^2e or theta^2e), "" at 0
    top = range(1, p.orbits.degree + 1)
    pis = [""] + [_latex_pow("\\pi", 2 * j) for j in top]
    powers = [
        [""] + [_latex_pow(name, 2 * e) for e in top]
        for name in slot_names(p.num_vars, kinds, latex=True)
    ]
    pieces: List[str] = []
    for xexp, piexp, (num, den) in zip(*p._order):
        mono = pis[piexp // 2] + "".join(map(list.__getitem__, powers, xexp))
        body = (str(abs(num)) if abs(num) != 1 or not mono else "") + mono
        if den != 1:
            body = f"\\frac{{{body}}}{{{den}}}"
        pieces.append(("-" if num < 0 else "+" if pieces else "") + body)
    return "".join(pieces) or "0"


def to_text(p: VolumePolynomial, kinds: Sequence[str] | None = None) -> str:
    """Plain-text rendering, canonical order: -1/48*theta_1^2 + 1/12*pi^2."""
    names = slot_names(p.num_vars, kinds, latex=False)
    pieces: List[str] = []
    for xexp, piexp, (num, den) in zip(*p._order):
        parts = []
        if piexp:
            parts.append(f"pi^{piexp}")
        for name, e in zip(names, xexp):
            if e:
                parts.append(f"{name}^{2 * e}")
        if not parts or abs(num) != 1 or den != 1:
            parts.insert(0, f"{abs(num)}/{den}" if den != 1 else str(abs(num)))
        body = "*".join(parts)
        if pieces:
            pieces.append(("- " if num < 0 else "+ ") + body)
        else:
            pieces.append(("-" if num < 0 else "") + body)
    return " ".join(pieces) or "0"


def _check_slot(p: VolumePolynomial, slot: int) -> int:
    slot = _integer("slot", slot)
    if not 0 <= slot < p.num_vars:
        raise ValueError(f"slot {slot} out of range for {p.num_vars} variables")
    return slot
