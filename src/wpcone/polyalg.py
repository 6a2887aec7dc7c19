"""Exact sparse arithmetic for the ring the volume polynomials live in.

A volume polynomial is a polynomial in the squared slot variables
x_i = l_i**2 (one slot per boundary curve; after an imaginary substitution a
slot is read as x_i = theta_i**2) whose coefficients are rational multiples of
even powers of pi.  Everything is exact:

  terms:  Dict[Exponent, PiGraded]
  Exponent = Tuple[int, ...]        one entry per slot, the power of x_i
  PiGraded = Dict[int, Fraction]    pi-exponent (even, >= 0) -> rational

so  {(1,): {0: Fraction(-1, 48)}, (0,): {2: Fraction(1, 12)}}  is
-x/48 + pi**2/12.  Zero coefficients are never stored; the zero polynomial has
an empty term map.

Odd powers of l_i appear transiently while the recursion differentiates and
integrates l_1 * V in l_1.  They are carried by a per-slot parity vector
(0 = even, 1 = odd) that applies uniformly to every stored term: the actual
power of l_i in a term is 2*e_i + parity_i.  Finished volumes are even in
every slot (all-zero parity), which the serializers enforce.

The recursion does not compute in this form.  A volume of degree d (its
dimension over two, 3g - 3 + m + n) is homogeneous: x-degree plus half the
pi-power equals d in every term, so the pi-power of the term x^e is implied,
2 * (d - sum(e)), and each exponent vector carries one coefficient.  The
recursion's working form (Numerators) is therefore one positive integer
denominator, a map {exponent vector: integer numerator} and the degree.
from_numerators wraps it in a VolumePolynomial that keeps it as
`numerators` and builds the Fraction `terms` above only when they are first
read, so a volume the recursion uses but no caller looks at never pays for
them.  Polynomials built from terms have numerators None.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
PiGraded = Dict[int, Fraction]
Terms = Dict[Exponent, PiGraded]


class Numerators(NamedTuple):
    """Working form of a degree-homogeneous polynomial: the coefficient of
    x^e is nums[e] / den times pi^(2 * (degree - sum(e)))."""

    den: int
    nums: Dict[Exponent, int]
    degree: int


class VolumePolynomial:
    """Immutable-by-convention exact polynomial; see the module docstring.

    `numerators` is the working form of a polynomial made by
    from_numerators, whose `terms` are then built on first access; it is
    None for a polynomial built from terms.
    """

    numerators: Optional[Numerators] = None

    def __init__(
        self,
        num_vars: int,
        terms: Mapping[Exponent, Mapping[int, Fraction]] | None = None,
        parity: Sequence[int] | None = None,
    ) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        self.parity: Tuple[int, ...] = (
            tuple(parity) if parity is not None else (0,) * num_vars
        )
        if len(self.parity) != num_vars or any(p not in (0, 1) for p in self.parity):
            raise ValueError("parity must be a 0/1 vector of length num_vars")
        clean: Terms = {}
        for xexp, graded in (terms or {}).items():
            key = tuple(int(e) for e in xexp)
            if len(key) != num_vars:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {num_vars}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            bucket: PiGraded = {}
            for piexp, coeff in graded.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                p = int(piexp)
                if p < 0 or p % 2:
                    raise ValueError(f"pi-exponent {p} must be even and nonnegative")
                bucket[p] = bucket.get(p, Fraction(0)) + c
            bucket = {p: c for p, c in bucket.items() if c != 0}
            if bucket:
                existing = clean.get(key)
                if existing is None:
                    clean[key] = bucket
                else:  # merge duplicate keys defensively
                    for p, c in bucket.items():
                        s = existing.get(p, Fraction(0)) + c
                        if s:
                            existing[p] = s
                        else:
                            existing.pop(p, None)
                    if not existing:
                        del clean[key]
        self._terms: Optional[Terms] = clean

    @property
    def terms(self) -> Terms:
        # two threads reading first may both build; they build equal maps
        if self._terms is None:
            den, nums, degree = self.numerators
            self._terms = {
                xexp: {2 * (degree - sum(xexp)): Fraction(num, den)}
                for xexp, num in nums.items()
            }
        return self._terms

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VolumePolynomial):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.parity == other.parity
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"VolumePolynomial({self.num_vars}, {to_text(self)!r})"

    def __add__(self, other: "VolumePolynomial") -> "VolumePolynomial":
        return poly_add(self, other)

    def __sub__(self, other: "VolumePolynomial") -> "VolumePolynomial":
        return poly_add(self, scale(other, Fraction(-1)))

    def __neg__(self) -> "VolumePolynomial":
        return scale(self, Fraction(-1))

    def __mul__(self, other: "VolumePolynomial") -> "VolumePolynomial":
        return poly_mul(self, other)

    def total_x_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)


def zero(num_vars: int, parity: Sequence[int] | None = None) -> VolumePolynomial:
    return VolumePolynomial(num_vars, {}, parity)


def constant(
    num_vars: int, value: Fraction | int, piexp: int = 0
) -> VolumePolynomial:
    """The constant polynomial value * pi**piexp in num_vars slots."""
    return VolumePolynomial(num_vars, {(0,) * num_vars: {piexp: Fraction(value)}})


def monomial(
    num_vars: int,
    xexp: Sequence[int],
    coeff: Fraction | int,
    piexp: int = 0,
) -> VolumePolynomial:
    return VolumePolynomial(num_vars, {tuple(xexp): {piexp: Fraction(coeff)}})


def from_numerators(
    num_vars: int,
    den: int,
    nums: Mapping[Exponent, int],
    degree: int,
    negate: Sequence[int] = (),
) -> VolumePolynomial:
    """The even polynomial sum_e nums[e]/den x^e pi^(2(degree - sum(e))).

    Each slot in `negate` gets x -> -x (substitute_imaginary on that slot),
    so a term changes sign when its exponents on those slots sum to an odd
    number.  Zero numerators are dropped.  The caller vouches that den > 0
    and that no x-degree exceeds `degree`.
    """
    kept: Dict[Exponent, int] = {}
    for xexp, num in nums.items():
        if num:
            flip = negate and sum(xexp[s] for s in negate) % 2
            kept[xexp] = -num if flip else num
    p = VolumePolynomial(num_vars)
    p.numerators = Numerators(den, kept, degree)
    p._terms = None
    return p


# -- ring operations -------------------------------------------------------


def poly_add(a: VolumePolynomial, b: VolumePolynomial) -> VolumePolynomial:
    """Exact coefficient-wise sum; zero terms pruned."""
    if a.num_vars != b.num_vars:
        raise ValueError(
            f"variable-count mismatch: {a.num_vars} vs {b.num_vars}"
        )
    if a.parity != b.parity:
        raise ValueError(f"parity mismatch: {a.parity} vs {b.parity}")
    out: Terms = {k: dict(v) for k, v in a.terms.items()}
    for xexp, graded in b.terms.items():
        bucket = out.setdefault(xexp, {})
        for piexp, coeff in graded.items():
            s = bucket.get(piexp, Fraction(0)) + coeff
            if s:
                bucket[piexp] = s
            else:
                bucket.pop(piexp, None)
        if not bucket:
            del out[xexp]
    return VolumePolynomial(a.num_vars, out, a.parity)


def poly_mul(a: VolumePolynomial, b: VolumePolynomial) -> VolumePolynomial:
    """Exact product; x-exponents and pi-exponents add, parities combine.

    Slot i of the product has l-power (2*ea + pa) + (2*eb + pb), so the new
    parity is (pa + pb) % 2 and the carry (pa + pb) // 2 lands in the
    x-exponent.
    """
    if a.num_vars != b.num_vars:
        raise ValueError(
            f"variable-count mismatch: {a.num_vars} vs {b.num_vars}"
        )
    carry = tuple((pa + pb) // 2 for pa, pb in zip(a.parity, b.parity))
    parity = tuple((pa + pb) % 2 for pa, pb in zip(a.parity, b.parity))
    out: Terms = {}
    for ea, ga in a.terms.items():
        for eb, gb in b.terms.items():
            key = tuple(x + y + c for x, y, c in zip(ea, eb, carry))
            bucket = out.setdefault(key, {})
            for pa, ca in ga.items():
                for pb, cb in gb.items():
                    p = pa + pb
                    s = bucket.get(p, Fraction(0)) + ca * cb
                    if s:
                        bucket[p] = s
                    else:
                        bucket.pop(p, None)
            if not bucket:
                del out[key]
    return VolumePolynomial(a.num_vars, out, parity)


def scale(
    p: VolumePolynomial, coeff: Fraction | int, piexp: int = 0
) -> VolumePolynomial:
    c = Fraction(coeff)
    if c == 0:
        return zero(p.num_vars, p.parity)
    out: Terms = {
        xexp: {pe + piexp: cf * c for pe, cf in graded.items()}
        for xexp, graded in p.terms.items()
    }
    return VolumePolynomial(p.num_vars, out, p.parity)


def embed(
    p: VolumePolynomial, num_vars: int, slot_map: Sequence[int]
) -> VolumePolynomial:
    """Inject p into a larger ring, sending slot i to slot slot_map[i]."""
    if len(slot_map) != p.num_vars:
        raise ValueError("slot_map must assign every slot of p")
    if len(set(slot_map)) != len(slot_map):
        raise ValueError("slot_map must be injective")
    parity = [0] * num_vars
    for i, j in enumerate(slot_map):
        parity[j] = p.parity[i]
    out: Terms = {}
    for xexp, graded in p.terms.items():
        key = [0] * num_vars
        for i, j in enumerate(slot_map):
            key[j] = xexp[i]
        out[tuple(key)] = dict(graded)
    return VolumePolynomial(num_vars, out, parity)


def permute_slots(p: VolumePolynomial, perm: Sequence[int]) -> VolumePolynomial:
    """Relabel slots: slot i of the result is slot perm[i] of p."""
    if sorted(perm) != list(range(p.num_vars)):
        raise ValueError("perm must be a permutation of the slots")
    parity = tuple(p.parity[perm[i]] for i in range(p.num_vars))
    out: Terms = {
        tuple(xexp[perm[i]] for i in range(p.num_vars)): dict(graded)
        for xexp, graded in p.terms.items()
    }
    return VolumePolynomial(p.num_vars, out, parity)


# -- calculus and substitution ---------------------------------------------


def substitute_imaginary(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Substitute l_slot = i*theta, i.e. x_slot -> -x_slot.

    Only even powers of l_slot may appear (the result would otherwise pick up
    an imaginary factor), so the slot's parity must be 0.  Applying the
    substitution twice returns the original polynomial.
    """
    _check_slot(p, slot)
    if p.parity[slot]:
        raise ValueError(f"slot {slot} carries an odd l-power; cannot substitute")
    out: Terms = {}
    for xexp, graded in p.terms.items():
        if xexp[slot] % 2:
            out[xexp] = {pe: -c for pe, c in graded.items()}
        else:
            out[xexp] = dict(graded)
    return VolumePolynomial(p.num_vars, out, p.parity)


def substitute_zero(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Set l_slot (or theta_slot) to 0 and drop the slot from the ring."""
    _check_slot(p, slot)
    out: Terms = {}
    for xexp, graded in p.terms.items():
        if xexp[slot] != 0 or p.parity[slot]:
            continue
        key = xexp[:slot] + xexp[slot + 1 :]
        bucket = out.setdefault(key, {})
        for pe, c in graded.items():
            s = bucket.get(pe, Fraction(0)) + c
            if s:
                bucket[pe] = s
            else:
                bucket.pop(pe, None)
    parity = p.parity[:slot] + p.parity[slot + 1 :]
    return VolumePolynomial(p.num_vars - 1, out, parity)


def partial_derivative(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Exact formal derivative in the slot's underlying variable l_slot.

    (The same rule serves angle slots: after the imaginary substitution the
    stored variable is x = theta**2 and the derivative is taken in theta.)
    """
    _check_slot(p, slot)
    out: Terms = {}
    if p.parity[slot]:
        # d/dl of l^(2e+1) = (2e+1) l^(2e)
        for xexp, graded in p.terms.items():
            k = 2 * xexp[slot] + 1
            out[xexp] = {pe: c * k for pe, c in graded.items()}
    else:
        # d/dl of l^(2e) = 2e l^(2e-1)
        for xexp, graded in p.terms.items():
            e = xexp[slot]
            if e == 0:
                continue
            key = xexp[:slot] + (e - 1,) + xexp[slot + 1 :]
            bucket = out.setdefault(key, {})
            for pe, c in graded.items():
                s = bucket.get(pe, Fraction(0)) + c * 2 * e
                if s:
                    bucket[pe] = s
                else:
                    bucket.pop(pe, None)
    parity = list(p.parity)
    parity[slot] ^= 1
    return VolumePolynomial(p.num_vars, out, parity)


def antiderivative(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Antiderivative in l_slot with zero constant term."""
    _check_slot(p, slot)
    out: Terms = {}
    if p.parity[slot]:
        # l^(2e+1) -> l^(2e+2) / (2e+2)
        for xexp, graded in p.terms.items():
            e = xexp[slot]
            key = xexp[:slot] + (e + 1,) + xexp[slot + 1 :]
            out[key] = {pe: c / (2 * e + 2) for pe, c in graded.items()}
    else:
        # l^(2e) -> l^(2e+1) / (2e+1)
        for xexp, graded in p.terms.items():
            out[xexp] = {
                pe: c / (2 * xexp[slot] + 1) for pe, c in graded.items()
            }
    parity = list(p.parity)
    parity[slot] ^= 1
    return VolumePolynomial(p.num_vars, out, parity)


def mul_by_slot_length(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Multiply by the bare length l_slot (parity-aware)."""
    _check_slot(p, slot)
    parity = list(p.parity)
    if p.parity[slot]:
        out: Terms = {
            xexp[:slot] + (xexp[slot] + 1,) + xexp[slot + 1 :]: dict(graded)
            for xexp, graded in p.terms.items()
        }
        parity[slot] = 0
    else:
        out = {xexp: dict(graded) for xexp, graded in p.terms.items()}
        parity[slot] = 1
    return VolumePolynomial(p.num_vars, out, parity)


def divide_by_slot_length(p: VolumePolynomial, slot: int) -> VolumePolynomial:
    """Divide by l_slot; raises if a residue would be left behind."""
    _check_slot(p, slot)
    parity = list(p.parity)
    if p.parity[slot]:
        out: Terms = {xexp: dict(graded) for xexp, graded in p.terms.items()}
        parity[slot] = 0
    else:
        out = {}
        for xexp, graded in p.terms.items():
            e = xexp[slot]
            if e == 0:
                raise RuntimeError(
                    "division by the slot length leaves a nonzero residue"
                )
            out[xexp[:slot] + (e - 1,) + xexp[slot + 1 :]] = dict(graded)
        parity[slot] = 1
    return VolumePolynomial(p.num_vars, out, parity)


# -- evaluation -------------------------------------------------------------


def eval_numeric(
    p: VolumePolynomial,
    values: Sequence[float | complex],
    pi_value: float = math.pi,
) -> float | complex:
    """Substitute l_i = values[i] and pi = pi_value, floating evaluation.

    Real entries must be nonnegative (they are lengths or angles); complex
    entries are allowed for the imaginary-substitution cross-checks.
    """
    vals = list(values)
    if len(vals) != p.num_vars:
        raise ValueError(
            f"expected {p.num_vars} slot values, got {len(vals)}"
        )
    for v in vals:
        if not isinstance(v, complex) and v < 0:
            raise ValueError("slot values must be nonnegative")
    total: float | complex = 0.0
    for xexp, graded in p.terms.items():
        coeff = 0.0
        for pe, c in graded.items():
            coeff += float(c) * pi_value**pe
        mono: float | complex = 1.0
        for v, e, par in zip(vals, xexp, p.parity):
            k = 2 * e + par
            if k:
                mono *= v**k
        total += coeff * mono
    return total


def eval_exact(
    p: VolumePolynomial, values: Sequence[Fraction | int]
) -> Dict[int, Fraction]:
    """Evaluate at exact rational slot values, keeping pi symbolic.

    Returns {pi-exponent: exact rational value}.
    """
    vals = [Fraction(v) for v in values]
    if len(vals) != p.num_vars:
        raise ValueError(f"expected {p.num_vars} slot values, got {len(vals)}")
    out: Dict[int, Fraction] = {}
    for xexp, graded in p.terms.items():
        mono = Fraction(1)
        for v, e, par in zip(vals, xexp, p.parity):
            mono *= v ** (2 * e + par)
        for pe, c in graded.items():
            s = out.get(pe, Fraction(0)) + c * mono
            if s:
                out[pe] = s
            else:
                out.pop(pe, None)
    return out


# -- canonical order and serialization ---------------------------------------


def canonical_terms(
    p: VolumePolynomial,
) -> List[Tuple[Exponent, int, Fraction]]:
    """Flatten to (xexp, piexp, coeff), graded-lex order, leading term first.

    Higher total x-degree first, then lexicographically larger exponent
    vector, then higher pi-power.
    """
    flat = [
        (xexp, piexp, coeff)
        for xexp, graded in p.terms.items()
        for piexp, coeff in graded.items()
    ]
    flat.sort(key=lambda t: (sum(t[0]), t[0], t[1]), reverse=True)
    return flat


def _require_even(p: VolumePolynomial) -> None:
    if any(p.parity):
        raise ValueError(
            "polynomial carries odd l-powers; only even polynomials serialize"
        )


def to_json(p: VolumePolynomial) -> str:
    """Canonical JSON: {"vars": N, "terms": [{"xexp", "piexp", "coeff"}...]}."""
    _require_even(p)
    terms = [
        {
            "xexp": list(xexp),
            "piexp": piexp,
            "coeff": f"{coeff.numerator}/{coeff.denominator}",
        }
        for xexp, piexp, coeff in canonical_terms(p)
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
    _require_even(p)
    names = slot_names(p.num_vars, kinds, latex=True)
    flat = canonical_terms(p)
    if not flat:
        return "0"
    pieces: List[str] = []
    for idx, (xexp, piexp, coeff) in enumerate(flat):
        mono = ""
        if piexp:
            mono += _latex_pow("\\pi", piexp)
        for name, e in zip(names, xexp):
            if e:
                mono += _latex_pow(name, 2 * e)
        num, den = abs(coeff.numerator), coeff.denominator
        if den == 1:
            body = (str(num) if num != 1 or not mono else "") + mono
        else:
            inner = (str(num) if num != 1 or not mono else "") + mono
            body = f"\\frac{{{inner}}}{{{den}}}"
        sign = "-" if coeff < 0 else ("+" if idx else "")
        pieces.append(sign + body)
    return "".join(pieces)


def to_text(p: VolumePolynomial, kinds: Sequence[str] | None = None) -> str:
    """Plain-text rendering, canonical order: -1/48*theta_1^2 + 1/12*pi^2."""
    names = slot_names(p.num_vars, kinds, latex=False)
    flat = canonical_terms(p)
    if not flat:
        return "0"
    pieces = []
    for idx, (xexp, piexp, coeff) in enumerate(flat):
        parts = []
        if piexp:
            parts.append(f"pi^{piexp}")
        for name, e, par in zip(names, xexp, p.parity):
            k = 2 * e + par
            if k == 1:
                parts.append(name)
            elif k:
                parts.append(f"{name}^{k}")
        mag = abs(coeff)
        if not parts or mag != 1:
            parts.insert(0, str(mag))
        body = "*".join(parts)
        if idx == 0:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def _check_slot(p: VolumePolynomial, slot: int) -> None:
    if not 0 <= slot < p.num_vars:
        raise ValueError(f"slot {slot} out of range for {p.num_vars} variables")
