"""Correctness gate built on facts from outside the recursion.

Polynomials are compared through wpcone's canonical JSON (the serialization
that must stay byte-identical across refactors), parsed here into exact
{(xexp, piexp): Fraction} maps, so the gate does not depend on the
program's in-memory representation.

* Published volumes (Mirzakhani, Invent. Math. 2007): V_{0,4}, V_{1,1},
  V_{1,0,1}, V_{1,2}, V_{2,1}, written out as products of linear forms.
* The dilaton equation of Do-Norbury (arXiv:math/0603406) in the squared
  variable x = L^2: V_{g,0} = 2 V'_{g,1}(x = -4 pi^2) / (2g - 2), checked
  exactly in Q[pi^2] against the published V_{2,0} and V_{3,0}.
* SHA-256 digests of every output, recorded at the seed in digests.json.
* Numeric values re-evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

Exact = Dict[Tuple[Tuple[int, ...], int], Fraction]

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# pi to 50 decimals: the rounding error (< 1e-50) is far below the 1e-12
# tolerance of the numeric re-evaluation
PI = Fraction("3.14159265358979323846264338327950288419716939937510")


def parse_canonical(text: str) -> Tuple[int, Exact]:
    """(number of slots, exact terms) from wpcone's canonical JSON."""
    doc = json.loads(text)
    terms: Exact = {}
    for term in doc["terms"]:
        key = (tuple(term["xexp"]), term["piexp"])
        terms[key] = terms.get(key, Fraction(0)) + Fraction(term["coeff"])
    return doc["vars"], {k: c for k, c in terms.items() if c}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> Dict[str, object]:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def coeff_bits_max(texts: Sequence[str]) -> int:
    """Largest numerator or denominator bit length over canonical JSONs."""
    bits = 0
    for text in texts:
        for coeff in parse_canonical(text)[1].values():
            bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return bits


# -- published volumes ----------------------------------------------------------


def _mul(a: Exact, b: Exact) -> Exact:
    out: Exact = {}
    for (ea, pa), ca in a.items():
        for (eb, pb), cb in b.items():
            key = (tuple(x + y for x, y in zip(ea, eb)), pa + pb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _linear(nvars: int, pi_terms: Dict[int, Fraction], x_coeff: Fraction = Fraction(1)) -> Exact:
    """sum_p c_p pi^p + x_coeff * (x_1 + ... + x_nvars)."""
    out: Exact = {((0,) * nvars, p): Fraction(c) for p, c in pi_terms.items()}
    for i in range(nvars):
        out[(tuple(int(j == i) for j in range(nvars)), 0)] = Fraction(x_coeff)
    return out


def _scaled(p: Exact, c: Fraction) -> Exact:
    return {k: v * c for k, v in p.items()}


def published() -> Dict[Tuple[int, int, int], Exact]:
    """Exact V_{g,m,n} in this repo's variables (x = L^2, or theta^2 on cones)."""
    v21 = _mul(
        _mul(_linear(1, {2: 4}), _linear(1, {2: 12})),
        {((0,), 4): Fraction(6960), ((1,), 2): Fraction(384), ((2,), 0): Fraction(5)},
    )
    return {
        (0, 4, 0): _linear(4, {2: 2}, Fraction(1, 2)),
        (1, 1, 0): _linear(1, {2: Fraction(1, 12)}, Fraction(1, 48)),
        (1, 0, 1): _linear(1, {2: Fraction(1, 12)}, Fraction(-1, 48)),
        (1, 2, 0): _scaled(_mul(_linear(2, {2: 4}), _linear(2, {2: 12})), Fraction(1, 192)),
        (2, 1, 0): _scaled(v21, Fraction(1, 2211840)),
        (2, 0, 0): {((), 6): Fraction(43, 2160)},
        (3, 0, 0): {((), 12): Fraction(176557, 1209600)},
    }


def dilaton_closed(v_g1: Exact, genus: int) -> Exact:
    """V_{g,0} = 2 V'_{g,1}(x = -4 pi^2) / (2g - 2), exactly in Q[pi^2].

    A term c pi^p x^e contributes c e (-4)^(e-1) pi^(p + 2(e-1)).
    """
    out: Exact = {}
    for ((e,), p), c in v_g1.items():
        if e == 0:
            continue
        key = ((), p + 2 * (e - 1))
        out[key] = out.get(key, Fraction(0)) + c * e * Fraction(-4) ** (e - 1)
    factor = Fraction(2, 2 * genus - 2)
    return {k: v * factor for k, v in out.items() if v}


def fact_failures(canonical_of: Callable[[int, int, int], str]) -> List[str]:
    """Published values and dilaton checks; empty when every fact holds.

    `canonical_of(g, m, n)` returns the program's canonical JSON for the
    signature.
    """
    failures = []
    facts = published()
    for sig in [(0, 4, 0), (1, 1, 0), (1, 0, 1), (1, 2, 0), (2, 1, 0)]:
        if parse_canonical(canonical_of(*sig))[1] != facts[sig]:
            failures.append("V_%s differs from the published polynomial" % (sig,))
    for genus in (2, 3):
        closed = dilaton_closed(parse_canonical(canonical_of(genus, 1, 0))[1], genus)
        if closed != facts[(genus, 0, 0)]:
            failures.append("dilaton equation fails for V_{%d,0}" % genus)
    return failures


def exact_value(text: str, values: Sequence[float]) -> Fraction:
    """The polynomial at the given slot values, in exact rational arithmetic."""
    _, terms = parse_canonical(text)
    exact = [Fraction(v) ** 2 for v in values]
    total = Fraction(0)
    for (xexp, piexp), coeff in terms.items():
        mono = coeff * PI**piexp
        for x, e in zip(exact, xexp):
            mono *= x**e
        total += mono
    return total


def value_matches(text: str, values: Sequence[float], got: float, rel: float = 1e-12) -> bool:
    want = exact_value(text, values)
    return want > 0 and abs(Fraction(got) - want) <= rel * want
