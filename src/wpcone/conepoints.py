"""Public API for volumes of hyperbolic surfaces with cone points.

The moduli space of genus-g hyperbolic surfaces with m geodesic boundary
components of lengths L_1..L_m and n conical singularities of angles
theta_1..theta_n carries a symplectic volume that is a polynomial in the
boundary lengths and cone angles.  A cone point behaves exactly like a
boundary circle of imaginary length i*theta, so the polynomial is obtained
from the all-boundary volume by substituting i*theta into the chosen slots;
evenness in each length variable guarantees the result has real (rational
times pi-power) coefficients.

Angles are restricted to (0, pi].  Beyond pi the surface can fail to admit
the pants decompositions the recursion integrates over, so wider angles are
rejected up front rather than silently producing a meaningless polynomial.

The theta -> 0 limit of a cone point is a cusp, and it matches the L -> 0
limit of a boundary component; `cusp_limit` exposes that degeneration.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Iterable, Optional, Sequence, Tuple

from wpcone.polyalg import VolumePolynomial, _integer, eval_numeric, substitute_zero
from wpcone.recursion import _CUSP_MEMO, SurfaceSignature, compute_volume
from wpcone.kernels import check_cone_angle, check_length


class ConeSurfaceSpec(
    namedtuple("ConeSurfaceSpec", "sig cone_angles boundary_lengths")
):
    """A surface to compute: signature plus optional numeric boundary data.

    `boundary_lengths` may be omitted (None) to keep the length slots
    symbolic; `cone_angles` must always be supplied, one angle in (0, pi]
    per cone point.  Angles are radians.  Each field is an iterable of
    numbers: a string, bytes or a bare number, or an element that is text or
    None, raises ValueError naming it.
    """

    __slots__ = ()

    def __new__(
        cls,
        sig: SurfaceSignature,
        cone_angles: Sequence[float] = (),
        boundary_lengths: Optional[Sequence[float]] = None,
    ) -> ConeSurfaceSpec:
        angles = _numbers("cone_angles", cone_angles)
        if len(angles) != sig.cones:
            raise ValueError(
                "expected %d cone angles for signature %s, got %d"
                % (sig.cones, sig, len(angles))
            )
        for a in angles:
            check_cone_angle(a)
        lengths = None
        if boundary_lengths is not None:
            lengths = _numbers("boundary_lengths", boundary_lengths)
            if len(lengths) != sig.boundaries:
                raise ValueError(
                    "expected %d boundary lengths for signature %s, got %d"
                    % (sig.boundaries, sig, len(lengths))
                )
            for x in lengths:
                check_length(x)
        return tuple.__new__(cls, (sig, angles, lengths))


def _numbers(field: str, values: Iterable[float]) -> Tuple[float, ...]:
    """values as floats; refuses a string, which would be read character by
    character, a bare number, and an element that is not a number.  Each
    element takes a unary plus before float reads it: text and None refuse
    it, where float would parse '3' or b'5'."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            return tuple(map(float, map(operator.pos, values)))
        except TypeError:  # a bare number, or an element that is no number
            pass
    raise ValueError(f"{field} must be a sequence of numbers (got {values!r})")


def volume_polynomial(spec: ConeSurfaceSpec, **caps: Optional[int]) -> VolumePolynomial:
    """Exact volume polynomial for the spec's signature.

    Slots 0..m-1 are the boundary length variables and slots m..m+n-1 the
    cone angle variables (the angle sign is already absorbed, so evaluating
    with positive angle values gives the volume directly).  The caps are
    keyword arguments passed on to compute_volume, which names them and
    holds their defaults.
    """
    return compute_volume(spec.sig, **caps)


def volume_value(spec: ConeSurfaceSpec, **caps: Optional[int]) -> float:
    """Numeric volume at the spec's lengths and angles.

    Requires numeric boundary lengths whenever the signature has boundary
    components.  The result of a correct computation is strictly positive
    (the moduli space is nonempty); a non-positive value can only come from
    an internal defect and is raised as such rather than returned.
    """
    if spec.sig.boundaries > 0 and spec.boundary_lengths is None:
        raise ValueError(
            "numeric boundary lengths are required to evaluate the volume "
            "of signature %s" % (spec.sig,)
        )
    poly = volume_polynomial(spec, **caps)
    result = eval_numeric(poly, (*(spec.boundary_lengths or ()), *spec.cone_angles))
    if not result > 0.0:
        raise RuntimeError(
            "volume evaluated to a non-positive number (%r) for %s; "
            "volumes of nonempty moduli spaces are positive, so this "
            "signals an internal defect" % (result, spec)
        )
    return result


def cusp_limit(
    sig: SurfaceSignature, cone_slot: int = 0, **caps: Optional[int]
) -> VolumePolynomial:
    """Volume polynomial with one cone angle sent to zero (a cusp).

    `cone_slot` indexes the cone points (0-based, so slot k is global
    variable slot m + k).  The returned polynomial has that slot removed;
    it coincides with the volume of the same signature where the cone is
    replaced by a boundary circle whose length is set to zero.  The caps
    are checked first (by compute_volume); the result is then memoized per
    (g, m, n): the volume is symmetric in its cone slots, so every slot
    gives the same polynomial, and a repeated call returns the same object.
    A slot that is not an integer (0.5, '1') raises ValueError.
    """
    cone_slot = _integer("cone slot", cone_slot)
    if not 0 <= cone_slot < sig.cones:
        raise ValueError(
            "cone slot %d out of range for signature %s with %d cone points"
            % (cone_slot, sig, sig.cones)
        )
    poly = compute_volume(sig, **caps)
    cached = _CUSP_MEMO.get(sig)  # a signature is its own (g, m, n) key
    if cached is not None:
        return cached
    result = substitute_zero(poly, sig.boundaries + cone_slot)
    return _CUSP_MEMO.setdefault(tuple(sig), result)
