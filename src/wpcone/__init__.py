"""Weil-Petersson volumes of hyperbolic surfaces with boundaries and cone points.

The volume of the moduli space of genus-g hyperbolic surfaces with m
geodesic boundary circles and n cone points (angles up to pi) is an exact
polynomial in the boundary lengths and cone angles.  This package computes
those polynomials by a boundary-length recursion in rational arithmetic,
treats cone angles as imaginary lengths, and ships the numerical machinery
(gap kernels, moment integrals, McShane identity sums over simple closed
geodesics) that certifies the recursion end to end.

Quick start::

    from wpcone import ConeSurfaceSpec, SurfaceSignature, volume_polynomial
    from wpcone.polyalg import to_latex

    spec = ConeSurfaceSpec(SurfaceSignature(1, 0, 1), (3.14159,))
    print(to_latex(volume_polynomial(spec), kinds=("angle",)))

The `wpcone` console script exposes the same functionality from the shell.

Importing the package loads none of its modules: each public name is
imported from its module on first access.  So a command of the console
script loads only what it runs -- `verify mcshane` loads kernels and
mcshane; `verify kernel` kernels and polyalg; `verify identity` kernels,
mcshane, polyalg and recursion; `table` and `verify recursion` kernels,
polyalg and recursion; `volume` and `cusp-limit` those three and
conepoints.
"""

__version__ = "0.1.0"

#: Each public name and the module that defines it, for the PEP 562
#: `__getattr__` below.
_EXPORTS = {
    "ConeSurfaceSpec": "wpcone.conepoints",
    "SurfaceSignature": "wpcone.recursion",
    "VolumePolynomial": "wpcone.polyalg",
    "compute_volume": "wpcone.recursion",
    "cusp_limit": "wpcone.conepoints",
    "volume_polynomial": "wpcone.conepoints",
    "volume_value": "wpcone.conepoints",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
