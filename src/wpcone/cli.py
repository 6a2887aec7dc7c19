"""Command-line interface for cone-surface volume computations.

Subcommands:

    volume      exact volume polynomial (or numeric value) for one signature
    table       all stable signatures within caps, with their polynomials
    cusp-limit  a volume polynomial with one cone angle sent to zero
    verify      numerical certification suites (mcshane, kernel, identity,
                recursion)

Exit codes: 0 on success, 1 when an internal invariant or a verification
fails, 2 on invalid input (the message names the violated constraint).

The caps max_genus, max_slots and max_moment_k keep their defaults from
recursion unless a flag (--max-genus, --max-slots, --max-moment-k) sets
them.  Only the commands that compute volumes (volume, table, cusp-limit,
verify recursion) take the cap flags; the other verify suites read no caps.

Commands need only the standard library, and each imports the package
modules it uses when it runs (importing this module loads argparse and no
package module):

    verify mcshane              kernels, mcshane
    verify kernel               kernels, polyalg
    verify identity             kernels, mcshane, polyalg, recursion
    verify recursion, table     kernels, polyalg, recursion
    volume, cusp-limit          conepoints, kernels, polyalg, recursion
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Dict

_CAPS = {
    "max_genus": "genus cap override",
    "max_slots": "slot-count cap override",
    "max_moment_k": "moment-index cap override",
}

_ANGLE_FORM = re.compile(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?")


def _parse_angle(text: str, degrees: bool = False) -> float:
    """Angle in radians from a decimal or a pi-literal like 'pi' or 'pi/2'."""
    s = text.strip().lower().replace(" ", "")
    match = _ANGLE_FORM.fullmatch(s)
    if match is not None:
        num = float(match.group(1)) if match.group(1) else 1.0
        den = float(match.group(2)) if match.group(2) else 1.0
        if den:
            return num * math.pi / den
    # no decimal that float() reads contains "pi", so a malformed pi-form,
    # or one that divides by zero, fails here with the same message
    try:
        value = float(s)
    except ValueError:
        raise ValueError(
            "cannot parse angle %r; use a number or a form like 'pi', "
            "'pi/2', '3pi/4'" % text
        ) from None
    return math.radians(value) if degrees else value


def _positive(text: str) -> float:
    """The argparse type of every --tol and --cutoff: a float in (0, inf)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite (got %r)" % text)
    return value


def _settings(args: argparse.Namespace) -> Dict[str, int]:
    """Effective caps, the keyword arguments of compute_volume: the
    defaults, each overridden by its flag."""
    # the caps' defaults live in recursion, which enforces them
    from wpcone import recursion

    values = {
        "max_genus": recursion.DEFAULT_MAX_GENUS,
        "max_slots": recursion.DEFAULT_MAX_SLOTS,
        "max_moment_k": recursion.DEFAULT_MAX_MOMENT_K,
    }
    for key in _CAPS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _poly_text(poly, kinds, fmt: str) -> str:
    from wpcone.polyalg import to_json, to_latex, to_text

    if fmt == "latex":
        return to_latex(poly, kinds=kinds)
    if fmt == "text":
        return to_text(poly, kinds=kinds)
    return to_json(poly)


def _signature(args: argparse.Namespace):
    from wpcone.recursion import SurfaceSignature

    return SurfaceSignature(args.g, args.boundaries, args.cones)


def _cmd_volume(args: argparse.Namespace) -> int:
    from wpcone.conepoints import ConeSurfaceSpec, volume_value
    from wpcone.recursion import compute_volume

    caps = _settings(args)
    sig = _signature(args)
    have_lengths = args.lengths is not None
    have_angles = args.angles is not None
    if not have_lengths and not have_angles:
        poly = compute_volume(sig, **caps)
        kinds = ("length",) * sig.boundaries + ("angle",) * sig.cones
        print(_poly_text(poly, kinds, args.format))
        return 0
    if (sig.boundaries > 0) != have_lengths or (sig.cones > 0) != have_angles:
        raise ValueError(
            "numeric evaluation needs --lengths for every boundary and "
            "--angles for every cone point (or neither, for the polynomial)"
        )
    angles = tuple(
        _parse_angle(a, degrees=args.degrees) for a in (args.angles or ())
    )
    spec = ConeSurfaceSpec(
        sig, angles, tuple(args.lengths) if have_lengths else None
    )
    value = volume_value(spec, **caps)
    if args.format == "json":
        print(json.dumps({"value": value}, separators=(",", ":")))
    else:
        print(repr(value))
    return 0


def _stable_signatures(args: argparse.Namespace, caps: Dict[str, int]):
    """Every stable (g, m, n) within --g-max and --slot-max but the closed
    surfaces; a bound beyond its cap, or bounds that select none, are
    refused."""
    for flag, cap in (("--g-max", "max_genus"), ("--slot-max", "max_slots")):
        bound = getattr(args, flag[2:].replace("-", "_"))
        if bound > caps[cap]:
            raise ValueError(
                "%s %d exceeds %s=%d; raise the %s configuration knob"
                % (flag, bound, cap, caps[cap], cap)
            )
    sigs = [
        (g, total - n, n)
        for g in range(args.g_max + 1)
        for total in range(max(1, 3 - 2 * g), args.slot_max + 1)
        for n in range(total + 1)
    ]
    if not sigs:
        raise ValueError(
            "--g-max %d with --slot-max %d selects no signature to check"
            % (args.g_max, args.slot_max)
        )
    return sigs


def _cmd_table(args: argparse.Namespace) -> int:
    from wpcone.recursion import SurfaceSignature, compute_volume

    settings = _settings(args)
    # csv rows carry the text form
    fmt = "text" if args.format == "csv" else args.format
    rows = []
    for g, m, n in _stable_signatures(args, settings):
        poly = compute_volume(SurfaceSignature(g, m, n), **settings)
        kinds = ("length",) * m + ("angle",) * n
        rows.append((g, m, n, _poly_text(poly, kinds, fmt)))
    if args.format == "json":
        doc = {
            "volumes": [
                {
                    "genus": g,
                    "boundaries": m,
                    "cones": n,
                    "polynomial": json.loads(text),
                }
                for g, m, n, text in rows
            ]
        }
        print(json.dumps(doc, separators=(",", ":")))
        return 0
    line = {
        "latex": "V_{%d,%d,%d} = %s",
        "csv": "%d,%d,%d,%s",
        "text": "V(g=%d,m=%d,n=%d) = %s",
    }[args.format]
    lines = [line % row for row in rows]
    if args.format == "csv":
        lines.insert(0, "g,m,n,polynomial")
    print("\n".join(lines))
    return 0


def _cmd_cusp_limit(args: argparse.Namespace) -> int:
    from wpcone.conepoints import cusp_limit

    sig = _signature(args)
    poly = cusp_limit(sig, args.slot, **_settings(args))
    kinds = ("length",) * sig.boundaries + ("angle",) * (sig.cones - 1)
    print(_poly_text(poly, kinds, args.format))
    return 0


def _verdict(line: str, ok: bool, word: str = "ok") -> bool:
    """Print a check's line followed by word if it holds, else FAIL; the
    one format of every verdict of the kernel, identity and recursion
    suites."""
    print("%s %s" % (line, word if ok else "FAIL"))
    return ok


def _require(flag: str, value: int, least: int) -> None:
    """Refuse a verify flag value that leaves its suite nothing to check."""
    if value < least:
        raise ValueError(
            "%s %d leaves nothing to check; it must be at least %d"
            % (flag, value, least)
        )


def _cmd_verify_mcshane(args: argparse.Namespace) -> int:
    from wpcone.kernels import cone, cusp, geodesic
    from wpcone.mcshane import kappa_for, mcshane_sum, root_triple

    chosen = [
        name
        for name, flag in (
            ("--theta", args.theta is not None),
            ("--length", args.length is not None),
            ("--cusp", args.cusp),
        )
        if flag
    ]
    if len(chosen) != 1:
        raise ValueError(
            "choose exactly one of --theta, --length, --cusp (got %s)"
            % (", ".join(chosen) or "none")
        )
    if args.cusp:
        label = cusp()
    elif args.theta is not None:
        label = cone(_parse_angle(args.theta, degrees=args.degrees))
    else:
        label = geodesic(args.length)
    root = root_triple(kappa_for(label), symmetric_start=not args.asymmetric)
    report = mcshane_sum(root, label, length_cutoff=args.cutoff)
    ok = report.final_residual <= args.tol
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_text())
        print(
            "result: %s (final residual %.3e, tolerance %.3e)"
            % ("pass" if ok else "FAIL", report.final_residual, args.tol)
        )
    return 0 if ok else 1


def _cmd_verify_kernel(args: argparse.Namespace) -> int:
    import random

    from wpcone.kernels import (
        integrate_decaying,
        moment_integral,
        pairing_kernel_re,
    )
    from wpcone.polyalg import eval_numeric

    _require("--max-k", args.max_k, 0)
    _require("--samples", args.samples, 1)
    quad_tol = args.tol / 10.0  # the quadrature's own error: a tenth of the check's
    oks = []
    for theta in (0.1, 0.5, 1.0, 2.0, math.pi):
        c = math.cos(theta / 2.0)
        got = integrate_decaying(
            lambda x: x * pairing_kernel_re(2.0 * x, 0.0, c),
            tol=quad_tol,
        )
        want = math.pi ** 2 / 6.0 - theta ** 2 / 8.0
        err = abs(got - want)
        line = "pair moment theta=%-8.5f err=%.3e" % (theta, err)
        oks.append(_verdict(line, err <= args.tol))
    rng = random.Random(args.seed)
    for k in range(args.max_k + 1):
        poly = moment_integral(k)
        worst = 0.0
        for _ in range(args.samples):
            t = rng.uniform(0.05, 6.0)
            exact = eval_numeric(poly, [t])
            quad = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel_re(x, t),
                tol=quad_tol,
            )
            worst = max(worst, abs(quad - exact) / max(1.0, abs(exact)))
        line = "moment k=%d: %d samples, worst err=%.3e" % (k, args.samples, worst)
        oks.append(_verdict(line, worst <= args.tol))
    return 0 if _verdict("kernel verification:", all(oks), "pass") else 1


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    from wpcone.mcshane import integrate_volume_identity
    from wpcone.polyalg import eval_numeric
    from wpcone.recursion import SurfaceSignature, compute_volume

    _require("--grid", args.grid, 1)
    poly = compute_volume(SurfaceSignature(1, 0, 1))
    worst = 0.0
    for k in range(1, args.grid + 1):
        theta = k * math.pi / args.grid
        got = integrate_volume_identity(theta)
        want = eval_numeric(poly, [theta])
        worst = max(worst, abs(got - want))
    line = "volume identity on %d angles: worst err=%.3e" % (args.grid, worst)
    return 0 if _verdict(line, worst <= args.tol, "pass") else 1


def _cmd_verify_recursion(args: argparse.Namespace) -> int:
    import random

    from wpcone.polyalg import eval_numeric
    from wpcone.recursion import (
        SurfaceSignature,
        compute_volume,
        cone_volume_direct,
        numeric_volume_value,
    )

    _require("--samples", args.samples, 1)
    settings = _settings(args)
    sigs = _stable_signatures(args, settings)
    cones = [sig for sig in sigs if sig[2]]
    oracle = [s for s in sigs if s in ((0, 4, 0), (1, 2, 0), (1, 1, 1), (2, 1, 0))]
    oks = []
    for g, m, n in cones:
        direct = cone_volume_direct(
            g, m, n, max_moment_k=settings["max_moment_k"]
        )
        substituted = compute_volume(SurfaceSignature(g, m, n), **settings)
        line = "cone recursion (%d,%d,%d):" % (g, m, n)
        oks.append(_verdict(line, direct == substituted))
    rng = random.Random(args.seed)
    for g, m, n in oracle:
        poly = compute_volume(SurfaceSignature(g, m, n), **settings)
        worst = 0.0
        for _ in range(args.samples):
            lengths = [rng.uniform(0.3, 4.0) for _ in range(m)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(n)]
            sym = eval_numeric(poly, lengths + angles)
            num = numeric_volume_value(g, m, n, lengths, angles)
            worst = max(worst, abs(sym - num) / max(1.0, abs(sym)))
        line = "numeric oracle (%d,%d,%d): %d samples, worst rel err=%.3e" % (
            g, m, n, args.samples, worst
        )
        oks.append(_verdict(line, worst <= args.tol))
    line = "recursion verification (%d cone signatures):" % len(cones)
    return 0 if _verdict(line, all(oks), "pass") else 1


def _add_settings(parser: argparse.ArgumentParser) -> None:
    """An override flag for each cap, which _settings reads."""
    for key, text in _CAPS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=int, help=text)


def _add_signature(parser: argparse.ArgumentParser, cones: int) -> None:
    """--g, --boundaries and --cones, which _signature reads."""
    parser.add_argument("--g", type=int, required=True, help="genus")
    parser.add_argument(
        "--boundaries", type=int, default=0, help="geodesic boundary count"
    )
    parser.add_argument("--cones", type=int, default=cones, help="cone point count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpcone",
        description=(
            "Volumes of moduli spaces of hyperbolic surfaces with geodesic "
            "boundaries and cone points, as exact polynomials in boundary "
            "lengths and cone angles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vol = sub.add_parser(
        "volume", help="volume polynomial or value for one signature"
    )
    _add_signature(vol, cones=0)
    vol.add_argument(
        "--lengths", type=float, nargs="+", help="numeric boundary lengths"
    )
    vol.add_argument(
        "--angles",
        nargs="+",
        help="numeric cone angles (radians; 'pi', 'pi/2' literals allowed)",
    )
    vol.add_argument(
        "--degrees",
        action="store_true",
        help="interpret plain numeric angles as degrees",
    )
    vol.add_argument(
        "--format",
        choices=("latex", "text", "json"),
        default="latex",
        help="output format (default latex)",
    )
    _add_settings(vol)
    vol.set_defaults(func=_cmd_volume)

    table = sub.add_parser(
        "table",
        help="volumes of all stable signatures within the given bounds",
        epilog=(
            "Signatures with more boundary-plus-cone slots than --slot-max "
            "are omitted; with --slot-max 1 that excludes the three-slot "
            "genus-zero base cases, leaving only the one-slot tori.  Closed "
            "surfaces, with no boundary or cone point, are omitted too."
        ),
    )
    table.add_argument("--g-max", type=int, default=1, help="largest genus")
    table.add_argument(
        "--slot-max", type=int, default=3, help="largest boundary+cone count"
    )
    table.add_argument(
        "--format",
        choices=("latex", "text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    _add_settings(table)
    table.set_defaults(func=_cmd_table)

    cusp_cmd = sub.add_parser(
        "cusp-limit", help="volume polynomial with one cone angle sent to 0"
    )
    _add_signature(cusp_cmd, cones=1)
    cusp_cmd.add_argument(
        "--slot", type=int, default=0, help="cone index to degenerate"
    )
    cusp_cmd.add_argument(
        "--format", choices=("latex", "text", "json"), default="latex"
    )
    _add_settings(cusp_cmd)
    cusp_cmd.set_defaults(func=_cmd_cusp_limit)

    verify = sub.add_parser("verify", help="numerical certification suites")
    vsub = verify.add_subparsers(dest="target", required=True)

    vm = vsub.add_parser(
        "mcshane", help="identity sums over simple closed geodesics"
    )
    vm.add_argument("--theta", help="cone angle ('pi' literals allowed)")
    vm.add_argument("--length", type=float, help="boundary length")
    vm.add_argument("--cusp", action="store_true", help="cusped torus")
    vm.add_argument(
        "--degrees", action="store_true", help="plain numbers are degrees"
    )
    vm.add_argument("--cutoff", type=_positive, default=40.0)
    vm.add_argument("--tol", type=_positive, default=1e-6)
    vm.add_argument(
        "--asymmetric",
        action="store_true",
        help="start from an asymmetric marking",
    )
    vm.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    vm.set_defaults(func=_cmd_verify_mcshane)

    vk = vsub.add_parser(
        "kernel", help="moment integrals against adaptive quadrature"
    )
    vk.add_argument("--max-k", type=int, default=6)
    vk.add_argument("--samples", type=int, default=20)
    vk.add_argument("--tol", type=_positive, default=1e-9)
    vk.add_argument("--seed", type=int, default=20260817)
    vk.set_defaults(func=_cmd_verify_kernel)

    vi = vsub.add_parser(
        "identity", help="torus volume from the gap-kernel moment"
    )
    vi.add_argument("--grid", type=int, default=20)
    vi.add_argument("--tol", type=_positive, default=1e-8)
    vi.set_defaults(func=_cmd_verify_identity)

    vr = vsub.add_parser(
        "recursion", help="cone recursion vs substitution and quadrature"
    )
    vr.add_argument("--g-max", type=int, default=2)
    vr.add_argument("--slot-max", type=int, default=4)
    vr.add_argument("--samples", type=int, default=5)
    vr.add_argument("--tol", type=_positive, default=1e-8)
    vr.add_argument("--seed", type=int, default=20260817)
    _add_settings(vr)
    vr.set_defaults(func=_cmd_verify_recursion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
