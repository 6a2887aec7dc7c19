"""Acceptance gate: every advertised guarantee, one test per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass line per
criterion with its measured error and runtime.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from test_kernels import cone_torus_kernel_dtheta, gap_dgamma
from wpcone.kernels import (
    GapKernel,
    cone,
    cone_torus_gap,
    gap_value,
    geodesic,
    integrate_decaying,
    moment_integral,
    pairing_kernel,
)
from wpcone.mcshane import (
    integrate_volume_identity,
    kappa_for,
    mcshane_sum,
    root_triple,
)
from wpcone.kernels import cusp
from wpcone.polyalg import VolumePolynomial, eval_numeric
from wpcone.recursion import (
    SurfaceSignature,
    compute_volume,
    cone_volume_direct,
    numeric_volume_value,
)

Q = Fraction

CONE_TORUS_LATEX = "-\\frac{\\theta_1^2}{48}+\\frac{\\pi^2}{12}"


def stable_signatures(g_max, slot_max, min_cones=0):
    for g in range(g_max + 1):
        for total in range(1, slot_max + 1):
            if 2 * g - 2 + total <= 0:
                continue
            for n in range(min_cones, total + 1):
                yield g, total - n, n


def test_criterion_1_closed_form_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wpcone.cli", "volume", "--g", "1",
         "--cones", "1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == CONE_TORUS_LATEX + "\n"
    assert elapsed < 1.0
    print(
        "PASS criterion 1: one-cone torus volume in canonical form "
        "(%.2fs)" % elapsed
    )


def test_criterion_2_base_volumes():
    one = {(0, 0, 0): {0: Q(1)}}
    for m, n in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        assert compute_volume(SurfaceSignature(0, m, n)).terms == one, (m, n)
    print("PASS criterion 2: all four pants volumes are exactly 1")


def test_criterion_3_substitution_coherence():
    start = time.perf_counter()
    checked = 0
    for g, m, n in stable_signatures(2, 4, min_cones=1):
        direct = cone_volume_direct(g, m, n)
        substituted = compute_volume(SurfaceSignature(g, m, n))
        assert direct == substituted, (g, m, n)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "PASS criterion 3: direct cone recursion == i*theta substitution "
        "for %d signatures (%.2fs)" % (checked, elapsed)
    )


def test_criterion_4_kernel_certification():
    start = time.perf_counter()
    worst_pair = 0.0
    for theta in (0.1, 0.5, 1.0, 2.0, math.pi):
        got = integrate_decaying(
            lambda x: x * pairing_kernel(2.0 * x, complex(0.0, theta)).real,
            tol=1e-10,
        )
        want = math.pi ** 2 / 6.0 - theta ** 2 / 8.0
        worst_pair = max(worst_pair, abs(got - want))
        assert abs(got - want) < 1e-9, theta
    rng = random.Random(20260817)
    worst_moment = 0.0
    for k in range(7):
        poly = moment_integral(k)
        for _ in range(20):
            t = rng.uniform(0.05, 6.0)
            exact = eval_numeric(poly, [t])
            quad = integrate_decaying(
                lambda x: x ** (2 * k + 1) * pairing_kernel(x, t).real,
                tol=1e-10,
            )
            err = abs(quad - exact) / max(1.0, abs(exact))
            worst_moment = max(worst_moment, err)
            assert err < 1e-9, (k, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "PASS criterion 4: pair moments (worst %.1e) and moment integrals "
        "k<=6 at 20 points (worst %.1e) within 1e-9 (%.2fs)"
        % (worst_pair, worst_moment, elapsed)
    )


def test_criterion_5_volume_identity():
    start = time.perf_counter()
    poly = compute_volume(SurfaceSignature(1, 0, 1))
    worst = 0.0
    for k in range(1, 21):
        theta = k * math.pi / 20.0
        got = integrate_volume_identity(theta)
        want = eval_numeric(poly, [theta])
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-8, theta
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "PASS criterion 5: gap-kernel moment reproduces the torus volume "
        "on a 20-angle grid (worst err %.1e, %.2fs)" % (worst, elapsed)
    )


def test_criterion_6_mcshane_convergence():
    labels = [
        cone(math.pi),
        cone(math.pi / 2),
        cone(1.0),
        geodesic(1.0),
        geodesic(2.0),
        cusp(),
    ]
    worst = 0.0
    for label in labels:
        start = time.perf_counter()
        report = mcshane_sum(root_triple(kappa_for(label)), label, 40.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, label
        assert report.final_residual < 1e-6, label
        worst = max(worst, report.final_residual)
        beyond = [row[3] for row in report.rows if row[0] >= 15.0]
        for prev, nxt in zip(beyond, beyond[1:]):
            assert nxt <= prev + 1e-15, label
        if label.kind == "cusp":
            assert report.target == 0.5
    print(
        "PASS criterion 6: McShane sums converge for 3 cone angles, "
        "2 boundary lengths, and the cusp (worst residual %.1e)" % worst
    )


def test_criterion_7_numeric_oracle():
    rng = random.Random(20260817)
    worst = 0.0
    for g, m, n in [(0, 4, 0), (1, 2, 0), (1, 1, 1), (2, 1, 0)]:
        poly = compute_volume(SurfaceSignature(g, m, n))
        for _ in range(30):
            lengths = [rng.uniform(0.3, 4.0) for _ in range(m)]
            angles = [rng.uniform(0.1, math.pi) for _ in range(n)]
            sym = eval_numeric(poly, lengths + angles)
            num = numeric_volume_value(g, m, n, lengths, angles)
            err = abs(sym - num) / max(1.0, abs(sym))
            worst = max(worst, err)
            assert err < 1e-8, (g, m, n, lengths, angles)
    print(
        "PASS criterion 7: quadrature-kernel assembly matches the symbolic "
        "recursion at 120 random points (worst rel err %.1e)" % worst
    )


def test_criterion_8_property_suites():
    rng = random.Random(20260817)
    signatures = [
        SurfaceSignature(g, m, n) for g, m, n in stable_signatures(2, 4)
    ]
    for sig in signatures:
        poly = compute_volume(sig)
        d = 3 * sig.genus - 3 + sig.slots
        # homogeneity in the (x, pi^2) grading
        for xexp, graded in poly.terms.items():
            for piexp in graded:
                assert sum(xexp) + piexp // 2 == d, sig
        # permutation symmetry within the length block and the angle block
        m, n = sig.boundaries, sig.cones
        for _ in range(3):
            perm = list(range(sig.slots))
            lengths_perm = perm[:m]
            rng.shuffle(lengths_perm)
            angles_perm = perm[m:]
            rng.shuffle(angles_perm)
            order = lengths_perm + angles_perm
            permuted = VolumePolynomial(
                poly.num_vars,
                {
                    tuple(xexp[i] for i in order): graded
                    for xexp, graded in poly.terms.items()
                },
            )
            assert permuted == poly, sig
        # realness after the imaginary substitution, and positivity
        for _ in range(4):
            lengths = [rng.uniform(0.0, 10.0) for _ in range(m)]
            angles = [rng.uniform(1e-6, math.pi) for _ in range(n)]
            value = eval_numeric(poly, lengths + angles)
            assert value > 0.0, sig
            if n:
                boundary_poly = compute_volume(
                    SurfaceSignature(sig.genus, sig.slots, 0)
                )
                complex_value = eval_numeric(
                    boundary_poly,
                    [x for x in lengths] + [1j * a for a in angles],
                )
                assert abs(complex_value.imag) < 1e-12 * max(1.0, abs(value))
                assert abs(complex_value.real - value) < 1e-10 * max(
                    1.0, abs(value)
                )
    # derivative transfer: angle derivative of the cone gap equals the
    # analytic boundary-length derivative continued to imaginary length
    h = 1e-5
    worst = 0.0
    for theta, x in [(1.0, 0.7), (2.5, 1.3), (math.pi / 2, 2.0)]:
        fd = (
            cone_torus_gap(theta + h)(x) - cone_torus_gap(theta - h)(x)
        ) / (2 * h)
        analytic = cone_torus_kernel_dtheta(theta, x)
        worst = max(worst, abs(fd - analytic))
        assert abs(fd - analytic) < 1e-8
    for theta, partner, alpha_interior in [
        (1.2, geodesic(0.9), True),
        (2.0, geodesic(1.4), False),
        (0.8, cone(2.2), False),
    ]:
        kernel = lambda t: GapKernel(
            gamma=cone(t),
            alpha=partner if not alpha_interior else geodesic(1.1),
            beta=geodesic(1.1) if alpha_interior else geodesic(0.6),
            alpha_interior=alpha_interior,
        )
        fd = (gap_value(kernel(theta + h)) - gap_value(kernel(theta - h))) / (
            2 * h
        )
        analytic = 1j * gap_dgamma(kernel(theta))
        worst = max(worst, abs(fd - analytic))
        assert abs(fd - analytic) < 1e-8, (theta, partner)
    print(
        "PASS criterion 8: homogeneity, block symmetry, realness, "
        "positivity across %d signatures; derivative transfer to O(h^2) "
        "(worst %.1e)" % (len(signatures), worst)
    )


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
