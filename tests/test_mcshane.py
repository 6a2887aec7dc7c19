import hashlib
import json
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcone import mcshane
from wpcone.cli import main
from wpcone.kernels import (
    boundary_torus_gap,
    cone,
    cone_torus_gap,
    cusp,
    geodesic,
)
from wpcone.mcshane import (
    ConvergenceReport,
    TraceTriple,
    _exact_prefix_sums,
    integrate_volume_identity,
    kappa_for,
    mcshane_sum,
    root_triple,
)


# -- Fricke constants and root triples ----------------------------------------------


def test_kappa_conventions():
    assert kappa_for(cusp()) == 0.0
    assert abs(kappa_for(cone(math.pi)) - 2.0) < 1e-15
    assert kappa_for(cone(1.0)) == 2.0 - 2.0 * math.cos(0.5)
    assert kappa_for(geodesic(1.0)) == 2.0 - 2.0 * math.cosh(0.5)
    assert kappa_for(geodesic(1.0)) < 0.0 < kappa_for(cone(1.0))


def test_length_whose_trace_overflows_is_refused():
    # 2cosh(L/2) is finite up to L = 1419.5655: the last sweep point below
    # it keeps its exact kappa, and every length past it is bad input
    assert kappa_for(geodesic(1419.5)) == 2.0 - 2.0 * math.cosh(709.75)
    for length in (1419.75, 2000.0, 1e6):
        with pytest.raises(ValueError, match="boundary length .* not a finite double"):
            kappa_for(geodesic(length))
    root = root_triple(0.0)
    for cutoff in (1419.75, 1e4, math.inf, math.nan):
        with pytest.raises(ValueError, match="length cutoff .* not a finite double"):
            mcshane_sum(root, cusp(), length_cutoff=cutoff)


def test_markov_root():
    root = root_triple(0.0)
    assert (root.x, root.y, root.z) == (3.0, 3.0, 3.0)
    assert abs(root.kappa) < 1e-12


def test_right_angle_cone_root_closed_form():
    # 3t^2 - t^3 = 2 on t > 2 is solved by t = 1 + sqrt(3) exactly
    root = root_triple(kappa_for(cone(math.pi)))
    assert abs(root.x - (1.0 + math.sqrt(3.0))) < 1e-12
    t = root.x
    assert abs(3 * t * t - t ** 3 - 2.0) < 1e-12


def test_boundary_root_back_substitution():
    kappa = kappa_for(geodesic(1.0))
    root = root_triple(kappa)
    t = root.x
    assert t > 3.0
    assert abs(3 * t * t - t ** 3 - kappa) < 1e-11


def test_asymmetric_root():
    root = root_triple(0.0, symmetric_start=False)
    assert abs(root.y - 1.15 * root.x) < 1e-12
    assert root.z >= max(root.x, root.y)
    assert root.fricke_residual(0.0) < 1e-10


def test_closed_form_root_solves_the_cubic():
    for kappa in (-1e6, -50.0, -1.0, -1e-9, 1e-9, 0.5, 2.0, 3.5, 3.999999):
        t = root_triple(kappa).x
        assert t > 2.0
        # to the rounding of evaluating the cubic itself
        bound = 1e-15 * (3 * t * t + t ** 3 + abs(kappa))
        assert abs(3 * t * t - t ** 3 - kappa) <= bound, kappa


def test_invalid_kappa():
    with pytest.raises(ValueError, match="kappa"):
        root_triple(4.0)
    with pytest.raises(ValueError, match="kappa"):
        root_triple(7.5)


def test_non_hyperbolic_trace_rejected():
    with pytest.raises(ValueError, match="hyperbolic"):
        TraceTriple(2.0, 3.0, 3.0)


# -- geodesic enumeration -----------------------------------------------------------


Geodesic = namedtuple("Geodesic", "slope trace length")


@cmp_to_key
def slope_key(first, second):
    """Exact order of slopes p/q with q >= 0, the slope 1/0 last: p/q < r/s
    exactly when p*s < r*q, in integers."""
    (p, q), (r, s) = first, second
    return p * s - r * q


def slope_walk(root, length_cutoff, kappa):
    """Reference enumeration: every simple closed geodesic up to the length
    cutoff, one per slope, sorted by slope.

    Written apart from the package's walk: each node carries its slope
    label (the Farey sum of its parents'), every child is pushed and a
    node is pruned only when visited, and every subtree of both roots is
    walked, with no start shared.  The traces are the same float
    expressions, so they agree with mcshane._trace_groups bit for bit.
    """
    tmax = 2.0 * math.cosh(length_cutoff / 2.0)
    x, y, z = root
    w = (x * x + y * y - kappa) / z if 2.0 * z > x * y else x * y - z
    found = [
        (slope, t)
        for slope, t in [((0, 1), x), ((1, 0), y), ((1, 1), z), ((-1, 1), w)]
        if t <= tmax
    ]
    stack = [
        (x, z, x * z - y, (0, 1), (1, 1), (1, 2)),
        (y, z, y * z - x, (1, 0), (1, 1), (2, 1)),
        (x, w, x * w - y, (0, 1), (-1, 1), (-1, 2)),
        (y, w, y * w - x, (-1, 0), (-1, 1), (-2, 1)),
    ]
    while stack:
        a, b, c, sa, sb, sc = stack.pop()
        if c <= tmax:
            found.append((sc, c))
        elif c >= a and c >= b:
            continue  # dominant above the cutoff, and so is its whole subtree
        stack.append((a, c, a * c - b, sa, sc, (sa[0] + sc[0], sa[1] + sc[1])))
        stack.append((b, c, b * c - a, sb, sc, (sb[0] + sc[0], sb[1] + sc[1])))
    found.sort(key=lambda item: slope_key(item[0]))
    return [Geodesic(slope, t, 2.0 * math.acosh(t / 2.0)) for slope, t in found]


def test_exactly_three_shortest_geodesics_on_markov_torus():
    geos = slope_walk(root_triple(0.0), 2.0, 0.0)
    assert [g.slope for g in geos] == [(0, 1), (1, 1), (1, 0)]
    expected = 2.0 * math.acosh(1.5)
    for g in geos:
        assert g.trace == 3.0
        assert abs(g.length - expected) < 1e-12


def test_next_length_level_brings_mirror_slope():
    geos = slope_walk(root_triple(0.0), 3.6, 0.0)
    by_slope = {g.slope: g for g in geos}
    assert len(geos) == 6
    assert set(by_slope) == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (-1, 1)}
    for slope in [(1, 2), (2, 1), (-1, 1)]:
        assert by_slope[slope].trace == 6.0
        assert abs(by_slope[slope].length - 2.0 * math.acosh(3.0)) < 1e-12


def test_cutoff_below_systole():
    with pytest.raises(ValueError, match="systole"):
        mcshane._trace_groups(root_triple(0.0), 1.5, 0.0)


@pytest.mark.parametrize("label", [cone(math.pi), geodesic(2.0), cusp()])
@pytest.mark.parametrize("symmetric", [True, False])
def test_deduplicated_walk_equals_the_slope_walk_at_cutoff_300(label, symmetric):
    # every group's traces repeated by its multiplicity, against one trace
    # per slope from the independent walk: equal as sorted float lists
    kappa = kappa_for(label)
    root = root_triple(kappa, symmetric_start=symmetric)
    grouped = sorted(
        t for traces, mult in mcshane._trace_groups(root, 300.0, kappa)
        for t in traces * mult
    )
    reference = sorted(g.trace for g in slope_walk(root, 300.0, kappa))
    assert len(reference) > 20_000
    assert grouped == reference


def unpruned_walk(a, b, c, sa, sb, sc, depth, out):
    """Reference enumeration with no pruning, to a fixed tree depth."""
    assert c > 2.0
    out.append((sc, c))
    if depth == 0:
        return
    new_c = a * c - b
    assert new_c > c  # traces strictly increase along branches
    unpruned_walk(
        a, c, new_c, sa, sc, (sa[0] + sc[0], sa[1] + sc[1]), depth - 1, out
    )
    new_c = b * c - a
    assert new_c > c
    unpruned_walk(
        b, c, new_c, sb, sc, (sb[0] + sc[0], sb[1] + sc[1]), depth - 1, out
    )


def full_unpruned(root, depth):
    x, y, z = root.x, root.y, root.z
    w = x * y - z
    out = [((0, 1), x), ((1, 0), y)]
    unpruned_walk(x, y, z, (0, 1), (1, 0), (1, 1), depth, out)
    unpruned_walk(x, y, w, (0, 1), (-1, 0), (-1, 1), depth, out)
    return out


@pytest.mark.parametrize("kappa_source", [0.0, "cone_pi", "boundary_2"])
def test_pruned_enumeration_complete_to_depth_twelve(kappa_source):
    kappa = {
        0.0: 0.0,
        "cone_pi": kappa_for(cone(math.pi)),
        "boundary_2": kappa_for(geodesic(2.0)),
    }[kappa_source]
    root = root_triple(kappa)
    reference = full_unpruned(root, 12)
    slopes = [s for s, _ in reference]
    assert len(slopes) == len(set(slopes))  # slope labels never repeat
    cutoff = 12.0
    tmax = 2.0 * math.cosh(cutoff / 2.0)
    want = sorted(
        (s, t) for s, t in reference if t <= tmax
    )
    got = sorted((g.slope, g.trace) for g in slope_walk(root, cutoff, kappa))
    assert [s for s, _ in got] == [s for s, _ in want]
    for (_, t_got), (_, t_want) in zip(got, want):
        assert abs(t_got - t_want) <= 1e-9 * max(1.0, t_want)


def test_walk_checks_every_computed_trace():
    # the child trace 2.5 * 3 - 10 < 2 is below the cutoff, so it is pushed
    # and refused when visited; a NaN child is neither below the cutoff nor
    # dominated, so it is never pushed and must be refused where computed
    with pytest.raises(RuntimeError, match="non-hyperbolic"):
        mcshane._walk_subtree(2.5, 10.0, 3.0, 100.0)
    with pytest.raises(RuntimeError, match="non-hyperbolic"):
        mcshane._walk_subtree(3.0, math.nan, 3.0, 100.0)
    # x*z - y = 2 roots the first subtree, whose children (100, 2, 100) are
    # pruned at this cutoff; the grouped walk of mcshane_sum refuses the
    # parabolic trace while expanding that root
    root = TraceTriple(100.0, 9998.0, 100.0)
    with pytest.raises(RuntimeError, match="non-hyperbolic trace 2.0"):
        mcshane._trace_groups(root, 4.0, root.kappa)


def test_walk_visits_only_nodes_that_can_lead_below_the_cutoff(monkeypatch):
    # on a symmetric root every descendant of a kept node that can lead
    # below the cutoff is itself below it, so a subtree walk visits exactly
    # the nodes it keeps: the node valve, which counts visits per subtree,
    # passes at the largest subtree's size and trips one below it (a walk
    # that pushed every child before pruning it visited twice as many)
    walk, valve = mcshane._walk_subtree, mcshane._MAX_TREE_NODES

    def sized(*args):
        # a full walk records its size and adds nothing; the depth-one
        # expansions next to the roots, which pass a children list, run
        if len(args) > 4:
            return walk(*args)
        sizes.append(len(walk(*args)))
        return []

    for label in (cone(math.pi), geodesic(2.0), cusp()):
        kappa = kappa_for(label)
        root = root_triple(kappa)
        sizes = []
        monkeypatch.setattr(mcshane, "_MAX_TREE_NODES", valve)
        monkeypatch.setattr(mcshane, "_walk_subtree", sized)
        kept = mcshane._trace_groups(root, 300.0, kappa)[0][0]
        monkeypatch.setattr(mcshane, "_walk_subtree", walk)
        monkeypatch.setattr(mcshane, "_MAX_TREE_NODES", max(sizes))
        groups = mcshane._trace_groups(root, 300.0, kappa)
        assert [len(traces) for traces, _ in groups] == [len(kept)] + sizes, label
        monkeypatch.setattr(mcshane, "_MAX_TREE_NODES", max(sizes) - 1)
        with pytest.raises(RuntimeError, match="pruning failed"):
            mcshane._trace_groups(root, 300.0, kappa)


def test_fricke_relation_preserved_along_tree():
    # deep traces overflow any fixed precision, so shadow the float walk
    # with exact rationals: the exchange moves must keep the relation
    # identically constant, and the float traces must track the exact ones
    kappa = kappa_for(cone(math.pi))
    root = root_triple(kappa)
    rx, ry, rz = (Fraction(v) for v in (root.x, root.y, root.z))
    base = rx * rx + ry * ry + rz * rz - rx * ry * rz
    assert abs(float(base) - kappa) < 1e-12

    def check(a, b, c, fa, fb, fc, depth):
        assert fa * fa + fb * fb + fc * fc - fa * fb * fc == base
        assert abs(c - float(fc)) <= 1e-9 * max(1.0, abs(float(fc)))
        if depth:
            check(a, c, a * c - b, fa, fc, fa * fc - fb, depth - 1)
            check(b, c, b * c - a, fb, fc, fb * fc - fa, depth - 1)

    # the rational shadow roughly quadruples in cost per level; depth 10
    # already covers two thousand moves exactly
    check(root.x, root.y, root.z, rx, ry, rz, 10)
    w = root.x * root.y - root.z
    check(root.x, root.y, w, rx, ry, rx * ry - rz, 10)


# -- McShane sums -------------------------------------------------------------------


def test_cusp_identity_converges_to_half():
    report = mcshane_sum(root_triple(0.0), cusp(), 40.0)
    assert report.target == 0.5
    assert report.final_residual < 1e-12
    residuals = [row[3] for row in report.rows]
    for prev, nxt in zip(residuals, residuals[1:]):
        assert nxt <= prev + 1e-15


def test_cone_identity_converges_to_half_angle():
    for theta in (math.pi, 1.0):
        report = mcshane_sum(
            root_triple(kappa_for(cone(theta))), cone(theta), 40.0
        )
        assert report.target == theta / 2.0
        assert report.final_residual < 1e-12, theta


def test_boundary_identity_converges_to_half_length():
    for length in (1.0, 2.0):
        report = mcshane_sum(
            root_triple(kappa_for(geodesic(length))), geodesic(length), 40.0
        )
        assert report.target == length / 2.0
        assert report.final_residual < 1e-12, length


@pytest.mark.parametrize(
    "length, cutoff, count",
    [(150.0, 300.0, 33), (250.0, 300.0, 12), (1000.0, 1400.0, 18)],
)
def test_asymmetric_start_sums_to_half_a_long_boundary(length, cutoff, count):
    # the asymmetric z is the larger root, about x*y, so the mirror x*y - z
    # cancels as L grows (a residual of 0.11 at L = 200, a mirror trace of
    # 0 at L = 250); the product of the roots keeps every geodesic
    label = geodesic(length)
    report = mcshane_sum(
        root_triple(kappa_for(label), symmetric_start=False), label, cutoff
    )
    assert report.final_residual < 1e-12
    assert report.geodesic_count == count


def test_asymmetric_marking_same_surface_family():
    # a different marking still sums to the same constant
    report = mcshane_sum(
        root_triple(0.0, symmetric_start=False), cusp(), 35.0
    )
    assert report.final_residual < 1e-10


def test_mismatched_root_and_boundary():
    with pytest.raises(ValueError, match="Fricke"):
        mcshane_sum(root_triple(0.0), cone(math.pi), 20.0)


def test_empirical_decay_rate():
    # residuals should fall by roughly half (or faster, never stalling)
    # each time the cutoff grows by 2*ln 2
    step = 2.0 * math.log(2.0)
    cuts = [8.0 + step * k for k in range(8)]
    report = mcshane_sum(root_triple(0.0), cusp(), cuts[-1], checkpoints=cuts)
    residuals = [row[3] for row in report.rows]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    assert max(ratios) <= 2.0
    geometric_mean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert 0.5 / 4.0 <= geometric_mean <= 0.5 * 4.0


def test_checkpoint_validation():
    with pytest.raises(ValueError, match="checkpoint"):
        mcshane_sum(root_triple(0.0), cusp(), 20.0, checkpoints=[10.0, 25.0])


def test_report_serialization():
    report = mcshane_sum(
        root_triple(0.0), cusp(), 20.0, checkpoints=[10.0, 20.0]
    )
    doc = json.loads(report.to_json())
    assert doc["target"] == 0.5
    assert doc["geodesic_count"] == report.geodesic_count
    assert [row["cutoff"] for row in doc["partial_sums"]] == [10.0, 20.0]
    assert doc["partial_sums"][-1]["residual"] == report.final_residual
    text = report.to_text()
    assert "cutoff" in text and "residual" in text
    assert len(text.splitlines()) == 4
    csv = report.to_csv()
    assert csv.splitlines()[0] == "cutoff,count,sum,residual"
    assert len(csv.splitlines()) == 3
    # byte determinism
    again = mcshane_sum(root_triple(0.0), cusp(), 20.0, checkpoints=[10.0, 20.0])
    assert again.to_json() == report.to_json()
    assert again.to_csv() == csv


def naive_summand(label, length):
    """One gap width, through the public gap factories, one per term."""
    if label.kind == "cusp":
        return 1.0 / (1.0 + math.exp(length)) if length < 700 else 0.0
    if label.kind == "cone":
        return cone_torus_gap(label.value)(length)
    return boundary_torus_gap(label.value)(length)


def naive_rows(label, length_cutoff, checkpoints, symmetric_start):
    """Partial sums by rescanning every term at every checkpoint."""
    target = 0.5 if label.kind == "cusp" else label.value / 2.0
    kappa = kappa_for(label)
    root = root_triple(kappa, symmetric_start=symmetric_start)
    geos = slope_walk(root, length_cutoff, kappa)
    terms = [(g.length, naive_summand(label, g.length)) for g in geos]
    rows = []
    for cut in sorted(set(float(c) for c in checkpoints)):
        included = [s for length, s in terms if length <= cut]
        total = math.fsum(included)
        rows.append((cut, len(included), total, abs(target - total)))
    return tuple(rows)


PROPERTY_LABELS = [cusp(), cone(1.0), geodesic(2.0)]
PROPERTY_CUTOFF = 25.0
PROPERTY_LENGTHS = sorted(
    {
        g.length
        for label in PROPERTY_LABELS
        for symmetric in (True, False)
        for g in slope_walk(
            root_triple(kappa_for(label), symmetric_start=symmetric),
            PROPERTY_CUTOFF,
            kappa_for(label),
        )
    }
)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(PROPERTY_LABELS),
    checkpoints=st.lists(
        # exact geodesic lengths put checkpoints on the ties of length <= cut
        st.one_of(
            st.floats(min_value=0.0, max_value=PROPERTY_CUTOFF),
            st.sampled_from(PROPERTY_LENGTHS),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_sorted_partial_sums_equal_naive_rescan(label, checkpoints):
    # the symmetric root walks one subtree for six; the asymmetric one
    # walks all six, so both the weighted and the unweighted sums are checked
    for symmetric in (True, False):
        root = root_triple(kappa_for(label), symmetric_start=symmetric)
        report = mcshane_sum(root, label, PROPERTY_CUTOFF, checkpoints=checkpoints)
        assert report.rows == naive_rows(
            label, PROPERTY_CUTOFF, checkpoints, symmetric
        ), symmetric


def test_symmetric_root_walks_one_subtree_per_label(monkeypatch):
    walk = mcshane._walk_subtree

    def counted(*args):
        # count the full walks, not the depth-one expansions next to the
        # roots, which pass a children list
        if len(args) == 4:
            calls.append(args)
        return walk(*args)

    for label in (cone(math.pi), geodesic(2.0), cusp()):
        for symmetric, walks in ((True, 1), (False, 6)):
            kappa = kappa_for(label)
            root = root_triple(kappa, symmetric_start=symmetric)
            calls = []
            monkeypatch.setattr(mcshane, "_walk_subtree", counted)
            report = mcshane_sum(root, label, 300.0)
            monkeypatch.setattr(mcshane, "_walk_subtree", walk)
            assert len(calls) == walks, (label, symmetric)
            assert report.geodesic_count == len(slope_walk(root, 300.0, kappa))
            assert report.rows[-1][1] == report.geodesic_count


def test_mcshane_sum_keeps_the_node_valve(monkeypatch):
    # each of the six subtrees holds about 4,000 nodes at cutoff 300
    monkeypatch.setattr(mcshane, "_MAX_TREE_NODES", 1000)
    for symmetric in (True, False):
        root = root_triple(0.0, symmetric_start=symmetric)
        with pytest.raises(RuntimeError, match="pruning failed"):
            mcshane_sum(root, cusp(), 300.0)


def exact_prefixes_match_fsum(values, stops):
    sums = _exact_prefix_sums(values, stops)
    assert [total / 2 ** 1074 for total in sums] == [
        math.fsum(values[:stop]) for stop in stops
    ]


def test_exact_prefix_sums_on_zeros_subnormals_and_wide_range():
    # cusp terms vanish from length 700 on, so long tails add zeros
    cusp_terms = [
        1.0 / (1.0 + math.exp(x)) if x < 700 else 0.0 for x in range(680, 720)
    ]
    assert cusp_terms[-1] == 0.0
    exact_prefixes_match_fsum(cusp_terms, [0, 5, 20, 20, 40])
    exact_prefixes_match_fsum([0.0] * 5, [0, 3, 5])
    tiny = math.ulp(0.0)  # 2^-1074, the least subnormal
    subnormals = [tiny, 3 * tiny, 2.0 ** -1030, 2.0 ** -1022 - tiny, 1e-310]
    exact_prefixes_match_fsum(subnormals, [1, 2, 4, 5])
    # 1 plus subnormals: the sum needs far more than two doubles to hold
    wide = [1.0, 1e-16, 2.0 ** -600, tiny, 1e300, -1e300, 2.0 ** -1000, 1e-20]
    exact_prefixes_match_fsum(wide, [1, 2, 3, 4, 6, 8])
    exact_prefixes_match_fsum(wide, [8])
    # ties at the halfway point round to even, as fsum does
    exact_prefixes_match_fsum([1.0, 2.0 ** -53, 2.0 ** -53, 2.0 ** -53], [2, 3, 4])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(min_value=-1e300, max_value=1e300),
            st.floats(min_value=0.0, max_value=1e-300),
        ),
        max_size=40,
    ),
    data=st.data(),
)
def test_exact_prefix_sums_equal_fsum_prefixes(values, data):
    stops = sorted(
        data.draw(st.lists(st.integers(0, len(values)), max_size=6))
    )
    exact_prefixes_match_fsum(values, stops)


# SHA-256 of the CLI's JSON output; these summands and sums are frozen
PINNED_REPORTS = {
    ("--theta", "pi"): "65fe4f5cd8edf8a2d1aedabb9650414eac6369b2ef07e3d5b607c89cb04a0bff",
    ("--cusp",): "40506e6f3948803d502260807249367dabee0bd533b0dab6e369b42a213e55b4",
    ("--length", "2.0"): "8b464376dd328290a87f1998ddcbfa554702a412d11436e311241e777dbcdedd",
}


@pytest.mark.parametrize("flags", sorted(PINNED_REPORTS))
def test_verify_mcshane_json_is_byte_pinned(flags, capsys):
    code = main(["verify", "mcshane", *flags, "--cutoff", "300", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[flags]


def test_verify_mcshane_boundary_at_cutoff_300(capsys):
    code = main(
        ["verify", "mcshane", "--length", "2.0", "--cutoff", "300", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["geodesic_count"] == 22002
    assert doc["partial_sums"][-1]["count"] == 22002
    assert doc["partial_sums"][-1]["residual"] <= 1e-15


# -- the volume identity --------------------------------------------------------------


def torus_volume(theta):
    return -theta * theta / 48.0 + math.pi ** 2 / 12.0


def test_volume_identity_at_special_angles():
    assert abs(integrate_volume_identity(math.pi) - math.pi ** 2 / 16) < 1e-9
    assert (
        abs(integrate_volume_identity(math.pi / 2) - 5 * math.pi ** 2 / 64)
        < 1e-9
    )
    assert abs(integrate_volume_identity(0.1) - torus_volume(0.1)) < 1e-9


def test_volume_identity_on_grid():
    for k in range(1, 21):
        theta = k * math.pi / 20.0
        got = integrate_volume_identity(theta)
        assert abs(got - torus_volume(theta)) < 1e-8, theta


def test_volume_identity_cusp_degeneration():
    targets = [0.5, 0.25, 0.125, 0.0625]
    gaps = [
        abs(integrate_volume_identity(t) - math.pi ** 2 / 12) for t in targets
    ]
    for wider, narrower in zip(gaps, gaps[1:]):
        assert narrower < wider
    assert gaps[-1] < 1e-3


def test_volume_identity_validation():
    with pytest.raises(ValueError, match=r"\(0, pi\]"):
        integrate_volume_identity(3.5)


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
