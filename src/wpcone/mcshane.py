"""Numerical verification of McShane-type identities on one-holed tori.

A hyperbolic torus with one boundary circle, one cone point, or one cusp is
determined by the traces (x, y, z) of a marked generating pair and their
product, subject to the Fricke relation

    x^2 + y^2 + z^2 - x*y*z = kappa,

where the constant encodes the boundary data: kappa = 2 - 2*cos(theta/2)
for a cone point of angle theta, kappa = 2 - 2*cosh(L/2) for a boundary
geodesic of length L, and kappa = 0 for a cusp (the Markov equation).

Simple closed geodesics on the torus correspond to slopes p/q, and their
traces are generated from a root triple by the exchange moves

    (x, y, z) -> (x, z, x*z - y)  and  (x, y, z) -> (y, z, y*z - x),

a Stern-Brocot traversal that visits every slope exactly once.  Slopes of
both signs are reached from two root nodes: the given triple (x, y, z) and
its mirror (x, y, w), w the other root of the relation as a quadratic in
z, taken so that it does not cancel.  Traces grow strictly along every
branch, so the tree can be pruned at a length cutoff and the enumeration
below the cutoff is complete.

Summing one gap width per geodesic then recovers half the boundary data:
theta/2, L/2, or 1/2.  These identities are convention-discriminating --
any error in the kernels, the trace conventions, or the enumeration makes
the sums converge to the wrong constant -- which is what makes this module
an effective end-to-end check of everything the volume recursion rests on.

The walk carries traces only: a node's slope is fixed by its place in the
tree, and no sum needs it.  One node step, _walk_subtree, checks and
prunes every node.  The sums never walk a subtree twice: a subtree's
traces depend only on its start triple, and on the symmetric root
x = y = z the six subtrees next to the roots start at the same triple, so
one walk, weighted six times, serves them all.  Partial sums are kept as
exact integer multiples of 2^-1074 and divided once per checkpoint, so
every printed sum is the correctly rounded sum of one term per geodesic,
whatever the order of the terms.

The same machinery verifies the torus volume in integral form: the first
length moment of the cone-point gap kernel equals theta times the volume
polynomial of the one-cone torus.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

from wpcone.kernels import (
    boundary_torus_gap,
    cone_torus_gap,
    integrate_decaying,
)

if TYPE_CHECKING:
    from wpcone.kernels import BoundaryLabel

#: Traversal safety valve: a correct walk at sane cutoffs visits a few
#: thousand nodes, so hitting this bound means the pruning logic is broken.
_MAX_TREE_NODES = 5_000_000


class TraceTriple(namedtuple("TraceTriple", "x y z")):
    """Traces (x, y, z) of a marked generating pair and their product word.

    All three traces must exceed 2 (hyperbolic elements); the triple's
    Fricke constant is whatever x^2 + y^2 + z^2 - x*y*z evaluates to.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> TraceTriple:
        for t in (x, y, z):
            if not t > 2.0:
                raise ValueError(
                    "trace %r is not hyperbolic (must exceed 2)" % t
                )
        return tuple.__new__(cls, (x, y, z))

    @property
    def kappa(self) -> float:
        x, y, z = self.x, self.y, self.z
        return x * x + y * y + z * z - x * y * z

    def fricke_residual(self, kappa: float) -> float:
        """Relative defect of the Fricke relation against a target constant."""
        x, y, z = self.x, self.y, self.z
        scale = max(1.0, x * x, y * y, z * z, abs(x * y * z))
        return abs(self.kappa - kappa) / scale


def _length_trace(length: float, name: str) -> float:
    """2cosh(L/2), the trace of a geodesic of length L; refused, under the
    given name, unless a finite double (it overflows from L = 1419.57 on)."""
    # math.cosh raises past 710.48, and 2cosh(710) is already inf
    trace = 2.0 * math.cosh(min(abs(length), 1420.0) / 2.0)
    if not trace < math.inf:
        raise ValueError(
            "the trace 2cosh(L/2) of %s %r is not a finite double" % (name, length)
        )
    return trace


def kappa_for(label: BoundaryLabel) -> float:
    """Fricke constant matching a boundary circle, cone point, or cusp."""
    if label.kind == "cusp":
        return 0.0
    if label.kind == "cone":
        return 2.0 - 2.0 * math.cos(label.value / 2.0)
    return 2.0 - _length_trace(label.value, "boundary length")


def root_triple(kappa: float, symmetric_start: bool = True) -> TraceTriple:
    """A point on the Fricke surface for the given constant.

    The symmetric start solves 3t^2 - t^3 = kappa on the branch t > 2 (the
    most symmetric torus) in closed form, so the cusped torus gets exactly
    t = 3; the asymmetric start stretches y to 1.15x and recovers z from the
    quadratic the relation imposes, taking the larger root so that
    z >= max(x, y) and the trace tree grows monotonically from the outset.
    """
    if not kappa < 4.0:
        raise ValueError(
            "no hyperbolic root triple exists for kappa=%r (needs kappa < 4, "
            "i.e. a genuine cone angle, boundary length, or cusp)" % kappa
        )
    # s = t - 1 turns the cubic into s^3 - 3s = 2 - kappa, solved by
    # s = 2cos(phi) or 2cosh(phi) with cos(3phi) resp. cosh(3phi) = 1 - kappa/2
    c = 1.0 - kappa / 2.0
    if kappa >= 0.0:
        t = 1.0 + 2.0 * math.cos(math.acos(c) / 3.0)
    else:
        t = 1.0 + 2.0 * math.cosh(math.acosh(c) / 3.0)
    if symmetric_start:
        return TraceTriple(t, t, t)
    x = t
    y = 1.15 * x
    disc = x * x * y * y - 4.0 * (x * x + y * y - kappa)
    if disc < 0.0:
        raise ValueError(
            "asymmetric start has no real trace solution for kappa=%r" % kappa
        )
    z = 0.5 * (x * y + math.sqrt(disc))
    return TraceTriple(x, y, z)


def _walk_subtree(
    a: float, b: float, c: float, tmax: float, children: Optional[list] = None
) -> List[float]:
    """Collect the trace of every tree node with trace <= tmax.

    Traces increase strictly along branches once the newest trace dominates
    the other two, so a dominated node above the cutoff ends its subtree
    and is tested before it is pushed, never visited; the rare non-dominant
    node (possible only near an asymmetric root) is descended regardless.
    Every computed trace is checked to be hyperbolic.  Given a children
    list, only the start is visited, and the children it would descend are
    appended to that list.
    """
    out: List[float] = []
    stack = [(a, b, c)]
    push = stack.append if children is None else children.append
    visited = 0
    while stack:
        a, b, c = stack.pop()
        visited += 1
        if visited > _MAX_TREE_NODES:
            raise RuntimeError(
                "trace tree traversal exceeded %d nodes; pruning failed"
                % _MAX_TREE_NODES
            )
        if not c > 2.0:
            raise _non_hyperbolic(c)
        if c <= tmax:
            out.append(c)
        elif c >= a and c >= b:
            continue  # only a subtree root can get here
        # each child (x, c, x*c - y) is pushed unless it dominates its
        # parents above the cutoff; its trace is checked either way
        t = a * c - b
        if t <= tmax or t < a or t < c:
            push((a, c, t))
        elif not t > 2.0:
            raise _non_hyperbolic(t)
        t = b * c - a
        if t <= tmax or t < b or t < c:
            push((b, c, t))
        elif not t > 2.0:
            raise _non_hyperbolic(t)
    return out


def _non_hyperbolic(trace: float) -> RuntimeError:
    return RuntimeError(
        "non-hyperbolic trace %r appeared in the tree (invalid root data)" % trace
    )


def _trace_groups(
    root: TraceTriple, length_cutoff: float, kappa: float
) -> List[Tuple[List[float], int]]:
    """The traces of every simple closed geodesic up to the length cutoff,
    as (traces, multiplicity) groups, each subtree with a bit-identical
    start walked once.

    The mirror trace w has w + z = x*y and w*z = x^2 + y^2 - kappa; the sum
    gives w when z is the smaller root, the product when z is the larger,
    where x*y - z cancels as the traces grow.  _walk_subtree expands the
    two subtrees off (x, y, z) into their children; with the two off the
    mirror these are the six depth-one starts.  A subtree's traces are a
    function of its start (a, b, c) and the cutoff alone, so starts equal
    as float triples are walked once and weighted by how often they occur.
    On a symmetric root (x = y = z) all six are (x, w, x*w - x),
    w = x*x - x, and one walk serves them all.
    """
    tmax = _length_trace(length_cutoff, "length cutoff")
    x, y, z = root
    w = (x * x + y * y - kappa) / z if 2.0 * z > x * y else x * y - z
    if not w > 2.0:
        raise _non_hyperbolic(w)
    kept = [t for t in (x, y, z, w) if t <= tmax]
    children: List[Tuple[float, float, float]] = []  # depth-one starts
    kept += _walk_subtree(x, z, x * z - y, tmax, children)  # off the root
    kept += _walk_subtree(y, z, y * z - x, tmax, children)
    starts = Counter(children)  # (a, b, c) -> multiplicity
    starts.update([(x, w, x * w - y), (y, w, y * w - x)])  # off the mirror
    groups = [(kept, 1)]
    groups += [(_walk_subtree(*start, tmax), mult) for start, mult in starts.items()]
    if not any(traces for traces, _ in groups):
        systole = 2.0 * math.acosh(min(x, y, z, w) / 2.0)
        raise ValueError(
            "length cutoff %g lies below the systole %.6f; no geodesics to "
            "enumerate" % (length_cutoff, systole)
        )
    return groups


class ConvergenceReport(NamedTuple):
    """Partial sums of a McShane identity at increasing length cutoffs."""

    target: float
    rows: Tuple[Tuple[float, int, float, float], ...]  # cutoff, count, sum, residual
    geodesic_count: int

    @property
    def final_residual(self) -> float:
        return self.rows[-1][3]

    def to_json(self) -> str:
        import json

        doc = {
            "target": self.target,
            "geodesic_count": self.geodesic_count,
            "partial_sums": [
                {"cutoff": c, "count": n, "sum": s, "residual": r}
                for c, n, s, r in self.rows
            ],
        }
        return json.dumps(doc, separators=(",", ":"))

    def to_text(self) -> str:
        lines = ["target %.15g over %d geodesics" % (self.target, self.geodesic_count)]
        lines.append("%10s %8s %22s %12s" % ("cutoff", "count", "sum", "residual"))
        for c, n, s, r in self.rows:
            lines.append("%10.2f %8d %22.15e %12.3e" % (c, n, s, r))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["cutoff,count,sum,residual"]
        for c, n, s, r in self.rows:
            lines.append("%r,%d,%r,%r" % (c, n, s, r))
        return "\n".join(lines)


def _gap(label: BoundaryLabel) -> Tuple[Callable[[float], float], float]:
    """The label's gap width as a function of geodesic length, with the
    angle or length checked and its constants taken once, and the sum the
    widths converge to."""
    if label.kind == "cusp":
        return (lambda x: 1.0 / (1.0 + math.exp(x)) if x < 700 else 0.0), 0.5
    if label.kind == "cone":
        return cone_torus_gap(label.value), label.value / 2.0
    return boundary_torus_gap(label.value), label.value / 2.0


#: Every finite double is an integer multiple of 2^-1074, the least subnormal.
_EXACT_SCALE = 2 ** 1074


def _exact_prefix_sums(values: List[float], stops: Sequence[int]) -> List[int]:
    """The exact sum of values[:stop] for each stop (non-decreasing), as an
    integer over _EXACT_SCALE.

    Integer true division rounds correctly, so total / _EXACT_SCALE is
    math.fsum(values[:stop]) bit for bit.  Each stretch between stops is
    added exactly in a few math.fsum passes: fsum's result s is moved from
    the stretch (appended as -s) into the integer total until the stretch
    sums to zero.  A nonzero multiple of 2^-1074 never rounds to zero, and
    each pass leaves a remainder at least 2^52 times smaller, so this ends
    with the total exact; the stretches between checkpoints span a few
    binades and need two or three passes.
    """
    sums, total, done = [], 0, 0
    for stop in stops:
        rest = values[done:stop]
        while True:
            s = math.fsum(rest)
            if not s:
                break
            n, d = s.as_integer_ratio()
            total += n << (1075 - d.bit_length())
            rest.append(-s)
        sums.append(total)
        done = stop
    return sums


def mcshane_sum(
    root: TraceTriple,
    label: BoundaryLabel,
    length_cutoff: float = 40.0,
    checkpoints: Optional[Sequence[float]] = None,
) -> ConvergenceReport:
    """Partial sums of the generalized McShane identity on the torus.

    On a one-holed torus every embedded pair of pants wraps one interior
    geodesic twice, so the identity is a sum of one gap width per simple
    closed geodesic and converges to theta/2, L/2, or 1/2 according to the
    boundary data.  The root triple must lie on the matching Fricke
    surface.

    The trace tree is walked by _trace_groups, which walks each distinct
    subtree start once and returns its traces with their multiplicity
    (six on a symmetric root).  Each group's lengths are sorted once, and
    their gap widths are added into exact running integer sums
    (_exact_prefix_sums) at the checkpoints.  A checkpoint's sum is the
    multiplicity-weighted total divided once, which rounds correctly, so
    every row is bit-identical to math.fsum over one term per geodesic,
    and the report is the same from call to call.
    """
    kappa = kappa_for(label)
    if root.fricke_residual(kappa) > 1e-8:
        raise ValueError(
            "root triple has Fricke constant %r but the boundary data "
            "demands %r; the trace tree would enumerate a different surface"
            % (root.kappa, kappa)
        )
    gap, target = _gap(label)
    groups = _trace_groups(root, length_cutoff, kappa)
    if checkpoints is None:
        cuts = [float(c) for c in range(10, int(length_cutoff) + 1, 5)]
        if not cuts or cuts[-1] != float(length_cutoff):
            cuts.append(float(length_cutoff))
    else:
        cuts = sorted(set(float(c) for c in checkpoints))
        if cuts and cuts[-1] > length_cutoff:
            raise ValueError(
                "checkpoint %g exceeds the length cutoff %g"
                % (cuts[-1], length_cutoff)
            )
    counts = [0] * len(cuts)
    totals = [0] * len(cuts)
    for traces, mult in groups:
        lengths = sorted(2.0 * math.acosh(t / 2.0) for t in traces)
        stops = [bisect_right(lengths, cut) for cut in cuts]
        sums = _exact_prefix_sums([gap(x) for x in lengths], stops)
        for i, (stop, total) in enumerate(zip(stops, sums)):
            counts[i] += mult * stop
            totals[i] += mult * total
    rows = []
    for cut, count, total in zip(cuts, counts, totals):
        total /= _EXACT_SCALE
        rows.append((cut, count, total, abs(target - total)))
    return ConvergenceReport(
        target=target,
        rows=tuple(rows),
        geodesic_count=sum(len(traces) * mult for traces, mult in groups),
    )


def integrate_volume_identity(theta: float) -> float:
    """Torus volume recovered from the first moment of the gap kernel.

    Integrating x times the cone-point gap width over [0, inf) and dividing
    by theta reproduces the volume polynomial of the one-cone torus,
    -theta^2/48 + pi^2/12.  The integrand decays like x*exp(-x), so
    integrate_decaying truncates it itself, at its default tolerance 1e-10.
    """
    gap = cone_torus_gap(theta)  # checks theta
    return integrate_decaying(lambda x: x * gap(x)) / theta
