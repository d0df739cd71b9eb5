"""Poncelet triangle families between an outer conic and in-pencil caustics.

Six one-parameter families of triangles inscribed in an outer conic are
provided, each driven by the eccentric angle t of the first vertex:

* ``bic-I``   outer circle, incircle caustic (the poristic pair),
* ``bic-II``  outer circle, one interior circular caustic touching two
              sides; the third side then envelopes another circle of
              the same pencil,
* ``bic-III`` outer circle, two circular caustics from the pencil, one
              per constructed side, chosen by a tangent branch,
* ``conf-I``  outer ellipse with its confocal billiard caustic (the
              closure case, found by the critical pencil parameter),
* ``conf-II`` outer ellipse, one confocal caustic touching two sides,
* ``conf-III`` outer ellipse, confocal caustic plus a second concentric
              caustic from their pencil, one per constructed side.

Every family builds its vertices with a closed-form chord map: the
bicentric map for circles, the confocal map for concentric
axis-parallel ellipses (which covers conf-III's second caustic, a
member of the pencil of two such ellipses).  All formulas live in the
canonical frame: circles centered on the x-axis with the outer circle
at the origin, ellipses concentric and axis-parallel at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .geom import (
    Conic,
    GeometryError,
    Line,
    Point,
    _cos,
    _line_through,
    _sin,
    _sqrt,
    line_intersection,
)

__all__ = [
    "NoPoristicPair",
    "CircularOuterUnsupported",
    "VertexInsideCaustic",
    "ImaginaryPencilCircle",
    "DegenerateTriangle",
    "PLUS",
    "MINUS",
    "TangentBranch",
    "DEFAULT_BRANCH",
    "BicentricParams",
    "ConfocalParams",
    "Triangle",
    "TriangleBatch",
    "FamilyConfig",
    "FAMILY_KINDS",
    "chapple_distance",
    "kerawala_holds",
    "degenerate_envelope_inradius",
    "confocal_delta",
    "confocal_caustic",
    "critical_lambda",
    "n4_caustic",
    "n6_caustic",
    "bic2_vertices",
    "bic3_caustic2",
    "bic3_vertices",
    "conf2_vertices",
    "conf3_vertices",
    "bic2_envelope",
    "bic2_envelope_radius_pq",
    "conf2_envelope",
    "envelope_points",
    "bic1_config",
    "bic2_config",
    "bic3_config",
    "conf1_config",
    "conf2_config",
    "conf3_config",
]


class NoPoristicPair(GeometryError):
    """No poristic triangle family exists for the given circle pair."""


class CircularOuterUnsupported(GeometryError):
    """Confocal constructions need a strictly elliptical outer conic."""


class VertexInsideCaustic(GeometryError):
    """A chord step was requested from a point without real tangents."""


class ImaginaryPencilCircle(GeometryError):
    """The requested pencil circle has negative squared radius."""


class DegenerateTriangle(GeometryError):
    """Triangle with (numerically) collinear or coincident vertices."""


PLUS = "plus"
MINUS = "minus"


class TangentBranch(NamedTuple):
    """Which tangent to take at each constructed side of a triangle.

    Both components select the sign of the square root in the chord
    maps (equivalently, which of the two tangents from the moving
    vertex).  The labels are continuous along a full sweep of t.
    """

    first: str = PLUS
    second: str = PLUS


DEFAULT_BRANCH = TangentBranch(PLUS, PLUS)


def _branch_sign(label: str) -> float:
    if label == PLUS:
        return 1.0
    if label == MINUS:
        return -1.0
    raise ValueError(f"tangent branch must be {PLUS!r} or {MINUS!r}, got {label!r}")


@dataclass(frozen=True)
class BicentricParams:
    """Outer circle radius R at the origin, caustic radius r at (d, 0).

    ``u`` selects the second caustic of the three-caustic family as the
    pencil coordinate between the first caustic (u=0) and the outer
    circle (u=1).
    """

    R: float
    r: float
    d: float
    u: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.R > 0.0 and self.r > 0.0):
            raise ValueError("radii must be positive")
        if self.d < 0.0:
            raise ValueError("center offset must be nonnegative")
        if self.r + self.d >= self.R:
            raise ValueError("caustic must be strictly inside the outer circle")

    def outer_circle(self) -> Conic:
        return Conic.circle(Point(0.0, 0.0), self.R)

    def caustic(self) -> Conic:
        return Conic.circle(Point(self.d, 0.0), self.r)


@dataclass(frozen=True)
class ConfocalParams:
    """Outer ellipse semi-axes (a, b) with a > b, caustic parameter lam.

    The confocal caustic has semi-axes (sqrt(a^2-lam), sqrt(b^2-lam)),
    so lam must lie in [0, b^2).  ``pencil_u`` selects the second
    caustic of the three-caustic family inside the pencil spanned by
    the outer ellipse and the confocal caustic (u=0 caustic, u=1 outer).
    """

    a: float
    b: float
    lam: float
    pencil_u: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.a > self.b > 0.0):
            raise ValueError("need a > b > 0")
        if not (0.0 <= self.lam < self.b * self.b):
            raise ValueError("lam must lie in [0, b^2)")

    @property
    def c2(self) -> float:
        return self.a * self.a - self.b * self.b

    def caustic_semi_axes(self) -> Tuple[float, float]:
        return (
            math.sqrt(self.a * self.a - self.lam),
            math.sqrt(self.b * self.b - self.lam),
        )

    def outer_ellipse(self) -> Conic:
        return Conic.axis_ellipse(Point(0.0, 0.0), self.a, self.b)

    def caustic(self) -> Conic:
        ca, cb = self.caustic_semi_axes()
        return Conic.axis_ellipse(Point(0.0, 0.0), ca, cb)


@dataclass(frozen=True)
class Triangle:
    """One family member: vertices and the driving angle."""

    p1: Point
    p2: Point
    p3: Point
    t: float

    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)

    def side_lengths(self) -> Tuple[float, float, float]:
        """(s1, s2, s3) with s_i the length of the side opposite vertex i."""
        s1 = math.dist(self.p2, self.p3)
        s2 = math.dist(self.p3, self.p1)
        s3 = math.dist(self.p1, self.p2)
        return (s1, s2, s3)

    def area(self) -> float:
        (x1, y1), (x2, y2), (x3, y3) = self.p1, self.p2, self.p3
        return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))

    def perimeter(self) -> float:
        return sum(self.side_lengths())

    def inradius(self) -> float:
        return 2.0 * self.area() / self.perimeter()

    def circumradius(self) -> float:
        s1, s2, s3 = self.side_lengths()
        area = self.area()
        if area == 0.0:
            raise DegenerateTriangle("collinear vertices")
        return s1 * s2 * s3 / (4.0 * area)


class TriangleBatch(NamedTuple):
    """Family members at many angles t, as coordinate arrays.

    Every field has the shape of t (floats for a single angle).  ``ok``
    is false where a chord step found no real tangent; the coordinates
    there are meaningless.
    """

    x1: Any
    y1: Any
    x2: Any
    y2: Any
    x3: Any
    y3: Any
    ok: Any


# ---------------------------------------------------------------------------
# Scalar relations between the fixed conics of each family.


def chapple_distance(R: float, r: float) -> float:
    """Center offset d with d^2 = R(R - 2r), the poristic closure condition."""
    if R < 2.0 * r:
        raise NoPoristicPair(f"need R >= 2r, got R={R}, r={r}")
    return math.sqrt(R * (R - 2.0 * r))

# Bound on the scale-free Kerawala residual |residual| * r^2.
_KERAWALA_TOL = 1e-10


def kerawala_holds(R: float, r: float, d: float) -> Tuple[bool, float]:
    """Whether 1/(R-d)^2 + 1/(R+d)^2 = 1/r^2 holds, plus the raw residual.

    The boolean compares |residual| * r^2 against ``_KERAWALA_TOL`` so
    the decision is scale-free even though the returned residual is not.
    """
    residual = 1.0 / (R - d) ** 2 + 1.0 / (R + d) ** 2 - 1.0 / (r * r)
    return (abs(residual) * r * r <= _KERAWALA_TOL, residual)


def degenerate_envelope_inradius(R: float, d: float) -> float:
    """Caustic radius making the two-caustic third-side envelope a point.

    Solves (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2) for r; equivalent to the
    relation tested by kerawala_holds.
    """
    return math.sqrt((R * R - d * d) ** 2 / (2.0 * (R * R + d * d)))


def confocal_delta(a: float, b: float) -> float:
    """sqrt(a^4 - a^2 b^2 + b^4), the root in the closing-family formulas."""
    a2 = a * a
    b2 = b * b
    return math.sqrt(a2 * a2 - a2 * b2 + b2 * b2)


def confocal_caustic(a: float, b: float) -> Tuple[float, float]:
    """Semi-axes of the confocal caustic closing billiard triangles."""
    if a == b:
        raise CircularOuterUnsupported("confocal caustic undefined for a circle")
    if not a > b > 0.0:
        raise ValueError("need a > b > 0")
    a2 = a * a
    b2 = b * b
    c2 = a2 - b2
    delta = confocal_delta(a, b)
    return (a * (delta - b2) / c2, b * (a2 - delta) / c2)


def critical_lambda(a: float, b: float) -> float:
    """Pencil parameter of the confocal caustic that closes triangles."""
    if a == b:
        raise CircularOuterUnsupported("critical parameter undefined for a circle")
    if not a > b > 0.0:
        raise ValueError("need a > b > 0")
    a2 = a * a
    b2 = b * b
    c2 = a2 - b2
    delta = confocal_delta(a, b)
    return a2 * b2 * (2.0 * delta - a2 - b2) / (c2 * c2)


def n4_caustic(a: float, b: float) -> Tuple[float, float]:
    """Confocal caustic whose billiard polygons close after 4 bounces."""
    root = math.sqrt(a * a + b * b)
    return (a * a / root, b * b / root)


def n6_caustic(a: float, b: float) -> Tuple[float, float]:
    """Confocal caustic whose billiard polygons close after 6 bounces."""
    s = a + b
    return (
        a * math.sqrt(a * (a + 2.0 * b)) / s,
        b * math.sqrt(b * (2.0 * a + b)) / s,
    )


# ---------------------------------------------------------------------------
# Closed-form chord maps.
#
# Given a vertex on the outer conic and an interior caustic, the chord
# map returns the second intersection with the outer conic of one of
# the two tangents from the vertex to the caustic.  The sign argument
# selects the tangent; the labeling is continuous in the vertex, so a
# fixed sign traces a single smooth family over a full sweep.
#
# Both maps are elementwise in the vertex (x1, y1), which may be numpy
# arrays, and return (x2, y2, ok) with ok false where the vertex has no
# real tangent to the caustic (on or inside it); the root is taken of
# |delta2|, so such a vertex still gets a finite, meaningless image.


def _bic_chord_step(R: float, rc: float, dc: float, x1: Any, y1: Any, sign: float):
    """Chord map for an outer circle of radius R about the origin and a
    caustic circle of radius rc centered at (dc, 0)."""
    delta2 = R * R + dc * dc - 2.0 * dc * x1 - rc * rc
    delta = sign * _sqrt(abs(delta2))
    den = (R * R + dc * dc - 2.0 * dc * x1) ** 2
    rr_dd = R * R - dc * dc
    x2 = (
        2.0 * rc * y1 * rr_dd * delta
        + (2.0 * dc * R * R - (R * R + dc * dc) * x1) * (delta2 - rc * rc)
    ) / den
    y2 = (
        (4.0 * R * R * dc - 2.0 * (R * R + dc * dc) * x1) * rc * delta
        - y1 * rr_dd * (delta2 - rc * rc)
    ) / den
    return x2, y2, delta2 > 0.0


def _conf_chord_step(
    a: float, b: float, ca: float, cb: float, x1: Any, y1: Any, sign: float
):
    """Chord map for a concentric axis-parallel outer ellipse (a, b) and
    caustic ellipse (ca, cb)."""
    a2 = a * a
    b2 = b * b
    ca2 = ca * ca
    cb2 = cb * cb
    delta2 = (a2 * cb2 - ca2 * cb2) * x1 * x1 + (a2 * ca2 - a2 * ca2 * cb2 / b2) * y1 * y1
    delta = sign * _sqrt(abs(delta2))
    alpha1 = a2 * (b2 - cb2) - ca2 * b2
    alpha2 = (a2 - ca2) * b2 + a2 * cb2
    alpha3 = a2 * (b2 - cb2) + ca2 * b2
    w = (alpha2 * x1) ** 2 / a2 + (alpha3 * y1) ** 2 / b2
    x2 = (2.0 * a * alpha3 * y1 * delta - alpha1 * alpha2 * x1) / w
    y2 = (-2.0 * b2 * alpha2 * x1 * delta - a * alpha1 * alpha3 * y1) / (a * w)
    return x2, y2, delta2 > 0.0


# ---------------------------------------------------------------------------
# Family constructions.


def _bic2_batch(p: BicentricParams, t: Any) -> TriangleBatch:
    """Two-caustic bicentric triangles at the angles t.

    P1 = R (cos t, sin t); P2 and P3 are the second intersections of
    the two tangents from P1 to the caustic with the outer circle.  The
    poristic family is the special case d^2 = R(R - 2r).
    """
    x1 = p.R * _cos(t)
    y1 = p.R * _sin(t)
    # Both tangents leave P1: one tangent condition for the pair.
    x2, y2, ok = _bic_chord_step(p.R, p.r, p.d, x1, y1, 1.0)
    x3, y3, _ = _bic_chord_step(p.R, p.r, p.d, x1, y1, -1.0)
    return TriangleBatch(x1, y1, x2, y2, x3, y3, ok)


def bic2_vertices(p: BicentricParams, t: float) -> Triangle:
    """Two-caustic bicentric triangle at angle t (see _bic2_batch)."""
    return FamilyConfig("bic-II", bic=p).triangle(t)


def _bic3_second_caustic(p: BicentricParams) -> Tuple[float, float]:
    """(radius, center offset) of the pencil circle at parameter u."""
    if p.u is None:
        raise ValueError("three-caustic family needs the pencil parameter u")
    u = p.u
    radicand = p.d * p.d * u * u + (p.R * p.R - p.d * p.d - p.r * p.r) * u + p.r * p.r
    if radicand <= 0.0:
        raise ImaginaryPencilCircle(f"pencil circle at u={u} is imaginary")
    return (math.sqrt(radicand), p.d * (1.0 - u))


def bic3_caustic2(p: BicentricParams) -> Conic:
    """Second circular caustic: the pencil member at parameter u with
    center (d(1-u), 0) and radius sqrt(d^2 u^2 + (R^2-d^2-r^2) u + r^2)."""
    radius, offset = _bic3_second_caustic(p)
    return Conic.circle(Point(offset, 0.0), radius)


def _bic3_batch(p: BicentricParams, t: Any, branch: TangentBranch) -> TriangleBatch:
    """Three-caustic bicentric triangles at the angles t.

    Chain construction: P1P2 is tangent to the first caustic, P2P3 to
    the pencil caustic at parameter u, all vertices on the outer
    circle.  The free side P3P1 then envelopes a third pencil circle.
    """
    r2, d2 = _bic3_second_caustic(p)
    x1 = p.R * _cos(t)
    y1 = p.R * _sin(t)
    s1 = _branch_sign(branch.first)
    s2 = _branch_sign(branch.second)
    x2, y2, ok2 = _bic_chord_step(p.R, p.r, p.d, x1, y1, s1)
    x3, y3, ok3 = _bic_chord_step(p.R, r2, d2, x2, y2, s2)
    return TriangleBatch(x1, y1, x2, y2, x3, y3, ok2 & ok3)


def bic3_vertices(p: BicentricParams, t: float, branch: TangentBranch = DEFAULT_BRANCH) -> Triangle:
    """Three-caustic bicentric triangle at angle t (see _bic3_batch)."""
    return FamilyConfig("bic-III", bic=p, branch=branch).triangle(t)


def _conf2_batch(p: ConfocalParams, t: Any, branch: TangentBranch) -> TriangleBatch:
    """Confocal-caustic triangles at the angles t.

    P1 = (a cos t, b sin t); P2 and P3 close the two tangents from P1
    to the confocal caustic.  ``branch.first`` swaps the roles of P2
    and P3 (the second component is unused since both constructed sides
    leave the same vertex).
    """
    ca, cb = p.caustic_semi_axes()
    x1 = p.a * _cos(t)
    y1 = p.b * _sin(t)
    s = _branch_sign(branch.first)
    # Both tangents leave P1: one tangent condition for the pair.
    x2, y2, ok = _conf_chord_step(p.a, p.b, ca, cb, x1, y1, s)
    x3, y3, _ = _conf_chord_step(p.a, p.b, ca, cb, x1, y1, -s)
    return TriangleBatch(x1, y1, x2, y2, x3, y3, ok)


def conf2_vertices(
    p: ConfocalParams, t: float, branch: TangentBranch = DEFAULT_BRANCH
) -> Triangle:
    """Confocal-caustic triangle at angle t (see _conf2_batch)."""
    return FamilyConfig("conf-II", conf=p, branch=branch).triangle(t)


def _conf3_second_caustic(p: ConfocalParams) -> Tuple[float, float]:
    """Semi-axes (along x, along y) of the pencil ellipse at pencil_u.

    The member is pencil_u * outer + (1 - pencil_u) * caustic, with each
    x^2/ex^2 + y^2/ey^2 - 1 = 0 first scaled to quadratic trace 2, as
    geom.pencil_member does; it stays concentric and axis-parallel.
    """
    if p.pencil_u is None:
        raise ValueError("three-caustic family needs the pencil parameter pencil_u")
    u = p.pencil_u
    ca, cb = p.caustic_semi_axes()
    qx = qy = k = 0.0
    for weight, ex, ey in ((u, p.a, p.b), (1.0 - u, ca, cb)):
        ix = 1.0 / (ex * ex)
        iy = 1.0 / (ey * ey)
        w = 2.0 * weight / (ix + iy)
        qx += w * ix
        qy += w * iy
        k += w
    # The member is qx x^2 + qy y^2 = k.
    if qx * k <= 0.0 or qy * k <= 0.0:
        raise ImaginaryPencilCircle(f"pencil caustic at u={u} is not an ellipse")
    return (math.sqrt(k / qx), math.sqrt(k / qy))


def _conf3_batch(p: ConfocalParams, t: Any, branch: TangentBranch) -> TriangleBatch:
    """Two-elliptic-caustic triangles at the angles t.

    Chain construction: P1P2 is tangent to the confocal caustic, P2P3
    to the concentric pencil caustic at parameter pencil_u, all
    vertices on the outer ellipse.
    """
    ea, eb = _conf3_second_caustic(p)
    ca, cb = p.caustic_semi_axes()
    x1 = p.a * _cos(t)
    y1 = p.b * _sin(t)
    s1 = _branch_sign(branch.first)
    s2 = _branch_sign(branch.second)
    x2, y2, ok2 = _conf_chord_step(p.a, p.b, ca, cb, x1, y1, s1)
    x3, y3, ok3 = _conf_chord_step(p.a, p.b, ea, eb, x2, y2, s2)
    return TriangleBatch(x1, y1, x2, y2, x3, y3, ok2 & ok3)


def conf3_vertices(
    p: ConfocalParams, t: float, branch: TangentBranch = DEFAULT_BRANCH
) -> Triangle:
    """Two-elliptic-caustic triangle at angle t (see _conf3_batch)."""
    return FamilyConfig("conf-III", conf=p, branch=branch).triangle(t)


# ---------------------------------------------------------------------------
# Closed-form third-side envelopes.


def bic2_envelope(p: BicentricParams) -> Conic:
    """Envelope of the third side P2P3 over the two-caustic circle family.

    A circle of the same pencil, centered at (4 d R^2 r^2/(R^2-d^2)^2, 0)
    with signed radius R (R^4 - 2R^2 d^2 - 2R^2 r^2 + d^4 - 2 d^2 r^2)
    / (R^2-d^2)^2; the absolute value is used for the returned conic and
    a zero radius yields a point conic.  The equivalent product form of
    the radius (see bic2_envelope_radius_pq) is asserted to agree.
    """
    R, r, d = p.R, p.r, p.d
    den = (R * R - d * d) ** 2
    cx = 4.0 * d * R * R * r * r / den
    radius = (
        R
        * (R ** 4 - 2.0 * R * R * d * d - 2.0 * R * R * r * r + d ** 4 - 2.0 * d * d * r * r)
        / den
    )
    if d > 1e-12 * R:
        alt = bic2_envelope_radius_pq(R, r, d)
        if abs(alt - radius) > 1e-12 * max(1.0, abs(radius), R):
            raise GeometryError("envelope radius forms disagree; parameters ill-conditioned")
    return Conic.circle(Point(cx, 0.0), abs(radius))


def bic2_envelope_radius_pq(R: float, r: float, d: float) -> float:
    """Signed envelope radius via the substitution p=(R+d)/r, q=(R-d)/r."""
    if d == 0.0:
        raise ValueError("product form needs d > 0")
    pp = (R + d) / r
    qq = (R - d) / r
    return (pp * pp * qq * qq - pp * pp - qq * qq) * (pp + qq) * d / (
        pp * pp * qq * qq * (pp - qq)
    )


def conf2_envelope(p: ConfocalParams) -> Conic:
    """Envelope of the third side P2P3 over the confocal-caustic family.

    A concentric axis-parallel ellipse with semi-axes
    |a z| / (a^2 b^2 - c^2 lam) and |b z| / (a^2 b^2 + c^2 lam) where
    z = a^2 b^2 - (a^2 + b^2) lam; z = 0 collapses it to the center.
    """
    a2 = p.a * p.a
    b2 = p.b * p.b
    zeta = a2 * b2 - (a2 + b2) * p.lam
    if abs(zeta) <= 1e-14 * a2 * b2:
        return Conic.circle(Point(0.0, 0.0), 0.0)
    ea = abs(p.a * zeta) / (a2 * b2 - p.c2 * p.lam)
    eb = abs(p.b * zeta) / (a2 * b2 + p.c2 * p.lam)
    return Conic.axis_ellipse(Point(0.0, 0.0), ea, eb)


# ---------------------------------------------------------------------------
# Envelope sampling from a one-parameter family of chords.


# Half-width of the outer chord pair in envelope_points.
_ENVELOPE_STEP = 1e-3


def envelope_points(
    line_at: Callable[[float], Optional[Line]], ts: Sequence[float]
) -> List[Point]:
    """Characteristic points of a chord family L(t), one per sample angle.

    Each point is the limit of intersections of neighboring chords,
    computed from the symmetric pairs (t-h, t+h) and (t-h/2, t+h/2),
    h = _ENVELOPE_STEP, with one Richardson extrapolation step, which
    removes the O(h^2) truncation term.  Samples with missing or near-parallel chords are
    skipped.
    """

    def char_point(t: float, step: float) -> Optional[Point]:
        l1 = line_at(t - step)
        l2 = line_at(t + step)
        if l1 is None or l2 is None:
            return None
        return line_intersection(l1, l2)

    out: List[Point] = []
    for t in ts:
        coarse = char_point(t, _ENVELOPE_STEP)
        fine = char_point(t, 0.5 * _ENVELOPE_STEP)
        if coarse is None or fine is None:
            continue
        out.append(
            Point(
                (4.0 * fine.x - coarse.x) / 3.0,
                (4.0 * fine.y - coarse.y) / 3.0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Family configuration: one value describing a concrete family instance.


FAMILY_KINDS = ("bic-I", "bic-II", "bic-III", "conf-I", "conf-II", "conf-III")

_BIC_KINDS = ("bic-I", "bic-II", "bic-III")
_CONF_KINDS = ("conf-I", "conf-II", "conf-III")


@dataclass(frozen=True)
class FamilyConfig:
    """A concrete triangle family: kind, shape parameters, tangent branch."""

    kind: str
    bic: Optional[BicentricParams] = None
    conf: Optional[ConfocalParams] = None
    branch: TangentBranch = DEFAULT_BRANCH

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in _BIC_KINDS:
            if self.bic is None:
                raise ValueError(f"{self.kind} needs bicentric parameters")
            if self.kind == "bic-I":
                want = chapple_distance(self.bic.R, self.bic.r)
                if abs(self.bic.d - want) > 1e-12 * max(self.bic.R, 1.0):
                    raise NoPoristicPair(
                        f"d={self.bic.d} is not the poristic offset {want}"
                    )
            if self.kind == "bic-III" and self.bic.u is None:
                raise ValueError("bic-III needs the pencil parameter u")
        else:
            if self.conf is None:
                raise ValueError(f"{self.kind} needs confocal parameters")
            if self.kind == "conf-I":
                want = critical_lambda(self.conf.a, self.conf.b)
                if abs(self.conf.lam - want) > 1e-12 * max(self.conf.b ** 2, 1.0):
                    raise ValueError(
                        f"lam={self.conf.lam} is not the closure value {want}"
                    )
            if self.kind == "conf-III" and self.conf.pencil_u is None:
                raise ValueError("conf-III needs the pencil parameter pencil_u")

    @property
    def outer_scale(self) -> float:
        if self.bic is not None:
            return self.bic.R
        assert self.conf is not None
        return self.conf.a

    def outer_conic(self) -> Conic:
        if self.kind in _BIC_KINDS:
            assert self.bic is not None
            return self.bic.outer_circle()
        assert self.conf is not None
        return self.conf.outer_ellipse()

    def caustics(self) -> Tuple[Conic, ...]:
        """The prescribed caustics (not the derived third-side envelope)."""
        if self.kind in _BIC_KINDS:
            assert self.bic is not None
            if self.kind == "bic-III":
                return (self.bic.caustic(), bic3_caustic2(self.bic))
            return (self.bic.caustic(),)
        assert self.conf is not None
        if self.kind == "conf-III":
            ea, eb = _conf3_second_caustic(self.conf)
            return (self.conf.caustic(), Conic.axis_ellipse(Point(0.0, 0.0), ea, eb))
        return (self.conf.caustic(),)

    def triangles(self, t: Any) -> TriangleBatch:
        """The members at the angles t (a numpy array, or one float).

        The one construction path: ``triangle`` evaluates it at a single
        angle.  Raises only for parameters that admit no member at all
        (an imaginary second caustic); a vertex without a real tangent
        clears ``ok`` at its angle.
        """
        if self.kind in ("bic-I", "bic-II"):
            assert self.bic is not None
            return _bic2_batch(self.bic, t)
        if self.kind == "bic-III":
            assert self.bic is not None
            return _bic3_batch(self.bic, t, self.branch)
        assert self.conf is not None
        if self.kind in ("conf-I", "conf-II"):
            return _conf2_batch(self.conf, t, self.branch)
        return _conf3_batch(self.conf, t, self.branch)

    def triangle(self, t: float) -> Triangle:
        """The member at angle t; raises where ``triangles`` clears ok."""
        b = self.triangles(t)
        if not b.ok:
            raise VertexInsideCaustic(f"no real tangent from the vertex at t={t}")
        return Triangle(Point(b.x1, b.y1), Point(b.x2, b.y2), Point(b.x3, b.y3), t)

    def _free_side_ends(self, tri: TriangleBatch) -> Tuple[Any, Any, Any, Any]:
        """The side not constrained to a prescribed caustic, as (x, y, x', y').

        P2P3 for the single-caustic families, P3P1 for the chain-built
        three-caustic families.
        """
        if self.kind in ("bic-III", "conf-III"):
            return tri.x3, tri.y3, tri.x1, tri.y1
        return tri.x2, tri.y2, tri.x3, tri.y3

    def free_side(self, tri: Triangle) -> Line:
        """The side not constrained to a prescribed caustic (see free_sides)."""
        x1, y1, x2, y2 = self._free_side_ends(TriangleBatch(*tri.p1, *tri.p2, *tri.p3, True))
        return Line.from_points(Point(x1, y1), Point(x2, y2))

    def free_sides(self, t: Any) -> Tuple[Any, Any, Any, Any]:
        """(a, b, c, ok): the free side a x + b y + c = 0, with unit normal
        (a, b), at the angles t; ok is false where there is no member."""
        tri = self.triangles(t)
        a, b, c, ok = _line_through(*self._free_side_ends(tri))
        return a, b, c, tri.ok & ok

    def free_side_at(self, t: float) -> Optional[Line]:
        a, b, c, ok = self.free_sides(t)
        return Line(a, b, c) if ok else None

    def closed_form_envelope(self) -> Optional[Conic]:
        """Known envelope of the free side, where a closed form exists."""
        if self.kind == "bic-I":
            assert self.bic is not None
            return self.bic.caustic()
        if self.kind == "bic-II":
            assert self.bic is not None
            return bic2_envelope(self.bic)
        if self.kind == "conf-I":
            assert self.conf is not None
            return self.conf.caustic()
        if self.kind == "conf-II":
            assert self.conf is not None
            return conf2_envelope(self.conf)
        return None


def bic1_config(R: float, r: float) -> FamilyConfig:
    return FamilyConfig("bic-I", bic=BicentricParams(R, r, chapple_distance(R, r)))


def bic2_config(R: float, r: float, d: float) -> FamilyConfig:
    return FamilyConfig("bic-II", bic=BicentricParams(R, r, d))


def bic3_config(
    R: float, r: float, d: float, u: float, branch: TangentBranch = DEFAULT_BRANCH
) -> FamilyConfig:
    return FamilyConfig("bic-III", bic=BicentricParams(R, r, d, u=u), branch=branch)


def conf1_config(a: float, b: float) -> FamilyConfig:
    return FamilyConfig("conf-I", conf=ConfocalParams(a, b, critical_lambda(a, b)))


def conf2_config(
    a: float, b: float, lam: float, branch: TangentBranch = DEFAULT_BRANCH
) -> FamilyConfig:
    return FamilyConfig("conf-II", conf=ConfocalParams(a, b, lam), branch=branch)


def conf3_config(
    a: float,
    b: float,
    lam: float,
    pencil_u: float,
    branch: TangentBranch = DEFAULT_BRANCH,
) -> FamilyConfig:
    return FamilyConfig(
        "conf-III", conf=ConfocalParams(a, b, lam, pencil_u=pencil_u), branch=branch
    )
