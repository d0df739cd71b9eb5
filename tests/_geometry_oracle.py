"""Construction-free plane geometry: the tests' independent oracle.

Lines through points, the meet of two lines, a conic's implicit value
and gradient, the tangents from a point to a conic, circle inversion,
the members of a pencil of two conics, the measures of a triangle and
its contact triangle, each written from its formula on floats.  None of it calls the
package's elementwise kernels or evaluators, so a test that checks a
kernel against these functions compares two derivations of the same
geometry.  ``memberless_chain`` builds the one family the package
refuses that the tests still trace: a chain without members.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from poncelet.families import DEFAULT_BRANCH, BicentricParams, DegenerateTriangle, FamilyConfig, Triangle
from poncelet.geom import (
    CIRCLE,
    ELLIPSE,
    Conic,
    GeometryError,
    InversionOfCenter,
    Line,
    Point,
    classify_conic,
)

# Bound on the cross product of two unit line normals.
_PARALLEL_TOL = 1e-14
# Bound on a unit-norm conic's value at a point taken to lie on the conic.
_BOUNDARY_TOL = 1e-12


def conic_value(conic: Conic, p: Point) -> float:
    a, b, c, d, e, f = conic.coeffs
    x, y = p
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def conic_gradient(conic: Conic, p: Point) -> Tuple[float, float]:
    a, b, c, d, e, _ = conic.coeffs
    x, y = p
    return (2.0 * a * x + b * y + d, b * x + 2.0 * c * y + e)


class NoRealTangent(GeometryError):
    """Tangent lines were requested from a point inside the conic."""


class TangentFromBoundary(GeometryError):
    """Tangent lines were requested from a point on the conic itself."""


def line_from_points(p: Point, q: Point) -> Line:
    """Line through two points; the normal is the left normal of p->q."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    n = math.hypot(dx, dy)
    if n == 0.0:
        raise GeometryError("line through coincident points")
    a, b = -dy / n, dx / n
    return Line(a, b, -(a * p[0] + b * p[1]))


def line_from_coefficients(a: float, b: float, c: float) -> Line:
    n = math.hypot(a, b)
    if n == 0.0:
        raise GeometryError("degenerate line coefficients")
    return Line(a / n, b / n, c / n)


def line_intersection(l1: Line, l2: Line) -> Optional[Point]:
    """Intersection of two unit-normal lines by Cramer's rule, or None
    when they are (nearly) parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) <= _PARALLEL_TOL:
        return None
    return Point((-l1.c * l2.b + l2.c * l1.b) / det, (-l1.a * l2.c + l2.a * l1.c) / det)


def second_intersection(conic: Conic, p: Point, direction: Tuple[float, float]) -> Point:
    """Other intersection of the line through p (on the conic) with the conic.

    The known root at p is factored out exactly, so the result stays
    accurate even when the two intersections are close together.
    """
    a, b, c, _, _, _ = conic.coeffs
    dx, dy = direction
    q2 = a * dx * dx + b * dx * dy + c * dy * dy
    if abs(q2) < 1e-300:
        raise GeometryError("direction is asymptotic for this conic")
    gx, gy = conic_gradient(conic, p)
    t = -(gx * dx + gy * dy) / q2
    return Point(p.x + t * dx, p.y + t * dy)


def _contact_sort_key(conic: Conic, contact: Point) -> float:
    cx, cy = conic.center if conic.center is not None else (0.0, 0.0)
    return math.atan2(contact.y - cy, contact.x - cx) % (2.0 * math.pi)


def tangent_contact_points(p: Point, conic: Conic) -> Tuple[Point, Point]:
    """Contact points of the two tangents from an exterior point.

    Ordered by the polar angle of the contact point about the conic
    center, counterclockwise from the positive x-axis.
    """
    if conic.kind not in (CIRCLE, ELLIPSE):
        raise GeometryError(f"tangents undefined for kind {conic.kind!r}")
    val = conic_value(conic, p)
    if abs(val) <= _BOUNDARY_TOL:
        raise TangentFromBoundary(f"point {p} lies on the conic")
    if val < 0.0:
        raise NoRealTangent(f"point {p} lies inside the conic")
    a, b, c, d, e, f = conic.coeffs
    # Polar line of p: M3 @ (px, py, 1).
    la = a * p.x + 0.5 * (b * p.y + d)
    lb = 0.5 * b * p.x + c * p.y + 0.5 * e
    lc = 0.5 * (d * p.x + e * p.y) + f
    n2 = la * la + lb * lb
    if n2 < 1e-300:
        raise GeometryError("degenerate polar line")
    base = Point(-lc * la / n2, -lc * lb / n2)
    dvec = (-lb / math.sqrt(n2), la / math.sqrt(n2))
    q2 = a * dvec[0] * dvec[0] + b * dvec[0] * dvec[1] + c * dvec[1] * dvec[1]
    gx, gy = conic_gradient(conic, base)
    lin = gx * dvec[0] + gy * dvec[1]
    cst = conic_value(conic, base)
    disc = lin * lin - 4.0 * q2 * cst
    if disc < 0.0:
        raise NoRealTangent(f"polar of {p} misses the conic")
    root = math.sqrt(disc)
    # Numerically stable quadratic roots.
    if lin >= 0.0:
        s1 = (-lin - root) / (2.0 * q2)
    else:
        s1 = (-lin + root) / (2.0 * q2)
    s2 = cst / (q2 * s1) if s1 != 0.0 else (-lin) / (2.0 * q2) + root / (2.0 * q2)
    t1 = Point(base.x + s1 * dvec[0], base.y + s1 * dvec[1])
    t2 = Point(base.x + s2 * dvec[0], base.y + s2 * dvec[1])
    if _contact_sort_key(conic, t1) <= _contact_sort_key(conic, t2):
        return (t1, t2)
    return (t2, t1)


def tangent_lines_from_point(p: Point, conic: Conic) -> Tuple[Line, Line]:
    """Both tangent lines from an exterior point, ordered as their
    contact points (see ``tangent_contact_points``)."""
    t1, t2 = tangent_contact_points(p, conic)
    return (line_from_points(p, t1), line_from_points(p, t2))


def circle_inverse(p: Point, circle: Conic) -> Point:
    """Inverse of p in a circle about O of radius R: O + R^2 / conj(p - O),
    in complex coordinates."""
    if circle.kind != CIRCLE:
        raise GeometryError(f"inversion needs a circle, got {circle.kind!r}")
    o = complex(*circle.center)
    z = complex(*p) - o
    if z == 0.0:
        raise InversionOfCenter("cannot invert the circle center")
    w = o + circle.semi_axes[0] ** 2 / z.conjugate()
    return Point(w.real, w.imag)


def pencil_member(c1: Conic, c2: Conic, u: float) -> Conic:
    """The combination (1-u)*C1 + u*C2 of two conics.

    Before combining, each coefficient vector is rescaled so its
    quadratic trace A + C equals 2.  For circles this reproduces the
    monic representation x^2 + y^2 + ... = 0, which pins down the
    meaning of the parameter u independently of storage normalization.
    """
    if u == 0.0:
        return c1
    if u == 1.0:
        return c2
    q1 = np.asarray(c1.coeffs, dtype=float)
    q2 = np.asarray(c2.coeffs, dtype=float)
    tr1 = q1[0] + q1[2]
    tr2 = q2[0] + q2[2]
    if abs(tr1) > 1e-12 and abs(tr2) > 1e-12:
        q1 = q1 * (2.0 / tr1)
        q2 = q2 * (2.0 / tr2)
    combo = (1.0 - u) * q1 + u * q2
    scale = max(float(np.linalg.norm(q1)), float(np.linalg.norm(q2)))
    if float(np.linalg.norm(combo)) <= 1e-12 * scale:
        raise GeometryError(f"pencil member at u={u} vanishes")
    return classify_conic(combo)


def bic3_radius2(p: BicentricParams) -> Tuple[float, float, float]:
    """(k2, k1, k0): the bicentric pencil circle at u, the monic member
    u * outer + (1 - u) * caustic, is centered at (d(1 - u), 0) with
    squared radius k2 u^2 + k1 u + k0."""
    return p.d * p.d, p.R * p.R - p.d * p.d - p.r * p.r, p.r * p.r


def _bic3_limiting_points(p: BicentricParams) -> Tuple[Point, Point]:
    """The pencil's two point circles, at the roots u of the squared
    radius: the one inside the caustic, then the one outside the outer
    circle.  The roots are real and negative because the caustic lies
    strictly inside the outer circle (so k1 > 0); a concentric pair
    (d = 0) has both at the common center."""
    k2, k1, k0 = bic3_radius2(p)
    if k2 == 0.0:
        return Point(0.0, 0.0), Point(0.0, 0.0)
    # -k1 - root does not cancel; the root nearer 0 is taken as the
    # product k0 / k2 over the other, not by the cancelling difference.
    far = -k1 - math.sqrt(k1 * k1 - 4.0 * k2 * k0)
    return Point(p.d * (1.0 - 2.0 * k0 / far), 0.0), Point(p.d * (1.0 - far / (2.0 * k2)), 0.0)


class MeasuredTriangle(Triangle):
    """A Triangle with its side lengths, area and radii, from the vertex
    distances alone."""

    def side_lengths(self) -> Tuple[float, float, float]:
        """(s1, s2, s3) with s_i the length of the side opposite vertex i."""
        return (
            math.dist(self.p2, self.p3), math.dist(self.p3, self.p1), math.dist(self.p1, self.p2)
        )

    def area(self) -> float:
        (x1, y1), (x2, y2), (x3, y3) = self.p1, self.p2, self.p3
        return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))

    def inradius(self) -> float:
        return 2.0 * self.area() / sum(self.side_lengths())

    def circumradius(self) -> float:
        s1, s2, s3 = self.side_lengths()
        area = self.area()
        if area == 0.0:
            raise DegenerateTriangle("collinear vertices")
        return s1 * s2 * s3 / (4.0 * area)


def contact_triangle(x1, y1, x2, y2, x3, y3):
    """The contact triangle's vertices (u1, v1, u2, v2, u3, v3): vertex i
    is the incircle's touchpoint on the side opposite P_i, at tangent
    length s - s_j from that side's start P_j (s the semiperimeter).

    Elementwise on floats, on float arrays, and on object arrays of
    mpmath numbers, which it evaluates at their working precision.
    """
    s1 = ((x2 - x3) ** 2 + (y2 - y3) ** 2) ** 0.5
    s2 = ((x3 - x1) ** 2 + (y3 - y1) ** 2) ** 0.5
    s3 = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
    s = (s1 + s2 + s3) / 2
    f1, f2, f3 = (s - s2) / s1, (s - s3) / s2, (s - s1) / s3
    return (
        x2 + f1 * (x3 - x2), y2 + f1 * (y3 - y2),
        x3 + f2 * (x1 - x3), y3 + f2 * (y1 - y3),
        x1 + f3 * (x2 - x1), y1 + f3 * (y2 - y1),
    )


def measured(tri: Triangle) -> MeasuredTriangle:
    return MeasuredTriangle(tri.p1, tri.p2, tri.p3, tri.t)


def memberless_chain(params) -> FamilyConfig:
    """The chain family of these parameters, whose u > 1 puts the pencil
    caustic around the outer conic, so that no member exists.
    ``FamilyConfig`` refuses it; this builds it without those checks, for
    the tests of what a trace and the kernels do with missing members."""
    cfg = object.__new__(FamilyConfig)
    kind = "bic-III" if isinstance(params, BicentricParams) else "conf-III"
    for name, value in (("kind", kind), ("params", params), ("branch", DEFAULT_BRANCH)):
        object.__setattr__(cfg, name, value)
    return cfg
