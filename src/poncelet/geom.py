"""Planar conic primitives: implicit forms, pencils, tangents, inversion.

A conic is stored as the coefficient 6-vector ``(A, B, C, D, E, F)`` of

    A x^2 + B x y + C y^2 + D x + E y + F = 0,

scaled to unit Euclidean norm with the first nonzero coefficient kept
positive, together with its classification (``classify_conic`` builds
both from coefficients; ``Conic.circle`` and ``Conic.axis_ellipse`` take
the classification from the shape they are given).  With that normalization a pencil of two conics is a plain linear
combination of 6-vectors.  Each classification threshold is relative to
the size of the quantity it bounds, so a conic's kind does not depend on
the length unit of the frame.  For circles and ellipses the sign
convention makes the implicit value positive outside the curve and
negative inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "POINT",
    "CIRCLE",
    "ELLIPSE",
    "HYPERBOLA",
    "PARABOLA",
    "DEGENERATE",
    "CIRCLE_TOL",
    "DEGENERATE_TOL",
    "GeometryError",
    "InversionOfCenter",
    "Point",
    "Line",
    "Conic",
    "classify_conic",
    "line_tangent_to_conic_residual",
    "conic_span_residual",
]

# Classification tags.
POINT = "point"
CIRCLE = "circle"
ELLIPSE = "ellipse"
HYPERBOLA = "hyperbola"
PARABOLA = "parabola"
DEGENERATE = "degenerate"

# Tolerances.  The first two are relative: CIRCLE_TOL bounds the
# quadratic part's departure from a multiple of x^2 + y^2, and
# DEGENERATE_TOL a determinant or discriminant, each against the size of
# its own terms (see classify_conic).  The last bounds the cross product
# of two unit line normals.
CIRCLE_TOL = 1e-8
DEGENERATE_TOL = 1e-12
_PARALLEL_TOL = 1e-14


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class InversionOfCenter(GeometryError):
    """Circle inversion was requested at the circle's own center."""


class Point(NamedTuple):
    x: float
    y: float


class Line(NamedTuple):
    """Oriented line ``a*x + b*y + c = 0`` with unit normal (a, b); the
    coefficients may be equally shaped arrays, one line per element."""

    a: float
    b: float
    c: float

    def signed_distance(self, p: Point) -> float:
        return self.a * p[0] + self.b * p[1] + self.c


# ---------------------------------------------------------------------------
# Elementwise kernels.  Each takes equally shaped numpy arrays and returns
# its values together with a validity mask; values where the mask is
# false are meaningless.  The one-triangle calls of this package run the
# same kernels on one-element arrays and raise where the mask is false,
# so an array evaluation marks a sample invalid exactly when the
# one-triangle call raises for it.


def quiet_fp() -> np.errstate:
    """Floating-point state for kernels on arrays, whose masked-out samples
    may hold meaningless values that overflow."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _nonzero(x):
    """x with exact zeros replaced by 1, so that a kernel can divide by it
    at a masked-out sample without a warning."""
    return x + (x == 0.0)


def _unless(ok, flag: int):
    """``flag`` where ok is false and 0 where it is true, elementwise."""
    return flag * (1 - ok)


def _line_through(px, py, qx, qy):
    """(a, b, c, ok) of the line p->q with unit left normal (a, b);
    ok is false where p and q coincide."""
    dx = qx - px
    dy = qy - py
    n = np.hypot(dx, dy)
    a = -dy / _nonzero(n)
    b = dx / _nonzero(n)
    return a, b, -(a * px + b * py), n != 0.0


def _meet(a1, b1, c1, a2, b2, c2):
    """(x, y, ok): intersection of two unit-normal lines; ok is false where
    they are (nearly) parallel."""
    det = a1 * b2 - a2 * b1
    x = (-c1 * b2 + c2 * b1) / _nonzero(det)
    y = (-a1 * c2 + a2 * c1) / _nonzero(det)
    return x, y, abs(det) > _PARALLEL_TOL


def _invert(px, py, ox, oy, radius):
    """(x, y, ok): inverse of p in the circle about (ox, oy),
    O + R^2 (p - O) / |p - O|^2; ok is false at the center itself."""
    dx = px - ox
    dy = py - oy
    rho2 = dx * dx + dy * dy
    k = radius * radius / _nonzero(rho2)
    return ox + k * dx, oy + k * dy, rho2 != 0.0


def _unit_coeffs(values: Sequence[float]) -> Tuple[float, ...]:
    v = np.asarray(values, dtype=float)
    if v.shape != (6,):
        raise GeometryError("conic needs exactly 6 coefficients")
    if not np.all(np.isfinite(v)):
        raise GeometryError("non-finite conic coefficients")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise GeometryError("zero conic")
    v = v / norm
    for entry in v:
        if entry != 0.0:
            if entry < 0.0:
                v = -v
            break
    return tuple(float(t) for t in v)


def _conic_center(coeffs: Sequence[float]) -> Optional[Point]:
    a, b, c, d, e, _ = coeffs
    det = 4.0 * a * c - b * b
    if abs(det) < 1e-300:
        return None
    cx = (-2.0 * c * d + b * e) / det
    cy = (-2.0 * a * e + b * d) / det
    return Point(cx, cy)


@dataclass(frozen=True)
class Conic:
    """A conic's unit coefficient vector and its classification: kind,
    and where they exist center, semi-axes (major, minor) and the
    direction of the major axis in [0, pi).  Built by ``classify_conic``,
    or from its shape by ``circle`` and ``axis_ellipse``."""

    coeffs: Tuple[float, float, float, float, float, float]
    kind: str
    center: Optional[Point]
    semi_axes: Optional[Tuple[float, float]]
    axis_angle: Optional[float]

    @classmethod
    def circle(cls, center: Point, radius: float) -> "Conic":
        """The circle of this center and radius; a zero radius gives the
        point conic at the center."""
        if radius < 0.0:
            raise GeometryError("negative radius")
        cx, cy = center
        coeffs = _unit_coeffs(
            [1.0, 0.0, 1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - radius * radius]
        )
        kind = POINT if radius == 0.0 else CIRCLE
        return cls(coeffs, kind, Point(cx, cy), (radius, radius), 0.0)

    @classmethod
    def axis_ellipse(cls, center: Point, rx: float, ry: float) -> "Conic":
        """Axis-parallel ellipse with semi-axis rx along x and ry along y;
        equal semi-axes give a circle."""
        if rx <= 0.0 or ry <= 0.0:
            raise GeometryError("semi-axes must be positive")
        cx, cy = center
        ax = 1.0 / (rx * rx)
        cy2 = 1.0 / (ry * ry)
        coeffs = _unit_coeffs(
            [ax, 0.0, cy2, -2.0 * ax * cx, -2.0 * cy2 * cy, ax * cx * cx + cy2 * cy * cy - 1.0]
        )
        kind = CIRCLE if rx == ry else ELLIPSE
        angle = math.pi / 2.0 if ry > rx else 0.0
        return cls(coeffs, kind, Point(cx, cy), (max(rx, ry), min(rx, ry)), angle)


def classify_conic(values: Sequence[float]) -> Conic:
    """The conic of a coefficient 6-vector of any nonzero scale: the
    vector at unit norm, and the kind, center, axes and angle computed
    from it."""
    coeffs = _unit_coeffs(values)
    a, b, c, d, e, f = coeffs
    m3 = np.array(
        [[a, b / 2.0, d / 2.0], [b / 2.0, c, e / 2.0], [d / 2.0, e / 2.0, f]]
    )
    det3 = float(np.linalg.det(m3))
    disc = b * b - 4.0 * a * c
    center = _conic_center(coeffs)
    # det3 and disc are each tested against the sum of the magnitudes of
    # their own terms.  The terms of one scale alike under a change of
    # length unit (A, B, C as 1/L^2, D, E as 1/L), so unlike a threshold
    # on the unit vector's entries the test does not depend on the unit.
    h, g, k = b / 2.0, d / 2.0, e / 2.0
    det3_size = (abs(a * c * f) + abs(2.0 * h * k * g)
                 + abs(a) * k * k + abs(c) * g * g + abs(f) * h * h)
    disc_size = b * b + abs(4.0 * a * c)
    elliptic = disc < -DEGENERATE_TOL * disc_size

    if abs(det3) <= DEGENERATE_TOL * det3_size:
        if elliptic and center is not None:
            return Conic(coeffs, POINT, center, (0.0, 0.0), 0.0)
        return Conic(coeffs, DEGENERATE, center, None, None)

    if elliptic:
        assert center is not None
        v0 = f + 0.5 * (d * center.x + e * center.y)
        if v0 >= 0.0:
            # No real points (the "imaginary ellipse" branch).
            return Conic(coeffs, DEGENERATE, center, None, None)
        # a and c share their sign here, so a + c is the quadratic part's size.
        if max(abs(a - c), abs(b)) <= CIRCLE_TOL * abs(a + c):
            radius = math.sqrt(-v0 / (0.5 * (a + c)))
            return Conic(coeffs, CIRCLE, center, (radius, radius), 0.0)
        m2 = np.array([[a, b / 2.0], [b / 2.0, c]])
        eigvals, eigvecs = np.linalg.eigh(m2)
        major = math.sqrt(-v0 / eigvals[0])
        minor = math.sqrt(-v0 / eigvals[1])
        angle = math.atan2(eigvecs[1, 0], eigvecs[0, 0]) % math.pi
        return Conic(coeffs, ELLIPSE, center, (major, minor), angle)

    if disc > DEGENERATE_TOL * disc_size:
        return Conic(coeffs, HYPERBOLA, center, None, None)
    return Conic(coeffs, PARABOLA, None, None, None)


def conic_span_residual(target: Conic, c1: Conic, c2: Conic) -> float:
    """Distance from the target's unit 6-vector to span{C1, C2}.

    Zero means the target lies in the pencil of C1 and C2 (as a linear
    family of coefficient vectors); values near 1 mean it is far away.
    """
    basis = np.stack([np.asarray(c1.coeffs), np.asarray(c2.coeffs)], axis=1)
    q, _ = np.linalg.qr(basis)
    t = np.asarray(target.coeffs)
    proj = q @ (q.T @ t)
    return float(np.linalg.norm(t - proj))


def line_tangent_to_conic_residual(line: Line, conic: Conic) -> float:
    """Signed tangency defect of a line against a circle, an ellipse or
    a point conic: the support function minus the center distance, a
    length.  Zero means tangent, positive means the line cuts the conic,
    negative means it misses.  Elementwise for a Line of arrays; any
    other kind raises GeometryError.
    """
    if conic.kind not in (CIRCLE, ELLIPSE, POINT):
        raise GeometryError(f"tangency residual undefined for kind {conic.kind!r}")
    assert conic.center is not None and conic.semi_axes is not None
    c0 = line.signed_distance(conic.center)
    if conic.kind == CIRCLE:
        support = conic.semi_axes[0]
    elif conic.kind == POINT:
        support = 0.0
    else:
        phi = conic.axis_angle
        nmaj = line.a * math.cos(phi) + line.b * math.sin(phi)
        nmin = -line.a * math.sin(phi) + line.b * math.cos(phi)
        major, minor = conic.semi_axes
        u = major * nmaj
        v = minor * nmin
        support = np.sqrt(u * u + v * v)
    return support - abs(c0)
