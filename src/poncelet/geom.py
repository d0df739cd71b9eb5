"""Planar conic primitives: implicit forms, pencils, tangents, inversion.

A conic is stored as the coefficient 6-vector ``(A, B, C, D, E, F)`` of

    A x^2 + B x y + C y^2 + D x + E y + F = 0,

scaled to unit Euclidean norm with the first nonzero coefficient kept
positive.  With that normalization a pencil of two conics is a plain
linear combination of 6-vectors and every classification threshold is
scale-free.  For circles and ellipses the sign convention makes the
implicit value positive outside the curve and negative inside.
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
    "DegeneratePencilMember",
    "InversionOfCenter",
    "ComplexLimitingPoints",
    "Point",
    "Line",
    "Conic",
    "ConicClass",
    "CirclePencil",
    "classify_conic",
    "pencil_member",
    "conic_value",
    "conic_gradient",
    "limiting_points",
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

# Tolerances.  The first two apply to unit-norm coefficient vectors,
# so they are scale-free; the last bounds the cross product of two unit
# line normals.
CIRCLE_TOL = 1e-8
DEGENERATE_TOL = 1e-12
_PARALLEL_TOL = 1e-14


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class DegeneratePencilMember(GeometryError):
    """The requested pencil combination cancels to the zero conic."""


class InversionOfCenter(GeometryError):
    """Circle inversion was requested at the circle's own center."""


class ComplexLimitingPoints(GeometryError):
    """The circles of a pencil intersect; limiting points are complex."""


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

    def direction(self) -> Tuple[float, float]:
        return (-self.b, self.a)


# ---------------------------------------------------------------------------
# Elementwise kernels.  Each takes floats or equally shaped numpy arrays
# and returns its values together with a validity mask; values where the
# mask is false are meaningless.  The scalar functions of this package
# evaluate the same kernels on single floats and raise where the mask is
# false, so an array evaluation marks a sample invalid exactly when the
# scalar function raises for it.  The few non-arithmetic primitives below
# take math's path on floats, for speed, and numpy's on arrays; both give
# the same bits.  Squares are written as products: ``x ** 2`` calls libm
# pow on a float but multiplies on an array, which can differ in the last
# bit.


def quiet_fp() -> np.errstate:
    """Floating-point state for kernels on arrays, whose masked-out samples
    may hold meaningless values that overflow."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _elementwise(on_float, on_array):
    def primitive(x, *rest):
        return on_array(x, *rest) if isinstance(x, np.ndarray) else on_float(x, *rest)

    return primitive


_cos = _elementwise(math.cos, np.cos)
_sin = _elementwise(math.sin, np.sin)
_sqrt = _elementwise(math.sqrt, np.sqrt)
# numpy's hypot on floats too: math.hypot rounds differently.
_hypot = _elementwise(lambda x, y: float(np.hypot(x, y)), np.hypot)
_max3 = _elementwise(max, lambda a, b, c: np.maximum(np.maximum(a, b), c))
_where = _elementwise(lambda cond, a, b: a if cond else b, np.where)


def _nonzero(x):
    """x with exact zeros replaced by 1, so that a kernel can divide by it
    at a masked-out sample without a warning or, on floats, an exception."""
    return x + (x == 0.0)


def _unless(ok, flag: int):
    """``flag`` where ok is false and 0 where it is true, elementwise."""
    return flag * (1 - ok)


def _line_through(px, py, qx, qy):
    """(a, b, c, ok) of the line p->q with unit left normal (a, b);
    ok is false where p and q coincide."""
    dx = qx - px
    dy = qy - py
    n = _hypot(dx, dy)
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


class ConicClass(NamedTuple):
    kind: str
    center: Optional[Point]
    semi_axes: Optional[Tuple[float, float]]  # (major, minor)
    axis_angle: Optional[float]  # direction of the major axis, in [0, pi)


def _conic_center(coeffs: Sequence[float]) -> Optional[Point]:
    a, b, c, d, e, _ = coeffs
    det = 4.0 * a * c - b * b
    if abs(det) < 1e-300:
        return None
    cx = (-2.0 * c * d + b * e) / det
    cy = (-2.0 * a * e + b * d) / det
    return Point(cx, cy)


def classify_conic(conic: "Conic | Sequence[float]") -> ConicClass:
    """Classify a conic from its (normalized) coefficient vector.

    Returns kind plus center / semi-axes / major-axis angle where they
    exist.  The result is invariant under rescaling of the input since
    coefficients are re-normalized first.
    """
    coeffs = conic.coeffs if isinstance(conic, Conic) else _unit_coeffs(conic)
    a, b, c, d, e, f = coeffs
    m3 = np.array(
        [[a, b / 2.0, d / 2.0], [b / 2.0, c, e / 2.0], [d / 2.0, e / 2.0, f]]
    )
    det3 = float(np.linalg.det(m3))
    disc = b * b - 4.0 * a * c
    center = _conic_center(coeffs)

    if abs(det3) <= DEGENERATE_TOL:
        if disc < -DEGENERATE_TOL and center is not None:
            return ConicClass(POINT, center, (0.0, 0.0), 0.0)
        return ConicClass(DEGENERATE, center, None, None)

    if disc < -DEGENERATE_TOL:
        assert center is not None
        v0 = f + 0.5 * (d * center.x + e * center.y)
        if v0 >= 0.0:
            # No real points (the "imaginary ellipse" branch).
            return ConicClass(DEGENERATE, center, None, None)
        if abs(a - c) <= CIRCLE_TOL and abs(b) <= CIRCLE_TOL:
            radius = math.sqrt(-v0 / (0.5 * (a + c)))
            return ConicClass(CIRCLE, center, (radius, radius), 0.0)
        m2 = np.array([[a, b / 2.0], [b / 2.0, c]])
        eigvals, eigvecs = np.linalg.eigh(m2)
        major = math.sqrt(-v0 / eigvals[0])
        minor = math.sqrt(-v0 / eigvals[1])
        angle = math.atan2(eigvecs[1, 0], eigvecs[0, 0]) % math.pi
        return ConicClass(ELLIPSE, center, (major, minor), angle)

    if disc > DEGENERATE_TOL:
        return ConicClass(HYPERBOLA, center, None, None)
    return ConicClass(PARABOLA, None, None, None)


@dataclass(frozen=True)
class Conic:
    """Immutable conic with normalized coefficients and classification."""

    coeffs: Tuple[float, float, float, float, float, float]
    kind: str
    center: Optional[Point]
    semi_axes: Optional[Tuple[float, float]]
    axis_angle: Optional[float]

    @classmethod
    def from_coeffs(cls, values: Sequence[float]) -> "Conic":
        coeffs = _unit_coeffs(values)
        info = classify_conic(coeffs)
        return cls(coeffs, info.kind, info.center, info.semi_axes, info.axis_angle)

    @classmethod
    def circle(cls, center: Point, radius: float) -> "Conic":
        if radius < 0.0:
            raise GeometryError("negative radius")
        cx, cy = center
        return cls.from_coeffs(
            [1.0, 0.0, 1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - radius * radius]
        )

    @classmethod
    def axis_ellipse(cls, center: Point, rx: float, ry: float) -> "Conic":
        """Axis-parallel ellipse with semi-axis rx along x and ry along y."""
        if rx <= 0.0 or ry <= 0.0:
            raise GeometryError("semi-axes must be positive")
        cx, cy = center
        ax = 1.0 / (rx * rx)
        cy2 = 1.0 / (ry * ry)
        return cls.from_coeffs(
            [ax, 0.0, cy2, -2.0 * ax * cx, -2.0 * cy2 * cy, ax * cx * cx + cy2 * cy * cy - 1.0]
        )


def conic_value(conic: Conic, p: Point) -> float:
    a, b, c, d, e, f = conic.coeffs
    x, y = p
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def conic_gradient(conic: Conic, p: Point) -> Tuple[float, float]:
    a, b, c, d, e, _ = conic.coeffs
    x, y = p
    return (2.0 * a * x + b * y + d, b * x + 2.0 * c * y + e)


def pencil_member(c1: Conic, c2: Conic, u: float) -> Conic:
    """Normalized combination (1-u)*C1 + u*C2 of two conics.

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
        raise DegeneratePencilMember(f"pencil member at u={u} vanishes")
    return Conic.from_coeffs(combo)


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


def _monic_circle(conic: Conic) -> Tuple[float, float, float]:
    """(D, E, F) of x^2 + y^2 + D x + E y + F = 0 for a circle conic."""
    a, _, _, d, e, f = conic.coeffs
    return (d / a, e / a, f / a)


@dataclass(frozen=True)
class CirclePencil:
    """The linear family spanned by two circles."""

    c1: Conic
    c2: Conic

    def __post_init__(self) -> None:
        for member in (self.c1, self.c2):
            if member.kind != CIRCLE:
                raise GeometryError("pencil members must be circles")

    def member(self, u: float) -> Conic:
        return pencil_member(self.c1, self.c2, u)


def limiting_points(pencil: CirclePencil) -> Tuple[Point, Point]:
    """The two zero-radius members of a circle pencil.

    For concentric circles both limiting points coincide with the
    common center.  Intersecting circles have no real limiting points
    and raise ComplexLimitingPoints.  The result is invariant under
    swapping the pencil's two circles (points are sorted by x, then y).
    """
    o1 = pencil.c1.center
    o2 = pencil.c2.center
    assert o1 is not None and o2 is not None
    _, _, f1 = _monic_circle(pencil.c1)
    _, _, f2 = _monic_circle(pencil.c2)
    vx = o2.x - o1.x
    vy = o2.y - o1.y
    sep2 = vx * vx + vy * vy
    scale = abs(pencil.c1.semi_axes[0]) + abs(pencil.c2.semi_axes[0]) + math.hypot(o1.x, o1.y)
    if sep2 <= (1e-14 * max(scale, 1e-300)) ** 2:
        return (o1, o1)
    # radius^2 along the pencil: |(1-u) O1 + u O2|^2 - ((1-u) F1 + u F2)
    alpha = sep2
    beta = 2.0 * (o1.x * vx + o1.y * vy) - (f2 - f1)
    gamma = o1.x * o1.x + o1.y * o1.y - f1
    disc = beta * beta - 4.0 * alpha * gamma
    if disc < 0.0:
        raise ComplexLimitingPoints("circles intersect; limiting points are complex")
    root = math.sqrt(disc)
    u_lo = (-beta - root) / (2.0 * alpha)
    u_hi = (-beta + root) / (2.0 * alpha)
    pts = [
        Point(o1.x + u * vx, o1.y + u * vy)
        for u in (u_lo, u_hi)
    ]
    pts.sort()
    return (pts[0], pts[1])


def line_tangent_to_conic_residual(line: Line, conic: Conic) -> float:
    """Signed tangency defect of a line against a conic.

    For circles, ellipses, and point conics this is the support
    function minus the center distance, a length: zero means tangent,
    positive means the line cuts the conic, negative means it misses.
    Other kinds fall back to the normalized discriminant of the
    restriction of the conic to the line (same sign convention).
    Elementwise for a Line of arrays.
    """
    if conic.kind in (CIRCLE, ELLIPSE, POINT):
        assert conic.center is not None and conic.semi_axes is not None
        c0 = line.signed_distance(conic.center)
        if conic.kind == CIRCLE:
            support = conic.semi_axes[0]
        elif conic.kind == POINT:
            support = 0.0
        else:
            phi = conic.axis_angle or 0.0
            nmaj = line.a * math.cos(phi) + line.b * math.sin(phi)
            nmin = -line.a * math.sin(phi) + line.b * math.cos(phi)
            major, minor = conic.semi_axes
            u = major * nmaj
            v = minor * nmin
            support = _sqrt(u * u + v * v)
        return support - abs(c0)
    # Fallback: discriminant of the quadratic along the line.
    dvec = line.direction()
    base = Point(-line.c * line.a, -line.c * line.b)
    a, b, c, _, _, _ = conic.coeffs
    q2 = a * dvec[0] * dvec[0] + b * dvec[0] * dvec[1] + c * dvec[1] * dvec[1]
    gx, gy = conic_gradient(conic, base)
    lin = gx * dvec[0] + gy * dvec[1]
    cst = conic_value(conic, base)
    disc = lin * lin - 4.0 * q2 * cst
    denom = q2 * q2 + lin * lin + cst * cst
    return disc / _nonzero(denom)  # disc itself where denom is 0
