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

The kinds come from two choices: the porism (bicentric circles,
``BicentricParams``, or confocal ellipses, ``ConfocalParams``) and
whether both constructed sides touch one caustic (a pair) or the
second touches a pencil caustic (a chain).  ``FAMILY_SPECS`` describes
each kind once; ``FamilyConfig`` reads it.

Every family builds its vertices with one chord map, ``_chord``.  Both
porisms live in one canonical frame: the outer conic is an axis-parallel
ellipse (A, B) at the origin (a circle for the bicentric porism), and
each caustic is an axis-parallel ellipse (p, q) centered at (c, 0): a
circle (p = q) for the bicentric porism, and c = 0 for the confocal
caustic and conf-III's second caustic, a member of the pencil of two
concentric axis-parallel ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional, Tuple

import numpy as np

from .geom import (
    Conic,
    GeometryError,
    Point,
    _line_through,
    _meet,
    quiet_fp,
)

__all__ = [
    "NoPoristicPair",
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
    "FamilySpec",
    "FamilyConfig",
    "FAMILY_SPECS",
    "chapple_distance",
    "degenerate_envelope_inradius",
    "confocal_delta",
    "critical_lambda",
    "bic2_envelope",
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


class VertexInsideCaustic(GeometryError):
    """A chord step was requested from a point without real tangents."""


class ImaginaryPencilCircle(GeometryError):
    """The requested pencil circle has negative squared radius."""


class DegenerateTriangle(GeometryError):
    """Triangle with (numerically) collinear or coincident vertices."""


# Relative area below which a triangle is collinear: its area is at most
# _DEGENERATE_AREA times its longest side squared.  TriangleBatch.fault
# holds the flag _DEGENERATE there, 0 elsewhere.
_DEGENERATE_AREA = 1e-14
_DEGENERATE = 1


PLUS = "plus"
MINUS = "minus"


class TangentBranch(NamedTuple):
    """Which tangent to take at each constructed side of a chain triangle.

    Both components select the sign of the square root in the chord
    map ``_chord`` (equivalently, which of the two tangents from the moving
    vertex).  The labels are continuous along a full sweep of t.  A pair
    takes both tangents from P1, so a branch could only swap P2 and P3:
    it takes the default branch only.
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


# ---------------------------------------------------------------------------
# The two porisms.  Each parameter class gives its outer shape (A, B) and
# the (p, q, c) of either caustic; ``_chord`` builds every member from them.


def _require_finite(params: Any) -> None:
    """Raise ValueError naming the first field that is NaN or infinite;
    an optional field left at None is not checked."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


# The outer scale (R or a) must be of order 1e-30 to 1e30, its log10
# rounding into [-30, 30]: there the center kernels' terms of degree 9
# in the lengths (X59's weight, of degree 8, times a coordinate) stay
# normal floats.  The chord map's terms are of degree 2 at most.
_SCALE_DECADES = 30.5


def _require_scale(name: str, value: float) -> None:
    """Raise ValueError unless the positive outer scale is of order 1e-30 to 1e30."""
    if not abs(math.log10(value)) <= _SCALE_DECADES:
        raise ValueError(f"{name} must be of order 1e-30 to 1e30, got {value}")


def _require_axes(a: float, b: float) -> None:
    """Raise ValueError unless a > b > 0 with a of order 1e-30 to 1e30."""
    if not a > b > 0.0:
        raise ValueError("need a > b > 0")
    _require_scale("a", a)


def _ellipse(p: float, q: float, c: float) -> Conic:
    """The axis-parallel ellipse with semi-axes (p, q) centered at (c, 0),
    a circle where p == q."""
    if p == q:
        return Conic.circle(Point(c, 0.0), p)
    return Conic.axis_ellipse(Point(c, 0.0), p, q)


class _Conics:
    """The conics of a parameter class, from its shapes."""

    def outer_conic(self) -> Conic:
        return _ellipse(*self.outer_shape(), 0.0)

    def caustic(self) -> Conic:
        return _ellipse(*self.caustic_shape())

    def pencil_caustic(self) -> Conic:
        return _ellipse(*self.pencil_shape())

    def envelope_member(self, w: float) -> Conic:
        """The pencil member at w that real lines touch: ``pencil_caustic``
        at u = w, or the point it shrinks to where its squared size rounds
        into (-1e-9 ((1 + |w|) L)^2, 0], L the outer's major semi-axis, as
        at a collapse (no real line touches an imaginary member)."""
        size2, cx = self._pencil_size2(w)
        if -1e-9 * ((1.0 + abs(w)) * self.outer_shape()[0]) ** 2 < size2 <= 0.0:
            return Conic.circle(Point(cx, 0.0), 0.0)
        return replace(self, u=w).pencil_caustic()


@dataclass(frozen=True)
class BicentricParams(_Conics):
    """Outer circle radius R at the origin, caustic radius r at (d, 0).

    ``u`` selects the second caustic of the three-caustic family as the
    pencil coordinate between the first caustic (u=0) and the outer
    circle (u=1); it must be a real circle.
    """

    R: float
    r: float
    d: float
    u: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.R > 0.0 and self.r > 0.0):
            raise ValueError("radii must be positive")
        _require_scale("R", self.R)
        if self.d < 0.0:
            raise ValueError("center offset must be nonnegative")
        if self.r + self.d >= self.R:
            raise ValueError("caustic must be strictly inside the outer circle")
        if self.u is not None:
            self.pencil_shape()  # raises where the pencil circle is imaginary

    def outer_shape(self) -> Tuple[float, float]:
        return (self.R, self.R)

    def caustic_shape(self) -> Tuple[float, float, float]:
        """(p, q, c) of the caustic: radius twice, center offset."""
        return (self.r, self.r, self.d)

    def pencil_shape(self) -> Tuple[float, float, float]:
        """(p, q, c) of the pencil circle at u: radius
        sqrt(d^2 u^2 + (R^2-d^2-r^2) u + r^2) twice, center offset d(1-u);
        raises if it is imaginary."""
        u = self.u
        if u is None:
            raise ValueError("three-caustic family needs the pencil parameter u")
        radicand, cx = self._pencil_size2(u)
        if radicand <= 0.0:
            raise ImaginaryPencilCircle(f"pencil circle at u={u} is imaginary")
        radius = math.sqrt(radicand)
        return (radius, radius, cx)

    def _pencil_size2(self, u: float) -> Tuple[float, float]:
        """The pencil circle's squared radius and center offset at u."""
        k2, k1, k0 = _bic3_radius2(self)
        return k2 * u * u + k1 * u + k0, self.d * (1.0 - u)

    def pencil_tangency(self, a: Any, b: Any, c: Any) -> Tuple[Any, Any, Any]:
        """(A, B, C): the line a x + b y + c = 0, with unit normal, touches
        the pencil circle at w where A w^2 + B w + C = 0, that is where
        (a d (1 - w) + c)^2 = k2 w^2 + k1 w + k0; elementwise."""
        k2, k1, k0 = _bic3_radius2(self)
        s = a * self.d
        return s * s - k2, -2.0 * s * (s + c) - k1, (s + c) ** 2 - k0


@dataclass(frozen=True)
class ConfocalParams(_Conics):
    """Outer ellipse semi-axes (a, b) with a > b, caustic parameter lam.

    The confocal caustic has semi-axes (sqrt(a^2-lam), sqrt(b^2-lam)),
    so lam must lie in [0, b^2) with sqrt(b^2-lam) < b in floats: at lam = 0
    every vertex lies on the caustic.  ``u`` selects the second caustic of
    the three-caustic family, an ellipse, inside the pencil spanned by
    the outer ellipse and the confocal caustic (u=0 caustic, u=1 outer).
    """

    a: float
    b: float
    lam: float
    u: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_axes(self.a, self.b)
        if not (0.0 <= self.lam < self.b * self.b):
            raise ValueError("lam must lie in [0, b^2)")
        if not self.caustic_shape()[1] < self.b:
            raise ValueError("caustic must be strictly inside the outer ellipse")
        if self.u is not None:
            self.pencil_shape()  # raises where the pencil caustic is no ellipse

    @property
    def c2(self) -> float:
        return self.a * self.a - self.b * self.b

    def outer_shape(self) -> Tuple[float, float]:
        return (self.a, self.b)

    def caustic_shape(self) -> Tuple[float, float, float]:
        """(p, q, c) of the confocal caustic: its semi-axes, center offset 0."""
        return (
            math.sqrt(self.a * self.a - self.lam),
            math.sqrt(self.b * self.b - self.lam),
            0.0,
        )

    def pencil_shape(self) -> Tuple[float, float, float]:
        """(p, q, c) of the pencil caustic at u: concentric and axis-parallel,
        so c = 0.  Raises if it is not an ellipse.
        """
        u = self.u
        if u is None:
            raise ValueError("three-caustic family needs the pencil parameter u")
        qx, qy, k = self._pencil_terms(u)
        # The member is qx x^2 + qy y^2 = k.
        if qx * k <= 0.0 or qy * k <= 0.0:
            raise ImaginaryPencilCircle(f"pencil caustic at u={u} is not an ellipse")
        return (math.sqrt(k / qx), math.sqrt(k / qy), 0.0)

    def _pencil_terms(self, u: float) -> Tuple[float, float, float]:
        """(qx, qy, k) of the pencil member qx x^2 + qy y^2 = k at u:
        u * outer + (1 - u) * caustic, each x^2/ex^2 + y^2/ey^2 - 1 = 0 first
        scaled to quadratic trace 2 (for circles, the monic form
        x^2 + y^2 + ... = 0)."""
        ca, cb, _ = self.caustic_shape()
        qx = qy = k = 0.0
        for weight, ex, ey in ((u, self.a, self.b), (1.0 - u, ca, cb)):
            ix = 1.0 / (ex * ex)
            iy = 1.0 / (ey * ey)
            w = 2.0 * weight / (ix + iy)
            qx += w * ix
            qy += w * iy
            k += w
        return qx, qy, k

    def pencil_tangency(self, a: Any, b: Any, c: Any) -> Tuple[Any, Any, Any]:
        """(A, B, C): the line a x + b y + c = 0 touches the pencil caustic
        qx x^2 + qy y^2 = k at w where A w^2 + B w + C = 0, that is where
        c^2 qx qy = k (a^2 qy + b^2 qx); elementwise.  (qx, qy, k) is
        linear in w, from its value at w = 0 by its change to w = 1."""
        x0, y0, k0 = self._pencil_terms(0.0)
        x1, y1, k1 = (one - zero for one, zero in zip(self._pencil_terms(1.0), (x0, y0, k0)))
        m0, m1, c2 = a * a * y0 + b * b * x0, a * a * y1 + b * b * x1, c * c
        return k1 * m1 - c2 * x1 * y1, k0 * m1 + k1 * m0 - c2 * (x0 * y1 + x1 * y0), k0 * m0 - c2 * x0 * y0

    def _pencil_size2(self, u: float) -> Tuple[float, float]:
        """k of the pencil member qx x^2 + qy y^2 = k at u (inf where qx or
        qy is not positive, so that no point stands for it) and center offset 0."""
        qx, qy, k = self._pencil_terms(u)
        return (k if min(qx, qy) > 0.0 else math.inf), 0.0


def _chord(outer: Tuple[float, float], caustic: Tuple[float, float, float], x1: Any, y1: Any, sign: float):
    """(x2, y2, ok): the second meet with the outer conic (A, B) of a
    tangent from its point (x1, y1) to the caustic (p, q, c), elementwise.

    Where the caustic is the unit circle, the vertex is (X, Y) =
    ((x1 - c)/p, y1/q) and its contact points are (X + delta Y,
    Y - delta X)/rho^2, rho^2 = X^2 + Y^2, delta = +-sqrt(rho^2 - 1).
    ``sign`` 1 takes delta > 0, whose contact lies left of the ray from
    the vertex to the caustic's center, and -1 the other, continuously
    in the vertex.  The chord's direction v maps back
    (Y - delta X, -X - delta Y), rho^2/delta times the segment to the
    contact but free of its cancellation; the meet is P1 + s v with
    s = -2 P1'Mv / v'Mv, M = diag(1/A^2, 1/B^2).  ok is delta^2 > 0; the
    root is taken of |delta^2|, so a vertex on or inside the caustic gets
    a finite, meaningless image.
    """
    A, B = outer
    p, q, c = caustic
    X = (x1 - c) / p
    Y = y1 / q
    delta2 = X * X + Y * Y - 1.0
    delta = sign * np.sqrt(abs(delta2))
    vx = p * (Y - delta * X)
    vy = -q * (X + delta * Y)
    mx = vx / (A * A)
    my = vy / (B * B)
    s = -2.0 * (x1 * mx + y1 * my) / (vx * mx + vy * my)
    return x1 + s * vx, y1 + s * vy, delta2 > 0.0


@dataclass(frozen=True)
class Triangle:
    """One family member: vertices and the driving angle."""

    p1: Point
    p2: Point
    p3: Point
    t: float

    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)


class _TriangleFields(NamedTuple):
    x1: Any
    y1: Any
    x2: Any
    y2: Any
    x3: Any
    y3: Any
    ok: Any
    s1: Any
    s2: Any
    s3: Any
    q1: Any
    q2: Any
    q3: Any
    area: Any
    fault: Any


class TriangleBatch(_TriangleFields):
    """Family members at many angles t, as arrays of the shape of t.

    ``ok`` is false where a chord step found no real tangent; the values
    there are meaningless.  s_i is the side length opposite P_i, q_i its
    square s_i * s_i, and ``fault`` the collinearity flag
    (``_DEGENERATE``, 0 for a proper triangle), which every center kernel
    reads.  Build one with ``TriangleBatch.of``.

    ``incenter``, ``circumcenter``, ``circumradius`` and ``cosines`` are
    not fields: the batch computes each once, on first use, and keeps it
    read-only, so the center kernels that compose them share one
    evaluation.  A batch from ``_make`` or ``_replace`` starts with none
    of them.
    """

    @classmethod
    def of(cls, x1: Any, y1: Any, x2: Any, y2: Any, x3: Any, y3: Any, ok: Any) -> "TriangleBatch":
        """The batch of the triangles with these vertex coordinates and mask."""
        with quiet_fp():
            s1 = np.hypot(x2 - x3, y2 - y3)
            s2 = np.hypot(x3 - x1, y3 - y1)
            s3 = np.hypot(x1 - x2, y1 - y2)
            q1 = s1 * s1
            q2 = s2 * s2
            q3 = s3 * s3
            area = 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
            longest = np.maximum(np.maximum(s1, s2), s3)
            collinear = (longest == 0.0) | (area <= _DEGENERATE_AREA * longest * longest)
        return cls(x1, y1, x2, y2, x3, y3, ok, s1, s2, s3, q1, q2, q3, area, _DEGENERATE * collinear)

    # The formulas are the center layer's (``centers``, which imports
    # this module, so each is imported on first use).

    @cached_property
    def incenter(self) -> Tuple[Any, Any, Any]:
        """X1 as (x, y, fault flags), by ``centers._incenter``."""
        from .centers import _incenter

        return _read_only(_incenter, self)

    @cached_property
    def circumcenter(self) -> Tuple[Any, Any, Any]:
        """X3 as (x, y, fault flags), by ``centers._circumcenter``."""
        from .centers import _circumcenter

        return _read_only(_circumcenter, self)

    @cached_property
    def circumradius(self) -> Any:
        """s1 s2 s3 / 4K, by ``centers._circumradius``."""
        from .centers import _circumradius

        return _read_only(_circumradius, self)

    @cached_property
    def cosines(self) -> Tuple[Any, Any, Any]:
        """(cos A, cos B, cos C), A the angle at P1, by ``centers._cosines``."""
        from .centers import _cosines

        return _read_only(_cosines, self)


def _read_only(f: Callable[[TriangleBatch], Any], t: TriangleBatch) -> Any:
    """f(t), an array or a tuple of arrays, evaluated in ``quiet_fp``,
    with each of its arrays made read-only."""
    with quiet_fp():
        values = f(t)
    for v in values if isinstance(values, tuple) else (values,):
        v.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# Scalar relations between the fixed conics of each family.


def chapple_distance(R: float, r: float) -> float:
    """Center offset d with d^2 = R(R - 2r), the poristic closure condition."""
    if R < 2.0 * r:
        raise NoPoristicPair(f"need R >= 2r, got R={R}, r={r}")
    return math.sqrt(R * (R - 2.0 * r))


def degenerate_envelope_inradius(R: float, d: float) -> float:
    """Caustic radius making the two-caustic third-side envelope a point.

    Solves (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2) for r, which is Kerawala's
    relation 1/(R-d)^2 + 1/(R+d)^2 = 1/r^2.
    """
    return math.sqrt((R * R - d * d) ** 2 / (2.0 * (R * R + d * d)))


def confocal_delta(a: float, b: float) -> float:
    """sqrt(a^4 - a^2 b^2 + b^4), the root in the closing-family formulas."""
    a2 = a * a
    b2 = b * b
    return math.sqrt(a2 * a2 - a2 * b2 + b2 * b2)


def critical_lambda(a: float, b: float) -> float:
    """Pencil parameter of the confocal caustic that closes triangles,
    a^2 b^2 (2 delta - a^2 - b^2) / (a^2 - b^2)^2.  Since
    (2 delta - a^2 - b^2)(2 delta + a^2 + b^2) = 3 (a^2 - b^2)^2 it is
    3 a^2 b^2 / (2 delta + a^2 + b^2), whose denominator is a sum of
    positive terms: it keeps its digits as a -> b."""
    _require_axes(a, b)
    a2 = a * a
    b2 = b * b
    delta = confocal_delta(a, b)
    return 3.0 * a2 * b2 / (2.0 * delta + a2 + b2)


def _poristic_offset(R: float, r: float, d: Optional[float] = None) -> float:
    """Chapple's offset for (R, r), checked against d when one is given."""
    want = chapple_distance(R, r)
    if d is not None and abs(d - want) > 1e-12 * R:
        raise NoPoristicPair(f"d={d} is not the poristic offset {want}")
    return want


def _closing_lambda(a: float, b: float, lam: Optional[float] = None) -> float:
    """The critical lambda for (a, b), checked against lam when one is given.

    For a >> b it is b^2 (1 - (b/a)^4 / 4) to leading order, so from a/b
    of about 7000 it rounds to b^2, where the caustic is a segment:
    raises there.
    """
    want = critical_lambda(a, b)
    if want >= b * b:
        raise ValueError(f"the closing caustic at a/b={a / b:.6g} rounds to lam = b^2")
    if lam is not None and abs(lam - want) > 1e-12 * b * b:
        raise ValueError(f"lam={lam} is not the closure value {want}")
    return want


# ---------------------------------------------------------------------------
# The bicentric pencil (bic-III's second caustic).


def _bic3_radius2(p: BicentricParams) -> Tuple[float, float, float]:
    """(k2, k1, k0): the pencil circle at parameter u, centered at
    (d(1-u), 0), has squared radius k2 u^2 + k1 u + k0."""
    return p.d * p.d, p.R * p.R - p.d * p.d - p.r * p.r, p.r * p.r


# ---------------------------------------------------------------------------
# Closed-form third-side envelopes.


def bic2_envelope(p: BicentricParams) -> Conic:
    """Envelope of the third side P2P3 over the two-caustic circle family.

    A circle of the same pencil, centered at (4 d R^2 r^2/(R^2-d^2)^2, 0)
    with signed radius R (R^4 - 2R^2 d^2 - 2R^2 r^2 + d^4 - 2 d^2 r^2)
    / (R^2-d^2)^2; the absolute value is used for the returned conic and
    a zero radius yields a point conic.
    """
    cx, radius = _bic2_envelope_circle(p)
    return Conic.circle(Point(cx, 0.0), abs(radius))


def _bic2_envelope_circle(p: BicentricParams) -> Tuple[float, float]:
    """(center x, signed radius) of ``bic2_envelope``.  w = (R-d)(R+d) is
    R^2 - d^2 to a few ulps of itself, so the radius's numerator
    w^2 - 2r^2(R^2+d^2) cancels no more than the radius itself does as
    r + d -> R."""
    R, r, d = p.R, p.r, p.d
    w = (R - d) * (R + d)
    den = w * w
    return 4.0 * d * R * R * r * r / den, R * (den - 2.0 * r * r * (R * R + d * d)) / den


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


def _chain_envelope_u(cfg: "FamilyConfig") -> float:
    """The pencil coordinate w of a chain's free-side envelope.  By
    Poncelet's general theorem the free sides touch one more member of the
    pencil; each touches the members at the roots of its quadratic
    Q(w) = A w^2 + B w + C (``pencil_tangency``), and the envelope's w is
    the root shared by the first two members on a 16-angle grid, where
    A1 Q0(w) - A0 Q1(w) = 0.  Where both A are 0 or below the normal
    floats, as for a concentric bic-III (A = -(b d)^2), each Q is linear to
    rounding and w is the root of Q0."""
    a, b, c, ok = cfg.free_sides(np.arange(16) * (np.pi / 8))
    if np.count_nonzero(ok) < 2:
        raise VertexInsideCaustic(f"{cfg.kind} has fewer than two members to fix its envelope")
    (a0, a1), (b0, b1), (c0, c1) = cfg.params.pencil_tangency(a[ok][:2], b[ok][:2], c[ok][:2])
    if max(abs(a0), abs(a1)) < np.finfo(float).tiny:
        return float(-c0 / b0)
    return float(-(c0 * a1 - c1 * a0) / (b0 * a1 - b1 * a0))


def _chain_envelope(cfg: "FamilyConfig") -> Conic:
    """Envelope of the free side over a chain family: ``envelope_member`` at ``_chain_envelope_u``."""
    return cfg.params.envelope_member(_chain_envelope_u(cfg))


# ---------------------------------------------------------------------------
# Envelope sampling from a one-parameter family of chords.


# Half-width of the outer chord pair in envelope_points.
_ENVELOPE_STEP = 1e-3


def envelope_points(
    sides: Callable[[np.ndarray], Tuple[Any, Any, Any, Any]], ts: Any
) -> np.ndarray:
    """Characteristic points of a chord family L(t), as an (m, 2) array.

    ``sides`` maps an angle array to the chords (a, b, c, ok) there, as
    ``FamilyConfig.free_sides`` does.  Each point is the limit of
    intersections of neighboring chords, computed from the symmetric
    pairs (t-h, t+h) and (t-h/2, t+h/2), h = _ENVELOPE_STEP, with one
    Richardson extrapolation step, which removes the O(h^2) truncation
    term.  Angles with a missing or near-parallel chord pair are
    skipped; the rest keep their order.
    """
    ts = np.asarray(ts, dtype=float)

    def char_points(step: float):
        a1, b1, c1, ok1 = sides(ts - step)
        a2, b2, c2, ok2 = sides(ts + step)
        with quiet_fp():
            x, y, ok = _meet(a1, b1, c1, a2, b2, c2)
        return x, y, ok & ok1 & ok2

    xc, yc, ok_coarse = char_points(_ENVELOPE_STEP)
    xf, yf, ok_fine = char_points(0.5 * _ENVELOPE_STEP)
    keep = ok_coarse & ok_fine
    return np.column_stack(
        ((4.0 * xf[keep] - xc[keep]) / 3.0, (4.0 * yf[keep] - yc[keep]) / 3.0)
    )


# ---------------------------------------------------------------------------
# Family kinds: each described once.


class FamilySpec(NamedTuple):
    """One family kind (see FAMILY_SPECS).

    ``params`` is the class of ``FamilyConfig.params``, BicentricParams
    or ConfocalParams; the fields of both are the outer shape
    pair, the caustic's parameter and the pencil coordinate.  A pair
    takes both tangents from P1 to the caustic and leaves P2P3 free; a
    chain makes P2P3 touch the pencil caustic and leaves P3P1 free.
    ``closure(x, y, z=None)`` returns the caustic parameter that closes
    the family and raises if a given z is not it.  ``envelope(cfg)`` is
    the free side's envelope, a conic of the pencil.
    """

    params: type
    chain: bool
    closure: Optional[Callable[..., float]]
    envelope: Callable[["FamilyConfig"], Conic]


FAMILY_SPECS = {
    "bic-I": FamilySpec(BicentricParams, False, _poristic_offset, lambda cfg: cfg.params.caustic()),
    "bic-II": FamilySpec(BicentricParams, False, None, lambda cfg: bic2_envelope(cfg.params)),
    "bic-III": FamilySpec(BicentricParams, True, None, _chain_envelope),
    "conf-I": FamilySpec(ConfocalParams, False, _closing_lambda, lambda cfg: cfg.params.caustic()),
    "conf-II": FamilySpec(ConfocalParams, False, None, lambda cfg: conf2_envelope(cfg.params)),
    "conf-III": FamilySpec(ConfocalParams, True, None, _chain_envelope),
}


# The |delta^2| below which every vertex lies on the caustic to rounding.
_ROUNDING = 64 * 2.0**-52


@dataclass(frozen=True)
class FamilyConfig:
    """A concrete triangle family: kind, shape parameters (of the class
    the kind's FamilySpec names; the pencil coordinate u a chain's only),
    tangent branch (a chain's only)."""

    kind: str
    params: Any
    branch: TangentBranch = DEFAULT_BRANCH

    def __post_init__(self) -> None:
        spec = FAMILY_SPECS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        p = self.params
        if not isinstance(p, spec.params):
            raise ValueError(f"{self.kind} needs {spec.params.__name__}")
        x, y, z, pencil = vars(p).values()  # the four fields, in order
        if spec.closure is not None:
            spec.closure(x, y, z)
        for label in self.branch:
            _branch_sign(label)
        if spec.chain and pencil is None:
            raise ValueError(f"{self.kind} needs the pencil parameter u")
        if not spec.chain and pencil is not None:
            raise ValueError(f"{self.kind} takes no pencil parameter u: it has one caustic")
        if pencil == 1.0:
            raise ValueError(f"{self.kind}'s pencil caustic at u=1 is the outer conic")
        if not spec.chain and self.branch != DEFAULT_BRANCH:
            raise ValueError(
                f"{self.kind} takes only the default tangent branch (plus, plus):"
                " both its tangents leave P1"
            )
        # The largest and smallest delta^2 (see _chord) of a vertex on
        # the outer conic: within rounding of 0 the caustic is the outer
        # conic, and each tangent is rounding noise.
        A, B = p.outer_shape()
        caustics = {"caustic": p.caustic_shape()}
        if spec.chain:
            caustics[f"pencil caustic at u={pencil}"] = p.pencil_shape()
        for name, (cp, cq, c) in caustics.items():
            far = max((A + abs(c)) ** 2 / (cp * cp), B * B / (cq * cq)) - 1.0
            near = min((A - abs(c)) ** 2 / (cp * cp), B * B / (cq * cq)) - 1.0
            if far <= _ROUNDING and near >= -_ROUNDING:
                raise ValueError(f"{self.kind}'s {name} is the outer conic to rounding")

    @cached_property
    def _kept(self) -> dict:
        """What the last trace of this object sampled before picking its
        point, by n (filled by ``loci._grid_samples``).  Not a field, so
        ==, hash and repr do not see it; an equal config keeps its own."""
        return {}

    @property
    def outer_scale(self) -> float:
        """The outer radius R or major semi-axis a (the first field)."""
        x, *_ = vars(self.params).values()
        return x

    def outer_conic(self) -> Conic:
        return self.params.outer_conic()

    def caustics(self) -> Tuple[Conic, ...]:
        """The prescribed caustics (not the derived third-side envelope)."""
        p = self.params
        if FAMILY_SPECS[self.kind].chain:
            return (p.caustic(), p.pencil_caustic())
        return (p.caustic(),)

    def triangles(self, t: Any) -> TriangleBatch:
        """The members at the angles t, a numpy array.

        P1 is the outer conic's point at eccentric angle t; the chord
        map gives P2 and P3 (see FamilySpec).  The one construction
        path: ``triangle`` is its batch of one angle.  A vertex without
        a real tangent clears ``ok`` at its angle.
        """
        return TriangleBatch.of(*self._vertices(t))

    def _vertices(self, t: Any) -> Tuple[Any, ...]:
        """(x1, y1, x2, y2, x3, y3, ok): the members at the angles t, without
        the measures ``TriangleBatch.of`` adds."""
        p = self.params
        outer = p.outer_shape()
        x1, y1 = outer[0] * np.cos(t), outer[1] * np.sin(t)
        sign = _branch_sign(self.branch.first)
        x2, y2, ok = _chord(outer, p.caustic_shape(), x1, y1, sign)
        if FAMILY_SPECS[self.kind].chain:
            x3, y3, ok3 = _chord(outer, p.pencil_shape(), x2, y2, _branch_sign(self.branch.second))
            return x1, y1, x2, y2, x3, y3, ok & ok3
        # Both tangents leave P1: one tangent condition for the pair.
        x3, y3, _ = _chord(outer, p.caustic_shape(), x1, y1, -sign)
        return x1, y1, x2, y2, x3, y3, ok

    def triangle(self, t: float) -> Triangle:
        """The member at angle t, the one-angle batch of ``triangles``;
        raises where that batch clears ok."""
        b = self.triangles(np.array([t]))
        if not b.ok[0]:
            raise VertexInsideCaustic(f"no real tangent from the vertex at t={t}")
        x1, y1, x2, y2, x3, y3 = (float(v[0]) for v in b[:6])
        return Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3), t)

    def free_sides(self, t: Any) -> Tuple[Any, Any, Any, Any]:
        """(a, b, c, ok): the free side a x + b y + c = 0, with unit normal
        (a, b), at the angles t; ok is false where there is no member.

        The free side is the one no prescribed caustic constrains: P2P3
        for a pair, P3P1 for a chain.
        """
        x1, y1, x2, y2, x3, y3, ok = self._vertices(t)
        if FAMILY_SPECS[self.kind].chain:
            a, b, c, ok_line = _line_through(x3, y3, x1, y1)
        else:
            a, b, c, ok_line = _line_through(x2, y2, x3, y3)
        return a, b, c, ok & ok_line

    def closed_form_envelope(self) -> Conic:
        """The free side's envelope, the kind's ``FamilySpec.envelope``."""
        return FAMILY_SPECS[self.kind].envelope(self)


def bic1_config(R: float, r: float) -> FamilyConfig:
    return FamilyConfig("bic-I", BicentricParams(R, r, chapple_distance(R, r)))


def bic2_config(R: float, r: float, d: float) -> FamilyConfig:
    return FamilyConfig("bic-II", BicentricParams(R, r, d))


def bic3_config(
    R: float, r: float, d: float, u: float, branch: TangentBranch = DEFAULT_BRANCH
) -> FamilyConfig:
    return FamilyConfig("bic-III", BicentricParams(R, r, d, u=u), branch=branch)


def conf1_config(a: float, b: float) -> FamilyConfig:
    return FamilyConfig("conf-I", ConfocalParams(a, b, _closing_lambda(a, b)))


def conf2_config(a: float, b: float, lam: float) -> FamilyConfig:
    return FamilyConfig("conf-II", ConfocalParams(a, b, lam))


def conf3_config(
    a: float,
    b: float,
    lam: float,
    u: float,
    branch: TangentBranch = DEFAULT_BRANCH,
) -> FamilyConfig:
    return FamilyConfig("conf-III", ConfocalParams(a, b, lam, u=u), branch=branch)
