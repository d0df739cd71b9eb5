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

Every family builds its vertices with a closed-form chord map: the
bicentric map for circles, the confocal map for concentric
axis-parallel ellipses (which covers conf-III's second caustic, a
member of the pencil of two such ellipses).  All formulas live in the
canonical frame: circles centered on the x-axis with the outer circle
at the origin, ellipses concentric and axis-parallel at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    "FamilySpec",
    "FamilyConfig",
    "FAMILY_SPECS",
    "FAMILY_KINDS",
    "chapple_distance",
    "degenerate_envelope_inradius",
    "confocal_delta",
    "confocal_caustic",
    "critical_lambda",
    "n4_caustic",
    "n6_caustic",
    "bic3_caustic2",
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
    """Which tangent to take at each constructed side of a chain triangle.

    Both components select the sign of the square root in the chord
    maps (equivalently, which of the two tangents from the moving
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
# The two porisms.  Each parameter class gives its outer conic, caustic
# and pencil caustic, the first vertex at eccentric angle t, the shape of
# either caustic, and its closed-form chord map.
#
# Given a vertex on the outer conic and an interior caustic, the chord
# map returns the second intersection with the outer conic of one of
# the two tangents from the vertex to the caustic.  The sign argument
# selects the tangent; the labeling is continuous in the vertex, so a
# fixed sign traces a single smooth family over a full sweep.
#
# Both maps are elementwise in the vertex arrays (x1, y1) and return
# (x2, y2, ok) with ok false where the vertex has no real tangent to the
# caustic (on or inside it); the root is taken of |delta2|, so such a
# vertex still gets a finite, meaningless image.


def _require_finite(params: Any) -> None:
    """Raise ValueError naming the first field that is NaN or infinite;
    an optional field left at None is not checked."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        _require_finite(self)
        if not (self.R > 0.0 and self.r > 0.0):
            raise ValueError("radii must be positive")
        if self.d < 0.0:
            raise ValueError("center offset must be nonnegative")
        if self.r + self.d >= self.R:
            raise ValueError("caustic must be strictly inside the outer circle")

    def outer_conic(self) -> Conic:
        return Conic.circle(Point(0.0, 0.0), self.R)

    def caustic(self) -> Conic:
        return Conic.circle(Point(self.d, 0.0), self.r)

    def pencil_caustic(self) -> Conic:
        return bic3_caustic2(self)

    def vertex(self, t: Any) -> Tuple[Any, Any]:
        return self.R * np.cos(t), self.R * np.sin(t)

    def shape(self, pencil: bool = False) -> Tuple[float, float]:
        """(radius, center offset) of the caustic, or of the pencil caustic."""
        return _bic3_second_caustic(self) if pencil else (self.r, self.d)

    def chord(self, shape: Tuple[float, float], x1: Any, y1: Any, sign: float):
        """Chord map to the caustic circle of the given ``shape``."""
        R = self.R
        rc, dc = shape
        delta2 = R * R + dc * dc - 2.0 * dc * x1 - rc * rc
        delta = sign * np.sqrt(abs(delta2))
        base = R * R + dc * dc - 2.0 * dc * x1
        den = base * base
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
        _require_finite(self)
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

    def outer_conic(self) -> Conic:
        return Conic.axis_ellipse(Point(0.0, 0.0), self.a, self.b)

    def caustic(self) -> Conic:
        ca, cb = self.caustic_semi_axes()
        return Conic.axis_ellipse(Point(0.0, 0.0), ca, cb)

    def pencil_caustic(self) -> Conic:
        return Conic.axis_ellipse(Point(0.0, 0.0), *_conf3_second_caustic(self))

    def vertex(self, t: Any) -> Tuple[Any, Any]:
        return self.a * np.cos(t), self.b * np.sin(t)

    def shape(self, pencil: bool = False) -> Tuple[float, float]:
        """Semi-axes of the confocal caustic, or of the pencil caustic."""
        return _conf3_second_caustic(self) if pencil else self.caustic_semi_axes()

    def chord(self, shape: Tuple[float, float], x1: Any, y1: Any, sign: float):
        """Chord map to the concentric axis-parallel caustic ellipse of the
        given ``shape``."""
        a = self.a
        ca, cb = shape
        a2 = a * a
        b2 = self.b * self.b
        ca2 = ca * ca
        cb2 = cb * cb
        delta2 = (a2 * cb2 - ca2 * cb2) * x1 * x1 + (a2 * ca2 - a2 * ca2 * cb2 / b2) * y1 * y1
        delta = sign * np.sqrt(abs(delta2))
        alpha1 = a2 * (b2 - cb2) - ca2 * b2
        alpha2 = (a2 - ca2) * b2 + a2 * cb2
        alpha3 = a2 * (b2 - cb2) + ca2 * b2
        u = alpha2 * x1
        v = alpha3 * y1
        w = u * u / a2 + v * v / b2
        x2 = (2.0 * a * alpha3 * y1 * delta - alpha1 * alpha2 * x1) / w
        y2 = (-2.0 * b2 * alpha2 * x1 * delta - a * alpha1 * alpha3 * y1) / (a * w)
        return x2, y2, delta2 > 0.0


@dataclass(frozen=True)
class Triangle:
    """One family member: vertices and the driving angle."""

    p1: Point
    p2: Point
    p3: Point
    t: float

    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)



class TriangleBatch(NamedTuple):
    """Family members at many angles t, as coordinate arrays.

    Every field is an array of the shape of t.  ``ok`` is false where a
    chord step found no real tangent; the coordinates there are
    meaningless.
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


def _poristic_offset(R: float, r: float, d: Optional[float] = None) -> float:
    """Chapple's offset for (R, r), checked against d when one is given."""
    want = chapple_distance(R, r)
    if d is not None and abs(d - want) > 1e-12 * max(R, 1.0):
        raise NoPoristicPair(f"d={d} is not the poristic offset {want}")
    return want


def _closing_lambda(a: float, b: float, lam: Optional[float] = None) -> float:
    """The critical lambda for (a, b), checked against lam when one is given."""
    want = critical_lambda(a, b)
    if lam is not None and abs(lam - want) > 1e-12 * max(b ** 2, 1.0):
        raise ValueError(f"lam={lam} is not the closure value {want}")
    return want


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
# The pencil caustics of the chain kinds.


def _bic3_radius2(p: BicentricParams) -> Tuple[float, float, float]:
    """(k2, k1, k0): the pencil circle at parameter u, centered at
    (d(1-u), 0), has squared radius k2 u^2 + k1 u + k0."""
    return p.d * p.d, p.R * p.R - p.d * p.d - p.r * p.r, p.r * p.r


def _bic3_second_caustic(p: BicentricParams) -> Tuple[float, float]:
    """(radius, center offset) of the pencil circle at parameter u."""
    if p.u is None:
        raise ValueError("three-caustic family needs the pencil parameter u")
    u = p.u
    k2, k1, k0 = _bic3_radius2(p)
    radicand = k2 * u * u + k1 * u + k0
    if radicand <= 0.0:
        raise ImaginaryPencilCircle(f"pencil circle at u={u} is imaginary")
    return (math.sqrt(radicand), p.d * (1.0 - u))


def _bic3_limiting_points(p: BicentricParams) -> Tuple[Point, Point]:
    """The pencil's two point circles, at the roots u of the squared
    radius: the one inside the caustic, then the one outside the outer
    circle.  The roots are real and negative because the caustic lies
    strictly inside the outer circle (so k1 > 0); a concentric pair
    (d = 0) has both at the common center."""
    k2, k1, k0 = _bic3_radius2(p)
    if k2 == 0.0:
        return Point(0.0, 0.0), Point(0.0, 0.0)
    # -k1 - root does not cancel; the root nearer 0 is taken as the
    # product k0 / k2 over the other, not by the cancelling difference.
    far = -k1 - math.sqrt(k1 * k1 - 4.0 * k2 * k0)
    return Point(p.d * (1.0 - 2.0 * k0 / far), 0.0), Point(p.d * (1.0 - far / (2.0 * k2)), 0.0)


def bic3_caustic2(p: BicentricParams) -> Conic:
    """Second circular caustic: the pencil member at parameter u with
    center (d(1-u), 0) and radius sqrt(d^2 u^2 + (R^2-d^2-r^2) u + r^2)."""
    radius, offset = _bic3_second_caustic(p)
    return Conic.circle(Point(offset, 0.0), radius)


def _conf3_second_caustic(p: ConfocalParams) -> Tuple[float, float]:
    """Semi-axes (along x, along y) of the pencil ellipse at pencil_u.

    The member is pencil_u * outer + (1 - pencil_u) * caustic, with each
    x^2/ex^2 + y^2/ey^2 - 1 = 0 first scaled to quadratic trace 2 (for
    circles, the monic form x^2 + y^2 + ... = 0); it stays concentric and
    axis-parallel.
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
    the family and raises if a given z is not it.  ``envelope(params)``
    is the free side's closed-form envelope.
    """

    params: type
    chain: bool
    closure: Optional[Callable[..., float]]
    envelope: Optional[Callable[[Any], Conic]]


FAMILY_SPECS = {
    "bic-I": FamilySpec(BicentricParams, False, _poristic_offset, BicentricParams.caustic),
    "bic-II": FamilySpec(BicentricParams, False, None, bic2_envelope),
    "bic-III": FamilySpec(BicentricParams, True, None, None),
    "conf-I": FamilySpec(ConfocalParams, False, _closing_lambda, ConfocalParams.caustic),
    "conf-II": FamilySpec(ConfocalParams, False, None, conf2_envelope),
    "conf-III": FamilySpec(ConfocalParams, True, None, None),
}

FAMILY_KINDS = tuple(FAMILY_SPECS)


@dataclass(frozen=True)
class FamilyConfig:
    """A concrete triangle family: kind, shape parameters (of the class
    the kind's FamilySpec names), tangent branch (a chain's only)."""

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
        if spec.chain and pencil is None:
            raise ValueError(f"{self.kind} needs the pencil parameter {fields(p)[3].name}")
        if not spec.chain and self.branch != DEFAULT_BRANCH:
            raise ValueError(
                f"{self.kind} takes only the default tangent branch (plus, plus):"
                " both its tangents leave P1"
            )

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
        maps give P2 and P3 (see FamilySpec).  The one construction
        path: ``triangle`` is its batch of one angle.  Raises only
        for parameters that admit no member at all (an imaginary second
        caustic); a vertex without a real tangent clears ``ok`` at its
        angle.
        """
        spec = FAMILY_SPECS[self.kind]
        p = self.params
        x1, y1 = p.vertex(t)
        s = _branch_sign(self.branch.first)
        first = p.shape()
        x2, y2, ok = p.chord(first, x1, y1, s)
        if spec.chain:
            x3, y3, ok3 = p.chord(p.shape(pencil=True), x2, y2, _branch_sign(self.branch.second))
            ok = ok & ok3
        else:
            # Both tangents leave P1: one tangent condition for the pair.
            x3, y3, _ = p.chord(first, x1, y1, -s)
        return TriangleBatch(x1, y1, x2, y2, x3, y3, ok)

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
        tri = self.triangles(t)
        if FAMILY_SPECS[self.kind].chain:
            a, b, c, ok = _line_through(tri.x3, tri.y3, tri.x1, tri.y1)
        else:
            a, b, c, ok = _line_through(tri.x2, tri.y2, tri.x3, tri.y3)
        return a, b, c, tri.ok & ok

    def closed_form_envelope(self) -> Optional[Conic]:
        """Known envelope of the free side, where a closed form exists."""
        envelope = FAMILY_SPECS[self.kind].envelope
        return None if envelope is None else envelope(self.params)


def bic1_config(R: float, r: float) -> FamilyConfig:
    return FamilyConfig("bic-I", BicentricParams(R, r, chapple_distance(R, r)))


def bic2_config(R: float, r: float, d: float) -> FamilyConfig:
    return FamilyConfig("bic-II", BicentricParams(R, r, d))


def bic3_config(
    R: float, r: float, d: float, u: float, branch: TangentBranch = DEFAULT_BRANCH
) -> FamilyConfig:
    return FamilyConfig("bic-III", BicentricParams(R, r, d, u=u), branch=branch)


def conf1_config(a: float, b: float) -> FamilyConfig:
    return FamilyConfig("conf-I", ConfocalParams(a, b, critical_lambda(a, b)))


def conf2_config(a: float, b: float, lam: float) -> FamilyConfig:
    return FamilyConfig("conf-II", ConfocalParams(a, b, lam))


def conf3_config(
    a: float,
    b: float,
    lam: float,
    pencil_u: float,
    branch: TangentBranch = DEFAULT_BRANCH,
) -> FamilyConfig:
    return FamilyConfig(
        "conf-III", ConfocalParams(a, b, lam, pencil_u=pencil_u), branch=branch
    )
