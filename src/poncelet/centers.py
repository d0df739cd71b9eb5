"""Triangle centers, excenters, and derived point constructions.

Centers are addressed by their Kimberling index (X1 = incenter,
X2 = barycenter, ...) and evaluated from homogeneous weight functions
of the side lengths, in either trilinear or barycentric basis.  A few
centers are instead defined by geometric constructions (circumcircle
inversion, excentral-triangle circumcenter/centroid, intouch-triangle
centers, a perspector); where both a weight formula and a construction
exist, tests cross-validate them against each other.

Weight formulas follow the standard encyclopedia of triangle centers;
each one is guarded by an independent geometric incidence oracle in
the test suite (bisector/altitude concurrences, inversion identities,
known collinearities) to protect against transcription slips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .families import DegenerateTriangle, Triangle
from .geom import (
    Conic,
    GeometryError,
    Line,
    Point,
    circle_inverse,
    line_intersection,
)

__all__ = [
    "TRILINEAR",
    "BARYCENTRIC",
    "CenterDefinition",
    "ExcentralTriangle",
    "center",
    "excenters",
    "bevan_point",
    "excentral_centroid",
    "incenter",
    "circumcenter",
    "circumradius",
    "circumcircle",
    "intouch_triangle",
    "vertex_reflection_triangle",
    "evans_perspector",
    "builtin_centers",
    "center_definition",
    "parse_center_id",
]

TRILINEAR = "trilinear"
BARYCENTRIC = "barycentric"

WeightFn = Callable[[float, float, float], Tuple[float, float, float]]
ConstructFn = Callable[[Triangle], Point]

# Relative area below which a triangle is treated as collinear.
_DEGENERATE_AREA = 1e-14
# Relative residual allowed in the X484 perspector's concurrence.
_CONCURRENCE_TOL = 1e-8


@dataclass(frozen=True)
class CenterDefinition:
    """A triangle center: index, weight function, and optional construction.

    ``weight_fn`` maps side lengths (s1, s2, s3) — s_i opposite vertex
    P_i — to homogeneous weights (w1, w2, w3) in the given basis.  When
    ``construct`` is set it takes precedence over the weights (used for
    centers defined by inversion or by auxiliary-triangle centers).
    """

    id: int
    basis: str = BARYCENTRIC
    weight_fn: Optional[WeightFn] = None
    construct: Optional[ConstructFn] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.basis not in (TRILINEAR, BARYCENTRIC):
            raise ValueError(f"basis must be trilinear or barycentric, got {self.basis!r}")
        if self.weight_fn is None and self.construct is None:
            raise ValueError("center needs a weight function or a construction")


@dataclass(frozen=True)
class ExcentralTriangle:
    """The three excenters; p1p is the excenter opposite vertex P1."""

    p1p: Point
    p2p: Point
    p3p: Point

    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.p1p, self.p2p, self.p3p)

    def as_triangle(self, t: float = 0.0) -> Triangle:
        return Triangle(self.p1p, self.p2p, self.p3p, t)


def _require_nondegenerate(tri: Triangle) -> None:
    s = tri.side_lengths()
    scale = max(s)
    if scale == 0.0 or tri.area() <= _DEGENERATE_AREA * scale * scale:
        raise DegenerateTriangle(
            f"triangle area {tri.area():.3e} below threshold for scale {scale:.3e}"
        )


def _combine(tri: Triangle, w1: float, w2: float, w3: float) -> Point:
    total = w1 + w2 + w3
    if abs(total) <= 1e-14 * (abs(w1) + abs(w2) + abs(w3)):
        raise DegenerateTriangle("center weights sum to zero (point at infinity)")
    return Point(
        (w1 * tri.p1.x + w2 * tri.p2.x + w3 * tri.p3.x) / total,
        (w1 * tri.p1.y + w2 * tri.p2.y + w3 * tri.p3.y) / total,
    )


def center(tri: Triangle, definition: Union[CenterDefinition, str, int]) -> Point:
    """Evaluate a triangle center.

    ``definition`` may be a CenterDefinition, a Kimberling index, or a
    string like "X165".  Trilinear weights are converted to barycentric
    by multiplying each by its side length.
    """
    if isinstance(definition, (str, int)):
        definition = center_definition(definition)
    _require_nondegenerate(tri)
    if definition.construct is not None:
        return definition.construct(tri)
    assert definition.weight_fn is not None
    s1, s2, s3 = tri.side_lengths()
    w1, w2, w3 = definition.weight_fn(s1, s2, s3)
    if definition.basis == TRILINEAR:
        w1, w2, w3 = w1 * s1, w2 * s2, w3 * s3
    return _combine(tri, w1, w2, w3)


def excenters(tri: Triangle) -> ExcentralTriangle:
    """Excenters of a triangle; the vertices of its excentral triangle.

    The excenter opposite P1 is (−s1·P1 + s2·P2 + s3·P3)/(−s1+s2+s3),
    and cyclically.
    """
    _require_nondegenerate(tri)
    s1, s2, s3 = tri.side_lengths()
    (x1, y1), (x2, y2), (x3, y3) = tri.p1, tri.p2, tri.p3
    d1 = -s1 + s2 + s3
    d2 = s1 - s2 + s3
    d3 = s1 + s2 - s3
    if min(d1, d2, d3) <= 0.0:
        raise DegenerateTriangle("triangle inequality violated")
    p1p = Point((-s1 * x1 + s2 * x2 + s3 * x3) / d1, (-s1 * y1 + s2 * y2 + s3 * y3) / d1)
    p2p = Point((s1 * x1 - s2 * x2 + s3 * x3) / d2, (s1 * y1 - s2 * y2 + s3 * y3) / d2)
    p3p = Point((s1 * x1 + s2 * x2 - s3 * x3) / d3, (s1 * y1 + s2 * y2 - s3 * y3) / d3)
    return ExcentralTriangle(p1p, p2p, p3p)


# ---------------------------------------------------------------------------
# Basic centers used by constructions (direct formulas, no table lookup).


def incenter(tri: Triangle) -> Point:
    _require_nondegenerate(tri)
    s1, s2, s3 = tri.side_lengths()
    return _combine(tri, s1, s2, s3)


def circumcenter(tri: Triangle) -> Point:
    _require_nondegenerate(tri)
    s1, s2, s3 = tri.side_lengths()
    a2, b2, c2 = s1 * s1, s2 * s2, s3 * s3
    return _combine(tri, a2 * (b2 + c2 - a2), b2 * (c2 + a2 - b2), c2 * (a2 + b2 - c2))


def circumradius(tri: Triangle) -> float:
    return tri.circumradius()


def circumcircle(tri: Triangle) -> Conic:
    return Conic.circle(circumcenter(tri), tri.circumradius())


def bevan_point(tri: Triangle) -> Point:
    """Circumcenter of the excentral triangle: the reflection 2·X3 − X1."""
    x3 = circumcenter(tri)
    x1 = incenter(tri)
    return Point(2.0 * x3.x - x1.x, 2.0 * x3.y - x1.y)


def excentral_centroid(tri: Triangle) -> Point:
    """Centroid of the excentral triangle: X3 + (X3 − X1)/3."""
    x3 = circumcenter(tri)
    x1 = incenter(tri)
    return Point((4.0 * x3.x - x1.x) / 3.0, (4.0 * x3.y - x1.y) / 3.0)


def intouch_triangle(tri: Triangle) -> Triangle:
    """Contact triangle: the incircle's touchpoints on the three sides.

    Vertex i of the result is the touchpoint on the side opposite P_i.
    """
    _require_nondegenerate(tri)
    s1, s2, s3 = tri.side_lengths()
    s = 0.5 * (s1 + s2 + s3)

    def touch(p: Point, q: Point, from_p: float, length: float) -> Point:
        f = from_p / length
        return Point(p.x + f * (q.x - p.x), p.y + f * (q.y - p.y))

    # Tangent length from vertex P_i is s - s_i.
    t1 = touch(tri.p2, tri.p3, s - s2, s1)
    t2 = touch(tri.p3, tri.p1, s - s3, s2)
    t3 = touch(tri.p1, tri.p2, s - s1, s3)
    return Triangle(t1, t2, t3, tri.t)


def vertex_reflection_triangle(tri: Triangle) -> Triangle:
    """Each vertex reflected across the line of its opposite side."""
    _require_nondegenerate(tri)

    def reflect(p: Point, q1: Point, q2: Point) -> Point:
        ln = Line.from_points(q1, q2)
        dist = ln.signed_distance(p)
        return Point(p.x - 2.0 * dist * ln.a, p.y - 2.0 * dist * ln.b)

    return Triangle(
        reflect(tri.p1, tri.p2, tri.p3),
        reflect(tri.p2, tri.p3, tri.p1),
        reflect(tri.p3, tri.p1, tri.p2),
        tri.t,
    )


def evans_perspector(tri: Triangle) -> Point:
    """Concurrence of the lines joining each excenter to the reflection
    of its opposite vertex across the far side (X484).

    The three lines are concurrent for every non-degenerate triangle;
    the residual of the third line through the computed intersection is
    asserted against ``_CONCURRENCE_TOL`` (relative to the triangle scale).
    """
    exc = excenters(tri)
    refl = vertex_reflection_triangle(tri)
    lines = [
        Line.from_points(exc.p1p, refl.p1),
        Line.from_points(exc.p2p, refl.p2),
        Line.from_points(exc.p3p, refl.p3),
    ]
    p = line_intersection(lines[0], lines[1])
    if p is None:
        p = line_intersection(lines[0], lines[2])
        check = lines[1]
    else:
        check = lines[2]
    if p is None:
        raise GeometryError("perspector lines are parallel")
    scale = max(tri.side_lengths())
    if abs(check.signed_distance(p)) > _CONCURRENCE_TOL * scale:
        raise GeometryError(
            f"perspector concurrence residual {abs(check.signed_distance(p)):.3e} "
            f"exceeds {_CONCURRENCE_TOL * scale:.3e}"
        )
    return p


# ---------------------------------------------------------------------------
# Weight formulas.  Each generator f(a, b, c) gives the weight for the
# vertex opposite side a; the other two weights follow by cycling.


def _cyclic(f: Callable[[float, float, float], float]) -> WeightFn:
    def weights(s1: float, s2: float, s3: float) -> Tuple[float, float, float]:
        return (f(s1, s2, s3), f(s2, s3, s1), f(s3, s1, s2))

    return weights


def _cosines(a: float, b: float, c: float) -> Tuple[float, float, float]:
    """(cos A, cos B, cos C) with A opposite side a, etc."""
    ca = (b * b + c * c - a * a) / (2.0 * b * c)
    cb = (c * c + a * a - b * b) / (2.0 * c * a)
    cc = (a * a + b * b - c * c) / (2.0 * a * b)
    return (ca, cb, cc)


def _w_x3(a: float, b: float, c: float) -> float:
    return a * a * (b * b + c * c - a * a)


def _w_x4(a: float, b: float, c: float) -> float:
    return (c * c + a * a - b * b) * (a * a + b * b - c * c)


def _w_x5(a: float, b: float, c: float) -> float:
    return a * a * (b * b + c * c) - (b * b - c * c) ** 2


def _w_x11(a: float, b: float, c: float) -> float:
    return (b - c) ** 2 * (b + c - a)


def _w_x35(a: float, b: float, c: float) -> float:
    return a * a * (b * b + c * c - a * a + b * c)


def _w_x36(a: float, b: float, c: float) -> float:
    return a * a * (b * b + c * c - a * a - b * c)


def _w_x40(a: float, b: float, c: float) -> float:
    ca, cb, cc = _cosines(a, b, c)
    return cb + cc - ca - 1.0


def _w_x46(a: float, b: float, c: float) -> float:
    ca, cb, cc = _cosines(a, b, c)
    return cb + cc - ca


def _w_x56(a: float, b: float, c: float) -> float:
    return a * a * (c + a - b) * (a + b - c)


def _w_x57(a: float, b: float, c: float) -> float:
    return a * (c + a - b) * (a + b - c)


def _w_x59(a: float, b: float, c: float) -> float:
    return a * a * (a - b) ** 2 * (a - c) ** 2 * (c + a - b) * (a + b - c)


def _w_x65(a: float, b: float, c: float) -> float:
    _, cb, cc = _cosines(a, b, c)
    return cb + cc


# Construction-based centers.


def _construct_x36(tri: Triangle) -> Point:
    return circle_inverse(incenter(tri), circumcircle(tri))


def _construct_x65(tri: Triangle) -> Point:
    """Orthocenter of the intouch triangle."""
    return center(intouch_triangle(tri), _X4_DEF)


def _construct_x354(tri: Triangle) -> Point:
    """Centroid of the intouch triangle."""
    it = intouch_triangle(tri)
    return Point(
        (it.p1.x + it.p2.x + it.p3.x) / 3.0,
        (it.p1.y + it.p2.y + it.p3.y) / 3.0,
    )


def _construct_x942(tri: Triangle) -> Point:
    """Nine-point center of the intouch triangle: midpoint of its
    circumcenter (= X1 of the base triangle) and its orthocenter."""
    x1 = incenter(tri)
    h = _construct_x65(tri)
    return Point(0.5 * (x1.x + h.x), 0.5 * (x1.y + h.y))


def _construct_x2077(tri: Triangle) -> Point:
    return circle_inverse(bevan_point(tri), circumcircle(tri))


_X4_DEF = CenterDefinition(4, BARYCENTRIC, _cyclic(_w_x4), name="orthocenter")

_DEFINITIONS: List[CenterDefinition] = [
    CenterDefinition(1, BARYCENTRIC, _cyclic(lambda a, b, c: a), name="incenter"),
    CenterDefinition(2, BARYCENTRIC, _cyclic(lambda a, b, c: 1.0), name="barycenter"),
    CenterDefinition(3, BARYCENTRIC, _cyclic(_w_x3), name="circumcenter"),
    _X4_DEF,
    CenterDefinition(5, BARYCENTRIC, _cyclic(_w_x5), name="nine-point center"),
    CenterDefinition(6, BARYCENTRIC, _cyclic(lambda a, b, c: a * a), name="symmedian point"),
    CenterDefinition(8, BARYCENTRIC, _cyclic(lambda a, b, c: b + c - a), name="Nagel point"),
    CenterDefinition(9, BARYCENTRIC, _cyclic(lambda a, b, c: a * (b + c - a)), name="mittenpunkt"),
    CenterDefinition(10, BARYCENTRIC, _cyclic(lambda a, b, c: b + c), name="Spieker center"),
    CenterDefinition(11, BARYCENTRIC, _cyclic(_w_x11), name="Feuerbach point"),
    CenterDefinition(35, BARYCENTRIC, _cyclic(_w_x35)),
    CenterDefinition(36, BARYCENTRIC, _cyclic(_w_x36), construct=_construct_x36,
                     name="circumcircle inverse of the incenter"),
    CenterDefinition(40, TRILINEAR, _cyclic(_w_x40), construct=bevan_point,
                     name="Bevan point"),
    CenterDefinition(46, TRILINEAR, _cyclic(_w_x46)),
    CenterDefinition(55, BARYCENTRIC, _cyclic(lambda a, b, c: a * a * (b + c - a)),
                     name="insimilicenter of circumcircle and incircle"),
    CenterDefinition(56, BARYCENTRIC, _cyclic(_w_x56),
                     name="exsimilicenter of circumcircle and incircle"),
    CenterDefinition(57, BARYCENTRIC, _cyclic(_w_x57)),
    CenterDefinition(59, BARYCENTRIC, _cyclic(_w_x59),
                     name="isogonal conjugate of the Feuerbach point"),
    CenterDefinition(65, TRILINEAR, _cyclic(_w_x65), construct=_construct_x65,
                     name="orthocenter of the intouch triangle"),
    CenterDefinition(165, BARYCENTRIC, construct=excentral_centroid,
                     name="centroid of the excentral triangle"),
    CenterDefinition(354, BARYCENTRIC, construct=_construct_x354, name="Weill point"),
    CenterDefinition(484, BARYCENTRIC, construct=evans_perspector, name="Evans perspector"),
    CenterDefinition(942, BARYCENTRIC, construct=_construct_x942,
                     name="nine-point center of the intouch triangle"),
    CenterDefinition(2077, BARYCENTRIC, construct=_construct_x2077,
                     name="circumcircle inverse of the Bevan point"),
]

_BY_ID: Dict[int, CenterDefinition] = {d.id: d for d in _DEFINITIONS}


def builtin_centers() -> List[CenterDefinition]:
    """All built-in center definitions, ordered by Kimberling index."""
    return list(_DEFINITIONS)


def parse_center_id(key: Union[str, int]) -> int:
    if isinstance(key, int):
        return key
    s = key.strip()
    if s and (s[0] in "xX"):
        s = s[1:]
    if not s.isdigit():
        raise KeyError(f"not a center identifier: {key!r}")
    return int(s)


def center_definition(key: Union[str, int]) -> CenterDefinition:
    """Look up a built-in center by index or by a name like "X165"."""
    idx = parse_center_id(key)
    try:
        return _BY_ID[idx]
    except KeyError:
        raise KeyError(f"no built-in center X{idx}") from None
