"""Triangle centers, excenters, and derived point constructions.

Centers are addressed by their Kimberling index (X1 = incenter,
X2 = barycenter, ...).  Each center is one kernel.  Most kernels are
made by ``_barycentric`` from a homogeneous barycentric weight generator
of the side lengths; a few are geometric constructions (circumcircle
inversion, excentral-triangle circumcenter/centroid, intouch-triangle
centers, a perspector), which the test suite checks against their own
trilinear or barycentric formulas, not held in this module.

Weight formulas follow the standard encyclopedia of triangle centers;
each one is guarded by an independent geometric incidence oracle in
the test suite (bisector/altitude concurrences, inversion identities,
known collinearities) to protect against transcription slips.

Every kernel is elementwise on coordinate arrays over a batch of
triangles (``center_arrays``, ``excenter_arrays``).  It reads the
batch's ``_Shape`` (vertices, side lengths, area, fault flags), which a
caller that keeps one reuses (``_center_on``, ``_excenters_on``).
``center`` and ``excenters`` run it on the batch of one triangle and
raise where that batch marks the triangle invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .families import DegenerateTriangle, Triangle, TriangleBatch
from .geom import (
    GeometryError,
    InversionOfCenter,
    Point,
    _invert,
    _line_through,
    _meet,
    _nonzero,
    _unless,
    quiet_fp,
)

__all__ = [
    "CenterDefinition",
    "ExcentralTriangle",
    "center",
    "center_arrays",
    "excenters",
    "excenter_arrays",
    "builtin_centers",
    "center_definition",
    "parse_center_id",
]

# Relative area below which a triangle is treated as collinear.
_DEGENERATE_AREA = 1e-14
# Relative weight sum below which a center is at infinity.
_ZERO_WEIGHT_SUM = 1e-14
# Relative residual allowed in the X484 perspector's concurrence.
_CONCURRENCE_TOL = 1e-8

# Fault flags of the kernels below, or-ed together; 0 marks a valid
# sample.  ``center`` and ``excenters`` raise the error of the first
# flag set, testing _DEGENERATE first.
_DEGENERATE = 1  # collinear vertices, or weights summing to zero
_AT_CENTER = 2  # inversion of the circumcenter itself
_NO_MEET = 4  # construction lines undefined, parallel or not concurrent


class _Shape(NamedTuple):
    """Triangles as coordinate arrays, with their side lengths s_i
    opposite P_i, area, longest side, and fault flags."""

    x1: Any
    y1: Any
    x2: Any
    y2: Any
    x3: Any
    y3: Any
    s1: Any
    s2: Any
    s3: Any
    area: Any
    scale: Any
    fault: Any


# A kernel maps a _Shape to (x, y, fault), elementwise.
Kernel = Callable[[_Shape], Tuple[Any, Any, Any]]


@dataclass(frozen=True)
class CenterDefinition:
    """A triangle center: its Kimberling index and its kernel, which maps
    a _Shape to (x, y, fault flags)."""

    id: int
    kernel: Kernel


@dataclass(frozen=True)
class ExcentralTriangle:
    """The three excenters; p1p is the excenter opposite vertex P1."""

    p1p: Point
    p2p: Point
    p3p: Point

    def vertices(self) -> Tuple[Point, Point, Point]:
        return (self.p1p, self.p2p, self.p3p)



# ---------------------------------------------------------------------------
# Elementwise kernels.  Each takes a _Shape and returns its values with
# the fault flags of every step; values where a flag is set are
# meaningless.


def _shape(x1: Any, y1: Any, x2: Any, y2: Any, x3: Any, y3: Any) -> _Shape:
    s1 = np.hypot(x2 - x3, y2 - y3)
    s2 = np.hypot(x3 - x1, y3 - y1)
    s3 = np.hypot(x1 - x2, y1 - y2)
    area = 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    scale = np.maximum(np.maximum(s1, s2), s3)
    collinear = (scale == 0.0) | (area <= _DEGENERATE_AREA * scale * scale)
    return _Shape(x1, y1, x2, y2, x3, y3, s1, s2, s3, area, scale, _DEGENERATE * collinear)


def _barycentric(f: Callable[[Any, Any, Any], Any]) -> Kernel:
    """The kernel of the center with homogeneous barycentric weights
    (f(s1, s2, s3), f(s2, s3, s1), f(s3, s1, s2)): the generator
    f(a, b, c) gives the weight of the vertex opposite side a."""

    def kernel(t: _Shape):
        w1, w2, w3 = f(t.s1, t.s2, t.s3), f(t.s2, t.s3, t.s1), f(t.s3, t.s1, t.s2)
        total = w1 + w2 + w3
        at_infinity = abs(total) <= _ZERO_WEIGHT_SUM * (abs(w1) + abs(w2) + abs(w3))
        x = (w1 * t.x1 + w2 * t.x2 + w3 * t.x3) / _nonzero(total)
        y = (w1 * t.y1 + w2 * t.y2 + w3 * t.y3) / _nonzero(total)
        return x, y, t.fault | _DEGENERATE * at_infinity

    return kernel


def _excenters(t: _Shape):
    """((x1', x2', x3'), (y1', y2', y3'), fault): the excenter opposite P1
    is (−s1·P1 + s2·P2 + s3·P3)/(−s1+s2+s3), and cyclically."""
    s1, s2, s3 = t.s1, t.s2, t.s3
    d1 = -s1 + s2 + s3
    d2 = s1 - s2 + s3
    d3 = s1 + s2 - s3
    inequality_fails = (d1 <= 0.0) | (d2 <= 0.0) | (d3 <= 0.0)
    d1, d2, d3 = _nonzero(d1), _nonzero(d2), _nonzero(d3)
    xs = (
        (-s1 * t.x1 + s2 * t.x2 + s3 * t.x3) / d1,
        (s1 * t.x1 - s2 * t.x2 + s3 * t.x3) / d2,
        (s1 * t.x1 + s2 * t.x2 - s3 * t.x3) / d3,
    )
    ys = (
        (-s1 * t.y1 + s2 * t.y2 + s3 * t.y3) / d1,
        (s1 * t.y1 - s2 * t.y2 + s3 * t.y3) / d2,
        (s1 * t.y1 + s2 * t.y2 - s3 * t.y3) / d3,
    )
    return xs, ys, t.fault | _DEGENERATE * inequality_fails


def _bevan(t: _Shape):
    """X40, the circumcenter of the excentral triangle: 2·X3 − X1."""
    ox, oy, f3 = _circumcenter(t)
    ix, iy, f1 = _incenter(t)
    return 2.0 * ox - ix, 2.0 * oy - iy, f3 | f1


def _excentral_centroid(t: _Shape):
    """X165, the centroid of the excentral triangle: X3 + (X3 − X1)/3."""
    ox, oy, f3 = _circumcenter(t)
    ix, iy, f1 = _incenter(t)
    return (4.0 * ox - ix) / 3.0, (4.0 * oy - iy) / 3.0, f3 | f1


def _circumcircle_inverse(t: _Shape, px: Any, py: Any, fault: Any):
    """Inverse of p in the circumcircle, with circumradius s1 s2 s3 / 4K."""
    ox, oy, f3 = _circumcenter(t)
    radius = t.s1 * t.s2 * t.s3 / (4.0 * t.area)
    x, y, ok = _invert(px, py, ox, oy, radius)
    return x, y, fault | f3 | _unless(ok, _AT_CENTER)


def _x36(t: _Shape):
    return _circumcircle_inverse(t, *_incenter(t))


def _x2077(t: _Shape):
    return _circumcircle_inverse(t, *_bevan(t))


def _intouch(t: _Shape) -> Tuple[Any, Any, Any, Any, Any, Any]:
    """Contact triangle: vertex i is the incircle's touchpoint on the side
    opposite P_i, at tangent length s - s_j from the side's start P_j."""
    s = 0.5 * (t.s1 + t.s2 + t.s3)
    f1 = (s - t.s2) / t.s1
    f2 = (s - t.s3) / t.s2
    f3 = (s - t.s1) / t.s3
    return (
        t.x2 + f1 * (t.x3 - t.x2), t.y2 + f1 * (t.y3 - t.y2),
        t.x3 + f2 * (t.x1 - t.x3), t.y3 + f2 * (t.y1 - t.y3),
        t.x1 + f3 * (t.x2 - t.x1), t.y1 + f3 * (t.y2 - t.y1),
    )


def _x65(t: _Shape):
    """Orthocenter of the intouch triangle."""
    x, y, fault = _orthocenter(_shape(*_intouch(t)))
    return x, y, t.fault | fault


def _x354(t: _Shape):
    """Centroid of the intouch triangle."""
    u1, v1, u2, v2, u3, v3 = _intouch(t)
    return (u1 + u2 + u3) / 3.0, (v1 + v2 + v3) / 3.0, t.fault


def _x942(t: _Shape):
    """Nine-point center of the intouch triangle: midpoint of its
    circumcenter (= X1 of the base triangle) and its orthocenter."""
    ix, iy, f1 = _incenter(t)
    hx, hy, fh = _x65(t)
    return 0.5 * (ix + hx), 0.5 * (iy + hy), f1 | fh


def _reflections(t: _Shape):
    """((x, y) per vertex, fault): each vertex reflected across the line of
    its opposite side."""
    out = []
    fault = t.fault
    for px, py, qx1, qy1, qx2, qy2 in (
        (t.x1, t.y1, t.x2, t.y2, t.x3, t.y3),
        (t.x2, t.y2, t.x3, t.y3, t.x1, t.y1),
        (t.x3, t.y3, t.x1, t.y1, t.x2, t.y2),
    ):
        a, b, c, ok = _line_through(qx1, qy1, qx2, qy2)
        dist = a * px + b * py + c
        out.append((px - 2.0 * dist * a, py - 2.0 * dist * b))
        fault = fault | _unless(ok, _NO_MEET)
    return out, fault


def _x484(t: _Shape):
    """Evans perspector: the concurrence of the lines joining each
    excenter to the reflection of its opposite vertex across the far side.

    The lines are concurrent for every non-degenerate triangle.  The
    best-conditioned pair gives the point; the third line's residual
    through it must stay within ``_CONCURRENCE_TOL`` of the triangle
    scale.
    """
    exs, eys, fault = _excenters(t)
    refl, refl_fault = _reflections(t)
    lines = [_line_through(exs[i], eys[i], *refl[i]) for i in range(3)]
    a, b, c, ok = (np.stack(v) for v in zip(*lines))
    # Per sample, the pair (i, j) of lines with the largest |a_i b_j - a_j b_i|
    # meets, and the remaining line k checks the concurrence.
    i, j, k = np.array([[0, 0, 1], [1, 2, 2], [2, 1, 0]])
    best = np.argmax(abs(a[i] * b[j] - a[j] * b[i]), axis=0)[np.newaxis]

    def pick(v, rows):
        return np.take_along_axis(v, rows[best], axis=0)[0]

    x, y, meets = _meet(pick(a, i), pick(b, i), pick(c, i), pick(a, j), pick(b, j), pick(c, j))
    residual = abs(pick(a, k) * x + pick(b, k) * y + pick(c, k))
    defined = ok.all(axis=0) & meets
    off = residual > _CONCURRENCE_TOL * t.scale
    return x, y, fault | refl_fault | _unless(defined, _NO_MEET) | _NO_MEET * off


# ---------------------------------------------------------------------------
# Entry points: a batch of triangles, or the batch of one.


def _raise_for(fault: Any) -> None:
    if fault & _DEGENERATE:
        raise DegenerateTriangle("degenerate triangle, or center weights summing to zero")
    if fault & _AT_CENTER:
        raise InversionOfCenter("cannot invert the circle center")
    if fault:
        raise GeometryError("construction lines are parallel or not concurrent")


def _shape_of(coords: Sequence[Any]) -> _Shape:
    """The _Shape of the triangles with the vertex coordinate arrays
    (x1, y1, x2, y2, x3, y3), which every kernel reads."""
    with quiet_fp():
        return _shape(*coords)


def _evaluate(kernel: Kernel, shape: _Shape):
    with quiet_fp():
        return kernel(shape)


def _one(tri: Triangle) -> List[Any]:
    """The vertex coordinate arrays of the batch that holds one triangle."""
    return [np.array([c]) for p in tri.vertices() for c in p]


def _resolve(definition: Union["CenterDefinition", str, int]) -> "CenterDefinition":
    if isinstance(definition, (str, int)):
        return center_definition(definition)
    return definition


def center(tri: Triangle, definition: Union[CenterDefinition, str, int]) -> Point:
    """Evaluate a triangle center by its kernel on the batch that holds
    only tri; raises where that batch marks the triangle invalid.

    ``definition`` may be a CenterDefinition, a Kimberling index, or a
    string like "X165".
    """
    definition = _resolve(definition)
    x, y, fault = _evaluate(definition.kernel, _shape_of(_one(tri)))
    _raise_for(fault[0])
    return Point(float(x[0]), float(y[0]))


def center_arrays(tri: TriangleBatch, definition: Union[CenterDefinition, str, int]):
    """(x, y, ok): ``center`` on every triangle of a batch at once.

    ok is false where the batch has no triangle or where ``center``
    raises for it.
    """
    return _center_on(_shape_of(tri[:6]), tri.ok, definition)


def _center_on(shape: _Shape, ok: Any, definition: Union[CenterDefinition, str, int]):
    """``center_arrays`` on the batch with the built _Shape and the mask ok."""
    x, y, fault = _evaluate(_resolve(definition).kernel, shape)
    return x, y, ok & (fault == 0)


def excenters(tri: Triangle) -> ExcentralTriangle:
    """Excenters of a triangle; the vertices of its excentral triangle.
    Runs the kernel of ``excenter_arrays`` on the batch of one."""
    xs, ys, fault = _evaluate(_excenters, _shape_of(_one(tri)))
    _raise_for(fault[0])
    return ExcentralTriangle(*(Point(float(x[0]), float(y[0])) for x, y in zip(xs, ys)))


def excenter_arrays(tri: TriangleBatch):
    """((x1', x2', x3'), (y1', y2', y3'), ok): ``excenters`` on a batch."""
    return _excenters_on(_shape_of(tri[:6]), tri.ok)


def _excenters_on(shape: _Shape, ok: Any):
    """``excenter_arrays`` on the batch with the built _Shape and the mask ok."""
    xs, ys, fault = _evaluate(_excenters, shape)
    return xs, ys, ok & (fault == 0)


# ---------------------------------------------------------------------------
# Weight generators for _barycentric: f(a, b, c) is the weight of the
# vertex opposite side a.


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
    e = b * b - c * c
    return a * a * (b * b + c * c) - e * e


def _w_x11(a: float, b: float, c: float) -> float:
    e = b - c
    return e * e * (b + c - a)


def _w_x35(a: float, b: float, c: float) -> float:
    return a * a * (b * b + c * c - a * a + b * c)


def _w_x46(a: float, b: float, c: float) -> float:
    """Trilinear cos B + cos C - cos A, times a for barycentric."""
    ca, cb, cc = _cosines(a, b, c)
    return (cb + cc - ca) * a


def _w_x56(a: float, b: float, c: float) -> float:
    return a * a * (c + a - b) * (a + b - c)


def _w_x57(a: float, b: float, c: float) -> float:
    return a * (c + a - b) * (a + b - c)


def _w_x59(a: float, b: float, c: float) -> float:
    ab = a - b
    ac = a - c
    return a * a * (ab * ab) * (ac * ac) * (c + a - b) * (a + b - c)


_incenter = _barycentric(lambda a, b, c: a)
_circumcenter = _barycentric(_w_x3)
_orthocenter = _barycentric(_w_x4)

_DEFINITIONS: List[CenterDefinition] = [
    CenterDefinition(1, _incenter),
    CenterDefinition(2, _barycentric(lambda a, b, c: 1.0)),  # barycenter
    CenterDefinition(3, _circumcenter),
    CenterDefinition(4, _orthocenter),
    CenterDefinition(5, _barycentric(_w_x5)),  # nine-point center
    CenterDefinition(6, _barycentric(lambda a, b, c: a * a)),  # symmedian point
    CenterDefinition(8, _barycentric(lambda a, b, c: b + c - a)),  # Nagel point
    CenterDefinition(9, _barycentric(lambda a, b, c: a * (b + c - a))),  # mittenpunkt
    CenterDefinition(10, _barycentric(lambda a, b, c: b + c)),  # Spieker center
    CenterDefinition(11, _barycentric(_w_x11)),  # Feuerbach point
    CenterDefinition(35, _barycentric(_w_x35)),
    CenterDefinition(36, _x36),  # circumcircle inverse of the incenter
    CenterDefinition(40, _bevan),  # Bevan point
    CenterDefinition(46, _barycentric(_w_x46)),
    # insimilicenter of circumcircle and incircle
    CenterDefinition(55, _barycentric(lambda a, b, c: a * a * (b + c - a))),
    # exsimilicenter of circumcircle and incircle
    CenterDefinition(56, _barycentric(_w_x56)),
    CenterDefinition(57, _barycentric(_w_x57)),
    # isogonal conjugate of the Feuerbach point
    CenterDefinition(59, _barycentric(_w_x59)),
    CenterDefinition(65, _x65),  # orthocenter of the intouch triangle
    CenterDefinition(165, _excentral_centroid),  # centroid of the excentral triangle
    CenterDefinition(354, _x354),  # Weill point
    CenterDefinition(484, _x484),  # Evans perspector
    CenterDefinition(942, _x942),  # nine-point center of the intouch triangle
    CenterDefinition(2077, _x2077),  # circumcircle inverse of the Bevan point
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
