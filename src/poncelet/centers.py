"""Triangle centers, excenters, vertices, and derived point constructions.

Every tracked point is one kernel, looked up by its id in one table
(``kernel_of``): the vertices P1 P2 P3, the excenters P1' P2' P3' (P_k'
opposite P_k), and the centers by their Kimberling index (X1 =
incenter, X2 = barycenter, ...).  Most center kernels are made by
``_barycentric`` from a homogeneous barycentric weight generator of the
side lengths and their squares; a few compose other kernels (the
circumcircle inverses X36, X484 and X2077 of X1, X35 and X40, the
points X40, X165 and X942 of the line OI).  The test suite checks them
against their own trilinear or barycentric formulas and against the
constructions they equal (the Evans perspector's three lines, the
orthocenter and the centroid of the contact triangle), which this
module does not hold.

Weight formulas follow the standard encyclopedia of triangle centers;
each one is guarded by an independent geometric incidence oracle in
the test suite (bisector/altitude concurrences, inversion identities,
known collinearities) to protect against transcription slips.

Every kernel is elementwise on coordinate arrays over a batch of
triangles (``center_arrays``).  It reads the ``TriangleBatch``'s
vertices, side lengths and their squares, area and collinearity flag,
which the batch carries from its builder, so a caller that keeps a
batch reuses them and no kernel squares a side again.  The batch
computes its incenter, circumcenter and angle cosines once, on first
use, by ``_incenter``, ``_circumcenter`` and ``_cosines`` below, and
keeps them; the kernels read them from it (X1, X3, and the compositions
X36, X40, X165, X484, X942 and X2077 of X1 and X3, X46 and X65 of the
cosines), so the ids traced over one batch form each once.
``center`` runs a kernel on the batch of one triangle and raises where
that batch marks the triangle invalid; ``excenters`` is ``center`` of
the three excenter ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

from .families import _DEGENERATE, DegenerateTriangle, Triangle, TriangleBatch
from .geom import (
    InversionOfCenter,
    Point,
    _invert,
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
    "builtin_centers",
    "kernel_of",
]

# Relative weight sum below which a center is at infinity.
_ZERO_WEIGHT_SUM = 1e-14

# Fault flags of the kernels below, or-ed together; 0 marks a valid
# sample.  ``center`` and ``excenters`` raise the error of the first
# flag set, testing _DEGENERATE first: collinear vertices (the batch's
# own flag), or weights summing to zero.
_AT_CENTER = 2  # inversion of the circumcenter itself


# A kernel maps a TriangleBatch to (x, y, fault), elementwise.
Kernel = Callable[[TriangleBatch], Tuple[Any, Any, Any]]


@dataclass(frozen=True)
class CenterDefinition:
    """A triangle center: its Kimberling index and its kernel, which maps
    a TriangleBatch to (x, y, fault flags)."""

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
# Elementwise kernels.  Each takes a TriangleBatch and returns its values
# with the fault flags of every step; values where a flag is set are
# meaningless.


def _barycentric(f: Callable[..., Any]) -> Kernel:
    """The kernel of the center with homogeneous barycentric weights
    (f(s1, s2, s3, q1, q2, q3), f(s2, s3, s1, q2, q3, q1),
    f(s3, s1, s2, q3, q1, q2)): the generator f(a, b, c, a2, b2, c2)
    gives the weight of the vertex opposite side a, where a2 = a * a and
    so on are the batch's squared sides."""

    def kernel(t: TriangleBatch):
        s1, s2, s3, q1, q2, q3 = t.s1, t.s2, t.s3, t.q1, t.q2, t.q3
        return _weighted(
            t, f(s1, s2, s3, q1, q2, q3), f(s2, s3, s1, q2, q3, q1), f(s3, s1, s2, q3, q1, q2)
        )

    return kernel


def _weighted(t: TriangleBatch, w1: Any, w2: Any, w3: Any):
    """The point with homogeneous barycentric weights (w1, w2, w3)."""
    total = w1 + w2 + w3
    at_infinity = abs(total) <= _ZERO_WEIGHT_SUM * (abs(w1) + abs(w2) + abs(w3))
    den = _nonzero(total)
    x = (w1 * t.x1 + w2 * t.x2 + w3 * t.x3) / den
    y = (w1 * t.y1 + w2 * t.y2 + w3 * t.y3) / den
    return x, y, t.fault | _DEGENERATE * at_infinity


# The sum with term k negated: −a+b+c, a−b+c, a+b−c.
_SIGNED_SUMS = (lambda a, b, c: -a + b + c, lambda a, b, c: a - b + c, lambda a, b, c: a + b - c)


def _excenter(k: int) -> Kernel:
    """The kernel of the excenter opposite P_(k+1),
    (−s1·P1 + s2·P2 + s3·P3)/(−s1+s2+s3) for k = 0 and cyclically.  The
    three share their fault flags: all fail where any side sum with one
    side negated is <= 0."""
    signed_sum = _SIGNED_SUMS[k]

    def kernel(t: TriangleBatch):
        s1, s2, s3 = t.s1, t.s2, t.s3
        d = (-s1 + s2 + s3, s1 - s2 + s3, s1 + s2 - s3)
        inequality_fails = (d[0] <= 0.0) | (d[1] <= 0.0) | (d[2] <= 0.0)
        den = _nonzero(d[k])
        # (-s1)·x1 is -(s1·x1) exactly, so each product is formed once.
        x = signed_sum(s1 * t.x1, s2 * t.x2, s3 * t.x3) / den
        y = signed_sum(s1 * t.y1, s2 * t.y2, s3 * t.y3) / den
        return x, y, t.fault | _DEGENERATE * inequality_fails

    return kernel


def _vertex(k: int) -> Kernel:
    """The kernel of vertex P_(k+1), valid wherever the batch has a
    triangle, degenerate or not."""
    return lambda t: (t[2 * k], t[2 * k + 1], np.zeros_like(t.fault))


def _x1(t: TriangleBatch):
    """The incenter, which the batch keeps (``TriangleBatch.incenter``)."""
    return t.incenter


def _x3(t: TriangleBatch):
    """The circumcenter, which the batch keeps (``TriangleBatch.circumcenter``)."""
    return t.circumcenter


def _bevan(t: TriangleBatch):
    """X40, the circumcenter of the excentral triangle: 2·X3 − X1."""
    ox, oy, f3 = t.circumcenter
    ix, iy, f1 = t.incenter
    return 2.0 * ox - ix, 2.0 * oy - iy, f3 | f1


def _excentral_centroid(t: TriangleBatch):
    """X165, the centroid of the excentral triangle: X3 + (X3 − X1)/3."""
    ox, oy, f3 = t.circumcenter
    ix, iy, f1 = t.incenter
    return (4.0 * ox - ix) / 3.0, (4.0 * oy - iy) / 3.0, f3 | f1


def _circumradius(t: TriangleBatch):
    """s1 s2 s3 / 4K, which the batch keeps (``TriangleBatch.circumradius``)."""
    return t.s1 * t.s2 * t.s3 / (4.0 * t.area)


def _circumcircle_inverse(t: TriangleBatch, px: Any, py: Any, fault: Any):
    """Inverse of p in the circumcircle about X3, of the batch's
    circumradius."""
    ox, oy, f3 = t.circumcenter
    x, y, ok = _invert(px, py, ox, oy, t.circumradius)
    return x, y, fault | f3 | _unless(ok, _AT_CENTER)


def _x36(t: TriangleBatch):
    return _circumcircle_inverse(t, *t.incenter)


def _x2077(t: TriangleBatch):
    return _circumcircle_inverse(t, *_bevan(t))


def _x484(t: TriangleBatch):
    """Evans perspector: the circumcircle inverse of X35."""
    return _circumcircle_inverse(t, *_x35(t))


def _x942(t: TriangleBatch):
    """Nine-point center of the intouch triangle: midpoint of its
    circumcenter (= X1 of the base triangle) and its orthocenter."""
    ix, iy, f1 = t.incenter
    hx, hy, fh = _x65(t)
    return 0.5 * (ix + hx), 0.5 * (iy + hy), f1 | fh


# ---------------------------------------------------------------------------
# Entry points: a batch of triangles, or the batch of one.


def _raise_for(fault: Any) -> None:
    if fault & _DEGENERATE:
        raise DegenerateTriangle("degenerate triangle, or center weights summing to zero")
    if fault & _AT_CENTER:
        raise InversionOfCenter("cannot invert the circle center")


def _evaluate(kernel: Kernel, tri: TriangleBatch):
    with quiet_fp():
        return kernel(tri)


def _one(tri: Triangle) -> TriangleBatch:
    """The batch that holds one triangle."""
    return TriangleBatch.of(*(np.array([c]) for p in tri.vertices() for c in p), np.array([True]))


def center(tri: Triangle, tracked: Union[CenterDefinition, str, int]) -> Point:
    """Evaluate a tracked point (see ``kernel_of``) by its kernel on the
    batch that holds only tri; raises where that batch marks the triangle
    invalid."""
    x, y, fault = _evaluate(kernel_of(tracked), _one(tri))
    _raise_for(fault[0])
    return Point(float(x[0]), float(y[0]))


def center_arrays(tri: TriangleBatch, tracked: Union[CenterDefinition, str, int]):
    """(x, y, ok): ``center`` on every triangle of a batch at once.

    ok is false where the batch has no triangle or where ``center``
    raises for it.
    """
    x, y, fault = _evaluate(kernel_of(tracked), tri)
    return x, y, tri.ok & (fault == 0)


def excenters(tri: Triangle) -> ExcentralTriangle:
    """Excenters of a triangle, the vertices of its excentral triangle:
    ``center`` of P1', P2' and P3'."""
    return ExcentralTriangle(*(center(tri, pid) for pid in ("P1'", "P2'", "P3'")))


# ---------------------------------------------------------------------------
# Weight generators for _barycentric: f(a, b, c, a2, b2, c2) is the
# weight of the vertex opposite side a; a2, b2 and c2 are the squared
# sides.  A generator that reads no square takes them as *_.


def _cosines(t: TriangleBatch) -> Tuple[Any, Any, Any]:
    """(cos A, cos B, cos C) of a batch, with A the angle at P1, etc.;
    the batch keeps them (``TriangleBatch.cosines``)."""
    ca = (t.q2 + t.q3 - t.q1) / (2.0 * t.s2 * t.s3)
    cb = (t.q3 + t.q1 - t.q2) / (2.0 * t.s3 * t.s1)
    cc = (t.q1 + t.q2 - t.q3) / (2.0 * t.s1 * t.s2)
    return (ca, cb, cc)


def _w_x3(a, b, c, a2, b2, c2):
    return a2 * (b2 + c2 - a2)


def _w_x4(a, b, c, a2, b2, c2):
    return (c2 + a2 - b2) * (a2 + b2 - c2)


def _w_x5(a, b, c, a2, b2, c2):
    e = b2 - c2
    return a2 * (b2 + c2) - e * e


def _w_x11(a, b, c, *_):
    e = b - c
    return e * e * (b + c - a)


def _w_x35(a, b, c, a2, b2, c2):
    return a2 * (b2 + c2 - a2 + b * c)


def _w_x56(a, b, c, a2, *_):
    return a2 * (c + a - b) * (a + b - c)


def _w_x57(a, b, c, *_):
    return a * (c + a - b) * (a + b - c)


def _w_x59(a, b, c, a2, *_):
    ab = a - b
    ac = a - c
    return a2 * (ab * ab) * (ac * ac) * (c + a - b) * (a + b - c)


def _w_x354(a, b, c, *_):
    e = b - c
    return a * (a * (b + c) - e * e)


def _x46(t: TriangleBatch):
    """Trilinears cos B + cos C - cos A, times the side for barycentric
    weights; the three cosines are shared by the three weights."""
    ca, cb, cc = t.cosines
    return _weighted(t, (cb + cc - ca) * t.s1, (cc + ca - cb) * t.s2, (ca + cb - cc) * t.s3)


def _x65(t: TriangleBatch):
    """Trilinears cos B + cos C, times the side for barycentric weights:
    the orthocenter of the intouch triangle."""
    ca, cb, cc = t.cosines
    return _weighted(t, (cb + cc) * t.s1, (cc + ca) * t.s2, (ca + cb) * t.s3)


# The incenter's and circumcenter's formulas, which a TriangleBatch
# evaluates once, on first use; the kernels _x1 and _x3 read its values.
_incenter = _barycentric(lambda a, *_: a)
_circumcenter = _barycentric(_w_x3)
_x35 = _barycentric(_w_x35)

_DEFINITIONS: List[CenterDefinition] = [
    CenterDefinition(1, _x1),
    CenterDefinition(2, _barycentric(lambda *_: 1.0)),  # barycenter
    CenterDefinition(3, _x3),
    CenterDefinition(4, _barycentric(_w_x4)),  # orthocenter
    CenterDefinition(5, _barycentric(_w_x5)),  # nine-point center
    CenterDefinition(6, _barycentric(lambda a, b, c, a2, *_: a2)),  # symmedian point
    CenterDefinition(8, _barycentric(lambda a, b, c, *_: b + c - a)),  # Nagel point
    CenterDefinition(9, _barycentric(lambda a, b, c, *_: a * (b + c - a))),  # mittenpunkt
    CenterDefinition(10, _barycentric(lambda a, b, c, *_: b + c)),  # Spieker center
    CenterDefinition(11, _barycentric(_w_x11)),  # Feuerbach point
    CenterDefinition(35, _x35),
    CenterDefinition(36, _x36),  # circumcircle inverse of the incenter
    CenterDefinition(40, _bevan),  # Bevan point
    CenterDefinition(46, _x46),
    # insimilicenter of circumcircle and incircle
    CenterDefinition(55, _barycentric(lambda a, b, c, a2, *_: a2 * (b + c - a))),
    # exsimilicenter of circumcircle and incircle
    CenterDefinition(56, _barycentric(_w_x56)),
    CenterDefinition(57, _barycentric(_w_x57)),
    # isogonal conjugate of the Feuerbach point
    CenterDefinition(59, _barycentric(_w_x59)),
    CenterDefinition(65, _x65),  # orthocenter of the intouch triangle
    CenterDefinition(165, _excentral_centroid),  # centroid of the excentral triangle
    CenterDefinition(354, _barycentric(_w_x354)),  # Weill point: centroid of the contact triangle
    CenterDefinition(484, _x484),  # Evans perspector
    CenterDefinition(942, _x942),  # nine-point center of the intouch triangle
    CenterDefinition(2077, _x2077),  # circumcircle inverse of the Bevan point
]

# Every tracked point by its id: the vertices, the excenters (P_k' is
# opposite P_k) and the built-in centers.
_KERNELS: Dict[str, Kernel] = {
    "P1": _vertex(0), "P2": _vertex(1), "P3": _vertex(2),
    "P1'": _excenter(0), "P2'": _excenter(1), "P3'": _excenter(2),
    **{f"X{d.id}": d.kernel for d in _DEFINITIONS},
}


def builtin_centers() -> List[CenterDefinition]:
    """All built-in center definitions, ordered by Kimberling index."""
    return list(_DEFINITIONS)


def kernel_of(tracked: Union[CenterDefinition, str, int]) -> Kernel:
    """The kernel of a tracked point: a CenterDefinition's own, or the
    built-in one of a vertex id (P1 P2 P3), an excenter id (P1' P2' P3'),
    a Kimberling index or a name like "X165"."""
    if isinstance(tracked, CenterDefinition):
        return tracked.kernel
    key = tracked
    if isinstance(key, int):
        key = f"X{key}"
    elif key not in _KERNELS:
        digits = key.strip()
        digits = digits[1:] if digits[:1] in ("x", "X") else digits
        if not digits.isdigit():
            raise KeyError(f"not a center identifier: {tracked!r}")
        key = f"X{int(digits)}"
    try:
        return _KERNELS[key]
    except KeyError:
        raise KeyError(f"no built-in center {key}") from None
