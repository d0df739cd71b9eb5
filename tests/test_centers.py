import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poncelet.geom import Conic, Point
from poncelet.families import (
    BicentricParams,
    DegenerateTriangle,
    FamilyConfig,
    Triangle,
    TriangleBatch,
    bic1_config,
    bic2_config,
    bic3_config,
    chapple_distance,
    conf1_config,
    conf2_config,
    conf3_config,
)
from poncelet import centers as C
from poncelet.loci import trace_locus

from _geometry_oracle import (
    MeasuredTriangle,
    circle_inverse,
    contact_triangle,
    line_from_coefficients,
    line_from_points,
    line_intersection,
)

# ---------------------------------------------------------------------------
# deterministic scalene fixtures

T345 = MeasuredTriangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), 0.0)


def _random_triangles(count: int = 25, seed: int = 11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        pts = rng.uniform(-2.0, 2.0, (3, 2))
        tri = MeasuredTriangle(Point(*pts[0]), Point(*pts[1]), Point(*pts[2]), 0.0)
        if tri.area() > 0.4:
            out.append(tri)
    return out


TRIS = _random_triangles()


def _bary(tri: Triangle, f) -> Point:
    """Cartesian point from a barycentric weight f(a, b, c), cycled.

    Our convention: side s1 = |P2P3| is opposite P1, so f(s1, s2, s3)
    weights P1.
    """
    s1, s2, s3 = tri.side_lengths()
    w1, w2, w3 = f(s1, s2, s3), f(s2, s3, s1), f(s3, s1, s2)
    total = w1 + w2 + w3
    return Point(
        (w1 * tri.p1.x + w2 * tri.p2.x + w3 * tri.p3.x) / total,
        (w1 * tri.p1.y + w2 * tri.p2.y + w3 * tri.p3.y) / total,
    )


def _cos(a, b, c):
    """The cosine of the angle opposite side a, by the law of cosines."""
    return (b * b + c * c - a * a) / (2.0 * b * c)


def _trilinear(f):
    """The barycentric weight a * f(a, b, c) of trilinear coordinates f."""
    return lambda a, b, c: a * f(a, b, c)


# independently known barycentric weights (trilinears times the side)
BARYCENTRIC = {
    "X1": lambda a, b, c: a,
    "X2": lambda a, b, c: 1.0,
    "X3": lambda a, b, c: a * a * (b * b + c * c - a * a),
    "X4": lambda a, b, c: (a * a + b * b - c * c) * (a * a + c * c - b * b),
    "X9": lambda a, b, c: a * (b + c - a),
    "X35": lambda a, b, c: a * a * (b * b + c * c - a * a + b * c),
    "X36": lambda a, b, c: a * a * (b * b + c * c - a * a - b * c),
    "X40": _trilinear(lambda a, b, c: _cos(b, c, a) + _cos(c, a, b) - _cos(a, b, c) - 1.0),
    "X46": _trilinear(lambda a, b, c: _cos(b, c, a) + _cos(c, a, b) - _cos(a, b, c)),
    "X55": lambda a, b, c: a * a * (b + c - a),
    "X56": lambda a, b, c: a * a / (b + c - a),
    "X57": lambda a, b, c: a / (b + c - a),
    "X65": _trilinear(lambda a, b, c: _cos(b, c, a) + _cos(c, a, b)),
}


def test_345_frozen_values():
    assert math.dist(C.center(T345, "X1"), Point(1.0, 1.0)) < 1e-14
    assert math.dist(C.center(T345, "X2"), Point(4.0 / 3.0, 1.0)) < 1e-14
    assert math.dist(C.center(T345, "X3"), Point(2.0, 1.5)) < 1e-13
    assert math.dist(C.center(T345, "X40"), Point(3.0, 2.0)) < 1e-13
    assert math.dist(C.center(T345, "X165"), Point(7.0 / 3.0, 5.0 / 3.0)) < 1e-12
    ex = C.excenters(T345)
    assert math.dist(ex.p1p, Point(6.0, 6.0)) < 1e-12


@pytest.mark.parametrize("key", sorted(BARYCENTRIC))
def test_barycentric_oracles(key):
    f = BARYCENTRIC[key]
    for tri in TRIS:
        want = _bary(tri, f)
        got = C.center(tri, key)
        assert math.dist(want, got) < 1e-10


def test_center_accepts_int_and_string():
    assert math.dist(C.center(T345, 1), C.center(T345, "X1")) < 1e-15
    assert C.kernel_of("x9") is C.kernel_of(" X009 ") is C.kernel_of(9)
    # Vertex and excenter ids go through the same lookup.
    assert C.center(T345, "P2") == T345.p2
    assert C.center(T345, "P1'") == C.excenters(T345).p1p
    with pytest.raises(KeyError):
        C.center(T345, "X99999")


def test_builtin_catalog_contains_the_tracked_ids():
    ids = {defn.id for defn in C.builtin_centers()}
    for key in (1, 2, 3, 4, 5, 9, 35, 36, 40, 46,
                55, 56, 57, 65, 165, 354, 484, 942, 2077):
        assert key in ids


def test_orthocenter_altitudes_and_euler_line():
    for tri in TRIS:
        x2 = C.center(tri, "X2")
        x3 = C.center(tri, "X3")
        x4 = C.center(tri, "X4")
        x5 = C.center(tri, "X5")
        scale = max(tri.side_lengths())
        # altitude feet construction
        l1 = line_from_points(tri.p2, tri.p3)
        l2 = line_from_points(tri.p3, tri.p1)
        a1 = line_from_coefficients(-l1.b, l1.a, l1.b * tri.p1.x - l1.a * tri.p1.y)
        a2 = line_from_coefficients(-l2.b, l2.a, l2.b * tri.p2.x - l2.a * tri.p2.y)
        assert math.dist(line_intersection(a1, a2), x4) < 1e-10 * scale
        # H = 3 G - 2 O and N = midpoint(O, H)
        assert math.dist(Point(3 * x2.x - 2 * x3.x, 3 * x2.y - 2 * x3.y), x4) < 1e-10 * scale
        assert math.dist(Point((x3.x + x4.x) / 2, (x3.y + x4.y) / 2), x5) < 1e-10 * scale


def test_circumcenter_equidistant():
    for tri in TRIS:
        x3 = C.center(tri, "X3")
        dists = [math.dist(x3, v) for v in tri.vertices()]
        assert max(dists) - min(dists) < 1e-11 * max(dists)
        assert abs(tri.circumradius() - dists[0]) < 1e-11 * dists[0]


def test_excentral_constructions():
    for tri in TRIS:
        ex = C.excenters(tri)
        exct = Triangle(*ex.vertices(), 0.0)
        scale = max(tri.side_lengths())
        # X40 is the circumcenter of the excentral triangle
        assert math.dist(C.center(exct, 3), C.center(tri, "X40")) < 1e-9 * scale
        # X165 is its centroid
        cen = Point(
            (ex.p1p.x + ex.p2p.x + ex.p3p.x) / 3.0,
            (ex.p1p.y + ex.p2p.y + ex.p3p.y) / 3.0,
        )
        assert math.dist(cen, C.center(tri, "X165")) < 1e-10 * scale
        # which is X3 + (X3 - X1)/3
        x1, x3 = C.center(tri, 1), C.center(tri, 3)
        x165 = Point(x3.x + (x3.x - x1.x) / 3.0, x3.y + (x3.y - x1.y) / 3.0)
        assert math.dist(x165, C.center(tri, "X165")) < 1e-12 * scale
        # the incenter is its orthocenter: X1 sits on every altitude
        for apex, base1, base2 in (
            (ex.p1p, ex.p2p, ex.p3p),
            (ex.p2p, ex.p3p, ex.p1p),
        ):
            side = line_from_points(base1, base2)
            alt = line_from_coefficients(
                -side.b, side.a, side.b * apex.x - side.a * apex.y
            )
            assert abs(alt.signed_distance(C.center(tri, "X1"))) < 1e-9 * scale
        # each excenter lies on one internal and two external bisectors:
        # equidistant from all three side lines
        for exc in (ex.p1p, ex.p2p, ex.p3p):
            ds = [
                abs(line_from_points(u, v).signed_distance(exc))
                for u, v in ((tri.p1, tri.p2), (tri.p2, tri.p3), (tri.p3, tri.p1))
            ]
            assert max(ds) - min(ds) < 1e-9 * scale


def test_bevan_point_alias():
    for tri in TRIS[:8]:
        x1 = C.center(tri, "X1")
        x3 = C.center(tri, "X3")
        refl = Point(2 * x3.x - x1.x, 2 * x3.y - x1.y)
        assert math.dist(C.center(tri, 40), refl) < 1e-11
        assert math.dist(C.center(tri, "X40"), refl) < 1e-11


def _intouch_triangle(tri: Triangle) -> Triangle:
    """The contact triangle; vertex i is the incircle's touchpoint on the
    side opposite P_i."""
    u1, v1, u2, v2, u3, v3 = contact_triangle(*tri.p1, *tri.p2, *tri.p3)
    return Triangle(Point(u1, v1), Point(u2, v2), Point(u3, v3), tri.t)


def test_intouch_triangle_properties():
    for tri in TRIS:
        it = _intouch_triangle(tri)
        x1 = C.center(tri, "X1")
        rin = tri.inradius()
        scale = max(tri.side_lengths())
        sides = ((tri.p2, tri.p3), (tri.p3, tri.p1), (tri.p1, tri.p2))
        for q, (u, v) in zip(it.vertices(), sides):
            assert abs(math.dist(q, x1) - rin) < 1e-11 * scale
            assert abs(line_from_points(u, v).signed_distance(q)) < 1e-11 * scale


def test_intouch_derived_centers():
    for tri in TRIS:
        it = _intouch_triangle(tri)
        scale = max(tri.side_lengths())
        # X354 is the centroid of the contact triangle
        cen = Point(
            (it.p1.x + it.p2.x + it.p3.x) / 3.0,
            (it.p1.y + it.p2.y + it.p3.y) / 3.0,
        )
        assert math.dist(cen, C.center(tri, "X354")) < 1e-10 * scale
        # X65 is its orthocenter
        l1 = line_from_points(it.p2, it.p3)
        a1 = line_from_coefficients(-l1.b, l1.a, l1.b * it.p1.x - l1.a * it.p1.y)
        l2 = line_from_points(it.p3, it.p1)
        a2 = line_from_coefficients(-l2.b, l2.a, l2.b * it.p2.x - l2.a * it.p2.y)
        assert math.dist(line_intersection(a1, a2), C.center(tri, "X65")) < 1e-9 * scale
        # X942 is its nine-point center: equidistant from the side midpoints
        mids = [
            Point((it.p1.x + it.p2.x) / 2, (it.p1.y + it.p2.y) / 2),
            Point((it.p2.x + it.p3.x) / 2, (it.p2.y + it.p3.y) / 2),
            Point((it.p3.x + it.p1.x) / 2, (it.p3.y + it.p1.y) / 2),
        ]
        x942 = C.center(tri, "X942")
        ds = [math.dist(x942, m) for m in mids]
        assert max(ds) - min(ds) < 1e-10 * scale
        # and the midpoint of the contact triangle's Euler segment
        x1 = C.center(tri, "X1")
        x65 = C.center(tri, "X65")
        assert math.dist(
            Point((x1.x + x65.x) / 2, (x1.y + x65.y) / 2), x942
        ) < 1e-10 * scale


def test_similitude_centers():
    for tri in TRIS:
        R = tri.circumradius()
        rin = tri.inradius()
        o = C.center(tri, "X3")
        i = C.center(tri, "X1")
        inner = Point(
            (rin * o.x + R * i.x) / (R + rin), (rin * o.y + R * i.y) / (R + rin)
        )
        outer = Point(
            (-rin * o.x + R * i.x) / (R - rin), (-rin * o.y + R * i.y) / (R - rin)
        )
        assert math.dist(inner, C.center(tri, "X55")) < 1e-10
        assert math.dist(outer, C.center(tri, "X56")) < 1e-10


def test_inversive_identities():
    """X36, X2077, X484 are circumcircle inverses of X1, X40, X35."""
    for tri in TRIS:
        circ = Conic.circle(C.center(tri, 3), tri.circumradius())
        scale = tri.circumradius()
        for src, dst in (("X1", "X36"), ("X40", "X2077"), ("X35", "X484")):
            got = circle_inverse(C.center(tri, src), circ)
            assert math.dist(got, C.center(tri, dst)) < 1e-8 * scale


def test_x35_section_of_the_central_segment():
    """X35 divides the circumcenter-incenter segment as R : 2r."""
    for tri in TRIS:
        R = tri.circumradius()
        rin = tri.inradius()
        o = C.center(tri, "X3")
        i = C.center(tri, "X1")
        cand = Point(
            (2 * rin * o.x + R * i.x) / (R + 2 * rin),
            (2 * rin * o.y + R * i.y) / (R + 2 * rin),
        )
        assert math.dist(cand, C.center(tri, "X35")) < 1e-11


def test_central_line_ratios():
    """X57, X65, X354, X942 sit at X3 + g(r/R) (X1 - X3) on the line OI."""
    ratios = {
        "X57": lambda k: (2 + k) / (2 - k),
        "X65": lambda k: 1 + k,
        "X354": lambda k: 1 + k / 3,
        "X942": lambda k: 1 + k / 2,
    }
    for tri in TRIS:
        R = tri.circumradius()
        k = tri.inradius() / R
        o = C.center(tri, "X3")
        i = C.center(tri, "X1")
        for key, g in ratios.items():
            cand = Point(o.x + g(k) * (i.x - o.x), o.y + g(k) * (i.y - o.y))
            assert math.dist(cand, C.center(tri, key)) < 1e-10 * R, key


def test_x46_reflection_identity():
    for tri in TRIS:
        x1 = C.center(tri, "X1")
        x56 = C.center(tri, "X56")
        refl = Point(2 * x56.x - x1.x, 2 * x56.y - x1.y)
        assert math.dist(refl, C.center(tri, "X46")) < 1e-10


def test_evans_perspector_concurrency():
    """Lines from each excenter to the reflection of the opposite
    vertex across its side concur at X484."""
    for tri in TRIS[:10]:
        ex = C.excenters(tri)
        exs = (ex.p1p, ex.p2p, ex.p3p)
        verts = tri.vertices()
        lines = []
        for k in range(3):
            v = verts[k]
            side = line_from_points(verts[(k + 1) % 3], verts[(k + 2) % 3])
            dist = side.signed_distance(v)
            norm = math.hypot(side.a, side.b)
            refl = Point(
                v.x - 2.0 * dist * side.a / norm, v.y - 2.0 * dist * side.b / norm
            )
            lines.append(line_from_points(exs[k], refl))
        q1 = line_intersection(lines[0], lines[1])
        q2 = line_intersection(lines[0], lines[2])
        x484 = C.center(tri, "X484")
        scale = tri.circumradius()
        assert math.dist(q1, q2) < 1e-7 * scale
        assert math.dist(q1, x484) < 1e-7 * scale


def test_central_line_membership():
    """The incenter-circumcenter line carries the whole stationary catalog."""
    members = ("X35", "X36", "X40", "X46", "X55", "X56", "X57",
               "X65", "X165", "X354", "X484", "X942", "X2077")
    for tri in TRIS:
        x1 = C.center(tri, "X1")
        x3 = C.center(tri, "X3")
        if math.dist(x1, x3) < 1e-6:
            continue
        axis = line_from_points(x1, x3)
        scale = tri.circumradius()
        for key in members:
            assert abs(axis.signed_distance(C.center(tri, key))) < 1e-8 * scale


@given(
    dx=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    dy=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    rot=st.floats(0, 2 * math.pi, allow_nan=False, allow_infinity=False),
    scale=st.floats(0.5, 2.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_similarity_equivariance(dx, dy, rot, scale):
    """Centers transform along with the triangle under similarity maps."""
    co, si = math.cos(rot), math.sin(rot)

    def xform(p: Point) -> Point:
        return Point(
            scale * (co * p.x - si * p.y) + dx, scale * (si * p.x + co * p.y) + dy
        )

    tri = T345
    tri2 = Triangle(xform(tri.p1), xform(tri.p2), xform(tri.p3), 0.0)
    for key in ("X1", "X3", "X9", "X40", "X56", "X165", "X354", "X942"):
        want = xform(C.center(tri, key))
        got = C.center(tri2, key)
        assert math.dist(want, got) < 1e-9 * scale


def test_vertex_permutation_invariance():
    perms = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
    for tri in TRIS[:6]:
        verts = tri.vertices()
        for key in ("X1", "X2", "X3", "X4", "X9", "X35", "X36", "X40", "X46",
                    "X55", "X56", "X57", "X65", "X165", "X354", "X484", "X942"):
            base = C.center(tri, key)
            for p in perms[1:]:
                permuted = Triangle(verts[p[0]], verts[p[1]], verts[p[2]], 0.0)
                assert math.dist(C.center(permuted, key), base) < 1e-9


# The six README families.  A center does not depend on the vertex
# labels, so relabelling every triangle of a 512-sample batch moves each
# point only by its kernel's rounding error.  Measured over the outer
# scale: at most 3.2e-14 (X484 on bic-III; the excenters 3.1e-14).
README_FAMILIES = [
    bic1_config(1.0, 0.25),
    bic2_config(1.0, 0.2, 0.3),
    bic3_config(1.0, 0.15, 0.25, 0.4),
    conf1_config(2.0, 1.0),
    conf2_config(2.0, 1.0, 0.5),
    conf3_config(2.0, 1.0, 0.3, 0.5),
]
LABEL_SPREAD_BOUND = 1e-12
# The three cyclic relabellings (the identity first) and one reflection.
RELABELLINGS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1))


def _relabel(tri: TriangleBatch, perm) -> TriangleBatch:
    """The batch whose vertex m is vertex perm[m] of tri."""
    verts = ((tri.x1, tri.y1), (tri.x2, tri.y2), (tri.x3, tri.y3))
    return TriangleBatch.of(*(c for m in perm for c in verts[m]), tri.ok)


EXCENTER_IDS = ("P1'", "P2'", "P3'")


def _excenter_arrays(tri: TriangleBatch):
    """((x1', x2', x3'), (y1', y2', y3'), ok) from the three excenter ids,
    whose masks agree."""
    xs, ys, oks = zip(*(C.center_arrays(tri, pid) for pid in EXCENTER_IDS))
    assert all((ok == oks[0]).all() for ok in oks)
    return xs, ys, oks[0]


@pytest.mark.parametrize("cfg", README_FAMILIES, ids=lambda cfg: cfg.kind)
def test_label_symmetry_bounds_every_kernel_rounding(cfg):
    tri = cfg.triangles(2.0 * np.pi * np.arange(512) / 512)
    batches = [_relabel(tri, perm) for perm in RELABELLINGS]
    for definition in C.builtin_centers():
        (x0, y0, ok0), *rest = [C.center_arrays(b, definition) for b in batches]
        assert ok0.sum() == 512, definition.id
        for x, y, ok in rest:
            assert (ok == ok0).all(), definition.id
            spread = np.hypot(x - x0, y - y0).max() / cfg.outer_scale
            assert spread < LABEL_SPREAD_BOUND, (definition.id, spread)
    # The excenter opposite relabelled vertex m is the one opposite perm[m].
    (xs0, ys0, ok0), *rest = [_excenter_arrays(b) for b in batches]
    assert ok0.sum() == 512
    for perm, (xs, ys, ok) in zip(RELABELLINGS[1:], rest):
        assert (ok == ok0).all()
        for m in range(3):
            spread = np.hypot(xs[m] - xs0[perm[m]], ys[m] - ys0[perm[m]]).max()
            assert spread / cfg.outer_scale < LABEL_SPREAD_BOUND, (perm, m)


def _perspector_lines(t: TriangleBatch):
    """(x, y, defined): the Evans perspector as the concurrence of the
    lines joining each excenter to the reflection of its opposite vertex
    across that vertex's opposite side.  The pair of lines with the
    largest normal cross product meets; defined is false where the
    triangle or a line is undefined, that pair is parallel, or the third
    line misses the point by more than 1e-8 of the longest side."""
    verts = ((t.x1, t.y1), (t.x2, t.y2), (t.x3, t.y3))
    s1, s2, s3 = t.s1, t.s2, t.s3
    weights = ((-s1, s2, s3), (s1, -s2, s3), (s1, s2, -s3))
    defined = t.ok & (t.fault == 0)
    lines = []
    for k, w in enumerate(weights):
        den = w[0] + w[1] + w[2]
        defined &= den > 0.0
        ex = sum(wi * v[0] for wi, v in zip(w, verts)) / den
        ey = sum(wi * v[1] for wi, v in zip(w, verts)) / den
        (px, py), (qx, qy), (rx, ry) = verts[k], verts[(k + 1) % 3], verts[(k + 2) % 3]
        nx, ny = qy - ry, rx - qx
        off = ((px - qx) * nx + (py - qy) * ny) / (nx * nx + ny * ny)
        fx, fy = px - 2.0 * off * nx, py - 2.0 * off * ny
        a, b = ey - fy, fx - ex
        norm = np.hypot(a, b)
        defined &= norm > 0.0
        a, b = a / norm, b / norm
        lines.append((a, b, -(a * ex + b * ey)))
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    cross = np.stack([lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1] for i, j, _ in pairs])
    best = np.argmax(abs(cross), axis=0)
    x, y, residual = (np.empty_like(t.x1) for _ in range(3))
    for p, (i, j, k) in enumerate(pairs):
        m = best == p
        (ai, bi, ci), (aj, bj, cj), (ak, bk, ck) = ([v[m] for v in lines[q]] for q in (i, j, k))
        det = cross[p][m]
        x[m] = (bi * cj - bj * ci) / det
        y[m] = (aj * ci - ai * cj) / det
        residual[m] = abs(ak * x[m] + bk * y[m] + ck)
    defined &= (abs(np.choose(best, cross)) > 1e-14) & (residual <= 1e-8 * np.maximum(np.maximum(t.s1, t.s2), t.s3))
    return x, y, defined


@pytest.mark.parametrize("cfg", README_FAMILIES, ids=lambda cfg: cfg.kind)
def test_x484_and_x65_equal_their_constructions(cfg):
    """X484 is the meet of the perspector lines and X65 the orthocenter of
    the intouch triangle, on the same samples, at a trace's sample count."""
    tri = cfg.triangles(2.0 * np.pi * np.arange(1024) / 1024)
    x, y, defined = _perspector_lines(tri)
    got = C.center_arrays(tri, "X484")
    assert defined.sum() > 1000
    assert (got[2] == defined).all()
    assert np.hypot(got[0] - x, got[1] - y)[defined].max() < 1e-9 * cfg.outer_scale
    intouch = TriangleBatch.of(*contact_triangle(*tri[:6]), tri.ok)
    hx, hy, hok = C.center_arrays(intouch, 4)
    hok &= tri.fault == 0
    got = C.center_arrays(tri, "X65")
    assert hok.sum() > 1000
    assert (got[2] == hok).all()
    assert np.hypot(got[0] - hx, got[1] - hy)[hok].max() < 1e-9 * cfg.outer_scale


# The README families, a bic-II caustic close to the outer circle and a
# conf-II caustic close to its degenerate end (minor semi-axis 0.1).
X354_FAMILIES = README_FAMILIES + [bic2_config(1.0, 0.05, 0.9), conf2_config(5.0, 1.0, 0.99)]


@pytest.mark.parametrize("cfg", X354_FAMILIES, ids=lambda cfg: cfg.kind)
def test_x354_is_the_centroid_of_the_contact_triangle(cfg):
    """X354's weights give the contact triangle's centroid, valid where
    the construction is, within 1e-15 max(1, |X354|) of that centroid
    built at 50 digits from the same vertex coordinates."""
    mpmath = pytest.importorskip("mpmath")
    tri = cfg.triangles(2.0 * np.pi * np.arange(1024) / 1024)
    x, y, ok = C.center_arrays(tri, "X354")
    assert ok.sum() > 1000
    assert (ok == (tri.ok & (tri.fault == 0))).all()
    with mpmath.workdps(50):
        exact = [np.array([mpmath.mpf(float(c)) for c in v[ok]], dtype=object) for v in tri[:6]]
        u1, v1, u2, v2, u3, v3 = contact_triangle(*exact)
        dx = ((u1 + u2 + u3) / 3 - x[ok]).astype(float)
        dy = ((v1 + v2 + v3) / 3 - y[ok]).astype(float)
    err = np.hypot(dx, dy) / np.maximum(1.0, np.hypot(x[ok], y[ok]))
    assert err.max() <= 1e-15, err.max()


def test_bic1_frozen_positions():
    """Closing-pair positions of the catalog centers on the x-axis."""
    R, r = 1.0, 0.25
    d = chapple_distance(R, r)
    tri = FamilyConfig("bic-II", BicentricParams(R, r, d)).triangle(0.3)
    expected = {
        "X1": d,
        "X3": 0.0,
        "X40": -d,
        "X165": -d / 3.0,
        "X36": R * R / d,
        "X55": R * d / (R + r),
        "X56": R * d / (R - r),
        "X2077": -R * R / d,
    }
    for key, x in expected.items():
        p = C.center(tri, key)
        assert math.dist(p, Point(x, 0.0)) < 1e-9


# ---------------------------------------------------------------------------
# The kernels that share their subexpressions against the expressions they
# replaced, written out here as they were.


def _old_barycentric(f):
    def kernel(t):
        w1, w2, w3 = f(t.s1, t.s2, t.s3), f(t.s2, t.s3, t.s1), f(t.s3, t.s1, t.s2)
        total = w1 + w2 + w3
        at_infinity = abs(total) <= C._ZERO_WEIGHT_SUM * (abs(w1) + abs(w2) + abs(w3))
        x = (w1 * t.x1 + w2 * t.x2 + w3 * t.x3) / C._nonzero(total)
        y = (w1 * t.y1 + w2 * t.y2 + w3 * t.y3) / C._nonzero(total)
        return x, y, t.fault | C._DEGENERATE * at_infinity

    return kernel


def _old_cosines(a, b, c):
    ca = (b * b + c * c - a * a) / (2.0 * b * c)
    cb = (c * c + a * a - b * b) / (2.0 * c * a)
    cc = (a * a + b * b - c * c) / (2.0 * a * b)
    return (ca, cb, cc)


def _old_w_x3(a, b, c):
    return a * a * (b * b + c * c - a * a)


def _old_w_x4(a, b, c):
    return (c * c + a * a - b * b) * (a * a + b * b - c * c)


def _old_w_x5(a, b, c):
    e = b * b - c * c
    return a * a * (b * b + c * c) - e * e


def _old_w_x35(a, b, c):
    return a * a * (b * b + c * c - a * a + b * c)


def _old_w_x56(a, b, c):
    return a * a * (c + a - b) * (a + b - c)


def _old_w_x59(a, b, c):
    ab = a - b
    ac = a - c
    return a * a * (ab * ab) * (ac * ac) * (c + a - b) * (a + b - c)


def _old_w_x46(a, b, c):
    ca, cb, cc = _old_cosines(a, b, c)
    return (cb + cc - ca) * a


_old_incenter = _old_barycentric(lambda a, b, c: a)
_old_circumcenter = _old_barycentric(_old_w_x3)


def _old_excenters(t):
    s1, s2, s3 = t.s1, t.s2, t.s3
    d1, d2, d3 = -s1 + s2 + s3, s1 - s2 + s3, s1 + s2 - s3
    fails = (d1 <= 0.0) | (d2 <= 0.0) | (d3 <= 0.0)
    d1, d2, d3 = C._nonzero(d1), C._nonzero(d2), C._nonzero(d3)
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
    return xs, ys, t.fault | C._DEGENERATE * fails


def _old_vertex(k):
    return lambda t: (t[2 * k], t[2 * k + 1], 0 * t.fault)


def _old_excenter(k):
    def kernel(t):
        xs, ys, fault = _old_excenters(t)
        return xs[k], ys[k], fault

    return kernel


def _old_bevan(t):
    ox, oy, f3 = _old_circumcenter(t)
    ix, iy, f1 = _old_incenter(t)
    return 2.0 * ox - ix, 2.0 * oy - iy, f3 | f1


def _old_circumcircle_inverse(t, px, py, fault):
    ox, oy, f3 = _old_circumcenter(t)
    radius = t.s1 * t.s2 * t.s3 / (4.0 * t.area)
    x, y, ok = C._invert(px, py, ox, oy, radius)
    return x, y, fault | f3 | C._unless(ok, C._AT_CENTER)


def _old_w_x65(a, b, c):
    ca, cb, cc = _old_cosines(a, b, c)
    return (cb + cc) * a


def _old_excentral_centroid(t):
    ox, oy, f3 = _old_circumcenter(t)
    ix, iy, f1 = _old_incenter(t)
    return (4.0 * ox - ix) / 3.0, (4.0 * oy - iy) / 3.0, f3 | f1


def _old_x942(t):
    ix, iy, f1 = _old_incenter(t)
    hx, hy, fh = _old_barycentric(_old_w_x65)(t)
    return 0.5 * (ix + hx), 0.5 * (iy + hy), f1 | fh


OLD_KERNELS = {
    1: _old_incenter,
    3: _old_circumcenter,
    4: _old_barycentric(_old_w_x4),
    5: _old_barycentric(_old_w_x5),
    6: _old_barycentric(lambda a, b, c: a * a),
    35: _old_barycentric(_old_w_x35),
    36: lambda t: _old_circumcircle_inverse(t, *_old_incenter(t)),
    40: _old_bevan,
    46: _old_barycentric(_old_w_x46),
    55: _old_barycentric(lambda a, b, c: a * a * (b + c - a)),
    56: _old_barycentric(_old_w_x56),
    59: _old_barycentric(_old_w_x59),
    65: _old_barycentric(_old_w_x65),
    165: _old_excentral_centroid,
    484: lambda t: _old_circumcircle_inverse(t, *_old_barycentric(_old_w_x35)(t)),
    942: _old_x942,
    2077: lambda t: _old_circumcircle_inverse(t, *_old_bevan(t)),
    "P1": _old_vertex(0),
    "P2": _old_vertex(1),
    "P3": _old_vertex(2),
    "P1'": _old_excenter(0),
    "P2'": _old_excenter(1),
    "P3'": _old_excenter(2),
}
# Degenerate rows after every family's grid: collinear, coincident, all
# coincident, and a triangle whose weight sums vanish for some centers.
DEGENERATE_ROWS = [
    ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
    ((0.5, 0.5), (0.5, 0.5), (2.0, -1.0)),
    ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)),
    ((0.0, 0.0), (2.0, 0.0), (1.0, 1e-9)),
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# bic-III at u = 1.2 has members only on part of the grid: the coordinates
# it gives elsewhere are meaningless, and go through the kernels too.
@pytest.mark.parametrize(
    "cfg", README_FAMILIES + [bic3_config(1.0, 0.2, 0.3, 1.2)], ids=lambda cfg: cfg.kind
)
def test_shared_subexpression_kernels_keep_their_bits(cfg):
    tri = cfg.triangles(2.0 * np.pi * np.arange(1024) / 1024)
    extra = np.array([[c for v in row for c in v] for row in DEGENERATE_ROWS]).T
    ok = np.concatenate((tri.ok, np.ones(len(DEGENERATE_ROWS), dtype=bool)))
    shape = TriangleBatch.of(*(np.concatenate((v, e)) for v, e in zip(tri[:6], extra)), ok)
    for key, old in OLD_KERNELS.items():
        got, want = C._evaluate(C.kernel_of(key), shape), C._evaluate(old, shape)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), key
    # excenters, on each triangle alone: the old bits where the old fault
    # flag is clear, and the error of that flag where it is set.
    wx, wy, wf = C._evaluate(_old_excenters, shape)
    for i in range(len(ok)):
        x1, y1, x2, y2, x3, y3 = (float(v[i]) for v in shape[:6])
        tri_i = Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3), 0.0)
        if wf[i]:
            with pytest.raises(DegenerateTriangle):
                C.excenters(tri_i)
        else:
            got = C.excenters(tri_i).vertices()
            assert _same_bits(got, [(x[i], y[i]) for x, y in zip(wx, wy)]), i


# ---------------------------------------------------------------------------
# The values a batch keeps: its incenter, circumcenter, circumradius and
# cosines, each computed once, on first use, and read by every kernel that composes it.

TRACKED_IDS = [f"X{d.id}" for d in C.builtin_centers()] + list(EXCENTER_IDS)
GRID_64 = 2.0 * np.pi * np.arange(64) / 64


def test_a_batch_computes_each_kept_value_once(monkeypatch):
    """The 27 tracked ids on one batch compute the incenter, the
    circumcenter, the circumradius and the cosines once each (6, 6, 3 and
    3 times when every composed kernel formed its own)."""
    calls = {"_incenter": 0, "_circumcenter": 0, "_circumradius": 0, "_cosines": 0}
    for name in calls:
        def counted(t, f=getattr(C, name), name=name):
            calls[name] += 1
            return f(t)
        monkeypatch.setattr(C, name, counted)
    tri = bic2_config(1.0, 0.2, 0.3).triangles(GRID_64)
    assert len(TRACKED_IDS) == 27
    for tracked in TRACKED_IDS:
        C.center_arrays(tri, tracked)
    assert calls == {"_incenter": 1, "_circumcenter": 1, "_circumradius": 1, "_cosines": 1}


@pytest.mark.parametrize("cfg", README_FAMILIES, ids=lambda cfg: cfg.kind)
def test_a_traced_id_does_not_depend_on_the_ids_traced_before_it(cfg):
    """Each id traced over its own fresh config, and its kernel on its
    own fresh batch, have the bits (NaNs and fault flags included) of the
    same id over one shared config and batch, in a shuffled order."""
    shared = dataclasses.replace(cfg)  # a new object, with its own kept batch
    tri = cfg.triangles(2.0 * np.pi * np.arange(256) / 256)
    batch = tri._make(tri)
    order = list(TRACKED_IDS)
    random.Random(5).shuffle(order)
    together = {
        tracked: (trace_locus(shared, tracked, 256, min_valid=0), C._evaluate(C.kernel_of(tracked), batch))
        for tracked in order
    }
    for tracked in TRACKED_IDS:
        alone = trace_locus(dataclasses.replace(cfg), tracked, 256, min_valid=0)
        locus, values = together[tracked]
        for got, want in zip((locus.x, locus.y, locus.ok), (alone.x, alone.y, alone.ok)):
            assert _same_bits(got, want), tracked
        want = C._evaluate(C.kernel_of(tracked), tri._make(tri))
        assert all(_same_bits(g, w) for g, w in zip(values, want)), tracked


def test_the_kept_values_are_read_only():
    tri = bic2_config(1.0, 0.2, 0.3).triangles(GRID_64)
    x = C.center_arrays(tri, "X1")[0]
    with pytest.raises(ValueError):
        x[0] = 0.0
    for kept in (tri.incenter, tri.circumcenter, (tri.circumradius,), tri.cosines):
        assert not any(v.flags.writeable for v in kept)


def test_a_replaced_batch_computes_its_own_centers():
    tri = bic2_config(1.0, 0.2, 0.3).triangles(GRID_64)
    kept = tri.incenter, tri.circumcenter, (tri.circumradius,)
    moved = tri._replace(x1=tri.x1 + 1.0, s1=tri.s1 * 1.5)
    names = {"incenter", "circumcenter", "circumradius", "cosines"}
    assert not names & set(vars(moved))
    assert not names & set(vars(tri._make(tri)))
    formulas = (C._incenter, C._circumcenter, lambda t: (C._circumradius(t),))
    for got, old, formula in zip((moved.incenter, moved.circumcenter, (moved.circumradius,)), kept, formulas):
        assert all(_same_bits(g, w) for g, w in zip(got, C._evaluate(formula, moved)))
        assert not _same_bits(got[0], old[0])


def test_first_use_on_collinear_members_warns_nothing():
    """The kept values are computed in quiet_fp wherever they are first
    read, here outside any kernel, on collinear and coincident members."""
    rows = np.array([[c for v in row for c in v] for row in DEGENERATE_ROWS]).T
    tri = TriangleBatch.of(*rows, np.ones(len(DEGENERATE_ROWS), dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, y, fault = tri.incenter
        tri.circumcenter
        tri.circumradius
        tri.cosines
    assert (fault[:3] == C._DEGENERATE).all()
