import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poncelet.families import BicentricParams
from poncelet.geom import (
    CIRCLE,
    DEGENERATE,
    ELLIPSE,
    HYPERBOLA,
    PARABOLA,
    POINT,
    Conic,
    GeometryError,
    InversionOfCenter,
    Point,
    classify_conic,
    conic_span_residual,
    line_tangent_to_conic_residual,
)

from _geometry_oracle import (
    _bic3_limiting_points,
    NoRealTangent,
    bic3_radius2,
    circle_inverse,
    line_from_points,
    line_intersection,
    pencil_member,
    second_intersection,
    tangent_contact_points,
    tangent_lines_from_point,
)

finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)
small_floats = st.floats(min_value=-3.0, max_value=3.0, **finite)
radii = st.floats(min_value=0.1, max_value=3.0, **finite)


def test_line_from_points_signed_distance():
    line = line_from_points(Point(0.0, 0.0), Point(2.0, 0.0))
    assert abs(abs(line.signed_distance(Point(1.0, 3.0))) - 3.0) < 1e-15
    assert abs(line.signed_distance(Point(5.0, 0.0))) < 1e-15
    # opposite sides get opposite signs
    up = line.signed_distance(Point(0.0, 1.0))
    down = line.signed_distance(Point(0.0, -1.0))
    assert up * down < 0


def test_line_intersection():
    l1 = line_from_points(Point(0.0, 0.0), Point(1.0, 1.0))
    l2 = line_from_points(Point(1.0, 0.0), Point(0.0, 1.0))
    p = line_intersection(l1, l2)
    assert math.dist(p, Point(0.5, 0.5)) < 1e-15


def test_circle_conic_basics():
    c = Conic.circle(Point(1.0, -2.0), 0.75)
    assert c.kind == "circle"
    assert math.dist(c.center, Point(1.0, -2.0)) < 1e-15
    assert abs(c.semi_axes[0] - 0.75) < 1e-15
    assert abs(c.semi_axes[1] - 0.75) < 1e-15
    # points on the circle satisfy the implicit form
    A, B, C_, D, E, F = c.coeffs
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        x, y = 1.0 + 0.75 * math.cos(t), -2.0 + 0.75 * math.sin(t)
        assert abs(A * x * x + B * x * y + C_ * y * y + D * x + E * y + F) < 1e-12


def test_axis_ellipse_roundtrip():
    e = Conic.axis_ellipse(Point(0.5, 0.25), 2.0, 1.0)
    assert e.kind == "ellipse"
    again = classify_conic(e.coeffs)
    assert math.dist(again.center, e.center) < 1e-12
    assert abs(again.semi_axes[0] - 2.0) < 1e-12
    assert abs(again.semi_axes[1] - 1.0) < 1e-12


def test_classify_conic_cases():
    assert classify_conic(Conic.circle(Point(0, 0), 1.0).coeffs).kind == "circle"
    assert classify_conic(Conic.axis_ellipse(Point(0, 0), 2.0, 1.0).coeffs).kind == "ellipse"


@pytest.mark.parametrize(
    "conic, shape",
    [
        (Conic.circle(Point(1.0, 0.0), 1e-6), (CIRCLE, (1.0, 0.0), (1e-6, 1e-6), 0.0)),
        (Conic.circle(Point(0.3, -0.1), 0.0), (POINT, (0.3, -0.1), (0.0, 0.0), 0.0)),
        (Conic.axis_ellipse(Point(0.5, 0.25), 2.0, 1.0), (ELLIPSE, (0.5, 0.25), (2.0, 1.0), 0.0)),
        (
            Conic.axis_ellipse(Point(0.5, 0.25), 1.0, 2.0),
            (ELLIPSE, (0.5, 0.25), (2.0, 1.0), math.pi / 2.0),
        ),
        (Conic.axis_ellipse(Point(0.0, 0.0), 1.5, 1.5), (CIRCLE, (0.0, 0.0), (1.5, 1.5), 0.0)),
    ],
)
def test_known_conics_keep_the_shape_they_are_given(conic, shape):
    """``Conic.circle`` and ``Conic.axis_ellipse`` store the given center
    and semi-axes exactly, the major one first: a circle of radius 1e-6 at
    distance 1 stays a circle, and a zero radius gives a point."""
    assert (conic.kind, conic.center, conic.semi_axes, conic.axis_angle) == shape


@pytest.mark.parametrize("k", [10.0 ** e for e in range(-3, 5)])
def test_conic_kind_does_not_depend_on_the_frame_scale(k):
    """Each conic, drawn with every length multiplied by k, keeps its kind,
    and its center and semi-axes scale by k."""
    theta = 0.3
    cos, sin = math.cos(theta), math.sin(theta)
    # The ellipse x'^2/4 + y'^2 = k^2 in axes turned by theta, about (k, -k).
    qa, qb, qc = cos * cos / 4.0 + sin * sin, 2.0 * cos * sin * (1.0 / 4.0 - 1.0), sin * sin / 4.0 + cos * cos
    rotated = classify_conic([qa, qb, qc, -2.0 * qa * k + qb * k, -qb * k + 2.0 * qc * k,
                              (qa - qb + qc) * k * k - k * k])
    cases = [
        (Conic.circle(Point(0.0, 0.0), k), CIRCLE, (k, k)),
        (Conic.circle(Point(0.3 * k, -0.1 * k), 0.2 * k), CIRCLE, (0.2 * k, 0.2 * k)),
        (Conic.axis_ellipse(Point(0.5 * k, 0.25 * k), 2.0 * k, k), ELLIPSE, (2.0 * k, k)),
        (rotated, ELLIPSE, (2.0 * k, k)),
        (Conic.circle(Point(0.3 * k, 0.0), 0.0), POINT, (0.0, 0.0)),
        (classify_conic([1.0, 0.0, -1.0, 0.0, 0.0, -k * k]), HYPERBOLA, None),
        (classify_conic([1.0, 0.0, 0.0, 0.0, -k, 0.0]), PARABOLA, None),
        (classify_conic([1.0, 0.0, -1.0, -2.0 * k, 0.0, k * k]), DEGENERATE, None),
        (classify_conic([1.0, 0.0, 1.0, 0.0, 0.0, k * k]), DEGENERATE, None),
    ]
    for conic, kind, axes in cases:
        assert conic.kind == kind
        if axes is None:
            assert conic.semi_axes is None
        else:
            assert conic.semi_axes == pytest.approx(axes, rel=1e-12, abs=1e-12 * k)
    assert math.dist(rotated.center, (k, -k)) < 1e-12 * k
    assert rotated.axis_angle == pytest.approx(theta, rel=1e-12)


@given(cx=small_floats, cy=small_floats, r=radii, px=small_floats, py=small_floats)
def test_circle_inverse_involution(cx, cy, r, px, py):
    circle = Conic.circle(Point(cx, cy), r)
    p = Point(px, py)
    if math.dist(p, Point(cx, cy)) < 1e-3:
        return
    q = circle_inverse(p, circle)
    back = circle_inverse(q, circle)
    assert math.dist(back, p) < 1e-9 * max(1.0, math.dist(p, Point(cx, cy)))
    # |cp| * |cq| = r^2
    prod = math.dist(p, Point(cx, cy)) * math.dist(q, Point(cx, cy))
    assert abs(prod - r * r) < 1e-9 * r * r


def test_circle_inverse_fixes_boundary_and_rejects_center():
    circle = Conic.circle(Point(0.0, 0.0), 2.0)
    on = Point(2.0, 0.0)
    assert math.dist(circle_inverse(on, circle), on) < 1e-14
    with pytest.raises(InversionOfCenter):
        circle_inverse(Point(0.0, 0.0), circle)


def test_second_intersection_on_circle():
    circle = Conic.circle(Point(0.0, 0.0), 1.0)
    p = Point(1.0, 0.0)
    direction = (-1.0, 0.5)
    q = second_intersection(circle, p, direction)
    assert abs(math.hypot(q.x, q.y) - 1.0) < 1e-12
    assert math.dist(q, p) > 1e-6
    line = line_from_points(p, Point(p.x - 1.0, p.y + 0.5))
    assert abs(line.signed_distance(q)) < 1e-12


def test_tangent_lines_from_external_point():
    circle = Conic.circle(Point(0.0, 0.0), 1.0)
    p = Point(2.0, 0.0)
    lines = tangent_lines_from_point(p, circle)
    assert len(lines) == 2
    for line in lines:
        assert abs(line.signed_distance(p)) < 1e-12
        assert abs(line_tangent_to_conic_residual(line, circle)) < 1e-12
    contacts = tangent_contact_points(p, circle)
    for q in contacts:
        assert abs(math.hypot(q.x, q.y) - 1.0) < 1e-12
    # the 30-60-90 geometry of this configuration
    ys = sorted(q.y for q in contacts)
    assert abs(ys[0] + ys[1]) < 1e-12
    assert abs(abs(ys[0]) - math.sqrt(3.0) / 2.0) < 1e-12


def test_tangent_from_inside_raises():
    circle = Conic.circle(Point(0.0, 0.0), 1.0)
    with pytest.raises(NoRealTangent):
        tangent_lines_from_point(Point(0.2, 0.1), circle)


def test_tangency_residual_sign_convention():
    """Positive means the line cuts the conic, negative means it misses."""
    circle = Conic.circle(Point(0.0, 0.0), 1.0)
    secant = line_from_points(Point(-2.0, 0.0), Point(2.0, 0.0))
    missing = line_from_points(Point(-2.0, 1.5), Point(2.0, 1.5))
    tangent = line_from_points(Point(-2.0, 1.0), Point(2.0, 1.0))
    assert line_tangent_to_conic_residual(secant, circle) > 0.5
    assert line_tangent_to_conic_residual(missing, circle) < -0.4
    assert abs(line_tangent_to_conic_residual(tangent, circle)) < 1e-12


def test_tangency_residual_ellipse():
    e = Conic.axis_ellipse(Point(0.0, 0.0), 2.0, 1.0)
    tangent = line_from_points(Point(-3.0, 1.0), Point(3.0, 1.0))
    assert abs(line_tangent_to_conic_residual(tangent, e)) < 1e-12
    # support-style: tangent at the major-axis end
    vert = line_from_points(Point(2.0, -1.0), Point(2.0, 1.0))
    assert abs(line_tangent_to_conic_residual(vert, e)) < 1e-12


def test_tangency_residual_point_conic():
    """A point conic's residual is minus the line's distance to it."""
    dot = Conic.circle(Point(1.0, 2.0), 0.0)
    assert dot.kind == POINT
    line = line_from_points(Point(-3.0, 0.5), Point(3.0, 0.5))
    assert abs(line_tangent_to_conic_residual(line, dot) + 1.5) < 1e-15
    through = line_from_points(Point(1.0, -1.0), Point(1.0, 4.0))
    assert abs(line_tangent_to_conic_residual(through, dot)) < 1e-15


@pytest.mark.parametrize(
    "values, kind",
    [
        ([1.0, 0.0, -1.0, 0.0, 0.0, -1.0], HYPERBOLA),
        ([1.0, 0.0, 0.0, 0.0, -1.0, 0.0], PARABOLA),
        ([1.0, 0.0, -1.0, -2.0, 0.0, 1.0], DEGENERATE),
    ],
)
def test_tangency_residual_rejects_other_kinds(values, kind):
    conic = classify_conic(values)
    assert conic.kind == kind
    line = line_from_points(Point(-3.0, 0.5), Point(3.0, 0.5))
    with pytest.raises(GeometryError, match=kind):
        line_tangent_to_conic_residual(line, conic)


@given(u=st.floats(min_value=-0.5, max_value=1.5, **finite))
def test_pencil_member_is_the_affine_combination(u):
    """Members combine the trace-normalized (monic) coefficient vectors."""
    c1 = Conic.circle(Point(0.0, 0.0), 1.0)
    c2 = Conic.circle(Point(0.3, 0.0), 0.2)
    member = pencil_member(c1, c2, u)
    q1 = np.asarray(c1.coeffs)
    q2 = np.asarray(c2.coeffs)
    q1 = q1 * (2.0 / (q1[0] + q1[2]))
    q2 = q2 * (2.0 / (q2[0] + q2[2]))
    target = (1.0 - u) * q1 + u * q2
    got = np.asarray(member.coeffs)
    cross = np.outer(target, got) - np.outer(got, target)
    assert float(np.max(np.abs(cross))) < 1e-12


def test_pencil_member_endpoints():
    c1 = Conic.circle(Point(0.0, 0.0), 1.0)
    c2 = Conic.circle(Point(0.3, 0.0), 0.2)
    m0 = pencil_member(c1, c2, 0.0)
    m1 = pencil_member(c1, c2, 1.0)
    assert math.dist(m0.center, c1.center) < 1e-14
    assert abs(m0.semi_axes[0] - 1.0) < 1e-14
    assert math.dist(m1.center, c2.center) < 1e-14
    assert abs(m1.semi_axes[0] - 0.2) < 1e-14


def test_circle_pencil_member_closed_form():
    """The bicentric pencil's closed form (center d(1 - u), squared
    radius k2 u^2 + k1 u + k0) is the monic-form member through the
    caustic (u = 0) and the outer circle (u = 1), and the pencil circle
    ``BicentricParams.pencil_shape`` gives."""
    R, r, d = 1.0, 0.2, 0.3
    c1 = Conic.circle(Point(d, 0.0), r)
    c2 = Conic.circle(Point(0.0, 0.0), R)
    k2, k1, k0 = bic3_radius2(BicentricParams(R, r, d))
    for u in (0.1, 0.4, 0.8):
        m = pencil_member(c1, c2, u)
        assert abs(m.center.x - d * (1.0 - u)) < 1e-14
        assert abs(m.center.y) < 1e-14
        assert abs(m.semi_axes[0] ** 2 - (k2 * u * u + k1 * u + k0)) < 1e-14
        p, q, c = BicentricParams(R, r, d, u).pencil_shape()
        assert p == q
        assert abs(c - d * (1.0 - u)) < 1e-14
        assert abs(p * p - (k2 * u * u + k1 * u + k0)) < 1e-14


def test_limiting_points_inverse_in_every_member():
    """The two limiting points are inverse in every member of the
    pencil, and each is the pencil's point circle at its root u."""
    R, r, d = 1.0, 0.2, 0.3
    c1 = Conic.circle(Point(d, 0.0), r)
    c2 = Conic.circle(Point(0.0, 0.0), R)
    l1, l2 = _bic3_limiting_points(BicentricParams(R, r, d))
    assert l1.x < l2.x
    assert l1.y == 0.0 and l2.y == 0.0
    for u in (0.0, 0.25, 0.6, 1.0):
        m = pencil_member(c1, c2, u)
        assert math.dist(circle_inverse(l1, m), l2) < 1e-10 * R
    for point in (l1, l2):
        m = pencil_member(c1, c2, 1.0 - point.x / d)
        assert m.kind == POINT
        assert math.dist(m.center, point) < 1e-10 * R


@pytest.mark.parametrize("d", [0.25, 1e-3, 1e-6, 0.0])
def test_limiting_points_are_inverse_in_the_outer_circle(d):
    """x_inner * x_outer = R^2 to rounding, also at small d, where the
    textbook root formula cancels; a concentric pair has both points at
    the common center."""
    inner, outer = _bic3_limiting_points(BicentricParams(1.0, 0.15, d))
    if d == 0.0:
        assert inner == outer == (0.0, 0.0)
    else:
        assert d < inner.x < d + 0.15 < 1.0 < outer.x
        assert inner.x * outer.x == pytest.approx(1.0, rel=1e-14)


def test_conic_span_residual():
    c1 = Conic.circle(Point(0.0, 0.0), 1.0)
    c2 = Conic.circle(Point(0.3, 0.0), 0.2)
    inside = pencil_member(c1, c2, 0.37)
    assert conic_span_residual(inside, c1, c2) < 1e-12
    outside = Conic.circle(Point(0.0, 0.4), 0.5)
    assert conic_span_residual(outside, c1, c2) > 1e-3
