import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poncelet.geom import (
    CirclePencil,
    ComplexLimitingPoints,
    Conic,
    InversionOfCenter,
    Point,
    classify_conic,
    conic_span_residual,
    limiting_points,
    line_tangent_to_conic_residual,
    pencil_member,
)

from _geometry_oracle import (
    NoRealTangent,
    circle_inverse,
    line_from_points,
    line_intersection,
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
    again = Conic.from_coeffs(e.coeffs)
    assert math.dist(again.center, e.center) < 1e-12
    assert abs(again.semi_axes[0] - 2.0) < 1e-12
    assert abs(again.semi_axes[1] - 1.0) < 1e-12


def test_classify_conic_cases():
    assert classify_conic(Conic.circle(Point(0, 0), 1.0).coeffs).kind == "circle"
    assert classify_conic(Conic.axis_ellipse(Point(0, 0), 2.0, 1.0).coeffs).kind == "ellipse"


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
    """Monic-form invariants of the pencil through two nested circles."""
    R, r, d = 1.0, 0.2, 0.3
    c1 = Conic.circle(Point(d, 0.0), r)       # caustic at u = 0
    c2 = Conic.circle(Point(0.0, 0.0), R)     # outer at u = 1
    pencil = CirclePencil(c1, c2)
    for u in (0.1, 0.4, 0.8):
        m = pencil.member(u)
        want_center = d * (1.0 - u)
        want_r2 = d * d * u * u + (R * R - d * d - r * r) * u + r * r
        assert abs(m.center.x - want_center) < 1e-14
        assert abs(m.center.y) < 1e-14
        assert abs(m.semi_axes[0] ** 2 - want_r2) < 1e-14


def test_limiting_points_inverse_in_every_member():
    c1 = Conic.circle(Point(0.3, 0.0), 0.2)
    c2 = Conic.circle(Point(0.0, 0.0), 1.0)
    pencil = CirclePencil(c1, c2)
    l1, l2 = limiting_points(pencil)
    assert l1.x < l2.x
    assert abs(l1.y) < 1e-14 and abs(l2.y) < 1e-14
    for u in (0.0, 0.25, 0.6, 1.0):
        m = pencil.member(u)
        assert math.dist(circle_inverse(l1, m), l2) < 1e-10


def test_limiting_points_complex_for_intersecting_circles():
    pencil = CirclePencil(
        Conic.circle(Point(0.0, 0.0), 1.0), Conic.circle(Point(1.0, 0.0), 1.0)
    )
    with pytest.raises(ComplexLimitingPoints):
        limiting_points(pencil)


def test_conic_span_residual():
    c1 = Conic.circle(Point(0.0, 0.0), 1.0)
    c2 = Conic.circle(Point(0.3, 0.0), 0.2)
    inside = pencil_member(c1, c2, 0.37)
    assert conic_span_residual(inside, c1, c2) < 1e-12
    outside = Conic.circle(Point(0.0, 0.4), 0.5)
    assert conic_span_residual(outside, c1, c2) > 1e-3
