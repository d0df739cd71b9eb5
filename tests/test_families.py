import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poncelet.geom import (
    Conic,
    Line,
    Point,
    line_tangent_to_conic_residual,
)
from poncelet.families import (
    FAMILY_SPECS,
    MINUS,
    PLUS,
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    ImaginaryPencilCircle,
    NoPoristicPair,
    TangentBranch,
    Triangle,
    TriangleBatch,
    VertexInsideCaustic,
    _bic2_envelope_circle,
    _chain_envelope_u,
    bic1_config,
    bic2_config,
    bic2_envelope,
    bic3_config,
    chapple_distance,
    conf1_config,
    conf2_config,
    conf2_envelope,
    conf3_config,
    critical_lambda,
    degenerate_envelope_inradius,
    envelope_points,
)
from poncelet import claims
from poncelet.claims import n4_lambda, n6_lambda
from poncelet.loci import _grid, convexity_lambda_root, fit_curve

from _geometry_oracle import (
    MeasuredTriangle,
    line_from_points,
    pencil_member,
    second_intersection,
    tangent_contact_points,
)

finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, **finite)
BRANCHES = [TangentBranch(f, s) for f in (PLUS, MINUS) for s in (PLUS, MINUS)]


def _side(tri: Triangle, i: int, j: int) -> Line:
    verts = tri.vertices()
    return line_from_points(verts[i], verts[j])


def _tangency(tri: Triangle, conic: Conic, i: int, j: int) -> float:
    return abs(line_tangent_to_conic_residual(_side(tri, i, j), conic))


def test_chapple_distance_value():
    assert abs(chapple_distance(1.0, 0.25) - math.sqrt(0.5)) < 1e-15
    # defining relation d^2 = R(R - 2r)
    d = chapple_distance(2.0, 0.5)
    assert abs(d * d - 2.0 * (2.0 - 1.0)) < 1e-14


def test_kerawala_holds_at_the_degenerate_inradius():
    def kerawala(R, r, d):
        return 1.0 / (R - d) ** 2 + 1.0 / (R + d) ** 2 - 1.0 / (r * r)

    R, d = 1.0, 0.3
    r = degenerate_envelope_inradius(R, d)
    assert abs(kerawala(R, r, d)) * r * r < 1e-12
    assert abs(kerawala(R, 0.9 * r, d)) > 0.1


def test_degenerate_envelope_inradius_closed_form():
    R, d = 1.0, 0.3
    r = degenerate_envelope_inradius(R, d)
    want = math.sqrt((R * R - d * d) ** 2 / (2.0 * (R * R + d * d)))
    assert abs(r - want) < 1e-15


def test_critical_lambda_value():
    assert abs(critical_lambda(2.0, 1.0) - 0.98271224485687937) < 1e-15


def test_critical_lambda_against_60_digits():
    """Within 4 ulp of 3 a^2 b^2 / (2 delta + a^2 + b^2) to 60 digits, for
    a/b from 1 + 1e-9 to 5e3 (a/b - 1 log-uniform) at four scales of b:
    the form 2 delta - a^2 - b^2 over (a^2 - b^2)^2 cancels as a -> b."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    ratios = [1.0 + 1e-9, 1.00001, 1.0000001, 5e3]
    ratios += [1.0 + 10.0 ** rng.uniform(-9.0, math.log10(5e3 - 1.0)) for _ in range(200)]
    with mpmath.workdps(60):
        for b in (1e-25, 1e-3, 1.0, 1e25):
            for ratio in ratios:
                a = ratio * b
                A, B = mpmath.mpf(a) ** 2, mpmath.mpf(b) ** 2
                want = float(3 * A * B / (2 * mpmath.sqrt(A * A - A * B + B * B) + A + B))
                got = critical_lambda(a, b)
                assert abs(got - want) <= 4.0 * math.ulp(want), (a, b, got, want)


@pytest.mark.parametrize(
    "build",
    [lambda: conf1_config(1e4, 1.0), lambda: FamilyConfig("conf-I", ConfocalParams(1e4, 1.0, 0.5))],
    ids=["conf1_config", "FamilyConfig"],
)
def test_a_closing_caustic_that_rounds_to_b_squared_is_rejected(build):
    """From a/b of about 7000 the closing lam is within half an ulp of
    b^2: conf-I raises naming a/b, not a lam range the caller never set."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == "the closing caustic at a/b=10000 rounds to lam = b^2"


def test_confocal_caustic_axes():
    p = ConfocalParams(2.0, 1.0, 0.5)
    ca, cb, c = p.caustic_shape()
    assert abs(ca - math.sqrt(4.0 - 0.5)) < 1e-15
    assert abs(cb - math.sqrt(1.0 - 0.5)) < 1e-15
    assert c == 0.0
    # closing caustic at the closing parameter: with
    # delta = sqrt(a^4 - a^2 b^2 + b^4), semi-axes a (delta - b^2) / c^2
    # and b (a^2 - delta) / c^2
    a, b = 2.0, 1.0
    cax, cay, _ = ConfocalParams(a, b, critical_lambda(a, b)).caustic_shape()
    delta = math.sqrt(a ** 4 - a * a * b * b + b ** 4)
    c2 = a * a - b * b
    assert abs(cax - a * (delta - b * b) / c2) < 1e-12
    assert abs(cay - b * (a * a - delta) / c2) < 1e-12


def test_n4_n6_caustics():
    """The caustics at the 4- and 6-bounce parameters have semi-axes
    (a^2, b^2) / sqrt(a^2 + b^2) and
    (a sqrt(a (a + 2b)), b sqrt(b (2a + b))) / (a + b)."""
    a, b = 2.0, 1.0
    lam4 = a * a * b * b / (a * a + b * b)
    ax4, ay4, _ = ConfocalParams(a, b, lam4).caustic_shape()
    root = math.sqrt(a * a + b * b)
    assert abs(ax4 - a * a / root) < 1e-14
    assert abs(ay4 - b * b / root) < 1e-14
    lam6 = (a * b / (a + b)) ** 2
    ax6, ay6, _ = ConfocalParams(a, b, lam6).caustic_shape()
    assert abs(ax6 - a * math.sqrt(a * (a + 2.0 * b)) / (a + b)) < 1e-14
    assert abs(ay6 - b * math.sqrt(b * (2.0 * a + b)) / (a + b)) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        BicentricParams(1.0, 0.5, 0.6)  # caustic pokes outside
    with pytest.raises(ValueError):
        BicentricParams(1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        ConfocalParams(1.0, 2.0, 0.5)  # a must exceed b
    with pytest.raises(ValueError):
        ConfocalParams(2.0, 1.0, 1.0)  # lam must stay below b^2
    # A caustic or pencil caustic equal to the outer conic: every vertex
    # lies on it, so no member exists.
    for lam in (0.0, 1e-300):
        with pytest.raises(ValueError, match="^caustic must be strictly inside the outer ellipse$"):
            ConfocalParams(2.0, 1.0, lam)
    with pytest.raises(ValueError, match="^bic-III's pencil caustic at u=1 is the outer conic"):
        bic3_config(1.0, 0.15, 0.25, 1.0)
    with pytest.raises(ValueError, match="^conf-III's pencil caustic at u=1 is the outer conic"):
        conf3_config(2.0, 1.0, 0.3, 1.0)
    with pytest.raises(NoPoristicPair):
        bic1_config(1.0, 0.25).__class__(
            "bic-I", BicentricParams(1.0, 0.25, 0.3)
        )
    with pytest.raises(ValueError):
        conf1_config(2.0, 1.0).__class__(
            "conf-I", ConfocalParams(2.0, 1.0, 0.5)
        )
    with pytest.raises(ValueError):
        bic2_config(1.0, 0.2, 0.3).__class__(
            "bic-III", BicentricParams(1.0, 0.2, 0.3)
        )
    # Each kind takes its own parameter class.
    with pytest.raises(ValueError, match="^bic-II needs BicentricParams$"):
        FamilyConfig("bic-II", ConfocalParams(2.0, 1.0, 0.5))
    with pytest.raises(ValueError, match="^conf-III needs ConfocalParams$"):
        FamilyConfig("conf-III", BicentricParams(1.0, 0.15, 0.25, u=0.4))
    # A pair kind takes only the default tangent branch.
    with pytest.raises(ValueError, match="^conf-II takes only the default tangent branch"):
        FamilyConfig("conf-II", ConfocalParams(2.0, 1.0, 0.5), TangentBranch(MINUS, PLUS))


@pytest.mark.parametrize(
    "kind, params, message, kept",
    [
        (
            "conf-II",
            ConfocalParams(2.0, 1.0, 2.3e-16),
            "conf-II's caustic",
            [ConfocalParams(2.0, 1.0, 1e-13)],
        ),
        (
            "bic-II",
            BicentricParams(1.0, 0.9999999999999999, 0.0),
            "bic-II's caustic",
            [BicentricParams(1.0, 0.99999, 0.0)],
        ),
        (
            "bic-III",
            BicentricParams(1.0, 0.15, 0.25, u=0.9999999999999999),
            "bic-III's pencil caustic at u=0.9999999999999999",
            [BicentricParams(1.0, 0.15, 0.25, u=0.99999), BicentricParams(1.0, 0.15, 0.25, u=1.2)],
        ),
        (
            "conf-III",
            ConfocalParams(2.0, 1.0, 0.3, u=0.9999999999999999),
            "conf-III's pencil caustic at u=0.9999999999999999",
            [ConfocalParams(2.0, 1.0, 0.3, u=0.99999)],
        ),
    ],
    ids=["conf-II", "bic-II", "bic-III", "conf-III"],
)
def test_a_caustic_that_is_the_outer_conic_to_rounding_is_rejected(kind, params, message, kept):
    """The parameters alone are valid, but every vertex lies on the
    caustic to rounding: the family is not built.  A caustic further
    off, or beyond the outer conic (no member), still builds."""
    with pytest.raises(ValueError, match=f"^{message} is the outer conic to rounding$"):
        FamilyConfig(kind, params)
    for near in kept:
        FamilyConfig(kind, near)


@pytest.mark.parametrize(
    "kind, params",
    [("bic-III", BicentricParams(1.0, 0.15, 0.25, u=0.4)),
     ("conf-III", ConfocalParams(2.0, 1.0, 0.3, u=0.5)),
     ("bic-II", BicentricParams(1.0, 0.2, 0.3))],
)
@pytest.mark.parametrize("branch", [TangentBranch("up", PLUS), TangentBranch(PLUS, "Plus")])
def test_config_rejects_an_unknown_branch_label_when_built(kind, params, branch):
    """An unknown label fails at construction, before any member is
    sampled, for a chain and for a pair alike."""
    with pytest.raises(ValueError, match="^tangent branch must be 'plus' or 'minus', got "):
        FamilyConfig(kind, params, branch)


@pytest.mark.parametrize(
    "kind, params",
    [("bic-I", BicentricParams(1.0, 0.25, chapple_distance(1.0, 0.25), u=0.4)),
     ("bic-II", BicentricParams(1.0, 0.2, 0.3, u=0.4)),
     ("conf-I", ConfocalParams(2.0, 1.0, critical_lambda(2.0, 1.0), u=0.9)),
     ("conf-II", ConfocalParams(2.0, 1.0, 0.5, u=0.0))],
)
def test_pair_config_rejects_a_pencil_parameter(kind, params):
    """A pair has one caustic, so it would never read u: a u given to it
    is an error, not a silent no-op."""
    with pytest.raises(ValueError, match=f"^{kind} takes no pencil parameter u"):
        FamilyConfig(kind, params)
    FamilyConfig(kind, dataclasses.replace(params, u=None))  # accepted without it


_FINITE_PARAMS = {
    BicentricParams: dict(R=1.0, r=0.15, d=0.25, u=0.4),
    ConfocalParams: dict(a=2.0, b=1.0, lam=0.3, u=0.5),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls, good in _FINITE_PARAMS.items() for name in good],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_params_reject_a_nonfinite_field_by_name(cls, field, bad):
    good = _FINITE_PARAMS[cls]
    cls(**good)
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
        cls(**{**good, field: bad})


@given(t=angles)
def test_bic1_closure_all_sides_tangent(t):
    cfg = bic1_config(1.0, 0.25)
    tri = cfg.triangle(t)
    caustic = cfg.caustics()[0]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert _tangency(tri, caustic, i, j) < 1e-11


@given(t=angles)
def test_bic2_construction_invariants(t):
    p = BicentricParams(1.0, 0.2, 0.3)
    tri = FamilyConfig("bic-II", p).triangle(t)
    # first vertex rides the outer circle at the driving angle
    assert math.dist(tri.p1, Point(math.cos(t), math.sin(t))) < 1e-12
    for v in tri.vertices():
        assert abs(math.hypot(v.x, v.y) - 1.0) < 1e-12
    # both tangent sides emanate from the driving vertex
    caustic = p.caustic()
    assert _tangency(tri, caustic, 0, 1) < 1e-11
    assert _tangency(tri, caustic, 2, 0) < 1e-11
    # the free side is generally NOT tangent to the caustic
    assert _tangency(tri, caustic, 1, 2) > 1e-4


@given(t=angles)
def test_bic3_two_caustics(t):
    cfg = bic3_config(1.0, 0.15, 0.25, u=0.4)
    tri = cfg.triangle(t)
    c1, c2 = cfg.caustics()
    assert _tangency(tri, c1, 0, 1) < 1e-10
    assert _tangency(tri, c2, 1, 2) < 1e-10


def test_bic3_second_caustic_pencil_form():
    p = BicentricParams(1.0, 0.15, 0.25, u=0.4)
    c2 = p.pencil_caustic()
    R, r, d, u = 1.0, 0.15, 0.25, 0.4
    assert abs(c2.center.x - d * (1.0 - u)) < 1e-14
    want_r = math.sqrt(d * d * u * u + (R * R - d * d - r * r) * u + r * r)
    assert abs(c2.semi_axes[0] - want_r) < 1e-14


def test_bic3_u_zero_reduces_to_bic2():
    """At u = 0 the second caustic coincides with the first, so each
    triangle matches a two-caustic triangle up to vertex relabeling:
    the tangent sides share the chain vertex instead of the driver."""
    p2 = BicentricParams(1.0, 0.15, 0.25)
    cfg3 = bic3_config(1.0, 0.15, 0.25, u=0.0)
    for t in np.linspace(0.0, 2.0 * math.pi, 9):
        b = cfg3.triangle(float(t))
        apex = math.atan2(b.p2.y, b.p2.x)
        a = FamilyConfig("bic-II", p2).triangle(apex)
        for vb in b.vertices():
            assert min(math.dist(va, vb) for va in a.vertices()) < 1e-9


@given(t=angles)
def test_conf2_construction_invariants(t):
    cfg = conf2_config(2.0, 1.0, 0.5)
    tri = cfg.triangle(t)
    for v in tri.vertices():
        assert abs((v.x / 2.0) ** 2 + v.y ** 2 - 1.0) < 1e-11
    caustic = cfg.caustics()[0]
    assert _tangency(tri, caustic, 0, 1) < 1e-10
    assert _tangency(tri, caustic, 2, 0) < 1e-10


@given(t=angles)
def test_conf1_closure(t):
    cfg = conf1_config(2.0, 1.0)
    tri = cfg.triangle(t)
    caustic = cfg.caustics()[0]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert _tangency(tri, caustic, i, j) < 1e-9


@given(t=angles)
def test_conf3_two_caustics(t):
    for branch in BRANCHES:
        cfg = conf3_config(2.0, 1.0, 0.3, 0.5, branch=branch)
        tri = cfg.triangle(t)
        c1, c2 = cfg.caustics()
        assert _tangency(tri, c1, 0, 1) < 1e-9
        assert _tangency(tri, c2, 1, 2) < 1e-9


def _tangent_chain_step(outer: Conic, caustic: Conic, vertex: Point, sign: float) -> Point:
    """Geometric reference for one chord step: the tangent from the
    vertex whose contact lies left of the ray to the caustic center
    (sign > 0) or right of it, carried to the outer conic."""
    ax = caustic.center.x - vertex.x
    ay = caustic.center.y - vertex.y
    for contact in tangent_contact_points(vertex, caustic):
        cross = ax * (contact.y - vertex.y) - ay * (contact.x - vertex.x)
        if (cross > 0.0) == (sign > 0.0):
            break
    direction = (contact.x - vertex.x, contact.y - vertex.y)
    return second_intersection(outer, vertex, direction)


# The chain kinds on every branch, and two pair families far from the
# defaults: a small caustic near the outer circle, and a thin outer
# ellipse with lam near b^2.
TANGENT_CHAIN_FAMILIES = [
    *(
        conf3_config(a, b, lam, u, branch)
        for a, b, lam, u in ((2.0, 1.0, 0.3, 0.5), (1.7, 1.0, 0.2, 0.35), (2.4, 1.0, 0.45, 0.7))
        for branch in BRANCHES
    ),
    *(bic3_config(1.0, 0.15, 0.25, 0.4, branch) for branch in BRANCHES),
    bic2_config(1.0, 0.05, 0.9),
    conf2_config(5.0, 1.0, 0.99),
]


@pytest.mark.parametrize(
    "cfg",
    TANGENT_CHAIN_FAMILIES,
    ids=[f"{c.kind}-{','.join(str(v) for v in vars(c.params).values() if v is not None)}"
         f"-{','.join(c.branch)}" for c in TANGENT_CHAIN_FAMILIES],
)
def test_members_match_the_geometric_tangent_chain(cfg):
    """The chord map reproduces the tangents built from the caustics as
    conics, label for label: a chain's P2 and P3 take the tangents its
    branch names, to the caustic and then to the pencil conic; a pair's
    take both tangents from P1 to the caustic."""
    p = cfg.params
    outer = p.outer_conic()
    first = p.caustic()
    A, B = outer.semi_axes
    s1, s2 = (1.0 if label == PLUS else -1.0 for label in cfg.branch)
    chain = FAMILY_SPECS[cfg.kind].chain
    if chain:
        second = pencil_member(outer, first, 1.0 - p.u)
    for t in np.linspace(0.0, 2.0 * math.pi, 97):
        tri = cfg.triangle(float(t))
        v1 = Point(A * math.cos(t), B * math.sin(t))
        v2 = _tangent_chain_step(outer, first, v1, s1)
        if chain:
            v3 = _tangent_chain_step(outer, second, v2, s2)
        else:
            v3 = _tangent_chain_step(outer, first, v1, -s1)
        for got, want in zip(tri.vertices(), (v1, v2, v3)):
            assert math.dist(got, want) < 1e-12 * A


@pytest.mark.parametrize("u", [0.0, 0.3, 0.5, 1.0])
def test_conf3_pencil_shape_pencil_form(u):
    p = ConfocalParams(2.0, 1.0, 0.3, u=u)
    want = pencil_member(p.outer_conic(), p.caustic(), 1.0 - u)
    ea, eb, c = p.pencil_shape()
    assert abs(ea - want.semi_axes[0]) < 1e-14
    assert abs(eb - want.semi_axes[1]) < 1e-14
    assert c == 0.0


def test_conf3_pencil_shape_rejects_hyperbola():
    """The pencil member at u = -5 is a hyperbola, so the parameters are
    rejected when built, before any family or member exists."""
    p = ConfocalParams(2.0, 1.0, 0.3)
    assert pencil_member(p.outer_conic(), p.caustic(), 6.0).kind == "hyperbola"
    with pytest.raises(ImaginaryPencilCircle, match="is not an ellipse"):
        dataclasses.replace(p, u=-5.0)
    with pytest.raises(ImaginaryPencilCircle, match="is not an ellipse"):
        conf3_config(2.0, 1.0, 0.3, -5.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BicentricParams(1e31, 2e30, 3e30),
        lambda: BicentricParams(1e-31, 2e-32, 3e-32),
        lambda: bic1_config(1e-200, 2e-201),
        lambda: ConfocalParams(1e31, 5e30, 0.0),
        lambda: ConfocalParams(2e-31, 1e-31, 0.0),
        lambda: conf1_config(1e32, 5e31),
        lambda: critical_lambda(1e-200, 5e-201),
        lambda: convexity_lambda_root(1e-200, 5e-201),
        lambda: n4_lambda(1e-200, 5e-201),
        lambda: n4_lambda(1e200, 5e199),
        lambda: n6_lambda(1e-200, 5e-201),
        lambda: n6_lambda(1e200, 5e199),
    ],
    ids=["R-large", "R-small", "bic-I-small", "a-large", "a-small", "conf-I-large", "critical-small",
         "convexity-small", "n4-small", "n4-large", "n6-small", "n6-large"],
)
def test_an_outer_scale_out_of_range_is_rejected(build):
    """Beyond 1e-30 to 1e30 (to the nearest power of ten) the center
    kernels' degree-9 terms leave the normal floats: R or a there is a
    ValueError, never a ZeroDivisionError, an overflow or a complaint
    about a value derived from it."""
    with pytest.raises(ValueError, match="must be of order 1e-30 to 1e30"):
        build()


def test_free_side_matches_vertices():
    cfg2 = bic2_config(1.0, 0.2, 0.3)
    tri = cfg2.triangle(0.7)
    line = Line(*cfg2.free_sides(0.7)[:3])
    assert abs(line.signed_distance(tri.p2)) < 1e-12
    assert abs(line.signed_distance(tri.p3)) < 1e-12
    cfg3 = bic3_config(1.0, 0.15, 0.25, u=0.4)
    tri3 = cfg3.triangle(0.7)
    line3 = Line(*cfg3.free_sides(0.7)[:3])
    assert abs(line3.signed_distance(tri3.p3)) < 1e-12
    assert abs(line3.signed_distance(tri3.p1)) < 1e-12


def _bic2_envelope_radius(R, r, d):
    """Signed envelope radius of the two-caustic family, as bic2_envelope
    documents it; for floats, sympy symbols or mpmath numbers alike."""
    return R * (R ** 4 - 2 * R * R * d * d - 2 * R * R * r * r + d ** 4 - 2 * d * d * r * r) / (
        (R * R - d * d) ** 2
    )


def _bic2_envelope_radius_pq(R, r, d):
    """The same radius in the substitution p = (R+d)/r, q = (R-d)/r."""
    p, q = (R + d) / r, (R - d) / r
    return (p * p * q * q - p * p - q * q) * (p + q) * d / (p * p * q * q * (p - q))


def test_bic2_envelope_closed_form():
    p = BicentricParams(1.0, 0.2, 0.3)
    env = bic2_envelope(p)
    R, r, d = 1.0, 0.2, 0.3
    w = R * R - d * d
    assert abs(env.center.x - 4.0 * d * R * R * r * r / (w * w)) < 1e-14
    assert abs(env.semi_axes[0] - _bic2_envelope_radius(R, r, d)) < 1e-14
    # frozen values for the documented default parameters
    assert abs(env.center.x - 0.05796401400797005) < 1e-15
    assert abs(env.semi_axes[0] - 0.894698707885521) < 1e-14


def test_bic2_envelope_radius_forms_are_one_rational_function():
    sp = pytest.importorskip("sympy")
    R, r, d = sp.symbols("R r d", positive=True)
    assert sp.cancel(_bic2_envelope_radius(R, r, d) - _bic2_envelope_radius_pq(R, r, d)) == 0


def test_bic2_envelope_radius_against_60_digits():
    """The radius within 1e-12 R of its 60-digit value over a seeded
    sample: R from 1e-3 to 1e4, r from 1e-4 R (log-uniform), and d
    uniform, at 0, at 1e-9 R and 1e-6 R, and within 1e-12 of the outer
    circle (r + d -> R).  The envelope conic's semi-axis is held to the
    same bound: ``Conic.circle`` keeps the radius it is given."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    worst = conic_worst = 0.0
    with mpmath.workdps(60):
        for _ in range(200):
            R = 10.0 ** rng.uniform(-3.0, 4.0)
            r = R * 10.0 ** rng.uniform(-4.0, 0.0)
            for d in ((R - r) * rng.uniform(), 0.0, 1e-9 * R, 1e-6 * R, (R - r) * (1.0 - 1e-12)):
                p = BicentricParams(R, r, d)
                want = abs(_bic2_envelope_radius(*map(mpmath.mpf, (R, r, d))))
                worst = max(worst, float(abs(abs(_bic2_envelope_circle(p)[1]) - want)) / R)
                got = bic2_envelope(p).semi_axes[0]
                conic_worst = max(conic_worst, float(abs(got - want)) / R)
    assert worst <= 1e-12, worst
    assert conic_worst <= 1e-12, conic_worst


@given(t=angles)
def test_bic2_free_side_tangent_to_envelope(t):
    p = BicentricParams(1.0, 0.2, 0.3)
    cfg = bic2_config(1.0, 0.2, 0.3)
    env = bic2_envelope(p)
    a, b, c, ok = cfg.free_sides(t)
    if not ok:
        return
    assert abs(line_tangent_to_conic_residual(Line(a, b, c), env)) < 1e-10


def test_conf2_envelope_closed_form():
    a, b, lam = 2.0, 1.0, 0.5
    p = ConfocalParams(a, b, lam)
    env = conf2_envelope(p)
    c2 = a * a - b * b
    zeta = a * a * b * b - (a * a + b * b) * lam
    want_ax = abs(a * zeta) / (a * a * b * b - c2 * lam)
    want_ay = abs(b * zeta) / (a * a * b * b + c2 * lam)
    assert abs(env.semi_axes[0] - want_ax) < 1e-14
    assert abs(env.semi_axes[1] - want_ay) < 1e-14
    la, lb, lc, ok = conf2_config(a, b, lam).free_sides(np.linspace(0.1, 6.2, 23))
    line = Line(la[ok], lb[ok], lc[ok])
    assert np.all(abs(line_tangent_to_conic_residual(line, env)) < 1e-10)


def test_conf2_envelope_collapses_at_n4():
    a, b = 2.0, 1.0
    lam4 = a * a * b * b / (a * a + b * b)
    env = conf2_envelope(ConfocalParams(a, b, lam4))
    assert max(env.semi_axes) < 1e-12
    la, lb, lc, ok = conf2_config(a, b, lam4).free_sides(np.linspace(0.1, 6.2, 23))
    line = Line(la[ok], lb[ok], lc[ok])
    assert np.all(abs(line.signed_distance(Point(0.0, 0.0))) < 1e-10)


def test_envelope_points_on_closed_form():
    cfg = bic2_config(1.0, 0.2, 0.3)
    env = bic2_envelope(cfg.params)
    ts = 2.0 * np.pi * np.arange(256) / 256.0
    pts = envelope_points(cfg.free_sides, ts)
    assert pts.shape[1] == 2 and len(pts) > 200
    for q in pts.tolist():
        dist = math.dist(q, env.center)
        assert abs(dist - env.semi_axes[0]) < 1e-6


def test_family_config_outer_scale_and_caustic_count():
    assert bic2_config(1.0, 0.2, 0.3).outer_scale == 1.0
    assert conf2_config(2.0, 1.0, 0.5).outer_scale == 2.0
    assert len(bic2_config(1.0, 0.2, 0.3).caustics()) == 1
    assert len(bic3_config(1.0, 0.15, 0.25, u=0.4).caustics()) == 2
    assert len(conf3_config(2.0, 1.0, 0.3, 0.5).caustics()) == 2


def test_closed_form_envelope_presence():
    assert isinstance(bic2_config(1.0, 0.2, 0.3).closed_form_envelope(), Conic)
    assert isinstance(conf2_config(2.0, 1.0, 0.5).closed_form_envelope(), Conic)
    assert isinstance(bic3_config(1.0, 0.15, 0.25, u=0.4).closed_form_envelope(), Conic)
    assert isinstance(conf3_config(2.0, 1.0, 0.3, 0.5).closed_form_envelope(), Conic)


# Each chain kind at its README parameters, at a second set and, for
# bic-III, concentric (d = 0, where every tangency quadratic is linear),
# under each tangent branch.
CHAIN_FAMILIES = [
    make(*params, branch=branch)
    for make, sets in (
        (bic3_config, ((1.0, 0.15, 0.25, 0.4), (1.0, 0.48, 0.5, 0.4), (1.0, 0.15, 0.0, 0.4))),
        (conf3_config, ((2.0, 1.0, 0.3, 0.5), (3.0, 1.0, 0.6, -0.3))),
    )
    for params in sets
    for branch in BRANCHES
]


def _chain_id(cfg):
    values = "-".join(map(str, vars(cfg.params).values()))
    return f"{cfg.kind}-{values}-{','.join(cfg.branch)}"


def _worst_free_side_defect(cfg, conic):
    """The largest tangency defect of the 512 traced free sides to the
    conic, over the outer scale."""
    a, b, c, ok = cfg.free_sides(_grid(512))
    assert ok.all()
    return float(np.abs(line_tangent_to_conic_residual(Line(a, b, c), conic)).max()) / cfg.outer_scale


@pytest.mark.parametrize("cfg", CHAIN_FAMILIES, ids=_chain_id)
def test_chain_envelope_is_the_sampled_envelope_and_touches_every_free_side(cfg):
    """The pencil member two free sides fix is the conic fitted to the
    free sides' Richardson points, and every traced free side touches it;
    the member at 1.01 times its coordinate w misses some free side by
    far more than rounding."""
    env = cfg.closed_form_envelope()
    fit = fit_curve(envelope_points(cfg.free_sides, _grid(256)), 2).conic
    scale = cfg.outer_scale
    assert fit.kind == env.kind
    assert math.dist(fit.center, env.center) <= 1e-10 * scale
    assert max(abs(x - y) for x, y in zip(fit.semi_axes, env.semi_axes)) <= 1e-10 * scale
    assert _worst_free_side_defect(cfg, env) <= 1e-12
    off = cfg.params.envelope_member(1.01 * _chain_envelope_u(cfg))
    assert _worst_free_side_defect(cfg, off) > 1e-6


@pytest.mark.parametrize("make, params, u_star", [
    (bic3_config, (1.0, 0.15, 0.25), claims.bic3_collapse_u(1.0, 0.15, 0.25)),
    # The u at which k of the (+, +) envelope member qx x^2 + qy y^2 = k is
    # least, about 3e-15: its collapse to the center.
    (conf3_config, (2.0, 1.0, 0.3), -2.450980329838637),
], ids=["bic-III", "conf-III"])
def test_chain_envelope_at_its_collapse_is_a_point_or_within_rounding_of_one(make, params, u_star):
    """Near the u* at which the plus,plus envelope collapses to a point,
    rounding puts its squared size on either side of 0: the envelope is
    then the point conic or a conic of size near |u - u*|, never an
    imaginary member that raises.  At bic-III's u* every free side passes
    through the point."""
    kinds = set()
    for u in u_star + np.linspace(-1e-9, 1e-9, 41):
        env = make(*params, float(u)).closed_form_envelope()
        assert max(env.semi_axes) <= 1e-6
        kinds.add(env.kind)
    assert "point" in kinds
    if make is bic3_config:
        cfg = make(*params, u_star)
        assert cfg.closed_form_envelope().kind == "point"
        assert _worst_free_side_defect(cfg, cfg.closed_form_envelope()) <= 1e-12


@pytest.mark.parametrize("cfg", [bic3_config(1.0, 0.15, 0.25, 1.5), conf3_config(2.0, 1.0, 0.3, 1.5)], ids=_chain_id)
def test_chain_envelope_without_members_raises(cfg):
    """Past the outer conic (u > 1) the pencil caustic holds every vertex,
    so no member has a free side to fix the envelope."""
    with pytest.raises(VertexInsideCaustic, match="fewer than two members"):
        cfg.closed_form_envelope()


def test_triangle_metrics():
    """The test oracle's measures and the batch builder's agree."""
    tri = MeasuredTriangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), 0.0)
    assert abs(tri.area() - 6.0) < 1e-15
    assert abs(tri.inradius() - 1.0) < 1e-15
    assert abs(tri.circumradius() - 2.5) < 1e-15
    s = sorted(tri.side_lengths())
    assert abs(s[0] - 3.0) < 1e-15 and abs(s[2] - 5.0) < 1e-15
    shape = TriangleBatch.of(*tri.p1, *tri.p2, *tri.p3, True)
    assert (shape.s1, shape.s2, shape.s3) == tri.side_lengths()
    assert shape.area == tri.area()


def test_triangle_batch_carries_the_squared_sides():
    """q_k is s_k * s_k to the bit, and the claims' kept members mask it
    with every other field."""
    cfg = bic3_config(1.0, 0.2, 0.3, 1.2)  # members on part of the grid only
    tri = cfg.triangles(2.0 * np.pi * np.arange(256) / 256)
    assert not tri.ok.all()
    for s, q in ((tri.s1, tri.q1), (tri.s2, tri.q2), (tri.s3, tri.q3)):
        assert q.tobytes() == (s * s).tobytes()
    kept = claims._members(cfg, 256)
    for name in TriangleBatch._fields:
        assert getattr(kept, name).tobytes() == getattr(tri, name)[tri.ok].tobytes(), name
    for s, q in ((kept.s1, kept.q1), (kept.s2, kept.q2), (kept.s3, kept.q3)):
        assert q.tobytes() == (s * s).tobytes()


def test_branches_give_distinct_triangles():
    cfg_pp = bic3_config(1.0, 0.15, 0.25, u=0.4)
    cfg_pm = bic3_config(1.0, 0.15, 0.25, u=0.4, branch=TangentBranch("plus", "minus"))
    t = 0.9
    a, b = cfg_pp.triangle(t), cfg_pm.triangle(t)
    assert math.dist(a.p3, b.p3) > 1e-3


def test_pair_branch_use():
    """A pair kind rejects every non-default branch, since both its
    tangents leave P1 and a branch could only swap P2 and P3; a chain
    kind's first label moves P2."""
    ts = np.linspace(0.0, 2.0 * np.pi, 17)
    pairs = (bic1_config(1.0, 0.25), bic2_config(1.0, 0.2, 0.3),
             conf1_config(2.0, 1.0), conf2_config(2.0, 1.0, 0.5))
    for base in pairs:
        for branch in (TangentBranch(MINUS, PLUS), TangentBranch(PLUS, MINUS),
                       TangentBranch(MINUS, MINUS)):
            with pytest.raises(ValueError, match=f"^{base.kind} takes only the default tangent branch"):
                dataclasses.replace(base, branch=branch)
        same = dataclasses.replace(base, branch=TangentBranch(PLUS, PLUS))
        for got, want in zip(same.triangles(ts), base.triangles(ts)):
            np.testing.assert_array_equal(got, want)
    for base in (bic3_config(1.0, 0.15, 0.25, u=0.4), conf3_config(2.0, 1.0, 0.3, 0.5)):
        b = base.triangles(ts)
        m = dataclasses.replace(base, branch=TangentBranch(MINUS, PLUS)).triangles(ts)
        np.testing.assert_array_equal(m.x1, b.x1)
        np.testing.assert_array_equal(m.y1, b.y1)
        both = b.ok & m.ok
        assert both.any()
        assert np.hypot(m.x2 - b.x2, m.y2 - b.y2)[both].min() > 1e-3
