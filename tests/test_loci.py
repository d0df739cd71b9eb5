import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poncelet.geom import Point
from poncelet.families import (
    BicentricParams,
    bic1_config,
    bic2_config,
    bic3_config,
    conf1_config,
    conf2_config,
    conf3_config,
    critical_lambda,
)
from poncelet.loci import (
    DEFAULT_TOLERANCES,
    InsufficientSamples,
    Locus,
    LocusSample,
    Tolerances,
    classify_locus,
    convexity_check,
    convexity_lambda_root,
    convexity_quintic_coeffs,
    fit_curve,
    monomial_exponents,
    sextic_coefficients_x2,
    sextic_coefficients_x2_weighted,
    stationarity_spread,
    trace_locus,
    verdict_letter,
    verify_implicit_sextic_x2,
)

BIC2 = bic2_config(1.0, 0.2, 0.3)
BIC2_PARAMS = BicentricParams(1.0, 0.2, 0.3)


def test_trace_uniform_grid_and_validity():
    loc = trace_locus(BIC2, "X1", n=48)
    assert len(loc.samples) == 48
    ts = [s.t for s in loc.samples]
    assert ts[0] == 0.0
    steps = np.diff(ts)
    assert np.allclose(steps, 2.0 * math.pi / 48)
    assert all(s.valid for s in loc.samples)
    assert loc.tracked == "X1"


def test_trace_min_valid_floor():
    with pytest.raises(InsufficientSamples):
        trace_locus(BIC2, "X1", n=8)
    # printing/plotting callers can lower the floor
    loc = trace_locus(BIC2, "X1", n=8, min_valid=1)
    assert len(loc.samples) == 8


def test_stationarity_spread_contrast():
    cfg = bic1_config(1.0, 0.25)
    still = stationarity_spread(trace_locus(cfg, "X1", n=128))
    moving = stationarity_spread(trace_locus(cfg, "X2", n=128))
    assert still < 1e-12
    assert moving > 1e-3


def _pairwise_spread(locus):
    """The brute-force diameter: every pairwise distance."""
    arr = np.asarray([(p.x, p.y) for p in locus.valid_points()])
    dx = arr[:, 0:1] - arr[:, 0:1].T
    dy = arr[:, 1:2] - arr[:, 1:2].T
    return float(np.sqrt(dx * dx + dy * dy).max()) / locus.family.outer_scale


def _assert_same_spread(locus):
    want = _pairwise_spread(locus)
    assert abs(stationarity_spread(locus) - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize(
    "cfg",
    [
        bic1_config(1.0, 0.3),
        BIC2,
        bic3_config(1.0, 0.2, 0.3, 0.5),
        conf1_config(2.0, 1.0),
        conf2_config(2.0, 1.0, 0.5),
        conf3_config(2.0, 1.0, 0.3, 0.5),
    ],
    ids=lambda cfg: cfg.kind,
)
def test_stationarity_spread_is_the_pairwise_maximum_on_loci(cfg):
    for tracked in ("X1", "X2", "X3", "X484", "P1'", "P2"):
        _assert_same_spread(trace_locus(cfg, tracked, n=256))


def test_stationarity_spread_is_the_pairwise_maximum_near_a_point():
    loc = trace_locus(bic1_config(1.0, 0.3), "X1", n=512)
    assert stationarity_spread(loc) < 1e-12
    _assert_same_spread(loc)


def test_stationarity_spread_is_the_pairwise_maximum_on_point_clouds():
    rng = np.random.default_rng(7)
    cfg = bic1_config(1.0, 0.25)
    for k in range(200):
        n = int(rng.integers(1, 150))
        if k % 4 == 0:  # coarse grid: duplicates and collinear runs
            arr = np.round(rng.normal(size=(n, 2)), 1)
        elif k % 4 == 1:  # a regular polygon: parallel opposite edges
            th = 2.0 * np.pi * np.arange(n) / n
            arr = np.c_[np.cos(th), np.sin(th)]
        elif k % 8 == 2:  # nearly collinear after rounding
            arr = np.c_[np.arange(n), 2.0 * np.arange(n)] * 0.1 + 0.3
        else:
            arr = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-12, 3)
        samples = tuple(
            LocusSample(0.0, Point(float(x), float(y)), True) for x, y in arr
        )
        _assert_same_spread(Locus(cfg, "cloud", samples))


def test_classify_x1_circle_frozen():
    fit = classify_locus(trace_locus(BIC2, "X1", n=256))
    assert fit.verdict == "circle"
    assert verdict_letter(fit) == "C"
    R, r, d = 1.0, 0.2, 0.3
    cx = 2.0 * d * R * r / (R * R - d * d)
    rad = R * (R * R - 2.0 * R * r - d * d) / (R * R - d * d)
    assert abs(fit.conic.center.x - cx) < 1e-10
    assert abs(fit.conic.center.y) < 1e-10
    assert abs(fit.conic.semi_axes[0] - rad) < 1e-10


def test_classify_conf1_x1_ellipse_frozen():
    fit = classify_locus(trace_locus(conf1_config(2.0, 1.0), "X1", n=256))
    assert fit.verdict == "ellipse"
    ax = sorted(fit.conic.semi_axes, reverse=True)
    assert abs(ax[0] - 1.302775637731995) < 1e-9
    assert abs(ax[1] - 0.39444872453601076) < 1e-9
    assert abs(fit.conic.center.x) < 1e-9
    assert abs(fit.conic.center.y) < 1e-9


def test_classify_x2_sextic_with_elbow():
    loc = trace_locus(BIC2, "X2", n=512)
    fit = classify_locus(loc)
    assert fit.verdict == "algebraic"
    assert fit.degree == 6
    assert verdict_letter(fit) == "6"
    # the conic stage must have rejected it decisively
    fit2 = fit_curve(loc.valid_points(), 2, DEFAULT_TOLERANCES)
    fit6 = fit_curve(loc.valid_points(), 6, DEFAULT_TOLERANCES)
    assert fit2.residual > 1e-3
    assert fit6.residual < 1e-10
    assert fit6.residual < fit2.residual


def test_classify_needs_headroom_for_the_elbow():
    # confirming degree 6 requires comparing against a degree-7 fit,
    # which needs 2 * C(9,2) = 72 samples
    loc = trace_locus(BIC2, "X2", n=64)
    with pytest.raises(InsufficientSamples):
        classify_locus(loc)


def test_classify_point_verdict():
    fit = classify_locus(trace_locus(bic1_config(1.0, 0.25), "X1", n=128))
    assert fit.verdict == "point"
    assert verdict_letter(fit) == "P"


def test_verdict_letter_fallback():
    from dataclasses import replace

    fit = classify_locus(trace_locus(BIC2, "X1", n=256))
    assert verdict_letter(fit) == "C"
    assert verdict_letter(replace(fit, verdict="none")) == "N"
    assert verdict_letter(replace(fit, verdict="algebraic", degree=4)) == "4"


def test_monomial_count():
    assert len(monomial_exponents(2)) == 6
    assert len(monomial_exponents(6)) == 28
    assert monomial_exponents(1) == [(0, 0), (1, 0), (0, 1)]


def test_convexity_check_shapes():
    ts = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    ellipse = [Point(2.0 * math.cos(t), 0.7 * math.sin(t)) for t in ts]
    assert convexity_check(ellipse)
    # three-lobed curve is not convex
    lobed = [
        Point((1.0 + 0.3 * math.cos(3 * t)) * math.cos(t),
              (1.0 + 0.3 * math.cos(3 * t)) * math.sin(t))
        for t in ts
    ]
    assert not convexity_check(lobed)


def test_convexity_quintic_frozen():
    coeffs = convexity_quintic_coeffs(2.0, 1.0)
    assert np.allclose(coeffs, (81.0, 387.0, 816.0, 544.0, -2560.0, 768.0))


def test_convexity_root_frozen_and_plain_float():
    root = convexity_lambda_root(2.0, 1.0)
    assert type(root) is float
    assert abs(root - 0.33896780398315896) < 1e-14
    # the root is expressed in units of lambda / b^2
    coeffs = convexity_quintic_coeffs(2.0, 1.0)
    val = sum(c * root ** (5 - i) for i, c in enumerate(coeffs))
    assert abs(val) < 1e-9
    # second frozen aspect ratio
    assert abs(convexity_lambda_root(1.5, 1.0) - 0.3854942173440991) < 1e-12


def test_sextic_structural_coefficients():
    cs = sextic_coefficients_x2(BIC2_PARAMS)
    assert cs[(6, 0)] == pytest.approx(729.0)
    assert cs[(0, 6)] == pytest.approx(729.0)
    assert cs[(4, 2)] == pytest.approx(2187.0)
    assert cs[(2, 4)] == pytest.approx(2187.0)


def test_sextic_vanishes_on_the_locus():
    loc = trace_locus(BIC2, "X2", n=512)
    assert verify_implicit_sextic_x2(BIC2_PARAMS, loc) < 1e-12


def test_sextic_rejects_wrong_parameters():
    loc = trace_locus(BIC2, "X2", n=256)
    wrong = BicentricParams(1.0, 0.2, 0.35)
    assert verify_implicit_sextic_x2(wrong, loc) > 1e-6


def test_weighted_companion_needs_the_weight():
    """The companion form vanishes only after rescaling each sample by
    the driving-vertex chordal factor, not on the raw locus."""
    loc = trace_locus(BIC2, "X2", n=256)
    cs = sextic_coefficients_x2_weighted(BIC2_PARAMS)
    norm = math.sqrt(sum(v * v for v in cs.values()))
    pts = loc.valid_points()
    scale = max(max(abs(p.x), abs(p.y)) for p in pts)
    worst = 0.0
    for p in pts:
        val = sum(v * p.x ** i * p.y ** j for (i, j), v in cs.items())
        worst = max(worst, abs(val) / (norm * scale ** 6))
    assert worst > 0.1


def test_classify_rigid_motion_invariance():
    loc = trace_locus(BIC2, "X2", n=512)
    fit = classify_locus(loc)
    co, si = math.cos(0.7), math.sin(0.7)
    moved = tuple(
        LocusSample(
            s.t,
            Point(co * s.p.x - si * s.p.y + 5.0, si * s.p.x + co * s.p.y - 3.0),
            s.valid,
        )
        for s in loc.samples
    )
    fit2 = classify_locus(Locus(loc.family, loc.tracked, moved))
    assert fit2.verdict == fit.verdict
    assert fit2.degree == fit.degree


@given(
    cx=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    cy=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    rad=st.floats(0.3, 3.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=25, deadline=None)
def test_fit_recovers_synthetic_circles(cx, cy, rad):
    ts = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    pts = [Point(cx + rad * math.cos(t), cy + rad * math.sin(t)) for t in ts]
    fit = fit_curve(pts, 2, DEFAULT_TOLERANCES)
    assert fit.conic is not None
    assert fit.conic.kind == "circle"
    assert abs(fit.conic.center.x - cx) < 1e-8
    assert abs(fit.conic.center.y - cy) < 1e-8
    assert abs(fit.conic.semi_axes[0] - rad) < 1e-8


def test_tolerances_are_tunable():
    strict = Tolerances(point_tol=1e-15, conic_tol=1e-15, curve_tol=1e-15)
    loc = trace_locus(BIC2, "X1", n=256)
    fit = classify_locus(loc, strict)
    # at an impossible tolerance nothing is accepted
    assert fit.verdict in ("none", "algebraic") or fit.residual < 1e-15
