import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poncelet import loci
from poncelet.geom import Point, classify_conic
from poncelet.families import (
    BicentricParams,
    bic1_config,
    bic2_config,
    bic3_config,
    conf1_config,
    conf2_config,
    conf3_config,
)
from poncelet.loci import (
    MIN_VALID_SAMPLES,
    CurveFit,
    InsufficientSamples,
    Locus,
    classify_locus,
    convexity_check,
    convexity_lambda_root,
    convexity_quintic_coeffs,
    fit_curve,
    monomial_exponents,
    sextic_coefficients_x2,
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
    arr = locus.valid_xy()
    dx = arr[:, 0:1] - arr[:, 0:1].T
    dy = arr[:, 1:2] - arr[:, 1:2].T
    return float(np.sqrt(dx * dx + dy * dy).max()) / locus.family.outer_scale


def _centroid_slack(arr):
    """A bound on what the rounding of the centroid (a sequential sum of
    n terms) can move the spread by, in length units."""
    return 4.0 * len(arr) * np.finfo(float).eps * float(np.abs(arr).max())


def _assert_spread_bounds(locus, diameter=None):
    """pairwise diameter <= spread * scale <= 2 * pairwise diameter: the
    samples' farthest one from their centroid lies within the diameter of
    every sample and at least half of it from some sample.  Only the
    centroid's rounding (and one rounding of each side) may exceed it."""
    scale = locus.family.outer_scale
    if diameter is None:
        diameter = _pairwise_spread(locus) * scale
    got = stationarity_spread(locus) * scale
    slack = _centroid_slack(locus.valid_xy())
    assert diameter * (1.0 - 1e-15) - slack <= got <= 2.0 * diameter * (1.0 + 1e-15) + slack


def _cloud_locus(arr, cfg=None):
    n = len(arr)
    ok = np.ones(n, dtype=bool)
    cfg = bic1_config(1.0, 0.25) if cfg is None else cfg
    return Locus(cfg, "cloud", np.zeros(n), arr[:, 0], arr[:, 1], ok)


_SPREAD_CONFIGS = [
    bic1_config(1.0, 0.3),
    BIC2,
    bic3_config(1.0, 0.2, 0.3, 0.5),
    conf1_config(2.0, 1.0),
    conf2_config(2.0, 1.0, 0.5),
    conf3_config(2.0, 1.0, 0.3, 0.5),
]


@pytest.mark.parametrize("cfg", _SPREAD_CONFIGS, ids=lambda cfg: cfg.kind)
def test_spread_lies_between_the_diameter_and_twice_it_on_loci(cfg):
    for tracked in ("X1", "X2", "X3", "X484", "P1'", "P2"):
        _assert_spread_bounds(trace_locus(cfg, tracked, n=256))


def test_spread_lies_between_the_diameter_and_twice_it_near_a_point():
    loc = trace_locus(bic1_config(1.0, 0.3), "X1", n=512)
    assert stationarity_spread(loc) < 1e-12
    _assert_spread_bounds(loc)


def test_spread_lies_between_the_diameter_and_twice_it_on_point_clouds():
    rng = np.random.default_rng(7)
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
        _assert_spread_bounds(_cloud_locus(arr))


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 33])
def test_spread_at_small_sample_counts(n):
    rng = np.random.default_rng(n)
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    for arr in (np.c_[np.cos(th), 0.4 * np.sin(th)], rng.normal(size=(n, 2))):
        _assert_spread_bounds(_cloud_locus(arr))
    if n == 1:
        assert stationarity_spread(_cloud_locus(arr)) == 0.0


@pytest.mark.parametrize("n", [1, 16, 53, 512])
def test_spread_of_identical_points_is_zero(n):
    """Identical samples whose sum is exact (here dyadic values) have
    their value as the centroid, so every offset and the spread are 0."""
    for value in (0.375, -2.5, 1e3, 2.0 ** -40):
        assert stationarity_spread(_cloud_locus(np.full((n, 2), value))) == 0.0


def test_spread_of_identical_points_is_at_most_the_centroid_rounding():
    """Elsewhere the sequential sum rounds: ten copies of 0.1 sum to
    0.9999999999999999, so the spread is a rounding residue, far below
    POINT_TOL."""
    cfg = bic1_config(1.0, 0.25)
    seen_nonzero = False
    for n in (10, 53, 512):
        for value in (0.1, 0.3, 0.7, -1.9):
            arr = np.full((n, 2), value)
            spread = stationarity_spread(_cloud_locus(arr, cfg))
            assert spread * cfg.outer_scale <= _centroid_slack(arr)
            seen_nonzero |= spread > 0.0
    assert seen_nonzero


def test_spread_of_two_far_clusters():
    """The diameter joins two clusters far apart in sample order."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(83, 2)) * 1e-3
    b = rng.normal(size=(71, 2)) * 1e-3 + (1e4, -2e4)
    for arr in (np.r_[a, b], np.r_[b, a], np.r_[a[:40], b, a[40:]]):
        _assert_spread_bounds(_cloud_locus(arr))


@pytest.mark.parametrize("k", [2, 3, 8, 16, 49, 256])
def test_spread_of_a_regular_polygon_is_its_diameter(k):
    """A regular 2k-gon is centrally symmetric: its centroid is its center,
    so the spread reaches the lower bound, the diameter."""
    th = np.pi * np.arange(2 * k) / k
    for phase in (0.0, 0.1):
        arr = np.c_[np.cos(th + phase), np.sin(th + phase)] * 3.0 + (1.0, -2.0)
        loc = _cloud_locus(arr)
        assert stationarity_spread(loc) == pytest.approx(_pairwise_spread(loc), rel=1e-14)
        _assert_spread_bounds(loc)


def _quarter_turns(x, y):
    """The frame turned by 0, 1, 2 and 3 quarter turns and reflected in
    an axis: each an exact map of the coordinates."""
    return [(x, y), (-y, x), (-x, -y), (y, -x), (-x, y), (x, -y)]


@pytest.mark.parametrize("cfg", _SPREAD_CONFIGS, ids=lambda cfg: cfg.kind)
def test_spread_is_unchanged_by_a_rotation_of_the_frame(cfg):
    """Quarter turns and reflections keep every bit (the centroid's sum
    only changes sign); a general rotation keeps the spread to rounding."""
    for tracked in ("X1", "X2", "X3", "P1'"):
        loc = trace_locus(cfg, tracked, n=256)
        want = stationarity_spread(loc)
        for x, y in _quarter_turns(loc.x, loc.y):
            assert stationarity_spread(Locus(cfg, tracked, loc.t, x, y, loc.ok)) == want
        for angle in (0.7, 2.1):
            co, si = math.cos(angle), math.sin(angle)
            x, y = co * loc.x - si * loc.y, si * loc.x + co * loc.y
            got = stationarity_spread(Locus(cfg, tracked, loc.t, x, y, loc.ok))
            slack = 4.0 * _centroid_slack(loc.valid_xy()) / cfg.outer_scale
            assert abs(got - want) <= 1e-14 * want + slack


def _row_scan_diameter(arr):
    """Every pair, a block of rows at a time (memory O(n))."""
    best = 0.0
    for s in range(0, len(arr), 32):
        dx = arr[s : s + 32, 0, None] - arr[s:, 0]
        dy = arr[s : s + 32, 1, None] - arr[s:, 1]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def test_spread_memory_is_linear():
    """At n = 8192 the spread holds a few arrays of n floats (64 kB each)."""
    arr = np.random.default_rng(11).uniform(size=(8192, 2))
    loc = _cloud_locus(arr)
    tracemalloc.start()
    try:
        stationarity_spread(loc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    _assert_spread_bounds(loc, _row_scan_diameter(arr))


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
    fit2 = fit_curve(loc.valid_xy(), 2)
    fit6 = fit_curve(loc.valid_xy(), 6)
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


def test_point_verdict_is_the_spread_bound_at_its_edge():
    """Clouds scaled so that their spread, or their pairwise diameter,
    sits 1e-3 (relative) on either side of POINT_TOL times the outer
    scale: the verdict is "point" exactly when stationarity_spread is
    within POINT_TOL.  The ellipse's spread is its diameter (it is
    centrally symmetric); the triangle's is 2/sqrt(3) times its diameter,
    so a triangle whose diameter is within the bound can be no point."""
    cfg = conf2_config(2.0, 1.0, 0.5)
    n = 129
    th = 2.0 * np.pi * np.arange(n) / n
    triangle = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 * math.sqrt(3.0))])
    clouds = [
        np.c_[np.cos(th), 0.4 * np.sin(th)],
        np.repeat(triangle, n // 3, axis=0),
        np.random.default_rng(5).normal(size=(n, 2)),
    ]
    bound = loci.POINT_TOL * cfg.outer_scale
    seen = set()
    for cloud in clouds:
        unit = _cloud_locus(cloud, cfg)
        for size in (stationarity_spread(unit) * cfg.outer_scale, _pairwise_spread(unit) * cfg.outer_scale):
            for factor in (1.0 - 1e-3, 1.0 + 1e-3):
                arr = cloud * (bound * factor / size) + (0.3, -0.2)
                locus = _cloud_locus(arr, cfg)
                point = stationarity_spread(locus) <= loci.POINT_TOL
                assert (classify_locus(locus).verdict == "point") == point
                seen.add((_pairwise_spread(locus) <= loci.POINT_TOL, point))
    # Both verdicts, and a diameter within the bound around a spread past it.
    assert seen == {(True, True), (True, False), (False, False)}


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


def _loop_convexity_check(points):
    """The pure-Python loop convexity_check replaced, kept as the reference."""
    pts = [p for p in points]
    if len(pts) >= 2 and math.dist(pts[0], pts[-1]) == 0.0:
        pts = pts[:-1]
    n = len(pts)
    if n < 3:
        return True
    edges = []
    for i in range(n):
        qx, qy = pts[(i + 1) % n]
        px, py = pts[i]
        ex, ey = qx - px, qy - py
        norm = math.hypot(ex, ey)
        if norm > 0.0:
            edges.append((ex / norm, ey / norm))
    m = len(edges)
    if m < 3:
        return True
    has_pos = has_neg = False
    for i in range(m):
        ax, ay = edges[i]
        bx, by = edges[(i + 1) % m]
        cross = ax * by - ay * bx
        if cross > 1e-12:
            has_pos = True
        elif cross < -1e-12:
            has_neg = True
        if has_pos and has_neg:
            return False
    return True


def _assert_same_convexity(points):
    want = _loop_convexity_check(points)
    assert convexity_check(points) is want
    assert convexity_check(np.array([tuple(p) for p in points]).reshape(-1, 2)) is want


def test_convexity_check_matches_the_loop_on_small_and_degenerate_loops():
    square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
    bowtie = [Point(0.0, 0.0), Point(1.0, 1.0), Point(1.0, 0.0), Point(0.0, 1.0)]
    cases = [
        [],
        square[:1],
        square[:2],
        square[:3],
        square,
        square + square[:1],  # closed: the repeated first sample is dropped
        [square[0], square[0], square[1], square[1], square[2], square[3]],  # zero-length edges
        [square[0]] * 5,
        [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)],  # collinear
        bowtie,
    ]
    for pts in cases:
        _assert_same_convexity(pts)


# Four-point loops with one turn on the edge of the 1e-12 test, where edge
# lengths from np.hypot (one rounding apart from math.hypot) flip the verdict.
_HYPOT_SENSITIVE_LOOPS = [
    (False, [("0x1.3333333333333p-2", "-0x1.6666666666666p-1"), ("-0x1.f8cff7a931660p-4", "-0x1.ef94063ce3ceep-1"),
             ("-0x1.1701ca9491b40p-1", "-0x1.3c2051908eb50p+0"), ("0x1.3d7e350dabf60p-3", "-0x1.67e20d7101352p+0")]),
    (True, [("0x1.3333333333333p-2", "-0x1.6666666666666p-1"), ("-0x1.fc85da5a6f470p-5", "-0x1.46a2437c51934p+0"),
            ("-0x1.dba4f99752fdap-3", "-0x1.8bed366266f38p+0"), ("0x1.43d4ab35ad42cp-1", "-0x1.7fe82d5456124p+0")]),
]


@pytest.mark.parametrize("want, loop", _HYPOT_SENSITIVE_LOOPS)
def test_convexity_check_matches_the_loop_at_the_turn_tolerance(want, loop):
    pts = [Point(float.fromhex(x), float.fromhex(y)) for x, y in loop]
    assert _loop_convexity_check(pts) is want
    _assert_same_convexity(pts)


def test_convexity_check_matches_the_loop_on_traced_loci():
    """The verdict on every step of the convexity bisection over conf-II X1,
    whose turns approach the 1e-12 test, and on loci of every family."""
    a, b = 2.0, 1.0
    lo, hi = 0.85 * convexity_lambda_root(a, b), 1.15 * convexity_lambda_root(a, b)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        pts = trace_locus(conf2_config(a, b, mid), "X1", 512).valid_xy().tolist()
        _assert_same_convexity(pts)
        if _loop_convexity_check(pts):
            lo = mid
        else:
            hi = mid
    for cfg in (bic2_config(1.0, 0.2, 0.3), bic3_config(1.0, 0.15, 0.25, u=0.4), conf1_config(2.0, 1.0)):
        for tracked in ("X1", "X2", "X4", "P1'"):
            _assert_same_convexity(trace_locus(cfg, tracked, 256).valid_xy().tolist())


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


def test_classify_rigid_motion_invariance():
    loc = trace_locus(BIC2, "X2", n=512)
    fit = classify_locus(loc)
    co, si = math.cos(0.7), math.sin(0.7)
    mx = co * loc.x - si * loc.y + 5.0
    my = si * loc.x + co * loc.y - 3.0
    fit2 = classify_locus(Locus(loc.family, loc.tracked, loc.t, mx, my, loc.ok))
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
    fit = fit_curve(pts, 2)
    assert fit.conic is not None
    assert fit.conic.kind == "circle"
    assert abs(fit.conic.center.x - cx) < 1e-8
    assert abs(fit.conic.center.y - cy) < 1e-8
    assert abs(fit.conic.semi_axes[0] - rad) < 1e-8


# The pair families' table cells at unit scale: a letter P, C or E must
# stay, and a degree must stay non-conic.
_PAIR_GRID = [
    (lambda k: bic1_config(k, 0.25 * k), "PCPCCC"),
    (lambda k: bic2_config(k, 0.2 * k, 0.3 * k), "C6PC66"),
    (lambda k: conf1_config(2.0 * k, k), "EEEEEE"),
    (lambda k: conf2_config(2.0 * k, k, 0.5 * k * k), "6666EE"),
]


@pytest.mark.parametrize("k", [10.0 ** e for e in range(-3, 5)])
def test_conic_verdicts_do_not_depend_on_the_frame_scale(k):
    for make, letters in _PAIR_GRID:
        cfg = make(k)
        for tracked, want in zip(_TABLE2_COLUMNS, letters):
            got = verdict_letter(classify_locus(trace_locus(cfg, tracked, n=512)))
            if want in "PCE":
                assert got == want, (cfg.kind, tracked)
            else:
                assert got not in "PCE", (cfg.kind, tracked)


@pytest.mark.parametrize("ratio", [1.00001, 1.0000001])
def test_a_near_circular_closing_confocal_family_keeps_its_ellipses(ratio):
    """conf-I reads E in all six table columns as a/b -> 1: its closing
    lam keeps its digits, so the family still closes."""
    cfg = conf1_config(ratio, 1.0)
    got = "".join(
        verdict_letter(classify_locus(trace_locus(cfg, tracked, n=512))) for tracked in _TABLE2_COLUMNS
    )
    assert got == "EEEEEE"


# The six README families, k times the default frame, and their table letters.
_README_GRID = [
    (lambda k: bic1_config(k, 0.25 * k), "PCPCCC"),
    (lambda k: bic2_config(k, 0.2 * k, 0.3 * k), "C6PC66"),
    (lambda k: bic3_config(k, 0.15 * k, 0.25 * k, 0.4), "56P665"),
    (lambda k: conf1_config(2.0 * k, k), "EEEEEE"),
    (lambda k: conf2_config(2.0 * k, k, 0.5 * k * k), "6666EE"),
    (lambda k: conf3_config(2.0 * k, k, 0.3 * k * k, 0.5), "466464"),
]


@pytest.mark.parametrize("k", [1e-30, 1e-12, 1e10, 1e30])
def test_readme_letters_hold_at_both_ends_of_the_scale_range(k):
    """Every letter of the six README families, the degrees included, is
    the unit frame's out to either end of the outer scale range."""
    for make, letters in _README_GRID:
        cfg = make(k)
        got = "".join(
            verdict_letter(classify_locus(trace_locus(cfg, tracked, n=512)))
            for tracked in _TABLE2_COLUMNS
        )
        assert got == letters, cfg.kind


# ---------------------------------------------------------------------------
# Array storage and the one-design ladder.


def _reference_ladder(locus):
    """The verdict ladder rebuilt from the public fit_curve, one fit per
    degree on the valid samples; it reads the loci thresholds when called,
    so a test may monkeypatch them."""
    pts = locus.valid_xy()
    if len(pts) < MIN_VALID_SAMPLES:
        raise InsufficientSamples(f"{len(pts)} valid samples")
    if stationarity_spread(locus) <= loci.POINT_TOL:
        return CurveFit(degree=1, residual=0.0, verdict="point")
    quad = fit_curve(pts, 2)
    if quad.verdict in ("circle", "ellipse"):
        return quad
    fits = {2: quad}

    def fit_at(degree):
        if degree not in fits:
            fits[degree] = fit_curve(pts, degree)
        return fits[degree]

    best = quad
    for degree in range(3, loci.MAX_DEGREE + 1):
        fit = fit_at(degree)
        if fit.residual <= loci.CURVE_TOL:
            if degree < loci.MAX_DEGREE and fit.residual > 0.0:
                if fit_at(degree + 1).residual < loci.ELBOW_FACTOR * fit.residual:
                    best = fit
                    continue
            return fit
        best = fit
    return replace(best, verdict="nonconic", conic=None)


def _assert_bitwise_equal(got, want):
    """Field for field; repr tells -0.0 from 0.0 and round-trips floats."""
    for f in fields(CurveFit):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


_TABLE2_COLUMNS = ("X1", "X2", "X3", "P1'", "P2'", "P3'")
_LADDER_CONFIGS = [
    # The table2 defaults, then a second generic parameter set per family.
    bic1_config(1.0, 0.2),
    bic2_config(1.0, 0.2, 0.3),
    bic3_config(1.0, 0.15, 0.25, u=0.4),
    conf1_config(2.0, 1.0),
    conf2_config(2.0, 1.0, 0.5),
    conf3_config(2.0, 1.0, 0.3, 0.5),
    bic1_config(1.0, 0.3),
    bic2_config(1.0, 0.18, 0.35),
    bic3_config(1.0, 0.2, 0.3, 0.5),
    conf1_config(1.5, 1.0),
    conf2_config(2.0, 1.0, 0.3),
    conf3_config(2.0, 1.0, 0.25, 0.45),
]


@pytest.mark.parametrize("cfg", _LADDER_CONFIGS, ids=lambda cfg: f"{cfg.kind}-{cfg.params}")
def test_classify_equals_the_fit_curve_ladder_bitwise(cfg):
    for tracked in _TABLE2_COLUMNS:
        loc = trace_locus(cfg, tracked, n=512)
        _assert_bitwise_equal(classify_locus(loc), _reference_ladder(loc))


def test_classify_equals_the_fit_curve_ladder_on_the_x2_sextic():
    loc = trace_locus(bic2_config(1.0, 0.164, 0.098), "X2", n=512)
    fit = classify_locus(loc)
    _assert_bitwise_equal(fit, _reference_ladder(loc))
    assert fit.verdict == "algebraic"


def test_classify_ladder_raises_where_the_fit_curve_ladder_does():
    loc = trace_locus(BIC2, "X2", n=64)
    with pytest.raises(InsufficientSamples) as want:
        _reference_ladder(loc)
    with pytest.raises(InsufficientSamples) as got:
        classify_locus(loc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("max_degree", [1, 3, 10])
@pytest.mark.parametrize("cfg", _LADDER_CONFIGS, ids=lambda cfg: f"{cfg.kind}-{cfg.params}")
def test_classify_equals_the_fit_curve_ladder_at_other_top_degrees(cfg, max_degree, monkeypatch):
    monkeypatch.setattr(loci, "MAX_DEGREE", max_degree)
    for tracked in _TABLE2_COLUMNS:
        loc = trace_locus(cfg, tracked, n=512)
        _assert_bitwise_equal(classify_locus(loc), _reference_ladder(loc))


def _ladder_outcome(ladder, loc):
    """The ladder's fit, or the type and message of what it raised."""
    try:
        return ladder(loc)
    except Exception as exc:
        return type(exc), str(exc)


def _noisy_circle(n):
    """A unit circle with 5% Gaussian noise: no curve of degree <= 8 fits it."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    rng = np.random.default_rng(0)
    x = np.cos(t) + 0.05 * rng.standard_normal(n)
    y = np.sin(t) + 0.05 * rng.standard_normal(n)
    return Locus(BIC2, "X1", t, x, y, np.ones(n, bool))


def _traced_loci(n):
    for cfg in _LADDER_CONFIGS:
        for tracked in _TABLE2_COLUMNS:
            try:
                yield trace_locus(cfg, tracked, n=n)
            except InsufficientSamples:
                pass


@pytest.mark.parametrize("n", [40, 64, 100])
def test_classify_raises_mid_ladder_where_the_fit_curve_ladder_does(n, monkeypatch):
    raised = 0
    default = loci.MAX_DEGREE
    for loc in [*_traced_loci(n), _noisy_circle(n)]:
        for max_degree in (default, 10):
            monkeypatch.setattr(loci, "MAX_DEGREE", max_degree)
            got = _ladder_outcome(classify_locus, loc)
            want = _ladder_outcome(_reference_ladder, loc)
            if isinstance(want, CurveFit):
                _assert_bitwise_equal(got, want)
            else:
                assert got == want
                assert want[0] is InsufficientSamples
                raised += 1
    assert raised > 0


@pytest.mark.parametrize("cfg", _LADDER_CONFIGS, ids=lambda cfg: f"{cfg.kind}-{cfg.params}")
def test_verdicts_do_not_depend_on_axis_reflections(cfg):
    for tracked in _TABLE2_COLUMNS:
        for n in (256, 512, 1024):
            loc = trace_locus(cfg, tracked, n=n)
            want = classify_locus(loc)
            for sx, sy in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
                got = classify_locus(Locus(cfg, tracked, loc.t, sx * loc.x, sy * loc.y, loc.ok))
                assert (got.degree, got.verdict) == (want.degree, want.verdict), (tracked, n, sx, sy)


@pytest.mark.parametrize("k", [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4])
def test_conf2_x2_reads_degree_6_at_every_frame_scale(k):
    # The certified sextic (ROADMAP item 1) at n = 512 and k times the
    # default frame (a, b) = (2, 1), lambda = 0.5.
    fit = classify_locus(trace_locus(conf2_config(2.0 * k, k, 0.5 * k * k), "X2", n=512))
    assert (fit.verdict, fit.degree) == ("algebraic", 6)


@pytest.mark.parametrize("k", [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_conf2_x2_reads_degree_6_at_other_sample_counts(n, k):
    # As above at the other sample counts: the vector-free spectra above
    # the conic rung read 6 in every cell, where full SVDs read 7 at
    # (n, k) = (256, 1e2) and (2048, 1e-2).
    fit = classify_locus(trace_locus(conf2_config(2.0 * k, k, 0.5 * k * k), "X2", n=n))
    assert (fit.verdict, fit.degree) == ("algebraic", 6)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_bic2_x484_reads_its_certified_quartic(n):
    # The Evans perspector sweeps a quartic over bic-II (the sympy
    # certificate of the catalogue row), read at every sample count.
    fit = classify_locus(trace_locus(BIC2, "X484", n=n))
    assert (fit.verdict, fit.degree) == ("algebraic", 4)


@pytest.mark.parametrize("k", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
def test_bic2_x2_reads_its_certified_sextic(n, k):
    # The barycenter sweeps a sextic over bic-II (prop:bicII-x2's closed
    # form), read at every sample count and at k times the default frame
    # (R, r, d) = (1, 0.2, 0.3).
    fit = classify_locus(trace_locus(bic2_config(k, 0.2 * k, 0.3 * k), "X2", n=n))
    assert (fit.verdict, fit.degree) == ("algebraic", 6)


def _record_designs(monkeypatch):
    """A list that collects every design made from now on."""
    made = []

    class Recording(loci._MonomialDesign):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(loci, "_MonomialDesign", Recording)
    return made


def _design_degrees(monkeypatch, locus):
    """The highest grade of each design that classify_locus builds."""
    made = _record_designs(monkeypatch)
    fit = classify_locus(locus)
    return fit, [design.degree for design in made]


def test_ladder_builds_no_design_for_a_point(monkeypatch):
    fit, built = _design_degrees(monkeypatch, trace_locus(bic1_config(1.0, 0.25), "X1", n=512))
    assert fit.verdict == "point"
    assert built == []


def test_ladder_builds_only_the_conic_grades_for_a_circle(monkeypatch):
    fit, built = _design_degrees(monkeypatch, trace_locus(BIC2, "X1", n=512))
    assert fit.verdict == "circle"
    assert built == [2]


@pytest.mark.parametrize("cfg, degree", [
    (BIC2, 6),  # the sextic; its elbow check fits degree 7
    (bic2_config(1.0, 0.164, 0.098), 5),  # read as its quintic approximant
])
def test_ladder_builds_one_grade_past_an_accepted_degree(monkeypatch, cfg, degree):
    fit, built = _design_degrees(monkeypatch, trace_locus(cfg, "X2", n=512))
    assert (fit.verdict, fit.degree) == ("algebraic", degree)
    assert built == [degree + 1]


def test_ladder_builds_every_grade_for_a_nonconic_locus(monkeypatch):
    fit, built = _design_degrees(monkeypatch, _noisy_circle(512))
    assert fit.verdict == "nonconic"
    assert built == [loci.MAX_DEGREE]


def _oracle_normalize(pts):
    """The normalization as it was first written, on the (n, 2) stack:
    ``mean(axis=0)``, subtract, scale by the RMS radius (1 where it is 0)."""
    arr = np.asarray(pts, dtype=float)
    cx, cy = arr.mean(axis=0)
    centered = arr - (cx, cy)
    s = math.sqrt(float(np.mean(centered[:, 0] ** 2 + centered[:, 1] ** 2)))
    if s <= 0.0:
        s = 1.0
    return centered / s, (float(cx), float(cy)), s


def _assert_centered_pass_is_the_oracle(arr):
    """The centroid, offsets, squared radii, scale and normalized samples
    of the centered pass have the oracle's bits."""
    norm, (cx, cy), s = _oracle_normalize(arr)
    centered = arr - (cx, cy)
    c = loci._centered(arr[:, 0].copy(), arr[:, 1].copy())
    x, y, got_s = c.normalized()
    assert (c.cx.hex(), c.cy.hex(), got_s.hex()) == (cx.hex(), cy.hex(), s.hex())
    for got, want in ((c.dx, centered[:, 0]), (c.dy, centered[:, 1]),
                      (c.r2, centered[:, 0] ** 2 + centered[:, 1] ** 2), (x, norm[:, 0]), (y, norm[:, 1])):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("cfg", _LADDER_CONFIGS, ids=lambda cfg: f"{cfg.kind}-{cfg.params}")
def test_centered_pass_has_the_bits_of_the_stacked_normalization_on_loci(cfg):
    for tracked in _TABLE2_COLUMNS:
        _assert_centered_pass_is_the_oracle(trace_locus(cfg, tracked, n=512).valid_xy())


@pytest.mark.parametrize("n", [33, 100, 511, 512, 777, 4096])
def test_centered_pass_has_the_bits_of_the_stacked_normalization_on_clouds(n):
    """Sums of more than 8 terms are where a pairwise (1-D ``mean``) and a
    sequential (``mean(axis=0)`` on the stack) sum part ways."""
    rng = np.random.default_rng(n)
    for arr in (rng.normal(size=(n, 2)) * 3.0 + (1e3, -0.7), rng.uniform(size=(n, 2)) * 1e-6,
                np.round(rng.normal(size=(n, 2)), 1)):
        _assert_centered_pass_is_the_oracle(arr)


def _whole_design(norm, degree):
    """Every monomial column up to ``degree`` at once, its powers the
    running products of ``np.cumprod`` (x^0 = 1, then x, x * x, ...)."""
    ones = np.ones((len(norm), 1))
    xp = np.cumprod(np.hstack([ones] + [norm[:, :1]] * degree), axis=1)
    yp = np.cumprod(np.hstack([ones] + [norm[:, 1:]] * degree), axis=1)
    return np.column_stack([xp[:, i] * yp[:, j] for i, j in monomial_exponents(degree)])


def test_design_grades_are_the_columns_of_the_whole_design():
    norm, _, _ = _oracle_normalize(trace_locus(BIC2, "X2", n=512).valid_xy())
    whole = _whole_design(norm, 8)
    design = loci._MonomialDesign(norm[:, 0].copy(), norm[:, 1].copy(), 8)
    built = -1
    for degree in (2, 1, 5, 3, 8):  # grades are built once, on first reach
        assert design.degree == built
        cols = design.columns(degree)
        built = max(built, degree)
        assert design.degree == built
        m = len(monomial_exponents(degree))
        assert cols.shape == (512, m)
        assert cols.tobytes() == whole[:, :m].tobytes()


def test_ladder_checks_the_sample_count_before_building_a_grade(monkeypatch):
    # The sextic's elbow check asks for degree 7, which needs 72 samples.
    made = _record_designs(monkeypatch)
    with pytest.raises(InsufficientSamples) as got:
        classify_locus(trace_locus(BIC2, "X2", n=64))
    assert got.type is InsufficientSamples
    assert str(got.value) == "degree 7 needs >= 72 samples, got 64"
    assert [design.degree for design in made] == [6]


def _svd_oracle_fits(samples, degrees):
    """fit_curve at each degree, rebuilt on the SVD of the n x m prefix
    of the whole degree-8 design (its singular values alone except at
    degree 2), with no code shared with the rung."""
    norm, shift, s = _oracle_normalize(samples)
    whole = _whole_design(norm, 8)
    for degree in degrees:
        prefix = whole[:, : len(monomial_exponents(degree))]
        if degree != 2:
            sigma = np.linalg.svd(prefix, compute_uv=False)
        else:
            _, sigma, vt = np.linalg.svd(prefix, full_matrices=False)
        residual = float(sigma[-1]) / math.sqrt(len(norm))
        verdict, conic = "algebraic", None
        if degree == 2:
            conic = classify_conic(loci._denormalized_conic(vt[-1], shift, s))
            if residual <= loci.CONIC_TOL and conic.kind in ("circle", "ellipse"):
                verdict = conic.kind
        yield CurveFit(degree=degree, residual=residual, verdict=verdict, conic=conic)


def _assert_fit_curve_is_the_svd_oracle(samples):
    """The bits agree because n >= 2m for every fit: LAPACK's dgesdd then
    takes its tall-matrix path (n >= 11m/6), a QR factorization of the
    n x m prefix followed by the SVD of its m x m R, which is what the
    rung computes by hand."""
    degrees = range(1, 9)
    for degree, want in zip(degrees, _svd_oracle_fits(samples, degrees)):
        _assert_bitwise_equal(fit_curve(samples, degree), want)


@pytest.mark.parametrize("cfg", _LADDER_CONFIGS, ids=lambda cfg: f"{cfg.kind}-{cfg.params}")
def test_fit_curve_equals_the_svd_of_the_whole_design_prefix(cfg):
    for tracked in _TABLE2_COLUMNS:
        _assert_fit_curve_is_the_svd_oracle(trace_locus(cfg, tracked, n=512).valid_xy())


def test_fit_curve_equals_the_svd_of_the_whole_design_prefix_on_a_cloud():
    rng = np.random.default_rng(11)
    _assert_fit_curve_is_the_svd_oracle(rng.normal(size=(300, 2)) * 3.0 + 1.0)


@pytest.mark.parametrize("make, verdict, calls", [
    (lambda: trace_locus(BIC2, "X1", n=512), "circle", 1),
    (lambda: trace_locus(conf1_config(2.0, 1.0), "X1", n=512), "ellipse", 1),
    (lambda: trace_locus(BIC2, "X2", n=512), "algebraic", 0),
    (lambda: _noisy_circle(512), "nonconic", 0),
], ids=["bic2-X1-circle", "conf1-X1-ellipse", "bic2-X2-sextic", "noisy-circle"])
def test_ladder_classifies_the_quadric_only_within_conic_tol(monkeypatch, make, verdict, calls):
    seen = []

    def counting(coeffs):
        seen.append(coeffs)
        return classify_conic(coeffs)

    monkeypatch.setattr(loci, "classify_conic", counting)
    assert classify_locus(make()).verdict == verdict
    assert len(seen) == calls


def test_ladder_takes_each_rung_spectrum_once(monkeypatch):
    loc = trace_locus(BIC2, "X2", n=512)
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    fit = classify_locus(loc)
    assert (fit.verdict, fit.degree) == ("algebraic", 6)
    # One SVD per degree 2..7, each of the m x m R factor; only the
    # conic rung computes singular vectors.
    sizes = {d: len(monomial_exponents(d)) for d in range(2, 8)}
    assert calls == [((m, m), d == 2) for d, m in sizes.items()]


@pytest.mark.parametrize("degree", range(1, 9))
def test_fit_curve_takes_an_array_or_a_point_list(degree):
    loc = trace_locus(conf2_config(2.0, 1.0, 0.3), "X1", n=256)
    rng = np.random.default_rng(degree)
    cloud = rng.normal(size=(200, 2)) * 3.0 + 1.0
    for arr in (loc.valid_xy(), cloud):
        pts = [Point(float(x), float(y)) for x, y in arr]
        _assert_bitwise_equal(fit_curve(arr, degree), fit_curve(pts, degree))


def test_locus_arrays_are_read_only_copies():
    t = np.linspace(0.0, 1.0, 5)
    x = np.arange(5.0)
    y = -np.arange(5.0)
    ok = np.array([True, False, True, True, False])
    loc = Locus(BIC2, "X1", t, x, y, ok)
    for name in ("t", "x", "y", "ok"):
        arr = getattr(loc, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # the caller's arrays stay writable and unshared
    assert x.flags.writeable and not np.shares_memory(x, loc.x)
    x[0] = 99.0
    assert loc.x[0] == 0.0


def test_a_traced_locus_copies_the_kept_grid():
    """A traced Locus holds read-only copies: none of its arrays shares
    memory with its config's kept grid."""
    cfg = bic2_config(1.0, 0.2, 0.3)
    loc = trace_locus(cfg, "X1", 256)
    ts, tri = cfg._kept[256]
    for name in ("t", "x", "y", "ok"):
        arr = getattr(loc, name)
        assert not arr.flags.writeable, name
        for held in (ts, *tri):
            assert not np.shares_memory(arr, held), name


def test_locus_samples_and_valid_xy_round_trip_the_arrays():
    t = np.linspace(0.0, 1.0, 5)
    ok = np.array([True, False, True, True, False])
    loc = Locus(BIC2, "X1", t, np.arange(5.0), -np.arange(5.0), ok)
    samples = loc.samples
    assert [s.t for s in samples] == t.tolist()
    assert [s.valid for s in samples] == ok.tolist()
    # invalid samples read NaN, whatever the constructor was given there
    for s in samples:
        assert isinstance(s.p, Point)
        assert math.isnan(s.p.x) == (not s.valid) and math.isnan(s.p.y) == (not s.valid)
    assert loc.valid_xy().tolist() == [[0.0, -0.0], [2.0, -2.0], [3.0, -3.0]]
    rebuilt = Locus(
        loc.family, loc.tracked,
        [s.t for s in samples], [s.p.x for s in samples], [s.p.y for s in samples],
        [s.valid for s in samples],
    )
    for name in ("t", "x", "y", "ok"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(loc, name))


def test_traced_locus_samples_round_trip_with_invalid_samples():
    loc = trace_locus(bic3_config(1.0, 0.2, 0.3, 1.2), "X1", 64, min_valid=0)
    assert not loc.ok.any()
    assert all(math.isnan(s.p.x) and math.isnan(s.p.y) for s in loc.samples)
    assert loc.valid_xy().shape == (0, 2)
    assert stationarity_spread(loc) == math.inf
    loc = trace_locus(BIC2, "P2'", 128)
    assert loc.valid_xy().tolist() == [list(s.p) for s in loc.samples if s.valid]
