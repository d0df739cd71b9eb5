"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``CRITERION nn: PASS/FAIL`` line (visible with
``pytest -s``; under plain ``pytest -v`` the test outcome itself is the
per-criterion line) and then asserts, so a failing criterion fails its
test with the full measured evidence in the message.  Criterion 4's
sextic and criterion 11's reference row are each backed by an exact
certificate, tested next to them.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from poncelet import centers
from poncelet.geom import Line, Point, line_tangent_to_conic_residual
from poncelet.families import (
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    TangentBranch,
    PLUS,
    MINUS,
    bic1_config,
    bic2_config,
    bic3_config,
    chapple_distance,
    conf1_config,
    conf2_config,
    critical_lambda,
    degenerate_envelope_inradius,
    envelope_points,
)
from poncelet.loci import (
    CONIC_TOL,
    classify_locus,
    convexity_check,
    convexity_lambda_root,
    convexity_quintic_coeffs,
    fit_curve,
    sextic_coefficients_x2,
    stationarity_spread,
    trace_locus,
    verdict_letter,
    verify_implicit_sextic_x2,
)
from poncelet.claims import (
    bic2_collapse_point,
    bic2_x1_circle,
    conf1_excentral_axes,
    conf1_x1_axes,
    conf2_excentral_axes,
    n4_lambda,
    n6_lambda,
    run_claims,
)

from _geometry_oracle import measured

GRID = [
    BicentricParams(1.0, r, d)
    for r, d in product((0.15, 0.2, 0.25), (0.2, 0.3, 0.4))
]

CATALOG = ("X1", "X3", "X35", "X36", "X40", "X46", "X55",
           "X56", "X57", "X65", "X165", "X354", "X484", "X942")

# verdict row for the two-caustic circle family, as certified exactly by
# test_criterion_11_reference_row_certificate: C circle, E other ellipse,
# P fixed point, X curve of degree >= 3
REFERENCE_ROW = ("C", "P", "E", "C", "C", "X", "E", "E", "X", "X", "C", "X", "X", "X")

# Every catalog center lies on the line OI: X = O + g(k) (I - O) with
# k = rho/R, the triangle's inradius over its circumradius.
CENTRAL_LINE_RATIO = {
    "X1": lambda k: 1,
    "X3": lambda k: 0,
    "X35": lambda k: 1 / (1 + 2 * k),
    "X36": lambda k: 1 / (1 - 2 * k),
    "X40": lambda k: -1,
    "X46": lambda k: (1 + k) / (1 - k),
    "X55": lambda k: 1 / (1 + k),
    "X56": lambda k: 1 / (1 - k),
    "X57": lambda k: (2 + k) / (2 - k),
    "X65": lambda k: 1 + k,
    "X165": lambda k: Fraction(-1, 3),
    "X354": lambda k: 1 + k / 3,
    "X484": lambda k: (1 + 2 * k) / (1 - 2 * k),
    "X942": lambda k: 1 + k / 2,
}


def bic2_vertices(p: BicentricParams, t: float):
    """The bic-II member at angle t, with the test oracle's measures."""
    return measured(FamilyConfig("bic-II", p).triangle(t))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_incenter_circle_grid():
    worst = 0.0
    for p in GRID:
        center, radius = bic2_x1_circle(p)
        pts = trace_locus(bic2_config(p.R, p.r, p.d), "X1", n=512).valid_xy().tolist()
        dev = max(abs(math.dist(q, center) - radius) for q in pts) / p.R
        worst = max(worst, dev)
    _report(1, worst <= 1e-9,
            f"X1 stays on the predicted circle over a 3x3 grid, max dev {worst:.3e}")


def test_criterion_02_incenter_circle_degenerates_when_poristic():
    R, r = 1.0, 0.25
    d = chapple_distance(R, r)
    _, radius = bic2_x1_circle(BicentricParams(R, r, d))
    spread = stationarity_spread(trace_locus(bic1_config(R, r), "X1", n=256))
    ok = abs(radius) <= 1e-12 and spread <= 1e-10
    _report(2, ok,
            f"closed-form radius {radius:.3e}, measured X1 spread {spread:.3e}")


def test_criterion_03_first_excenter_circle():
    worst = 0.0
    for p in GRID:
        center, _ = bic2_x1_circle(p)
        ex_center = Point(-center.x, 0.0)
        ex_radius = p.R * (p.R ** 2 + 2.0 * p.R * p.r - p.d ** 2) / (p.R ** 2 - p.d ** 2)
        pts = trace_locus(bic2_config(p.R, p.r, p.d), "P1'", n=512).valid_xy().tolist()
        dev = max(abs(math.dist(q, ex_center) - ex_radius) for q in pts) / p.R
        worst = max(worst, dev)
    # poristic case: the excenter circle has radius exactly twice the outer
    R, r = 1.0, 0.25
    d = chapple_distance(R, r)
    ex_radius = R * (R * R + 2.0 * R * r - d * d) / (R * R - d * d)
    rel = abs(ex_radius - 2.0 * R) / R
    ok = worst <= 1e-9 and rel <= 1e-12
    _report(3, ok,
            f"P1' on the mirror circle, max dev {worst:.3e}; "
            f"poristic radius vs 2R off by {rel:.3e}")


def test_criterion_04_centroid_sextic_grid():
    worst = 0.0
    worst_conic = math.inf
    for p in GRID:
        loc = trace_locus(bic2_config(p.R, p.r, p.d), "X2", n=512)
        worst = max(worst, verify_implicit_sextic_x2(p, loc))
        f2 = fit_curve(loc.valid_xy(), 2)
        worst_conic = min(worst_conic, f2.residual)
    ok = worst <= 1e-8 and worst_conic > 1e-3
    _report(4, ok,
            f"X2 implicit sextic residual {worst:.3e} over the grid; "
            f"smallest conic-fit residual {worst_conic:.3e} (must stay large)")


@pytest.mark.parametrize(
    "R, r, d",
    [(1, Fraction(1, 5), Fraction(3, 10)), (1, Fraction(3, 20), Fraction(7, 20))],
    ids=["r=1/5,d=3/10", "r=3/20,d=7/20"],
)
def test_criterion_04_centroid_sextic_certificate(R, r, d):
    """Exact derivation of the barycenter sextic, apart from the package.

    P1 and P(s) run on the outer circle in half-angle parameters t and s.
    The chord P1P(s) is tangent to the caustic where a quadratic in s
    vanishes (the tangency condition over (s - t)^2); its roots are P2 and
    P3, so Vieta's formulas give P2 + P3, and X2 = (P1 + P2 + P3)/3, as
    rational functions of t.  A resultant eliminates t.  The result must
    be the transcribed ``sextic_coefficients_x2``, monomial for monomial.
    """
    sp = pytest.importorskip("sympy")
    t, s, x, y = sp.symbols("t s x y")
    R, r, d = sp.Rational(R), sp.Rational(r), sp.Rational(d)

    def on_outer(u):  # homogeneous coordinates (X, Y, W) of the point
        return R * (1 - u ** 2), 2 * R * u, 1 + u ** 2

    (x1, y1, w1), (xs, ys, ws) = on_outer(t), on_outer(s)
    # the chord a X + b Y + c W = 0 through P1 and P(s), tangent to the caustic
    a, b, c = y1 * ws - w1 * ys, w1 * xs - x1 * ws, x1 * ys - y1 * xs
    tangency = sp.expand((a * d + c) ** 2 - r ** 2 * (a * a + b * b))
    quadratic, rem = sp.div(tangency, sp.expand((s - t) ** 2), s)
    assert rem == 0
    qa, qb, qc = sp.Poly(quadratic, s).all_coeffs()
    e1, e2 = -qb / qa, qc / qa  # s2 + s3 and s2 s3
    norm = 1 + e1 ** 2 - 2 * e2 + e2 ** 2  # (1 + s2^2)(1 + s3^2)
    gx = (x1 / w1 + R * (2 * (2 + e1 ** 2 - 2 * e2) / norm - 2)) / 3
    gy = (y1 / w1 + R * 2 * (e1 + e1 * e2) / norm) / 3
    px, qx = sp.fraction(sp.cancel(gx))
    py, qy = sp.fraction(sp.cancel(gy))
    res = sp.Poly(sp.resultant(sp.expand(x * qx - px), sp.expand(y * qy - py), t), x, y)
    assert res.total_degree() == 6

    scale = 729 / res.coeff_monomial(x ** 6)
    exact = {m: float(v * scale) for m, v in res.terms()}
    got = sextic_coefficients_x2(BicentricParams(float(R), float(r), float(d)))
    assert set(got) == set(exact)
    worst = max(abs(got[m] - v) / abs(v) for m, v in exact.items())
    assert worst <= 1e-14, worst


def test_criterion_05_excentral_ellipse_and_odd_one_out():
    a, b = 2.0, 1.0
    lam_star = critical_lambda(a, b)
    details = []
    ok = True
    for lam in (0.2, 0.5, 0.8, lam_star):
        p = ConfocalParams(a, b, lam)
        cfg = conf2_config(a, b, lam)
        ae, be = conf2_excentral_axes(p)
        pair_res = 0.0
        for key in ("P2'", "P3'"):
            pts = trace_locus(cfg, key, n=512).valid_xy().tolist()
            pair_res = max(
                pair_res,
                max(abs((x / ae) ** 2 + (y / be) ** 2 - 1.0) for x, y in pts),
            )
        pts1 = trace_locus(cfg, "P1'", n=512).valid_xy()
        if abs(lam - lam_star) < 1e-9:
            solo = max(abs((x / ae) ** 2 + (y / be) ** 2 - 1.0) for x, y in pts1.tolist())
            ok = ok and pair_res <= 1e-9 and solo <= 1e-9
            details.append(f"lam*={lam:.4f}: all three on the ellipse ({solo:.1e})")
        else:
            f2 = fit_curve(pts1, 2)
            f6 = fit_curve(pts1, 6)
            ok = ok and pair_res <= 1e-9
            ok = ok and f2.residual > 10.0 * CONIC_TOL
            ok = ok and f6.residual <= 1e-8
            details.append(
                f"lam={lam}: pair on ellipse ({pair_res:.1e}), "
                f"P1' conic {f2.residual:.1e} vs sextic {f6.residual:.1e}"
            )
    _report(5, ok, "; ".join(details))


def test_criterion_06_four_periodic_aspect_swap():
    a, b = 2.0, 1.0
    lam4 = n4_lambda(a, b)
    ae, be = conf2_excentral_axes(ConfocalParams(a, b, lam4))
    aspect_err = abs(ae / be - b / a)
    la, lb, lc, ok = conf2_config(a, b, lam4).free_sides(
        np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))
    worst = float(np.max(abs(Line(la[ok], lb[ok], lc[ok]).signed_distance(Point(0.0, 0.0)))))
    ok = aspect_err <= 1e-10 and worst <= 1e-9
    _report(6, ok,
            f"excentral aspect swaps to b/a (err {aspect_err:.3e}); "
            f"free sides pass through the center (max {worst:.3e})")


def test_criterion_07_six_periodic_excentral_circle():
    a, b = 2.0, 1.0
    lam6 = n6_lambda(a, b)
    ae, be = conf2_excentral_axes(ConfocalParams(a, b, lam6))
    rel = abs(ae - be) / ae
    fit = classify_locus(trace_locus(conf2_config(a, b, lam6), "P2'", n=256))
    radius_err = abs(fit.conic.semi_axes[0] - ae) if fit.conic else math.inf
    ok = rel <= 1e-10 and fit.verdict == "circle" and radius_err <= 1e-9
    _report(7, ok,
            f"excentral axes equal to {rel:.3e} (radius {ae:.6f}); "
            f"sampled excenter sweep classifies as {fit.verdict}, "
            f"radius off by {radius_err:.3e}")


def test_criterion_08_centroid_third_scale_at_four_periodic():
    a, b = 2.0, 1.0
    lam4 = n4_lambda(a, b)
    pts = trace_locus(conf2_config(a, b, lam4), "X2", n=512).valid_xy().tolist()
    worst = max(abs((3.0 * x / a) ** 2 + (3.0 * y / b) ** 2 - 1.0) for x, y in pts)
    # concentric circular analogue: same one-third homothety
    Rc = 1.0
    cfg = bic2_config(Rc, Rc / math.sqrt(2.0), 0.0)
    pts2 = trace_locus(cfg, "X2", n=256).valid_xy().tolist()
    worst2 = max(abs(math.dist(q, Point(0.0, 0.0)) - Rc / 3.0) for q in pts2)
    ok = worst <= 1e-9 and worst2 <= 1e-9
    _report(8, ok,
            f"X2 sweeps the one-third outer ellipse (res {worst:.3e}); "
            f"concentric circular analogue (res {worst2:.3e})")


def test_criterion_09_free_side_envelopes():
    ts = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    worst_tan = 0.0
    for cfg in (bic2_config(1.0, 0.2, 0.3), conf2_config(2.0, 1.0, 0.5)):
        a, b, c, ok = cfg.free_sides(ts)
        residual = line_tangent_to_conic_residual(Line(a[ok], b[ok], c[ok]), cfg.closed_form_envelope())
        worst_tan = max(worst_tan, float(np.max(abs(residual))))
    # degenerate inradius: every free side passes through one point
    R, d = 1.0, 0.3
    collapse_cfg = bic2_config(R, degenerate_envelope_inradius(R, d), d)
    pt = bic2_collapse_point(R, d)
    a, b, c, ok = collapse_cfg.free_sides(ts)
    worst_pt = float(np.max(abs(Line(a[ok], b[ok], c[ok]).signed_distance(pt))))
    ok = worst_tan <= 1e-9 and worst_pt <= 1e-8
    _report(9, ok,
            f"free sides tangent to the predicted conics (max {worst_tan:.3e}); "
            f"degenerate case concurrent at one point (max {worst_pt:.3e})")


def test_criterion_10_summary_table_letters():
    from poncelet.claims import summary_table

    rep = summary_table()
    mism = [n for n in rep.notes if "mismatch" in n]
    _report(10, rep.passed and not mism,
            f"all 36 table cells match; rows: "
            + " | ".join(",".join(r) for r in rep.rows[1:]))


def test_criterion_11_catalog_rows_against_reference():
    # (a) poristic family: the whole catalog is stationary
    cfg1 = bic1_config(1.0, 0.25)
    max_spread = max(
        stationarity_spread(trace_locus(cfg1, key, n=256)) for key in CATALOG
    )
    clause_a = max_spread <= 1e-9

    # (b) two-caustic circle family: letters against the reference row,
    # grouping C/E together for the conic cells
    cfg2 = bic2_config(1.0, 0.2, 0.3)
    measured = []
    mismatches = []
    for key, ref in zip(CATALOG, REFERENCE_ROW):
        fit = classify_locus(trace_locus(cfg2, key, n=512))
        letter = verdict_letter(fit)
        measured.append(letter)
        if ref in ("C", "E"):
            agree = letter in ("C", "E")
        elif ref == "X":
            agree = letter not in ("P", "C", "E")
        else:
            agree = letter == ref
        if not agree:
            mismatches.append(
                f"{key}: measured {letter} (fit residual {fit.residual:.1e}) "
                f"vs reference {ref}"
            )
    clause_b = not mismatches

    # (c) two-caustic pencil family: everything except the fixed
    # circumcenter moves on a non-conic curve
    cfg3 = bic3_config(1.0, 0.15, 0.25, 0.4)
    bad3 = []
    for key in CATALOG:
        letter = verdict_letter(classify_locus(trace_locus(cfg3, key, n=512)))
        want_point = key == "X3"
        if want_point and letter != "P":
            bad3.append(f"{key}={letter}")
        if not want_point and letter in ("P", "C", "E"):
            bad3.append(f"{key}={letter}")
    clause_c = not bad3

    detail = (
        f"(a) poristic spreads <= {max_spread:.2e}; "
        f"(b) measured row {' '.join(measured)}"
        + (f" — {len(mismatches)} cells differ from the reference row: "
           + "; ".join(mismatches) if mismatches else " matches reference")
        + f"; (c) pencil-family non-conic {'ok' if clause_c else ','.join(bad3)}"
    )
    _report(11, clause_a and clause_b and clause_c, detail)


@pytest.mark.parametrize(
    "R, r, d",
    [(1, Fraction(1, 5), Fraction(3, 10)), (1, Fraction(3, 20), Fraction(2, 5))],
    ids=["r=1/5,d=3/10", "r=3/20,d=2/5"],
)
def test_criterion_11_reference_row_certificate(R, r, d):
    """Exact degree of every catalog locus over the two-caustic circle family.

    The vertices lie on the outer circle, so O is the origin, R is fixed
    and I runs on the circle of ``bic2_x1_circle``.  Euler's relation
    |OI|^2 = R^2 - 2 R rho makes the inradius rho affine in I on that
    circle, so each center O + g(rho/R) (I - O) is rational in the
    half-angle parameter t of the I-circle.  A resultant eliminates t; the
    degree of the one irreducible factor, and whether a conic is a circle,
    give each cell's letter.  Uses no sampling and no fitting.
    """
    sp = pytest.importorskip("sympy")
    t, x, y = sp.symbols("t x y")
    R, r, d = sp.Rational(R), sp.Rational(r), sp.Rational(d)
    w = R * R - d * d
    cx, rad = 2 * d * R * r / w, R * (R * R - 2 * R * r - d * d) / w

    # the premises, checked against the program at these parameters
    p = BicentricParams(float(R), float(r), float(d))
    center, radius = bic2_x1_circle(p)
    assert math.dist(center, (float(cx), 0.0)) < 1e-15
    assert abs(radius - float(rad)) < 1e-15
    for t0 in (0.3, 1.1, 2.9, 4.4):
        tri = bic2_vertices(p, t0)
        o, i = centers.center(tri, "X3"), centers.center(tri, "X1")
        assert math.hypot(*o) < 1e-12 and abs(tri.circumradius() - p.R) < 1e-12
        rho = tri.inradius()
        assert abs(rho - (p.R ** 2 - i.x ** 2 - i.y ** 2) / (2.0 * p.R)) < 1e-12
        for key in CATALOG:
            g = float(CENTRAL_LINE_RATIO[key](rho / p.R))
            want = Point(o.x + g * (i.x - o.x), o.y + g * (i.y - o.y))
            assert math.dist(want, centers.center(tri, key)) < 1e-9, key

    ix = cx + rad * (1 - t ** 2) / (1 + t ** 2)
    iy = rad * 2 * t / (1 + t ** 2)
    k = (R * R - ix ** 2 - iy ** 2) / (2 * R * R)
    letters, degrees = [], {}
    for key in CATALOG:
        g = sp.cancel(sp.sympify(CENTRAL_LINE_RATIO[key](k)))
        if g == 0:
            letters.append("P")
            continue
        px, qx = sp.fraction(sp.cancel(g * ix))
        py, qy = sp.fraction(sp.cancel(g * iy))
        res = sp.resultant(sp.expand(x * qx - px), sp.expand(y * qy - py), t)
        curves = [sp.Poly(f, x, y) for f, _ in sp.factor_list(res, x, y)[1]]
        assert len(curves) == 1, key
        (curve,) = curves
        degrees[key] = curve.total_degree()
        if degrees[key] == 2:
            a, b, c = (curve.coeff_monomial(m) for m in (x ** 2, x * y, y ** 2))
            e, f, h = (curve.coeff_monomial(m) for m in (x, y, 1))
            conic = sp.Matrix([[2 * a, b, e], [b, 2 * c, f], [e, f, 2 * h]])
            assert b * b - 4 * a * c < 0 and conic.det() != 0, key
            letters.append("C" if a == c and b == 0 else "E")
        else:
            letters.append("X")
    assert set(degrees.values()) == {2, 4}, degrees
    assert tuple(letters) == REFERENCE_ROW, (letters, degrees)


def test_criterion_12_conserved_quantities():
    # poristic family: angle-cosine sum is pinned at 1 + r/R
    R, r = 1.0, 0.25
    cfg = bic1_config(R, r)
    worst_cos = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
        s1, s2, s3 = measured(cfg.triangle(float(t))).side_lengths()
        cos_sum = (
            (s2 * s2 + s3 * s3 - s1 * s1) / (2.0 * s2 * s3)
            + (s3 * s3 + s1 * s1 - s2 * s2) / (2.0 * s3 * s1)
            + (s1 * s1 + s2 * s2 - s3 * s3) / (2.0 * s1 * s2)
        )
        worst_cos = max(worst_cos, abs(cos_sum - (1.0 + r / R)))

    # confocal closure: perimeter is conserved, the mittenpunkt is pinned
    cfg2 = conf1_config(2.0, 1.0)
    perims = []
    for t in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
        perims.append(sum(measured(cfg2.triangle(float(t))).side_lengths()))
    perim_rel = (max(perims) - min(perims)) / max(perims)
    x9_spread = stationarity_spread(trace_locus(cfg2, "X9", n=256))

    # locus-axes reciprocity: X1 ellipse aspect is the excentral inverse
    a1, b1 = conf1_x1_axes(2.0, 1.0)
    ae, be = conf1_excentral_axes(2.0, 1.0)
    recip = abs(a1 / b1 - be / ae)

    ok = (worst_cos <= 1e-10 and perim_rel <= 1e-9
          and x9_spread <= 1e-10 and recip <= 1e-10)
    _report(12, ok,
            f"cos-sum dev {worst_cos:.3e}; perimeter rel spread {perim_rel:.3e}; "
            f"X9 spread {x9_spread:.3e}; aspect reciprocity {recip:.3e}")


def test_criterion_13_convexity_transition():
    a, b = 2.0, 1.0
    root = convexity_lambda_root(a, b)
    coeffs = convexity_quintic_coeffs(a, b)
    resid = abs(sum(c * root ** (5 - i) for i, c in enumerate(coeffs)))

    def convex_at(lam: float) -> bool:
        return convexity_check(trace_locus(conf2_config(a, b, lam), "X1", n=512).valid_xy())

    lo, hi = 0.85 * root, 1.15 * root
    assert convex_at(lo) and not convex_at(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if convex_at(mid):
            lo = mid
        else:
            hi = mid
    empirical = 0.5 * (lo + hi)
    gap = abs(empirical - root)
    ok = resid <= 1e-10 and gap <= 1e-3
    _report(13, ok,
            f"quintic residual at the root {resid:.3e}; "
            f"sampled transition {empirical:.9f} vs root {root:.9f} (gap {gap:.2e})")


def test_criterion_14_branch_envelopes_pair_up():
    R = 1.0
    ts = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False) + 0.013
    fits = []
    for first, second in product((PLUS, MINUS), repeat=2):
        cfg = bic3_config(R, 0.15, 0.25, 0.4, branch=TangentBranch(first, second))
        pts = envelope_points(cfg.free_sides, ts)
        fit = fit_curve(pts, 2)
        assert fit.conic is not None and fit.conic.kind == "circle"
        fits.append((fit.conic.center.x, fit.conic.center.y, fit.conic.semi_axes[0]))
    clusters = []
    for trip in fits:
        for c in clusters:
            if math.dist(trip, c[0]) < 1e-6 * R:
                c.append(trip)
                break
        else:
            clusters.append([trip])
    seps = [
        math.dist(c1[0], c2[0])
        for i, c1 in enumerate(clusters)
        for c2 in clusters[i + 1:]
    ]
    ok = len(clusters) == 2 and all(len(c) == 2 for c in clusters) and min(seps) > 1e-3 * R
    _report(14, ok,
            f"four branch choices produce {len(clusters)} distinct envelopes "
            f"(sizes {[len(c) for c in clusters]}, separation {min(seps) if seps else 0:.3e})")


def test_criterion_15_claim_registry_green_and_fast():
    t0 = time.time()
    reports = run_claims(None)
    elapsed = time.time() - t0
    failed = [r.claim_id for r in reports if r.gating and not r.passed]
    ok = not failed and elapsed < 60.0
    _report(15, ok,
            f"{sum(1 for r in reports if r.gating)} checked claims green, "
            f"{sum(1 for r in reports if not r.gating)} evidence reports, "
            f"in {elapsed:.1f}s" + (f"; failures: {failed}" if failed else ""))
