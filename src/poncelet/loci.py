"""Locus tracing, implicit curve fitting, classification, and convexity.

A locus is the path swept by a tracked point (triangle center, excenter,
or vertex) as the driving angle t of a triangle family sweeps [0, 2pi).
Classification runs a verdict ladder: stationary point, then conic
(circle/ellipse), then algebraic curves of increasing degree, and
finally "nonconic" when nothing of degree <= MAX_DEGREE fits.  A
``Locus`` keeps its samples as four read-only arrays (t, x, y, ok).

One pass over the valid samples' x and y arrays centers them on their
centroid and squares their radii.  Twice the largest radius over the
outer scale is the stationarity spread, which decides the point verdict
in O(n); the RMS radius is the scale of the fit.

Fits are total-least-squares implicit fits: the sample coordinates are
centered and scaled to unit RMS radius, a design matrix over all
monomials up to the requested degree is assembled (graded, so a lower
degree's design is a column prefix: the ladder fills one design, each
grade when a degree first reaches it as one product of its power
columns, the powers as running products, and takes one SVD per degree,
of the m x m QR factor R of its n x m prefix).  The residual is the
smallest singular value over sqrt(n), i.e. the RMS of the normalized
implicit values.  Only degree 2 computes singular vectors: its smallest
right singular vector gives the conic's coefficient vector, with the
bits of the full SVD of the prefix.  Every other degree takes the
singular values alone, so its residual has the bits of
``np.linalg.svd(prefix, compute_uv=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import centers as _centers
from .families import BicentricParams, FamilyConfig, TriangleBatch, _require_axes
from .geom import Conic, GeometryError, Point, classify_conic

__all__ = [
    "InsufficientSamples",
    "NoConvexityRoot",
    "POINT_TOL",
    "CONIC_TOL",
    "CURVE_TOL",
    "MAX_DEGREE",
    "ELBOW_FACTOR",
    "LocusSample",
    "Locus",
    "CurveFit",
    "trace_locus",
    "monomial_exponents",
    "fit_curve",
    "classify_locus",
    "verdict_letter",
    "stationarity_spread",
    "convexity_check",
    "convexity_quintic_coeffs",
    "convexity_lambda_root",
    "sextic_coefficients_x2",
    "sextic_residual",
    "verify_implicit_sextic_x2",
]


class InsufficientSamples(GeometryError):
    """Fewer valid samples than the operation requires."""


class NoConvexityRoot(GeometryError):
    """The convexity-transition quintic has no qualifying root."""


MIN_VALID_SAMPLES = 32


# Classification thresholds, all in normalized coordinates.
POINT_TOL = 1e-8
CONIC_TOL = 1e-7
CURVE_TOL = 1e-6
MAX_DEGREE = 8
# The elbow rule guards the degree ladder against spurious approximants:
# a degree is only accepted when the next degree no longer improves the
# residual by more than this factor.  Fits of a sampled curve whose true
# degree is higher keep improving by orders of magnitude per degree; at
# the true degree the residual flattens out at the numerical floor.
ELBOW_FACTOR = 1e-2


class LocusSample(NamedTuple):
    t: float
    p: Point
    valid: bool


@dataclass(frozen=True, eq=False)
class Locus:
    """Samples on the t grid as read-only copies of the arrays given; x, y
    are NaN where ok is false."""

    family: FamilyConfig
    tracked: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    ok: np.ndarray

    def __post_init__(self) -> None:
        ok = np.array(self.ok, dtype=bool)
        for name, arr in (("t", np.array(self.t, dtype=float)), ("ok", ok),
                          ("x", np.where(ok, self.x, np.nan)), ("y", np.where(ok, self.y, np.nan))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def samples(self) -> Tuple[LocusSample, ...]:
        pts = map(Point, self.x.tolist(), self.y.tolist())
        return tuple(map(LocusSample, self.t.tolist(), pts, self.ok.tolist()))

    def valid_xy(self) -> np.ndarray:
        """The valid samples as an (m, 2) array."""
        return np.column_stack((self.x[self.ok], self.y[self.ok]))


@dataclass(frozen=True)
class CurveFit:
    """Result of an implicit fit and/or classification: the degree of the
    fitted curve, its residual, and the verdict.  A degree-2 fit also
    holds its ``conic``, mapped back to the original frame; the ladder's
    nonconic fallback, at its top degree max(2, MAX_DEGREE), holds none."""

    degree: int
    residual: float
    verdict: str
    conic: Optional[Conic] = None


def _grid(n: int) -> np.ndarray:
    """The t grid of n samples: 2 pi k / n for k = 0 .. n - 1."""
    return 2.0 * np.pi * np.arange(n) / n


def _grid_samples(cfg: FamilyConfig, n: int) -> Tuple[np.ndarray, TriangleBatch]:
    """(t, members): the family on the n-sample grid, kept read-only on
    the config object until it is asked for another n.

    Every kernel is elementwise, so what a tracked point reads from kept
    samples has the bits of a fresh config's.  The holder belongs to the
    object, never to an equal one: equal parameters (0.0 and -0.0) need
    not give the same bits.
    """
    kept = cfg._kept
    if n not in kept:
        ts = _grid(n)
        tri = cfg.triangles(ts)
        for arr in (ts, *tri):
            arr.flags.writeable = False
        kept.clear()
        kept[n] = (ts, tri)
    return kept[n]


def trace_locus(
    cfg: FamilyConfig, tracked: str, n: int = 512, min_valid: Optional[int] = None
) -> Locus:
    """Trace a tracked point (any id ``centers.kernel_of`` knows: a
    vertex, an excenter or a center) over n uniformly spaced driving
    angles.

    The family and the point are evaluated on the whole t grid at once.
    The config object keeps the grid and its TriangleBatch for the last
    n traced, so tracing many points of one family at one n builds them
    once; the bits are those of a fresh config.  Family
    configurations where some angles are inadmissible (vertex
    inside a caustic, degenerate triangle) yield invalid samples, which
    are kept in place — marked — so the t-grid stays uniform.  A sample
    is invalid exactly where the one-angle calls raise for it
    (``cfg.triangle``, then ``center``), or where the
    point is not finite; where it is valid, it has their bits.

    ``min_valid`` defaults to the floor classification needs; pass a
    smaller value when the samples are only being printed or plotted.
    """
    _centers.kernel_of(tracked)  # an unknown id raises before any sampling
    need = MIN_VALID_SAMPLES if min_valid is None else min_valid
    if n < need:
        raise InsufficientSamples(f"need at least {need} samples, got {n}")
    ts, tri = _grid_samples(cfg, n)
    x, y, ok = _centers.center_arrays(tri, tracked)
    ok = ok & np.isfinite(x) & np.isfinite(y)
    valid = int(np.count_nonzero(ok))
    if valid < need:
        dropped = tri.ok & ~ok
        collinear = np.count_nonzero(dropped & (tri.fault != 0))
        raise InsufficientSamples(
            f"only {valid} valid samples for {tracked} ({n - np.count_nonzero(tri.ok)} members missing,"
            f" {collinear} collinear, {np.count_nonzero(dropped) - collinear} with the point undefined"
            " or not finite)"
        )
    return Locus(cfg, tracked, ts, x, y, ok)


def monomial_exponents(degree: int) -> List[Tuple[int, int]]:
    """(i, j) exponent pairs of all monomials x^i y^j with i+j <= degree,
    graded by total degree, x-dominant first within each grade."""
    out: List[Tuple[int, int]] = []
    for d in range(degree + 1):
        for i in range(d, -1, -1):
            out.append((i, d - i))
    return out


class _Centered(NamedTuple):
    """Samples about their centroid (cx, cy): the offsets dx, dy and their
    squared radii r2 = dx^2 + dy^2, one pass that serves the spread, the
    point test and the normalization."""

    cx: float
    cy: float
    dx: np.ndarray
    dy: np.ndarray
    r2: np.ndarray

    def spread(self, scale: float) -> float:
        """Twice the largest distance from the centroid, over ``scale``:
        between the samples' diameter and twice it (up to rounding)."""
        return 2.0 * math.sqrt(float(self.r2.max())) / scale

    def normalized(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """(dx / s, dy / s, s): the offsets over their RMS radius s, or
        over 1 when that is 0."""
        s = math.sqrt(float(self.r2.sum()) / len(self.r2))
        if s <= 0.0:
            s = 1.0
        return self.dx / s, self.dy / s, s


def _centered(x: np.ndarray, y: np.ndarray) -> _Centered:
    """Nonempty 1-D coordinate arrays about their centroid.  Each
    coordinate's sum is sequential (the last running sum), which has
    the bits of ``mean(axis=0)`` on the (n, 2) stack; a 1-D ``mean``
    sums pairwise and has not."""
    n = len(x)
    cx = float(np.add.accumulate(x)[-1]) / n
    cy = float(np.add.accumulate(y)[-1]) / n
    dx = x - cx
    dy = y - cy
    return _Centered(cx, cy, dx, dy, dx * dx + dy * dy)


def _denormalized_conic(coeffs: Sequence[float], shift: Tuple[float, float], s: float) -> Tuple[float, ...]:
    """Map a degree-2 coefficient vector from the normalized frame back
    to original coordinates, as a 6-vector (x^2, xy, y^2, x, y, 1)."""
    # normalized monomial order: 1, x, y, x^2, xy, y^2
    f0, d0, e0, a0, b0, c0 = coeffs
    cx, cy = shift
    s2 = s * s
    a = a0 / s2
    b = b0 / s2
    c = c0 / s2
    d = d0 / s - (2.0 * a0 * cx + b0 * cy) / s2
    e = e0 / s - (b0 * cx + 2.0 * c0 * cy) / s2
    f = (
        f0
        - (d0 * cx + e0 * cy) / s
        + (a0 * cx * cx + b0 * cx * cy + c0 * cy * cy) / s2
    )
    return (a, b, c, d, e, f)


class _MonomialDesign:
    """The design's columns x^i y^j in monomial_exponents order, up to
    degree ``top``, filled one grade (the monomials of one total degree)
    at a time: grade d is built the first time a degree >= d asks for it.

    Columns are written into one column-major buffer, so every degree's
    design is a ready column prefix; each is ``xp[i] * yp[j]`` with
    ``xp[i] = xp[i - 1] * x`` from i = 2 on (``x ** 2``'s bits), so no bit
    hangs on the host's ``pow`` and -x gives the sign-flipped design: the
    same bits as a design built whole from sequential products.  The x
    powers are kept as columns in falling order and the y powers in
    rising order, so grade d, whose x exponent falls from d to 0 as its y
    exponent rises, is one product of two column blocks."""

    def __init__(self, x: np.ndarray, y: np.ndarray, top: int) -> None:
        self.n = len(x)
        self.degree = -1  # the highest grade built so far
        self._x, self._y, self._top = x, y, top
        self._xp = np.empty((self.n, top + 1), order="F")  # column top - i holds x^i
        self._yp = np.empty((self.n, top + 1), order="F")  # column j holds y^j
        self._cols = np.empty((self.n, (top + 1) * (top + 2) // 2), order="F")

    def columns(self, degree: int) -> np.ndarray:
        """The (n, m) design up to ``degree``; builds the grades it lacks."""
        xp, yp, cols = self._xp, self._yp, self._cols
        for d in range(self.degree + 1, degree + 1):
            k = self._top - d
            if d == 0:
                xp[:, k] = yp[:, 0] = 1.0
            elif d == 1:
                xp[:, k] = self._x
                yp[:, 1] = self._y
            else:
                np.multiply(xp[:, k + 1], self._x, out=xp[:, k])
                np.multiply(yp[:, d - 1], self._y, out=yp[:, d])
            first = d * (d + 1) // 2
            np.multiply(xp[:, k:], yp[:, : d + 1], out=cols[:, first : first + d + 1])
            self.degree = d
        return cols[:, : (degree + 1) * (degree + 2) // 2]


class _Rung(NamedTuple):
    """One degree of the ladder: its residual and, at degree 2 only, the
    smallest right singular vector of its design prefix (None above)."""

    degree: int
    null: Optional[np.ndarray]
    residual: float


# The strict lower triangle of an m x m matrix, per m.
_LOWER: Dict[int, np.ndarray] = {}


def _rung(design: _MonomialDesign, degree: int) -> _Rung:
    """The degree's prefix spectrum, taken of its QR factor R once n >= 2m
    is checked: dgesdd takes that path itself for so tall a matrix, so the
    bits are those of ``np.linalg.svd(prefix, full_matrices=False)`` at
    degree 2, whose null vector gives the conic, and of
    ``np.linalg.svd(prefix, compute_uv=False)`` at every other degree,
    where only the smallest singular value is read."""
    m = (degree + 1) * (degree + 2) // 2
    n = design.n
    if n < 2 * m:
        raise InsufficientSamples(f"degree {degree} needs >= {2 * m} samples, got {n}")
    # Raw mode returns the factored prefix transposed.  Its first m rows
    # hold R on and above the diagonal, Householder reflectors below.
    r = np.linalg.qr(design.columns(degree), mode="raw")[0][:, :m].T
    lower = _LOWER.get(m)
    if lower is None:
        lower = _LOWER[m] = np.tri(m, k=-1, dtype=bool)
    r[lower] = 0.0
    if degree != 2:
        return _Rung(degree, None, float(np.linalg.svd(r, compute_uv=False)[-1]) / math.sqrt(n))
    _, sigma, vt = np.linalg.svd(r)
    return _Rung(degree, vt[-1], float(sigma[-1]) / math.sqrt(n))


def _curve_fit(rung: _Rung, shift: Tuple[float, float], s: float) -> CurveFit:
    """The CurveFit of a rung; a degree-2 rung also gets its conic."""
    verdict = "algebraic"
    conic = None
    if rung.degree == 2:
        conic = classify_conic(_denormalized_conic(rung.null, shift, s))
        if rung.residual <= CONIC_TOL and conic.kind in ("circle", "ellipse"):
            verdict = conic.kind
    return CurveFit(rung.degree, rung.residual, verdict, conic)


def fit_curve(samples, degree: int) -> CurveFit:
    """Fit one implicit algebraic curve of the given total degree to a
    Point sequence or an (n, 2) array.

    Requires at least twice as many samples as monomials.  The verdict
    is "circle"/"ellipse" only for degree-2 fits that meet CONIC_TOL
    and classify accordingly; otherwise "algebraic".
    """
    m = (degree + 1) * (degree + 2) // 2
    if len(samples) < 2 * m:
        raise InsufficientSamples(f"degree {degree} needs >= {2 * m} samples, got {len(samples)}")
    arr = np.asarray(samples, dtype=float)
    c = _centered(arr[:, 0], arr[:, 1])
    x, y, s = c.normalized()
    return _curve_fit(_rung(_MonomialDesign(x, y, degree), degree), (c.cx, c.cy), s)


def stationarity_spread(locus: Locus) -> float:
    """Twice the largest distance of a valid sample from their centroid,
    over the outer-conic scale: at least the samples' diameter and at
    most twice it (up to rounding), in one O(n) pass; inf with no valid
    sample."""
    if not locus.ok.any():
        return math.inf
    return _centered(locus.x[locus.ok], locus.y[locus.ok]).spread(locus.family.outer_scale)


def classify_locus(locus: Locus) -> CurveFit:
    """Verdict ladder: point, conic, smallest adequate degree, nonconic.

    One centered pass over the valid samples gives the spread
    (``stationarity_spread``), which the point test compares with
    ``POINT_TOL``, and the normalization.  Each degree's spectrum is
    taken, as ``fit_curve`` takes it, on a prefix of one design whose
    grades are built only as far as the ladder climbs.  Only the returned
    degree becomes a CurveFit, and the quadric is classified only when it
    meets ``CONIC_TOL``."""
    ok = locus.ok
    x, y = locus.x[ok], locus.y[ok]
    if len(x) < MIN_VALID_SAMPLES:
        raise InsufficientSamples(f"{len(x)} valid samples")
    c = _centered(x, y)
    if c.spread(locus.family.outer_scale) <= POINT_TOL:
        return CurveFit(degree=1, residual=0.0, verdict="point")
    xn, yn, s = c.normalized()
    shift = (c.cx, c.cy)
    design = _MonomialDesign(xn, yn, max(2, MAX_DEGREE))
    rungs: Dict[int, _Rung] = {}

    def rung_at(degree: int) -> _Rung:
        if degree not in rungs:
            rungs[degree] = _rung(design, degree)
        return rungs[degree]

    quad = rung_at(2)
    if quad.residual <= CONIC_TOL:
        fit = _curve_fit(quad, shift, s)
        if fit.verdict in ("circle", "ellipse"):
            return fit
    best = quad
    for degree in range(3, MAX_DEGREE + 1):
        rung = rung_at(degree)
        if rung.residual <= CURVE_TOL:
            # Elbow check: accept only once the next degree stops
            # improving dramatically; a residual that keeps dropping by
            # orders of magnitude marks an approximant of a
            # higher-degree curve, not a genuine vanishing.
            if degree < MAX_DEGREE and rung.residual > 0.0:
                if rung_at(degree + 1).residual < ELBOW_FACTOR * rung.residual:
                    best = rung
                    continue
            return _curve_fit(rung, shift, s)
        best = rung
    return CurveFit(best.degree, best.residual, "nonconic")


def verdict_letter(fit: CurveFit) -> str:
    """Compact table letter: P, C, E, the degree digit, or N."""
    if fit.verdict == "point":
        return "P"
    if fit.verdict == "circle":
        return "C"
    if fit.verdict == "ellipse":
        return "E"
    if fit.verdict == "algebraic":
        return str(fit.degree)
    return "N"


# Normalized turn values this close to zero count as straight.
_TURN_TOL = 1e-12


def convexity_check(points) -> bool:
    """Whether an ordered closed sample loop (Points or an (m, 2) array) is convex.

    Computes the cross product of consecutive edge vectors around the
    loop, normalized by the edge lengths; convex iff all signs agree.
    Normalized turn values within ``_TURN_TOL`` of zero are ignored, as
    are zero-length edges (repeated samples).  Edge lengths use
    ``math.hypot``, whose rounding the turn test was tuned against.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(xy) >= 2 and math.dist(xy[0], xy[-1]) == 0.0:
        xy = xy[:-1]
    if len(xy) < 3:
        return True
    ex = np.roll(xy[:, 0], -1) - xy[:, 0]
    ey = np.roll(xy[:, 1], -1) - xy[:, 1]
    norm = np.fromiter(map(math.hypot, ex.tolist(), ey.tolist()), float, len(ex))
    live = norm > 0.0
    ux, uy = ex[live] / norm[live], ey[live] / norm[live]
    if len(ux) < 3:
        return True
    cross = ux * np.roll(uy, -1) - uy * np.roll(ux, -1)
    return not ((cross > _TURN_TOL).any() and (cross < -_TURN_TOL).any())


def convexity_quintic_coeffs(a: float, b: float) -> Tuple[float, ...]:
    """Coefficients (highest power first) of the degree-5 polynomial in
    the caustic parameter whose qualifying root marks the convexity
    transition of the incenter locus."""
    a2 = a * a
    b2 = b * b
    c2 = a2 - b2
    return (
        c2 ** 4,
        b2 * (3.0 * a2 * a2 - 2.0 * a2 * b2 + 3.0 * b2 * b2) * c2 * c2,
        2.0 * a2 * b2 * b2 * (a2 * a2 + 5.0 * a2 * b2 - 2.0 * b2 * b2) * c2,
        2.0 * a2 * a2 * b2 ** 3 * (a2 * a2 + b2 * b2),
        -(a2 ** 3) * (b2 ** 4) * (11.0 * a2 - 4.0 * b2),
        3.0 * (a2 ** 4) * (b2 ** 5),
    )


def _real_roots(coeffs: Sequence[float]) -> List[float]:
    """The real parts of the polynomial's roots z, in ``np.roots`` order,
    whose imaginary part is at most 1e-9·(1 + |z|)."""
    return [float(z.real) for z in np.roots(coeffs) if abs(z.imag) <= 1e-9 * (1.0 + abs(z))]


def convexity_lambda_root(a: float, b: float) -> float:
    """The caustic parameter at which the conf-II incenter locus stops
    being convex: the smallest positive real root of the transition
    quintic.

    The quintic typically has three real roots; the traced loci are
    convex for every caustic parameter below the smallest positive one
    and lose convexity just above it, so that root is the transition
    edge.  (Larger real roots fall in a region where sampled convexity
    is unstable and match no observed edge; selecting by an upper
    bound such as a^2 would pick one of those.)  Scaling (a, b) by k
    scales every root by k^2, so the quintic is solved at b = 1, where
    its terms stay near unit size, and its root scaled by b^2.
    """
    _require_axes(a, b)
    coeffs = convexity_quintic_coeffs(a / b, 1.0)
    candidates = []
    for lam in _real_roots(coeffs):
        # one Newton polish step on the real quintic
        p = np.polyval(coeffs, lam)
        dp = np.polyval(np.polyder(np.asarray(coeffs)), lam)
        if dp != 0.0:
            lam -= p / dp
        if lam > 0.0:
            candidates.append(lam)
    if not candidates:
        raise NoConvexityRoot(f"transition quintic has no positive real root for a={a}, b={b}")
    return float(min(candidates)) * (b * b)


def sextic_coefficients_x2(p: BicentricParams) -> dict:
    """Monomial coefficients {(i, j): c} of the degree-6 implicit
    polynomial vanishing on the barycenter locus of the two-caustic
    circle family, in the canonical frame (outer center at the origin,
    inner center at (d, 0)).

    Obtained by eliminating the driving vertex from the closed-form
    barycenter parametrization; normalized so the leading form is
    729 (x^2 + y^2)^3.  Coefficients are rational in (R, r, d) with
    powers of w = R^2 - d^2 in the denominators (w > 0 for any valid
    parameter set)."""
    R, r, d = p.R, p.r, p.d
    R2, d2, r2 = R * R, d * d, r * r
    R4, d4, r4 = R2 * R2, d2 * d2, r2 * r2
    R6, d6, r6 = R4 * R2, d4 * d2, r4 * r2
    R8, d8 = R4 * R4, d4 * d4
    R10, d10 = R8 * R2, d8 * d2
    w = R2 - d2
    w2, w3 = w * w, w * w * w
    w4 = w2 * w2

    c: dict = {}

    def add(i: int, j: int, v: float) -> None:
        if v != 0.0:
            c[(i, j)] = c.get((i, j), 0.0) + v

    # 729 (x^2+y^2)^3
    add(6, 0, 729.0)
    add(4, 2, 3 * 729.0)
    add(2, 4, 3 * 729.0)
    add(0, 6, 729.0)

    # -1944 d (w^2 + 2 R^2 r^2) / w^2 * x (x^2+y^2)^2
    k5 = w2 + 2.0 * R2 * r2
    add(5, 0, -1944.0 * d * k5 / w2)
    add(3, 2, -3888.0 * d * k5 / w2)
    add(1, 4, -1944.0 * d * k5 / w2)

    q40 = (R6 - 24.0 * R4 * d2 - 8.0 * R4 * r2 + 45.0 * R2 * d4
           - 144.0 * R2 * d2 * r2 + 16.0 * R2 * r4 - 22.0 * d6
           + 8.0 * d4 * r2)
    add(4, 0, -81.0 * q40 / w2)

    q22 = (R10 - 16.0 * R8 * d2 - 8.0 * R8 * r2 + 54.0 * R6 * d4
           - 80.0 * R6 * d2 * r2 + 16.0 * R6 * r4 - 76.0 * R4 * d6
           + 192.0 * R4 * d4 * r2 + 49.0 * R2 * d8 - 112.0 * R2 * d6 * r2
           + 16.0 * R2 * d4 * r4 - 12.0 * d10 + 8.0 * d8 * r2)
    add(2, 2, -162.0 * q22 / w4)

    q04 = (R10 - 6.0 * R8 * d2 - 8.0 * R8 * r2 + 14.0 * R6 * d4
           - 32.0 * R6 * d2 * r2 + 16.0 * R6 * r4 - 16.0 * R4 * d6
           + 96.0 * R4 * d4 * r2 + 32.0 * R4 * d2 * r4 + 9.0 * R2 * d8
           - 64.0 * R2 * d6 * r2 + 16.0 * R2 * d4 * r4 - 2.0 * d10
           + 8.0 * d8 * r2)
    add(0, 4, -81.0 * q04 / w4)

    q30 = (-R8 + 6.0 * R6 * d2 + 8.0 * R6 * r2 - 12.0 * R4 * d4
           + 48.0 * R4 * d2 * r2 - 16.0 * R4 * r4 + 10.0 * R2 * d6
           - 60.0 * R2 * d4 * r2 + 32.0 * R2 * d2 * r4 - 3.0 * d8
           + 4.0 * d6 * r2)
    add(3, 0, -216.0 * d * q30 / w3)

    q12 = (R10 - 5.0 * R8 * d2 - 8.0 * R8 * r2 + 10.0 * R6 * d4
           - 24.0 * R6 * d2 * r2 + 16.0 * R6 * r4 - 10.0 * R4 * d6
           + 76.0 * R4 * d4 * r2 - 16.0 * R4 * d2 * r4 + 5.0 * R2 * d8
           - 48.0 * R2 * d6 * r2 + 32.0 * R2 * d4 * r4 - d10
           + 4.0 * d8 * r2)
    add(1, 2, 216.0 * d * q12 / w4)

    q20 = (22.0 * R8 - 75.0 * R6 * d2 - 168.0 * R6 * r2 + 93.0 * R4 * d4
           - 424.0 * R4 * d2 * r2 + 288.0 * R4 * r4 - 49.0 * R2 * d6
           + 616.0 * R2 * d4 * r2 - 944.0 * R2 * d2 * r4 + 128.0 * R2 * r6
           + 9.0 * d8 - 24.0 * d6 * r2 + 16.0 * d4 * r4)
    add(2, 0, -9.0 * d2 * q20 / w3)

    q02 = (-10.0 * R10 + 41.0 * R8 * d2 + 88.0 * R8 * r2 - 64.0 * R6 * d4
           - 64.0 * R6 * d2 * r2 - 224.0 * R6 * r4 + 46.0 * R4 * d6
           - 144.0 * R4 * d4 * r2 + 336.0 * R4 * d2 * r4 + 128.0 * R4 * r6
           - 14.0 * R2 * d8 + 128.0 * R2 * d6 * r2 - 320.0 * R2 * d4 * r4
           + 128.0 * R2 * d2 * r6 + d10 - 8.0 * d8 * r2 + 16.0 * d6 * r4)
    add(0, 2, 9.0 * d2 * q02 / w4)

    q10 = (-R6 + 3.0 * R4 * d2 + 8.0 * R4 * r2 - 3.0 * R2 * d4
           + 6.0 * R2 * d2 * r2 - 16.0 * R2 * r4 + d6 - 14.0 * d4 * r2
           + 24.0 * d2 * r4)
    add(1, 0, -24.0 * R2 * d2 * d * (3.0 * w + 4.0 * r2) * q10 / w4)

    add(0, 0, -R2 * d4
        * ((R + d) ** 2 - 4.0 * r2)
        * ((R - d) ** 2 - 4.0 * r2)
        * (3.0 * w + 4.0 * r2) ** 2 / w4)
    return c


def sextic_residual(coeffs: Dict[Tuple[int, int], float], xy: np.ndarray) -> float:
    """Max absolute value of a degree-6 polynomial {(i, j): c} over the
    rows of an (m, 2) array, normalized by the coefficient norm and the
    sixth power of the sample scale.  Each row's terms get one exact sum."""
    norm = math.sqrt(math.fsum(v * v for v in coeffs.values()))
    rows = xy.tolist()
    scale = max(max(max(abs(x), abs(y)) for x, y in rows), 1e-300)
    items = sorted(coeffs.items())
    worst = 0.0
    for x, y in rows:
        worst = max(worst, abs(math.fsum(v * x ** i * y ** j for (i, j), v in items)))
    return worst / (norm * scale ** 6)


def verify_implicit_sextic_x2(p: BicentricParams, locus: Locus) -> float:
    """sextic_residual of the barycenter sextic over the locus samples, at
    unit outer radius: the sextic of (1, r/R, d/R) on the samples over R,
    since the coefficients are not homogeneous in the length unit and
    hold R^10 terms."""
    xy = locus.valid_xy()
    if not len(xy):
        raise InsufficientSamples("no valid samples")
    unit = BicentricParams(1.0, p.r / p.R, p.d / p.R)
    return sextic_residual(sextic_coefficients_x2(unit), xy / p.R)
