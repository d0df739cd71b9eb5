"""Locus tracing, implicit curve fitting, classification, and convexity.

A locus is the path swept by a tracked point (triangle center, excenter,
or vertex) as the driving angle t of a triangle family sweeps [0, 2pi).
Classification runs a verdict ladder: stationary point, then conic
(circle/ellipse), then algebraic curves of increasing degree, and
finally "nonconic" when nothing of degree <= MAX_DEGREE fits.  A
``Locus`` keeps its samples as four read-only arrays (t, x, y, ok).

Fits are total-least-squares implicit fits: the sample coordinates are
centered and scaled to unit RMS radius, a design matrix over all
monomials up to the requested degree is assembled (graded, so a lower
degree's design is a column prefix: the ladder fills one design, each
grade when a degree first reaches it, and takes one SVD per degree, of
the m x m QR factor R of its n x m prefix), and the smallest right
singular vector gives the coefficient vector; the residual is the
smallest singular value over sqrt(n), i.e. the RMS of the normalized
implicit values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import centers as _centers
from .families import BicentricParams, FamilyConfig, TriangleBatch
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
    "TRACKED_IDS",
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
    "sextic_coefficients_x2_weighted",
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
    """Samples on the t grid as read-only array copies; x, y are NaN where ok is false."""

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
    fitted curve, its residual, and the verdict.  A degree-2 fit that is
    not the ladder's nonconic fallback also holds its ``conic``, mapped
    back to the original frame."""

    degree: int
    residual: float
    verdict: str
    conic: Optional[Conic] = None


# Tracked-point identifiers: vertices, excenters, or center ids like "X9".
TRACKED_IDS = ("P1", "P2", "P3", "P1'", "P2'", "P3'")

_EXCENTER_ALIASES = {"P1'": 0, "P2'": 1, "P3'": 2}


_VERTEX_FIELDS = {"P1": ("x1", "y1"), "P2": ("x2", "y2"), "P3": ("x3", "y3")}


class _Samples(NamedTuple):
    """A family at the angles t: its TriangleBatch and the batch's
    ``centers._Shape`` (side lengths, area, scale, fault flags)."""

    t: np.ndarray
    tri: TriangleBatch
    shape: _centers._Shape


def _sample(cfg: FamilyConfig, ts: np.ndarray) -> _Samples:
    tri = cfg.triangles(ts)
    return _Samples(ts, tri, _centers._shape_of(tri[:6]))


def _tracked_arrays(samples: _Samples, tracked: str):
    """(x, y, ok): the tracked point (a vertex, excenter or center id) on
    every triangle of the samples."""
    tri, shape = samples.tri, samples.shape
    if tracked in _VERTEX_FIELDS:
        fx, fy = _VERTEX_FIELDS[tracked]
        return getattr(tri, fx), getattr(tri, fy), tri.ok
    if tracked in _EXCENTER_ALIASES:
        xs, ys, ok = _centers._excenters_on(shape, tri.ok)
        k = _EXCENTER_ALIASES[tracked]
        return xs[k], ys[k], ok
    return _centers._center_on(shape, tri.ok, tracked)


def _grid(n: int) -> np.ndarray:
    """The t grid of n samples: 2 pi k / n for k = 0 .. n - 1."""
    return 2.0 * np.pi * np.arange(n) / n


def _grid_samples(cfg: FamilyConfig, n: int) -> _Samples:
    """The family on the n-sample grid, kept read-only on the config
    object until it is asked for another n.

    Every kernel is elementwise, so what a tracked point reads from kept
    samples has the bits of a fresh config's.  The holder belongs to the
    object, never to an equal one: equal parameters (0.0 and -0.0) need
    not give the same bits.  Raises, and keeps nothing, where the
    parameters admit no member at all.
    """
    kept = cfg._kept
    if n not in kept:
        samples = _sample(cfg, _grid(n))
        for arr in (samples.t, *samples.tri, *samples.shape):
            arr.flags.writeable = False
        kept.clear()
        kept[n] = samples
    return kept[n]


def trace_locus(
    cfg: FamilyConfig, tracked: str, n: int = 512, min_valid: Optional[int] = None
) -> Locus:
    """Trace a tracked point over n uniformly spaced driving angles.

    The family and the point are evaluated on the whole t grid at once.
    The config object keeps the grid's triangles and side lengths for
    the last n traced, so tracing many points of one family at one n
    builds them once; the bits are those of a fresh config.  Family
    configurations where some angles are inadmissible (vertex
    inside a caustic, degenerate triangle) yield invalid samples, which
    are kept in place — marked — so the t-grid stays uniform.  A sample
    is invalid exactly where the one-angle calls raise for it
    (``cfg.triangle``, then ``center`` or ``excenters``), or where the
    point is not finite; where it is valid, it has their bits.

    ``min_valid`` defaults to the floor classification needs; pass a
    smaller value when the samples are only being printed or plotted.
    """
    need = MIN_VALID_SAMPLES if min_valid is None else min_valid
    if n < need:
        raise InsufficientSamples(f"need at least {need} samples, got {n}")
    try:
        samples = _grid_samples(cfg, n)
    except GeometryError:
        # The parameters admit no member at all.
        ts = _grid(n)
        x = y = np.full(n, np.nan)
        ok = np.zeros(n, dtype=bool)
    else:
        ts = samples.t
        x, y, ok = _tracked_arrays(samples, tracked)
    ok = ok & np.isfinite(x) & np.isfinite(y)
    valid = int(np.count_nonzero(ok))
    if valid < need:
        raise InsufficientSamples(f"only {valid} valid samples for {tracked}")
    return Locus(cfg, tracked, ts, x, y, ok)


def monomial_exponents(degree: int) -> List[Tuple[int, int]]:
    """(i, j) exponent pairs of all monomials x^i y^j with i+j <= degree,
    graded by total degree, x-dominant first within each grade."""
    out: List[Tuple[int, int]] = []
    for d in range(degree + 1):
        for i in range(d, -1, -1):
            out.append((i, d - i))
    return out


def _normalize_samples(pts) -> Tuple[np.ndarray, Tuple[float, float], float]:
    arr = np.asarray(pts, dtype=float)
    cx, cy = arr.mean(axis=0)
    centered = arr - (cx, cy)
    s = math.sqrt(float(np.mean(centered[:, 0] ** 2 + centered[:, 1] ** 2)))
    if s <= 0.0:
        s = 1.0
    return centered / s, (float(cx), float(cy)), s


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
    ``xp[i] = x ** i``, the same bits as a design built whole."""

    def __init__(self, norm: np.ndarray, top: int) -> None:
        self._norm = norm
        self.n = len(norm)
        self._xp: List[np.ndarray] = []
        self._yp: List[np.ndarray] = []
        self._cols = np.empty((self.n, (top + 1) * (top + 2) // 2), order="F")

    @property
    def degree(self) -> int:
        """The highest grade built so far, -1 before the first."""
        return len(self._xp) - 1

    def columns(self, degree: int) -> np.ndarray:
        """The (n, m) design up to ``degree``; builds the grades it lacks."""
        xp, yp, cols = self._xp, self._yp, self._cols
        for d in range(len(xp), degree + 1):
            xp.append(self._norm[:, 0] ** d)
            yp.append(self._norm[:, 1] ** d)
            first = d * (d + 1) // 2
            for i in range(d, -1, -1):
                np.multiply(xp[i], yp[d - i], out=cols[:, first + d - i])
        return cols[:, : (degree + 1) * (degree + 2) // 2]


class _Rung(NamedTuple):
    """One degree of the ladder: the smallest right singular vector of its
    design prefix, and its residual."""

    degree: int
    null: np.ndarray
    residual: float


def _rung(design: _MonomialDesign, degree: int) -> _Rung:
    """The degree's prefix SVD, taken of its QR factor R once n >= 2m is
    checked: dgesdd takes that path itself for so tall a matrix, so the
    bits are those of ``np.linalg.svd(prefix, full_matrices=False)``."""
    m = (degree + 1) * (degree + 2) // 2
    n = design.n
    if n < 2 * m:
        raise InsufficientSamples(f"degree {degree} needs >= {2 * m} samples, got {n}")
    _, sigma, vt = np.linalg.svd(np.linalg.qr(design.columns(degree), mode="r"))
    return _Rung(degree, vt[-1], float(sigma[-1]) / math.sqrt(n))


def _curve_fit(rung: _Rung, shift: Tuple[float, float], s: float, nonconic: bool = False) -> CurveFit:
    """The CurveFit of a rung; a degree-2 rung also gets its conic, unless
    it is the fallback of a ladder that found nothing (``nonconic``)."""
    verdict = "nonconic" if nonconic else "algebraic"
    conic = None
    if rung.degree == 2 and not nonconic:
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
    norm, shift, s = _normalize_samples(samples)
    return _curve_fit(_rung(_MonomialDesign(norm, degree), degree), shift, s)


# Consecutive samples per block in _diameter: consecutive samples of a
# traced curve lie close together, so a block has a small bounding box.
_DIAMETER_BLOCK = 16


def _extremes_spread2(arr: np.ndarray) -> float:
    """L: the largest squared distance among the x/y-extreme samples of
    a nonempty (n, 2) array, a lower bound of the squared diameter."""
    ext = arr[[arr[:, 0].argmin(), arr[:, 0].argmax(), arr[:, 1].argmin(), arr[:, 1].argmax()]]
    dx = ext[:, 0, None] - ext[:, 0]
    dy = ext[:, 1, None] - ext[:, 1]
    return float((dx * dx + dy * dy).max())


def _diameter(points) -> float:
    """Largest distance between two points, bitwise as a scan of every pair.

    The samples are cut, in order, into blocks of ``_DIAMETER_BLOCK``.  A
    block pair is compared point by point only if the squared far-corner
    distance U of the two bounding boxes reaches L (``_extremes_spread2``).
    Rounded subtraction, product and sum are monotone, so U dominates
    every pair value of its block pair, and the pair attaining the
    maximum (which is >= L) is always kept.  Block rows and kept pairs go
    in chunks: memory is O(n * block).
    """
    arr = np.asarray(points, dtype=float)
    n = len(arr)
    if n == 0:
        return 0.0
    b = _DIAMETER_BLOCK
    nb = -(-n // b)
    # Pad the last block with copies of the last sample: duplicates add no pair.
    pad = np.concatenate((arr, np.repeat(arr[-1:], nb * b - n, axis=0)))
    xb = pad[:, 0].reshape(nb, b)
    yb = pad[:, 1].reshape(nb, b)
    best = _extremes_spread2(arr)
    xlo, xhi, ylo, yhi = xb.min(axis=1), xb.max(axis=1), yb.min(axis=1), yb.max(axis=1)
    rows = b * b  # block rows per chunk: rows * nb bounds, about n * b
    for r in range(0, nb, rows):
        sx = np.maximum(xhi[r : r + rows, None] - xlo, xhi - xlo[r : r + rows, None])
        sy = np.maximum(yhi[r : r + rows, None] - ylo, yhi - ylo[r : r + rows, None])
        bi, bj = np.nonzero(np.triu(sx * sx + sy * sy >= best, r))
        bi += r
        for s in range(0, len(bi), nb):  # nb pairs of b x b values: n * b
            i, j = bi[s : s + nb], bj[s : s + nb]
            dx = xb[i, :, None] - xb[j, None, :]
            dy = yb[i, :, None] - yb[j, None, :]
            best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def stationarity_spread(locus: Locus) -> float:
    """Max pairwise distance of valid samples over the outer-conic scale."""
    if not locus.ok.any():
        return math.inf
    return _diameter(locus.valid_xy()) / locus.family.outer_scale


def classify_locus(locus: Locus) -> CurveFit:
    """Verdict ladder: point, conic, smallest adequate degree, nonconic;
    each degree's spectrum is taken, as ``fit_curve`` takes it, on a
    prefix of one design whose grades are built only as far as the ladder
    climbs.  Only the returned degree becomes a CurveFit, and the quadric
    is classified only when it meets ``CONIC_TOL``."""
    pts = locus.valid_xy()
    if len(pts) < MIN_VALID_SAMPLES:
        raise InsufficientSamples(f"{len(pts)} valid samples")
    # sqrt(L) / scale <= stationarity_spread (rounding is monotone), so a
    # locus whose extremes are already too far apart skips the full scan.
    point = math.sqrt(_extremes_spread2(pts)) / locus.family.outer_scale <= POINT_TOL
    if point and stationarity_spread(locus) <= POINT_TOL:
        return CurveFit(degree=1, residual=0.0, verdict="point")
    norm, shift, s = _normalize_samples(pts)
    design = _MonomialDesign(norm, max(2, MAX_DEGREE))
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
    return _curve_fit(best, shift, s, nonconic=True)


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


def convexity_lambda_root(a: float, b: float) -> float:
    """The caustic parameter at which the conf-II incenter locus stops
    being convex: the smallest positive real root of the transition
    quintic.

    The quintic typically has three real roots; the traced loci are
    convex for every caustic parameter below the smallest positive one
    and lose convexity just above it, so that root is the transition
    edge.  (Larger real roots fall in a region where sampled convexity
    is unstable and match no observed edge; selecting by an upper
    bound such as a^2 would pick one of those.)  The parameter scales
    as length^2 — scaling (a, b) by k scales every root by k^2, which
    the quintic's homogeneity confirms.
    """
    if not a > b > 0.0:
        raise ValueError("need a > b > 0")
    coeffs = convexity_quintic_coeffs(a, b)
    roots = np.roots(coeffs)
    candidates = []
    for z in roots:
        if abs(z.imag) <= 1e-9 * (1.0 + abs(z)):
            lam = float(z.real)
            # one Newton polish step on the real quintic
            p = np.polyval(coeffs, lam)
            dp = np.polyval(np.polyder(np.asarray(coeffs)), lam)
            if dp != 0.0:
                lam -= p / dp
            if lam > 0.0:
                candidates.append(lam)
    if not candidates:
        raise NoConvexityRoot(f"transition quintic has no positive real root for a={a}, b={b}")
    return float(min(candidates))


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


def sextic_coefficients_x2_weighted(p: BicentricParams) -> dict:
    """Monomial coefficients {(i, j): c} of the degree-6 implicit
    polynomial vanishing on the companion curve swept by the barycenter
    scaled by its own chord-map weight: the point X2(t) * s(t) with
    s(t) = R^2 + d^2 - 2 d x1(t), the squared distance from the driving
    vertex to the inner-circle center.

    Same leading form 729 (x^2 + y^2)^3 as the plain barycenter sextic,
    but all lower-order coefficients differ; the weighted curve is a
    genuinely different sextic from the barycenter locus itself."""
    R, r, d = p.R, p.r, p.d
    R2, d2, r2 = R * R, d * d, r * r
    R4, d4, r4 = R2 * R2, d2 * d2, r2 * r2
    R6, d6, r6 = R4 * R2, d4 * d2, r4 * r2
    R8, d8, r8 = R4 * R4, d4 * d4, r4 * r4
    R10 = R8 * R2

    c: dict = {}

    def add(i: int, j: int, v: float) -> None:
        if v != 0.0:
            c[(i, j)] = c.get((i, j), 0.0) + v

    # 729 (x^2+y^2)^3
    add(6, 0, 729.0)
    add(4, 2, 3 * 729.0)
    add(2, 4, 3 * 729.0)
    add(0, 6, 729.0)

    # -972 d x (x^2+y^2) ((4R^2-3d^2-4r^2) x^2 + (4R^2+5d^2-4r^2) y^2)
    kx = 4.0 * R2 - 3.0 * d2 - 4.0 * r2
    ky = 4.0 * R2 + 5.0 * d2 - 4.0 * r2
    add(5, 0, -972.0 * d * kx)
    add(3, 2, -972.0 * d * (kx + ky))
    add(1, 4, -972.0 * d * ky)

    # -81 (x^2+y^2) (Kx x^2 + Ky y^2)
    Kx = (R6 - 86.0 * R4 * d2 - 8.0 * R4 * r2 + 121.0 * R2 * d4
          + 128.0 * R2 * d2 * r2 + 16.0 * R2 * r4 - 36.0 * d6
          - 72.0 * d4 * r2 - 96.0 * d2 * r4)
    Ky = (R6 - 42.0 * R4 * d2 - 8.0 * R4 * r2 - 63.0 * R2 * d4
          + 128.0 * R2 * d2 * r2 + 16.0 * R2 * r4 - 4.0 * d6
          + 24.0 * d4 * r2 - 32.0 * d2 * r4)
    add(4, 0, -81.0 * Kx)
    add(2, 2, -81.0 * (Kx + Ky))
    add(0, 4, -81.0 * Ky)

    # +108 d x (Lx x^2 + Ly y^2)
    Lx = (3.0 * R8 - 45.0 * R6 * d2 - 28.0 * R6 * r2 + 81.0 * R4 * d4
          + 44.0 * R4 * d2 * r2 + 80.0 * R4 * r4 - 39.0 * R2 * d6
          + 20.0 * R2 * d4 * r2 - 112.0 * R2 * d2 * r4 - 64.0 * R2 * r6
          - 36.0 * d6 * r2 + 64.0 * d2 * r6)
    Ly = (3.0 * R8 - 45.0 * R6 * d2 - 28.0 * R6 * r2 + 81.0 * R4 * d4
          + 76.0 * R4 * d2 * r2 + 80.0 * R4 * r4 - 39.0 * R2 * d6
          - 44.0 * R2 * d4 * r2 + 16.0 * R2 * d2 * r4 - 64.0 * R2 * r6
          - 4.0 * d6 * r2 + 64.0 * d2 * r6)
    add(3, 0, 108.0 * d * Lx)
    add(1, 2, 108.0 * d * Ly)

    # -36 d^2 (Mx x^2 + My y^2)
    Mx = (9.0 * R10 - 36.0 * R8 * d2 - 90.0 * R8 * r2 + 54.0 * R6 * d4
          - 18.0 * R6 * d2 * r2 + 312.0 * R6 * r4 - 36.0 * R4 * d6
          + 306.0 * R4 * d4 * r2 - 372.0 * R4 * d2 * r4 - 480.0 * R4 * r6
          + 9.0 * R2 * d8 - 198.0 * R2 * d6 * r2 + 96.0 * R2 * d4 * r4
          + 256.0 * R2 * d2 * r6 + 384.0 * R2 * r8 - 36.0 * d6 * r4
          + 96.0 * d4 * r6 - 64.0 * d2 * r8)
    My = (9.0 * R10 - 36.0 * R8 * d2 - 102.0 * R8 * r2 + 54.0 * R6 * d4
          + 126.0 * R6 * d2 * r2 + 392.0 * R6 * r4 - 36.0 * R4 * d6
          + 54.0 * R4 * d4 * r2 - 116.0 * R4 * d2 * r4 - 544.0 * R4 * r6
          + 9.0 * R2 * d8 - 78.0 * R2 * d6 * r2 + 160.0 * R2 * d4 * r4
          + 128.0 * R2 * r8 - 4.0 * d6 * r4 + 32.0 * d4 * r6 - 64.0 * d2 * r8)
    add(2, 0, -36.0 * d2 * Mx)
    add(0, 2, -36.0 * d2 * My)

    # +48 R^2 d^3 r^2 (3R^2-3d^2+4r^2) Q x
    Q = (3.0 * R6 - 9.0 * R4 * d2 - 28.0 * R4 * r2 + 9.0 * R2 * d4
         - 4.0 * R2 * d2 * r2 + 80.0 * R2 * r4 - 3.0 * d6
         + 32.0 * d4 * r2 - 32.0 * d2 * r4 - 64.0 * r6)
    add(1, 0, 48.0 * R2 * d2 * d * r2 * (3.0 * R2 - 3.0 * d2 + 4.0 * r2) * Q)

    # -16 R^2 d^4 r^4 ((R+d)^2-4r^2) ((R-d)^2-4r^2) (3R^2-3d^2+4r^2)^2
    add(0, 0, -16.0 * R2 * d4 * r4
        * ((R + d) ** 2 - 4.0 * r2)
        * ((R - d) ** 2 - 4.0 * r2)
        * (3.0 * R2 - 3.0 * d2 + 4.0 * r2) ** 2)
    return c


def sextic_residual(coeffs: Dict[Tuple[int, int], float], xy: np.ndarray) -> float:
    """Max absolute value of a degree-6 polynomial {(i, j): c} over the
    rows of an (m, 2) array, normalized by the coefficient norm and the
    sixth power of the sample scale."""
    norm = math.sqrt(math.fsum(v * v for v in coeffs.values()))
    rows = xy.tolist()
    scale = max(max(abs(x), abs(y)) for x, y in rows)
    scale = max(scale, 1e-300)
    worst = 0.0
    items = sorted(coeffs.items())
    for x, y in rows:
        val = math.fsum(v * x ** i * y ** j for (i, j), v in items)
        worst = max(worst, abs(val))
    return worst / (norm * scale ** 6)


def verify_implicit_sextic_x2(p: BicentricParams, locus: Locus) -> float:
    """sextic_residual of the barycenter sextic over the locus samples."""
    xy = locus.valid_xy()
    if not len(xy):
        raise InsufficientSamples("no valid samples")
    return sextic_residual(sextic_coefficients_x2(p), xy)
