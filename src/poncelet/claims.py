"""Numerical verification of closed-form claims about the six families.

Every check traces loci at explicit parameters, compares them against a
closed form or a classification verdict, and returns a ClaimReport with
the worst residual as its metric.  Checks carry a kind; ``conjecture``
entries are numerical evidence only and never gate a verification run,
while theorem/corollary/proposition/invariant/table entries do.

Each check embeds a negative control (a deliberately perturbed
comparison that must fail) so a vacuous pass cannot go unnoticed.

A check joins the registry through the ``_claim`` decorator above it,
which names its claim id and kind once; the flags a claim
reads are the numeric and parameter-class arguments of its check.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .geom import (
    Conic,
    Line,
    Point,
    conic_span_residual,
    line_tangent_to_conic_residual,
)
from .families import (
    _bic3_limiting_points,
    MINUS,
    PLUS,
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    TangentBranch,
    bic1_config,
    bic2_config,
    bic2_envelope,
    bic3_config,
    chapple_distance,
    conf1_config,
    conf2_config,
    conf2_envelope,
    conf3_config,
    confocal_delta,
    critical_lambda,
    degenerate_envelope_inradius,
    envelope_points,
)
from .centers import _cosines
from .loci import (
    _grid,
    _grid_samples,
    _sample,
    _tracked_arrays,
    CONIC_TOL,
    Locus,
    classify_locus,
    convexity_check,
    convexity_lambda_root,
    convexity_quintic_coeffs,
    fit_curve,
    sextic_coefficients_x2_weighted,
    sextic_residual,
    stationarity_spread,
    trace_locus,
    verdict_letter,
    verify_implicit_sextic_x2,
)

__all__ = [
    "ClaimReport",
    "RegisteredClaim",
    "DEFAULT_BIC2",
    "DEFAULT_BIC3",
    "DEFAULT_CONF2",
    "STATIONARY_CENTER_IDS",
    "bic2_x1_circle",
    "bic2_excenter_radius",
    "conf2_excentral_axes",
    "conf1_x1_axes",
    "conf1_excentral_axes",
    "n4_lambda",
    "n6_lambda",
    "bic2_collapse_point",
    "bic3_collapse_u",
    "check_bicII_x1_circle",
    "check_bicII_excenter_circle",
    "check_bicII_x2_sextic",
    "check_bicII_envelope",
    "check_confII_excenter_ellipse",
    "check_confII_x1_conic_only_at_critical",
    "check_x2_homothety_half_n4",
    "check_confII_envelope",
    "check_confII_n4_excentral_aspect",
    "check_confII_n6_excentral_circle",
    "check_convexity_transition",
    "check_conserved_quantities",
    "check_conjecture_bicII_stationary",
    "summary_table",
    "check_conjectures_bicIII",
    "all_claims",
    "claim_ids",
    "select_claims",
    "run_claims",
]


DEFAULT_BIC2 = BicentricParams(1.0, 0.2, 0.3)
DEFAULT_BIC3 = BicentricParams(1.0, 0.15, 0.25, u=0.4)
DEFAULT_CONF2 = ConfocalParams(2.0, 1.0, 0.5)

# Catalogue of centers whose bic-I locus is a single point, with
# reference verdict letters for the two non-poristic bicentric families
# (C circle, E ellipse, P point, X no conic).  The letters record the
# tabulated expectations the conjecture check compares against; where a
# measured verdict provably differs, the check reports the divergence.
STATIONARY_CENTER_IDS = (
    "X1", "X3", "X35", "X36", "X40", "X46", "X55",
    "X56", "X57", "X65", "X165", "X354", "X484", "X942",
)
_BICII_REFERENCE = ("C", "P", "E", "E", "C", "X", "E", "X", "X", "X", "C", "E", "E", "E")
_BICIII_REFERENCE = ("X", "P") + ("X",) * 12

# Moving centers used as controls: their bic-I loci are genuine curves,
# so the stationarity conjecture predicts they cannot be conic over
# bic-II either.
_MOVING_CONTROL_IDS = ("X2", "X4", "X5")

_TABLE2_COLUMNS = ("X1", "X2", "X3", "P1'", "P2'", "P3'")
_TABLE2_EXPECTED = {
    "bic-I": ("P", "C", "P", "C", "C", "C"),
    "bic-II": ("C", "6", "P", "C", "6", "6"),
    "bic-III": ("N", "N", "P", "N", "N", "N"),
    "conf-I": ("E", "E", "E", "E", "E", "E"),
    "conf-II": ("N", "N", "N", "6", "E", "E"),
    "conf-III": ("N", "N", "N", "N", "N", "N"),
}


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one numerical check.

    ``metric`` is the worst residual the verdict rests on and
    ``status`` is "pass" exactly when every asserted condition held
    (the headline condition being metric <= tolerance).
    """

    claim_id: str
    kind: str
    params: str
    status: str
    metric: float
    tolerance: float
    expected: str
    observed: str
    notes: Tuple[str, ...] = ()
    rows: Tuple[Tuple[str, ...], ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def gating(self) -> bool:
        """Whether a failure should fail a verification run."""
        return self.kind != "conjecture"

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim_id,
            "kind": self.kind,
            "label": "numerical evidence" if self.kind == "conjecture" else "checked claim",
            "params": self.params,
            "status": self.status,
            "metric": self.metric,
            "tolerance": self.tolerance,
            "expected": self.expected,
            "observed": self.observed,
            "notes": list(self.notes),
        }
        if self.rows:
            out["rows"] = [list(r) for r in self.rows]
        return out


def _report(
    params: object,
    ok: bool,
    metric: float,
    tol: float,
    expected: str,
    observed: str,
    notes: Sequence[str] = (),
    rows: Sequence[Tuple[str, ...]] = (),
) -> ClaimReport:
    """The report of a check; ``_claim`` fills in its claim id and kind."""
    return ClaimReport(
        claim_id="",
        kind="",
        params=_fmt_params(params),
        status="pass" if ok else "fail",
        metric=float(metric),
        tolerance=float(tol),
        expected=expected,
        observed=observed,
        notes=tuple(notes),
        rows=tuple(tuple(r) for r in rows),
    )


def _fmt_params(params: object) -> str:
    if isinstance(params, BicentricParams):
        bits = [f"R={params.R:g}", f"r={params.r:g}", f"d={params.d:g}"]
        if params.u is not None:
            bits.append(f"u={params.u:g}")
        return " ".join(bits)
    if isinstance(params, ConfocalParams):
        bits = [f"a={params.a:g}", f"b={params.b:g}", f"lam={params.lam:.12g}"]
        if params.pencil_u is not None:
            bits.append(f"pencil_u={params.pencil_u:g}")
        return " ".join(bits)
    if isinstance(params, tuple):
        return "; ".join(_fmt_params(p) for p in params)
    return str(params)


# ---------------------------------------------------------------------------
# Registry.


_Check = Callable[..., ClaimReport]


@dataclass(frozen=True)
class RegisteredClaim:
    """One registry entry: a check and the parameters flags can set."""

    claim_id: str
    kind: str
    run: _Check = field(repr=False)

    @property
    def defaults(self) -> Dict[str, Any]:
        """Each argument of ``run`` that flags can set, with its default:
        a number, set by the flag of the same name, or a parameter class
        value, whose set fields are its flags."""
        return {
            name: arg.default
            for name, arg in inspect.signature(self.run).parameters.items()
            if isinstance(arg.default, (int, float, BicentricParams, ConfocalParams))
        }

    @property
    def flags(self) -> Tuple[str, ...]:
        """The flags the check reads, by parameter name (``lam`` for lambda)."""
        return tuple(flag for name, value in self.defaults.items() for flag in _flags(name, value))

    def arguments(self, values: Mapping[str, Any]) -> Dict[str, Any]:
        """Keyword arguments of ``run`` for the given flag values.

        The defaults fill in the flags not given; with none of its
        flags given the check runs on its own defaults (no arguments).
        """
        given = {k: values[k] for k in self.flags if values.get(k) is not None}
        if not given:
            return {}
        out = {}
        for name, value in self.defaults.items():
            if is_dataclass(value):
                out[name] = replace(value, **{k: given[k] for k in _flags(name, value) if k in given})
            else:
                out[name] = given.get(name, value)
        return out


def _flags(name: str, default: Any) -> Tuple[str, ...]:
    if is_dataclass(default):
        return tuple(f.name for f in fields(default) if getattr(default, f.name) is not None)
    return (name,)


_CLAIMS: List[RegisteredClaim] = []


def _claim(claim_id: str, kind: str) -> Callable[[_Check], _Check]:
    """Register the decorated check, in definition order; its reports
    carry ``claim_id`` and ``kind``."""

    def register(check: _Check) -> _Check:
        @functools.wraps(check)
        def run(*args: Any, **kwargs: Any) -> ClaimReport:
            return replace(check(*args, **kwargs), claim_id=claim_id, kind=kind)

        _CLAIMS.append(RegisteredClaim(claim_id, kind, run))
        return run

    return register


def all_claims() -> Tuple[RegisteredClaim, ...]:
    return tuple(_CLAIMS)


def claim_ids() -> Tuple[str, ...]:
    return tuple(c.claim_id for c in _CLAIMS)


def select_claims(names: Optional[Sequence[str]]) -> List[RegisteredClaim]:
    """The named claims in the order named, or all of them in registry
    order; an unknown id raises KeyError."""
    registry = all_claims()  # not _CLAIMS: the benchmark's tracer replaces all_claims
    if not names:
        return list(registry)
    index = {c.claim_id: c for c in registry}
    unknown = [n for n in names if n not in index]
    if unknown:
        raise KeyError(f"unknown claim id(s): {', '.join(unknown)}; known: {', '.join(index)}")
    return [index[n] for n in names]


def run_claims(names: Optional[Sequence[str]] = None) -> List[ClaimReport]:
    """Run the named checks in the order named, or all of them in
    registry order."""
    return [c.run() for c in select_claims(names)]


# ---------------------------------------------------------------------------
# Closed forms the checks compare against.


def bic2_x1_circle(p: BicentricParams) -> Tuple[Point, float]:
    """Center and radius of the incenter circle over the two-caustic
    bicentric family: ((2dRr/(R^2-d^2), 0), R(R^2-2Rr-d^2)/(R^2-d^2))."""
    R, r, d = p.R, p.r, p.d
    w = R * R - d * d
    return (Point(2.0 * d * R * r / w, 0.0), R * (R * R - 2.0 * R * r - d * d) / w)


def bic2_excenter_radius(p: BicentricParams) -> float:
    """Radius R(R^2+2Rr-d^2)/(R^2-d^2) of the first-excenter circle,
    centered at the reflection of the incenter-circle center."""
    R, r, d = p.R, p.r, p.d
    return R * (R * R + 2.0 * R * r - d * d) / (R * R - d * d)


def conf2_excentral_axes(p: ConfocalParams) -> Tuple[float, float]:
    """Semi-axes of the shared ellipse swept by the second and third
    excenters: sqrt(k) * (a/(a^2 b^2 + c^2 lam), b/(a^2 b^2 - c^2 lam))
    with k = ((a+b)^2 lam + a^2 b^2)((a-b)^2 lam + a^2 b^2)."""
    a, b, lam = p.a, p.b, p.lam
    a2b2 = a * a * b * b
    c2 = p.c2
    k = ((a + b) ** 2 * lam + a2b2) * ((a - b) ** 2 * lam + a2b2)
    root = math.sqrt(k)
    return (root * a / (a2b2 + c2 * lam), root * b / (a2b2 - c2 * lam))


def conf1_x1_axes(a: float, b: float) -> Tuple[float, float]:
    """Semi-axes ((delta-b^2)/a, (a^2-delta)/b) of the incenter ellipse
    over the closing confocal family."""
    delta = confocal_delta(a, b)
    return ((delta - b * b) / a, (a * a - delta) / b)


def conf1_excentral_axes(a: float, b: float) -> Tuple[float, float]:
    """Semi-axes ((b^2+delta)/a, (a^2+delta)/b) of the excentral ellipse
    over the closing confocal family."""
    delta = confocal_delta(a, b)
    return ((b * b + delta) / a, (a * a + delta) / b)


def n4_lambda(a: float, b: float) -> float:
    """Caustic parameter a^2 b^2/(a^2+b^2) closing billiards in 4 bounces."""
    return a * a * b * b / (a * a + b * b)


def n6_lambda(a: float, b: float) -> float:
    """Caustic parameter (ab/(a+b))^2 closing billiards in 6 bounces."""
    return (a * b / (a + b)) ** 2


def bic2_collapse_point(R: float, d: float) -> Point:
    """Point (2dR^2/(R^2+d^2), 0) where the free-side envelope collapses
    when the caustic radius equals degenerate_envelope_inradius(R, d)."""
    return Point(2.0 * d * R * R / (R * R + d * d), 0.0)


def bic3_collapse_u(R: float, r: float, d: float) -> float:
    """Pencil parameter making the three-caustic free-side envelope
    collapse onto the interior limiting point of the circle pair.

    Found by minimizing the worst chord distance to the limiting point
    over u (coarse grid, then golden-section); the minimum is zero at
    the collapse.
    """
    first, second = _bic3_limiting_points(BicentricParams(R, r, d))
    target = first if abs(first.x) < abs(second.x) else second

    def worst_chord_distance(u: float) -> float:
        lines = _free_sides(bic3_config(R, r, d, u=u), 64)
        return _worst(lines.signed_distance(target)) if len(lines.a) >= 16 else math.inf

    grid = [0.30 + 0.005 * k for k in range(int((0.995 - 0.30) / 0.005) + 1)]
    values = [worst_chord_distance(u) for u in grid]
    k0 = values.index(min(values))
    lo = grid[max(k0 - 1, 0)]
    hi = grid[min(k0 + 1, len(grid) - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = worst_chord_distance(x1), worst_chord_distance(x2)
    for _ in range(80):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = worst_chord_distance(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = worst_chord_distance(x2)
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Small measurement helpers.


def _free_sides(cfg: FamilyConfig, n: int) -> Line:
    """The free sides at n uniformly spaced angles, where the member
    exists, as one Line of coefficient arrays."""
    a, b, c, ok = cfg.free_sides(_grid(n))
    return Line(a[ok], b[ok], c[ok])


def _member_shapes(cfg: FamilyConfig, n: int):
    """Side lengths and area (``centers._shape``) of the members at n
    uniformly spaced angles, where they exist."""
    samples = _grid_samples(cfg, n)
    return samples.shape._make(v[samples.tri.ok] for v in samples.shape)


def _worst(values: np.ndarray) -> float:
    """The largest absolute value, 0 for none."""
    return float(np.abs(values).max(initial=0.0))


def _circle_deviation(xy: np.ndarray, center: Point, radius: float) -> float:
    return _worst(np.hypot(xy[:, 0] - center.x, xy[:, 1] - center.y) - radius)


def _ellipse_deviation(xy: np.ndarray, ax: float, ay: float) -> float:
    u = xy[:, 0] / ax
    v = xy[:, 1] / ay
    return _worst(u * u + v * v - 1.0)


# Samples and bisection steps of _min_axis_distance.
_AXIS_SAMPLES = 512
_AXIS_BISECTIONS = 64


def _min_axis_distance(cfg: FamilyConfig, tracked: str) -> float:
    """Closest approach of a traced locus to the x-axis.

    Sign changes of y(t) between consecutive samples are refined by
    bisection, all brackets at once, so a transversal crossing resolves
    far below the sample spacing.  A bracket stops where its midpoint
    has no valid point; an exact zero ends the search.
    """

    def y_at(ts: np.ndarray):
        _, y, ok = _tracked_arrays(_sample(cfg, ts), tracked)
        return y, ok

    ts = 2.0 * np.pi * np.arange(_AXIS_SAMPLES + 1) / _AXIS_SAMPLES  # both ends
    y, ok = y_at(ts)
    best = float(np.abs(y[ok]).min()) if ok.any() else math.inf
    crossing = ok[:-1] & ok[1:] & ((y[:-1] < 0.0) != (y[1:] < 0.0))
    lo, hi, y_lo = ts[:-1][crossing], ts[1:][crossing], y[:-1][crossing]
    live = np.ones(len(lo), dtype=bool)
    for _ in range(_AXIS_BISECTIONS):
        mid = 0.5 * (lo + hi)
        ym, okm = y_at(mid)
        live &= okm
        if (live & (ym == 0.0)).any():
            return 0.0
        left = live & ((ym < 0.0) == (y_lo < 0.0))
        lo, y_lo = np.where(left, mid, lo), np.where(left, ym, y_lo)
        hi = np.where(live & ~left, mid, hi)
    ym, okm = y_at(0.5 * (lo + hi))
    if okm.any():
        best = min(best, float(np.abs(ym[okm]).min()))
    return best


# Rows of a point-to-point distance table held at once.
_ROW_BLOCK = 32


def _hausdorff(pa: np.ndarray, pb: np.ndarray) -> float:
    """Hausdorff distance of two (m, 2) point sets, a block of pa's rows at
    a time: each row's minimum, and a running minimum per column of pb."""
    row_max = 0.0
    col_min = np.full(len(pb), np.inf)
    for s in range(0, len(pa), _ROW_BLOCK):
        dx = pa[s : s + _ROW_BLOCK, 0, None] - pb[:, 0]
        dy = pa[s : s + _ROW_BLOCK, 1, None] - pb[:, 1]
        d2 = dx * dx + dy * dy
        row_max = max(row_max, float(d2.min(axis=1).max()))
        col_min = np.minimum(col_min, d2.min(axis=0))
    return math.sqrt(max(row_max, float(col_min.max())))


def _symmetry_closure(loc: Locus, sx: float, sy: float) -> float:
    """Largest distance from a reflected valid sample (sx x, sy y) to its
    nearest valid sample, a block of reflected rows at a time."""
    x, y = loc.x[loc.ok], loc.y[loc.ok]
    out = 0.0
    for s in range(0, len(x), _ROW_BLOCK):
        fx = sx * x[s : s + _ROW_BLOCK, None]
        fy = sy * y[s : s + _ROW_BLOCK, None]
        out = max(out, float(np.hypot(x - fx, y - fy).min(axis=1).max()))
    return out


def _nonconic_evidence(loc: Locus) -> Tuple[bool, float]:
    """(is the locus not a conic, its best degree-2 residual)."""
    fit2 = fit_curve(loc.valid_xy(), 2)
    return (fit2.residual > CONIC_TOL, fit2.residual)


# ---------------------------------------------------------------------------
# Bicentric checks.


def _is_poristic(p: BicentricParams) -> bool:
    """Whether d is Chapple's poristic offset; never when R < 2r."""
    return p.R >= 2.0 * p.r and abs(p.d - chapple_distance(p.R, p.r)) <= 1e-12


@_claim("thm:bicII-x1", "theorem")
def check_bicII_x1_circle(p: BicentricParams = DEFAULT_BIC2) -> ClaimReport:
    """Incenter locus over the two-caustic bicentric family is the
    circle [O1, r1], with the reflected circle carrying the reflected
    incenter, and [O1, r1] does not belong to the caustic pencil."""
    cfg = bic1_config(p.R, p.r) if _is_poristic(p) else bic2_config(p.R, p.r, p.d)
    center, radius = bic2_x1_circle(p)
    loc = trace_locus(cfg, "X1", 512)
    xy = loc.valid_xy()
    metric = _circle_deviation(xy, center, abs(radius)) / p.R

    loc40 = trace_locus(cfg, "X40", 512)
    reflected = Point(-center.x, -center.y)
    dev40 = _circle_deviation(loc40.valid_xy(), reflected, abs(radius)) / p.R

    notes = [f"reflected-center circle deviation for X40: {dev40:.3e}"]
    span_ok = True
    if abs(radius) > 1e-12 * p.R:
        span = conic_span_residual(
            Conic.circle(center, abs(radius)),
            cfg.outer_conic(),
            cfg.caustics()[0],
        )
        span_ok = span > 1e-6
        notes.append(f"pencil-exclusion span residual: {span:.3e} (needs > 1e-6)")
    else:
        notes.append("radius is zero (closing pair): pencil exclusion skipped")

    control = _circle_deviation(xy, center, abs(radius) + 0.01 * p.R) / p.R
    control_ok = control > 1e-6
    notes.append(f"negative control (radius +1% of R): deviation {control:.3e}")

    ok = metric <= 1e-9 and dev40 <= 1e-9 and span_ok and control_ok
    return _report(
        p, ok, metric, 1e-9,
        f"circle center ({center.x:.9g}, 0), radius {abs(radius):.9g}",
        f"max |dist - r1|/R = {metric:.3e} over {len(xy)} samples",
        notes,
    )


@_claim("cor:bicII-exc", "corollary")
def check_bicII_excenter_circle(p: BicentricParams = DEFAULT_BIC2) -> ClaimReport:
    """First excenter sweeps the circle [-O1, r1']; the other two sweep
    degree-6 non-conics that both reach the x-axis."""
    cfg = bic2_config(p.R, p.r, p.d)
    center, _ = bic2_x1_circle(p)
    radius = bic2_excenter_radius(p)
    anti = Point(-center.x, 0.0)

    loc1 = trace_locus(cfg, "P1'", 512)
    metric = _circle_deviation(loc1.valid_xy(), anti, radius) / p.R

    notes = []
    if _is_poristic(p):
        notes.append(
            f"closing pair: r1' = {radius:.15g}, |r1' - 2R|/R = {abs(radius - 2.0 * p.R) / p.R:.3e}"
        )

    deg6_ok = True
    axis_ok = True
    for pid in ("P2'", "P3'"):
        loc = trace_locus(cfg, pid, 512)
        fit6 = fit_curve(loc.valid_xy(), 6)
        nonconic, fit2res = _nonconic_evidence(loc)
        crossing = _min_axis_distance(cfg, pid)
        deg6_ok = deg6_ok and fit6.residual <= 1e-8 and nonconic
        axis_ok = axis_ok and crossing <= 1e-6
        notes.append(
            f"{pid}: degree-6 residual {fit6.residual:.3e}, conic residual {fit2res:.3e},"
            f" axis distance {crossing:.3e}"
        )

    control = _circle_deviation(loc1.valid_xy(), anti, radius * 1.01) / p.R
    control_ok = control > 1e-6
    notes.append(f"negative control (radius +1%): deviation {control:.3e}")

    ok = metric <= 1e-9 and deg6_ok and axis_ok and control_ok
    return _report(
        p, ok, metric, 1e-9,
        f"circle center ({-center.x:.9g}, 0), radius {radius:.9g}; other excenters degree-6",
        f"max |dist - r1'|/R = {metric:.3e}",
        notes,
    )


@_claim("prop:bicII-x2", "proposition")
def check_bicII_x2_sextic(p: BicentricParams = DEFAULT_BIC2) -> ClaimReport:
    """Barycenter locus satisfies the implicit sextic at machine scale
    while no conic fits it (negative control)."""
    cfg = bic2_config(p.R, p.r, p.d)
    loc = trace_locus(cfg, "X2", 512)
    xy = loc.valid_xy()
    metric = verify_implicit_sextic_x2(p, loc)

    fit2 = fit_curve(xy, 2)
    fit = classify_locus(loc)

    # The companion form weighted by the squared vertex-to-caustic-center
    # distance vanishes on the rescaled samples, not on the locus itself.
    weighted = sextic_coefficients_x2_weighted(p)
    ws = [p.R * p.R + p.d * p.d - 2.0 * p.d * (p.R * math.cos(t)) for t in loc.t[loc.ok].tolist()]
    companion = sextic_residual(weighted, xy * np.array(ws)[:, None])
    companion_plain = sextic_residual(weighted, xy)

    ok = (
        metric <= 1e-8
        and fit2.residual > 1e-3
        and fit.verdict == "algebraic"
        and fit.degree == 6
        and companion <= 1e-10
        and companion_plain > 1e-3
    )
    notes = (
        f"conic control residual: {fit2.residual:.3e} (needs > 1e-3)",
        f"classification: {fit.verdict} degree {fit.degree} at {fit.residual:.3e}",
        f"weighted companion on rescaled samples: {companion:.3e}",
        f"weighted companion on plain samples: {companion_plain:.3e} (needs > 1e-3)",
    )
    return _report(
        p, ok, metric, 1e-8,
        "implicit degree-6 polynomial vanishes on the barycenter locus",
        f"max normalized residual {metric:.3e} over {len(xy)} samples",
        notes,
    )


@_claim("prop:bicII-envelope", "proposition")
def check_bicII_envelope(p: BicentricParams = DEFAULT_BIC2) -> ClaimReport:
    """Free side of the two-caustic bicentric family is tangent to the
    predicted pencil circle; at the collapse radius every chord passes
    through one point."""
    cfg = bic2_config(p.R, p.r, p.d)
    env = bic2_envelope(p)
    lines = _free_sides(cfg, 512)
    metric = _worst(line_tangent_to_conic_residual(lines, env)) / p.R

    r_collapse = degenerate_envelope_inradius(p.R, p.d)
    collapse_cfg = bic2_config(p.R, r_collapse, p.d)
    target = bic2_collapse_point(p.R, p.d)
    point_worst = _worst(_free_sides(collapse_cfg, 512).signed_distance(target))

    sampled = envelope_points(cfg.free_sides, _grid(256))
    assert env.center is not None
    sample_dev = (
        _circle_deviation(sampled, env.center, env.semi_axes[0]) if len(sampled) else math.inf
    )

    shifted = Conic.circle(Point(env.center.x + 0.01 * p.R, 0.0), env.semi_axes[0])
    control = _worst(line_tangent_to_conic_residual(_free_sides(cfg, 64), shifted)) / p.R

    ok = metric <= 1e-9 and point_worst / p.R <= 1e-8 and control > 1e-6
    notes = (
        f"collapse radius {r_collapse:.9g}: worst chord distance to point {point_worst:.3e}",
        f"sampled envelope vs closed form: {sample_dev:.3e}",
        f"negative control (center shifted 1%): {control:.3e}",
    )
    return _report(
        p, ok, metric, 1e-9,
        "every free chord tangent to the predicted pencil circle",
        f"worst tangency defect/R = {metric:.3e} over {len(lines.a)} chords",
        notes,
    )


# ---------------------------------------------------------------------------
# Confocal checks.


@_claim("thm:confII-exc", "theorem")
def check_confII_excenter_ellipse(p: ConfocalParams = DEFAULT_CONF2) -> ClaimReport:
    """Second and third excenters share one ellipse; the first sweeps a
    degree-6 curve away from the closing parameter."""
    cfg = conf2_config(p.a, p.b, p.lam)
    ax, ay = conf2_excentral_axes(p)

    metric = 0.0
    for pid in ("P2'", "P3'"):
        loc = trace_locus(cfg, pid, 512)
        metric = max(metric, _ellipse_deviation(loc.valid_xy(), ax, ay))

    lam_c = critical_lambda(p.a, p.b)
    at_critical = abs(p.lam - lam_c) <= 1e-9 * p.b * p.b
    loc1 = trace_locus(cfg, "P1'", 512)
    notes = []
    if at_critical:
        dev1 = _ellipse_deviation(loc1.valid_xy(), ax, ay)
        first_ok = dev1 <= 1e-9
        cax, cay = conf1_excentral_axes(p.a, p.b)
        notes.append(
            f"closing parameter: first excenter on the same ellipse ({dev1:.3e});"
            f" axes vs closed form: {abs(ax - cax):.3e}, {abs(ay - cay):.3e}"
        )
    else:
        fit6 = fit_curve(loc1.valid_xy(), 6)
        nonconic, fit2res = _nonconic_evidence(loc1)
        first_ok = fit6.residual <= 1e-8 and fit2res > 10.0 * CONIC_TOL
        notes.append(
            f"first excenter: degree-6 residual {fit6.residual:.3e},"
            f" conic residual {fit2res:.3e} (needs > {10.0 * CONIC_TOL:.1e})"
        )

    loc2 = trace_locus(cfg, "P2'", 128)
    control = _ellipse_deviation(loc2.valid_xy(), ax, ay * 1.01)
    control_ok = control > 1e-6
    notes.append(f"negative control (minor axis +1%): {control:.3e}")

    ok = metric <= 1e-9 and first_ok and control_ok
    return _report(
        p, ok, metric, 1e-9,
        f"shared excentral ellipse semi-axes ({ax:.9g}, {ay:.9g})",
        f"max implicit deviation {metric:.3e}",
        notes,
    )


@_claim("prop:confII-x1", "proposition")
def check_confII_x1_conic_only_at_critical(a: float = 2.0, b: float = 1.0) -> ClaimReport:
    """Incenter locus is a conic exactly at the closing caustic
    parameter: conic residual small there, large on a grid elsewhere."""
    lam_c = critical_lambda(a, b)

    loc_c = trace_locus(conf2_config(a, b, lam_c), "X1", 512)
    fit_c = fit_curve(loc_c.valid_xy(), 2)
    metric = fit_c.residual

    cax, cay = conf1_x1_axes(a, b)
    cls = classify_locus(loc_c)
    axes_note = "fit did not expose semi-axes"
    axes_ok = False
    if cls.verdict == "ellipse" and cls.conic is not None and cls.conic.semi_axes is not None:
        got = tuple(sorted(cls.conic.semi_axes, reverse=True))
        want = tuple(sorted((cax, cay), reverse=True))
        axes_err = max(abs(g - w) / w for g, w in zip(got, want))
        axes_ok = axes_err <= 1e-8
        axes_note = f"fitted semi-axes vs closed form: rel err {axes_err:.3e}"

    grid = [lam for lam in np.linspace(0.08, 0.95, 12) * b * b if abs(lam - lam_c) > 0.05 * b * b]
    worst_offgrid = math.inf
    for lam in grid:
        loc = trace_locus(conf2_config(a, b, float(lam)), "X1", 512)
        fit = fit_curve(loc.valid_xy(), 2)
        worst_offgrid = min(worst_offgrid, fit.residual)

    sym = max(
        _symmetry_closure(loc_c, -1.0, -1.0),
        _symmetry_closure(loc_c, 1.0, -1.0),
    )

    ok = (
        metric <= CONIC_TOL
        and worst_offgrid > 10.0 * CONIC_TOL
        and len(grid) >= 9
        and axes_ok
        and sym <= 1e-8 * a
    )
    notes = (
        axes_note,
        f"off-closing grid ({len(grid)} values): smallest conic residual {worst_offgrid:.3e}"
        f" (needs > {10.0 * CONIC_TOL:.1e})",
        f"sample-set symmetry closure under both reflections: {sym:.3e}",
    )
    return _report(
        ConfocalParams(a, b, lam_c), ok, metric, CONIC_TOL,
        "conic verdict only at the closing caustic parameter",
        f"conic residual {metric:.3e} at closing parameter",
        notes,
    )


@_claim("prop:confII-x2-n4", "proposition")
def check_x2_homothety_half_n4(a: float = 2.0, b: float = 1.0) -> ClaimReport:
    """With the 4-bounce caustic, the barycenter traces the outer
    ellipse shrunk to one third, and every free chord is bisected by
    the center."""
    lam4 = n4_lambda(a, b)
    cfg = conf2_config(a, b, lam4)
    loc = trace_locus(cfg, "X2", 512)
    metric = _ellipse_deviation(loc.valid_xy(), a / 3.0, b / 3.0)

    tri = _grid_samples(cfg, 512).tri
    midpoint_worst = _worst(np.hypot(tri.x2 + tri.x3, tri.y2 + tri.y3)[tri.ok] / 2.0)

    loc_off = trace_locus(conf2_config(a, b, 0.8 * lam4), "X2", 512)
    fit_off = fit_curve(loc_off.valid_xy(), 2)

    # Concentric-circle analogue of the same statement (equal axes):
    # caustic radius a/sqrt(2), barycenter on the radius-a/3 circle.
    circ = bic2_config(a, a / math.sqrt(2.0), 0.0)
    circ_loc = trace_locus(circ, "X2", 128)
    circ_dev = _circle_deviation(circ_loc.valid_xy(), Point(0.0, 0.0), a / 3.0)

    ok = (
        metric <= 1e-9
        and midpoint_worst <= 1e-9 * a
        and fit_off.residual > CONIC_TOL
        and circ_dev <= 1e-9 * a
    )
    notes = (
        f"worst |P2+P3|/2 distance from center: {midpoint_worst:.3e}",
        f"off-caustic control (0.8x): conic residual {fit_off.residual:.3e}",
        f"concentric-circle analogue deviation: {circ_dev:.3e}",
    )
    return _report(
        ConfocalParams(a, b, lam4), ok, metric, 1e-9,
        f"barycenter on the ({a / 3.0:.9g}, {b / 3.0:.9g}) ellipse",
        f"max implicit deviation {metric:.3e}",
        notes,
    )


@_claim("prop:confII-envelope", "proposition")
def check_confII_envelope(p: ConfocalParams = DEFAULT_CONF2) -> ClaimReport:
    """Free side of the confocal-caustic family is tangent to the
    predicted concentric ellipse; with the 4-bounce caustic all chords
    pass through the center."""
    cfg = conf2_config(p.a, p.b, p.lam)
    env = conf2_envelope(p)
    lines = _free_sides(cfg, 512)
    metric = _worst(line_tangent_to_conic_residual(lines, env)) / p.a

    lam4 = n4_lambda(p.a, p.b)
    cfg4 = conf2_config(p.a, p.b, lam4)
    point_worst = _worst(_free_sides(cfg4, 512).signed_distance(Point(0.0, 0.0)))

    assert env.semi_axes is not None
    grown = Conic.axis_ellipse(Point(0.0, 0.0), env.semi_axes[0] * 1.01, env.semi_axes[1])
    control = _worst(line_tangent_to_conic_residual(_free_sides(cfg, 64), grown)) / p.a

    ok = metric <= 1e-9 and point_worst <= 1e-9 and control > 1e-6
    notes = (
        f"4-bounce caustic: worst chord distance to center {point_worst:.3e}",
        f"negative control (major axis +1%): {control:.3e}",
    )
    return _report(
        p, ok, metric, 1e-9,
        "every free chord tangent to the predicted concentric ellipse",
        f"worst tangency defect/a = {metric:.3e} over {len(lines.a)} chords",
        notes,
    )


@_claim("cor:confII-n4", "corollary")
def check_confII_n4_excentral_aspect(a: float = 2.0, b: float = 1.0) -> ClaimReport:
    """With the 4-bounce caustic the shared excentral ellipse has the
    reciprocal aspect ratio b/a."""
    lam4 = n4_lambda(a, b)
    p = ConfocalParams(a, b, lam4)
    ax, ay = conf2_excentral_axes(p)
    metric = abs(ax / ay - b / a)

    cfg = conf2_config(a, b, lam4)
    dev = max(
        _ellipse_deviation(trace_locus(cfg, pid, 256).valid_xy(), ax, ay)
        for pid in ("P2'", "P3'")
    )
    ok = metric <= 1e-10 and dev <= 1e-9
    return _report(
        p, ok, metric, 1e-10,
        f"excentral aspect ratio {b / a:.9g}",
        f"|ax/ay - b/a| = {metric:.3e}",
        (f"traced excenters on the ellipse within {dev:.3e}",),
    )


@_claim("cor:confII-n6", "corollary")
def check_confII_n6_excentral_circle(a: float = 2.0, b: float = 1.0) -> ClaimReport:
    """With the 6-bounce caustic the shared excentral ellipse is a
    circle (equal semi-axes)."""
    lam6 = n6_lambda(a, b)
    p = ConfocalParams(a, b, lam6)
    ax, ay = conf2_excentral_axes(p)
    metric = abs(ax - ay) / ax

    cfg = conf2_config(a, b, lam6)
    dev = max(
        _ellipse_deviation(trace_locus(cfg, pid, 256).valid_xy(), ax, ay)
        for pid in ("P2'", "P3'")
    )
    ok = metric <= 1e-10 and dev <= 1e-9
    return _report(
        p, ok, metric, 1e-10,
        "equal excentral semi-axes",
        f"|ax - ay|/ax = {metric:.3e} (radius {ax:.9g})",
        (f"traced excenters on the circle within {dev:.3e}",),
    )


@_claim("prop:confII-x1-convex", "proposition")
def check_convexity_transition(a: float = 2.0, b: float = 1.0) -> ClaimReport:
    """Incenter-locus convexity over the confocal-caustic family flips
    at the smallest positive root of the transition quintic."""
    lam_o = convexity_lambda_root(a, b)
    coeffs = convexity_quintic_coeffs(a, b)
    quintic_res = abs(float(np.polyval(coeffs, lam_o))) / max(abs(c) for c in coeffs)

    def convex_at(lam: float) -> bool:
        loc = trace_locus(conf2_config(a, b, lam), "X1", 512)
        return convexity_check(loc.valid_xy())

    lo, hi = 0.85 * lam_o, 1.15 * lam_o
    is_lo = convex_at(lo)
    is_hi = convex_at(hi)
    bracket_ok = is_lo != is_hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if convex_at(mid) == is_lo:
            lo = mid
        else:
            hi = mid
    empirical = 0.5 * (lo + hi)
    metric = abs(empirical - lam_o)

    real_roots = sorted(
        z.real for z in np.roots(coeffs) if abs(z.imag) <= 1e-9 * (1.0 + abs(z))
    )

    ok = quintic_res <= 1e-10 and bracket_ok and is_lo and metric <= 1e-3
    notes = (
        f"quintic residual at root: {quintic_res:.3e}",
        f"real roots: {', '.join(f'{r:.6f}' for r in real_roots)}"
        f" ({len(real_roots)} real)",
        f"traced transition at {empirical:.9f}; convex below, not above",
    )
    return _report(
        f"a={a:g} b={b:g}", ok, metric, 1e-3,
        f"convexity transition at caustic parameter {lam_o:.9f}",
        f"traced transition within {metric:.3e}",
        notes,
    )


@_claim("inv:conserved", "invariant")
def check_conserved_quantities() -> ClaimReport:
    """Family invariants: bicentric cosine sum, confocal closing-family
    perimeter and inradius/circumradius ratio, stationary mittenpunkt,
    and reciprocal aspect ratios of the two closing-family ellipses."""
    R, r = 1.0, 0.2
    cfg1 = bic1_config(R, r)
    shape = _member_shapes(cfg1, 512)
    cos_worst = _worst(sum(_cosines(shape.s1, shape.s2, shape.s3)) - (1.0 + r / R))

    a, b = 2.0, 1.0
    cfgc = conf1_config(a, b)
    shape = _member_shapes(cfgc, 512)
    perims = shape.s1 + shape.s2 + shape.s3
    ratios = (2.0 * shape.area / perims) / (shape.s1 * shape.s2 * shape.s3 / (4.0 * shape.area))
    perim_spread = float((perims.max() - perims.min()) / perims.mean())
    ratio_spread = float((ratios.max() - ratios.min()) / ratios.mean())

    x9_spread = stationarity_spread(trace_locus(cfgc, "X9", 512))

    ax1, ay1 = conf1_x1_axes(a, b)
    axe, aye = conf1_excentral_axes(a, b)
    aspect_gap = abs(ax1 / ay1 - aye / axe)

    metric = max(cos_worst, perim_spread, x9_spread, aspect_gap)
    ok = (
        cos_worst <= 1e-10
        and perim_spread <= 1e-9
        and ratio_spread <= 1e-9
        and x9_spread <= 1e-10
        and aspect_gap <= 1e-10
    )
    notes = (
        f"cosine sum spread: {cos_worst:.3e} (vs 1 + r/R)",
        f"closing-family perimeter relative spread: {perim_spread:.3e}",
        f"inradius/circumradius relative spread: {ratio_spread:.3e}",
        f"mittenpunkt spread: {x9_spread:.3e}",
        f"|a1/b1 - be/ae| = {aspect_gap:.3e}",
    )
    return _report(
        (BicentricParams(R, r, chapple_distance(R, r)), cfgc.params), ok, metric, 1e-9,
        "cosine sum, perimeter, radius ratio, mittenpunkt, aspect reciprocity",
        f"worst spread {metric:.3e}",
        notes,
    )


# ---------------------------------------------------------------------------
# Table reproductions and conjectures.


def _matches_expected(letter: str, expected: str) -> bool:
    if expected in ("N", "X"):  # any non-conic verdict satisfies these
        return letter not in ("P", "C", "E")
    return letter == expected


@_claim("table2", "table")
def summary_table() -> ClaimReport:
    """Verdict grid for the six families at the documented default
    parameters, compared cell-for-cell against the expected letters."""
    configs = {
        "bic-I": bic1_config(DEFAULT_BIC2.R, DEFAULT_BIC2.r),
        "bic-II": FamilyConfig("bic-II", DEFAULT_BIC2),
        "bic-III": FamilyConfig("bic-III", DEFAULT_BIC3),
        "conf-I": conf1_config(DEFAULT_CONF2.a, DEFAULT_CONF2.b),
        "conf-II": FamilyConfig("conf-II", DEFAULT_CONF2),
        "conf-III": conf3_config(2.0, 1.0, 0.3, 0.5),
    }
    rows: List[Tuple[str, ...]] = [("family",) + _TABLE2_COLUMNS]
    mismatches: List[str] = []
    for family, cfg in configs.items():
        letters = []
        for pid in _TABLE2_COLUMNS:
            fit = classify_locus(trace_locus(cfg, pid, 512))
            letter = verdict_letter(fit)
            letters.append(letter)
            expected = _TABLE2_EXPECTED[family][_TABLE2_COLUMNS.index(pid)]
            if not _matches_expected(letter, expected):
                mismatches.append(
                    f"{family}/{pid}: measured {letter}, expected {expected}"
                    f" (residual {fit.residual:.2e})"
                )
        rows.append((family,) + tuple(letters))

    ok = not mismatches
    return _report(
        "documented defaults per family", ok, float(len(mismatches)), 0.0,
        "all 36 verdict cells as expected",
        "all cells match" if ok else "; ".join(mismatches),
        mismatches,
        rows,
    )


@_claim("conj:bicII-stationary", "conjecture")
def check_conjecture_bicII_stationary() -> ClaimReport:
    """Evidence for: a conic locus over the two-caustic bicentric
    family requires a stationary locus over the closing family.

    Reports (stationary spread, verdicts) per center and checks the
    implication on every catalogued center and moving control;
    divergences from the reference letter tables are reported, not
    failed, since several measured verdicts provably differ from the
    tabulated ones.
    """
    cfg1 = bic1_config(DEFAULT_BIC2.R, DEFAULT_BIC2.r)
    cfg2 = FamilyConfig("bic-II", DEFAULT_BIC2)
    cfg3 = FamilyConfig("bic-III", DEFAULT_BIC3)
    reference2 = dict(zip(STATIONARY_CENTER_IDS, _BICII_REFERENCE))
    reference3 = dict(zip(STATIONARY_CENTER_IDS, _BICIII_REFERENCE))

    rows: List[Tuple[str, ...]] = [
        ("center", "bicI spread", "bicII verdict", "bicII ref", "bicIII verdict", "bicIII ref")
    ]
    violations: List[str] = []
    divergences: List[str] = []
    flagged: List[str] = []
    worst_conic_spread = 0.0
    for cid in STATIONARY_CENTER_IDS + _MOVING_CONTROL_IDS:
        spread = stationarity_spread(trace_locus(cfg1, cid, 256))
        fit2 = classify_locus(trace_locus(cfg2, cid, 512))
        letter2 = verdict_letter(fit2)
        fit3 = classify_locus(trace_locus(cfg3, cid, 512))
        letter3 = verdict_letter(fit3)
        stationary = spread <= 1e-9
        conic2 = letter2 in ("P", "C", "E")
        if conic2:
            worst_conic_spread = max(worst_conic_spread, spread)
            if not stationary:
                violations.append(
                    f"{cid}: conic over bic-II ({letter2}) but spread {spread:.2e}"
                )
        if stationary and not conic2:
            flagged.append(cid)
        ref2 = reference2.get(cid, "")
        ref3 = reference3.get(cid, "")
        if ref2 and not _matches_expected(letter2, ref2):
            divergences.append(
                f"{cid}: measured {letter2} over bic-II, reference letter {ref2}"
                f" (accepted-fit residual {fit2.residual:.1e})"
            )
        if ref3 and not _matches_expected(letter3, ref3):
            divergences.append(
                f"{cid}: measured {letter3} over bic-III, reference letter {ref3}"
            )
        rows.append((cid, f"{spread:.2e}", letter2, ref2 or "-", letter3, ref3 or "-"))

    ok = not violations
    notes = [
        "stationary yet not conic over bic-II: " + ", ".join(flagged),
        *divergences,
    ]
    if divergences:
        notes.append(
            f"{len(divergences)} reference letters differ from measurement;"
            " the implication itself has no counterexample here"
        )
    return _report(
        (cfg1.params, cfg2.params), ok, worst_conic_spread, 1e-9,
        "every conic-locus center is stationary over the closing family",
        "no counterexample found" if ok else "; ".join(violations),
        notes,
        rows,
    )


@_claim("conj:bicIII", "conjecture")
def check_conjectures_bicIII(p: BicentricParams = DEFAULT_BIC3) -> ClaimReport:
    """Evidence for the three-caustic bicentric observations: convex
    non-conic incenter locus, non-conic excenter loci that stay
    non-conic even at the envelope collapse, and exactly two distinct
    free-side envelopes across the four tangency branches."""
    assert p.u is not None
    cfg = bic3_config(p.R, p.r, p.d, u=p.u)

    loc_x1 = trace_locus(cfg, "X1", 512)
    convex = convexity_check(loc_x1.valid_xy())
    x1_nonconic, x1_fit2 = _nonconic_evidence(loc_x1)

    exc_loci = {pid: trace_locus(cfg, pid, 512) for pid in ("P1'", "P2'", "P3'")}
    exc_nonconic = True
    notes = [f"incenter: convex={convex}, conic residual {x1_fit2:.3e}"]
    for pid, loc in exc_loci.items():
        nonconic, fit2res = _nonconic_evidence(loc)
        exc_nonconic = exc_nonconic and nonconic
        notes.append(f"{pid}: conic residual {fit2res:.3e}")

    pair_gap = min(
        _hausdorff(exc_loci["P1'"].valid_xy(), exc_loci["P2'"].valid_xy()),
        _hausdorff(exc_loci["P1'"].valid_xy(), exc_loci["P3'"].valid_xy()),
        _hausdorff(exc_loci["P2'"].valid_xy(), exc_loci["P3'"].valid_xy()),
    )
    distinct = pair_gap > 1e-3 * p.R

    # Collapse configuration: envelope shrunk to the interior limiting
    # point; the excenter loci must remain non-conic there.
    u_star = bic3_collapse_u(p.R, p.r, p.d)
    cfg_star = bic3_config(p.R, p.r, p.d, u=u_star)
    collapse_margin = math.inf
    collapse_nonconic = True
    near_circle = ""
    for pid in ("P1'", "P2'", "P3'"):
        loc = trace_locus(cfg_star, pid, 512)
        nonconic, fit2res = _nonconic_evidence(loc)
        collapse_nonconic = collapse_nonconic and nonconic
        if fit2res < collapse_margin:
            collapse_margin = fit2res
            near_circle = pid
    notes.append(
        f"collapse at u={u_star:.9f}: all excenters non-conic;"
        f" {near_circle} closest to a conic at residual {collapse_margin:.3e}"
        f" ({collapse_margin / CONIC_TOL:.0f}x the conic tolerance)"
    )

    # Endpoint consistency: u -> 0 reduces to the two-caustic family.
    cfg0 = bic3_config(p.R, p.r, p.d, u=0.0)
    fit0 = classify_locus(trace_locus(cfg0, "X1", 256))
    endpoint_ok = fit0.verdict == "circle"
    notes.append(f"u=0 endpoint: incenter verdict {fit0.verdict} at {fit0.residual:.2e}")

    # Four tangency branches, two distinct free-side envelopes.
    fitted: List[Tuple[float, float, float]] = []
    for first in (PLUS, MINUS):
        for second in (PLUS, MINUS):
            bcfg = bic3_config(p.R, p.r, p.d, u=p.u, branch=TangentBranch(first, second))
            arr = envelope_points(bcfg.free_sides, _grid(128))
            mat = np.column_stack([arr[:, 0], arr[:, 1], np.ones(len(arr))])
            rhs = -(arr[:, 0] ** 2 + arr[:, 1] ** 2)
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            cx, cy = -sol[0] / 2.0, -sol[1] / 2.0
            rad = math.sqrt(max(cx * cx + cy * cy - sol[2], 0.0))
            fitted.append((cx, cy, rad))
    clusters: List[Tuple[float, float, float]] = []
    for cand in fitted:
        for seen in clusters:
            if max(abs(x - y) for x, y in zip(cand, seen)) <= 1e-6 * p.R:
                break
        else:
            clusters.append(cand)
    separation = min(
        (
            max(abs(x - y) for x, y in zip(c1, c2))
            for i, c1 in enumerate(clusters)
            for c2 in clusters[i + 1:]
        ),
        default=0.0,
    )
    envelopes_ok = len(clusters) == 2 and separation > 1e-3 * p.R
    notes.append(
        f"branch envelopes: {len(clusters)} distinct circles, separation {separation:.3e}"
    )

    ok = (
        convex
        and x1_nonconic
        and exc_nonconic
        and distinct
        and collapse_nonconic
        and endpoint_ok
        and envelopes_ok
    )
    return _report(
        p, ok, x1_fit2, CONIC_TOL,
        "convex non-conic incenter locus; distinct non-conic excenter loci;"
        " two branch envelopes",
        f"pairwise excenter gap {pair_gap:.3e}; incenter conic residual {x1_fit2:.3e}",
        notes,
    )
