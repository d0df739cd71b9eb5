"""The array paths against their one-element calls.

``trace_locus`` evaluates the family and the tracked point on the whole t
grid at once; ``FamilyConfig.triangle``, ``center`` and ``excenters`` run
the same batch path on one triangle and raise where its mask is false.
The per-angle loop checks that a one-element batch gives the same bits as
the same sample inside the 64-sample grid.  A config object keeps the
grid batch of its last trace; a trace that reuses it gives the bits of a
fresh equal config.  So do the batch consumers:
``envelope_points`` on ``FamilyConfig.free_sides`` and the all-brackets
bisection of ``claims._min_axis_distance``.  Each reference here is the
per-sample loop, rebuilt in the test.
"""

import dataclasses
import math

import numpy as np
import pytest

from poncelet.centers import (
    _barycentric,
    CenterDefinition,
    builtin_centers,
    center,
    center_arrays,
    excenter_arrays,
    excenters,
)
from poncelet.families import (
    MINUS,
    PLUS,
    DegenerateTriangle,
    FamilyConfig,
    ImaginaryPencilCircle,
    TangentBranch,
    Triangle,
    TriangleBatch,
    VertexInsideCaustic,
    bic1_config,
    bic2_config,
    bic3_config,
    conf1_config,
    conf2_config,
    conf3_config,
)
from poncelet.claims import DEFAULT_BIC2, _min_axis_distance
from poncelet.families import _ENVELOPE_STEP, envelope_points
from poncelet.geom import GeometryError, Line, Point
from poncelet.loci import TRACKED_IDS, _grid_samples, trace_locus

from _geometry_oracle import line_intersection

N = 64
BRANCHES = [TangentBranch(a, b) for a in (PLUS, MINUS) for b in (PLUS, MINUS)]


def _configs():
    out = []
    for R, r in ((1.0, 0.25), (1.3, 0.2)):
        out.append(bic1_config(R, r))
    for R, r, d in ((1.0, 0.2, 0.3), (1.3, 0.15, 0.4)):
        out.append(bic2_config(R, r, d))
    for R, r, d, u in ((1.0, 0.2, 0.3, 0.5), (1.3, 0.15, 0.4, 0.3)):
        out.extend(bic3_config(R, r, d, u, branch=br) for br in BRANCHES)
    for a in (2.0, 1.7):
        out.append(conf1_config(a, 1.0))
    for a, lam in ((2.0, 0.5), (1.7, 0.4)):
        out.append(conf2_config(a, 1.0, lam))
    for a, lam, u in ((2.0, 0.3, 0.5), (1.7, 0.4, 0.3)):
        out.extend(conf3_config(a, 1.0, lam, u, branch=br) for br in BRANCHES)
    return out


CONFIGS = _configs()
TRACKED = [f"X{c.id}" for c in builtin_centers()] + list(TRACKED_IDS)


def _scalar_point(tri, tracked):
    """A vertex, excenter or center of one triangle, from the one-element
    calls."""
    if tracked in ("P1", "P2", "P3"):
        return tri.vertices()[int(tracked[1]) - 1]
    if tracked in ("P1'", "P2'", "P3'"):
        return excenters(tri).vertices()[int(tracked[1]) - 1]
    return center(tri, tracked)


def _scalar_triangles(cfg, n):
    """``cfg.triangle`` at each angle of the n-sample grid, None where it
    raises."""
    tris = []
    for k in range(n):
        try:
            tris.append(cfg.triangle(2.0 * math.pi * k / n))
        except GeometryError:
            tris.append(None)
    return tris


def _scalar_trace(tris, tracked):
    """The per-sample loop over one-angle triangles (None where there is
    none): (x, y, valid) from the one-element calls."""
    xs, ys, valid = [], [], []
    for tri in tris:
        p = None
        if tri is not None:
            try:
                p = _scalar_point(tri, tracked)
            except GeometryError:
                pass
        ok = p is not None and math.isfinite(p.x) and math.isfinite(p.y)
        xs.append(p.x if ok else math.nan)
        ys.append(p.y if ok else math.nan)
        valid.append(ok)
    return np.array(xs), np.array(ys), np.array(valid)


def _label(cfg):
    return f"{cfg.kind}-{cfg.params}-{cfg.branch.first}-{cfg.branch.second}"


@pytest.mark.parametrize("cfg", CONFIGS, ids=_label)
def test_trace_matches_the_scalar_loop(cfg):
    tris = _scalar_triangles(cfg, N)
    for tracked in TRACKED:
        xs, ys, valid = _scalar_trace(tris, tracked)
        loc = trace_locus(cfg, tracked, N, min_valid=0)
        got_valid = np.array([s.valid for s in loc.samples])
        assert (got_valid == valid).all(), tracked
        assert valid.any(), tracked
        gx = np.array([s.p.x for s in loc.samples])
        gy = np.array([s.p.y for s in loc.samples])
        assert gx[valid].tolist() == xs[valid].tolist(), tracked
        assert gy[valid].tolist() == ys[valid].tolist(), tracked
        assert np.isnan(gx[~valid]).all() and np.isnan(gy[~valid]).all()
        assert [s.t for s in loc.samples] == [2.0 * math.pi * k / N for k in range(N)]


@pytest.mark.parametrize(
    "cfg, error",
    [
        # Every vertex lies inside the second caustic: no real tangent.
        (bic3_config(1.0, 0.2, 0.3, 1.2), VertexInsideCaustic),
        # The second caustic itself is imaginary: no member at all.
        (bic3_config(1.0, 0.2, 0.3, -0.5), ImaginaryPencilCircle),
        (conf3_config(2.0, 1.0, 0.3, 1.2), VertexInsideCaustic),
    ],
)
def test_inadmissible_family_is_invalid_where_the_scalar_api_raises(cfg, error):
    for k in range(N):
        with pytest.raises(error):
            cfg.triangle(2.0 * math.pi * k / N)
    for tracked in ("P1", "X1", "P2'"):
        loc = trace_locus(cfg, tracked, N, min_valid=0)
        assert not any(s.valid for s in loc.samples)


# ---------------------------------------------------------------------------
# The grid samples kept on a config object.


def _fresh(cfg):
    """An equal config object that has traced nothing."""
    return FamilyConfig(cfg.kind, cfg.params, cfg.branch)


def _locus_bytes(loc):
    return [arr.tobytes() for arr in (loc.t, loc.x, loc.y, loc.ok)]


@pytest.mark.parametrize("cfg", [
    bic1_config(1.0, 0.25),
    bic2_config(1.0, 0.2, 0.3),
    bic3_config(1.0, 0.15, 0.25, 0.4),
    conf1_config(2.0, 1.0),
    conf2_config(2.0, 1.0, 0.5),
    conf3_config(2.0, 1.0, 0.3, 0.5),
], ids=_label)
def test_kept_samples_give_the_bits_of_a_fresh_config(cfg):
    """Every tracked id, in both orders, at n = 256, then 1024, then 256
    again: one config object traces them all, each against a new one."""
    reused = _fresh(cfg)
    for n in (256, 1024, 256):
        for ids in (TRACKED, TRACKED[::-1]):
            for tracked in ids:
                want = _locus_bytes(trace_locus(_fresh(cfg), tracked, n, min_valid=0))
                got = _locus_bytes(trace_locus(reused, tracked, n, min_valid=0))
                assert got == want, (n, tracked)
        assert list(reused._kept) == [n]


def test_kept_samples_are_read_only():
    cfg = conf3_config(2.0, 1.0, 0.3, 0.5)
    trace_locus(cfg, "X1", N)
    kept = _grid_samples(cfg, N)
    assert _grid_samples(cfg, N) is kept
    for arr in (kept.t, *kept.tri, *kept.shape):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_a_trace_leaves_equality_hash_and_repr_alone():
    cfg = bic2_config(1.0, 0.2, 0.3)
    before = (hash(cfg), repr(cfg), dataclasses.fields(cfg))
    trace_locus(cfg, "X1", N)
    assert (hash(cfg), repr(cfg), dataclasses.fields(cfg)) == before
    twin = _fresh(cfg)
    assert cfg == twin and hash(cfg) == hash(twin)


def test_a_family_without_members_keeps_nothing():
    cfg = bic3_config(1.0, 0.2, 0.3, -0.5)  # imaginary second caustic
    for _ in range(2):
        with pytest.raises(ImaginaryPencilCircle):
            _grid_samples(cfg, N)
        assert not trace_locus(cfg, "X1", N, min_valid=0).ok.any()
    assert cfg._kept == {}


# ---------------------------------------------------------------------------
# Batch consumers of the free sides and of the tracked points.

README_FAMILIES = [
    bic1_config(1.0, 0.25),
    bic2_config(1.0, 0.2, 0.3),
    conf1_config(2.0, 1.0),
    conf2_config(2.0, 1.0, 0.5),
    conf3_config(2.0, 1.0, 0.3, 0.5),
] + [bic3_config(1.0, 0.15, 0.25, 0.4, branch=br) for br in BRANCHES]


def _scalar_envelope(cfg, ts):
    """Characteristic points angle by angle, from the free side at each
    angle and line_intersection, with the same Richardson step."""

    def char_point(t, step):
        a1, b1, c1, ok1 = cfg.free_sides(t - step)
        a2, b2, c2, ok2 = cfg.free_sides(t + step)
        if not (ok1 and ok2):
            return None
        return line_intersection(Line(a1, b1, c1), Line(a2, b2, c2))

    out = []
    for t in ts:
        coarse = char_point(t, _ENVELOPE_STEP)
        fine = char_point(t, 0.5 * _ENVELOPE_STEP)
        if coarse is not None and fine is not None:
            out.append([(4.0 * fine.x - coarse.x) / 3.0, (4.0 * fine.y - coarse.y) / 3.0])
    return out


@pytest.mark.parametrize("cfg", README_FAMILIES + [bic3_config(1.0, 0.2, 0.3, 1.2)], ids=_label)
def test_envelope_points_match_the_per_angle_construction(cfg):
    for ts in (2.0 * np.pi * np.arange(512) / 512, np.linspace(0.0, 6.0, 97) + 0.013):
        got = envelope_points(cfg.free_sides, ts)
        want = _scalar_envelope(cfg, ts.tolist())
        assert got.shape == (len(want), 2)
        assert got.tolist() == want


def _scalar_min_axis_distance(cfg, tracked, n=512, steps=64):
    """The closest approach of a locus to the x-axis, bracket by bracket."""

    def y_of(t):
        try:
            return _scalar_point(cfg.triangle(t), tracked).y
        except GeometryError:
            return None

    ts = [2.0 * math.pi * k / n for k in range(n + 1)]
    ys = [y_of(t) for t in ts]
    finite = [abs(y) for y in ys if y is not None]
    best = min(finite) if finite else math.inf
    for k in range(n):
        y0, y1 = ys[k], ys[k + 1]
        if y0 is None or y1 is None or (y0 < 0.0) == (y1 < 0.0):
            continue
        lo, hi, y_lo = ts[k], ts[k + 1], y0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            ym = y_of(mid)
            if ym is None:
                break
            if ym == 0.0:
                return 0.0
            if (ym < 0.0) == (y_lo < 0.0):
                lo, y_lo = mid, ym
            else:
                hi = mid
        ym = y_of(0.5 * (lo + hi))
        if ym is not None:
            best = min(best, abs(ym))
    return best


class _CellCenterHoles(FamilyConfig):
    """A family without members in the middle tenth of every cell of the
    512-sample grid, where each bracket's first midpoint falls."""

    def triangles(self, t):
        tri = super().triangles(t)
        cell = np.asarray(t) / (2.0 * np.pi / 512) % 1.0
        return tri._replace(ok=tri.ok & ~((cell > 0.45) & (cell < 0.55)))


@pytest.mark.parametrize("tracked", ["P2'", "P3'"])
def test_min_axis_distance_matches_the_scalar_bisection(tracked):
    cfg = FamilyConfig("bic-II", DEFAULT_BIC2)
    assert _min_axis_distance(cfg, tracked) == _scalar_min_axis_distance(cfg, tracked)
    # Every bracket stops at its first midpoint, as the scalar loop's does.
    holed = _CellCenterHoles("bic-II", DEFAULT_BIC2)
    got = _min_axis_distance(holed, tracked)
    assert got == _scalar_min_axis_distance(holed, tracked)
    assert got > _min_axis_distance(cfg, tracked)


# ---------------------------------------------------------------------------
# Degenerate triangles through both forms of each kernel.

DEGENERATE = {
    "collinear": ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
    "nearly collinear": ((0.0, 0.0), (1.0, 1e-16), (2.0, 0.0)),
    "coincident": ((0.5, 0.5), (0.5, 0.5), (2.0, -1.0)),
    "all coincident": ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)),
}
GOOD = ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))

# Barycentric weights (b - c, c - a, a - b) sum to zero on every triangle.
ZERO_SUM = CenterDefinition(900001, _barycentric(lambda a, b, c: b - c))


def _triangle(vertices):
    (x1, y1), (x2, y2), (x3, y3) = vertices
    return Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3), 0.0)


def _batch(rows):
    """A TriangleBatch over the given vertex triples, all marked present."""
    cols = np.array([[c for v in row for c in v] for row in rows]).T
    return TriangleBatch(*cols, np.ones(len(rows), dtype=bool))


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_triangles_invalid_in_arrays_and_raise_in_scalars(name):
    rows = [DEGENERATE[name], GOOD]
    batch = _batch(rows)
    tri = _triangle(DEGENERATE[name])
    good = _triangle(GOOD)
    for definition in builtin_centers() + [ZERO_SUM]:
        x, y, ok = center_arrays(batch, definition)
        expect_good = definition is not ZERO_SUM
        assert ok.tolist() == [False, expect_good], definition.id
        with pytest.raises(DegenerateTriangle):
            center(tri, definition)
        if expect_good:
            p = center(good, definition)
            assert (x[1], y[1]) == (p.x, p.y)
    xs, ys, ok = excenter_arrays(batch)
    assert ok.tolist() == [False, True]
    assert [(x[1], y[1]) for x, y in zip(xs, ys)] == list(excenters(good).vertices())
    with pytest.raises(DegenerateTriangle):
        excenters(tri)


def test_zero_weight_sum_raises_on_a_proper_triangle():
    with pytest.raises(DegenerateTriangle):
        center(_triangle(GOOD), ZERO_SUM)


def test_absent_triangles_stay_invalid():
    batch = _batch([GOOD, GOOD])._replace(ok=np.array([True, False]))
    for definition in builtin_centers():
        assert center_arrays(batch, definition)[2].tolist() == [True, False]
    assert excenter_arrays(batch)[2].tolist() == [True, False]
