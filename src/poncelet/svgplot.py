"""Deterministic SVG rendering of a triangle family.

One call produces a complete SVG 1.1 document showing the outer conic
(black), the prescribed caustics (brown), the free-side envelope, a
conic of their pencil for every family (dashed red), the requested
center loci (green), and one sample triangle (gray).  Identical inputs
produce byte-identical output: coordinates are formatted to fixed
precision and nothing (ids, timestamps, element order) depends on
runtime state.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .families import FamilyConfig
from .geom import Conic
from .loci import trace_locus

__all__ = ["render_family", "DEFAULT_SIZE"]

DEFAULT_SIZE = 640
_MARGIN_FRACTION = 0.06
_SAMPLE_TRIANGLE_T = 0.4

_STYLE = """\
  <style>
    .outer { fill: none; stroke: #000000; stroke-width: 1.5; }
    .caustic { fill: none; stroke: #8b5a2b; stroke-width: 1.2; }
    .envelope { fill: none; stroke: #cc0000; stroke-width: 1.2; stroke-dasharray: 6 4; }
    .locus { fill: none; stroke: #1a7f37; stroke-width: 1.2; }
    .locus-dot { fill: #1a7f37; stroke: none; }
    .envelope-dot { fill: #cc0000; stroke: none; }
    .triangle { fill: none; stroke: #999999; stroke-width: 0.8; }
  </style>
"""


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Frame:
    """World-to-pixel mapping with the y-axis flipped for SVG."""

    def __init__(self, bbox: Tuple[float, float, float, float], size: int) -> None:
        x0, y0, x1, y1 = bbox
        pad = _MARGIN_FRACTION * max(x1 - x0, y1 - y0)
        x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
        self.bbox = (x0, y0, x1, y1)
        self.scale = size / max(x1 - x0, y1 - y0)
        self.size = size
        self.ox = -x0 * self.scale + 0.5 * (size - (x1 - x0) * self.scale)
        self.oy = y1 * self.scale + 0.5 * (size - (y1 - y0) * self.scale)

    def to_px(self, p: Sequence[float]) -> Tuple[float, float]:
        return (self.ox + p[0] * self.scale, self.oy - p[1] * self.scale)


def _conic_corners(c: Conic) -> np.ndarray:
    """The drawn extent of a conic: the corners of its axis box."""
    center = c.center
    rx, ry = c.semi_axes
    return np.array([(center.x - rx, center.y - ry), (center.x + rx, center.y + ry)])


def _finite_rows(xy: np.ndarray) -> np.ndarray:
    return xy[np.isfinite(xy).all(axis=1)]


def _dot(p: Sequence[float], css: str, frame: _Frame, label: str) -> str:
    """A curve too small to draw, as a dot at the world point p."""
    cx, cy = frame.to_px(p)
    dot = "envelope-dot" if css == "envelope" else "locus-dot"
    return (
        f'  <circle class="{dot}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5">'
        f"<title>{label}</title></circle>\n"
    )


def _conic_element(c: Conic, css: str, frame: _Frame, label: str) -> str:
    center = c.center
    axes = c.semi_axes
    if max(axes) * frame.scale < 0.5:
        return _dot(center, css, frame, label)
    cx, cy = frame.to_px(center)
    rx, ry = axes[0] * frame.scale, axes[1] * frame.scale
    if abs(rx - ry) <= 1e-9 * max(rx, ry):
        return (
            f'  <circle class="{css}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(rx)}">'
            f"<title>{label}</title></circle>\n"
        )
    return (
        f'  <ellipse class="{css}" cx="{_fmt(cx)}" cy="{_fmt(cy)}"'
        f' rx="{_fmt(rx)}" ry="{_fmt(ry)}"><title>{label}</title></ellipse>\n'
    )


def _path_runs(xy: np.ndarray, frame: _Frame) -> List[str]:
    """Path data strings, one per contiguous run of finite rows."""
    runs: List[str] = []
    current: List[str] = []
    for p in xy.tolist():
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            if len(current) > 1:
                runs.append("M " + " L ".join(current))
            current = []
            continue
        x, y = frame.to_px(p)
        current.append(f"{_fmt(x)} {_fmt(y)}")
    if len(current) > 1:
        runs.append("M " + " L ".join(current))
    return runs


def _locus_elements(xy: np.ndarray, frame: _Frame, css: str, label: str) -> str:
    """A sampled curve, an (n, 2) array with a finite row; non-finite rows break it."""
    finite = _finite_rows(xy)
    spread = float(np.ptp(finite, axis=0).max())
    if spread * frame.scale < 1.0:
        return _dot(finite[0].tolist(), css, frame, label)
    out = []
    for d in _path_runs(xy, frame):
        out.append(f'  <path class="{css}" d="{d}"><title>{label}</title></path>\n')
    return "".join(out)


def render_family(
    cfg: FamilyConfig,
    center_ids: Sequence[str] = ("X1",),
    n: int = 512,
) -> str:
    """Render one family and the loci of the given tracked points, at
    DEFAULT_SIZE pixels square."""
    outer = cfg.outer_conic()
    caustics = cfg.caustics()
    envelope = cfg.closed_form_envelope()

    loci: List[Tuple[str, np.ndarray]] = []
    for cid in center_ids:
        locus = trace_locus(cfg, cid, n, min_valid=1)  # plotted, not fitted
        loci.append((cid, np.column_stack((locus.x, locus.y))))  # NaN where invalid

    # The sample triangle's vertices as a (3, 2) array, no row where it has none.
    batch = cfg.triangles(np.array([_SAMPLE_TRIANGLE_T]))
    tri = np.array(batch[:6]).reshape(3, 2) if batch.ok[0] else np.empty((0, 2))

    # Every drawn point, the conics by their axis boxes: the frame holds them all.
    conics = (outer, *caustics, envelope)
    drawn = _finite_rows(np.concatenate([*map(_conic_corners, conics), *(xy for _, xy in loci), tri]))
    size = DEFAULT_SIZE
    frame = _Frame((*drawn.min(axis=0).tolist(), *drawn.max(axis=0).tolist()), size)

    x0, y0, x1, y1 = frame.bbox
    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
    )
    parts.append(
        f"  <!-- fixed viewport: world x in [{_fmt(x0)}, {_fmt(x1)}],"
        f" y in [{_fmt(y0)}, {_fmt(y1)}] mapped to {size}x{size} px,"
        f" y-axis pointing up -->\n"
    )
    parts.append(_STYLE)
    parts.append(f'  <rect width="{size}" height="{size}" fill="#ffffff"/>\n')
    parts.append(_conic_element(outer, "outer", frame, "outer conic"))
    for k, c in enumerate(caustics, start=1):
        parts.append(_conic_element(c, "caustic", frame, f"caustic {k}"))
    parts.append(_conic_element(envelope, "envelope", frame, "free-side envelope"))
    if len(tri):
        p1, p2, p3 = (frame.to_px(v) for v in tri.tolist())
        parts.append(
            f'  <path class="triangle" d="M {_fmt(p1[0])} {_fmt(p1[1])}'
            f" L {_fmt(p2[0])} {_fmt(p2[1])} L {_fmt(p3[0])} {_fmt(p3[1])} Z\">"
            f"<title>triangle at t={_SAMPLE_TRIANGLE_T}</title></path>\n"
        )
    for cid, xy in loci:
        parts.append(_locus_elements(xy, frame, "locus", f"locus of {cid}"))
    parts.append("</svg>\n")
    return "".join(parts)
