"""Minimal deterministic SVG rendering of exported intensity grids.

The CSV grid is the canonical output; these renderers exist so a run can
drop a quick visual next to it without pulling in a plotting stack.  All
coordinates and colors are formatted explicitly, so the same grid always
produces byte-identical SVG.
"""

from __future__ import annotations

from .io import GridExport, _write_lines

__all__ = ["render_grid_svg", "render_line_svg", "render_heatmap_svg"]

_W, _H = 640, 400
_MARGIN = 45


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _write_svg(path, body) -> None:
    _write_lines(path, [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        *body,
        "</svg>",
    ])


def render_line_svg(grid: GridExport, path) -> None:
    """Line plot of a 1-D grid (offset on x, intensity on y)."""
    xs = grid.axes[0].tolist()
    ys = grid.values.tolist()
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-12)
    px = _scale(xs, x_lo, x_hi, _MARGIN, _W - _MARGIN)
    py = _scale(ys, y_lo, y_hi, _H - _MARGIN, _MARGIN)
    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
    body = [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>',
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" font-size="11">{x_lo:.4g}</text>',
        f'<text x="{_W - _MARGIN - 20}" y="{_H - _MARGIN + 16}" font-size="11">{x_hi:.4g}</text>',
        f'<text x="4" y="{_MARGIN + 4}" font-size="11">{y_hi:.4g}</text>',
        f'<text x="4" y="{_H - _MARGIN}" font-size="11">0</text>',
    ]
    _write_svg(path, body)


def _heat_color(t: float) -> str:
    # two-stop ramp, dark blue to yellow
    t = min(max(t, 0.0), 1.0)
    r = int(13 + t * (240 - 13))
    g = int(8 + t * (249 - 8))
    b = int(135 + t * (33 - 135))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(grid: GridExport, path) -> None:
    """Heat map of a 2-D tensor grid export."""
    values = grid.values
    v_hi = max(float(values.max()), 1e-12)
    nx, ny = values.shape
    cell_w = (_W - 2 * _MARGIN) / nx
    cell_h = (_H - 2 * _MARGIN) / ny
    body = []
    for i in range(nx):
        for j in range(ny):
            px = _MARGIN + i * cell_w
            py = _H - _MARGIN - (j + 1) * cell_h
            body.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cell_w + 0.5)}" '
                f'height="{_fmt(cell_h + 0.5)}" fill="{_heat_color(values[i, j] / v_hi)}"/>'
            )
    body.append(f'<text x="4" y="14" font-size="11">max {v_hi:.4g}</text>')
    _write_svg(path, body)


def render_grid_svg(grid: GridExport, path) -> None:
    """Dispatch on grid dimensionality: line plot for 1-D, heat map for 2-D."""
    if len(grid.axes) == 2:
        render_heatmap_svg(grid, path)
    else:
        render_line_svg(grid, path)
