"""Hand-emitted SVG band diagrams.

Fixed 900x600 viewport, linear axes, energy range auto-fit with a 5%
margin.  Detected gaps appear as gray rectangles spanning the plot width;
tour vertices are marked and labeled on the horizontal axis.  Output is
deterministic byte-for-byte for identical input.  Energies whose axis
float64 cannot tick (its span overflows, or a tick step is below the
spacing of floats there) raise PlotError.
"""

from __future__ import annotations

import math

from .bands import BandStructure

WIDTH = 900
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 25
MARGIN_TOP = 30
MARGIN_BOTTOM = 45

BAND_COLOR = "#0b5394"
GAP_COLOR = "#cccccc"
GRID_COLOR = "#999999"
FONT = 'font-family="Helvetica, Arial, sans-serif"'


class PlotError(ArithmeticError):
    """Energies whose range the diagram's axis cannot show."""


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _nice_ticks(lo: float, hi: float, target: int = 6):
    """Ticks at a round step over [lo, hi], and the decimals they need;
    None if the span overflows or the step is below the spacing of floats
    at the larger of |lo| and |hi|."""
    raw = (hi - lo) / target
    if not 0.0 < raw < math.inf:
        return None
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    if step < math.ulp(max(abs(lo), abs(hi))):  # t += step could stall
        return None
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(t)
        t += step
    decimals = max(0, -math.floor(math.log10(step)))
    return ticks, decimals


def render_bands(bs: BandStructure, gaps) -> str:
    """Render a band structure plus its gap report as an SVG document."""
    arcs = bs.path.arc_distances
    energies = bs.energies
    arc_max = float(arcs[-1]) if arcs[-1] > 0 else 1.0
    e_lo = float(energies.min())
    e_hi = float(energies.max())
    span = e_hi - e_lo
    if span == 0.0:
        span = 1.0
        e_lo -= 0.5
    e_lo -= 0.05 * span
    e_hi = e_lo + 1.1 * span
    axis = _nice_ticks(e_lo, e_hi)
    if axis is None:
        raise PlotError(
            f"cannot plot energies from {float(energies.min()):.6g} to "
            f"{float(energies.max()):.6g} eV: no float64 tick step fits "
            "that axis")

    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def sx(arc: float) -> float:
        return x0 + (x1 - x0) * arc / arc_max

    def sy(e: float) -> float:
        return y1 - (y1 - y0) * (e - e_lo) / (e_hi - e_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    for gap in gaps:
        top = sy(gap.gap_top)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(sy(gap.gap_bottom) - top)}" fill="{GAP_COLOR}"/>')

    ticks, decimals = axis
    for t in ticks:
        y = sy(t)
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>')
        label = f"{t:.{decimals}f}"
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y + 4)}" {FONT} '
            f'font-size="13" text-anchor="end">{label}</text>')

    for label, coord in _vertex_marks(bs):
        x = sx(coord)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y1)}" stroke="{GRID_COLOR}" stroke-width="1" '
            f'stroke-dasharray="4,4"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y1 + 22)}" {FONT} font-size="15" '
            f'text-anchor="middle">{label}</text>')

    for band in range(bs.num_bands):
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(e))}"
                       for a, e in zip(arcs, energies[:, band]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{BAND_COLOR}" '
            f'stroke-width="1.2"/>')

    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}" fill="none" stroke="#000000" '
        f'stroke-width="1"/>')
    parts.append(
        f'<text x="18" y="{_fmt((y0 + y1) / 2)}" {FONT} font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 {_fmt((y0 + y1) / 2)})">'
        f'E (eV)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _vertex_marks(bs: BandStructure):
    marks = []
    for point in bs.path.points:
        if point.label is not None:
            marks.append((point.label, float(point.arc_distance)))
    return marks
