"""Deterministic SVG rendering of a run: observations, the selected trend,
its asymptote and the level milestones.

Each axis has one pixel formula. It scales the curve samples and the
observations as numpy arrays and every other coordinate as a float, with
the same operations in the same order, so every coordinate rounds exactly
as it would one at a time. The 257-point path is written by one ``%``
template and every other element by one f-string that formats its numbers
inline, all with ``.3f``, so identical inputs produce byte-identical files.
Marker labels are XML-escaped.
"""

from __future__ import annotations

import numpy as np

from .model import LearningTrend, ObservationSeries, eval_pattern
from .trace import LearningTrace

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 30.0, 30.0, 50.0
CURVE_SAMPLES = 256
TICKS = 5  # per axis, at both ends and evenly between

PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
BASE_Y = HEIGHT - MARGIN_B  # pixel row of the lowest accuracy shown

_SAMPLE_STEPS = np.arange(CURVE_SAMPLES + 1, dtype=float)
_PATH = "M%.3f,%.3f" + " L%.3f,%.3f" * CURVE_SAMPLES
_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
    f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
    f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>'
)


def _xml_text(text: str) -> str:
    """What ``xml.sax.saxutils.escape`` returns, without importing it: that
    module pulls in ``urllib`` and about 40 others, 6 MB and 70 ms."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo, hi):
    span = hi - lo or 1.0
    return [lo + span * i / (TICKS - 1) for i in range(TICKS)]


def render_svg(
    trace: LearningTrace,
    series: ObservationSeries,
    *,
    selected: LearningTrend | None = None,
    markers: dict[str, int] | None = None,
) -> str:
    """SVG document for a trace over its observations.

    ``markers`` maps labels to positions rendered as vertical guide lines;
    ``selected`` defaults to the trace's last trend.
    """
    if not trace.trends:
        raise ValueError("cannot plot an empty trace")
    trend = selected if selected is not None else trace.trends[trace.last_level]
    a, b, c = trend.params.a, trend.params.b, trend.params.c
    markers = markers or {}

    obs_x = series.positions.tolist()
    obs_y = series.accuracies.tolist()
    positions = obs_x + [t.position for t in trace.trends.values()]
    positions.extend(markers.values())
    x_hi = 1.1 * max(positions)
    x_span = x_hi or 1.0
    accuracies = obs_y + [c, eval_pattern(trend.params, positions[0])]
    y_lo = max(min(accuracies) - 1.0, 0.0)
    y_hi = min(max(accuracies) + 1.0, 102.0)
    y_span = y_hi - y_lo or 1.0

    def px(v):
        return MARGIN_L + v / x_span * PLOT_W

    def py(v):
        return BASE_Y - (v - y_lo) / y_span * PLOT_H

    x_right, y_top = px(x_hi), py(y_hi)
    parts = [
        _HEAD,
        f'<line class="axis" x1="{MARGIN_L:.3f}" y1="{BASE_Y:.3f}" '
        f'x2="{x_right:.3f}" y2="{BASE_Y:.3f}" stroke="#000000"/>',
        f'<line class="axis" x1="{MARGIN_L:.3f}" y1="{BASE_Y:.3f}" '
        f'x2="{MARGIN_L:.3f}" y2="{y_top:.3f}" stroke="#000000"/>',
    ]
    for tick in _ticks(0.0, x_hi):
        tx = px(tick)
        parts.append(
            f'<line class="tick" x1="{tx:.3f}" y1="{BASE_Y:.3f}" '
            f'x2="{tx:.3f}" y2="{BASE_Y + 5:.3f}" stroke="#000000"/>\n'
            f'<text class="tick-label" x="{tx:.3f}" y="{BASE_Y + 18:.3f}" '
            f'font-size="11" text-anchor="middle">{tick:.0f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line class="tick" x1="{MARGIN_L - 5:.3f}" y1="{ty:.3f}" '
            f'x2="{MARGIN_L:.3f}" y2="{ty:.3f}" stroke="#000000"/>\n'
            f'<text class="tick-label" x="{MARGIN_L - 8:.3f}" y="{ty + 4:.3f}" '
            f'font-size="11" text-anchor="end">{tick:.2f}</text>'
        )

    # asymptote of the selected trend
    ay = py(min(max(c, y_lo), y_hi))
    parts.append(
        f'<line class="asymptote" x1="{MARGIN_L:.3f}" y1="{ay:.3f}" '
        f'x2="{x_right:.3f}" y2="{ay:.3f}" stroke="#888888" '
        'stroke-dasharray="6,4"/>'
    )

    # selected trend curve; the power is taken per float, as eval_pattern
    # does, so each sample is the scalar value bit for bit
    x_start = max(positions[0], 1.0)
    xs = x_start + (x_hi - x_start) * _SAMPLE_STEPS / CURVE_SAMPLES
    ys = np.array([c - a * x ** -b for x in xs.tolist()])
    path = np.empty(2 * CURVE_SAMPLES + 2)
    path[0::2] = px(xs)
    path[1::2] = py(np.minimum(np.maximum(ys, y_lo), y_hi))
    parts.append(
        f'<path class="trend" d="{_PATH % tuple(path.tolist())}" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>'
    )

    # observations
    cx = px(np.array(obs_x, dtype=float))
    cy = py(np.minimum(np.maximum(obs_y, y_lo), y_hi))
    parts.extend(
        f'<circle class="obs" cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#d62728"/>'
        for x, y in zip(cx.tolist(), cy.tolist())
    )

    # level markers
    for label, position in markers.items():
        mx = px(position)
        parts.append(
            f'<line class="marker" x1="{mx:.3f}" y1="{BASE_Y:.3f}" '
            f'x2="{mx:.3f}" y2="{y_top:.3f}" stroke="#2ca02c" '
            'stroke-dasharray="2,3"/>\n'
            f'<text class="marker-label" x="{mx + 3:.3f}" '
            f'y="{y_top + 12:.3f}" font-size="11">{_xml_text(label)}</text>'
        )

    parts.append("</svg>\n")
    return "\n".join(parts)
