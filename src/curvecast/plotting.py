"""Deterministic SVG rendering of a run: observations, the selected trend,
its asymptote and the level milestones.

Output is plain string assembly with fixed float formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from .model import LearningTrend, ObservationSeries, eval_pattern
from .trace import LearningTrace

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 30.0, 30.0, 50.0
CURVE_SAMPLES = 256


def _fmt(value: float) -> str:
    return f"{value:.3f}"


class _Scale:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def x(self, v):
        span = self.x1 - self.x0 or 1.0
        return MARGIN_L + (v - self.x0) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v):
        span = self.y1 - self.y0 or 1.0
        return HEIGHT - MARGIN_B - (v - self.y0) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _ticks(lo, hi, count=5):
    span = hi - lo or 1.0
    return [lo + span * i / (count - 1) for i in range(count)]


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
    trend = selected if selected is not None else trace.trends[max(trace.trends)]
    markers = markers or {}

    positions = [p.position for p in series.points]
    positions.extend(t.position for t in trace.trends.values())
    positions.extend(markers.values())
    x_lo, x_hi = 0.0, 1.1 * max(positions)
    accuracies = [p.accuracy for p in series.points]
    accuracies.append(trend.params.c)
    accuracies.append(eval_pattern(trend.params, positions[0]))
    y_lo = max(min(accuracies) - 1.0, 0.0)
    y_hi = min(max(accuracies) + 1.0, 102.0)
    scale = _Scale((x_lo, x_hi), (y_lo, y_hi))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]

    # axes with ticks
    x_axis_y = scale.y(y_lo)
    y_axis_x = scale.x(x_lo)
    parts.append(
        f'<line class="axis" x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(scale.x(x_hi))}" y2="{_fmt(x_axis_y)}" stroke="#000000"/>'
    )
    parts.append(
        f'<line class="axis" x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(y_axis_x)}" y2="{_fmt(scale.y(y_hi))}" stroke="#000000"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        tx = scale.x(tick)
        parts.append(
            f'<line class="tick" x1="{_fmt(tx)}" y1="{_fmt(x_axis_y)}" '
            f'x2="{_fmt(tx)}" y2="{_fmt(x_axis_y + 5)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_fmt(tx)}" y="{_fmt(x_axis_y + 18)}" '
            f'font-size="11" text-anchor="middle">{tick:.0f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        ty = scale.y(tick)
        parts.append(
            f'<line class="tick" x1="{_fmt(y_axis_x - 5)}" y1="{_fmt(ty)}" '
            f'x2="{_fmt(y_axis_x)}" y2="{_fmt(ty)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_fmt(y_axis_x - 8)}" y="{_fmt(ty + 4)}" '
            f'font-size="11" text-anchor="end">{tick:.2f}</text>'
        )

    # asymptote of the selected trend
    ay = scale.y(min(max(trend.params.c, y_lo), y_hi))
    parts.append(
        f'<line class="asymptote" x1="{_fmt(y_axis_x)}" y1="{_fmt(ay)}" '
        f'x2="{_fmt(scale.x(x_hi))}" y2="{_fmt(ay)}" stroke="#888888" '
        'stroke-dasharray="6,4"/>'
    )

    # selected trend curve
    x_start = max(positions[0], 1.0)
    path = []
    for i in range(CURVE_SAMPLES + 1):
        x = x_start + (x_hi - x_start) * i / CURVE_SAMPLES
        y = eval_pattern(trend.params, x)
        y = min(max(y, y_lo), y_hi)
        cmd = "M" if i == 0 else "L"
        path.append(f"{cmd}{_fmt(scale.x(x))},{_fmt(scale.y(y))}")
    parts.append(
        f'<path class="trend" d="{" ".join(path)}" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>'
    )

    # observations
    for p in series.points:
        parts.append(
            f'<circle class="obs" cx="{_fmt(scale.x(p.position))}" '
            f'cy="{_fmt(scale.y(min(max(p.accuracy, y_lo), y_hi)))}" r="2.5" '
            'fill="#d62728"/>'
        )

    # level markers
    for label, position in markers.items():
        mx = scale.x(position)
        parts.append(
            f'<line class="marker" x1="{_fmt(mx)}" y1="{_fmt(x_axis_y)}" '
            f'x2="{_fmt(mx)}" y2="{_fmt(scale.y(y_hi))}" stroke="#2ca02c" '
            'stroke-dasharray="2,3"/>'
        )
        parts.append(
            f'<text class="marker-label" x="{_fmt(mx + 3)}" '
            f'y="{_fmt(scale.y(y_hi) + 12)}" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(trace, series, path, *, selected=None, markers=None) -> None:
    """Write the SVG to ``path``; byte-identical for identical inputs."""
    svg = render_svg(trace, series, selected=selected, markers=markers)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
