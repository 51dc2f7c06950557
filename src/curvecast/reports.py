"""Observation files, run reports and their serialization.

Observation files are UTF-8 CSV with a ``position,accuracy`` header and
dot-decimal values, positions strictly ascending. Reports serialize
deterministically: insertion-ordered keys and values displayed with six
decimal digits (full precision lives in the in-memory objects only).
"""

from __future__ import annotations

import csv
import io
import json
from importlib import resources
from typing import Iterable

from .controller import RunConfig, RunState, predict, stopping_layer
from .metrics import MetricsReport
from .model import Observation, ObservationSeries
from .trace import convergence_layer, convergence_layer_bounded

DISPLAY_DECIMALS = 6


class ObservationFileError(ValueError):
    """Malformed observation file."""


def parse_observations(text: str) -> ObservationSeries:
    """Parse CSV text into a series; rejects unsorted or duplicate
    positions and out-of-range accuracies."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip().lower() for c in rows[0]] != ["position", "accuracy"]:
        raise ObservationFileError("expected header 'position,accuracy'")
    points = []
    last_position = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ObservationFileError(f"line {lineno}: expected two columns")
        try:
            position = int(row[0].strip())
            accuracy = float(row[1].strip())
        except ValueError as exc:
            raise ObservationFileError(f"line {lineno}: {exc}") from exc
        if position <= last_position:
            raise ObservationFileError(
                f"line {lineno}: position {position} not greater than {last_position}"
            )
        if not 0.0 < accuracy <= 100.0:
            raise ObservationFileError(
                f"line {lineno}: accuracy {accuracy} outside (0, 100]"
            )
        points.append(Observation(position, accuracy))
        last_position = position
    return ObservationSeries.from_points(points)


def read_observations(path) -> ObservationSeries:
    with open(path, encoding="utf-8") as fh:
        return parse_observations(fh.read())


def format_observations(series: ObservationSeries) -> str:
    lines = ["position,accuracy"]
    lines.extend(
        f"{p.position},{p.accuracy:.{DISPLAY_DECIMALS}f}" for p in series.points
    )
    return "\n".join(lines) + "\n"


def write_observations(series: ObservationSeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_observations(series))


def _disp(value):
    """Six-decimal display of a float; None and ints pass through."""
    if value is None or isinstance(value, int):
        return value
    return round(float(value), DISPLAY_DECIMALS)


def _config_block(config: RunConfig) -> dict:
    return {
        "tau": _disp(config.tau),
        "nu": config.level_params.nu,
        "slowdown": config.level_params.slowdown,
        "lookahead": config.level_params.lookahead,
        "anchors": config.anchor_policy.mode,
        "anchor_mode": config.anchor_policy.representation,
        "anchor_x": config.anchor_policy.finite_x,
        "end_position": config.end_position,
    }


def build_run_report(state: RunState, predict_at: Iterable[float] = ()) -> dict:
    """Structured report of a finished (or exhausted) run."""
    trace = state.trace
    level_rows = []
    for level in trace.levels():
        trend = trace.trends[level]
        flags = []
        if level == state.wlevel:
            flags.append("working")
        if level == state.plevel:
            flags.append("prediction")
        if level == state.clevel:
            flags.append("convergence")
        bounded = None
        if state.config.end_position is not None and state.config.end_position > trend.position:
            bounded = convergence_layer_bounded(trend, state.config.end_position)
        level_rows.append({
            "level": level,
            "position": trend.position,
            "a": _disp(trend.params.a),
            "b": _disp(trend.params.b),
            "c": _disp(trend.params.c),
            "alpha": _disp(trend.params.c),
            "layer": _disp(convergence_layer(trend)),
            "layer_bounded": _disp(bounded),
            "anchored": trend.anchor_residual is not None,
            "converged": trend.converged,
            "flags": flags,
        })
    summary = {
        "wlevel": state.wlevel,
        "wposition": state.wposition,
        "plevel": state.plevel,
        "pposition": state.pposition,
        "clevel": state.clevel,
        "cposition": state.cposition,
        "tau": _disp(state.config.tau),
        "stopped": state.stopped,
        "asymptote": _disp(state.selected_trend.params.c) if state.selected_trend else None,
        "predicted_accuracy_at": {
            _position_key(p): _disp(predict(state, p)) for p in predict_at
        } if state.stopped else {},
    }
    if state.stopped:
        summary["stopping_layer"] = _disp(
            stopping_layer(state.selected_trend, state.config.end_position)
        )
    return {
        "config": _config_block(state.config),
        "levels": level_rows,
        "summary": summary,
    }


def _position_key(position: float) -> str:
    return str(int(position)) if float(position).is_integer() else repr(float(position))


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def report_to_csv(report: dict) -> str:
    """Flatten the per-level records; the summary is JSON-only."""
    columns = ["level", "position", "a", "b", "c", "alpha", "layer",
               "layer_bounded", "anchored", "converged", "flags"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in report["levels"]:
        record = dict(row, flags="|".join(row["flags"]))
        writer.writerow([record[c] if record[c] is not None else "" for c in columns])
    return out.getvalue()


def metrics_report_to_dict(report: MetricsReport) -> dict:
    runs = {}
    for name in sorted(report.mape):
        entry = {
            "pe": [_disp(v) for v in report.pe[name]],
            "mape": _disp(report.mape[name]),
        }
        if name in report.dmr:
            entry["dmr"] = _disp(report.dmr[name])
        if name in report.rr:
            entry["rr"] = _disp(report.rr[name])
        runs[name] = entry
    return {
        "controls": list(report.positions),
        "runs": runs,
        "rer": {f"{a}|{b}": _disp(v) for (a, b), v in sorted(report.rer.items())},
    }


def load_report_schema() -> dict:
    """JSON schema the run report validates against."""
    with resources.files("curvecast").joinpath("data/run_report_schema.json").open(
        encoding="utf-8"
    ) as fh:
        return json.load(fh)
