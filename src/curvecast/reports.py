"""Observation files, run reports and their serialization.

Observation files are UTF-8 CSV, with or without a byte-order mark, with a
``position,accuracy`` header and dot-decimal values, positions strictly
ascending. Reports serialize deterministically: insertion-ordered keys and
values displayed with six decimal digits (full precision lives in the
in-memory objects only). The JSON text equals ``json.dumps(report,
indent=2)`` byte for byte: the stdlib writes every block but the level rows,
which are assembled from one C-encoder call, since CPython indents only
with its pure-Python encoder.
"""

from __future__ import annotations

import csv
import io
import json
from importlib import resources
from json.encoder import encode_basestring
from typing import Iterable

from .controller import RunConfig, RunState, predict, stopping_layer
from .metrics import MetricsReport
from .model import Observation, ObservationSeries
from .trace import convergence_layer, convergence_layer_bounded

DISPLAY_DECIMALS = 6


class ObservationFileError(ValueError):
    """Malformed observation file."""


def parse_observations(text: str) -> tuple[Observation, ...]:
    """Parse CSV text into the observations, each checked and in order;
    rejects unsorted or duplicate positions and out-of-range accuracies,
    naming the line."""
    reader = csv.reader(io.StringIO(text))
    # Blank rows are skipped, so each row keeps the file line it ends on.
    rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows or [c.strip().lower() for c in rows[0][1]] != ["position", "accuracy"]:
        raise ObservationFileError("expected header 'position,accuracy'")
    points = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ObservationFileError(f"line {lineno}: expected two columns")
        try:
            point = Observation(int(row[0].strip()), float(row[1].strip()))
        except ValueError as exc:
            raise ObservationFileError(f"line {lineno}: {exc}") from exc
        if points and point.position <= points[-1].position:
            raise ObservationFileError(f"line {lineno}: position {point.position} "
                                       f"not greater than {points[-1].position}")
        points.append(point)
    return tuple(points)


def read_observations(path) -> tuple[Observation, ...]:
    # utf-8-sig drops the byte-order mark spreadsheet programs may write.
    with open(path, encoding="utf-8-sig") as fh:
        return parse_observations(fh.read())


def format_observations(series: ObservationSeries) -> str:
    lines = ["position,accuracy"]
    lines.extend(
        f"{position},{accuracy:.{DISPLAY_DECIMALS}f}"
        for position, accuracy in zip(series.positions.tolist(), series.accuracies.tolist())
    )
    return "\n".join(lines) + "\n"


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
        "end_position": config.end_position,
    }


def build_run_report(state: RunState, predict_at: Iterable[float] = ()) -> dict:
    """Structured report of a finished (or exhausted) run.

    A level row's ``layer_bounded`` is the level's
    :func:`~curvecast.trace.convergence_layer_bounded`, null where no
    horizon lies ahead of the level; a stopped run's summary adds the
    selected level's :func:`~curvecast.controller.stopping_layer`, which
    is that row's ``layer_bounded``, or its ``layer`` where that is null.
    """
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
        level_rows.append({
            "level": level,
            "position": trend.position,
            "a": _disp(trend.params.a),
            "b": _disp(trend.params.b),
            "c": _disp(trend.params.c),
            "layer": _disp(convergence_layer(trend)),
            "layer_bounded": _disp(convergence_layer_bounded(trend, state.config.end_position)),
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


# Writes the level rows' leaves, all in one call.
_LEAF_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
# ``json.dumps(indent=2, ensure_ascii=False, allow_nan=False)``, built once.
_INDENTED = json.JSONEncoder(indent=2, ensure_ascii=False, allow_nan=False)


def _level_rows_text(rows: list) -> str:
    """The ``levels`` list at depth 1, the one block not written by the
    stdlib's indenting encoder. Every row has the same keys, and every value
    but the last (``flags``) is an int, float, bool or None, so one
    C-encoder call writes all those leaves and ``", "`` splits its output
    back into them; a ``%s`` template per row puts them in place. A
    ``flags`` value is ``[]`` where it is an empty list and the stdlib's
    text, re-indented to its depth, otherwise."""
    if not rows:
        return "[]"
    names = tuple(rows[0])
    row_template = "{\n      " + ",\n      ".join(
        encode_basestring(k).replace("%", "%%") + ": %s" for k in names) + "\n    }"
    scalars, lasts = [], []
    for row in rows:
        if tuple(row) != names:
            raise ValueError("level rows differ in their keys")
        *leading, last = row.values()
        scalars += leading
        lasts.append("[]" if isinstance(last, list) and not last
                     else _INDENTED.encode(last).replace("\n", "\n      "))
    leaves = _LEAF_ENCODER.encode(scalars)[1:-1].split(", ")
    width = len(names) - 1
    if len(leaves) != width * len(rows):
        raise ValueError("a level row holds a value that is not a number, bool or null")
    pieces = []
    for i, last in enumerate(lasts):
        pieces += leaves[i * width:(i + 1) * width]
        pieces.append(last)
    return "[\n    " + ",\n    ".join([row_template] * len(rows)) % tuple(pieces) + "\n  ]"


def report_to_json(report: dict) -> str:
    """Strict JSON of a run report: byte for byte ``json.dumps(report,
    indent=2, ensure_ascii=False, allow_nan=False) + "\\n"``. A non-finite
    value raises ``ValueError`` instead of being written, and a value JSON
    cannot hold raises ``TypeError``, as ``json.dumps`` does. A ``levels``
    list whose rows differ in their keys, or hold anything but a number,
    bool or null before their last value, raises ``ValueError``.

    The stdlib writes every block but the ``levels`` list, each as a
    one-entry dict whose braces are cut off, so the block sits at its own
    depth and its key is written as the stdlib writes any key. CPython
    indents only with its pure-Python encoder, which is slow on the many
    level rows, so :func:`_level_rows_text` writes those from one C-encoder
    call.
    """
    items = [
        (encode_basestring(key) + ": " + _level_rows_text(value))
        if key == "levels" and isinstance(value, list)
        else _INDENTED.encode({key: value})[4:-2]
        for key, value in report.items()
    ]
    return "{\n  " + ",\n  ".join(items) + "\n}\n" if items else "{}\n"


def report_to_csv(report: dict) -> str:
    """Flatten the per-level records; the summary is JSON-only."""
    columns = ["level", "position", "a", "b", "c", "layer",
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
