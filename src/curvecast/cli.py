"""Command-line interface.

Subcommands: ``fit`` (one-off prefix fit), ``run`` (full run with stopping),
``evaluate`` (reliability metrics over finished runs) and ``simulate``
(synthetic series and convergence checks). ``run --plot`` marks the
levels the report flags, at their positions. ``simulate`` checks its whole
spec before it writes anything: a seed below 0, a curve that is not an
accuracy on its schedule, and bumps that the schedule cannot all place at
or below ``MAXPOS`` are input errors.

Exit codes: 0 success, 1 failed checks, 2 input/parse error, 3 run never
reached the convergence level, 4 fit failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .anchoring import AnchorPolicy
from .controller import RunConfig, run_stream
from .fitting import fit_power_law
from .levels import LevelParams
from .metrics import ControlSequence, evaluate_runs
from .model import ObservationSeries, PowerLawParams, eval_pattern
from .plotting import render_svg
from .reports import (
    build_run_report,
    format_observations,
    metrics_report_to_dict,
    read_observations,
    report_to_csv,
    report_to_json,
)
from .synth import NoiseSpec, SynthSpec, TheoremSuiteConfig, generate_series, theorem_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CLEVEL = 3
EXIT_FIT_FAILURE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecast",
        description="Learning-curve prediction: fit trends, detect convergence, score estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one prefix and print the parameters")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--level", type=int, default=None,
                       help="number of observations to use (default: all)")

    p_run = sub.add_parser("run", help="consume a series and stop at convergence")
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--tau", type=float, required=True)
    p_run.add_argument("--nu", type=float, default=LevelParams.nu)
    p_run.add_argument("--slowdown", type=int, default=LevelParams.slowdown)
    p_run.add_argument("--lookahead", type=int, default=LevelParams.lookahead)
    p_run.add_argument("--anchors", choices=["none", "canonical"], default=AnchorPolicy.mode)
    p_run.add_argument("--end-position", type=int, default=None)
    p_run.add_argument("--predict-at", default=None,
                       help="comma-separated positions to estimate")
    p_run.add_argument("--format", choices=["json", "csv"], default="json")
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--plot", default=None, help="write an SVG view here")

    p_eval = sub.add_parser("evaluate", help="score finished runs on control positions")
    p_eval.add_argument("--runs", required=True, help="comma-separated run report files")
    p_eval.add_argument("--truth", required=True,
                        help="comma-separated observation files, one per run")
    p_eval.add_argument("--controls", required=True,
                        help="comma-separated control positions")

    p_sim = sub.add_parser("simulate", help="generate a synthetic series")
    p_sim.add_argument("--a", type=float, required=True)
    p_sim.add_argument("--b", type=float, required=True)
    p_sim.add_argument("--c", type=float, required=True)
    p_sim.add_argument("--noise", default="none",
                       help="none | gaussian:SIGMA | bumps:MAGNITUDE:COUNT[:MAXPOS]")
    p_sim.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_sim.add_argument("--kernel", type=int, default=SynthSpec.kernel)
    p_sim.add_argument("--step", type=int, default=SynthSpec.step)
    p_sim.add_argument("--count", type=int, default=SynthSpec.count)
    p_sim.add_argument("--theorems", action="store_true",
                       help="run the convergence checks instead of printing the series")
    return parser


def _parse_noise(text: str) -> NoiseSpec:
    parts = text.split(":")
    kind = parts[0]
    if kind == "none":
        return NoiseSpec()
    if kind == "gaussian":
        if len(parts) != 2:
            raise ValueError("gaussian noise needs a sigma, e.g. gaussian:0.05")
        return NoiseSpec("gaussian", sigma=float(parts[1]))
    if kind == "bumps":
        if len(parts) not in (3, 4):
            raise ValueError("bumps noise is bumps:MAGNITUDE:COUNT[:MAXPOS]")
        max_position = int(parts[3]) if len(parts) == 4 else NoiseSpec.max_position
        return NoiseSpec("bumps", magnitude=float(parts[1]), count=int(parts[2]),
                         max_position=max_position)
    raise ValueError(f"unknown noise kind {kind!r}")


def _cmd_fit(args) -> int:
    series = ObservationSeries(read_observations(args.input))
    level = args.level if args.level is not None else len(series)
    result = fit_power_law(series.prefix(level))
    payload = {
        "level": level,
        "a": result.params.a,
        "b": result.params.b,
        "c": result.params.c,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_cost": result.final_cost,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if result.converged else EXIT_FIT_FAILURE


def _parse_positions(text: str | None) -> list[float]:
    """Comma-separated positions, each finite and > 0."""
    positions = [float(v) for v in (text or "").split(",") if v.strip()]
    for value in positions:
        if not 0 < value < math.inf:
            raise ValueError(f"positions must be finite and > 0, got {value}")
    return positions


def _cmd_run(args) -> int:
    observations = read_observations(args.input)
    positions = _parse_positions(args.predict_at)
    config = RunConfig(
        tau=args.tau,
        level_params=LevelParams(nu=args.nu, slowdown=args.slowdown,
                                 lookahead=args.lookahead),
        anchor_policy=AnchorPolicy(mode=args.anchors),
        end_position=args.end_position,
    )
    state = run_stream(config, observations)
    report = build_run_report(state, predict_at=positions)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    # The plot is written first: a plot path that cannot be written fails
    # the command before any of the report is. Its markers are the report's
    # level flags. A log too short for a trend has nothing to plot.
    if args.plot and not state.trace.trends:
        print("no trend to plot", file=sys.stderr)
    elif args.plot:
        markers = {flag: row["position"] for row in report["levels"] for flag in row["flags"]}
        svg = render_svg(state.trace, state.series, selected=state.selected_trend,
                         markers=markers)
        Path(args.plot).write_text(svg, encoding="utf-8")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK if state.stopped else EXIT_NO_CLEVEL


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _selected_row(name: str, report) -> tuple[dict, list, dict]:
    """(summary, level rows, row of the convergence level) of a loaded run
    report; raises ValueError naming the run when a part is missing."""
    summary = report.get("summary") if isinstance(report, dict) else None
    if not isinstance(summary, dict):
        raise ValueError(f"run {name!r}: report has no summary")
    rows = report.get("levels")
    if not isinstance(rows, list):
        raise ValueError(f"run {name!r}: report has no levels")
    clevel = summary.get("clevel")
    if not summary.get("stopped") or clevel is None:
        raise ValueError(f"run {name!r} never reached its convergence level")
    if "wlevel" not in summary:
        raise ValueError(f"run {name!r}: summary has no wlevel")
    wlevel = summary["wlevel"]
    # JSON true and false load as bools, which isinstance counts as ints.
    if type(clevel) is not int or not (wlevel is None or type(wlevel) is int):
        raise ValueError(f"run {name!r}: summary levels are not integers")
    for index, row in enumerate(rows):
        if not (isinstance(row, dict) and type(row.get("level")) is int
                and _is_number(row.get("c"))
                and isinstance(row.get("converged"), bool)):
            raise ValueError(f"run {name!r}: level row {index} lacks level, c "
                             "or converged")
    for row in rows:
        if row["level"] == clevel:
            if not all(_is_number(row.get(k)) for k in ("a", "b", "c")):
                raise ValueError(f"run {name!r}: level {clevel} lacks its parameters")
            return summary, rows, row
    raise ValueError(f"run {name!r}: no level row matches clevel {clevel}")


def _cmd_evaluate(args) -> int:
    run_paths = [p for p in args.runs.split(",") if p]
    truth_paths = [p for p in args.truth.split(",") if p]
    controls = [int(v) for v in args.controls.split(",") if v.strip()]
    if len(run_paths) != len(truth_paths):
        raise ValueError("need exactly one truth file per run report")
    if len(run_paths) < 1:
        raise ValueError("need at least one run")
    names = [Path(p).stem for p in run_paths]
    if len(set(names)) != len(names):
        raise ValueError("run report file names must be distinct")

    pairs_by_run: dict[str, tuple] = {}
    segments: dict[str, list[float]] = {}
    for name, run_path, truth_path in zip(names, run_paths, truth_paths):
        with open(run_path, encoding="utf-8") as fh:
            report = json.load(fh)
        summary, rows, selected = _selected_row(name, report)
        params = PowerLawParams(selected["a"], selected["b"], selected["c"])
        truth_map = {obs.position: obs.accuracy for obs in read_observations(truth_path)}
        missing = [c for c in controls if c not in truth_map]
        if missing:
            raise ValueError(f"truth for {name!r} lacks control positions {missing}")
        pairs_by_run[name] = tuple(
            (truth_map[c], eval_pattern(params, c)) for c in controls
        )
        if summary["wlevel"] is not None:
            segments[name] = [
                row["c"] for row in rows
                if summary["wlevel"] <= row["level"] <= summary["clevel"]
                and row["converged"]
            ]
    sequence = ControlSequence(positions=tuple(controls), runs=pairs_by_run)
    metrics = evaluate_runs(sequence, backbone_segments=segments)
    print(json.dumps(metrics_report_to_dict(metrics), indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = SynthSpec(
        true_params=PowerLawParams(args.a, args.b, args.c),
        kernel=args.kernel,
        step=args.step,
        count=args.count,
        noise=_parse_noise(args.noise),
        seed=args.seed,
    )
    series = generate_series(spec)
    if not args.theorems:
        sys.stdout.write(format_observations(series))
        return EXIT_OK
    budget = 0.0 if spec.noise.kind == "none" else 0.05
    band = 0.0 if spec.noise.kind == "none" else 0.1
    report = theorem_suite(series, TheoremSuiteConfig(
        true_params=spec.true_params,
        violation_budget=budget,
        monotone_tolerance=band,
    ))
    payload = {
        "all_passed": report.all_passed,
        "checks": {
            name: {"passed": res.passed, "violations": res.violations,
                   "checks": res.checks, "detail": res.detail}
            for name, res in report.results.items()
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "run": _cmd_run,
        "evaluate": _cmd_evaluate,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
