"""Microbenchmark of the output layer on one fixed run.

The run is the first series of the benchmark's seed 7 ``fleet-stop`` pool
(60 points, stopped at tau, three milestone markers), so the numbers are
those of the writers inside a ``fleet-stop`` op. Each writer's result is
also checked against its reference text. To keep the numbers:

    PYTHONPATH=src python -m pytest tests/test_output_speed.py \\
        --benchmark-json=out.json
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from curvecast.plotting import render_svg
from curvecast.reports import report_to_json

from oracles import naive_render_svg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

ROUNDS = 300


@pytest.fixture(scope="module")
def fleet_run():
    spec = dataclasses.replace(workloads.SPECS["fleet-stop"], pool=1)
    state, _, report, _, _ = workloads._run_one(workloads.make_items(spec, 7)[0])
    assert state.stopped and len(state.series) < 60
    markers = {"working": state.wposition, "prediction": state.pposition,
               "convergence": state.cposition}
    return state, report, markers


def test_render_svg_speed(benchmark, fleet_run):
    state, _, markers = fleet_run
    args = (state.trace, state.series)
    kwargs = {"selected": state.selected_trend, "markers": markers}
    svg = benchmark.pedantic(render_svg, args, kwargs, rounds=ROUNDS, warmup_rounds=10)
    assert svg == naive_render_svg(*args, **kwargs)


def test_report_to_json_speed(benchmark, fleet_run):
    _, report, _ = fleet_run
    text = benchmark.pedantic(report_to_json, (report,), rounds=ROUNDS, warmup_rounds=10)
    assert text == json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
