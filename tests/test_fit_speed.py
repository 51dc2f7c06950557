"""Microbenchmark of ``fit_power_law`` on one prefix fit as a run makes it,
and of the ``ingest`` call around it.

The series is the first of the benchmark's seed 7 ``stream-long`` pool (a
steep curve, Gaussian noise of sigma 0.05). Each fit case fits its first
``n`` points warm-started from the trend of the prefix one shorter, as
``extend_trace`` does. The anchored case also takes that trend's asymptote
as its anchor, as the canonical chain does past the working level. The
ingest case feeds point ``n`` to a copy of the ``stream-long`` run (canonical
anchors, tau 0) that holds the first ``n - 1``, on a series with room to
append in place, as a stream grows it. To keep the numbers:

    PYTHONPATH=src python -m pytest tests/test_fit_speed.py \\
        --benchmark-json=out.json
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from curvecast import controller
from curvecast.fitting import fit_power_law
from curvecast.model import ObservationSeries
from curvecast.trace import LearningTrace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

ROUNDS = 1000


@pytest.fixture(scope="module")
def item():
    spec = dataclasses.replace(workloads.SPECS["stream-long"], pool=1)
    return workloads.make_items(spec, 7)[0]


@pytest.fixture(scope="module")
def series(item):
    return item.series


@pytest.mark.parametrize("anchored", [False, True], ids=["plain", "anchored"])
@pytest.mark.parametrize("n", [60, 1000])
def test_fit_speed(benchmark, series, n, anchored):
    base = fit_power_law(series.prefix(n - 2))
    anchor = base.params.c if anchored else None
    previous = fit_power_law(series.prefix(n - 1), anchor, start_b=base.params.b)
    anchor = previous.params.c if anchored else None
    prefix = series.prefix(n)
    trend = benchmark.pedantic(fit_power_law, (prefix, anchor), {"start_b": previous.params.b},
                               rounds=ROUNDS, warmup_rounds=20)
    assert trend.converged and trend.level == n
    assert (trend.anchor_residual is not None) == anchored
    assert trend == fit_power_law(prefix, anchor, start_b=previous.params.b)


@pytest.mark.parametrize("n", [60, 1000])
def test_ingest_speed(benchmark, item, n):
    config, series = item.config, item.series
    points = series.points
    before = controller.run_stream(config, points[:n - 1])
    assert before.wlevel is not None and not before.stopped

    def fresh_run():
        # The first n - 2 points copied, then one appended: the copy has room
        # for the timed append, as a growing stream's buffer does.
        grown = ObservationSeries(points[:n - 2])
        state = controller.RunState(
            config=config, series=grown.with_point(points[n - 2]),
            trace=LearningTrace(dict(before.trace.trends)), wlevel=before.wlevel,
            plevel=before.plevel, clevel=before.clevel)
        return (state, points[n - 1]), {}

    state = benchmark.pedantic(controller.ingest, setup=fresh_run, rounds=ROUNDS,
                               warmup_rounds=20)
    assert state.trace.last_level == n
    assert state.trace.trends[n] == controller.run_stream(config, points[:n]).trace.trends[n]
