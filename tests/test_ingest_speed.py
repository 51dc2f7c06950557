"""Microbenchmark of a run's ingests near n = 60.

``test_run_to_stop_speed`` times one 60-point run ingested until it stops,
with no report or plot: what ``fleet-stop`` does per series before its
output. ``test_newest_working_level_speed`` times the working-level check on
a 20-level trace: it collects the newest window's converged levels and
hands them to ``working_level``, which reads every slope when the window
fails only at its oldest slope ("noisy") and when every slope passes
("exact"). To keep the numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        tests/test_ingest_speed.py --benchmark-json=out.json
"""

import pytest

from curvecast.anchoring import AnchorPolicy
from curvecast.controller import RunConfig, _newest_working_level, ingest, new_run
from curvecast.levels import LevelParams
from curvecast.model import ObservationSeries, PowerLawParams
from curvecast.synth import NoiseSpec, SynthSpec, generate_series
from curvecast.trace import LearningTrace, extend_trace

# A curve of the benchmark's "steep" regime, and its series' kernel = step.
TRUE = PowerLawParams(a=650.0, b=0.42, c=95.0)
KERNEL = 5000
# tau is the true layer at the 25th observation, as in the benchmark.
TAU = TRUE.a * (25 * KERNEL) ** (-TRUE.b)
TRACE_LEVELS = 20


def _points(count, sigma):
    noise = NoiseSpec("gaussian", sigma=sigma) if sigma else NoiseSpec()
    return generate_series(SynthSpec(TRUE, kernel=KERNEL, step=KERNEL, count=count,
                                     noise=noise, seed=7)).points


def _run_to_stop(config, points):
    state = new_run(config)
    for obs in points:
        ingest(state, obs)
        if state.stopped:
            break
    return state


@pytest.mark.parametrize("anchors", ["none", "canonical"])
def test_run_to_stop_speed(benchmark, anchors):
    config = RunConfig(tau=TAU, anchor_policy=AnchorPolicy(mode=anchors))
    points = _points(60, 0.05)
    state = benchmark.pedantic(_run_to_stop, args=(config, points), rounds=200,
                               warmup_rounds=5)
    assert state.stopped and len(state.series) < len(points)


@pytest.mark.parametrize("sigma", [0.05, 0.0], ids=["noisy", "exact"])
def test_newest_working_level_speed(benchmark, sigma):
    series = ObservationSeries(_points(TRACE_LEVELS + 2, sigma))
    trace = LearningTrace()
    for _ in range(TRACE_LEVELS):
        extend_trace(trace, series)
    params = LevelParams()
    omega = benchmark.pedantic(_newest_working_level, args=(trace, params), rounds=2000,
                               iterations=10, warmup_rounds=10)
    # Exact data keep every slope under the limit; the noise puts one of
    # the newest window's slopes over it.
    assert (omega is not None) == (sigma == 0.0)
