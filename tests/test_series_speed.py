"""Microbenchmark of ``ObservationSeries.with_point`` near n = 60 and
n = 1000.

Each round appends ``CHAIN`` points, one at a time, to a series that is the
longest on its buffer and has room left, with its columns read as a fit
reads them: what the ingests of a run do between two growths of the
buffer. A round's time divided by ``CHAIN`` is the cost of one append. To
keep the numbers:

    PYTHONPATH=src python -m pytest tests/test_series_speed.py \\
        --benchmark-json=out.json
"""

import pytest

from curvecast.model import ObservationSeries
from curvecast.synth import NoiseSpec, SynthSpec, generate_series

from conftest import REFERENCE_FIT

ROUNDS = 500
CHAIN = 32


@pytest.fixture(scope="module")
def points():
    return generate_series(SynthSpec(REFERENCE_FIT, count=1000 + CHAIN,
                                     noise=NoiseSpec("gaussian", sigma=0.05), seed=7)).points


def _append_chain(series, tail):
    for obs in tail:
        series = series.with_point(obs)
    return series


@pytest.mark.parametrize("n", [60, 1000])
def test_with_point_speed(benchmark, points, n):
    def setup():
        series = ObservationSeries(points[:n - 1])
        series.offsets, series.accuracies  # read, as a fit reads them
        return (series.with_point(points[n - 1]), points[n:n + CHAIN]), {}

    grown = benchmark.pedantic(_append_chain, setup=setup, rounds=ROUNDS, warmup_rounds=10)
    assert grown == ObservationSeries(points[:n + CHAIN])
