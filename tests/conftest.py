import pickle

import numpy as np
import pytest

from curvecast.model import Observation, ObservationSeries, PowerLawParams, eval_pattern

REFERENCE_FIT = PowerLawParams(a=542.5451, b=0.3838, c=99.2876)


def exact_series_points(params, count=40, kernel=5000, step=5000):
    positions = [kernel + step * i for i in range(count)]
    return [Observation(x, eval_pattern(params, x)) for x in positions]


def sample_params(rng, a=(10, 1000), b=(0.2, 1.5), c=(85, 100)):
    return PowerLawParams(rng.uniform(*a), rng.uniform(*b), rng.uniform(*c))


def steep_params(rng):
    """Curve shapes with per-level layer decline well above the sigma=0.05
    fit jitter; the regime the convergence statistics are stated for."""
    return sample_params(rng, a=(400, 900), b=(0.35, 0.5), c=(90, 99))


def _grown_in_place(points):
    series = ObservationSeries(())
    for point in points:
        series = series.with_point(point)
    return series


def _grown_by_copy(points):
    # A second child of the same parent copies its parent's columns into a
    # new buffer, so every row lands on a buffer the copy path built.
    series = ObservationSeries(())
    for point in points:
        series.with_point(point)
        series = series.with_point(point)
    return series


# Every way a series' buffer is built or grown, by name.
SERIES_BUILDS = {
    "constructor": ObservationSeries,
    "in-place": _grown_in_place,
    "by-copy": _grown_by_copy,
    "pickled": lambda points: pickle.loads(pickle.dumps(_grown_in_place(points))),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
