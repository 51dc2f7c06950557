"""Microbenchmark of ``fit_power_law`` on one prefix fit as a run makes it.

The series is the first of the benchmark's seed 7 ``stream-long`` pool (a
steep curve, Gaussian noise of sigma 0.05). Each case fits its first ``n``
points warm-started from the trend of the prefix one shorter, as
``extend_trace`` does. The anchored case also takes that trend's asymptote
as its anchor, as the canonical chain does past the working level. To keep
the numbers:

    PYTHONPATH=src python -m pytest tests/test_fit_speed.py \\
        --benchmark-json=out.json
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from curvecast.fitting import fit_power_law

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

ROUNDS = 1000


@pytest.fixture(scope="module")
def series():
    spec = dataclasses.replace(workloads.SPECS["stream-long"], pool=1)
    return workloads.make_items(spec, 7)[0].series


@pytest.mark.parametrize("anchored", [False, True], ids=["plain", "anchored"])
@pytest.mark.parametrize("n", [60, 1000])
def test_fit_speed(benchmark, series, n, anchored):
    base = fit_power_law(series.prefix(n - 2))
    anchor = base.params.c if anchored else None
    previous = fit_power_law(series.prefix(n - 1), anchor, initial=base.params)
    anchor = previous.params.c if anchored else None
    prefix = series.prefix(n)
    trend = benchmark.pedantic(fit_power_law, (prefix, anchor), {"initial": previous.params},
                               rounds=ROUNDS, warmup_rounds=20)
    assert trend.converged and trend.level == n
    assert (trend.anchor_residual is not None) == anchored
    assert trend == fit_power_law(prefix, anchor, initial=previous.params)
