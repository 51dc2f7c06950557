import dataclasses
import math
import re

import pytest

import curvecast.trace
from curvecast.model import PowerLawParams

from same_bits import LINES, digest

NUDGED_LEVEL = 5


@pytest.mark.parametrize("workload", list(LINES))
def test_digest_repeats_and_sees_one_ulp(workload, monkeypatch):
    first = digest(workload, 7, pool=3)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert digest(workload, 7, pool=3) == first

    fit = curvecast.trace.fit_power_law
    nudged = []

    def fit_nudging_one_c(prefix, **kwargs):
        # The first unanchored fit of NUDGED_LEVEL moves its asymptote by one ulp.
        trend = fit(prefix, **kwargs)
        if nudged or trend.level != NUDGED_LEVEL:
            return trend
        nudged.append(trend.level)
        a, b, c = trend.params.a, trend.params.b, trend.params.c
        return dataclasses.replace(trend, params=PowerLawParams(a, b, math.nextafter(c, math.inf)))

    monkeypatch.setattr(curvecast.trace, "fit_power_law", fit_nudging_one_c)
    assert digest(workload, 7, pool=3) != first
    assert nudged == [NUDGED_LEVEL]
