import dataclasses
import math
import re

import pytest

import curvecast.trace
from curvecast.model import PowerLawParams

from same_bits import LINES, describe, digest, first_difference, records

NUDGED_LEVEL = 5


def _nudge_one_c(monkeypatch):
    """Moves the asymptote of the first unanchored fit of NUDGED_LEVEL by
    one ulp; returns the list that records the nudge."""
    fit = curvecast.trace.fit_power_law
    nudged = []

    def fit_nudging_one_c(prefix, **kwargs):
        trend = fit(prefix, **kwargs)
        if nudged or trend.level != NUDGED_LEVEL:
            return trend
        nudged.append(trend.level)
        a, b, c = trend.params.a, trend.params.b, trend.params.c
        return dataclasses.replace(trend, params=PowerLawParams(a, b, math.nextafter(c, math.inf)))

    monkeypatch.setattr(curvecast.trace, "fit_power_law", fit_nudging_one_c)
    return nudged


@pytest.mark.parametrize("workload", list(LINES))
def test_digest_repeats_and_sees_one_ulp(workload, monkeypatch):
    first = digest(workload, 7, pool=3)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert digest(workload, 7, pool=3) == first

    nudged = _nudge_one_c(monkeypatch)
    assert digest(workload, 7, pool=3) != first
    assert nudged == [NUDGED_LEVEL]


@pytest.mark.parametrize("workload", list(LINES))
def test_first_difference_names_the_nudged_trend(workload, monkeypatch):
    before = list(records(workload, 7, pool=3))
    assert first_difference(before, records(workload, 7, pool=3)) is None
    assert describe(workload, None) == f"{workload}: equal"

    _nudge_one_c(monkeypatch)
    index, number, one, other = first_difference(before, records(workload, 7, pool=3))
    # The nudged fit is the first item's level-NUDGED_LEVEL trend record,
    # which differs only in its c.
    assert index == before[0][0] and one == before[0][1][number - 1]
    fields, moved = one.split(), other.split()
    assert fields[:2] == ["trend", str(NUDGED_LEVEL)]
    assert float.fromhex(moved[4]) == math.nextafter(float.fromhex(fields[4]), math.inf)
    assert moved[:4] + moved[5:] == fields[:4] + fields[5:]
    assert describe(workload, (index, number, one, other)).splitlines() == [
        f"{workload}: item {index}, line {number}", f"  - {one}", f"  + {other}"]
