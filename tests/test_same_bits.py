import dataclasses
import math
import re

import pytest

import curvecast.trace
from curvecast.model import PowerLawParams

from same_bits import (
    LINES,
    decision,
    describe,
    digest,
    first_difference,
    largest_relative_difference,
    main,
    read_dump,
    records,
)

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


@pytest.mark.parametrize("workload", list(LINES))
def test_decisions_digest_ignores_one_ulp_and_sees_a_flag(workload, monkeypatch):
    first = digest(workload, 7, pool=3, decisions=True)
    assert first != digest(workload, 7, pool=3)
    _nudge_one_c(monkeypatch)
    assert digest(workload, 7, pool=3, decisions=True) == first

    fit = curvecast.trace.fit_power_law

    def fit_unconverging_level_5(prefix, **kwargs):
        trend = fit(prefix, **kwargs)
        return dataclasses.replace(trend, converged=False) if trend.level == 5 else trend

    monkeypatch.setattr(curvecast.trace, "fit_power_law", fit_unconverging_level_5)
    assert digest(workload, 7, pool=3, decisions=True) != first


def test_decision_lines_keep_flags_and_outcomes_only():
    trend = "trend 5 0x1.8p+9 0x1.0p-1 0x1.7p+6 0x1.0p+0 {} True {}"
    assert decision(trend.format("None", 6)) == "trend 5 False True"
    assert decision(trend.format("-0x1.0p-20", 6)) == "trend 5 True True"
    assert decision(trend.format("None", 5)) == decision(trend.format("None", 6))
    assert (decision("check anchor_residual_vanishes True 0 1 first=1.00e-03 last=2.00e-04")
            == "check anchor_residual_vanishes True 0 1")
    assert decision("milestones 9 12 17 43") == "milestones 9 12 17 43"
    assert decision("used 17") == "used 17"
    for text in ("{", '  "level": 3,', "level,position,a", "<svg>", ""):
        assert decision(text) is None


def _dump_line(level, c, workload="fleet-stop", item=0):
    return (f"{workload} {item} trend {level} {(500.0).hex()} {(0.4).hex()} {c.hex()} "
            f"{(1.0).hex()} None True 5")


def test_largest_relative_difference_names_its_record():
    left = [_dump_line(3, 90.0), _dump_line(4, 91.0)]
    right = [_dump_line(3, 90.0), _dump_line(4, 91.0 * (1 + 1e-12))]
    difference, workload, item, level, name = largest_relative_difference(left, right)
    assert (workload, item, level, name) == ("fleet-stop", 0, 4, "c")
    assert difference == pytest.approx(1e-12, rel=1e-3)
    assert largest_relative_difference(left, left)[0] == 0.0
    assert largest_relative_difference([], []) is None
    with pytest.raises(ValueError, match="hold 2 and 1 trends"):
        largest_relative_difference(left, right[:1])
    with pytest.raises(ValueError, match="pair fleet-stop 0 trend 4 with fleet-stop 1 trend 4"):
        largest_relative_difference(left, [right[0], _dump_line(4, 91.0, item=1)])


def test_dump_and_compare_from_the_command_line(tmp_path, capsys):
    dumps = [tmp_path / "one.txt", tmp_path / "two.txt"]
    assert main(["--seed", "7", "--pool", "1", "--decisions", "--dump", str(dumps[0])]) == 0
    digests = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in digests] == list(LINES)
    assert digests[0].split()[0] == digest("fleet-stop", 7, pool=1, decisions=True)

    env, trends = read_dump(dumps[0])
    assert re.fullmatch(r"blas=\S+ simd=\S+", env)
    assert {line.split()[0] for line in trends} == set(LINES)
    row = 5  # the first fleet-stop run's level-8 trend, levels starting at 3
    fields = trends[row].split()
    assert fields[:4] == ["fleet-stop", "0", "trend", "8"]
    fields[6] = math.nextafter(float.fromhex(fields[6]), math.inf).hex()
    nudged = trends[:row] + [" ".join(fields)] + trends[row + 1:]
    dumps[1].write_text("\n".join([f"environment {env}", *nudged]) + "\n")
    assert main(["--compare", *map(str, dumps)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"environments: {env} | {env}"
    # One ulp of a c between 64 and 128 is 2**-46, relative to c.
    assert re.fullmatch(r"largest relative parameter difference 1\.\d+e-16: "
                        "fleet-stop item 0 level 8 c", lines[1])
