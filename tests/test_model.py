import copy
import dataclasses
import math
import pickle
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast.fitting import fit_power_law
from curvecast.model import (
    LearningTrend,
    Observation,
    ObservationSeries,
    PowerLawParams,
    eval_pattern,
)

from conftest import REFERENCE_FIT, SERIES_BUILDS, steep_params
from oracles import residuals_as_read

params_st = st.builds(
    PowerLawParams,
    a=st.floats(min_value=1e-3, max_value=1e4),
    b=st.floats(min_value=0.05, max_value=3.0),
    c=st.floats(min_value=50.0, max_value=110.0),
)


class TestEvalPattern:
    def test_limit_is_asymptote(self):
        assert eval_pattern(REFERENCE_FIT, 1e280) == pytest.approx(99.2876, abs=1e-9)

    def test_unit_case(self):
        assert eval_pattern(PowerLawParams(1, 1, 100), 1) == 99.0

    def test_large_position_value(self):
        # frozen from direct evaluation of the formula
        assert eval_pattern(REFERENCE_FIT, 800000) == pytest.approx(96.34433132363236, rel=1e-12)

    def test_rejects_nonpositive_position(self):
        with pytest.raises(ValueError):
            eval_pattern(REFERENCE_FIT, 0)
        with pytest.raises(ValueError):
            eval_pattern(REFERENCE_FIT, -5)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError):
                eval_pattern(REFERENCE_FIT, x)

    def test_overflowing_power_names_the_position(self):
        # 1e-300 ** -1.2 overflows a float; so does 1e300 * 1e-10 ** -1.2.
        for params, x in ((PowerLawParams(5000, 1.2, 95), 1e-300),
                          (PowerLawParams(1e300, 1.2, 95), 1e-10)):
            with pytest.raises(ValueError, match=f"position {x}"):
                eval_pattern(params, x)


# Strategies keep the power term and its variation far above float
# resolution of values near 100, so the strict inequalities are testable.
visible_params_st = st.builds(
    PowerLawParams,
    a=st.floats(min_value=0.1, max_value=1e4),
    b=st.floats(min_value=0.05, max_value=1.5),
    c=st.floats(min_value=50.0, max_value=110.0),
)


@given(visible_params_st, st.floats(min_value=1.0, max_value=1e5),
       st.floats(min_value=1.01, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_strictly_increasing_and_bounded(params, x1, factor):
    x2 = x1 * factor
    y1, y2 = eval_pattern(params, x1), eval_pattern(params, x2)
    assert y1 < y2 < params.c


@given(visible_params_st, st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_concavity(params, x, h_frac):
    h = x * h_frac
    gain1 = eval_pattern(params, x + h) - eval_pattern(params, x)
    gain2 = eval_pattern(params, x + 2 * h) - eval_pattern(params, x + h)
    assert gain1 > gain2


class TestDomainTypes:
    def test_observation_validation(self):
        Observation(1, 100.0)
        with pytest.raises(ValueError):
            Observation(0, 50.0)
        with pytest.raises(ValueError):
            Observation(5, 0.0)
        with pytest.raises(ValueError):
            Observation(5, 100.5)
        with pytest.raises(ValueError):
            Observation(5, math.nan)
        for position in (True, 5.0):  # a position is a plain integer
            with pytest.raises(ValueError):
                Observation(position, 50.0)
        Observation(2**63 - 1, 50.0)
        with pytest.raises(ValueError):  # positions are stored as int64
            Observation(2**63, 50.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PowerLawParams(0.0, 1.0, 99.0)
        with pytest.raises(ValueError):
            PowerLawParams(1.0, -0.5, 99.0)
        with pytest.raises(ValueError):
            PowerLawParams(1.0, 1.0, math.inf)
        PowerLawParams(1.0, 1.0, 105.0)  # c above 100 is legal

    def test_series_ordering(self):
        pts = (Observation(5000, 90.0), Observation(10000, 91.0))
        series = ObservationSeries(pts)
        assert tuple(p.position for p in series.points) == (5000, 10000)
        with pytest.raises(ValueError):
            ObservationSeries(pts[::-1])
        with pytest.raises(ValueError):
            ObservationSeries(pts[:1] * 2)

    def test_series_is_read_only_and_equals_only_a_series(self):
        series = ObservationSeries([Observation(5000, 90.0), Observation(10000, 91.0)])
        with pytest.raises(AttributeError, match="ObservationSeries is read-only"):
            series._length = 1
        assert len(series) == 2
        assert series != object() and not series == object()

    def test_trend_needs_three_observations(self):
        series = ObservationSeries([Observation(5000, 90.0), Observation(10000, 91.0)])
        with pytest.raises(ValueError, match="a trend needs at least 3 observations"):
            LearningTrend(series, PowerLawParams(1.0, 1.0, 95.0), u_scale=1.0)

    def test_constructor_returns_a_series_as_it_is(self):
        pts = [Observation(5000, 90.0), Observation(10000, 91.0)]
        series = ObservationSeries(pts)
        assert ObservationSeries(series) is series
        for built in (ObservationSeries(tuple(pts)), ObservationSeries(p for p in pts),
                      ObservationSeries(series.points)):
            assert built is not series and built == series

    def test_series_can_be_empty_and_grow(self):
        series = ObservationSeries(())
        assert len(series) == 0
        series = series.with_point(Observation(5000, 90.0))
        series = series.with_point(Observation(10000, 91.0))
        assert len(series) == 2
        assert series == ObservationSeries((Observation(5000, 90.0), Observation(10000, 91.0)))

    def test_with_point_equals_rebuilding_the_series(self):
        pts = tuple(Observation(5000 + 4000 * i + i * i, 90.0 + i * 0.01) for i in range(6))
        series = ObservationSeries(())
        for k, point in enumerate(pts):
            series = series.with_point(point)
            assert series == ObservationSeries(pts[:k + 1])
        for late in (pts[-1].position, pts[-1].position - 1):
            with pytest.raises(ValueError):
                series.with_point(Observation(late, 95.0))

    def test_prefix(self):
        pts = tuple(Observation(5000 * i, 90.0 + i * 0.01) for i in range(1, 6))
        series = ObservationSeries(pts)
        assert series.prefix(3).points == pts[:3]
        assert series.prefix(5) is series
        for level in (9, 6, 0, -2):
            with pytest.raises(ValueError):
                series.prefix(level)


@st.composite
def _grown_series(draw):
    """Points of a noisy curve on an irregular schedule and a prefix
    length."""
    true = draw(params_st)
    count = draw(st.integers(3, 40))
    gaps = draw(st.lists(st.integers(1, 50_000), min_size=count, max_size=count))
    noise = draw(st.lists(st.floats(-0.5, 0.5), min_size=count, max_size=count))
    position, points = 0, []
    for gap, jitter in zip(gaps, noise):
        position += gap
        value = eval_pattern(true, position) + jitter
        points.append(Observation(position, min(max(value, 0.01), 100.0)))
    return points, draw(st.integers(3, count))


COLUMNS = ("positions", "accuracies", "offsets")


class TestSeriesColumns:
    @settings(max_examples=60, deadline=None)
    @given(_grown_series())
    def test_grown_columns_and_prefix_fits_match_rebuilt_points(self, drawn):
        points, k = drawn
        series = ObservationSeries(())
        for point in points:
            series = series.with_point(point)
        rebuilt = ObservationSeries(points)
        for name in COLUMNS:
            grown, fresh = getattr(series, name), getattr(rebuilt, name)
            assert grown.dtype == fresh.dtype == (np.int64 if name == "positions" else np.float64)
            assert grown.tobytes() == fresh.tobytes()

        prefix = series.prefix(k)
        assert prefix.points == tuple(points[:k])
        for name in COLUMNS:
            column = getattr(prefix, name)
            assert len(column) == k and np.shares_memory(column, getattr(series, name))
            with pytest.raises(ValueError):
                column[0] = 1.0

        plain = fit_power_law(prefix)
        assert plain == fit_power_law(points[:k])
        anchor = abs(plain.params.c) + 0.1
        assert fit_power_law(prefix, anchor=anchor) == fit_power_law(points[:k], anchor=anchor)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_branched_growth_changes_no_other_series(self, data):
        """Two children of one parent, then appends that either extend one
        of the growing tips or branch a new tip off any earlier series: every
        series and prefix keeps the columns it had when made, and they equal
        the columns rebuilt from its points."""

        def grow(series):
            last = series.points[-1].position if series.points else 0
            point = Observation(last + data.draw(st.integers(1, 50_000)),
                                data.draw(st.floats(0.01, 100.0)))
            return series.with_point(point)

        seen = []

        def keep(series):
            seen.append((series, [getattr(series, name).tobytes() for name in COLUMNS]))
            return series

        series = ObservationSeries(())
        for _ in range(data.draw(st.integers(0, 5))):
            series = grow(series)
        parent = keep(grow(series))
        tips = [keep(grow(parent)), keep(grow(parent))]
        grown = [parent, *tips]
        for branch, pick in data.draw(st.lists(
                st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=30)):
            if branch:
                new = grow(grown[pick % len(grown)])
                tips.append(new)
            else:
                i = pick % len(tips)
                tips[i] = new = grow(tips[i])
            grown.append(keep(new))
            keep(new.prefix(data.draw(st.integers(1, len(new)))))

        for series, columns in seen:
            rebuilt = ObservationSeries(series.points)
            for name, column in zip(COLUMNS, columns):
                assert getattr(series, name).tobytes() == column == getattr(rebuilt, name).tobytes()
                with pytest.raises(ValueError):
                    getattr(series, name)[0] = 1

    def test_two_threads_growing_one_parent_each_get_their_own_point(self):
        """Two threads grow the same parent, each with its own point, one
        fresh parent per round and the threads in step. The buffer's lock
        makes the check and the claim of the next row one step: one child
        is written in place, the other copies, and no child reads the
        other thread's point."""
        rounds, first = 2000, Observation(1, 50.0)
        parents = [ObservationSeries(()).with_point(first) for _ in range(rounds)]
        points = (Observation(2, 60.0), Observation(3, 70.0))
        children, started = ([], []), [-1, -1]

        def grow(k):
            try:
                for i, parent in enumerate(parents):
                    started[k] = i
                    while started[1 - k] < i:
                        pass  # the other thread reaches this parent too
                    children[k].append(parent.with_point(points[k]))
            finally:
                started[k] = rounds  # a thread that raised holds the other up no longer

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for own, grown in zip(points, children):
            assert [child.points for child in grown] == [(first, own)] * rounds
        assert all(parent.points == (first,) for parent in parents)

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(1, 2**62), steps=st.lists(st.integers(1, 2**40), max_size=40),
           copies=st.lists(st.booleans(), min_size=41, max_size=41), cut=st.integers(1, 41))
    def test_offsets_are_log_x_over_x0(self, start, steps, copies, cut):
        """``offsets`` equals ``logs - logs[0]`` bit for bit, with ``logs``
        numpy's log of the positions column, read-only, on every path that
        builds or grows a buffer: the constructor, copies, appends in place
        and by copy, and prefixes of each."""
        positions = np.cumsum([start, *steps]).tolist()
        accuracies = [1.0 + i % 99 for i in range(len(positions))]
        points = list(map(Observation, positions, accuracies))
        built = ObservationSeries(points)
        made = [ObservationSeries(()), built, ObservationSeries(iter(points)),
                pickle.loads(pickle.dumps(built)), copy.deepcopy(built)]
        grown = ObservationSeries(())
        for point, copied in zip(points, copies):
            if copied:
                grown.with_point(point)  # a sibling takes the row, so this append copies
            grown = grown.with_point(point)
            made.append(grown)
        made += [series.prefix(min(cut, len(series))) for series in made if len(series)]
        for series in made:
            offsets, logs = series.offsets, np.log(series.positions.astype(float))
            assert offsets.dtype == np.float64 and len(offsets) == len(series)
            assert offsets.tobytes() == (logs - logs[:1]).tobytes()
            with pytest.raises(ValueError):
                offsets[0:1] = 1.0

    @pytest.mark.parametrize("duplicate", [lambda s: pickle.loads(pickle.dumps(s)),
                                           copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_rebuild_read_only_columns(self, duplicate):
        series = ObservationSeries(())
        for i in range(1, 9):
            series = series.with_point(Observation(5000 * i, eval_pattern(REFERENCE_FIT, 5000 * i)))
        before = fit_power_law(series.prefix(6))
        copied = duplicate(series)
        assert copied == series
        for name in COLUMNS:
            column = getattr(copied, name)
            assert column.tobytes() == getattr(series, name).tobytes()
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert fit_power_law(copied.prefix(6)) == before


_COPIES = pytest.mark.parametrize(
    "duplicate", [lambda x: x, lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
    ids=["original", "pickle", "deepcopy"])


def _noisy_trend(anchor=REFERENCE_FIT.c):
    pts = [Observation(5000 * i, eval_pattern(REFERENCE_FIT, 5000 * i) + 0.01 * (-1) ** i)
           for i in range(1, 13)]
    return fit_power_law(pts, anchor=anchor)


class TestResidualArrays:
    @_COPIES
    def test_residuals_stay_read_only(self, duplicate):
        trend = _noisy_trend()
        copied = duplicate(trend)
        assert copied == trend
        assert copied.residuals.dtype == np.float64
        assert copied.residuals.tobytes() == trend.residuals.tobytes()
        with pytest.raises(ValueError):
            copied.residuals[0] = 0.0

    @pytest.mark.parametrize("anchor", [None, REFERENCE_FIT.c], ids=["plain", "analytic"])
    def test_final_cost_is_the_sum_of_the_residuals_read(self, anchor):
        # The residuals are recomputed on read; the fit summed its own rows.
        trend = _noisy_trend(anchor)
        rows = trend.residuals
        if anchor is not None:
            rows = np.append(rows, trend.anchor_residual)
        assert len(trend.residuals) == trend.level == 12
        assert trend.iterations >= 1
        assert trend.final_cost == float(rows @ rows)

    @pytest.mark.parametrize("anchor", [None, REFERENCE_FIT.c], ids=["plain", "analytic"])
    @pytest.mark.parametrize("build", sorted(SERIES_BUILDS))
    def test_residuals_read_as_the_fit_computes_them(self, build, anchor):
        points = [Observation(5000 * i + 7 * i * i, eval_pattern(REFERENCE_FIT, 5000 * i) +
                              0.03 * math.sin(i)) for i in range(1, 41)]
        series = SERIES_BUILDS[build](points)
        for level in (3, 17, 40):
            trend = fit_power_law(series.prefix(level), anchor=anchor)
            prefix = trend.series
            logs = np.log(prefix.positions.astype(float))
            expected = residuals_as_read(logs, prefix.accuracies, trend.params.b,
                                         trend.params.c, trend.u_scale)
            assert trend.residuals.tobytes() == expected.tobytes()

    def test_constructor_rebuilds_the_fits_trend(self):
        trend = _noisy_trend()
        rebuilt = LearningTrend(series=trend.series, params=trend.params, u_scale=trend.u_scale,
                                anchor_residual=trend.anchor_residual, converged=trend.converged,
                                iterations=trend.iterations)
        assert rebuilt == trend
        assert (rebuilt.level, rebuilt.position) == (12, 60000)
        assert rebuilt.residuals.tobytes() == trend.residuals.tobytes()

    def test_one_ulp_makes_trends_unequal(self):
        trend = _noisy_trend()
        accuracies = trend.series.accuracies.tolist()
        accuracies[5] = math.nextafter(accuracies[5], math.inf)
        shifted = ObservationSeries(map(Observation, trend.series.positions.tolist(), accuracies))
        assert dataclasses.replace(trend, series=shifted) != trend
        assert dataclasses.replace(trend, u_scale=math.nextafter(trend.u_scale, 0.0)) != trend

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(_noisy_trend())


_TREND_SOURCES = {
    "fitted": fit_power_law,
    "prefix": lambda points: fit_power_law(ObservationSeries(points).prefix(7)),
    "grown-in-place": lambda points: fit_power_law(SERIES_BUILDS["in-place"](points)),
    "branch-copy": lambda points: fit_power_law(SERIES_BUILDS["by-copy"](points)),
}


class TestTrendReads:
    """The trend's position is one element read off the buffer, and a fit
    builds its trend and parameters through the constructors: the same
    values and types as the slice and a rebuild."""

    points = [Observation(5000 * i + 3 * i * i, eval_pattern(REFERENCE_FIT, 5000 * i)
                          + 0.02 * (-1) ** i) for i in range(1, 13)]

    @pytest.mark.parametrize("source", sorted(_TREND_SOURCES))
    def test_position_is_the_last_position_as_an_int(self, source):
        trend = _TREND_SOURCES[source](self.points)
        assert type(trend.position) is int
        assert trend.position == int(trend.series.positions[-1])
        assert trend.position == self.points[trend.level - 1].position

    def test_grown_series_trends_read_their_own_last_position(self):
        # Every prefix trend on one buffer reads its own last row, also
        # after the buffer has grown past it.
        series = SERIES_BUILDS["in-place"](self.points[:3])
        trends = [fit_power_law(series)]
        for point in self.points[3:]:
            series = series.with_point(point)
            trends.append(fit_power_law(series))
        assert [t.position for t in trends] == [p.position for p in self.points[2:]]

    @pytest.mark.parametrize("points", [points, [Observation(5000 * i, 95.0 - i)
                                                 for i in range(1, 8)]],
                             ids=["identified", "degenerate"])
    def test_fit_params_equal_the_constructors(self, points):
        trend = fit_power_law(points)
        assert trend.converged == (len(points) == 12)  # the other has no optimum
        params = trend.params
        built = PowerLawParams(params.a, params.b, params.c)
        assert type(params) is PowerLawParams
        assert params == built and hash(params) == hash(built)
        assert [type(v) for v in (params.a, params.b, params.c)] == [float] * 3
        assert _rebuilt(trend) == trend
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.a = 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 60),
           shape=st.sampled_from(["steep", "noisy", "flat", "falling"]),
           anchored=st.booleans(), warm=st.booleans())
    def test_fit_trends_equal_the_constructors(self, seed, count, shape, anchored, warm):
        # Every trend a fit returns, degenerate ones included, is the trend
        # the public constructors build from its values.
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.integers(1, 20_000, size=count)) + int(rng.integers(1, 10_000))
        if shape == "flat":  # the best a is 0: the degenerate path
            ys = np.full(count, float(rng.uniform(50, 99)))
        elif shape == "falling":  # the best a is < 0: the degenerate path
            ys = 95.0 - 1e-4 * (xs - xs[0]) + rng.normal(0, 0.01, size=count)
        else:
            true = steep_params(rng)
            sigma = 0.05 if shape == "steep" else 1.0
            ys = [eval_pattern(true, int(x)) + rng.normal(0, sigma) for x in xs]
        series = ObservationSeries(Observation(int(x), float(min(max(y, 0.01), 100.0)))
                                   for x, y in zip(xs, ys))
        anchor = float(rng.uniform(60, 100)) if anchored else None
        start_b = float(rng.uniform(0.01, 5.0)) if warm else None
        trend = fit_power_law(series, anchor, start_b=start_b)
        if shape in ("flat", "falling") and not anchored:
            assert not trend.converged
        rebuilt = _rebuilt(trend)
        assert rebuilt == trend and rebuilt.params == trend.params
        assert rebuilt.residuals.tobytes() == trend.residuals.tobytes()
        assert [type(v) for v in (trend.params.a, trend.params.b, trend.params.c,
                                  trend.u_scale)] == [float] * 4

    @pytest.mark.parametrize("build, message", [
        *(pytest.param(partial(PowerLawParams, *args), message, id="-".join(map(str, args)))
          for args, message in [
              ((math.nan, 0.5, 90.0), "a must be finite"),
              ((math.inf, 0.5, 90.0), "a must be finite"),
              ((0.0, 0.5, 90.0), "a must be > 0, got 0.0"),
              ((-1.0, 0.5, 90.0), "a must be > 0, got -1.0"),
              ((1.0, math.nan, 90.0), "b must be finite"),
              ((1.0, math.inf, 90.0), "b must be finite"),
              ((1.0, 0.0, 90.0), "b must be > 0, got 0.0"),
              ((1.0, -0.5, 90.0), "b must be > 0, got -0.5"),
              ((1.0, 0.5, math.nan), "c must be finite"),
              ((1.0, 0.5, math.inf), "c must be finite"),
              ((1.0, 0.5, -math.inf), "c must be finite"),
          ]),
        pytest.param(partial(LearningTrend, ObservationSeries(
            [Observation(5000, 90.0), Observation(10000, 91.0)]), REFERENCE_FIT, 1.0),
            "a trend needs at least 3 observations", id="trend-of-2-points"),
    ])
    def test_values_the_constructor_rejects_still_raise(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_checked_values_are_set_as_given(self):
        for a, b, c in [(5e-324, 1e-300, -1e308), (1e308, 1e308, 0.0), (1.0, 0.5, 105.0)]:
            params = PowerLawParams(a, b, c)
            assert (params.a, params.b, params.c) == (a, b, c)
            assert params == dataclasses.replace(params)
            assert params == pickle.loads(pickle.dumps(params)) == copy.deepcopy(params)


def _rebuilt(trend: LearningTrend) -> LearningTrend:
    """The trend built again through the public constructors."""
    params = trend.params
    return LearningTrend(trend.series, PowerLawParams(params.a, params.b, params.c),
                         trend.u_scale, trend.anchor_residual, trend.converged,
                         trend.iterations)
