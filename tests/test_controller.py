import dataclasses
import gc
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvecast.anchoring
import curvecast.controller
import curvecast.fitting
import curvecast.trace
from curvecast.anchoring import AnchorPolicy
from curvecast.controller import (
    RunConfig,
    _newest_working_level,
    backbone_segment,
    ingest,
    new_run,
    predict,
    run_batch,
    run_stream,
    stopping_layer,
)
from curvecast.errors import NotStoppedError, SequencingError
from curvecast.levels import LevelParams, verticality_limit, working_level
from curvecast.model import (
    FIRST_LEVEL,
    LearningTrend,
    Observation,
    ObservationSeries,
    PowerLawParams,
    eval_pattern,
)
from curvecast.synth import NoiseSpec, SynthSpec, build_traces, generate_series
from curvecast.trace import LearningTrace, convergence_layer, convergence_layer_bounded

from conftest import REFERENCE_FIT, exact_series_points, steep_params
from oracles import full_rescan_run
from same_bits import bench_workloads


def noisy_points(true, rng, count=40, sigma=0.05):
    return generate_series(SynthSpec(true, count=count,
                                     noise=NoiseSpec("gaussian", sigma=sigma),
                                     seed=int(rng.integers(0, 2 ** 31)))).points


def _counted_fits(monkeypatch):
    """A list that gains one entry per fit a run makes."""
    calls = []
    for module in (curvecast.trace, curvecast.anchoring):
        fit = module.fit_power_law

        def counted(*args, _fit=fit, **kwargs):
            calls.append(1)
            return _fit(*args, **kwargs)

        monkeypatch.setattr(module, "fit_power_law", counted)
    return calls


def tau_mid(true, points, frac=0.6):
    x = points[int(len(points) * frac)].position
    return true.a * x ** (-true.b)


class TestStopping:
    def test_noiseless_huge_tau_stops_at_level_three(self):
        config = RunConfig(tau=1e9)
        state = run_stream(config, exact_series_points(REFERENCE_FIT, count=12))
        assert (state.wlevel, state.plevel, state.clevel) == (3, 3, 3)
        assert state.stopped
        assert state.selected_trend.params.c == pytest.approx(REFERENCE_FIT.c, abs=1e-4)
        for x in (50_000, 300_000, 10 ** 7):
            assert predict(state, x) == pytest.approx(
                eval_pattern(REFERENCE_FIT, x), abs=1e-4)

    def test_zero_tau_never_stops(self):
        config = RunConfig(tau=0.0)
        state = run_stream(config, exact_series_points(REFERENCE_FIT, count=12))
        assert state.clevel is None and not state.stopped

    def test_prediction_before_convergence_ordering(self, rng):
        for _ in range(3):
            true = steep_params(rng)
            points = noisy_points(true, rng)
            config = RunConfig(tau=tau_mid(true, points))
            state = run_stream(config, points)
            assert state.stopped
            assert state.wlevel <= state.plevel <= state.clevel
            assert state.wposition <= state.pposition <= state.cposition

    def test_lower_tau_never_stops_earlier(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        tau_hi = tau_mid(true, points, frac=0.4)
        levels = []
        for tau in (tau_hi, tau_hi * 0.7, tau_hi * 0.5):
            state = run_batch(RunConfig(tau=tau), points)
            levels.append(state.clevel)
        observed = [lv for lv in levels if lv is not None]
        assert observed == sorted(observed)

    def test_bounded_layer_used_when_horizon_set(self):
        points = exact_series_points(REFERENCE_FIT, count=25)
        end = 10 ** 6
        # pick tau between the bounded and unbounded layer of level 3 so the
        # two modes decide differently at that level
        trend_layerless = run_stream(RunConfig(tau=0.0), points[:3])
        trend = trend_layerless.trace.trends[3]
        bounded = convergence_layer_bounded(trend, end)
        plain = convergence_layer(trend)
        assert bounded < plain
        tau = (bounded + plain) / 2
        with_horizon = run_stream(RunConfig(tau=tau, end_position=end), points)
        without = run_stream(RunConfig(tau=tau), points)
        assert with_horizon.clevel == 3
        assert without.clevel is not None and without.clevel > 3

    def test_stopping_layer_helper(self):
        points = exact_series_points(REFERENCE_FIT, count=5)
        state = run_stream(RunConfig(tau=0.0), points)
        trend = state.trace.trends[5]
        assert stopping_layer(trend, None) == convergence_layer(trend)
        assert stopping_layer(trend, 10 ** 6) == convergence_layer_bounded(trend, 10 ** 6)
        # horizon behind the trend falls back to the plain layer
        assert stopping_layer(trend, trend.position) == convergence_layer(trend)


class TestIngestProtocol:
    def test_out_of_order_rejected(self):
        state = new_run(RunConfig(tau=1.0))
        ingest(state, Observation(5000, 90.0))
        with pytest.raises(SequencingError):
            ingest(state, Observation(5000, 91.0))
        with pytest.raises(SequencingError):
            ingest(state, Observation(400, 91.0))

    def test_runs_share_only_the_empty_series(self):
        config = RunConfig(tau=1.0)
        empty = new_run(config).series
        assert len(empty) == 0 and empty == ObservationSeries(())
        first, second = new_run(config), new_run(config)
        assert first.series is second.series is empty
        ingest(first, Observation(5000, 90.0))
        ingest(second, Observation(7000, 91.0))
        assert first.series == ObservationSeries([Observation(5000, 90.0)])
        assert second.series == ObservationSeries([Observation(7000, 91.0)])
        assert len(empty) == 0 and new_run(config).series == ObservationSeries(())

    def test_rejected_observation_leaves_the_run_unchanged(self):
        config = RunConfig(tau=0.0)
        points = exact_series_points(REFERENCE_FIT, count=6)
        state = run_stream(config, points)
        series = state.series
        for position in (points[-1].position, points[2].position):
            with pytest.raises(SequencingError, match=f"{position} is not past 30000") as raised:
                ingest(state, Observation(position, 99.0))
            assert isinstance(raised.value.__cause__, ValueError)
            assert state.series is series
            assert state == run_stream(config, points)
        # the rejected rows took no room on the buffer: the run goes on as
        # if they had never been offered
        after = Observation(points[-1].position + 5000, 99.0)
        ingest(state, after)
        assert state == run_stream(config, [*points, after])

    def test_ingest_after_stop_is_counted_not_applied(self):
        points = exact_series_points(REFERENCE_FIT, count=12)
        state = run_stream(RunConfig(tau=1e9), points)
        assert state.stopped
        series_len = len(state.series)
        before = state.ignored_after_stop
        ingest(state, Observation(10 ** 7, 99.0))
        assert len(state.series) == series_len
        assert state.ignored_after_stop == before + 1

    def test_ingest_reads_a_constant_number_of_observation_fields(self, rng):
        # Prefix fits read the series' columns, so each ingest touches the
        # new observation and the last one, not every point of the prefix.
        reads = [0]

        class CountingObservation(Observation):
            def __getattribute__(self, name):
                if name in ("position", "accuracy"):
                    reads[0] += 1
                return super().__getattribute__(name)

        true = steep_params(rng)
        points = [CountingObservation(p.position, p.accuracy)
                  for p in noisy_points(true, rng, count=200)]
        state = new_run(RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode="canonical")))
        per_ingest = []
        for point in points:
            before = reads[0]
            ingest(state, point)
            per_ingest.append(reads[0] - before)
        assert state.wlevel is not None and len(state.trace.backbone) == 198
        assert max(per_ingest) <= 20, per_ingest

    def test_predict_requires_stop(self):
        state = run_stream(RunConfig(tau=0.0), exact_series_points(REFERENCE_FIT, 8))
        with pytest.raises(NotStoppedError):
            predict(state, 50000)

    def test_predict_at_own_level_matches_fit(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        state = run_stream(RunConfig(tau=tau_mid(true, points)), points)
        trend = state.selected_trend
        assert predict(state, state.cposition) == eval_pattern(trend.params,
                                                               state.cposition)

    def test_predict_at_horizon_vs_asymptote_gap(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        end = 2 * points[-1].position
        state = run_stream(RunConfig(tau=tau_mid(true, points), end_position=end),
                           points)
        assert state.stopped
        trend = state.selected_trend
        gap = convergence_layer(trend) - convergence_layer_bounded(trend, end)
        assert trend.params.c - predict(state, end) == pytest.approx(gap, rel=1e-9)


class TestDeterminismAndEquivalence:
    def test_identical_streams_identical_states(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        config = RunConfig(tau=tau_mid(true, points),
                           anchor_policy=AnchorPolicy(mode="canonical"))
        assert run_stream(config, points) == run_stream(config, points)

    @pytest.mark.parametrize("mode", ["none", "canonical"])
    def test_online_equals_offline(self, mode, rng):
        for _ in range(4):
            true = steep_params(rng)
            points = noisy_points(true, rng, count=35)
            config = RunConfig(tau=tau_mid(true, points),
                               anchor_policy=AnchorPolicy(mode=mode))
            online = run_stream(config, points)
            offline = run_batch(config, points)
            assert online == offline

    def test_online_equals_offline_when_never_stopping(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng, count=25)
        config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode="canonical"))
        assert run_stream(config, points) == run_batch(config, points)

    def test_online_equals_offline_without_working_level(self):
        # too few levels for a look-ahead window: the trace is never rebuilt
        config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode="canonical"))
        points = exact_series_points(REFERENCE_FIT, count=5)
        online = run_stream(config, points)
        assert online.wlevel is None
        assert online == run_batch(config, points)

    @pytest.mark.parametrize("mode", ["none", "canonical"])
    def test_offline_makes_the_online_fits(self, mode, rng, monkeypatch):
        calls = _counted_fits(monkeypatch)
        true = steep_params(rng)
        points = noisy_points(true, rng, count=40)
        config = RunConfig(tau=tau_mid(true, points, frac=0.4),
                           anchor_policy=AnchorPolicy(mode=mode))
        online = run_stream(config, points)
        online_fits = len(calls)
        offline = run_batch(config, points)
        assert online.stopped and online.ignored_after_stop > 0
        assert online == offline
        assert len(calls) - online_fits == online_fits

    @pytest.mark.parametrize("mode", ["none", "canonical"])
    def test_offline_rejects_a_bad_log_before_any_fit(self, mode, rng, monkeypatch):
        calls = _counted_fits(monkeypatch)
        points = list(noisy_points(steep_params(rng), rng, count=20))
        bad = 12  # repeats the position before it
        points[bad] = Observation(points[bad - 1].position, points[bad].accuracy)
        config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode=mode))
        with pytest.raises(ValueError, match="strictly increasing"):
            run_batch(config, points)
        assert calls == []
        # The online path finds the fault only when it arrives: levels 3 to
        # 12 are fitted first.
        with pytest.raises(SequencingError):
            run_stream(config, points)
        assert len(calls) == bad - 2 if mode == "none" else len(calls) >= bad - 2

    def test_offline_folds_the_callers_observations(self, rng, monkeypatch):
        # The log is taken once, a one-shot iterable included, and checked
        # as a series without rebuilding a point: each ingest receives the
        # caller's own Observation.
        points = noisy_points(steep_params(rng), rng, count=20)
        config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode="canonical"))
        online = run_stream(config, points)

        def rebuilt(series):
            raise AssertionError("ObservationSeries.points was read")

        ingested = []

        def recorded(state, observation):
            ingested.append(observation)
            return ingest(state, observation)

        monkeypatch.setattr(ObservationSeries, "points", property(rebuilt))
        monkeypatch.setattr(curvecast.controller, "ingest", recorded)
        assert run_batch(config, iter(points)) == online
        assert len(ingested) == len(points)
        assert all(mine is theirs for mine, theirs in zip(ingested, points))


_MILESTONES = ("wlevel", "wposition", "plevel", "pposition", "clevel", "cposition",
               "stopped", "ignored_after_stop")


@st.composite
def _run_inputs(draw, mode):
    true = PowerLawParams(draw(st.floats(400.0, 900.0)), draw(st.floats(0.35, 0.5)),
                          draw(st.floats(90.0, 99.9)))
    count = draw(st.integers(8, 30))
    sigma = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    points = generate_series(SynthSpec(true, count=count,
                                       noise=NoiseSpec("gaussian", sigma=sigma),
                                       seed=draw(st.integers(0, 2 ** 31 - 1)))).points
    # tau from the true layer somewhere along the series: 0 never stops,
    # a huge factor stops at the prediction level.
    x = points[draw(st.integers(count // 3, count - 1))].position
    tau = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e9])) * true.a * x ** (-true.b)
    # a horizon past every trend, one inside the series (the plain layer
    # takes over past it), or none
    end = draw(st.sampled_from([None, points[count // 2].position, 2 * points[-1].position]))
    config = RunConfig(
        tau=tau,
        level_params=LevelParams(nu=draw(st.sampled_from([2e-5, 2e-4])),
                                 lookahead=draw(st.sampled_from([0, 2, 5]))),
        anchor_policy=AnchorPolicy(mode=mode),
        end_position=end,
    )
    # the fitter's iteration cap: 4 iterations leave some fits
    # non-converged; 1 leaves all of them, unless the start b = 0.5 is
    # already optimal
    return config, points, draw(st.sampled_from([200, 4, 1]))


@pytest.mark.parametrize("mode", ["none", "canonical"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_incremental_milestones_match_full_rescan(mode, data):
    config, points, max_iterations = data.draw(_run_inputs(mode))
    with mock.patch.object(curvecast.fitting, "_MAX_ITERATIONS", max_iterations):
        state = run_stream(config, points)
        expected, trace = full_rescan_run(config, points)
        assert {name: getattr(state, name) for name in _MILESTONES} == expected
        assert state.trace == trace
        assert run_batch(config, points) == state


class TestLaterMilestoneScan:
    """Runs whose asymptote is above 100 at the working level: the scan for
    the later milestones finds no prediction level, or finds it past levels
    that it then skips, and both match the full rescan."""

    @pytest.mark.parametrize("mode", ["none", "canonical"])
    def test_no_prediction_level_while_every_asymptote_is_above_100(self, mode):
        config = RunConfig(tau=0.5, anchor_policy=AnchorPolicy(mode=mode))
        points = exact_series_points(PowerLawParams(600, 0.4, 101), count=40)
        state = run_stream(config, points)
        assert state.wlevel == 3 and state.plevel is None
        expected, trace = full_rescan_run(config, points)
        assert {name: getattr(state, name) for name in _MILESTONES} == expected
        assert state.trace == trace

    @pytest.mark.parametrize("mode", ["none", "canonical"])
    def test_prediction_level_declared_in_the_working_level_scan(self, mode):
        config = RunConfig(tau=0.5, anchor_policy=AnchorPolicy(mode=mode))
        points = generate_series(SynthSpec(PowerLawParams(600, 0.4, 100.02), count=40,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=1)).points
        state = new_run(config)
        for obs in points:
            ingest(state, obs)
            if state.wlevel is not None:
                break
        # The backbone crosses 100 after the working level, within the
        # levels scanned on the ingest that declared it.
        assert state.trace.alpha(state.wlevel) > 100.0
        assert state.wlevel < state.plevel <= state.trace.last_level
        for obs in points[len(state.series):]:
            ingest(state, obs)
        expected, trace = full_rescan_run(config, points)
        assert {name: getattr(state, name) for name in _MILESTONES} == expected
        assert state.trace == trace


@st.composite
def _window_traces(draw):
    """A trace up to a random last level and random level parameters. Each
    backbone step is a multiple of the verticality limit times its position
    gap, mostly at or under it and some just over it, up or down; some
    trends are not converged."""
    params = LevelParams(nu=draw(st.floats(1e-6, 0.5)), slowdown=draw(st.integers(1, 3)),
                         lookahead=draw(st.integers(0, 6)))
    limit = verticality_limit(params)
    last = draw(st.integers(FIRST_LEVEL, FIRST_LEVEL + 14))
    gaps = draw(st.lists(st.integers(1, 10_000), min_size=last, max_size=last))
    positions = list(itertools.accumulate(gaps))
    series = ObservationSeries(Observation(x, 50.0) for x in positions)
    factor = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 3.0]), st.floats(0.0, 1.2))
    alpha = draw(st.floats(80.0, 110.0))
    trace = LearningTrace()
    for level in range(FIRST_LEVEL, last + 1):
        if level > FIRST_LEVEL:
            step = draw(factor) * limit * (positions[level - 1] - positions[level - 2])
            alpha += step if draw(st.booleans()) else -step
        trace.trends[level] = LearningTrend(
            series.prefix(level), PowerLawParams(1.0, 0.5, alpha), u_scale=1.0,
            converged=draw(st.sampled_from([True, True, True, True, False])))
    return trace, params


@settings(max_examples=200, deadline=None)
@given(drawn=_window_traces())
def test_newest_working_level_follows_the_window_rule(drawn):
    # The run's check answers what working_level answers on the newest
    # lookahead + 2 converged levels, when they end at the newest level.
    trace, params = drawn
    converged = [level for level in trace.levels() if trace.trends[level].converged]
    window = converged[-(params.lookahead + 2):]
    expected = None
    if len(window) == params.lookahead + 2 and window[-1] == trace.last_level:
        expected = working_level([trace.alpha(level) for level in window],
                                 [trace.trends[level].position for level in window],
                                 params, levels=window)
    assert _newest_working_level(trace, params) == expected


@pytest.mark.parametrize("seed", [7, 7331])
@pytest.mark.parametrize("mode", ["none", "canonical"])
def test_run_declares_the_working_level_the_audit_finds(seed, mode):
    # The run judges one window per ingest and the audit its whole
    # reference backbone, both through levels.working_level.
    workloads = bench_workloads()
    spec = workloads.SPECS["offline-audit"]
    items = workloads.make_items(dataclasses.replace(spec, pool=20), seed)
    config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode=mode))
    for item in items:
        state = run_stream(config, item.series.points)
        _, omega, _ = build_traces(item.series, config.level_params, config.anchor_policy)
        assert omega is not None and state.wlevel == omega, item.index


class TestAnchoredRuns:
    def test_trace_is_anchored_past_working_level(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        config = RunConfig(tau=tau_mid(true, points),
                           anchor_policy=AnchorPolicy(mode="canonical"))
        state = run_stream(config, points)
        assert state.stopped
        for level in state.trace.levels():
            trend = state.trace.trends[level]
            assert (trend.anchor_residual is not None) == (level > state.wlevel)
            # sanity envelope: anchoring never drives the backbone wild
            assert 0.0 < trend.params.c <= 200.0

    def test_unanchored_policy_never_anchors(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        state = run_stream(RunConfig(tau=tau_mid(true, points)), points)
        assert all(t.anchor_residual is None for t in state.trace.trends.values())

    def test_backbone_segment_spans_working_to_convergence(self, rng):
        true = steep_params(rng)
        points = noisy_points(true, rng)
        state = run_stream(RunConfig(tau=tau_mid(true, points)), points)
        segment = backbone_segment(state, state.wlevel, state.clevel)
        assert len(segment) == state.clevel - state.wlevel + 1
        assert segment[0] == state.trace.alpha(state.wlevel)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tau=-0.1)
    with pytest.raises(ValueError):
        RunConfig(tau=math.nan)  # would never stop
    with pytest.raises(ValueError):
        RunConfig(tau=math.inf)  # a report could not write it as JSON
    RunConfig(tau=0.0)  # "never stop" is allowed
    for flag in (True, False):  # a report would write it as JSON true or false
        with pytest.raises(ValueError, match="tau must be a finite number >= 0"):
            RunConfig(tau=flag)
    assert RunConfig(tau=1).tau == 1
    for end in (0, -5, 2.5e5, 5000.0, True):  # a horizon is a position: an integer >= 1
        with pytest.raises(ValueError):
            RunConfig(tau=1.0, end_position=end)
    RunConfig(tau=1.0, end_position=1)


def test_finished_long_run_holds_under_600_kb():
    # A trend keeps its parameters and a prefix series, which is its length
    # on a shared buffer, so a run's memory grows linearly with its length.
    points = noisy_points(steep_params(np.random.default_rng(11)), np.random.default_rng(11),
                          count=1000)
    config = RunConfig(tau=0.0, anchor_policy=AnchorPolicy(mode="canonical"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = run_stream(config, points)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state.wlevel is not None and len(state.trace.trends) == 998
    assert held < 600_000
