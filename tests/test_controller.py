import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvecast.anchoring
import curvecast.trace
from curvecast.anchoring import AnchorPolicy
from curvecast.controller import (
    RunConfig,
    backbone_segment,
    ingest,
    new_run,
    predict,
    run_batch,
    run_stream,
    stopping_layer,
)
from curvecast.errors import NotStoppedError, SequencingError
from curvecast.fitting import FitConfig
from curvecast.levels import LevelParams
from curvecast.model import Observation, PowerLawParams, eval_pattern
from curvecast.synth import NoiseSpec, SynthSpec, generate_series
from curvecast.trace import convergence_layer, convergence_layer_bounded

from conftest import REFERENCE_FIT, exact_series_points, steep_params
from oracles import full_rescan_run


def noisy_points(true, rng, count=40, sigma=0.05):
    return generate_series(SynthSpec(true, count=count,
                                     noise=NoiseSpec("gaussian", sigma=sigma),
                                     seed=int(rng.integers(0, 2 ** 31)))).points


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

    def test_ingest_after_stop_is_counted_not_applied(self):
        points = exact_series_points(REFERENCE_FIT, count=12)
        state = run_stream(RunConfig(tau=1e9), points)
        assert state.stopped
        series_len = len(state.series)
        before = state.ignored_after_stop
        ingest(state, Observation(10 ** 7, 99.0))
        assert len(state.series) == series_len
        assert state.ignored_after_stop == before + 1

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
        calls = []
        for module in (curvecast.trace, curvecast.anchoring):
            fit = module.fit_power_law

            def counted(*args, _fit=fit, **kwargs):
                calls.append(1)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(module, "fit_power_law", counted)
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
        # 4 iterations leave some fits non-converged; 1 leaves all of them,
        # unless the start b = 0.5 is already optimal
        fit_config=draw(st.sampled_from([FitConfig(), FitConfig(max_iterations=4),
                                         FitConfig(max_iterations=1)])),
    )
    return config, points


@pytest.mark.parametrize("mode", ["none", "canonical"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_incremental_milestones_match_full_rescan(mode, data):
    config, points = data.draw(_run_inputs(mode))
    state = run_stream(config, points)
    expected, trace = full_rescan_run(config, points)
    assert {name: getattr(state, name) for name in _MILESTONES} == expected
    assert state.trace == trace
    assert run_batch(config, points) == state


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
    RunConfig(tau=0.0)  # "never stop" is allowed
