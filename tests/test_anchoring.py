import pytest

from curvecast.anchoring import AnchorPolicy, fit_anchored_trend, next_canonical_anchor
from curvecast.errors import SequencingError
from curvecast.fitting import fit_power_law
from curvecast.levels import LevelParams
from curvecast.model import (FIRST_LEVEL, Observation, ObservationSeries, PowerLawParams,
                             eval_pattern)
from curvecast.synth import NoiseSpec, SynthSpec, build_traces, generate_series
from curvecast.trace import LearningTrace, extend_trace

from conftest import REFERENCE_FIT, exact_series_points, steep_params


def noiseless_series(count=18):
    return ObservationSeries(exact_series_points(REFERENCE_FIT, count=count))


class TestAnchorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnchorPolicy(mode="sometimes")

    def test_defaults(self):
        assert AnchorPolicy().mode == "none"


class TestCanonicalAnchorSequence:
    def test_base_case_reuses_working_level_asymptote(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(3, 7):
            extend_trace(trace, series)
        omega = 6
        assert next_canonical_anchor(trace, omega) == trace.alpha(6)

    def test_chains_previous_anchored_asymptote(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(3, 6):
            extend_trace(trace, series)
        omega = 5
        extend_trace(trace, series, omega=omega)
        assert next_canonical_anchor(trace, omega) == trace.trends[6].params.c

    def test_skips_nonconverged_links(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(3, 6):
            extend_trace(trace, series)
        extend_trace(trace, series, omega=5)
        broken = trace.trends[6]
        object.__setattr__(broken, "converged", False)
        assert next_canonical_anchor(trace, 5) == trace.alpha(5)

    def test_sequencing_error_before_working_level(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        extend_trace(trace, series)
        with pytest.raises(SequencingError):
            next_canonical_anchor(trace, 5)

    def test_unanchored_trend_past_the_working_level_breaks_the_chain(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(3, 7):
            extend_trace(trace, series)
        with pytest.raises(SequencingError, match="level 6 is not anchored"):
            next_canonical_anchor(trace, 5)

    def test_noiseless_anchors_stay_at_true_asymptote(self):
        series = noiseless_series(14)
        _, omega, anchored = build_traces(
            series, LevelParams(), AnchorPolicy(mode="canonical"))
        assert omega == 3
        for level in anchored.levels():
            if level > omega:
                trend = anchored.trends[level]
                anchor_value = trend.params.c + trend.anchor_residual
                assert anchor_value == pytest.approx(REFERENCE_FIT.c, abs=1e-4)


class TestExtendWithWorkingLevel:
    @staticmethod
    def noisy_series(count=16):
        return generate_series(SynthSpec(REFERENCE_FIT, count=count,
                                         noise=NoiseSpec("gaussian", sigma=0.05), seed=3))

    def test_is_the_anchored_fit_at_the_canonical_anchor(self):
        series = self.noisy_series()
        omega = 6
        trace = LearningTrace()
        for _ in range(3, omega + 1):
            extend_trace(trace, series)
        for level in range(omega + 1, len(series) + 1):
            previous = trace.trends[level - 1]
            expected = fit_anchored_trend(
                series.prefix(level), next_canonical_anchor(trace, omega),
                start_b=previous.params.b if previous.converged else None)
            assert extend_trace(trace, series, omega=omega) is None
            assert trace.trends[level] == expected
            assert trace.trends[level].anchor_residual is not None

    def test_anchor_and_fit_go_through_the_module_attributes(self, monkeypatch):
        # The bench tracer counts anchored fits and anchors by rebinding
        # these names; every level past the working level calls each once.
        import curvecast.trace as trace_module

        calls = []
        for name in ("next_canonical_anchor", "fit_anchored_trend"):
            original = getattr(trace_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(trace_module, name, counted)
        series = self.noisy_series(10)
        trace = LearningTrace()
        for _ in range(3, 6):
            extend_trace(trace, series)
        assert calls == []
        for _ in range(6, 11):
            extend_trace(trace, series, omega=5)
        assert calls == ["next_canonical_anchor", "fit_anchored_trend"] * 5

    @pytest.mark.parametrize("built", [0, 2, 3], ids=["empty", "two-levels", "three-levels"])
    def test_omega_ahead_of_the_trace_raises_and_stores_nothing(self, built):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(built):
            extend_trace(trace, series)
        before = dict(trace.trends)
        with pytest.raises(SequencingError, match="after the working level"):
            extend_trace(trace, series, omega=FIRST_LEVEL + built)
        assert trace.trends == before

    def test_unanchored_level_past_omega_raises_and_stores_nothing(self):
        series = noiseless_series(8)
        trace = LearningTrace()
        for _ in range(3, 7):
            extend_trace(trace, series)
        before = dict(trace.trends)
        with pytest.raises(SequencingError, match="level 6 is not anchored"):
            extend_trace(trace, series, omega=5)
        assert trace.trends == before


class TestFitAnchoredTrend:
    def test_returns_trend_with_anchor_residual(self):
        series = noiseless_series(10)
        trend = fit_anchored_trend(series.prefix(6), REFERENCE_FIT.c)
        assert trend.level == 6
        assert len(trend.residuals) == 6
        assert trend.anchor_residual == pytest.approx(0.0, abs=1e-6)

    def test_residual_balance_at_every_converged_fit(self, rng):
        for _ in range(8):
            true = steep_params(rng)
            n = int(rng.integers(5, 30))
            pts = [
                Observation(5000 * (i + 1),
                            min(max(eval_pattern(true, 5000 * (i + 1))
                                    + rng.normal(0, 0.05), 1e-9), 100.0))
                for i in range(n)
            ]
            anchor = true.c + float(rng.normal(0, 0.1))
            trend = fit_anchored_trend(pts, anchor)
            balance = sum(trend.residuals) + trend.anchor_residual
            assert abs(balance) <= 1e-6 * (n + 1)

    @pytest.mark.parametrize("anchor", [90.0], ids=["analytic"])
    def test_anchor_residual_is_the_fits_anchor_row(self, anchor):
        # The anchor sits at infinity, so its residual is exactly anchor - c,
        # also for a decay as slow as this one.
        pts = exact_series_points(PowerLawParams(50.0, 0.02, 99.0), count=30)
        trend = fit_anchored_trend(pts, anchor)
        assert trend == fit_power_law(pts, anchor=anchor)
        assert abs(sum(trend.residuals.tolist()) + trend.anchor_residual) <= 1e-9
        assert trend.anchor_residual == anchor - trend.params.c

    def test_anchor_residual_vanishes_along_noiseless_chain(self):
        series = noiseless_series(16)
        _, omega, anchored = build_traces(
            series, LevelParams(), AnchorPolicy(mode="canonical"))
        residuals = [abs(anchored.trends[lv].anchor_residual)
                     for lv in anchored.levels() if lv > omega]
        assert residuals[-1] <= 1e-6


class TestAnchoredTraceGuarantees:
    def test_correction_inequality_on_noisy_chain(self):
        # step-wise: the next anchor never overshoots the previous anchored
        # asymptote corrected by the residual mass, in the local direction
        true = REFERENCE_FIT
        series = generate_series(SynthSpec(true, count=35,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=11))
        _, omega, anchored = build_traces(
            series, LevelParams(), AnchorPolicy(mode="canonical"))
        levels = [lv for lv in anchored.levels() if lv > omega]
        checked = 0
        for prev, cur in zip(levels, levels[1:]):
            t_prev, t_cur = anchored.trends[prev], anchored.trends[cur]
            anchor_value = t_cur.params.c + t_cur.anchor_residual
            bound = t_prev.params.c - sum(t_cur.residuals) - t_cur.anchor_residual
            if t_cur.params.c <= t_prev.params.c:
                assert anchor_value <= bound + 1e-6
            else:
                assert anchor_value >= bound - 1e-6
            checked += 1
        assert checked >= 10

    def test_canonical_ordering_on_decreasing_backbone(self):
        # plain asymptotes stay at or below the anchored ones while the
        # reference backbone decreases (anchoring is conservative)
        true = REFERENCE_FIT
        series = generate_series(SynthSpec(true, count=35,
                                           noise=NoiseSpec("gaussian", sigma=0.03),
                                           seed=1))
        reference, omega, anchored = build_traces(
            series, LevelParams(), AnchorPolicy(mode="canonical"))
        post = [lv for lv in anchored.levels() if lv > omega]
        ref_post = [reference.alpha(lv) for lv in post]
        assert ref_post[-1] < ref_post[0]  # decreasing run (seed-pinned)
        band = 0.1
        violations = sum(
            1 for lv in post if reference.alpha(lv) > anchored.alpha(lv) + band
        )
        assert violations <= max(1, len(post) // 20)
