import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast import synth
from curvecast.anchoring import AnchorPolicy
from curvecast.cli import _parse_noise
from curvecast.fitting import fit_power_law
from curvecast.levels import LevelParams, verticality_limit
from curvecast.model import Observation, ObservationSeries, PowerLawParams, eval_pattern
from curvecast.synth import (
    CheckResult,
    NoiseSpec,
    SynthSpec,
    TheoremSuiteConfig,
    build_traces,
    generate_series,
    theorem_suite,
)
from curvecast.trace import LearningTrace

from conftest import REFERENCE_FIT

FLUCTUATION_BAND = verticality_limit(LevelParams()) * 5000


class TestGenerateSeries:
    def test_same_seed_same_series(self):
        spec = SynthSpec(REFERENCE_FIT, count=20,
                         noise=NoiseSpec("gaussian", sigma=0.1), seed=77)
        assert generate_series(spec) == generate_series(spec)

    def test_different_seed_differs(self):
        base = SynthSpec(REFERENCE_FIT, count=20,
                         noise=NoiseSpec("gaussian", sigma=0.1), seed=1)
        other = SynthSpec(REFERENCE_FIT, count=20,
                          noise=NoiseSpec("gaussian", sigma=0.1), seed=2)
        assert generate_series(base) != generate_series(other)

    def test_zero_sigma_equals_noiseless(self):
        clean = generate_series(SynthSpec(REFERENCE_FIT, count=15))
        zero = generate_series(SynthSpec(REFERENCE_FIT, count=15,
                                         noise=NoiseSpec("gaussian", sigma=0.0)))
        assert clean == zero

    def test_schedule(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, count=5, kernel=4000, step=3000))
        assert tuple(p.position for p in series.points) == (4000, 7000, 10000, 13000, 16000)

    def test_roundtrip_refit_recovers_params_at_every_level(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, count=25))
        for level in range(3, 26):
            result = fit_power_law(series.prefix(level))
            assert abs(result.params.a - REFERENCE_FIT.a) / REFERENCE_FIT.a < 1e-6
            assert abs(result.params.b - REFERENCE_FIT.b) / REFERENCE_FIT.b < 1e-6
            assert abs(result.params.c - REFERENCE_FIT.c) / REFERENCE_FIT.c < 1e-6

    def test_no_clamping_with_headroom(self):
        # 0.05-sigma noise stays inside (0, 100] when the asymptote leaves
        # a few sigmas of headroom
        true = PowerLawParams(500.0, 0.4, 99.5)
        for seed in range(5):
            series = generate_series(SynthSpec(true, count=60,
                                               noise=NoiseSpec("gaussian", sigma=0.05),
                                               seed=seed))
            assert all(0.0 < p.accuracy < 100.0 for p in series.points)

    def test_bumps_alternate_and_respect_max_position(self):
        noise = NoiseSpec("bumps", magnitude=2.0, count=3, max_position=20000)
        bumped = generate_series(SynthSpec(REFERENCE_FIT, count=10, noise=noise))
        clean = generate_series(SynthSpec(REFERENCE_FIT, count=10))
        deltas = [b.accuracy - c.accuracy
                  for b, c in zip(bumped.points, clean.points)]
        assert deltas[0] == pytest.approx(2.0)
        assert deltas[1] == pytest.approx(-2.0)
        assert deltas[2] == pytest.approx(2.0)
        assert all(d == pytest.approx(0.0) for d in deltas[3:])

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("pink")
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec("bumps", magnitude=0.0, count=2)

    @pytest.mark.parametrize("field, value", [
        ("count", 2.5), ("count", 2.0), ("count", True), ("max_position", 5e3),
        ("max_position", None),
    ])
    def test_noise_counts_and_positions_are_integers(self, field, value):
        # A float count used to pass here and fail in generate_series as a
        # slice index.
        with pytest.raises(ValueError, match="must be integers"):
            NoiseSpec("bumps", magnitude=1.0, **{"count": 2, field: value})

    @pytest.mark.parametrize("kind, fields", [
        ("gaussian", {"sigma": True}),
        ("bumps", {"magnitude": True, "count": 1}),
        ("none", {"sigma": -5.0}),
        ("none", {"magnitude": -1.0}),
        ("gaussian", {"magnitude": -2.0}),
        ("none", {"count": -3}),
        ("bumps", {"magnitude": 1.0, "count": 1, "max_position": -1}),
    ])
    def test_noise_sizes_are_checked_whatever_the_kind(self, kind, fields):
        # Every kind carries every field, so each field is checked even
        # where the kind does not read it.
        with pytest.raises(ValueError, match="must be"):
            NoiseSpec(kind, **fields)

    @pytest.mark.parametrize("text, fields", [
        ("none", {}),  # the defaults
        ("gaussian:0.05", {"kind": "gaussian", "sigma": 0.05}),  # the benchmark's noise
        ("gaussian:0", {"kind": "gaussian"}),
        ("bumps:1:2", {"kind": "bumps", "magnitude": 1.0, "count": 2}),
        ("bumps:0.5:3:20000", {"kind": "bumps", "magnitude": 0.5, "count": 3,
                               "max_position": 20000}),
    ])
    def test_cli_noise_and_the_defaults_construct(self, text, fields):
        assert _parse_noise(text) == NoiseSpec(**fields)

class TestSynthSpec:
    @pytest.mark.parametrize("value", [5000.0, 2.5, 0, -1, True, None])
    @pytest.mark.parametrize("field", ["kernel", "step", "count"])
    def test_schedule_is_integers_from_one(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SynthSpec(REFERENCE_FIT, **{field: value})

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec("gaussian", sigma=0.05)],
                             ids=["noiseless", "gaussian"])
    @pytest.mark.parametrize("seed", [2.5, 3.0, True, -1, None])
    def test_seed_is_an_integer_from_zero(self, seed, noise):
        # Checked with or without noise: a bad seed used to construct and
        # fail in numpy once a noisy series was generated.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SynthSpec(REFERENCE_FIT, noise=noise, seed=seed)

    def test_seed_zero_and_a_large_seed_are_accepted(self):
        noise = NoiseSpec("gaussian", sigma=0.05)
        for seed in (0, 2**64):
            assert len(generate_series(SynthSpec(REFERENCE_FIT, count=4, noise=noise,
                                                 seed=seed))) == 4

    @pytest.mark.parametrize("count, bumps, max_position, placed", [
        (60, 10, 20000, 4),  # the schedule places 4 of 10 at or below 20000
        (5, 2, 4999, 0),  # none: the kernel is past max_position
        (5, 6, 100_000, 5),  # the series is shorter than the bump count
    ])
    def test_every_bump_asked_for_is_placed(self, count, bumps, max_position, placed):
        noise = NoiseSpec("bumps", magnitude=1.0, count=bumps, max_position=max_position)
        with pytest.raises(ValueError, match=f"the schedule has {placed}$"):
            SynthSpec(REFERENCE_FIT, count=count, noise=noise)

    def test_bumps_that_just_fit_are_all_placed(self):
        noise = NoiseSpec("bumps", magnitude=1.0, count=4, max_position=20000)
        bumped = generate_series(SynthSpec(REFERENCE_FIT, count=6, noise=noise))
        clean = generate_series(SynthSpec(REFERENCE_FIT, count=6))
        deltas = (bumped.accuracies - clean.accuracies).tolist()
        assert deltas == pytest.approx([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])

    @pytest.mark.parametrize("kernel, step, count", [
        (2**63, 1, 1), (2**63 - 1, 1, 2), (5000, 2**62, 3),
    ])
    def test_last_position_is_below_2_63(self, kernel, step, count):
        with pytest.raises(ValueError, match="not below 2\\*\\*63"):
            SynthSpec(REFERENCE_FIT, kernel=kernel, step=step, count=count)

    def test_last_position_can_be_the_largest_int64(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, kernel=2**63 - 2, step=1, count=2))
        assert series.positions.tolist() == [2**63 - 2, 2**63 - 1]

    @pytest.mark.parametrize("true", [
        PowerLawParams(1772, 0.366, 74.86),  # about -3.6 at the kernel
        PowerLawParams(1, 0.01, 101),  # above 100 at every position
    ], ids=["below-zero-at-the-kernel", "above-100-at-the-end"])
    def test_curve_outside_the_accuracy_range_is_rejected(self, true):
        with pytest.raises(ValueError, match="the curve runs from"):
            SynthSpec(true)

    def test_curve_of_exactly_100_is_accepted(self):
        # 100 is an accuracy and is not clipped; one ulp more is rejected.
        top = PowerLawParams(1.0, 1.0, 100.0 + 1.0 / 5000)
        assert eval_pattern(top, 5000) == 100.0
        assert generate_series(SynthSpec(top, count=1)).accuracies.tolist() == [100.0]
        with pytest.raises(ValueError, match="the curve runs from"):
            SynthSpec(dataclasses.replace(top, c=math.nextafter(top.c, 200.0)), count=1)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(50, 2000), b=st.floats(0.1, 1), c=st.floats(60, 99.5),
       kernel=st.sampled_from([100, 1000, 5000]), count=st.integers(3, 60))
def test_spec_is_valid_exactly_when_its_ideal_curve_is(a, b, c, kernel, count):
    """Over a wide draw of curves and schedules, ``SynthSpec`` raises
    exactly when some sampled ideal value is not an accuracy; otherwise the
    noiseless series holds ``eval_pattern``'s values bit for bit, in the
    columns the constructor builds from the same observations."""
    true = PowerLawParams(a, b, c)
    positions = [kernel + kernel * i for i in range(count)]
    ideal = [eval_pattern(true, x) for x in positions]
    if not all(synth._MIN_ACCURACY <= value <= 100.0 for value in ideal):
        with pytest.raises(ValueError, match="the curve runs from"):
            SynthSpec(true, kernel=kernel, step=kernel, count=count)
        return
    series = generate_series(SynthSpec(true, kernel=kernel, step=kernel, count=count))
    assert series.accuracies.tobytes() == np.array(ideal).tobytes()
    expected = ObservationSeries(map(Observation, positions, ideal))
    for name in ("positions", "accuracies", "offsets"):
        column = getattr(series, name)
        assert column.dtype == getattr(expected, name).dtype
        assert column.tobytes() == getattr(expected, name).tobytes()
    assert series._buffer.log_x0 == expected._buffer.log_x0


class TestTheoremSuite:
    @pytest.mark.parametrize("true_params, budget, tolerance, error", [
        # The CLI's ideal and noisy configs (the latter the benchmark's too)
        # and the tests' configs.
        (REFERENCE_FIT, 0.0, 0.0, None),
        (REFERENCE_FIT, 0.05, 0.1, None),
        (REFERENCE_FIT, 0.05, FLUCTUATION_BAND, None),
        (REFERENCE_FIT, 0.0, FLUCTUATION_BAND, None),
        (REFERENCE_FIT, 1, 0, None),
        (REFERENCE_FIT, math.nan, 0.0, "violation_budget"),
        (REFERENCE_FIT, math.inf, 0.0, "violation_budget"),
        (REFERENCE_FIT, -0.5, 0.0, "violation_budget"),
        (REFERENCE_FIT, 2.0, 0.0, "violation_budget"),
        (REFERENCE_FIT, False, 0.0, "violation_budget"),
        (REFERENCE_FIT, "0.05", 0.0, "violation_budget"),
        (REFERENCE_FIT, None, 0.0, "violation_budget"),
        (REFERENCE_FIT, 0.0, math.nan, "monotone_tolerance"),
        (REFERENCE_FIT, 0.0, math.inf, "monotone_tolerance"),
        (REFERENCE_FIT, 0.0, -1.0, "monotone_tolerance"),
        (REFERENCE_FIT, 0.0, True, "monotone_tolerance"),
        (REFERENCE_FIT, 0.0, "0.1", "monotone_tolerance"),
        ((542.5451, 0.3838, 99.2876), 0.0, 0.0, "true_params"),
        (None, 0.0, 0.0, "true_params"),
    ], ids=lambda value: "true" if value is REFERENCE_FIT else repr(value))
    def test_config_is_checked_whole(self, true_params, budget, tolerance, error):
        def build():
            return TheoremSuiteConfig(true_params=true_params, violation_budget=budget,
                                      monotone_tolerance=tolerance)
        if error is None:
            assert build().violation_budget == budget
        else:
            with pytest.raises(ValueError, match=f"^{error} must be "):
                build()

    def test_all_checks_pass_on_ideal_data(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, count=30))
        report = theorem_suite(series, TheoremSuiteConfig(true_params=REFERENCE_FIT))
        assert report.all_passed, report.results
        names = set(report.results)
        assert {"backbone_monotone_after_working_level",
                "correctness_bound_decreasing",
                "layer_single_threshold_crossing",
                "anchored_residual_balance",
                "anchor_correction_inequality",
                "canonical_anchor_ordering"} <= names

    def test_series_without_a_working_level_skips_the_anchored_checks(self):
        # Six levels are one short of the default look-ahead window, so no
        # working level is declared and the anchored trace is never built.
        series = generate_series(SynthSpec(REFERENCE_FIT, count=8))
        _, omega, anchored = build_traces(series, LevelParams(), AnchorPolicy(mode="canonical"))
        assert omega is None and anchored is None
        report = theorem_suite(series, TheoremSuiteConfig(true_params=REFERENCE_FIT))
        for name in ("anchored_residual_balance", "anchor_residual_vanishes",
                     "anchor_correction_inequality", "canonical_anchor_ordering"):
            assert report.results[name] == CheckResult(True, 0, 0, "no working level")
        assert report.results["backbone_monotone_after_working_level"].detail == "omega=None"

    def test_layer_check_reads_the_backbone_checks_levels(self):
        # The backbone and layer guarantees are stated past the working
        # level, so all three checks read the converged levels from it on,
        # and none where no working level emerged, as on this noisy series
        # under the CLI's noisy budgets.
        true = PowerLawParams(500.0, 0.4, 95.0)
        noisy = generate_series(SynthSpec(true, count=20, seed=10,
                                          noise=NoiseSpec("gaussian", sigma=0.3)))
        report = theorem_suite(noisy, TheoremSuiteConfig(
            true_params=true, violation_budget=0.05, monotone_tolerance=0.1))
        assert build_traces(noisy, LevelParams(), AnchorPolicy())[1] is None
        assert report.results["backbone_monotone_after_working_level"] == CheckResult(
            True, 0, 0, "omega=None")
        assert report.results["layer_single_threshold_crossing"] == CheckResult(True, 0, 0)
        assert report.all_passed, report.results

        ideal = generate_series(SynthSpec(REFERENCE_FIT, count=30))
        results = theorem_suite(ideal, TheoremSuiteConfig(true_params=REFERENCE_FIT)).results
        steps = results["backbone_monotone_after_working_level"].checks
        assert steps > 0 and results["backbone_approaches_true_asymptote"].checks == steps
        # One monotonicity step and one threshold sweep per step.
        assert results["layer_single_threshold_crossing"].checks == 2 * steps

    def test_noisy_data_within_budget(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, count=40,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=3))
        config = TheoremSuiteConfig(true_params=REFERENCE_FIT, violation_budget=0.05,
                                    monotone_tolerance=FLUCTUATION_BAND)
        report = theorem_suite(series, config)
        core = ["backbone_monotone_after_working_level",
                "anchored_residual_balance",
                "anchor_correction_inequality",
                "layer_single_threshold_crossing"]
        for name in core:
            assert report.results[name].passed, report.results[name]

    def test_noisy_statistical_checks_across_seeds(self):
        # the true-curve oracle and the ordering check are direction
        # sensitive; they hold on a clear majority of seeds
        ok_oracle = ok_order = 0
        for seed in range(10):
            series = generate_series(SynthSpec(REFERENCE_FIT, count=35,
                                               noise=NoiseSpec("gaussian", sigma=0.05),
                                               seed=seed))
            config = TheoremSuiteConfig(true_params=REFERENCE_FIT,
                                        violation_budget=0.05,
                                        monotone_tolerance=FLUCTUATION_BAND)
            report = theorem_suite(series, config)
            ok_oracle += report.results["correctness_bound_true_curve_oracle"].passed
            ok_order += report.results["canonical_anchor_ordering"].passed
        assert ok_oracle >= 8
        assert ok_order >= 8

    def test_bump_scenario_defers_working_level(self):
        noise = NoiseSpec("bumps", magnitude=2.0, count=5, max_position=45000)
        series = generate_series(SynthSpec(REFERENCE_FIT, count=40, noise=noise))
        reference, omega, _ = build_traces(series, LevelParams(), AnchorPolicy())
        assert omega is not None
        last_bump_level = 5  # first five observations carry the bumps
        assert omega > last_bump_level
        # matches a direct scan of the definition over the backbone
        levels, alphas, positions = reference.converged_view()
        limit = verticality_limit(LevelParams())
        slopes = [abs(alphas[i + 1] - alphas[i]) / (positions[i + 1] - positions[i])
                  for i in range(len(alphas) - 1)]
        lookahead = LevelParams().lookahead
        expected = next(
            levels[s] for s in range(len(slopes) - lookahead)
            if all(sl <= limit for sl in slopes[s:s + lookahead + 1])
        )
        assert omega == expected


ANCHORED_CHECKS = ("anchored_residual_balance", "anchor_residual_vanishes",
                   "anchor_correction_inequality", "canonical_anchor_ordering")


class TestAnchoredChecksOnATamperedChain:
    """``theorem_suite`` on the real traces of one noisy series, with the
    anchored chain tampered with: each anchored check reports the damage.

    On this series every anchored step lowers the asymptote and the
    reference backbone falls past the working level, so a check's
    decreasing branch is the one a tamper reaches unless it raises ``c``.
    """

    SPEC = SynthSpec(REFERENCE_FIT, count=40, noise=NoiseSpec("gaussian", sigma=0.05), seed=3)
    CONFIG = TheoremSuiteConfig(true_params=REFERENCE_FIT, monotone_tolerance=FLUCTUATION_BAND)

    @pytest.fixture(scope="class")
    def traces(self):
        series = generate_series(self.SPEC)
        return series, build_traces(series, LevelParams(), AnchorPolicy(mode="canonical"))

    def suite_with(self, monkeypatch, traces, tamper):
        """Suite results with ``tamper(trends, levels)`` applied to a copy
        of the anchored trends; ``levels`` are those past the working level."""
        series, (reference, omega, anchored) = traces
        trends = dict(anchored.trends)
        tamper(trends, [level for level in trends if level > omega])
        tampered = LearningTrace(trends)
        monkeypatch.setattr(synth, "build_traces",
                            lambda *args: (reference, omega, tampered))
        return theorem_suite(series, self.CONFIG).results

    def test_the_untampered_chain_passes(self, monkeypatch, traces):
        series, (reference, omega, anchored) = traces
        assert omega is not None and anchored.last_level == len(series)
        past = [level for level in anchored.levels() if level > omega]
        assert all(anchored.trends[level].params.c <= anchored.trends[level - 1].params.c
                   for level in past[1:])
        assert reference.alpha(past[-1]) < reference.alpha(past[0])
        results = self.suite_with(monkeypatch, traces, lambda trends, levels: None)
        for name in ANCHORED_CHECKS:
            assert results[name].passed and results[name].violations == 0, name
            assert results[name].checks > 0, name

    @pytest.mark.parametrize("name, at, dc, dr", [
        # The anchor row no longer cancels the observation residuals.
        ("anchored_residual_balance", "middle", 0.0, 1.0),
        # The last anchor residual is the largest.
        ("anchor_residual_vanishes", "last", 0.0, 1.0),
        # A falling step whose anchor lies above the bound.
        ("anchor_correction_inequality", "middle", 0.0, 1.0),
        # A rising step: c up by 1 lowers the residual sum by the level,
        # so the anchor lies below the bound.
        ("anchor_correction_inequality", "middle", 1.0, 0.0),
        # An anchored asymptote below the falling reference's.
        ("canonical_anchor_ordering", "middle", -1.0, 0.0),
    ], ids=["balance", "vanishes", "correction-falling", "correction-rising", "ordering"])
    def test_one_shifted_trend_is_a_violation(self, monkeypatch, traces, name, at, dc, dr):
        def tamper(trends, levels):
            level = levels[-1] if at == "last" else levels[len(levels) // 2]
            trend = trends[level]
            p = trend.params
            trends[level] = dataclasses.replace(
                trend, params=PowerLawParams(p.a, p.b, p.c + dc),
                anchor_residual=trend.anchor_residual + dr)

        results = self.suite_with(monkeypatch, traces, tamper)
        assert not results[name].passed and results[name].violations >= 1, results[name]

    def test_a_single_converged_anchored_level_has_no_steps(self, monkeypatch, traces):
        def tamper(trends, levels):
            for level in levels[1:]:
                trends[level] = dataclasses.replace(trends[level], converged=False)

        results = self.suite_with(monkeypatch, traces, tamper)
        assert results["anchor_residual_vanishes"] == CheckResult(True, 0, 0)
        assert results["anchor_correction_inequality"] == CheckResult(True, 0, 0)
        assert results["canonical_anchor_ordering"] == CheckResult(True, 0, 1)

    def test_no_converged_anchored_level_checks_nothing(self, monkeypatch, traces):
        def tamper(trends, levels):
            for level in levels:
                trends[level] = dataclasses.replace(trends[level], converged=False)

        results = self.suite_with(monkeypatch, traces, tamper)
        for name in ANCHORED_CHECKS:
            assert results[name] == CheckResult(True, 0, 0), name
