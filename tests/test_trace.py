import pytest

from curvecast.errors import InsufficientDataError, SequencingError
from curvecast.model import LearningTrend, ObservationSeries, PowerLawParams
from curvecast.trace import (
    CrossingPoints,
    LearningTrace,
    convergence_layer,
    convergence_layer_bounded,
    epsilon_bound,
    extend_trace,
    trend_intersection,
)

from conftest import REFERENCE_FIT, exact_series_points, sample_params
from oracles import curve_value, sign_scan_crossings


def build_noiseless_trace(params=REFERENCE_FIT, count=20):
    series = ObservationSeries.from_points(exact_series_points(params, count=count))
    trace = LearningTrace()
    for level in range(3, count + 1):
        extend_trace(trace, series, level)
    return trace, series


def make_trend(a, b, c, level=5, position=25000, converged=True):
    return LearningTrend(
        level=level,
        params=PowerLawParams(a, b, c),
        residuals=(0.0,) * level,
        position=position,
        converged=converged,
    )


class TestExtendTrace:
    def test_first_level_is_three(self):
        series = ObservationSeries.from_points(exact_series_points(REFERENCE_FIT, count=5))
        trace = LearningTrace()
        extend_trace(trace, series, 3)
        assert trace.levels() == [3]
        assert len(trace.trends[3].residuals) == 3

    def test_out_of_order_levels_rejected(self):
        series = ObservationSeries.from_points(exact_series_points(REFERENCE_FIT, count=6))
        trace = LearningTrace()
        with pytest.raises(SequencingError):
            extend_trace(trace, series, 4)
        extend_trace(trace, series, 3)
        with pytest.raises(SequencingError):
            extend_trace(trace, series, 5)

    def test_needs_enough_observations(self):
        series = ObservationSeries.from_points(exact_series_points(REFERENCE_FIT, count=3))
        trace = LearningTrace()
        extend_trace(trace, series, 3)
        with pytest.raises(InsufficientDataError):
            extend_trace(trace, series, 4)

    def test_noiseless_backbone_constant(self):
        trace, _ = build_noiseless_trace(count=20)
        for alpha in trace.backbone:
            assert abs(alpha - REFERENCE_FIT.c) / REFERENCE_FIT.c < 1e-6

    def test_backbone_mirrors_trend_asymptotes_exactly(self):
        trace, _ = build_noiseless_trace(count=12)
        for level in trace.levels():
            assert trace.alpha(level) == trace.trends[level].params.c

    def test_earlier_trends_unchanged(self):
        series = ObservationSeries.from_points(exact_series_points(REFERENCE_FIT, count=6))
        trace = LearningTrace()
        extend_trace(trace, series, 3)
        snapshot = trace.trends[3]
        extend_trace(trace, series, 4)
        assert trace.trends[3] is snapshot


class TestConvergenceLayer:
    def test_hand_value(self):
        trend = make_trend(100, 0.5, 95, level=5, position=10000)
        assert convergence_layer(trend) == pytest.approx(1.0, rel=1e-12)

    def test_algebraic_identity(self, rng):
        for _ in range(10):
            p = sample_params(rng)
            trend = make_trend(p.a, p.b, p.c, level=4, position=int(rng.integers(5000, 300000)))
            assert convergence_layer(trend) == pytest.approx(
                p.a * trend.position ** (-p.b), rel=1e-12)

    def test_strictly_decreasing_on_noiseless_trace(self):
        trace, _ = build_noiseless_trace(count=20)
        layers = [convergence_layer(trace.trends[lv]) for lv in trace.levels()]
        assert all(b < a for a, b in zip(layers, layers[1:]))


class TestBoundedLayer:
    def test_hand_value(self):
        trend = make_trend(100, 0.5, 95, level=5, position=10000)
        assert convergence_layer_bounded(trend, 40000) == pytest.approx(0.5, rel=1e-12)

    def test_requires_horizon_beyond_trend(self):
        trend = make_trend(100, 0.5, 95, level=5, position=10000)
        with pytest.raises(ValueError):
            convergence_layer_bounded(trend, 10000)

    def test_approaches_plain_layer_monotonically(self, rng):
        trend = make_trend(300, 0.45, 96, level=6, position=30000)
        plain = convergence_layer(trend)
        previous = None
        for k in range(6, 13):
            bounded = convergence_layer_bounded(trend, 10 ** k)
            assert bounded < plain
            if previous is not None:
                assert bounded > previous  # monotone approach from below
            previous = bounded
        # residual gap at the widest horizon is exactly the curve tail there
        assert plain - convergence_layer_bounded(trend, 10 ** 12) == pytest.approx(
            300 * (10 ** 12) ** (-0.45), rel=1e-9)

    def test_always_below_plain_layer(self, rng):
        for _ in range(20):
            p = sample_params(rng)
            pos = int(rng.integers(5000, 100000))
            end = int(rng.integers(pos + 1, 10 ** 7))
            trend = make_trend(p.a, p.b, p.c, level=3, position=pos)
            assert convergence_layer_bounded(trend, end) < convergence_layer(trend)


class TestTrendIntersection:
    def test_parallel_curves_never_cross(self):
        cp = trend_intersection(PowerLawParams(500, 0.4, 99), PowerLawParams(500, 0.4, 98))
        assert cp.count == 0 and cp.first is None and cp.last is None

    def test_single_crossing_closed_form(self):
        cp = trend_intersection(PowerLawParams(500, 0.4, 99), PowerLawParams(400, 0.4, 98.5))
        assert cp.first is None
        x, y = cp.last
        assert x == pytest.approx(200 ** 2.5, rel=1e-6)
        assert y == pytest.approx(96.5, abs=1e-6)

    def test_double_crossing(self):
        # difference has a positive hump between two sign changes
        t1 = PowerLawParams(100, 1.0, 99.0)
        t2 = PowerLawParams(50, 0.5, 99.5)
        cp = trend_intersection(t1, t2)
        assert cp.count == 2
        assert cp.first[0] < cp.last[0]
        for x, _ in (cp.first, cp.last):
            assert abs(curve_value(*  (t1.a, t1.b, t1.c), x)
                       - curve_value(*(t2.a, t2.b, t2.c), x)) < 1e-9

    def test_identical_params_rejected(self):
        p = PowerLawParams(500, 0.4, 99)
        with pytest.raises(ValueError):
            trend_intersection(p, p)

    def test_matches_sign_scan_oracle(self, rng):
        for _ in range(15):
            p1, p2 = sample_params(rng), sample_params(rng)
            if p1 == p2:
                continue
            cp = trend_intersection(p1, p2)
            flips, approx_roots = sign_scan_crossings(
                (p1.a, p1.b, p1.c), (p2.a, p2.b, p2.c))
            assert cp.count == flips
            found = sorted(x for x, _ in filter(None, (cp.first, cp.last)))
            for ours, scanned in zip(found, approx_roots):
                assert ours == pytest.approx(scanned, rel=1e-3)

    def test_crossing_points_ordering_enforced(self):
        with pytest.raises(ValueError):
            CrossingPoints(first=(10.0, 95.0), last=(5.0, 94.0))


def decreasing_synthetic_trace(levels=12):
    """Handcrafted trace with decreasing asymptotes and guaranteed
    consecutive crossings (scales decrease alongside)."""
    trace = LearningTrace()
    for level in range(3, levels + 1):
        trend = make_trend(500.0 - 5.0 * level, 0.4, 99.0 + 10.0 / level,
                           level=level, position=5000 * level)
        trace.trends[level] = trend
        trace.backbone.append(trend.params.c)
    return trace


class TestEpsilonBound:
    def test_identical_trends_give_zero(self):
        trace, _ = build_noiseless_trace(count=8)
        for level in range(4, 9):
            assert epsilon_bound(trace, level) == 0.0

    def test_coincident_trends_with_rounding_rise_give_zero(self):
        # coincidence is tested before the increasing-branch check, so a
        # rounding-level rise of the asymptote still reads as "same trend"
        trace = LearningTrace()
        for level, c in ((3, 99.0), (4, 99.0 + 1e-13)):
            trace.trends[level] = make_trend(500.0, 0.4, c, level=level,
                                             position=5000 * level)
            trace.backbone.append(c)
        assert trace.trends[4].params.c > trace.trends[3].params.c
        assert epsilon_bound(trace, 4) == 0.0

    def test_requires_level_four(self):
        trace, _ = build_noiseless_trace(count=5)
        with pytest.raises(ValueError):
            epsilon_bound(trace, 3)

    def test_decreasing_synthetic_sequence_is_monotone_to_zero(self):
        trace = decreasing_synthetic_trace(levels=14)
        values = [epsilon_bound(trace, lv) for lv in range(4, 15)]
        assert all(v is not None for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))
        # closed form of the construction: eps_i = 2 * a_i / (i (i - 1))
        for level, value in zip(range(4, 15), values):
            expected = 2.0 * (500.0 - 5.0 * level) / (level * (level - 1))
            assert value == pytest.approx(expected, rel=1e-6)

    def test_unavailable_without_crossing(self):
        trace = LearningTrace()
        for level, (a, c) in zip((3, 4), ((500.0, 99.0), (500.0, 98.5))):
            trend = make_trend(a, 0.4, c, level=level, position=5000 * level)
            trace.trends[level] = trend
            trace.backbone.append(c)
        assert epsilon_bound(trace, 4) is None

    def test_not_exposed_on_increasing_branch(self):
        trace = LearningTrace()
        for level, c in zip((3, 4), (98.0, 99.0)):
            trend = make_trend(500.0 - 5 * level, 0.4, c, level=level,
                               position=5000 * level)
            trace.trends[level] = trend
            trace.backbone.append(c)
        assert epsilon_bound(trace, 4) is None

    def test_bound_validity_on_grid(self):
        # all later trends stay within eps_i of each other past the crossing
        trace = decreasing_synthetic_trace(levels=14)
        for i in (5, 8, 11):
            eps = epsilon_bound(trace, i)
            crossing = trend_intersection(trace.trends[i].params,
                                          trace.trends[i - 1].params)
            qx = crossing.last[0]
            grid = [qx * (1.12 ** k) for k in range(80)]
            for k in range(i, 15):
                for j in range(i, 15):
                    pk, pj = trace.trends[k].params, trace.trends[j].params
                    worst = max(
                        abs(curve_value(pk.a, pk.b, pk.c, x)
                            - curve_value(pj.a, pj.b, pj.c, x))
                        for x in grid
                    )
                    assert worst <= eps + 1e-9


class TestTrendPivoting:
    def test_trends_straddle_noisy_data_while_backbone_settles(self):
        # each fitted trend passes through its point cloud (residuals of
        # both signs) and the asymptotes stop swinging after early levels
        from curvecast.synth import NoiseSpec, SynthSpec, generate_series

        series = generate_series(SynthSpec(REFERENCE_FIT, count=25,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=2))
        trace = LearningTrace()
        for level in range(3, 26):
            extend_trace(trace, series, level)
        for level in range(5, 26):
            residuals = trace.trends[level].residuals
            assert min(residuals) < 0 < max(residuals)
        early = [abs(b - a) for a, b in zip(trace.backbone[:6], trace.backbone[1:7])]
        late = [abs(b - a) for a, b in zip(trace.backbone[-7:], trace.backbone[-6:])]
        assert max(late) < max(early)


class TestConvergedView:
    def test_excludes_failed_fits(self):
        trace = LearningTrace()
        good = make_trend(500, 0.4, 99, level=3, position=15000)
        bad = make_trend(400, 0.5, 98, level=4, position=20000, converged=False)
        trace.trends[3], trace.trends[4] = good, bad
        trace.backbone.extend([99.0, 98.0])
        levels, alphas, positions = trace.converged_view()
        assert levels == [3] and alphas == [99.0] and positions == [15000]
