import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvecast.trace
from curvecast.errors import InsufficientDataError
from curvecast.model import LearningTrend, Observation, ObservationSeries, PowerLawParams
from curvecast.synth import NoiseSpec, SynthSpec, generate_series
from curvecast.trace import (
    LearningTrace,
    _params_close,
    convergence_layer,
    convergence_layer_bounded,
    epsilon_bound,
    extend_trace,
    trend_intersection,
)

from conftest import REFERENCE_FIT, exact_series_points, sample_params, steep_params
from oracles import curve_value, sign_scan_crossings


def build_noiseless_trace(params=REFERENCE_FIT, count=20):
    series = ObservationSeries(exact_series_points(params, count=count))
    trace = LearningTrace()
    for _ in range(3, count + 1):
        extend_trace(trace, series)
    return trace, series


def make_trend(a, b, c, level=5, position=25000, converged=True):
    """Trend of ``level`` evenly spaced points ending at ``position``."""
    positions = [position * (i + 1) // level for i in range(level)]
    series = ObservationSeries(Observation(x, 50.0) for x in positions)
    return LearningTrend(series=series, params=PowerLawParams(a, b, c),
                         u_scale=a * positions[0] ** -b, converged=converged)


class TestExtendTrace:
    def test_first_level_is_three(self):
        series = ObservationSeries(exact_series_points(REFERENCE_FIT, count=5))
        trace = LearningTrace()
        extend_trace(trace, series)
        assert trace.levels() == [3]
        assert len(trace.trends[3].residuals) == 3

    def test_needs_enough_observations(self):
        series = ObservationSeries(exact_series_points(REFERENCE_FIT, count=3))
        trace = LearningTrace()
        extend_trace(trace, series)
        with pytest.raises(InsufficientDataError):
            extend_trace(trace, series)

    def test_noiseless_backbone_constant(self):
        trace, _ = build_noiseless_trace(count=20)
        for alpha in trace.backbone:
            assert abs(alpha - REFERENCE_FIT.c) / REFERENCE_FIT.c < 1e-6

    def test_backbone_mirrors_trend_asymptotes_exactly(self):
        trace, _ = build_noiseless_trace(count=12)
        for level in trace.levels():
            assert trace.alpha(level) == trace.trends[level].params.c

    def test_earlier_trends_unchanged(self):
        series = ObservationSeries(exact_series_points(REFERENCE_FIT, count=6))
        trace = LearningTrace()
        extend_trace(trace, series)
        snapshot = trace.trends[3]
        extend_trace(trace, series)
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
        # no horizon, one at the trend and one behind it: no bounded layer
        trend = make_trend(100, 0.5, 95, level=5, position=10000)
        for end_position in (None, 10000, 9999):
            assert convergence_layer_bounded(trend, end_position) is None
        assert convergence_layer_bounded(trend, 10001) > 0

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
        assert trend_intersection(PowerLawParams(500, 0.4, 99),
                                  PowerLawParams(500, 0.4, 98)) is None
        # stiff: the equal power terms reach 1e31 at the domain's low end,
        # and the gap of 1 between the curves must survive them
        assert trend_intersection(PowerLawParams(10, 5, 60),
                                  PowerLawParams(10, 5, 61)) is None

    def test_underflow_at_the_domain_end_is_no_crossing(self):
        # equal asymptotes: the difference is e^(-27 t), positive everywhere,
        # and reads exactly 0 where it underflows at x = 1e12
        assert trend_intersection(PowerLawParams(10, 27, 60),
                                  PowerLawParams(11, 27, 60)) is None

    def test_single_crossing_closed_form(self):
        x, y = trend_intersection(PowerLawParams(500, 0.4, 99),
                                  PowerLawParams(400, 0.4, 98.5))
        assert x == pytest.approx(200 ** 2.5, rel=1e-10)
        assert y == pytest.approx(96.5, abs=1e-9)

    def test_double_crossing(self):
        # difference has a positive hump between two sign changes
        t1 = PowerLawParams(100, 1.0, 99.0)
        t2 = PowerLawParams(50, 0.5, 99.5)
        x, _ = trend_intersection(t1, t2)
        flips, approx_roots = sign_scan_crossings((t1.a, t1.b, t1.c), (t2.a, t2.b, t2.c))
        assert flips == 2
        assert x == pytest.approx(approx_roots[-1], rel=1e-3)
        assert abs(curve_value(t1.a, t1.b, t1.c, x) - curve_value(t2.a, t2.b, t2.c, x)) < 1e-9

    def test_close_double_crossing(self):
        # the roots are 0.16% apart: a log-grid scan with coarser cells sees
        # no sign change at all
        t1 = PowerLawParams(100, 1.0, 99.0)
        t2 = PowerLawParams(50, 0.5, 99.0 + 6.25 - 1e-6)
        x, _ = trend_intersection(t1, t2)
        assert x == pytest.approx(16.0, rel=2e-3)
        assert abs(curve_value(t1.a, t1.b, t1.c, x)
                   - curve_value(t2.a, t2.b, t2.c, x)) <= 1e-9

    def test_crossing_beyond_domain_is_not_reported(self):
        # the true root is near x = 1e15, past the search domain's 1e12 end
        t3 = PowerLawParams(500, 0.4, 99.0)
        t4 = PowerLawParams(400, 0.4, 99.0 - 1e-4)
        assert trend_intersection(t4, t3) is None
        trace = LearningTrace()
        for level, p in ((3, t3), (4, t4)):
            trace.trends[level] = make_trend(p.a, p.b, p.c, level=level,
                                             position=5000 * level)
        assert epsilon_bound(trace, 4) is None

    def test_identical_params_rejected(self):
        p = PowerLawParams(500, 0.4, 99)
        with pytest.raises(ValueError):
            trend_intersection(p, p)
        # one ulp apart in a: rounding alone used to yield two crossings
        with pytest.raises(ValueError):
            trend_intersection(PowerLawParams(400.0, 0.5, 90.0),
                               PowerLawParams(400.00000000000006, 0.5, 90.0))

    def test_matches_sign_scan_oracle(self, rng):
        for _ in range(15):
            p1, p2 = sample_params(rng), sample_params(rng)
            if p1 == p2:
                continue
            crossing = trend_intersection(p1, p2)
            flips, approx_roots = sign_scan_crossings(
                (p1.a, p1.b, p1.c), (p2.a, p2.b, p2.c))
            assert (crossing is None) == (flips == 0)
            if crossing is not None:
                assert crossing[0] == pytest.approx(approx_roots[-1], rel=1e-3)

    def test_crossing_below_the_float_range(self):
        # the power terms pass e^700 at the low end of the domain, and the
        # curves meet where their common value overflows a float
        p1, p2 = (1000, 60, 80), (10, 60.35, 90)
        x, y = trend_intersection(PowerLawParams(*p1), PowerLawParams(*p2))
        flips, approx_roots = sign_scan_crossings(p1, p2, n=50_000)
        assert flips == 1
        assert x == pytest.approx(approx_roots[0], rel=1e-3)
        assert y == -math.inf

    def test_evaluations_per_solve(self):
        # Newton from the analytic start needs few evaluations of the
        # difference per monotone piece on the consecutive trends of a noisy
        # reference trace (4.9 here); the bisection it replaced took about 50.
        rng = np.random.default_rng(7)
        series = generate_series(SynthSpec(steep_params(rng), count=60,
                                           noise=NoiseSpec("gaussian", sigma=0.05), seed=7))
        trace = LearningTrace()
        for _ in range(3, 61):
            extend_trace(trace, series)
        evaluations = []
        solve = curvecast.trace._newton

        def counting(diff, *args):
            def counted(t):
                evaluations.append(t)
                return diff(t)
            return solve(counted, *args)

        with mock.patch.object(curvecast.trace, "_newton", side_effect=counting) as solves:
            bounds = [epsilon_bound(trace, level) for level in range(4, 61)]
        assert sum(b is not None for b in bounds) >= 20
        assert solves.call_count == sum(b is not None for b in bounds)
        assert len(evaluations) <= 7 * solves.call_count

    def test_only_the_last_crossing_is_solved(self):
        # Both pairs turn at x = 16. The first crosses on both sides of it,
        # and only the upper root is solved; the second crosses below it
        # only, so the lower piece is solved.
        pieces = []
        solve = curvecast.trace._newton

        def recording(diff, lo, hi, glo, t):
            pieces.append((lo, hi))
            return solve(diff, lo, hi, glo, t)

        t_turn, t_lo, t_hi = math.log(16.0), math.log(1e-6), math.log(1e12)
        with mock.patch.object(curvecast.trace, "_newton", side_effect=recording):
            upper, _ = trend_intersection(PowerLawParams(100, 1.0, 99.0),
                                          PowerLawParams(50, 0.5, 99.5))
            assert len(pieces) == 1
            assert pieces[0] == (pytest.approx(t_turn, rel=1e-12), t_hi)
            lower, _ = trend_intersection(PowerLawParams(100, 1.0, 99.5),
                                          PowerLawParams(50, 0.5, 99.0))
            assert len(pieces) == 2
            assert pieces[1] == (t_lo, pytest.approx(t_turn, rel=1e-12))
        assert lower < 16.0 < upper


def _params_st(a, b, c):
    return st.builds(PowerLawParams, st.floats(*a), st.floats(*b), st.floats(*c))


# the ranges of conftest.steep_params and conftest.sample_params, and stiff
# trends like the b -> inf plateau fits (b near 61), whose power terms pass
# e^700 at the low end of the domain
_RANGES = {
    "steep": dict(a=(400, 900), b=(0.35, 0.5), c=(90, 99)),
    "sampled": dict(a=(10, 1000), b=(0.2, 1.5), c=(85, 100)),
    "stiff": dict(a=(10, 1000), b=(5, 64), c=(60, 100)),
}
_REGIMES = {name: _params_st(**ranges) for name, ranges in _RANGES.items()}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@settings(max_examples=100, deadline=None)
# Stiff decays one ulp apart, where the sign scan sees rounding noise. In
# the first, the difference stays inside its rounding band for x in about
# 0.0021-0.0024, and the last of the scan's 1,137 flips lies 3.2% from the
# crossing solved; in the second, no crossing is solved and the scan counts
# 1,326 flips; in the third, the one flip straddles an exact zero. An
# example fills only the arguments that @given draws, so each runs under
# every regime.
@example(data=None, pair=(PowerLawParams(10.0, 5.0, 60.0),
                          PowerLawParams(10.0, 5.000000000000001, 61.0)))
@example(data=None, pair=(PowerLawParams(27.47957328580167, 25.9978406687762, 63.214517935263615),
                          PowerLawParams(27.47957328580167, 25.997840668776202, 82.94166237245696)))
@example(data=None, pair=(PowerLawParams(963.75202448836, 52.686905073971396, 82.0),
                          PowerLawParams(963.75202448836, 52.68690507397141, 83.0)))
@given(data=st.data(), pair=st.none())
def test_intersection_matches_sign_scan_property(regime, data, pair):
    p1, p2 = pair or (data.draw(_REGIMES[regime]), data.draw(_REGIMES[regime]))
    if _params_close(p1, p2):
        with pytest.raises(ValueError):
            trend_intersection(p1, p2)
        return
    crossing = trend_intersection(p1, p2)
    # 50,000 log cells: a cell's midpoint is within a ratio of 1 + 4.2e-4 of
    # any root inside it, well within the 1e-3 tolerance
    flips, approx_roots = sign_scan_crossings((p1.a, p1.b, p1.c), (p2.a, p2.b, p2.c),
                                              n=50_000)
    # A flip inside the difference's rounding band is rounding noise: there
    # the difference is zero to float precision, as it is at every point of
    # the band, so a crossing solved there need only lie in the band too,
    # and no crossing is as good an answer as any.
    if crossing is None:
        assert all(g <= band for g, band in (_rounding_band(p1, p2, x) for x in approx_roots))
        return
    assert flips > 0
    g, band = _rounding_band(p1, p2, approx_roots[-1])
    if g <= band:
        g, band = _rounding_band(p1, p2, crossing[0])
        assert g <= band
    else:
        assert crossing[0] == pytest.approx(approx_roots[-1], rel=1e-3)


def _rounding_band(p1, p2, x):
    """``(|g|, band)`` of the difference at ``t = log x``, both scaled by
    ``e^-m`` for the largest exponent ``m``, so that nothing overflows.

    ``p = e^(log a - b t)`` carries the rounding of its exponent, about
    ``eps * (|log a| + |b t|)``, as relative error, so each power term is
    weighted by that in the size of ``g``. The slope term allows a few ulps
    of ``t`` and the rounding of ``x = e^t``.
    """
    eps = sys.float_info.epsilon
    t = math.log(x)
    e1, e2 = math.log(p1.a) - p1.b * t, math.log(p2.a) - p2.b * t
    m = max(e1, e2, 0.0)
    q1, q2 = math.exp(e1 - m), math.exp(e2 - m)
    g = (p1.c - p2.c) * math.exp(-m) - q1 + q2
    slope = p1.b * q1 - p2.b * q2
    size = ((abs(p1.c) + abs(p2.c)) * math.exp(-m)
            + q1 * (1.0 + abs(math.log(p1.a)) + abs(p1.b * t))
            + q2 * (1.0 + abs(math.log(p2.a)) + abs(p2.b * t)))
    return abs(g), 8.0 * eps * size + abs(slope) * 4.0 * eps * (abs(t) + 1.0)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_crossings_lie_within_the_rounding_band(regime, data):
    p1, p2 = data.draw(_REGIMES[regime]), data.draw(_REGIMES[regime])
    assume(not _params_close(p1, p2))
    crossing = trend_intersection(p1, p2)
    if crossing is not None:
        g, band = _rounding_band(p1, p2, crossing[0])
        assert g <= band


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equal_decay_crossing_closed_form(regime, data):
    ranges = _RANGES[regime]
    p1 = data.draw(_REGIMES[regime])
    a2, c2 = data.draw(st.floats(*ranges["a"])), data.draw(st.floats(*ranges["c"]))
    p2 = PowerLawParams(a2, p1.b, c2)
    assume(not _params_close(p1, p2))
    # Scales closer than a thousandth leave g the small difference of two
    # large power terms; the closed form, subtracting the scales first,
    # does not see that rounding.
    assume(abs(p1.a - a2) >= 1e-3 * max(p1.a, a2))
    dc = p1.c - c2
    ratio = (p1.a - a2) / dc if dc else math.inf
    log_x = math.log(ratio) / p1.b if 0.0 < ratio < math.inf else math.inf
    lo, hi = math.log(1e-6), math.log(1e12)
    assume(abs(log_x - lo) > 1e-6 and abs(log_x - hi) > 1e-6)
    crossing = trend_intersection(p1, p2)
    if not lo < log_x < hi:
        assert crossing is None
    else:
        assert crossing[0] == pytest.approx(ratio ** (1.0 / p1.b), rel=1e-10)


def decreasing_synthetic_trace(levels=12):
    """Handcrafted trace with decreasing asymptotes and guaranteed
    consecutive crossings (scales decrease alongside)."""
    trace = LearningTrace()
    for level in range(3, levels + 1):
        trend = make_trend(500.0 - 5.0 * level, 0.4, 99.0 + 10.0 / level,
                           level=level, position=5000 * level)
        trace.trends[level] = trend
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
        assert trace.trends[4].params.c > trace.trends[3].params.c
        assert epsilon_bound(trace, 4) == 0.0

    def test_requires_level_four(self):
        trace, _ = build_noiseless_trace(count=5)
        with pytest.raises(ValueError):
            epsilon_bound(trace, 3)

    @pytest.mark.parametrize("missing", [4, 5], ids=["previous", "current"])
    def test_requires_both_levels_present(self, missing):
        trace, _ = build_noiseless_trace(count=6)
        del trace.trends[missing]
        with pytest.raises(ValueError, match="levels 4 and 5 must both be present"):
            epsilon_bound(trace, 5)

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
        assert epsilon_bound(trace, 4) is None

    def test_unavailable_next_to_a_nonconverged_trend(self):
        trace = decreasing_synthetic_trace(levels=8)
        assert epsilon_bound(trace, 5) is not None and epsilon_bound(trace, 6) is not None
        trace.trends[5] = dataclasses.replace(trace.trends[5], converged=False)
        assert epsilon_bound(trace, 5) is None
        assert epsilon_bound(trace, 6) is None
        assert epsilon_bound(trace, 7) is not None

    def test_not_exposed_on_increasing_branch(self):
        trace = LearningTrace()
        for level, c in zip((3, 4), (98.0, 99.0)):
            trend = make_trend(500.0 - 5 * level, 0.4, c, level=level,
                               position=5000 * level)
            trace.trends[level] = trend
        assert epsilon_bound(trace, 4) is None

    def test_bound_validity_on_grid(self):
        # all later trends stay within eps_i of each other past the crossing
        trace = decreasing_synthetic_trace(levels=14)
        for i in (5, 8, 11):
            eps = epsilon_bound(trace, i)
            qx, _ = trend_intersection(trace.trends[i].params,
                                       trace.trends[i - 1].params)
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
        for _ in range(3, 26):
            extend_trace(trace, series)
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
        levels, alphas, positions = trace.converged_view()
        assert levels == [3] and alphas == [99.0] and positions == [15000]


class TestDerivedViews:
    def test_views_are_read_off_the_trends(self):
        trace = LearningTrace()
        assert trace.last_level is None and trace.levels() == [] and trace.backbone == ()
        asymptotes = {3: 99.5, 4: 98.25, 5: 101.0}
        for level, c in asymptotes.items():
            trace.trends[level] = make_trend(500.0, 0.4, c, level=level,
                                             position=5000 * level,
                                             converged=level != 5)
        assert trace.last_level == 5
        assert trace.levels() == [3, 4, 5]
        assert [trace.alpha(level) for level in trace.levels()] == [99.5, 98.25, 101.0]
        assert trace.backbone == (99.5, 98.25, 101.0)
        with pytest.raises(AttributeError):
            trace.backbone.append(97.0)
