import math

import pytest

from curvecast.errors import InsufficientDataError
from curvecast.fitting import FitConfig, fit_power_law
from curvecast.model import Observation, PowerLawParams, eval_pattern
from curvecast.synth import NoiseSpec, SynthSpec, generate_series

from conftest import REFERENCE_FIT, exact_series_points, sample_params
from oracles import grid_polish_fit, sum_squared_cost


def rel_err(fit, true):
    return max(
        abs(fit.a - true.a) / true.a,
        abs(fit.b - true.b) / true.b,
        abs(fit.c - true.c) / abs(true.c),
    )


class TestInitialGuess:
    def test_seed_for_paper_fit_converges(self):
        pts = exact_series_points(REFERENCE_FIT, count=30)
        result = fit_power_law(pts, config=FitConfig(max_iterations=200))
        assert result.converged and result.iterations <= 200
        assert rel_err(result.params, REFERENCE_FIT) < 1e-6


class TestFitPowerLaw:
    def test_recovers_exact_samples(self):
        pts = exact_series_points(REFERENCE_FIT, count=20, kernel=5000, step=5000)
        result = fit_power_law(pts)
        assert result.converged
        assert rel_err(result.params, REFERENCE_FIT) < 1e-6

    def test_three_point_interpolation(self):
        true = PowerLawParams(1, 1, 100)
        pts = [Observation(x, eval_pattern(true, x)) for x in (1, 2, 4)]
        result = fit_power_law(pts)
        assert result.final_cost < 1e-16
        assert len(result.residuals) == 3

    def test_anchor_at_true_asymptote_is_noop(self):
        pts = exact_series_points(REFERENCE_FIT, count=15)
        plain = fit_power_law(pts)
        anchored = fit_power_law(pts, anchor=REFERENCE_FIT.c)
        assert abs(anchored.params.a - plain.params.a) < 1e-8 * plain.params.a
        assert abs(anchored.params.b - plain.params.b) < 1e-8
        assert abs(anchored.params.c - plain.params.c) < 1e-8
        assert len(anchored.residuals) == len(pts) + 1

    def test_analytic_and_finite_anchor_agree(self, rng):
        # The far pseudo-observation behaves as infinity once the decay
        # exponent clears ~0.1 (its power term underflows); on identified
        # data the two representations coincide.
        for _ in range(5):
            true = sample_params(rng)
            pts = exact_series_points(true, count=12)
            analytic = fit_power_law(pts, anchor=true.c)
            finite = fit_power_law(pts, anchor=true.c, anchor_x=1e200)
            assert abs(analytic.params.a - finite.params.a) <= 1e-9 * analytic.params.a
            assert abs(analytic.params.b - finite.params.b) <= 1e-9
            assert abs(analytic.params.c - finite.params.c) <= 1e-9

    def test_analytic_and_finite_agree_with_offset_anchor(self, rng):
        from conftest import steep_params

        for seed in range(6):
            true = steep_params(rng)
            pts = [
                Observation(5000 * (i + 1),
                            min(max(eval_pattern(true, 5000 * (i + 1))
                                    + rng.normal(0, 0.05), 1e-9), 100.0))
                for i in range(20)
            ]
            anchor = fit_power_law(pts).params.c + 0.05
            analytic = fit_power_law(pts, anchor=anchor)
            finite = fit_power_law(pts, anchor=anchor, anchor_x=1e200)
            assert analytic.params.b > 0.1 and finite.params.b > 0.1
            assert abs(analytic.params.a - finite.params.a) <= 1e-9 * analytic.params.a
            assert abs(analytic.params.b - finite.params.b) <= 1e-9
            assert abs(analytic.params.c - finite.params.c) <= 1e-9

    def test_residual_sum_stationarity(self, rng):
        for _ in range(10):
            true = sample_params(rng)
            n = int(rng.integers(5, 50))
            pts = [
                Observation(5000 * (i + 1),
                            min(max(eval_pattern(true, 5000 * (i + 1))
                                    + rng.normal(0, 0.05), 1e-9), 100.0))
                for i in range(n)
            ]
            plain = fit_power_law(pts)
            assert abs(sum(plain.residuals)) <= 1e-6 * n
            anchored = fit_power_law(pts, anchor=true.c)
            assert abs(sum(anchored.residuals)) <= 1e-6 * (n + 1)
            finite = fit_power_law(pts, anchor=true.c, anchor_x=1e7)
            # a is exactly optimal for the returned b: the residuals are
            # orthogonal to the power term, whose anchor row weighs 0
            # (analytic) or anchor_x**(-b) (finite)
            for fit, anchor_row in ((plain, []), (anchored, [0.0]),
                                    (finite, [1e7 ** -finite.params.b])):
                if fit.converged:
                    weights = [p.position ** -fit.params.b for p in pts] + anchor_row
                    assert abs(sum(r * w for r, w in zip(fit.residuals, weights))) <= 1e-6 * n

    def test_idempotent_refit(self, rng):
        true = sample_params(rng)
        pts = [
            Observation(5000 * (i + 1),
                        min(max(eval_pattern(true, 5000 * (i + 1))
                                + rng.normal(0, 0.03), 1e-9), 100.0))
            for i in range(25)
        ]
        first = fit_power_law(pts)
        second = fit_power_law(pts, initial=first.params)
        assert abs(second.final_cost - first.final_cost) < 1e-12 * max(first.final_cost, 1e-300)

    def test_positivity_on_decreasing_input(self):
        # Inputs with no optimum inside the family: the best scale is <= 0
        # (decreasing, flat) or log b ends on its lower rail (the bumps of
        # acceptance criterion 8, levels 3-8). Each is reported non-converged
        # with positive parameters.
        decreasing = [Observation(10, 90.0), Observation(20, 85.0), Observation(30, 80.0),
                      Observation(40, 78.0)]
        flat = [Observation(x, 95.0) for x in (10, 20, 30, 40)]
        bumps = generate_series(SynthSpec(REFERENCE_FIT, count=40, noise=NoiseSpec(
            "bumps", magnitude=2.0, count=5, max_position=45000)))
        inputs = [decreasing, flat] + [bumps.prefix(level) for level in range(3, 9)]
        results = [fit_power_law(pts) for pts in inputs]
        for result in results:
            assert result.params.a > 0
            assert result.params.b > 0
            assert result.converged is False
        on_decreasing, on_flat = results[:2]
        assert on_decreasing.params.a == 1e-20
        assert on_decreasing.final_cost == 86.75
        assert on_flat.final_cost < 1e-30

    def test_matches_grid_polish_oracle(self, rng):
        for _ in range(10):
            true = sample_params(rng)
            pts = exact_series_points(true, count=15)
            xs = [p.position for p in pts]
            ys = [p.accuracy for p in pts]
            result = fit_power_law(pts)
            *_, oracle_cost = grid_polish_fit(xs, ys)
            fit_cost = sum_squared_cost(result.params.a, result.params.b,
                                        result.params.c, xs, ys)
            assert fit_cost <= oracle_cost * (1 + 1e-4) + 1e-9

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([Observation(1, 50.0), Observation(2, 60.0)])

    def test_iteration_cap_reports_nonconvergence(self):
        pts = [
            Observation(x, y) for x, y in
            [(10, 50.0), (20, 80.0), (30, 60.0), (40, 90.0), (50, 55.0)]
        ]
        result = fit_power_law(pts, config=FitConfig(max_iterations=1))
        assert result.iterations == 1
        # caller decides: a result is returned either way
        assert isinstance(result.converged, bool)

    def test_anchor_validation(self):
        pts = exact_series_points(REFERENCE_FIT, count=5)
        with pytest.raises(ValueError):
            fit_power_law(pts, anchor=math.nan)
        with pytest.raises(ValueError):
            fit_power_law(pts, anchor=99.0, anchor_x=100.0)  # inside the data
        with pytest.raises(ValueError):
            fit_power_law(pts, anchor_x=1e200)  # anchor_x without anchor


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        FitConfig(cost_tolerance=0.0)
