import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast.levels import (
    LevelParams,
    prediction_level,
    verticality_limit,
    working_level,
)

from oracles import working_level_scan


def positions_for(n, step=5000):
    return [step * (i + 1) for i in range(n)]


def levels_for(n):
    """Level numbers of a backbone with no gap, from level 3."""
    return list(range(3, 3 + n))


class TestVerticalityLimit:
    def test_default_reading(self):
        # nu**(1/slowdown) / (1 - nu) with the shipped defaults
        assert verticality_limit(LevelParams(nu=2e-5, slowdown=1)) == pytest.approx(
            2.000040000800016e-05, rel=1e-12)

    def test_square_root_case(self):
        assert verticality_limit(LevelParams(nu=0.25, slowdown=2)) == pytest.approx(
            0.6666666666666666, rel=1e-12)

    def test_vanishes_with_nu(self):
        assert verticality_limit(LevelParams(nu=1e-12, slowdown=1)) < 1e-11

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LevelParams(nu=0.0)
        with pytest.raises(ValueError):
            LevelParams(nu=1.0)
        with pytest.raises(ValueError):
            LevelParams(slowdown=0)
        with pytest.raises(ValueError):
            LevelParams(lookahead=-1)
        # both are counts: a bool or a float would reach the report as one
        for bad in (1.5, True, 2.0):
            with pytest.raises(ValueError):
                LevelParams(slowdown=bad)
        for bad in (2.5, True, 5.0):
            with pytest.raises(ValueError):
                LevelParams(lookahead=bad)


class TestWorkingLevel:
    def test_constant_backbone_starts_at_first_operative_level(self):
        backbone = [95.0] * 10
        assert working_level(backbone, positions_for(10), LevelParams(lookahead=5),
                             levels_for(10)) == 3

    def test_jump_then_flat(self):
        # one huge early jump: the slope between the first two entries
        # violates the limit, everything after is quiet
        backbone = [80.0, 95.0] + [95.0001 + i * 1e-6 for i in range(8)]
        omega = working_level(backbone, positions_for(10), LevelParams(lookahead=2),
                              levels_for(10))
        assert omega == 4  # first level after the jump

    def test_zero_lookahead_is_single_slope(self):
        backbone = [80.0, 95.0, 95.00001, 95.00002]
        params = LevelParams(lookahead=0)
        assert working_level(backbone, positions_for(4), params, levels_for(4)) == 4

    def test_absent_when_window_incomplete(self):
        backbone = [95.0] * 6  # lookahead 5 needs 7 entries
        assert working_level(backbone, positions_for(6), LevelParams(lookahead=5),
                             levels_for(6)) is None

    def test_absent_when_always_violating(self):
        backbone = [80.0 + (i % 2) for i in range(12)]  # sawtooth
        assert working_level(backbone, positions_for(12), LevelParams(lookahead=3),
                             levels_for(12)) is None

    def test_stable_under_growth(self):
        backbone = [90.0, 94.0, 95.0, 95.0001, 95.0002, 95.00025, 95.0003,
                    95.00032, 95.00033, 95.00034, 95.00035, 95.00036]
        params = LevelParams(lookahead=3)
        full = working_level(backbone, positions_for(12), params, levels_for(12))
        assert full is not None
        for n in range(3, 13):
            prefix = working_level(backbone[:n], positions_for(n), params, levels_for(n))
            if prefix is not None:
                assert prefix == full

    def test_levels_mapping_with_gaps(self):
        # converged levels 3, 5, 6, 7, 8 (level 4 dropped): indices still map
        backbone = [95.0, 95.00001, 95.00002, 95.00003, 95.00004]
        levels = [3, 5, 6, 7, 8]
        positions = [15000, 25000, 30000, 35000, 40000]
        omega = working_level(backbone, positions, LevelParams(lookahead=2),
                              levels=levels)
        assert omega == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must have equal length"):
            working_level([95.0, 95.0], positions_for(3), LevelParams(), levels_for(2))
        with pytest.raises(ValueError, match="must have equal length"):
            working_level([95.0, 95.0], positions_for(2), LevelParams(), levels_for(3))

    @pytest.mark.parametrize("backbone, positions, lookahead, message", [
        ([95.0, 95.0, 95.0], [5, 5, 6], 0, "positions 5, 5 do not increase"),
        # Read as slopes, these steps are negative and would pass the limit.
        ([90.0, 95.0, 99.0], [6, 5, 4], 1, "positions 6, 5 do not increase"),
    ], ids=["equal", "decreasing"])
    def test_positions_that_do_not_increase_rejected(self, backbone, positions, lookahead,
                                                     message):
        with pytest.raises(ValueError, match=message):
            working_level(backbone, positions, LevelParams(lookahead=lookahead),
                          levels_for(len(backbone)))


@st.composite
def _backbones(draw):
    """Level params, a backbone, its positions and its levels (consecutive
    from 3, or with gaps). Backbones run from empty to longer than the window.
    Half the draws take nu = 0.5, whose limit is exactly 1.0, with whole
    alphas on position steps of 1 or 2, so that slopes land exactly on the
    limit; the others step each alpha by a multiple of the limit near 1."""
    lookahead = draw(st.integers(0, 6))
    count = draw(st.integers(0, lookahead + 8))
    steps = draw(st.lists(st.integers(1, 2), min_size=count, max_size=count))
    if draw(st.booleans()):
        params = LevelParams(nu=0.5, lookahead=lookahead)
        alphas = [float(v) for v in draw(
            st.lists(st.integers(90, 93), min_size=count, max_size=count))]
    else:
        params = LevelParams(nu=draw(st.floats(1e-6, 0.5)), slowdown=draw(st.integers(1, 3)),
                             lookahead=lookahead)
        limit = verticality_limit(params)
        factors = draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, -1.0, 3.0]),
                                min_size=count, max_size=count))
        alphas = [95.0]
        for factor, step in zip(factors[1:], steps[1:]):
            alphas.append(alphas[-1] + factor * limit * step)
        alphas = alphas[:count]
    positions = [sum(steps[:i + 1]) for i in range(count)]
    levels = levels_for(count)
    if draw(st.booleans()):
        levels = sorted(draw(st.sets(st.integers(3, 60), min_size=count, max_size=count)))
    return params, alphas, positions, levels


@settings(max_examples=500, deadline=None)
@given(_backbones())
def test_working_level_matches_the_all_windows_scan(drawn):
    params, alphas, positions, levels = drawn
    expected = working_level_scan(levels, alphas, positions,
                                  params.nu, params.slowdown, params.lookahead)
    assert working_level(alphas, positions, params, levels=levels) == expected


class TestPredictionLevel:
    def test_equals_working_level_when_feasible(self):
        backbone = [99.0, 99.1, 99.2, 99.3]
        assert prediction_level(backbone, omega=3, levels=levels_for(4)) == 3

    def test_waits_for_feasible_asymptote(self):
        backbone = [102.0, 101.0, 99.5]
        assert prediction_level(backbone, omega=3, levels=levels_for(3)) == 5

    def test_absent_when_never_feasible(self):
        backbone = [104.0, 103.0, 102.0, 101.0]
        assert prediction_level(backbone, omega=3, levels=levels_for(4)) is None

    def test_asymptote_of_exactly_100_is_feasible(self):
        # the feasibility bound is inclusive: 100.0 itself is an accuracy
        backbone = [100.5, 100.0, 99.0]
        assert prediction_level(backbone, omega=3, levels=levels_for(3)) == 4

    def test_ignores_entries_before_working_level(self):
        backbone = [99.0, 102.0, 101.0, 99.8]
        assert prediction_level(backbone, omega=4, levels=levels_for(4)) == 6

    def test_levels_mapping_with_gaps(self):
        # converged levels 3, 4, 7 (levels 5 and 6 dropped): the feasible
        # entry is level 7, not the third level from 3
        backbone = [101.0, 100.5, 99.5]
        assert prediction_level(backbone, omega=3, levels=[3, 4, 7]) == 7

    @pytest.mark.parametrize("backbone, levels", [
        ([101.0, 99.0], [3]),  # the feasible entry has no level
        ([101.0], [3, 4]),  # a level has no entry
    ], ids=["short-levels", "short-backbone"])
    def test_length_mismatch_rejected(self, backbone, levels):
        with pytest.raises(ValueError, match="backbone and levels must have equal length"):
            prediction_level(backbone, omega=3, levels=levels)

    def test_determinism(self):
        backbone = [101.0, 100.0, 99.9]
        first = prediction_level(backbone, omega=3, levels=levels_for(3))
        assert all(prediction_level(backbone, omega=3, levels=levels_for(3)) == first
                   for _ in range(5))
