import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast.metrics import (
    ControlSequence,
    dmr,
    evaluate_runs,
    longest_monotone_length,
    mape,
    percentage_error,
    reliability_estimation,
    rer,
    rr,
)

from naive_metrics import (
    naive_dmr,
    naive_mape,
    naive_pe,
    naive_re,
    naive_rer,
    naive_rr,
)
from oracles import longest_monotone_bruteforce


class TestPercentageError:
    def test_signed_and_scaled(self):
        assert percentage_error(96.43, 96.35) == pytest.approx(-0.0830, abs=0.0005)
        assert percentage_error(97.15, 97.09) == pytest.approx(-0.0618, abs=0.0005)

    def test_zero_when_exact(self):
        assert percentage_error(95.5, 95.5) == 0.0

    def test_rejects_nonpositive_observation(self):
        with pytest.raises(ValueError):
            percentage_error(0.0, 95.0)


class TestMape:
    def test_mean_of_magnitudes(self):
        assert mape([0.1, -0.2, 0.3]) == pytest.approx(0.2)

    def test_all_zero(self):
        assert mape([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mape([])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, pes):
        shuffled = list(reversed(sorted(pes)))
        assert mape(pes) == pytest.approx(mape(shuffled), rel=1e-12)


class TestTablePairConsistency:
    def test_printed_control_levels_average_near_reported_mape(self):
        # the two printed (Ac, EAc) pairs of one published run average close
        # to its reported full-sequence MAPE of 0.05
        pes = [percentage_error(96.67, 96.59), percentage_error(97.15, 97.09)]
        assert 0.04 <= mape(pes) <= 0.08


class TestReliabilityEstimation:
    def test_order_preserved(self):
        assert reliability_estimation((96.4, 96.3), (96.1, 96.0)) == 1

    def test_order_flipped(self):
        assert reliability_estimation((96.4, 96.0), (96.1, 96.3)) == 0

    def test_tie_counts_as_preserved(self):
        assert reliability_estimation((96.0, 95.0), (96.0, 99.0)) == 1


class TestRer:
    def test_full_preservation(self):
        run = [(96.0, 96.1), (96.5, 96.6)]
        other = [(95.0, 95.1), (95.5, 95.6)]
        assert rer(run, other) == 100.0

    def test_three_of_four(self):
        run1 = [(96, 96), (96, 96), (96, 96), (96, 95)]
        run2 = [(95, 95), (95, 95), (95, 95), (95, 96)]
        assert rer(run1, run2) == 75.0

    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            r1 = [(rng.uniform(90, 100), rng.uniform(90, 100)) for _ in range(n)]
            r2 = [(rng.uniform(90, 100), rng.uniform(90, 100)) for _ in range(n)]
            assert rer(r1, r2) == rer(r2, r1)

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            rer([(96, 96)], [(95, 95), (94, 94)])


class TestDmr:
    def test_all_preserved(self):
        run = [(96.0, 96.1)]
        others = [[(95.0, 95.1)], [(94.0, 94.1)]]
        assert dmr(run, others) == 100.0

    def test_table_style_values(self):
        # 8 of 9 comparison runs preserved -> 88.89; 7 of 8 -> 87.50
        run = [(96.0, 96.1), (96.5, 96.6)]
        good = [(95.0, 95.1), (95.5, 95.6)]
        bad = [(95.0, 96.2), (95.5, 95.6)]  # flipped at the first level
        assert f"{dmr(run, [good] * 8 + [bad]):.2f}" == "88.89"
        assert f"{dmr(run, [good] * 7 + [bad]):.2f}" == "87.50"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dmr([(96, 96)], [])


class TestRr:
    def test_monotone_segment(self):
        assert rr([1.0, 2.0, 3.0]) == 100.0
        assert rr([3.0, 2.0, 1.0]) == 100.0

    def test_spec_example(self):
        assert rr([1, 2, 5, 3, 4]) == pytest.approx(80.0)

    def test_single_element(self):
        assert rr([42.0]) == 100.0

    def test_full_only_when_monotone(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            seg = list(rng.uniform(90, 100, n))
            is_monotone = (all(a <= b for a, b in zip(seg, seg[1:]))
                           or all(a >= b for a, b in zip(seg, seg[1:])))
            assert (rr(seg) == 100.0) == is_monotone
            assert rr(seg) >= 100.0 / n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rr([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, values):
        assert longest_monotone_length(values) == longest_monotone_bruteforce(values)


class TestNaiveEquivalence:
    """All six metrics agree exactly with an independent reimplementation."""

    def test_hundred_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            pairs = [(float(rng.uniform(80, 100)), float(rng.uniform(80, 100)))
                     for _ in range(n)]
            other = [(float(rng.uniform(80, 100)), float(rng.uniform(80, 100)))
                     for _ in range(n)]
            pes = [percentage_error(ac, eac) for ac, eac in pairs]
            assert pes == [naive_pe(ac, eac) for ac, eac in pairs]
            assert mape(pes) == naive_mape(pes)
            assert [reliability_estimation(p, q) for p, q in zip(pairs, other)] == \
                [naive_re(p, q) for p, q in zip(pairs, other)]
            assert rer(pairs, other) == naive_rer(pairs, other)
            comparisons = [
                [(float(rng.uniform(80, 100)), float(rng.uniform(80, 100)))
                 for _ in range(n)]
                for _ in range(int(rng.integers(1, 6)))
            ]
            assert dmr(pairs, comparisons) == naive_dmr(pairs, comparisons)
            segment = list(rng.uniform(90, 100, int(rng.integers(1, 15))))
            assert rr(segment) == naive_rr(segment)


class TestControlSequenceAndReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlSequence(positions=(100, 100))
        with pytest.raises(ValueError):
            ControlSequence(positions=(100, 200),
                            runs={"x": ((95.0, 95.0),)})  # wrong arity
        with pytest.raises(ValueError):
            ControlSequence(positions=(100,), runs={"x": ((-1.0, 95.0),)})

    def test_evaluate_runs_cross_module(self):
        seq = ControlSequence(
            positions=(1000, 2000),
            runs={
                "alpha": ((96.0, 96.1), (96.5, 96.4)),
                "beta": ((95.0, 95.2), (95.5, 95.4)),
            },
        )
        report = evaluate_runs(seq, backbone_segments={"alpha": [99.0, 98.5, 98.7]})
        assert report.mape["alpha"] == mape([percentage_error(96.0, 96.1),
                                             percentage_error(96.5, 96.4)])
        assert report.rer[("alpha", "beta")] == 100.0
        assert report.dmr["alpha"] == 100.0
        assert report.rr["alpha"] == rr([99.0, 98.5, 98.7])
