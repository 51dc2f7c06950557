import re

from curvecast.synth import SynthSpec, TheoremSuiteConfig, generate_series, theorem_suite

from conftest import REFERENCE_FIT
from suite_study import FAMILIES, family_line

LINE = re.compile(r"(\w+): series=(\d+) skipped=(\d+) failing=(\d+)((?: \w+=\d+)+)")
SERIES_PER_CURVE = {"steep": 6, "noiseless": 2}


def test_each_family_prints_its_counts_on_one_line():
    checks = theorem_suite(generate_series(SynthSpec(REFERENCE_FIT, count=8)),
                           TheoremSuiteConfig(true_params=REFERENCE_FIT)).results
    for family in FAMILIES:
        match = LINE.fullmatch(family_line(family, curves=5))
        assert match and match[1] == family
        series, skipped, failing = map(int, match.group(2, 3, 4))
        assert series + skipped == 5 * SERIES_PER_CURVE[family]
        assert 0 <= failing <= series
        failures = {name: int(count) for name, count in
                    (pair.split("=") for pair in match[5].split())}
        assert list(failures) == sorted(checks)
        assert all(count <= failing for count in failures.values())
        assert failing <= sum(failures.values())
