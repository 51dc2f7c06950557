"""Count ``theorem_suite`` failures over two fixed families of series.

Prints one line per family: the series audited, the draws skipped because
``SynthSpec`` rejects their curve, the failing audits, and the failures of
each check::

    steep: series=900 skipped=0 failing=153 anchor_correction_inequality=0 ...

The families:

- ``steep``: the benchmark's curves (a in [400, 900], b in [0.35, 0.5],
  c in [90, 99]) drawn from ``default_rng(5)``, 150 curves, each with
  Gaussian noise of sigma 0.3, 1.0 and 2.0 at 20 and 60 points, the noise
  seeded with the curve's index; audited with the CLI's budgets for noisy
  input.
- ``noiseless``: acceptance criterion 2's curves (a in [10, 1000], b in
  [0.2, 1.5], c in [85, 100]) drawn from ``default_rng(202)``, 400 curves,
  each at 30 and 60 noiseless points; audited with budgets 0.

Run from the repository root::

    python tests/suite_study.py [--src DIR]

``--src`` imports ``curvecast`` from another checkout's ``src/`` (for
example an export of the parent commit). The name keeps pytest from
collecting the file.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = {"steep": 150, "noiseless": 400}  # curves per family
STEEP_SIGMAS = (0.3, 1.0, 2.0)
STEEP_COUNTS = (20, 60)
NOISELESS_COUNTS = (30, 60)
NOISY_BUDGET, NOISY_BAND = 0.05, 0.1  # the CLI's budgets for noisy input


def _draws(family: str, curves: int):
    """``(true, count, noise kind, sigma, seed)`` for each series of the
    family's first ``curves`` curves."""
    if family == "steep":
        rng = np.random.default_rng(5)
        for index in range(curves):
            true = (rng.uniform(400, 900), rng.uniform(0.35, 0.5), rng.uniform(90, 99))
            for sigma in STEEP_SIGMAS:
                for count in STEEP_COUNTS:
                    yield true, count, "gaussian", sigma, index
    else:
        rng = np.random.default_rng(202)
        for _ in range(curves):
            true = (rng.uniform(10, 1000), rng.uniform(0.2, 1.5), rng.uniform(85, 100))
            for count in NOISELESS_COUNTS:
                yield true, count, "none", 0.0, 0


def family_line(family: str, curves: int | None = None) -> str:
    """The study's line for ``family``, over its first ``curves`` curves
    (default: all), computed with whichever ``curvecast`` is imported."""
    from curvecast.model import PowerLawParams
    from curvecast.synth import (NoiseSpec, SynthSpec, TheoremSuiteConfig, generate_series,
                                 theorem_suite)

    series = skipped = failing = 0
    failures = Counter()
    for (a, b, c), count, kind, sigma, seed in _draws(family, curves or FAMILIES[family]):
        true = PowerLawParams(float(a), float(b), float(c))
        try:
            spec = SynthSpec(true, count=count, noise=NoiseSpec(kind, sigma=sigma), seed=seed)
        except ValueError:
            skipped += 1
            continue
        noisy = kind != "none"
        report = theorem_suite(generate_series(spec), TheoremSuiteConfig(
            true_params=true, violation_budget=NOISY_BUDGET if noisy else 0.0,
            monotone_tolerance=NOISY_BAND if noisy else 0.0))
        series += 1
        failing += not report.all_passed
        failures.update({name: not result.passed for name, result in report.results.items()})
    checks = " ".join(f"{name}={failures[name]}" for name in sorted(failures))
    return f"{family}: series={series} skipped={skipped} failing={failing} {checks}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the curvecast package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import curvecast
    print(f"curvecast from {Path(curvecast.__file__).parent}", file=sys.stderr)
    for family in FAMILIES:
        print(family_line(family))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
