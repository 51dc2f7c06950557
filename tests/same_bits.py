"""Digest what the library computes on the benchmark's input pools.

Prints one SHA-256 per workload for a seed, over the pools that
``bench/workloads.make_items`` builds:

- ``fleet-stop``: every run as the benchmark does it (ingested to its stop,
  reported and plotted): its milestones, its trends, the report JSON and
  CSV and the SVG;
- ``offline-audit``: every ``run_batch`` state and ``theorem_suite``
  result, with the benchmark's budgets;
- ``stream-long``: the full traces of the first two series.

A trend is hashed as its level, its parameters and ``u_scale`` as
``float.hex``, its anchor residual, ``converged`` and iterations, so a
one-ulp move of any fitted value changes the digest. Two checkouts compute
the same bits when they print the same lines. Run from the repository
root::

    python tests/same_bits.py --seed 7 [--src DIR]

``--src`` imports ``curvecast`` from another checkout's ``src/`` (for
example an export of the parent commit); the pools and the benchmark's
run code always come from this checkout's ``bench/``. The name keeps
pytest from collecting the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAM_SERIES = 2  # stream-long series digested: each is 1,000 ingests


def bench_workloads():
    """``bench/workloads``, importing whichever ``curvecast`` is first on
    the path."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    return workloads


def _hex(value) -> str:
    return "None" if value is None else float(value).hex()


def _state_lines(state):
    """Milestones and every trend of a run's trace."""
    yield (f"milestones {state.wlevel} {state.plevel} {state.clevel} "
           f"{state.ignored_after_stop}")
    for level in sorted(state.trace.trends):
        trend = state.trace.trends[level]
        params = trend.params
        yield (f"trend {level} {_hex(params.a)} {_hex(params.b)} {_hex(params.c)} "
               f"{_hex(trend.u_scale)} {_hex(trend.anchor_residual)} {trend.converged} "
               f"{trend.iterations}")


def _fleet_stop_lines(workloads, item):
    state, used, report, text, svg = workloads._run_one(item)
    yield f"used {used}"
    yield from _state_lines(state)
    yield text
    yield workloads.reports.report_to_csv(report)
    yield svg


def _offline_audit_lines(workloads, item):
    state = workloads.controller.run_batch(item.config, item.series.points)
    yield from _state_lines(state)
    suite = workloads.synth.theorem_suite(item.series, workloads.synth.TheoremSuiteConfig(
        true_params=item.true, violation_budget=workloads.SUITE_BUDGET,
        monotone_tolerance=workloads.SUITE_BAND))
    for name in sorted(suite.results):
        result = suite.results[name]
        yield (f"check {name} {result.passed} {result.violations} {result.checks} "
               f"{result.detail}")


def _stream_long_lines(workloads, item):
    yield from _state_lines(workloads.controller.run_stream(item.config, item.series.points))


LINES = {"fleet-stop": _fleet_stop_lines, "offline-audit": _offline_audit_lines,
         "stream-long": _stream_long_lines}


def digest(workload: str, seed: int, pool: int | None = None) -> str:
    """SHA-256 over the workload's pool for ``seed``, or its first ``pool``
    series."""
    workloads = bench_workloads()
    spec = workloads.SPECS[workload]
    count = STREAM_SERIES if workload == "stream-long" else spec.pool
    if pool is not None:
        count = min(count, pool)
    sha = hashlib.sha256()
    for item in workloads.make_items(dataclasses.replace(spec, pool=count), seed):
        sha.update(f"item {item.index}\n".encode())
        for line in LINES[workload](workloads, item):
            sha.update(line.encode())
            sha.update(b"\n")
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the curvecast package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import curvecast
    print(f"curvecast from {Path(curvecast.__file__).parent}", file=sys.stderr)
    for workload in LINES:
        print(f"{digest(workload, args.seed)}  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
