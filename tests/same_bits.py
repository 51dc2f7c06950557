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

    python tests/same_bits.py --seed 7 [--src DIR] [--against DIR]

``--src`` imports ``curvecast`` from another checkout's ``src/`` (for
example an export of the parent commit). ``--against`` loads a second
tree's ``src/`` beside it, under another name, and prints for each
workload ``equal`` or the first record that differs: its item, its line
and that line from each tree. Each tree builds its pools with its own
``synth``; the pools and the benchmark's run code always come from this
checkout's ``bench/``. The name keeps pytest from collecting the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAM_SERIES = 2  # stream-long series digested: each is 1,000 ingests
SHOWN_CHARACTERS = 200  # of a differing line, as printed


def bench_workloads():
    """``bench/workloads``, importing whichever ``curvecast`` is first on
    the path."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    return workloads


def load_workloads(src: Path, name: str):
    """``bench/workloads`` bound to the ``curvecast`` package in ``src``,
    which is loaded as the package ``name``, so that two trees load side by
    side under distinct names. ``curvecast`` and its modules resolve to that
    package only while ``bench/workloads.py`` is imported."""
    package_dir = Path(src).resolve() / "curvecast"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    aliases = {"curvecast": package}
    for path in sorted(package_dir.glob("*.py")):
        if path.stem != "__init__":
            aliases[f"curvecast.{path.stem}"] = importlib.import_module(f"{name}.{path.stem}")
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      ROOT / "bench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
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


def records(workload: str, seed: int, pool: int | None = None, workloads=None):
    """``(item index, lines)`` for each series of the workload's pool for
    ``seed``, or of its first ``pool`` series; ``workloads`` defaults to
    :func:`bench_workloads`."""
    workloads = workloads or bench_workloads()
    spec = workloads.SPECS[workload]
    count = STREAM_SERIES if workload == "stream-long" else spec.pool
    if pool is not None:
        count = min(count, pool)
    for item in workloads.make_items(dataclasses.replace(spec, pool=count), seed):
        yield item.index, [line for record in LINES[workload](workloads, item)
                           for line in record.split("\n")]


def digest(workload: str, seed: int, pool: int | None = None, workloads=None) -> str:
    """SHA-256 over the :func:`records` of the workload's pool."""
    sha = hashlib.sha256()
    for index, lines in records(workload, seed, pool, workloads):
        sha.update(f"item {index}\n".encode())
        for line in lines:
            sha.update(line.encode())
            sha.update(b"\n")
    return sha.hexdigest()


def first_difference(left, right):
    """The first line that differs between two runs of :func:`records`:
    None when they are equal, else ``(item index, line number, left line,
    right line)``, a line one side lacks read as None."""
    for (index, left_lines), (_, right_lines) in zip(left, right, strict=True):
        for number, (one, other) in enumerate(zip_longest(left_lines, right_lines), 1):
            if one != other:
                return index, number, one, other
    return None


def describe(workload: str, difference) -> str:
    """``workload: equal``, or the item and line of the first difference
    and that line from each side (``-`` the first, ``+`` the second)."""
    if difference is None:
        return f"{workload}: equal"
    index, number, one, other = difference
    shown = [("<none>" if line is None else line)[:SHOWN_CHARACTERS] for line in (one, other)]
    return f"{workload}: item {index}, line {number}\n  - {shown[0]}\n  + {shown[1]}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the curvecast package")
    parser.add_argument("--against", type=Path,
                        help="a second tree's directory that holds the curvecast package")
    args = parser.parse_args(argv)
    left = load_workloads(args.src, "curvecast_src")
    print(f"curvecast from {Path(left.model.__file__).parent}", file=sys.stderr)
    if args.against is None:
        for workload in LINES:
            print(f"{digest(workload, args.seed, workloads=left)}  {workload}")
        return 0
    right = load_workloads(args.against, "curvecast_against")
    print(f"curvecast from {Path(right.model.__file__).parent} (against)", file=sys.stderr)
    for workload in LINES:
        print(describe(workload, first_difference(records(workload, args.seed, workloads=left),
                                                  records(workload, args.seed, workloads=right))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
