"""Time the benchmark's ops in one process: this checkout against a parent.

Loads the parent's ``curvecast`` and this checkout's under distinct names,
each bound to its own copy of ``bench/workloads.py`` (read, not edited), so
each side builds its pool from the same seed with its own ``synth``. For
each workload it runs the op the benchmark times on the same items:

- ``fleet-stop``: one run ingested to its stop, reported and plotted;
- ``offline-audit``: ``run_batch`` and ``theorem_suite`` on one series;
- ``stream-long``: one ``ingest`` of a 1000-point stream (every ingest of
  each series is a sample).

A single process has a bias of its own, which can follow the order in
which it loaded the two packages, so the rounds run twice, each time in a
fresh child process: once with the parent's package loaded first and once
with the change's.
Per item, both sides run the item in turn; the side that runs first
alternates per item and per round. Each round prints the change/parent
ratio of the op's p90 and of its mean, labelled with the side its process
loaded first, and the workload ends with their min-max pooled over both
processes and ``same_bits``' first difference between the two sides
(``equal`` when there is none). Run from the repository root::

    python tests/ab.py (--parent REV | --parent-src DIR) [--workload W] [--seed S]
                       [--pool N] [--rounds R]

``--parent`` exports ``src/`` at ``REV`` into ``.bench_build/``;
``--parent-src`` names a directory that holds a ``curvecast`` package.
``--pool`` is the items per workload (default: 200 ``fleet-stop``, 100
``offline-audit``, 8 ``stream-long``); ``--rounds`` is the rounds per
process and defaults to 5. A ratio
below 1 means the change is faster. The name keeps pytest from collecting
the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import multiprocessing
import subprocess
import sys
import tarfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from same_bits import LINES, ROOT, describe, first_difference, load_workloads, records

DEFAULT_POOL = {"fleet-stop": 200, "offline-audit": 100, "stream-long": 8}
FIRST_LOADED = ("parent", "change")  # one child process each, in this order


def export_src(rev: str) -> Path:
    """``src/`` of the commit ``rev``, exported once into ``.bench_build/``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    target = ROOT / ".bench_build" / sha
    if not (target / "src" / "curvecast" / "__init__.py").exists():
        archive = subprocess.run(["git", "archive", "--format=tar", sha, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target, filter="data")
    return target / "src"


def op_timer(workloads, workload: str):
    """``time_item(item)``: the seconds of each op the benchmark times on
    ``item``, with what it does outside its timed sections done outside."""
    clock = time.perf_counter
    if workload == "fleet-stop":
        run_one = workloads._run_one

        def time_item(item):
            start = clock()
            run_one(item)
            return [clock() - start]
    elif workload == "offline-audit":
        run_batch, synth = workloads.controller.run_batch, workloads.synth

        def time_item(item):
            config = synth.TheoremSuiteConfig(true_params=item.true,
                                              violation_budget=workloads.SUITE_BUDGET,
                                              monotone_tolerance=workloads.SUITE_BAND)
            start = clock()
            run_batch(item.config, item.series.points)
            synth.theorem_suite(item.series, config)
            return [clock() - start]
    else:
        new_run, ingest = workloads.controller.new_run, workloads.controller.ingest

        def time_item(item):
            points, state, seconds = item.series.points, new_run(item.config), []
            for obs in points:
                start = clock()
                ingest(state, obs)
                seconds.append(clock() - start)
            return seconds
    return time_item


def compare(workload: str, sides, seed: int, pool: int, rounds: int):
    """Yields ``(p90 ratio, mean ratio, parent p90, parent mean)`` per
    round, change over parent; ``sides`` is the parent's and the change's
    workloads module."""
    runs = []
    for workloads in sides:
        spec = workloads.SPECS[workload]
        items = workloads.make_items(dataclasses.replace(spec, pool=pool), seed)
        time_item = op_timer(workloads, workload)
        time_item(items[0])  # warm-up, not counted
        runs.append((items, time_item))
    for round_index in range(rounds):
        seconds = ([], [])
        for i in range(pool):
            order = (0, 1) if (i + round_index) % 2 == 0 else (1, 0)
            for side in order:
                items, time_item = runs[side]
                seconds[side].extend(time_item(items[i]))
        parent, change = (np.array(s) for s in seconds)
        parent_p90, change_p90 = np.percentile(parent, 90), np.percentile(change, 90)
        yield (float(change_p90 / parent_p90), float(change.mean() / parent.mean()),
               float(parent_p90), float(parent.mean()))


def time_in_process(first: str, parent_src: Path, pools: dict, seed: int, rounds: int):
    """Loads both trees, the side ``first`` first, and returns for each
    workload in ``pools`` the rounds of :func:`compare`."""
    trees = {"parent": (parent_src, "curvecast_parent"),
             "change": (ROOT / "src", "curvecast_change")}
    second = "change" if first == "parent" else "parent"
    loaded = {side: load_workloads(*trees[side]) for side in (first, second)}
    sides = (loaded["parent"], loaded["change"])
    return {workload: list(compare(workload, sides, seed, pool, rounds))
            for workload, pool in pools.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parent = parser.add_mutually_exclusive_group(required=True)
    parent.add_argument("--parent", metavar="REV", help="commit whose src/ is the parent")
    parent.add_argument("--parent-src", metavar="DIR", type=Path,
                        help="directory that holds the parent's curvecast package")
    parser.add_argument("--workload", choices=list(LINES), action="append",
                        help="workload to time (repeatable; default: all three)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pool", type=int, help="items per workload")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if (args.pool is not None and args.pool < 1) or args.rounds < 1:
        parser.error("--pool and --rounds must be >= 1")
    parent_src = export_src(args.parent) if args.parent else args.parent_src
    pools = {workload: args.pool or DEFAULT_POOL[workload]
             for workload in args.workload or list(LINES)}
    # One fresh process per load order, run one after the other so that the
    # two never share the machine.
    with ProcessPoolExecutor(max_workers=1, max_tasks_per_child=1,
                             mp_context=multiprocessing.get_context("spawn")) as executor:
        futures = {first: executor.submit(time_in_process, first, parent_src, pools,
                                          args.seed, args.rounds)
                   for first in FIRST_LOADED}
        timings = {first: future.result() for first, future in futures.items()}
    sides = (load_workloads(parent_src, "curvecast_parent"),
             load_workloads(ROOT / "src", "curvecast_change"))
    for name, workloads in zip(("parent", "change"), sides):
        print(f"{name}: curvecast from {Path(workloads.model.__file__).parent}")
    for workload, pool in pools.items():
        p90s, means = [], []
        for first, rounds in timings.items():
            for number, (p90, mean, parent_p90, parent_mean) in enumerate(rounds[workload], 1):
                p90s.append(p90)
                means.append(mean)
                print(f"{workload} {first}-first round {number}: p90 {p90:.4f} mean {mean:.4f} "
                      f"(parent p90 {parent_p90 * 1e3:.4f} ms, mean {parent_mean * 1e3:.4f} ms)")
        print(f"{workload}: p90 {min(p90s):.4f}-{max(p90s):.4f} "
              f"mean {min(means):.4f}-{max(means):.4f} over {len(timings)} processes of "
              f"{args.rounds} rounds of {pool} items")
        difference = first_difference(*(records(workload, args.seed, pool, side)
                                        for side in sides))
        print(f"same bits, {describe(workload, difference)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
