"""curvecast benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload fleet-stop --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs a fixed set of units traced and reports
the per-layer metrics. Each workload runs in a process of its own with one
BLAS thread, so its set-up time and peak memory are its own; set-up is
measured in several processes and reported as the median. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the details (sample counts, the
environment, the quality figures). Exit status: 0 when every output check
passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream-long", "fleet-stop", "offline-audit")
SETUP_RUNS = 7  # processes whose set-up times give the setup_s median
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 140


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, mode: str, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def _end_to_end(args) -> tuple[dict, dict]:
    setups = [_worker(args, "setup", SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = _worker(args, "timed", RUN_TIMEOUT_S)
    setups.append(run["setup_s"])
    op = run["op_ms"]
    values = {
        "setup_s": statistics.median(setups),
        "op_ms_p90": op.get("p90"),
        "peak_rss_mb": run["peak_rss_mb"],
        "obs_used_pct": run["quality"]["obs_used_pct"],
    }
    metrics = {m["name"]: (values.get(m["name"]), m["unit"]) for m in _declared("end_to_end")}
    details = {
        "obs_per_s": run["observations"] / run["timed_s"] if run["timed_s"] else None,
        "op": run["op"],
        "op_samples": op.get("samples", 0),
        "op_ms_p50": op.get("p50"),
        "op_ms_p99": op.get("p99"),
        "units": run["units"],
        "timed_s": run["timed_s"],
        "observations": run["observations"],
        "setup_samples_s": setups,
        "quality": run["quality"],
    }
    return metrics, {**details, **_common(run)}


def _per_layer(args) -> tuple[dict, dict]:
    run = _worker(args, "traced", RUN_TIMEOUT_S)
    values = run["per_layer"]
    metrics = {m["name"]: (values.get(m["name"]), m["unit"]) for m in _declared("per_layer")}
    details = {"units": run["units"], "spans_file": run["spans_file"],
               "self_share_pct": run["self_share_pct"], "layers": run["layers"]}
    return metrics, {**details, **_common(run)}


def _declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _common(run: dict) -> dict:
    attempted, failed = run["attempted"], run["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_pct": 100.0 * failed / attempted if attempted else None,
        "failures": run["failures"],
        "environment": run["environment"],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "curvecast" / "__init__.py").is_file():
        print(f"error: no curvecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, details = (_per_layer if args.trace else _end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in details["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    missing = [name for name, (value, _) in metrics.items()
               if not isinstance(value, (int, float)) or not math.isfinite(value)]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    correct = details["failed"] == 0 and details["attempted"] > 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, **details}))
    print(json.dumps({
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
