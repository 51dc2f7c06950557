"""One benchmark process for one workload; started by ``run.py``.

Modes:
  setup   import, generate the inputs, report the set-up time and exit;
  timed   repeat the workload's unit for ``--seconds`` of timed work with
          tracing off and report the end-to-end figures;
  traced  run a fixed number of units, each once untraced and once traced,
          and report the per-layer figures and the tracing overhead.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported: the fitter's 3x3
# solves gain nothing from threads, and a thread pool sized to the machine
# makes timings depend on whoever else is using it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import curvecast  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from curvecast import controller, reports  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    return p.parse_args(argv)


def _environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _unit_function(name):
    unit = workloads.UNITS[name]
    if name == "fleet-stop":
        import jsonschema  # the checker's import stays out of setup_s

        validator = jsonschema.Draft7Validator(reports.load_report_schema())
        unit = partial(unit, validator=validator)
    return unit


def _quantiles_ms(seconds) -> dict:
    values = np.asarray(seconds) * 1e3
    p50, p90, p99 = np.percentile(values, [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99), "samples": int(values.size)}


def _timed(spec, items, unit, seconds) -> dict:
    rec = workloads.Record()
    u = 0
    while rec.timed_s < seconds:
        unit(items, u, rec, quality=u < spec.quality_units)
        u += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = {
        "units": u,
        "op": spec.op,
        "timed_s": rec.timed_s,
        "observations": rec.observations,
        "op_ms": _quantiles_ms(rec.latencies) if rec.latencies else {},
        "peak_rss_mb": peak_rss_mb,
    }
    # The quality figures always cover the same units, however many the
    # timed window reached.
    while u < spec.quality_units:
        unit(items, u, rec, quality=True)
        u += 1
    timed["quality"] = {
        "mape_pct": sum(rec.mape) / len(rec.mape) if rec.mape else None,
        "obs_used_pct": 100.0 * sum(rec.used) / len(rec.used) if rec.used else None,
        "suite_pass_pct": (100.0 * sum(rec.suite_passed) / len(rec.suite_passed)
                           if rec.suite_passed else None),
        "series": max(len(rec.mape), len(rec.used)),
    }
    timed.update(attempted=rec.attempted, failed=rec.failed, failures=rec.failures)
    return timed


def _traced(spec, items, unit, tracer) -> dict:
    unit(items, 0, workloads.Record(), quality=False)  # warm-up, not counted
    # Each unit runs untraced, then traced, so that a drift in machine speed
    # falls on both sides of the overhead estimate alike.
    untraced, rec = workloads.Record(), workloads.Record()
    for u in range(spec.traced_units):
        unit(items, u, untraced, quality=False)
        with tracer:
            unit(items, u, rec, quality=False, tracer=tracer)

    # Fits run_stream makes on the audited series, counted apart so that the
    # fits run_batch makes past the stop ingest can be told from them.
    stream_fits = 0
    if spec.name == "offline-audit":
        with Tracer() as side:
            for u in range(spec.traced_units):
                item = items[u % len(items)]
                controller.run_stream(item.config, item.series.points)
        stream_fits = side.counters["fitting.calls"]

    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    fits = calls("fitting.fit_power_law")
    refit_count, ingest_extend_s = tracer.child_time("controller.ingest", "trace.extend_trace")
    epsilon_calls = calls("trace.epsilon_bound")
    values = {
        "fitting.calls": fits,
        "fitting.iterations": c["fitting.iterations"],
        "fitting.iters_per_call": c["fitting.iterations"] / fits if fits else 0.0,
        "fitting.self_s": own("fitting.fit_power_law"),
        "fitting.nonconverged": c["fitting.nonconverged_fits"] / fits if fits else 0.0,
        "controller.ingest_calls": calls("controller.ingest"),
        "controller.ingest_self_s": total("controller.ingest") - ingest_extend_s,
        "controller.stopping_layer_calls": calls("controller.stopping_layer"),
        "controller.stopping_layer_s": total("controller.stopping_layer"),
        "controller.refits": refit_count - rec.levels_reached,
        "controller.batch_fits_past_stop": rec.batch_fits - stream_fits,
        "trace.converged_view_calls": calls("trace.converged_view"),
        "trace.converged_view_s": total("trace.converged_view"),
        "model.with_point_calls": calls("model.with_point"),
        "model.with_point_s": total("model.with_point"),
        "levels.working_calls": calls("levels.working_level"),
        "levels.working_s": total("levels.working_level"),
        "anchoring.anchored_fits": calls("anchoring.fit_anchored_trend"),
        "anchoring.next_anchor_calls": calls("anchoring.next_canonical_anchor"),
        "trace.intersection_calls": calls("trace.trend_intersection"),
        "trace.intersection_s": total("trace.trend_intersection"),
        "trace.epsilon_calls": epsilon_calls,
        "trace.epsilon_defined_ratio": (c["trace.epsilon_defined"] / epsilon_calls
                                        if epsilon_calls else 0.0),
        "trace.extend_calls": calls("trace.extend_trace"),
        "trace.extend_self_s": own("trace.extend_trace"),
        "trace.stored_residuals": rec.stored_residuals,
        "reports.build_s": total("reports.build_run_report"),
        "reports.json_bytes": c["reports.json_bytes"],
        "plotting.render_s": total("plotting.render_svg"),
        "plotting.svg_bytes": c["plotting.svg_bytes"],
        "metrics.evaluate_s": total("metrics.evaluate_runs"),
        "synth.generate_s": total("synth.generate_series"),
        "synth.theorem_suite_s": total("synth.theorem_suite"),
        "synth.theorem_suite_calls": calls("synth.theorem_suite"),
        "synth.theorem_suite_passes": c["synth.theorem_suite_passes"],
        "bench.untraced_s": untraced.timed_s,
        "bench.traced_s": rec.timed_s,
        "bench.tracing_overhead_s": rec.timed_s - untraced.timed_s,
        "bench.spans": len(tracer.start),
    }
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{spec.name}.npz"
    tracer.save(spans_path)
    # Self time of each span as a share of the traced wall time; the
    # generator ran at set-up, before the timed units.
    shares = {name: 100.0 * fig["self_s"] / rec.timed_s for name, fig in s.items()
              if name != "synth.generate_series"}
    return {
        "units": spec.traced_units,
        "per_layer": values,
        "self_share_pct": shares,
        "layers": s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": untraced.attempted + rec.attempted,
        "failed": untraced.failed + rec.failed,
        "failures": untraced.failures + rec.failures,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = (ROOT / "src").resolve()
    if Path(curvecast.__file__).resolve().parent.parent != src:
        print(f"curvecast imported from {curvecast.__file__}, not from {src}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    tracer = Tracer()
    if args.mode == "traced":
        with tracer:  # the generator's spans give synth.generate_s
            items = workloads.make_items(spec, args.seed)
    else:
        items = workloads.make_items(spec, args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        unit = _unit_function(spec.name)
        if args.mode == "timed":
            result.update(_timed(spec, items, unit, args.seconds))
        else:
            result.update(_traced(spec, items, unit, tracer))
        result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
