"""The benchmark's use of the library, run in process.

One unit of each workload in ``bench/workloads.py`` runs on a small pool
(two series; one fleet of distinct series for ``fleet-stop``), untraced and
under the span tracer, and must pass the workload's own output checks: the
trace and stop state, the report schema, the SVG, the offline/online
equality and the residual count the benchmark reads. A library change that
breaks any of these readers fails here instead of in a benchmark run.

Traced, the unit must reach exactly its workload's set of the tracer's
targets, and its ingests must still refit: a call path that moves work
past a wrapped function (an anchored fit that no longer goes through
``fit_anchored_trend``, a rebuild that no longer calls ``extend_trace``)
would otherwise zero a per-layer figure without failing anything.
"""

import dataclasses
import sys
from functools import partial
from pathlib import Path

import jsonschema
import pytest

from curvecast import reports

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SEED = 7

# The tracer's spans that one traced unit of each workload never opens: the
# pool is generated before tracing, only the audit takes the offline path
# and runs the suite, and the stream writes and scores nothing.
_AUDIT_ONLY = {"trace.trend_intersection", "trace.epsilon_bound", "controller.run_stream",
               "controller.run_batch", "synth.build_traces", "synth.theorem_suite"}
_OUTPUT = {"reports.build_run_report", "reports.report_to_json", "plotting.render_svg",
           "metrics.evaluate_runs"}
UNREACHED = {
    "fleet-stop": _AUDIT_ONLY | {"synth.generate_series"},
    "offline-audit": _OUTPUT | {"synth.generate_series"},
    "stream-long": _AUDIT_ONLY | _OUTPUT | {"synth.generate_series", "trace.converged_view"},
}


def _unit(name):
    unit = workloads.UNITS[name]
    if name == "fleet-stop":
        validator = jsonschema.Draft7Validator(reports.load_report_schema())
        return partial(unit, validator=validator)
    return unit


@pytest.fixture(scope="module", params=sorted(workloads.SPECS))
def pool(request):
    # A fleet scores its series by name, so its members must be distinct.
    size = workloads.FLEET_SIZE if request.param == "fleet-stop" else 2
    spec = dataclasses.replace(workloads.SPECS[request.param], pool=size)
    return spec, workloads.make_items(spec, SEED)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_one_unit_passes_its_checks(pool, traced):
    spec, items = pool
    rec = workloads.Record()
    if traced:
        with Tracer() as tracer:
            _unit(spec.name)(items, 0, rec, quality=False, tracer=tracer)
        assert tracer.counters["fitting.calls"] > 0
        reached = {name for name, figures in tracer.summary().items() if figures["calls"]}
        targets = {name for _, _, name, _ in TARGETS}
        assert reached & targets == targets - UNREACHED[spec.name]
        # controller.refits: extend_trace calls under ingest past one per level
        extends = tracer.child_time("controller.ingest", "trace.extend_trace")[0]
        assert extends > rec.levels_reached
    else:
        _unit(spec.name)(items, 0, rec, quality=True)
        assert rec.used and (rec.mape or spec.name == "offline-audit")
    assert rec.attempted > 0
    assert rec.failed == 0, rec.failures
    assert rec.stored_residuals > 0
    if spec.name == "stream-long":
        # every level from 3 to n keeps one residual per observation
        assert rec.stored_residuals == sum(range(3, spec.length + 1))
