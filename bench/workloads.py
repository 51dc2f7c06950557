"""The three benchmark workloads: seeded inputs, the closed-loop unit of work
each one repeats, and the output checks.

Every series is a ``synth.generate_series`` sample of a "steep" curve
(a in [400, 900], b in [0.35, 0.5], c in [90, 99]) on the kernel = step =
5000 schedule with Gaussian noise of sigma 0.05; the library only ever sees
the generated points. One caller feeds the next observation or series only
after the previous call has returned.

A *unit* is what the timed loop repeats: one series for ``stream-long`` and
``offline-audit``, one fleet of series plus its ``evaluate_runs`` call for
``fleet-stop``. Checks run between ops, outside the timed sections.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from curvecast import anchoring, controller, metrics, model, plotting, reports, synth

KERNEL = STEP = 5000
SIGMA = 0.05
PREDICT_FACTORS = (2, 3, 4, 6, 8)
TAU_INDEX = 24  # tau is the true layer at the 25th observation
FLEET_SIZE = 25
EQUALITY_SUBSET = 4  # offline-audit series also replayed through run_stream
SUITE_BUDGET = 0.05  # the CLI's budgets for noisy input
SUITE_BAND = 0.1

CANONICAL = anchoring.AnchorPolicy(mode="canonical")
PLAIN = anchoring.AnchorPolicy(mode="none")


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload."""

    name: str
    index: int  # mixed into the seed so workloads never share inputs
    length: int  # observations per series
    pool: int  # series generated at set-up; the timed loop cycles through them
    quality_units: int  # first units, whose outputs feed the quality figures
    traced_units: int  # units in the fixed work of a traced run
    op: str  # what one latency sample times


SPECS = {
    spec.name: spec
    for spec in (
        Spec("stream-long", 0, 1000, 32, 8, 2, "ingest"),
        Spec("fleet-stop", 1, 60, 1000, 8, 8, "run"),
        Spec("offline-audit", 2, 60, 200, 48, 12, "audit"),
    )
}


@dataclass(frozen=True)
class Item:
    """One generated series and how it is to be run."""

    index: int
    true: model.PowerLawParams
    series: model.ObservationSeries
    config: controller.RunConfig


def make_items(spec: Spec, seed: int) -> list[Item]:
    """The workload's input pool; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, spec.index])
    noise = synth.NoiseSpec("gaussian", sigma=SIGMA)
    items = []
    for i in range(spec.pool):
        true = model.PowerLawParams(
            float(rng.uniform(400, 900)), float(rng.uniform(0.35, 0.5)), float(rng.uniform(90, 99))
        )
        series = synth.generate_series(synth.SynthSpec(
            true_params=true, kernel=KERNEL, step=STEP, count=spec.length, noise=noise,
            seed=int(rng.integers(2**32)),
        ))
        if spec.name == "stream-long":
            config = controller.RunConfig(tau=0.0, anchor_policy=CANONICAL)
        else:
            tau = true.a * series.points[TAU_INDEX].position ** (-true.b)
            policy = CANONICAL if spec.name == "offline-audit" or i % 2 else PLAIN
            config = controller.RunConfig(tau=tau, anchor_policy=policy)
        items.append(Item(i, true, series, config))
    return items


@dataclass
class Record:
    """What the loop measured and checked."""

    timed_s: float = 0.0
    observations: int = 0  # offered to the library inside timed sections
    latencies: list[float] = field(default_factory=list)  # seconds per op
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    mape: list[float] = field(default_factory=list)
    used: list[float] = field(default_factory=list)  # share of a series consumed
    suite_passed: list[bool] = field(default_factory=list)
    levels_reached: int = 0  # levels the streamed runs fitted at least once
    stored_residuals: int = 0
    batch_fits: int = 0

    def timed(self, seconds: float, observations: int, op: bool = True) -> None:
        """Account one completed timed section; ``op`` marks a latency sample."""
        self.timed_s += seconds
        self.observations += observations
        if op:
            self.latencies.append(seconds)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.failures) < 5:
            self.failures.append(message)


def _mape_of(true: model.PowerLawParams, params: model.PowerLawParams, position: int) -> float:
    pes = [metrics.percentage_error(model.eval_pattern(true, k * position),
                                    model.eval_pattern(params, k * position))
           for k in PREDICT_FACTORS]
    return metrics.mape(pes)


def _residual_count(state: controller.RunState) -> int:
    return sum(len(t.residuals) for t in state.trace.trends.values())


# ---------------------------------------------------------------- stream-long

def stream_unit(items, u, rec: Record, quality: bool, tracer=None) -> None:
    """Stream one 1000-point series through ``ingest`` with tau = 0."""
    item = items[u % len(items)]
    points = item.series.points
    n = len(points)
    clock = time.perf_counter
    ingest = controller.ingest
    rec.attempted += n
    state = controller.new_run(item.config)
    try:
        for j, obs in enumerate(points):
            t0 = clock()
            ingest(state, obs)
            rec.timed(clock() - t0, 1)
    except Exception:  # noqa: BLE001 - a raising ingest fails the series
        rec.timed_s += clock() - t0
        rec.fail(n, traceback.format_exc(limit=3))
        return

    trace = state.trace
    ok = (not state.stopped and trace.levels() == list(range(3, n + 1))
          and sorted(trace.trends) == trace.levels()
          and all(math.isfinite(v) for v in trace.backbone))
    if not ok:
        rec.fail(n, f"stream-long series {item.index}: trace or stop state wrong")
    rec.levels_reached += len(trace.backbone)
    rec.stored_residuals += _residual_count(state)
    if quality:
        last = trace.trends[trace.last_level]
        rec.mape.append(_mape_of(item.true, last.params, last.position))
        rec.used.append(1.0)


# ----------------------------------------------------------------- fleet-stop

def _run_one(item: Item):
    """One ``curvecast run --predict-at ... --plot`` done in memory."""
    state = controller.new_run(item.config)
    used = 0
    for obs in item.series.points:
        controller.ingest(state, obs)
        used += 1
        if state.stopped:
            break
    predict_at = [state.cposition * k for k in PREDICT_FACTORS] if state.stopped else []
    report = reports.build_run_report(state, predict_at=predict_at)
    text = reports.report_to_json(report)
    markers = {label: pos for label, pos in (("working", state.wposition),
                                             ("prediction", state.pposition),
                                             ("convergence", state.cposition))
               if pos is not None}
    svg = plotting.render_svg(state.trace, state.series, selected=state.selected_trend,
                              markers=markers)
    return state, used, report, text, svg


def fleet_unit(items, u, rec: Record, quality: bool, tracer=None, *, validator) -> None:
    """Run one fleet of series to their stop, then score them together."""
    clock = time.perf_counter
    fleet = [items[(u * FLEET_SIZE + j) % len(items)] for j in range(FLEET_SIZE)]
    finished = []
    for item in fleet:
        rec.attempted += 1
        t0 = clock()
        try:
            with _span(tracer, "bench.run"):
                state, used, report, text, svg = _run_one(item)
        except Exception:  # noqa: BLE001 - a raising run is a failed op
            rec.timed_s += clock() - t0
            rec.fail(1, traceback.format_exc(limit=3))
            continue
        rec.timed(clock() - t0, used)
        rec.levels_reached += len(state.trace.backbone)
        rec.stored_residuals += _residual_count(state)
        problems = []
        if not state.stopped:
            problems.append("did not stop")
        problems.extend(e.message for e in validator.iter_errors(report))
        if not text or not svg.endswith("</svg>\n"):
            problems.append("empty report or SVG")
        if problems:
            rec.fail(1, f"fleet-stop series {item.index}: {'; '.join(problems[:3])}")
            continue
        finished.append((item, state, used))

    if not finished:
        return
    t0 = clock()
    with _span(tracer, "bench.evaluate"):
        runs, segments = {}, {}
        for item, state, _ in finished:
            name = f"s{item.index}"
            runs[name] = tuple(
                (model.eval_pattern(item.true, state.cposition * k),
                 controller.predict(state, state.cposition * k))
                for k in PREDICT_FACTORS)
            segments[name] = controller.backbone_segment(state, state.wlevel, state.clevel)
        scored = metrics.evaluate_runs(
            metrics.ControlSequence(positions=PREDICT_FACTORS, runs=runs), segments)
    rec.timed(clock() - t0, 0, op=False)
    if len(scored.mape) != len(finished) or not all(map(math.isfinite, scored.mape.values())):
        rec.fail(len(finished), f"fleet-stop fleet {u}: evaluate_runs output incomplete")
    elif quality:
        rec.mape.extend(scored.mape[f"s{item.index}"] for item, _, _ in finished)
        rec.used.extend(used / len(item.series) for item, _, used in finished)


# -------------------------------------------------------------- offline-audit

def audit_unit(items, u, rec: Record, quality: bool, tracer=None) -> None:
    """Analyse one finished log: ``run_batch`` then ``theorem_suite``."""
    item = items[u % len(items)]
    clock = time.perf_counter
    suite_config = synth.TheoremSuiteConfig(
        true_params=item.true, violation_budget=SUITE_BUDGET, monotone_tolerance=SUITE_BAND)
    rec.attempted += 1
    fits_before = tracer.counters["fitting.calls"] if tracer else 0
    t0 = clock()
    try:
        with _span(tracer, "bench.audit"):
            state = controller.run_batch(item.config, item.series.points)
            if tracer:
                rec.batch_fits += tracer.counters["fitting.calls"] - fits_before
            suite = synth.theorem_suite(item.series, suite_config)
    except Exception:  # noqa: BLE001 - a raising audit is a failed op
        rec.timed_s += clock() - t0
        rec.fail(1, traceback.format_exc(limit=3))
        return
    rec.timed(clock() - t0, len(item.series))
    rec.stored_residuals += _residual_count(state)

    problems = []
    if not suite.results:
        problems.append("empty theorem report")
    if tracer is None and u < EQUALITY_SUBSET:
        # Criterion 7: the offline path reproduces the online state exactly.
        if controller.run_stream(item.config, item.series.points) != state:
            problems.append("run_batch state differs from run_stream")
    if problems:
        rec.fail(1, f"offline-audit series {item.index}: {'; '.join(problems)}")
        return
    if quality:
        rec.suite_passed.append(suite.all_passed)
        rec.used.append((len(item.series) - state.ignored_after_stop) / len(item.series))
        if state.stopped:
            rec.mape.append(_mape_of(item.true, state.selected_trend.params, state.cposition))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


UNITS = {"stream-long": stream_unit, "fleet-stop": fleet_unit, "offline-audit": audit_unit}
