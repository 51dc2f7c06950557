"""Run lifecycle: consume observations, maintain the trace, detect the
working/prediction/convergence levels and answer prediction queries.

Level milestones are one-time events: once declared they are never
retracted, which gives downstream consumers a stable reference frame. With
canonical anchoring, the levels between the working level and the moment it
became verifiable are refitted with anchors on declaration, so the stored
trace always matches the canonical chain regardless of arrival timing;
every later ingest hands the trace its working level, and the trace derives
the next anchor from it.

Because milestones are one-time and a stored trend never changes after that
one rebuild, each ingest checks only what its new level can change: the one
look-ahead window ending at the newest converged level while the working
level is open, then the newest trend alone for the prediction and
convergence levels. That window goes whole to
:func:`~curvecast.levels.working_level`, the one statement of the rule,
which the offline audit calls on the whole backbone. All levels from the
working level on are scanned once, on the ingest that declares it, so no
ingest rescans the trace. The offline path folds the same ingests, so it stops
fitting at the ingest where the online run stops.

The layer checked against tau is :func:`stopping_layer`: the
horizon-bounded layer where :func:`~curvecast.trace.convergence_layer_bounded`
gives one, the plain layer otherwise.

Every run starts from one shared empty series, built once at import: its
buffer has no room, so a run's first ingest copies into a buffer of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .anchoring import AnchorPolicy
from .errors import NotStoppedError, SequencingError
from .levels import LevelParams, prediction_level, working_level
from .model import FIRST_LEVEL, LearningTrend, Observation, ObservationSeries, eval_pattern
from .trace import (
    LearningTrace,
    anchored_chain,
    convergence_layer,
    convergence_layer_bounded,
    extend_trace,
)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one run: level detection knobs, the convergence
    threshold tau, anchoring policy and an optional finite horizon."""

    tau: float
    level_params: LevelParams = field(default_factory=LevelParams)
    anchor_policy: AnchorPolicy = field(default_factory=AnchorPolicy)
    end_position: int | None = None

    def __post_init__(self):
        # tau == 0 is allowed and means "never stop": layers are strictly
        # positive, so the threshold is unreachable. The chained test also
        # rejects NaN, and inf, which a report could not write as JSON; a
        # huge finite tau stops at the prediction level. A bool is not a
        # threshold: the report would write it as JSON true or false.
        if type(self.tau) is bool or not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be a finite number >= 0, got {self.tau!r}")
        if self.end_position is not None and (
                type(self.end_position) is not int or self.end_position < 1):
            raise ValueError(
                f"end_position must be a positive integer, got {self.end_position!r}")


@dataclass
class RunState:
    """Mutable state of one run; equality is exact field-by-field, which is
    what the determinism guarantees are stated against. Each milestone is
    stored once, as its level: its position and ``stopped`` are read off it.
    """

    config: RunConfig
    series: ObservationSeries
    trace: LearningTrace
    wlevel: int | None = None
    plevel: int | None = None
    clevel: int | None = None
    ignored_after_stop: int = 0

    @property
    def wposition(self) -> int | None:
        return None if self.wlevel is None else self.trace.trends[self.wlevel].position

    @property
    def pposition(self) -> int | None:
        return None if self.plevel is None else self.trace.trends[self.plevel].position

    @property
    def cposition(self) -> int | None:
        return None if self.clevel is None else self.trace.trends[self.clevel].position

    @property
    def stopped(self) -> bool:
        return self.clevel is not None

    @property
    def selected_trend(self) -> LearningTrend | None:
        return None if self.clevel is None else self.trace.trends[self.clevel]


# Never changes: an empty buffer has no room to append in place.
_EMPTY_SERIES = ObservationSeries()


def new_run(config: RunConfig) -> RunState:
    """A run with no observations, on the shared empty series."""
    return RunState(config=config, series=_EMPTY_SERIES, trace=LearningTrace())


def stopping_layer(trend: LearningTrend, end_position: int | None) -> float:
    """Layer checked against tau: the horizon-bounded layer where
    :func:`~curvecast.trace.convergence_layer_bounded` gives one, the plain
    layer otherwise."""
    bounded = convergence_layer_bounded(trend, end_position)
    return convergence_layer(trend) if bounded is None else bounded


def ingest(state: RunState, observation: Observation) -> RunState:
    """Feed one observation; updates the trace and level milestones.

    After the run has stopped further observations are ignored (counted in
    ``ignored_after_stop``). Out-of-order positions raise.
    """
    if state.stopped:
        state.ignored_after_stop += 1
        return state
    try:
        state.series = state.series.with_point(observation)
    except ValueError as error:
        raise SequencingError(f"position {observation.position} is not past "
                              f"{state.series.positions[-1]}") from error
    level = len(state.series)
    if level < FIRST_LEVEL:
        return state
    canonical = state.config.anchor_policy.mode == "canonical"
    extend_trace(state.trace, state.series, omega=state.wlevel if canonical else None)
    if state.wlevel is None:
        omega = _newest_working_level(state.trace, state.config.level_params)
        if omega is not None:
            _declare_working_level(state, omega)
    else:
        _declare_later_milestones(state, (level,))
    return state


def _newest_working_level(trace: LearningTrace, params: LevelParams) -> int | None:
    """Working level judged on the one window that ends at the newest level.

    Every earlier window was judged, and failed, when its last level
    arrived, and no trend changes before the working level is declared; so
    only a converged newest trend can complete a new window. The window is
    the newest ``lookahead + 2`` converged levels, collected from the
    newest back, and :func:`working_level` judges it and names the level.
    """
    trends = trace.trends
    last = trace.last_level
    if not trends[last].converged:
        return None
    window = []
    for level in range(last, FIRST_LEVEL - 1, -1):
        if trends[level].converged:
            window.append(level)
            if len(window) == params.lookahead + 2:
                break
    else:
        return None
    window.reverse()
    return working_level([trends[level].params.c for level in window],
                         [trends[level].position for level in window], params, levels=window)


def _declare_working_level(state: RunState, omega: int) -> None:
    """Record the working level, rebuild the anchored chain when requested
    and scan every level from ``omega`` for the later milestones once."""
    state.wlevel = omega
    if state.config.anchor_policy.mode == "canonical":
        state.trace = anchored_chain(state.trace, omega)
    _declare_later_milestones(state, range(omega, state.trace.last_level + 1))


def _declare_later_milestones(state: RunState, fresh: Iterable[int]) -> None:
    """Prediction and convergence checks on the levels in ``fresh``.

    Stored trends never change after the working level is declared, so a
    level that failed a check once fails it for good: each ingest only
    needs to look at the trend it added.
    """
    trace = state.trace
    levels = [level for level in fresh if trace.trends[level].converged]
    if state.plevel is None:
        rho = prediction_level([trace.alpha(level) for level in levels], state.wlevel,
                               levels=levels)
        if rho is None:
            return
        state.plevel = rho
    for level in levels:
        if level < state.plevel:
            continue
        if stopping_layer(trace.trends[level], state.config.end_position) <= state.config.tau:
            state.clevel = level
            return


def predict(state: RunState, position: float) -> float:
    """Accuracy estimate at ``position`` from the selected trend."""
    if not state.stopped:
        raise NotStoppedError("no prediction before the convergence level is reached")
    return eval_pattern(state.selected_trend.params, position)


def run_stream(config: RunConfig, observations) -> RunState:
    """Online path: fold ``ingest`` over the observations."""
    state = new_run(config)
    for obs in observations:
        ingest(state, obs)
    return state


def run_batch(config: RunConfig, observations) -> RunState:
    """Offline path over a finished log.

    The log is taken once and checked whole, as one series, before any
    fit; then the same observations are folded through :func:`run_stream`,
    so it stops fitting at the ingest where the online run stops and yields
    the identical state from the same fits.
    """
    observations = tuple(observations)
    ObservationSeries(observations)
    return run_stream(config, observations)


def backbone_segment(state: RunState, from_level: int, to_level: int) -> list[float]:
    """Asymptote values of converged trends with levels in [from_level,
    to_level]; the robustness-rate input for a finished run."""
    levels, alphas, _ = state.trace.converged_view()
    return [alpha for level, alpha in zip(levels, alphas) if from_level <= level <= to_level]
