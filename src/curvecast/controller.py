"""Run lifecycle: consume observations, maintain the trace, detect the
working/prediction/convergence levels and answer prediction queries.

Level milestones are one-time events: once declared they are never
retracted, which gives downstream consumers a stable reference frame. With
canonical anchoring, the levels between the working level and the moment it
became verifiable are refitted with anchors on declaration, so the stored
trace always matches the canonical chain regardless of arrival timing.

Because milestones are one-time and a stored trend never changes after that
one rebuild, each ingest checks only what its new level can change: the one
look-ahead window ending at the newest converged level while the working
level is open, then the newest trend alone for the prediction and
convergence levels. All levels from the working level on are scanned once,
on the ingest that declares it, so no ingest rescans the trace. The
offline path folds the same ingests, so it stops fitting at the ingest
where the online run stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .anchoring import AnchorPolicy, next_canonical_anchor
from .errors import NotStoppedError, SequencingError
from .fitting import DEFAULT_CONFIG, FitConfig
from .levels import LevelParams, prediction_level, working_level
from .model import LearningTrend, Observation, ObservationSeries, eval_pattern
from .trace import (
    LearningTrace,
    anchored_chain,
    convergence_layer,
    convergence_layer_bounded,
    extend_trace,
)

FIRST_LEVEL = 3


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one run: level detection knobs, the convergence
    threshold tau, anchoring policy and an optional finite horizon."""

    tau: float
    level_params: LevelParams = field(default_factory=LevelParams)
    anchor_policy: AnchorPolicy = field(default_factory=AnchorPolicy)
    end_position: int | None = None
    fit_config: FitConfig = DEFAULT_CONFIG

    def __post_init__(self):
        # tau == 0 is allowed and means "never stop": layers are strictly
        # positive, so the threshold is unreachable.
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


@dataclass
class RunState:
    """Mutable state of one run; equality is exact field-by-field, which is
    what the determinism guarantees are stated against."""

    config: RunConfig
    series: ObservationSeries
    trace: LearningTrace
    wlevel: int | None = None
    wposition: int | None = None
    plevel: int | None = None
    pposition: int | None = None
    clevel: int | None = None
    cposition: int | None = None
    stopped: bool = False
    ignored_after_stop: int = 0

    @property
    def selected_trend(self) -> LearningTrend | None:
        if self.clevel is None:
            return None
        return self.trace.trends[self.clevel]


def new_run(config: RunConfig) -> RunState:
    anchored = config.anchor_policy.mode == "canonical"
    return RunState(
        config=config,
        series=ObservationSeries.from_points(()),
        trace=LearningTrace(anchored=anchored),
    )


def stopping_layer(trend: LearningTrend, end_position: int | None) -> float:
    """Layer checked against tau: horizon-bounded when a horizon is set and
    still ahead of the trend, plain otherwise."""
    if end_position is not None and end_position > trend.position:
        return convergence_layer_bounded(trend, end_position)
    return convergence_layer(trend)


def ingest(state: RunState, observation: Observation) -> RunState:
    """Feed one observation; updates the trace and level milestones.

    After the run has stopped further observations are ignored (counted in
    ``ignored_after_stop``). Out-of-order positions raise.
    """
    if state.stopped:
        state.ignored_after_stop += 1
        return state
    points = state.series.points
    if points and observation.position <= points[-1].position:
        raise SequencingError(
            f"position {observation.position} is not past {points[-1].position}"
        )
    state.series = state.series.with_point(observation)
    level = len(state.series)
    if level < FIRST_LEVEL:
        return state
    _extend(state, level)
    if state.wlevel is None:
        omega = _newest_working_level(state.trace, state.config.level_params)
        if omega is not None:
            _declare_working_level(state, omega)
    else:
        _declare_later_milestones(state, (level,))
    return state


def _extend(state: RunState, level: int) -> None:
    """Fit ``level`` onto the run's trace, anchored past the working level
    when the policy asks for it."""
    policy = state.config.anchor_policy
    if policy.mode == "canonical" and state.wlevel is not None:
        anchor = next_canonical_anchor(state.trace, state.wlevel)
        extend_trace(state.trace, state.series, level, anchor=anchor, policy=policy,
                     config=state.config.fit_config)
    else:
        extend_trace(state.trace, state.series, level, config=state.config.fit_config)


def _newest_working_level(trace: LearningTrace, params: LevelParams) -> int | None:
    """Working level judged on the one window that ends at the newest level.

    Every earlier window was judged, and failed, when its last level
    arrived, and no trend changes before the working level is declared; so
    only a converged newest trend can complete a new window.
    """
    if not trace.trends[trace.last_level].converged:
        return None
    needed = params.lookahead + 2
    levels: list[int] = []
    for level in range(trace.last_level, trace.start_level - 1, -1):
        if trace.trends[level].converged:
            levels.append(level)
            if len(levels) == needed:
                break
    levels.reverse()
    alphas = [trace.alpha(level) for level in levels]
    positions = [trace.trends[level].position for level in levels]
    return working_level(alphas, positions, params, levels=levels)


def _declare_working_level(state: RunState, omega: int) -> None:
    """Record the working level, rebuild the anchored chain when requested
    and scan every level from ``omega`` for the later milestones once."""
    state.wlevel = omega
    state.wposition = state.trace.trends[omega].position
    policy = state.config.anchor_policy
    if policy.mode == "canonical":
        state.trace = anchored_chain(state.trace, state.series, omega, policy,
                                     state.config.fit_config)
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
        state.pposition = trace.trends[rho].position
    for level in levels:
        if level < state.plevel:
            continue
        trend = trace.trends[level]
        if stopping_layer(trend, state.config.end_position) <= state.config.tau:
            state.clevel = level
            state.cposition = trend.position
            state.stopped = True
            return


def predict(state: RunState, position: float) -> float:
    """Accuracy estimate at ``position`` from the selected trend."""
    if not state.stopped or state.selected_trend is None:
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

    The whole log is validated as one series, then folded through
    :func:`run_stream`, so it stops fitting at the ingest where the online
    run stops and yields the identical state from the same fits.
    """
    series = ObservationSeries.from_points(observations)
    return run_stream(config, series.points)


def backbone_segment(state: RunState, from_level: int, to_level: int) -> list[float]:
    """Asymptote values of converged trends with levels in [from_level,
    to_level]; the robustness-rate input for a finished run."""
    levels, alphas, _ = state.trace.converged_view()
    return [alpha for level, alpha in zip(levels, alphas) if from_level <= level <= to_level]
