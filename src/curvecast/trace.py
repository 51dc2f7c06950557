"""Learning trace: one trend per level, its asymptote backbone, convergence
layers, trend intersections and the correctness bound derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .anchoring import AnchorPolicy, fit_anchored_trend, next_canonical_anchor
from .errors import InsufficientDataError, SequencingError
from .fitting import DEFAULT_CONFIG, FitConfig, fit_power_law
from .model import LearningTrend, ObservationSeries, PowerLawParams, eval_pattern

# Root search domain for trend intersections: log-spaced cells covering all
# realistic training sizes with wide margin.
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e12
_BRACKET_CELLS = 2048
_ROOT_TOL = 1e-10
_SAME_PARAMS_TOL = 1e-9


@dataclass(frozen=True)
class CrossingPoints:
    """Intersections of two trends: at most a first and a last one."""

    first: tuple[float, float] | None
    last: tuple[float, float] | None

    def __post_init__(self):
        if self.first is not None and self.last is not None:
            if not self.first[0] < self.last[0]:
                raise ValueError("first crossing must precede the last one")

    @property
    def count(self) -> int:
        return (self.first is not None) + (self.last is not None)


@dataclass
class LearningTrace:
    """Append-only sequence of trends, one per level starting at 3.

    ``backbone`` mirrors the asymptote of every stored trend, converged or
    not; consumers that need clean data filter through ``converged_view``.
    """

    anchored: bool = False
    start_level: int = 3
    trends: dict[int, LearningTrend] = field(default_factory=dict)
    backbone: list[float] = field(default_factory=list)

    @property
    def last_level(self) -> int | None:
        return self.start_level + len(self.backbone) - 1 if self.backbone else None

    def levels(self) -> list[int]:
        return list(range(self.start_level, self.start_level + len(self.backbone)))

    def alpha(self, level: int) -> float:
        return self.backbone[level - self.start_level]

    def converged_view(self) -> tuple[list[int], list[float], list[int]]:
        """(levels, asymptotes, positions) of converged trends only."""
        levels, alphas, positions = [], [], []
        for level in self.levels():
            trend = self.trends[level]
            if trend.converged:
                levels.append(level)
                alphas.append(trend.params.c)
                positions.append(trend.position)
        return levels, alphas, positions


def extend_trace(
    trace: LearningTrace,
    series: ObservationSeries,
    level: int,
    *,
    anchor: float | None = None,
    policy: AnchorPolicy | None = None,
    config: FitConfig = DEFAULT_CONFIG,
) -> LearningTrace:
    """Fit the prefix of length ``level`` and append the trend.

    Levels must arrive consecutively. A failed fit is stored flagged as
    non-converged rather than raised, so one bad level cannot wedge a run.
    """
    expected = trace.start_level if trace.last_level is None else trace.last_level + 1
    if level != expected:
        raise SequencingError(f"expected level {expected}, got {level}")
    if len(series) < level:
        raise InsufficientDataError(f"series has {len(series)} points, level {level} needs {level}")
    points = series.prefix(level)
    initial = None
    if trace.last_level is not None:
        previous = trace.trends[trace.last_level]
        if previous.converged:
            initial = previous.params
    if anchor is None:
        result = fit_power_law(points, config=config, initial=initial)
        trend = LearningTrend(
            level=level,
            params=result.params,
            residuals=result.residuals,
            position=points[-1].position,
            converged=result.converged,
        )
    else:
        trend = fit_anchored_trend(
            points, anchor, policy or AnchorPolicy(mode="canonical"), config, initial=initial
        )
    trace.trends[level] = trend
    trace.backbone.append(trend.params.c)
    return trace


def anchored_chain(
    reference: LearningTrace,
    series: ObservationSeries,
    omega: int,
    policy: AnchorPolicy,
    config: FitConfig = DEFAULT_CONFIG,
) -> LearningTrace:
    """Canonical anchor chain over the levels of ``reference``.

    Levels up to the working level ``omega`` are copied as fitted; every
    later level is refitted with the anchor chained from the one before.
    Extending the result with :func:`next_canonical_anchor` continues the
    same chain.
    """
    chain = LearningTrace(anchored=True, start_level=reference.start_level)
    for level in range(reference.start_level, omega + 1):
        chain.trends[level] = reference.trends[level]
        chain.backbone.append(reference.alpha(level))
    for level in range(omega + 1, reference.last_level + 1):
        anchor = next_canonical_anchor(chain, omega)
        extend_trace(chain, series, level, anchor=anchor, policy=policy, config=config)
    return chain


def convergence_layer(trend: LearningTrend) -> float:
    """Gap between the trend's value at its own level and its asymptote.

    Algebraically a * position**(-b): the accuracy still to be gained if
    this trend were the final word.
    """
    return abs(eval_pattern(trend.params, trend.position) - trend.params.c)


def convergence_layer_bounded(trend: LearningTrend, end_position: int) -> float:
    """Layer against the value reached at a finite horizon instead of the
    asymptote; converges to the plain layer as the horizon grows."""
    if end_position <= trend.position:
        raise ValueError(
            f"end_position {end_position} must exceed the trend position {trend.position}"
        )
    return abs(
        eval_pattern(trend.params, trend.position) - eval_pattern(trend.params, end_position)
    )


def _params_close(t1: PowerLawParams, t2: PowerLawParams, tol: float = _SAME_PARAMS_TOL) -> bool:
    return abs(t1.a - t2.a) <= tol and abs(t1.b - t2.b) <= tol and abs(t1.c - t2.c) <= tol


def trend_intersection(t1: PowerLawParams, t2: PowerLawParams) -> CrossingPoints:
    """Crossing points of two distinct curves on (0, inf).

    The difference of two members of the family has at most two roots;
    they are bracketed on a fixed log grid and polished by bisection.
    """
    if t1 == t2:
        raise ValueError("cannot intersect a trend with itself")
    log_a1, log_a2 = math.log(t1.a), math.log(t2.a)

    def diff(x: float) -> float:
        lxv = math.log(x)
        e1 = log_a1 - t1.b * lxv
        e2 = log_a2 - t2.b * lxv
        if e1 > 700.0 or e2 > 700.0:
            # A power term this large dwarfs any asymptote gap; only the
            # dominant side's sign survives.
            if e1 == e2:
                return t1.c - t2.c
            return -math.inf if e1 > e2 else math.inf
        return (t1.c - t2.c) - math.exp(e1) + math.exp(e2)

    log_lo, log_hi = math.log(_BRACKET_LO), math.log(_BRACKET_HI)
    grid = [math.exp(log_lo + (log_hi - log_lo) * i / _BRACKET_CELLS) for i in range(_BRACKET_CELLS + 1)]
    values = [diff(x) for x in grid]

    roots: list[float] = []
    for i in range(_BRACKET_CELLS):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = values[i], values[i + 1]
        if flo == 0.0:
            if not roots or roots[-1] != lo:
                roots.append(lo)
            continue
        if flo * fhi < 0.0:
            roots.append(_bisect(diff, lo, hi, flo))
    if values[-1] == 0.0:
        roots.append(grid[-1])

    if not roots:
        return CrossingPoints(first=None, last=None)
    points = [(x, eval_pattern(t1, x)) for x in roots]
    if len(points) == 1:
        return CrossingPoints(first=None, last=points[0])
    return CrossingPoints(first=points[0], last=points[-1])


def _bisect(fn, lo, hi, flo, max_iter=200):
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)  # bisection in log space
        fmid = fn(mid)
        if abs(fmid) < _ROOT_TOL:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def epsilon_bound(trace: LearningTrace, i: int) -> float | None:
    """Correctness bound at level ``i``: distance from the last crossing of
    the level-``i`` and level-``i-1`` trends to the level-``i`` asymptote.

    Exposed only on the practically usable branch: the local backbone must
    be non-increasing, and the two trends must actually cross. Returns 0
    when the consecutive trends coincide, None when unavailable.
    """
    if i < 4:
        raise ValueError("the bound needs two consecutive trends, so level >= 4")
    if i not in trace.trends or (i - 1) not in trace.trends:
        raise ValueError(f"levels {i - 1} and {i} must both be present")
    current, previous = trace.trends[i], trace.trends[i - 1]
    if not (current.converged and previous.converged):
        return None
    if _params_close(current.params, previous.params):
        return 0.0
    if current.params.c > previous.params.c:  # locally increasing branch
        return None
    crossing = trend_intersection(current.params, previous.params)
    if crossing.last is None:
        return None
    return abs(crossing.last[1] - current.params.c)
