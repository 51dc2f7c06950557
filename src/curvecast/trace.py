"""Learning trace: one trend per level, its asymptote backbone, convergence
layers, trend intersections and the correctness bound derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .anchoring import AnchorPolicy, fit_anchored_trend, next_canonical_anchor
from .errors import InsufficientDataError, SequencingError
from .fitting import fit_power_law
from .model import FIRST_LEVEL, LearningTrend, ObservationSeries, PowerLawParams, eval_pattern

# Root search domain for trend intersections: covers all realistic training
# sizes with wide margin; crossings outside it are not reported.
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e12
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
    """Append-only sequence of trends, one per level from ``FIRST_LEVEL``
    on, kept in level order.

    The trends are the whole trace: the last level, the level list and the
    asymptote ``backbone`` (every stored trend's, converged or not) are read
    off them. Consumers that need clean data filter through
    ``converged_view``.
    """

    trends: dict[int, LearningTrend] = field(default_factory=dict)

    @property
    def last_level(self) -> int | None:
        return next(reversed(self.trends), None)

    @property
    def backbone(self) -> tuple[float, ...]:
        return tuple(trend.params.c for trend in self.trends.values())

    def levels(self) -> list[int]:
        return list(self.trends)

    def alpha(self, level: int) -> float:
        return self.trends[level].params.c

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
) -> LearningTrace:
    """Fit the prefix of length ``level`` and append the trend, anchored
    at ``anchor`` as the run's ``policy`` represents it when one is given.

    Levels must arrive consecutively. A failed fit is stored flagged as
    non-converged rather than raised, so one bad level cannot wedge a run.
    """
    if anchor is not None and policy is None:
        raise ValueError("an anchored fit needs the run's anchor policy")
    expected = FIRST_LEVEL if trace.last_level is None else trace.last_level + 1
    if level != expected:
        raise SequencingError(f"expected level {expected}, got {level}")
    if len(series) < level:
        raise InsufficientDataError(f"series has {len(series)} points, level {level} needs {level}")
    prefix = series.prefix(level)
    initial = None
    if trace.last_level is not None:
        previous = trace.trends[trace.last_level]
        if previous.converged:
            initial = previous.params
    if anchor is None:
        trend = fit_power_law(prefix, initial=initial)
    else:
        trend = fit_anchored_trend(prefix, anchor, policy, initial=initial)
    trace.trends[level] = trend
    return trace


def anchored_chain(
    reference: LearningTrace,
    series: ObservationSeries,
    omega: int,
    policy: AnchorPolicy,
) -> LearningTrace:
    """Canonical anchor chain over the levels of ``reference``.

    Levels up to the working level ``omega`` are copied as fitted; every
    later level is refitted with the anchor chained from the one before.
    Extending the result with :func:`next_canonical_anchor` continues the
    same chain.
    """
    chain = LearningTrace()
    for level in range(FIRST_LEVEL, omega + 1):
        chain.trends[level] = reference.trends[level]
    for level in range(omega + 1, reference.last_level + 1):
        anchor = next_canonical_anchor(chain, omega)
        extend_trace(chain, series, level, anchor=anchor, policy=policy)
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


def _params_close(t1: PowerLawParams, t2: PowerLawParams) -> bool:
    return (abs(t1.a - t2.a) <= _SAME_PARAMS_TOL and abs(t1.b - t2.b) <= _SAME_PARAMS_TOL
            and abs(t1.c - t2.c) <= _SAME_PARAMS_TOL)


def trend_intersection(t1: PowerLawParams, t2: PowerLawParams) -> CrossingPoints:
    """Crossing points of two distinct curves on ``[_BRACKET_LO, _BRACKET_HI]``.

    Trends within ``_SAME_PARAMS_TOL`` of each other count as one trend, as
    in :func:`epsilon_bound`, and are rejected: near coincidence rounding
    decides the sign of their difference and makes spurious roots.

    In ``t = log x`` the difference is ``g(t) = dc - a1 e^(-b1 t) + a2 e^(-b2 t)``,
    whose derivative vanishes at most once, at
    ``t* = ln(a1 b1 / (a2 b2)) / (b1 - b2)``. Cutting the domain there leaves
    at most two monotone pieces, each holding at most one root, which
    bisection finds. Crossings outside the domain are not reported.
    """
    if _params_close(t1, t2):
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

    cuts = [_BRACKET_LO, _BRACKET_HI]
    if t1.b != t2.b:
        t_turn = (log_a1 + math.log(t1.b) - log_a2 - math.log(t2.b)) / (t1.b - t2.b)
        if math.log(_BRACKET_LO) < t_turn < math.log(_BRACKET_HI):
            cuts.insert(1, math.exp(t_turn))
    values = [diff(x) for x in cuts]

    roots: list[float] = []
    for lo, hi, flo, fhi in zip(cuts, cuts[1:], values, values[1:]):
        if flo == 0.0:
            roots.append(lo)
        elif flo * fhi < 0.0:
            roots.append(_bisect(diff, lo, hi, flo))
    if values[-1] == 0.0:
        roots.append(cuts[-1])

    if not roots:
        return CrossingPoints(first=None, last=None)
    points = [(x, eval_pattern(t1, x)) for x in roots]
    if len(points) == 1:
        return CrossingPoints(first=None, last=points[0])
    return CrossingPoints(first=points[0], last=points[-1])


def _bisect(fn, lo, hi, flo):
    """Log-space bisection of the sign change of ``fn`` on ``(lo, hi)``.

    Stops at an exact zero or when no float lies strictly between ``lo``
    and ``hi``; it then returns ``lo``, which stays below the piece's end,
    so the roots of two neighbouring pieces never coincide.
    """
    while True:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            return lo
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid


def epsilon_bound(trace: LearningTrace, i: int) -> float | None:
    """Correctness bound at level ``i``: distance from the last crossing of
    the level-``i`` and level-``i-1`` trends to the level-``i`` asymptote.

    Exposed only on the practically usable branch: the local backbone must
    be non-increasing, and the two trends must actually cross. Returns 0
    when the consecutive trends coincide, None when unavailable, which
    includes trends whose only crossing lies outside the search domain of
    :func:`trend_intersection` (e.g. ``(500, .4, 99)`` and
    ``(400, .4, 99 - 1e-4)``, which cross near ``x = 1e15``).
    """
    if i < FIRST_LEVEL + 1:
        raise ValueError(
            f"the bound needs two consecutive trends, so level >= {FIRST_LEVEL + 1}")
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
