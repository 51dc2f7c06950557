"""Learning trace: one trend per level, its asymptote backbone, convergence
layers, trend intersections and the correctness bound derived from them.

A finite horizon counts for a trend's bounded layer only while it lies
ahead of the trend. :func:`convergence_layer_bounded` alone decides that,
and returns None where no horizon lies ahead.

A trace grows from itself: :func:`extend_trace` fits the level after its
last, started from the previous trend's decay when that trend converged
and, given the working level, anchored at the canonical anchor the trace
itself determines; :func:`anchored_chain` refits the levels past the
working level on the series of the reference's last trend.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .anchoring import fit_anchored_trend, next_canonical_anchor
from .errors import InsufficientDataError
from .fitting import fit_power_law
from .model import FIRST_LEVEL, LearningTrend, ObservationSeries, PowerLawParams, eval_pattern

# Root search domain for trend intersections: covers all realistic training
# sizes with wide margin; crossings outside it are not reported.
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e12
_T_LO = math.log(_BRACKET_LO)
_T_HI = math.log(_BRACKET_HI)
_SAME_PARAMS_TOL = 1e-9
_EPS = sys.float_info.epsilon
# The rounding band of ``g(t)`` where a root solve ends: this share of the
# size of its terms, below which the computed sign of ``g`` is noise, plus
# its slope times a few ulps of ``t``.
_ROUNDING = 4.0 * _EPS
_ULPS = 2.0 * _EPS


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
    *,
    omega: int | None = None,
) -> None:
    """Fit the trace's next level on the prefix of ``series`` that long and
    append the trend; past the working level ``omega``, when one is given,
    the fit is anchored at the trace's next canonical anchor.

    The next level is ``FIRST_LEVEL`` on an empty trace and one past the
    last level after that. The fit starts from the previous trend's decay
    when that trend converged. A failed fit is stored flagged as
    non-converged rather than raised, so one bad level cannot wedge a run.
    An ``omega`` that no chain continues from, past the trace's last level
    or with an unanchored level after it, raises ``SequencingError`` (from
    :func:`~curvecast.anchoring.next_canonical_anchor`) and stores nothing.
    """
    last = trace.last_level
    level = FIRST_LEVEL if last is None else last + 1
    if len(series) < level:
        raise InsufficientDataError(f"series has {len(series)} points, level {level} needs {level}")
    prefix = series.prefix(level)
    start_b = None
    if last is not None:
        previous = trace.trends[last]
        if previous.converged:
            start_b = previous.params.b
    if omega is None:
        trend = fit_power_law(prefix, start_b=start_b)
    else:
        trend = fit_anchored_trend(prefix, next_canonical_anchor(trace, omega), start_b=start_b)
    trace.trends[level] = trend


def anchored_chain(reference: LearningTrace, omega: int) -> LearningTrace:
    """Canonical anchor chain over the levels of ``reference``, on the
    series of its last trend.

    Levels up to the working level ``omega`` are copied as fitted; every
    later level is refitted with the anchor chained from the one before.
    Extending the result with :func:`extend_trace` and ``omega`` continues
    the same chain.
    """
    series = reference.trends[reference.last_level].series
    chain = LearningTrace()
    for level in range(FIRST_LEVEL, omega + 1):
        chain.trends[level] = reference.trends[level]
    for _ in range(omega + 1, reference.last_level + 1):
        extend_trace(chain, series, omega=omega)
    return chain


def convergence_layer(trend: LearningTrend) -> float:
    """Gap between the trend's value at its own level and its asymptote.

    Algebraically a * position**(-b): the accuracy still to be gained if
    this trend were the final word.
    """
    return abs(eval_pattern(trend.params, trend.position) - trend.params.c)


def convergence_layer_bounded(trend: LearningTrend, end_position: int | None) -> float | None:
    """Layer against the value reached at a finite horizon instead of the
    asymptote; converges to the plain layer as the horizon grows.

    A horizon counts only while it lies ahead of the trend: for
    ``end_position`` None, or at or behind ``trend.position``, there is no
    bounded layer and the result is None.
    """
    if end_position is None or end_position <= trend.position:
        return None
    return abs(
        eval_pattern(trend.params, trend.position) - eval_pattern(trend.params, end_position)
    )


def _params_close(t1: PowerLawParams, t2: PowerLawParams) -> bool:
    return (abs(t1.a - t2.a) <= _SAME_PARAMS_TOL and abs(t1.b - t2.b) <= _SAME_PARAMS_TOL
            and abs(t1.c - t2.c) <= _SAME_PARAMS_TOL)


def trend_intersection(t1: PowerLawParams,
                       t2: PowerLawParams) -> tuple[float, float] | None:
    """Last crossing ``(x, y)`` of two distinct curves on
    ``[_BRACKET_LO, _BRACKET_HI]``, or None where they do not cross there.

    Trends within ``_SAME_PARAMS_TOL`` of each other count as one trend, as
    in :func:`epsilon_bound`, and are rejected: near coincidence rounding
    decides the sign of their difference and makes spurious roots.

    In ``t = log x`` the difference is ``g(t) = dc - a1 e^(-b1 t) + a2 e^(-b2 t)``,
    whose derivative ``g'(t) = b1 p1 - b2 p2`` (``p`` the two power terms)
    vanishes at most once, at ``t* = ln(a1 b1 / (a2 b2)) / (b1 - b2)``.
    Cutting the domain there leaves at most two monotone pieces, each holding
    at most one root. The search starts from the top: the upper piece is
    solved when ``g`` changes sign on it, and the lower piece only when it
    does not. The root is solved by Newton steps kept inside its sign
    bracket (:func:`_newton`), from the root of a model of ``g``: its
    quadratic near ``t*``, else ``dc`` against the slower-decaying term
    above ``t*`` and the balance of the two power terms below it. Where a
    power term exceeds ``e^700`` only the sign of the dominant term is kept.
    Crossings outside the domain are not reported; one so far left that the
    curves' common value overflows a float is reported at ``y = -inf``.

    The root lies within the rounding band of ``g``: the stretch where the
    computed sign of ``g`` is rounding noise, a few ``eps`` times the size
    of its terms, plus ``|g'(t)|`` times a few ulps of ``t``. Which float of
    that band is returned is not promised.
    """
    if _params_close(t1, t2):
        raise ValueError("cannot intersect a trend with itself")
    dc = t1.c - t2.c
    b1, b2 = t1.b, t2.b
    log_a1, log_a2 = math.log(t1.a), math.log(t2.a)

    def diff(t: float) -> tuple[float, float, float]:
        """``(g(t), g'(t), band)``: ``|g(t)| <= band`` puts ``t`` within the
        rounding band of a root. Where only the sign of ``g`` is known, the
        slope and the band read 0."""
        e1 = log_a1 - b1 * t
        e2 = log_a2 - b2 * t
        if e1 > 700.0 or e2 > 700.0:
            # A power term this large dwarfs any asymptote gap; only the
            # dominant side's sign survives.
            if e1 == e2:
                return dc, 0.0, 0.0
            return (-math.inf if e1 > e2 else math.inf), 0.0, 0.0
        p1 = math.exp(e1)
        p2 = math.exp(e2)
        slope = b1 * p1 - b2 * p2
        return (dc + (p2 - p1), slope,
                _ROUNDING * (abs(dc) + p1 + p2) + _ULPS * abs(slope) * (abs(t) + 1.0))

    t_turn = -math.inf  # equal decays: the whole domain is an upper piece
    if b1 != b2:
        t_turn = (log_a1 + math.log(b1) - log_a2 - math.log(b2)) / (b1 - b2)
    # The upper piece runs from the cut to the domain's top; with no turning
    # point inside the domain it is the whole domain.
    cut = t_turn if _T_LO < t_turn < _T_HI else _T_LO
    g_cut = diff(cut)[0]

    # Near the turning point g follows g(t*) + g''(t*) (t - t*)^2 / 2, with
    # g''(t*) = b1 p1 (b2 - b1). That model is 0 at a distance ``reach`` from
    # t*, where the cubic term of g is (b1 + b2) reach / 3 of the quadratic
    # one; below two thirds, the model's root starts the solve.
    reach = math.inf
    if cut == t_turn and log_a1 - b1 * t_turn < 700.0:
        curvature = b1 * math.exp(log_a1 - b1 * t_turn) * (b2 - b1)
        if g_cut * curvature < 0.0:
            reach = math.sqrt(-2.0 * g_cut / curvature)

    # A cut where g is exactly 0 is no crossing: at the turning point it is
    # a touch, at the domain's ends the power terms have underflowed.
    if g_cut * diff(_T_HI)[0] < 0.0:
        lo, hi, glo = cut, _T_HI, g_cut
    elif cut > _T_LO and (g_lo := diff(_T_LO)[0]) * g_cut < 0.0:
        lo, hi, glo = _T_LO, cut, g_lo
    else:
        return None
    if (b1 + b2) * reach < 2.0:
        # A piece at the turning point.
        guess = t_turn - reach if hi <= t_turn else t_turn + reach
    elif hi <= t_turn:
        # Lower piece: the two power terms balance.
        guess = (log_a1 - log_a2) / (b1 - b2)
    else:
        # Upper piece: ``dc`` against the slower-decaying term.
        scale = t1.a if b1 < b2 else -t2.a if b1 > b2 else t1.a - t2.a
        guess = lo
        if scale * dc > 0.0:
            guess = (math.log(abs(scale)) - math.log(abs(dc))) / min(b1, b2)
    x = math.exp(_newton(diff, lo, hi, glo, guess))
    return x, _value_at(t1, x)


def _value_at(params: PowerLawParams, x: float) -> float:
    """Curve value at ``x``; ``-inf`` where the power term overflows."""
    try:
        return eval_pattern(params, x)
    except ValueError:
        return -math.inf


def _newton(diff, lo: float, hi: float, glo: float, t: float) -> float:
    """Root of the monotone ``diff`` on ``(lo, hi)``, where its sign
    changes, by Newton steps from ``t`` kept inside the sign bracket
    (``rtsafe``, Numerical Recipes §9.4). A step that would leave the
    bracket, or that is not under half the step before last, becomes the
    midpoint; so does a start outside the bracket.

    Stops at a point within the rounding band that ``diff`` reports, which
    holds an exact zero and any point whose Newton step is a few ulps of
    ``t``, or at an adjacent-float bracket, whose ``lo`` it returns: that
    stays below the piece's end. Below 1 in magnitude the ulp of 1 counts
    as adjacent, since ``x = e^t`` resolves no finer ``t``.
    """
    rising = glo < 0.0
    last = before = hi - lo  # the lengths of the last two steps
    if not lo < t < hi:
        t = 0.5 * (lo + hi)
    while True:
        g, slope, band = diff(t)
        if -band <= g <= band:
            return t
        if (g < 0.0) == rising:
            lo = t
        else:
            hi = t
        if slope:
            dt = g / slope
            if lo < t - dt < hi and abs(dt + dt) <= before:
                before, last = last, abs(dt)
                t -= dt
                continue
        t = 0.5 * (lo + hi)
        if hi - lo <= _EPS or not lo < t < hi:
            return lo
        before, last = last, t - lo


def epsilon_bound(trace: LearningTrace, i: int) -> float | None:
    """Correctness bound at level ``i``: distance from the last crossing of
    the level-``i`` and level-``i-1`` trends to the level-``i`` asymptote.

    The crossing is the one :func:`trend_intersection` returns: only the
    last is solved, and the lower piece of the trends' difference only when
    the upper piece holds no crossing.

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
    if crossing is None:
        return None
    return abs(crossing[1] - current.params.c)
