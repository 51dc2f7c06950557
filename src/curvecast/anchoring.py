"""Anchored trend construction and the canonical anchor chain.

An anchor is one extra fitting point at infinity that pins a trend's
asymptote toward a previously estimated value: its power term is 0, so its
residual is the anchor minus the trend's asymptote. The canonical chain
starts from the unanchored asymptote at the working level and thereafter
feeds each new trend the asymptote of the previous anchored one, which
damps backbone irregularities without touching the underlying fitter.
:func:`next_canonical_anchor` reads the next link off a trace and its
working level, and :func:`fit_anchored_trend` is the link's fit, started
from the decay it is given. Both are internals of
:func:`~curvecast.trace.extend_trace`, which fits the next link with them
given the working level, so no caller computes an anchor;
:func:`~curvecast.trace.anchored_chain` builds the chain over a reference
trace that way. The package exports one fit: an anchored fit from it is
``fit_power_law(points, anchor=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import SequencingError
from .fitting import fit_power_law
from .model import LearningTrend, Observation, ObservationSeries

if TYPE_CHECKING:  # pragma: no cover
    from .trace import LearningTrace


@dataclass(frozen=True)
class AnchorPolicy:
    """Whether trends past the working level are anchored: ``none`` or
    ``canonical`` (the chain of :func:`next_canonical_anchor`)."""

    mode: str = "none"

    def __post_init__(self):
        if self.mode not in ("none", "canonical"):
            raise ValueError(f"unknown anchor mode {self.mode!r}")


def next_canonical_anchor(trace: "LearningTrace", omega: int) -> float:
    """Anchor value for the next level of ``trace``.

    The first anchored level reuses the unanchored asymptote at the working
    level; every later one chains the previous anchored trend's asymptote.
    Non-converged links are skipped so one failed fit cannot poison the
    chain; with nothing usable past the working level the base anchor is
    reused.
    """
    last = trace.last_level
    if omega is None or last is None or last < omega:
        raise SequencingError("canonical anchors start after the working level")
    for level in range(last, omega, -1):
        trend = trace.trends[level]
        if trend.anchor_residual is None:
            raise SequencingError(
                f"trend at level {level} is not anchored; canonical chain broken"
            )
        if trend.converged:
            return trend.params.c
    return trace.alpha(omega)


def fit_anchored_trend(
    points: ObservationSeries | Sequence[Observation],
    anchor: float,
    *,
    start_b: float | None = None,
) -> LearningTrend:
    """Trend of ``points`` (a series, or observations made into one)
    anchored at ``anchor``: :func:`~curvecast.fitting.fit_power_law` with
    the anchor row at infinity, started from ``start_b``.
    """
    return fit_power_law(points, anchor=anchor, start_b=start_b)
