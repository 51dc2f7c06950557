"""Anchored trend construction and the canonical anchor chain.

An anchor is one extra fitting point at infinity that pins a trend's
asymptote toward a previously estimated value. The canonical chain starts
from the unanchored asymptote at the working level and thereafter feeds
each new trend the asymptote of the previous anchored one, which damps
backbone irregularities without touching the underlying fitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import SequencingError
from .fitting import fit_power_law
from .model import LearningTrend, Observation, ObservationSeries, PowerLawParams

if TYPE_CHECKING:  # pragma: no cover
    from .trace import LearningTrace


@dataclass(frozen=True)
class AnchorPolicy:
    """How trends are anchored past the working level.

    ``analytic`` adds the anchor residual directly against the asymptote;
    ``finite`` places a literal pseudo-observation at ``finite_x``, far
    beyond any real position.
    """

    mode: str = "none"
    representation: str = "analytic"
    finite_x: float = 1e200

    def __post_init__(self):
        if self.mode not in ("none", "canonical"):
            raise ValueError(f"unknown anchor mode {self.mode!r}")
        if self.representation not in ("analytic", "finite"):
            raise ValueError(f"unknown anchor representation {self.representation!r}")
        if not (math.isfinite(self.finite_x) and self.finite_x > 0):
            raise ValueError(f"finite_x must be finite and > 0, got {self.finite_x}")


def next_canonical_anchor(trace: "LearningTrace", omega: int) -> float:
    """Anchor value for the next level of ``trace``.

    The first anchored level reuses the unanchored asymptote at the working
    level; every later one chains the previous anchored trend's asymptote.
    Non-converged links are skipped so one failed fit cannot poison the
    chain; with nothing usable past the working level the base anchor is
    reused.
    """
    if omega is None or trace.last_level is None or trace.last_level < omega:
        raise SequencingError("canonical anchors start after the working level")
    for level in range(trace.last_level, omega, -1):
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
    policy: AnchorPolicy,
    *,
    initial: PowerLawParams | None = None,
) -> LearningTrend:
    """Trend of ``points`` (a series, or observations made into one)
    anchored at ``anchor``: :func:`~curvecast.fitting.fit_power_law` with
    the anchor row at infinity (``analytic``) or at ``policy.finite_x``
    (``finite``).
    """
    anchor_x = policy.finite_x if policy.representation == "finite" else None
    return fit_power_law(points, anchor=anchor, anchor_x=anchor_x, initial=initial)
