"""Core domain types and closed-form evaluation of the power-family curve.

The curve family is ``f(x) = c - a * x**(-b)`` with ``a > 0`` and ``b > 0``:
positive, strictly increasing and concave on (0, inf), with horizontal
asymptote ``y = c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The first level of a run: a trend needs three observations.
FIRST_LEVEL = 3


@dataclass(frozen=True)
class Observation:
    """One (training-set size, accuracy) sample of a learning curve."""

    position: int
    accuracy: float

    def __post_init__(self):
        if not isinstance(self.position, int) or self.position < 1:
            raise ValueError(f"position must be a positive integer, got {self.position!r}")
        if not math.isfinite(self.accuracy) or not 0.0 < self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be in (0, 100], got {self.accuracy!r}")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class ObservationSeries:
    """Observations with strictly increasing positions; a series is its
    points, however they were sampled.

    ``log_positions`` and ``accuracies`` are the points as read-only float64
    columns, built on first use and not part of ``==``, ``repr`` or the
    pickled state. A series grown by :meth:`with_point` extends its parent's
    columns, and a :meth:`prefix` reads views of them, so fitting a prefix
    never walks the ``Observation`` objects again.
    """

    points: tuple[Observation, ...]

    def __post_init__(self):
        pos = [p.position for p in self.points]
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")

    def __getstate__(self):
        # A copy or an unpickled series rebuilds its columns read-only.
        return {"points": self.points}

    @classmethod
    def from_points(cls, points) -> "ObservationSeries":
        """Series of ``points``; a series is returned as it is."""
        if isinstance(points, ObservationSeries):
            return points
        return cls(tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def log_positions(self) -> np.ndarray:
        """Natural log of every position, as a read-only float64 column."""
        return _read_only(np.log(np.array([p.position for p in self.points], dtype=float)))

    @cached_property
    def accuracies(self) -> np.ndarray:
        """Every accuracy, as a read-only float64 column."""
        return _read_only(np.array([p.accuracy for p in self.points], dtype=float))

    def _derived(self, points, columns=None) -> "ObservationSeries":
        """Series of already validated ``points``; the ``(log_positions,
        accuracies)`` columns are built on first use unless given."""
        derived = object.__new__(ObservationSeries)
        object.__setattr__(derived, "points", points)
        if columns is not None:
            derived.__dict__["log_positions"], derived.__dict__["accuracies"] = columns
        return derived

    def prefix(self, level: int) -> "ObservationSeries":
        """First ``level`` observations, whose columns are views of this
        series' columns."""
        if not 1 <= level <= len(self.points):
            raise ValueError(f"series has {len(self.points)} points, prefix {level} requested")
        if level == len(self.points):
            return self
        return self._derived(self.points[:level],
                             (self.log_positions[:level], self.accuracies[:level]))

    def with_point(self, obs: Observation) -> "ObservationSeries":
        """New series with one observation appended (positions must grow).

        Only the new point is checked against the last one, and columns
        already built are extended by one value each.
        """
        if self.points and obs.position <= self.points[-1].position:
            raise ValueError("positions must be strictly increasing")
        points = self.points + (obs,)
        if "log_positions" not in self.__dict__:
            return self._derived(points)
        # numpy's log, as for a whole column: math.log differs from it in
        # the last bit for some positions.
        return self._derived(points, (
            _read_only(np.append(self.log_positions, np.log(float(obs.position)))),
            _read_only(np.append(self.accuracies, obs.accuracy)),
        ))


@dataclass(frozen=True)
class PowerLawParams:
    """Parameters of one fitted curve: scale ``a``, decay ``b``, asymptote ``c``.

    ``c`` is intentionally not capped at 100: early fits may overshoot, and
    the prediction level is precisely the point where the asymptote first
    drops back into the feasible range.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.a <= 0.0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"b must be > 0, got {self.b}")


@dataclass(frozen=True)
class LearningTrend:
    """Curve fitted to the first ``level`` observations.

    ``residuals`` are observed minus fitted, one per observation used.
    ``anchor_residual`` is the residual of the pseudo-observation at
    infinity when the fit was anchored, else None.
    """

    level: int
    params: PowerLawParams
    residuals: tuple[float, ...]
    position: int
    anchor_residual: float | None = None
    converged: bool = True

    def __post_init__(self):
        if self.level < FIRST_LEVEL:
            raise ValueError(f"a trend needs at least {FIRST_LEVEL} observations")
        if len(self.residuals) != self.level:
            raise ValueError("residual count must equal the trend level")


def eval_pattern(params: PowerLawParams, x: float) -> float:
    """Curve value at position ``x > 0``."""
    if x <= 0:
        raise ValueError(f"position must be > 0, got {x}")
    return params.c - params.a * float(x) ** (-params.b)


def pattern_slope(params: PowerLawParams, x: float) -> float:
    """First derivative at ``x > 0``; always positive for valid params."""
    if x <= 0:
        raise ValueError(f"position must be > 0, got {x}")
    return params.a * params.b * float(x) ** (-(params.b + 1.0))


def asymptote(params: PowerLawParams) -> float:
    """Limit of the curve as the position grows without bound."""
    return params.c
