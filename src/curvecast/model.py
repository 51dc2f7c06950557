"""Core domain types and closed-form evaluation of the power-family curve.

The curve family is ``f(x) = c - a * x**(-b)`` with ``a > 0`` and ``b > 0``:
positive, strictly increasing and concave on (0, inf), with horizontal
asymptote ``y = c``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

# The first level of a run: a trend needs three observations.
FIRST_LEVEL = 3


@dataclass(frozen=True, slots=True)
class Observation:
    """One (training-set size, accuracy) sample of a learning curve.

    Slotted: a series holds thousands of them, and a per-instance dict
    would be most of their memory.
    """

    position: int
    accuracy: float

    def __post_init__(self):
        if type(self.position) is not int or self.position < 1:
            raise ValueError(f"position must be a positive integer, got {self.position!r}")
        if not math.isfinite(self.accuracy) or not 0.0 < self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be in (0, 100], got {self.accuracy!r}")

    def __reduce__(self):
        # Rebuilt through the constructor, which frozen slots need to be set.
        return self.__class__, (self.position, self.accuracy)


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class _ColumnBuffer:
    """Capacity shared by a chain of series grown by ``with_point``: the
    first ``filled`` slots of each column hold the longest series' values.

    Only a series of exactly ``filled`` points may append in place; any
    other (a shorter one, or a second child of the same parent) copies. The
    lock makes the check and the claim of the next slot one step. Series
    slice the read-only views, so their columns are read-only too.
    """

    __slots__ = ("_writable", "log_positions", "accuracies", "filled", "_lock")

    def __init__(self, log_positions, accuracies, capacity):
        self.filled = n = len(log_positions)
        self._writable = (np.empty(capacity), np.empty(capacity))
        self._writable[0][:n] = log_positions
        self._writable[1][:n] = accuracies
        self.log_positions, self.accuracies = (_read_only(c.view()) for c in self._writable)
        self._lock = threading.Lock()

    def append(self, length, log_position, accuracy):
        """Write one slot after the first ``length``; False when the slot is
        taken or there is none left."""
        with self._lock:
            if self.filled != length or length == len(self.accuracies):
                return False
            self._writable[0][length] = log_position
            self._writable[1][length] = accuracy
            self.filled = length + 1
        return True


@dataclass(frozen=True)
class ObservationSeries:
    """Observations with strictly increasing positions; a series is its
    points, however they were sampled.

    ``log_positions`` and ``accuracies`` are the points as read-only float64
    columns, built on first use and not part of ``==``, ``repr`` or the
    pickled state. A series grown by :meth:`with_point` writes its new point
    into a capacity buffer shared with its parent, whose columns are views
    of the same memory, and a :meth:`prefix` reads views of them, so fitting
    a prefix never walks the ``Observation`` objects again.
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

    def _derived(self, points, columns=None, buffer=None) -> "ObservationSeries":
        """Series of already validated ``points``; the ``(log_positions,
        accuracies)`` columns are built on first use unless given, and
        ``buffer`` is the capacity they view, if ``with_point`` may grow
        them in place."""
        derived = object.__new__(ObservationSeries)
        object.__setattr__(derived, "points", points)
        if columns is not None:
            derived.__dict__["log_positions"], derived.__dict__["accuracies"] = columns
        if buffer is not None:
            derived.__dict__["_buffer"] = buffer
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
        already built are extended by one value each: in place when this
        series is the longest on its buffer, else into a new buffer of twice
        the length, so no column of an existing series ever changes.
        """
        if self.points and obs.position <= self.points[-1].position:
            raise ValueError("positions must be strictly increasing")
        points = self.points + (obs,)
        if "log_positions" not in self.__dict__:
            return self._derived(points)
        # numpy's log, as for a whole column: math.log differs from it in
        # the last bit for some positions.
        log_position = np.log(float(obs.position))
        length = len(self.points)
        buffer = self.__dict__.get("_buffer")
        if buffer is None or not buffer.append(length, log_position, obs.accuracy):
            buffer = _ColumnBuffer(self.log_positions, self.accuracies, 2 * (length + 1))
            buffer.append(length, log_position, obs.accuracy)
        columns = (buffer.log_positions[:length + 1], buffer.accuracies[:length + 1])
        return self._derived(points, columns, buffer)


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


@dataclass(frozen=True, eq=False)
class LearningTrend:
    """Curve fitted to the first ``level`` observations, as
    :func:`~curvecast.fitting.fit_power_law` returns it.

    ``residuals`` are observed minus fitted, one per observation used, as a
    read-only float64 array (any sequence is turned into one).
    ``anchor_residual`` is the residual of the anchor pseudo-observation when
    the fit was anchored, else None. ``iterations`` and ``final_cost`` are
    those of the fit (sum of squared residuals, anchor row included).

    ``==`` compares the residuals element by element and exactly, and a
    trend is unhashable like the array. Pickling and copying rebuild the
    trend through its constructor, because numpy unpickles a read-only array
    as writable.
    """

    level: int
    params: PowerLawParams
    residuals: np.ndarray
    position: int
    anchor_residual: float | None = None
    converged: bool = True
    iterations: int = 0
    final_cost: float = 0.0

    __hash__ = None

    def __post_init__(self):
        # A read-only float64 array is kept as it is; anything else is
        # copied, so no caller keeps a writable handle on the residuals.
        r = self.residuals
        if not (isinstance(r, np.ndarray) and r.dtype == np.float64 and not r.flags.writeable):
            object.__setattr__(self, "residuals", _read_only(np.array(r, dtype=np.float64)))
        if self.level < FIRST_LEVEL:
            raise ValueError(f"a trend needs at least {FIRST_LEVEL} observations")
        if len(self.residuals) != self.level:
            raise ValueError("residual count must equal the trend level")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.name != "residuals"]
        return (tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)
                and np.array_equal(self.residuals, other.residuals))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


def _scaled_power(scale: float, x: float, exponent: float) -> float:
    """``scale * x**exponent`` at a finite position ``x > 0``;
    ``ValueError`` naming ``x`` where it overflows a float."""
    if not 0 < x < math.inf:
        raise ValueError(f"position must be finite and > 0, got {x}")
    try:
        value = scale * float(x) ** exponent
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"the power term overflows at position {x}")
    return value


def eval_pattern(params: PowerLawParams, x: float) -> float:
    """Curve value at a finite position ``x > 0``; ``ValueError`` where the
    power term overflows a float."""
    return params.c - _scaled_power(params.a, x, -params.b)


def pattern_slope(params: PowerLawParams, x: float) -> float:
    """First derivative at a finite ``x > 0``; always positive for valid
    params. ``ValueError`` where the power term overflows a float."""
    return _scaled_power(params.a * params.b, x, -(params.b + 1.0))


def asymptote(params: PowerLawParams) -> float:
    """Limit of the curve as the position grows without bound."""
    return params.c
