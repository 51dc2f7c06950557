"""Core domain types and closed-form evaluation of the power-family curve.

The curve family is ``f(x) = c - a * x**(-b)`` with ``a > 0`` and ``b > 0``:
positive, strictly increasing and concave on (0, inf), with horizontal
asymptote ``y = c``.

A series is a length on a buffer of columns, and a trend is its fit's
parameters plus its prefix series; residuals are computed on read.
``ObservationSeries(points)`` is the one way in from observations, and it
returns a series as it is: ``Observation`` checks each value, and the
constructor checks their order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

# The first level of a run: a trend needs three observations.
FIRST_LEVEL = 3


@dataclass(frozen=True, slots=True)
class Observation:
    """One (training-set size, accuracy) sample of a learning curve.

    Slotted: a series' points are rebuilt thousands at a time, and a
    per-instance dict would be most of their memory.
    """

    position: int
    accuracy: float

    def __post_init__(self):
        if type(self.position) is not int or not 1 <= self.position < 2**63:  # stored as int64
            raise ValueError(f"position must be an integer in [1, 2**63), got {self.position!r}")
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
    first ``filled`` rows of the ``(positions, accuracies, offsets)``
    columns hold the longest series' values.

    ``offsets`` is ``log(x/x0)``: every series on a buffer starts at the
    same ``x0``, so a fit of any prefix slices it instead of subtracting.
    ``log_x0``, the natural log of ``x0``, is the one log kept beside it,
    as a scalar: each appended row's offset is taken from it, and a fit
    scales its ``a`` by it. It is set when the buffer is built; an empty
    series' buffer has no rows and no room, so a first row is always
    written into a new buffer, which takes that row's log.

    Only a series of exactly ``filled`` points may append in place; any
    other (a shorter one, or a second child of the same parent) copies. The
    lock makes the check and the claim of the next row one step. Series
    slice the read-only views, so their columns are read-only too.
    """

    __slots__ = ("_writable", "columns", "log_x0", "filled", "_lock")

    def __init__(self, columns, capacity, log_x0):
        self.filled = n = len(columns[0])
        self._writable = tuple(np.empty(capacity, column.dtype) for column in columns)
        for writable, column in zip(self._writable, columns):
            writable[:n] = column
        self.columns = tuple(_read_only(w.view()) for w in self._writable)
        self.log_x0 = log_x0
        self._lock = threading.Lock()

    def append(self, length, row):
        """Write ``row`` after the first ``length``; False if taken or full."""
        with self._lock:
            if self.filled != length or length == len(self.columns[0]):
                return False
            for writable, value in zip(self._writable, row):
                writable[length] = value
            self.filled = length + 1
        return True

    def series(self, length) -> "ObservationSeries":
        """Series of the first ``length`` rows, which are not checked again."""
        series = object.__new__(ObservationSeries)
        object.__setattr__(series, "_buffer", self)
        object.__setattr__(series, "_length", length)
        return series


class ObservationSeries:
    """Observations with strictly increasing positions, however they were
    sampled: a capacity buffer and a length, the series being the buffer's
    first ``len(series)`` rows. Each read of :attr:`positions` (int64),
    :attr:`accuracies` or :attr:`offsets` (float64) slices a read-only view
    off the buffer, so a series stores no column of its own.

    The constructor takes any iterable of observations and checks it as a
    whole; a series passed to it is returned as it is. :meth:`with_point`
    grows the buffer in place and a :meth:`prefix` shares it, so no row of
    an existing series ever changes. ``==`` compares the columns. A copy is
    rebuilt from the points, as numpy would unpickle the columns writable.
    """

    __slots__ = ("_buffer", "_length")

    def __new__(cls, points=()):
        if isinstance(points, ObservationSeries):
            return points
        points = tuple(points)
        return _series_of_columns(np.array([p.position for p in points], dtype=np.int64),
                                  np.array([p.accuracy for p in points], dtype=float))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return ObservationSeries, (self.points,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.positions, other.positions)
                and np.array_equal(self.accuracies, other.accuracies))

    def __len__(self) -> int:
        return self._length

    @property
    def positions(self) -> np.ndarray:
        """The positions (read-only int64), a view of the buffer's column."""
        return self._buffer.columns[0][:self._length]

    @property
    def accuracies(self) -> np.ndarray:
        """The accuracies (read-only float64), a view of the buffer's column."""
        return self._buffer.columns[1][:self._length]

    @property
    def offsets(self) -> np.ndarray:
        """``log(x/x0)`` per position, ``x0`` the first (read-only float64),
        a view of the buffer's column: bit for bit ``log(x) - log(x0)``,
        each log taken by numpy."""
        return self._buffer.columns[2][:self._length]

    @property
    def points(self) -> tuple[Observation, ...]:
        """The observations, rebuilt from the columns, which were checked
        when they were written: the values are set through the slots."""
        points = tuple(map(object.__new__, repeat(Observation, self._length)))
        list(map(Observation.position.__set__, points, self.positions.tolist()))
        list(map(Observation.accuracy.__set__, points, self.accuracies.tolist()))
        return points

    def prefix(self, level: int) -> "ObservationSeries":
        """First ``level`` observations, on this series' buffer."""
        length = self._length
        if not 1 <= level <= length:
            raise ValueError(f"series has {length} points, prefix {level} requested")
        if level == length:
            return self
        return self._buffer.series(level)

    def with_point(self, obs: Observation) -> "ObservationSeries":
        """New series with one observation appended (positions must grow);
        only the new point is checked. It is written in place when this
        series is the longest on its buffer, else into one twice as long."""
        buffer, length = self._buffer, self._length
        if length and obs.position <= buffer.columns[0][length - 1]:
            raise ValueError("positions must be strictly increasing")
        # numpy's log, as for a whole column: math.log differs from it in
        # the last bit for some positions.
        log_position = np.log(float(obs.position))
        log_x0 = buffer.log_x0 if length else log_position
        row = (obs.position, obs.accuracy, log_position - log_x0)
        if not buffer.append(length, row):
            buffer = _ColumnBuffer([column[:length] for column in buffer.columns],
                                   2 * (length + 1), log_x0)
            buffer.append(length, row)
        return buffer.series(length + 1)


def _series_of_columns(positions: np.ndarray, accuracies: np.ndarray) -> ObservationSeries:
    """Series of int64 ``positions`` and float64 ``accuracies`` whose values
    were checked, by ``Observation`` or by ``synth.SynthSpec``, once the
    positions are found to increase strictly."""
    if (np.diff(positions) <= 0).any():
        raise ValueError("positions must be strictly increasing")
    logs = np.log(positions.astype(float))
    offsets = np.subtract(logs, logs[:1])
    log_x0 = logs[0] if len(logs) else None
    return _ColumnBuffer((positions, accuracies, offsets), len(positions),
                         log_x0).series(len(positions))


@dataclass(frozen=True, slots=True, init=False)
class PowerLawParams:
    """Parameters of one fitted curve: scale ``a``, decay ``b``, asymptote ``c``.

    ``c`` is intentionally not capped at 100: early fits may overshoot, and
    the prediction level is precisely the point where the asymptote first
    drops back into the feasible range. The constructor checks that all
    three are finite and ``a`` and ``b`` are > 0, then sets the frozen
    slots through their descriptors.
    """

    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float):
        # One chained test passes every valid triple; NaN fails it too.
        if not (0.0 < a < math.inf and 0.0 < b < math.inf and -math.inf < c < math.inf):
            for name, value in (("a", a), ("b", b), ("c", c)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")
            raise ValueError(f"a must be > 0, got {a}" if a <= 0.0 else f"b must be > 0, got {b}")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)


# The slot setters of each field, in field order: a frozen dataclass's own
# __setattr__ raises, so its constructor sets the slots through these.
_set_a, _set_b, _set_c = (getattr(PowerLawParams, f.name).__set__ for f in fields(PowerLawParams))


@dataclass(frozen=True, slots=True, init=False)
class LearningTrend:
    """Curve fitted to the observations of ``series``, as
    :func:`~curvecast.fitting.fit_power_law` returns it; its ``level`` and
    ``position`` are the series' length and last position.

    ``u_scale`` is the fit's scale of ``u = (x/x0)**(-b)``, the power term
    divided by the first observation's. ``anchor_residual`` is the anchor
    row's residual, the anchor minus ``c``, when the fit was anchored, else
    None. ``residuals`` and ``final_cost`` are computed on each read, bit
    for bit the rows the fit summed and the sum of their squares, anchor
    row included: the fit itself makes no residual pass.
    """

    series: ObservationSeries
    params: PowerLawParams
    u_scale: float
    anchor_residual: float | None = None
    converged: bool = True
    iterations: int = 0

    def __init__(self, series: ObservationSeries, params: PowerLawParams, u_scale: float,
                 anchor_residual: float | None = None, converged: bool = True,
                 iterations: int = 0):
        if len(series) < FIRST_LEVEL:
            raise ValueError(f"a trend needs at least {FIRST_LEVEL} observations")
        _set_series(self, series)
        _set_params(self, params)
        _set_u_scale(self, u_scale)
        _set_anchor_residual(self, anchor_residual)
        _set_converged(self, converged)
        _set_iterations(self, iterations)

    @property
    def level(self) -> int:
        return len(self.series)

    @property
    def position(self) -> int:
        series = self.series
        return series._buffer.columns[0].item(series._length - 1)

    @property
    def residuals(self) -> np.ndarray:
        """Observed minus fitted, one per observation (read-only float64):
        ``accuracies - c + u_scale*u``, in the fit's arithmetic."""
        power = np.multiply(self.series.offsets, -self.params.b)
        np.expm1(power, out=power)
        power += 1.0
        power *= self.u_scale
        power += np.subtract(self.series.accuracies, self.params.c)
        return _read_only(power)

    @property
    def final_cost(self) -> float:
        """Sum of the squared residuals, then the anchor row's, if any."""
        rows = self.residuals
        if self.anchor_residual is not None:
            rows = np.append(rows, self.anchor_residual)
        return float(rows @ rows)


(_set_series, _set_params, _set_u_scale, _set_anchor_residual, _set_converged,
 _set_iterations) = (getattr(LearningTrend, f.name).__set__ for f in fields(LearningTrend))


def eval_pattern(params: PowerLawParams, x: float) -> float:
    """Curve value at a finite position ``x > 0``; ``ValueError`` where the
    power term overflows a float."""
    if not 0 < x < math.inf:
        raise ValueError(f"position must be finite and > 0, got {x}")
    try:
        power = params.a * float(x) ** -params.b
    except OverflowError:
        power = math.inf
    if power == math.inf:
        raise ValueError(f"the power term overflows at position {x}")
    return params.c - power
