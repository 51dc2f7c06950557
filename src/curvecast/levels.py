"""Detection of the working and prediction levels on an asymptote sequence.

The working level is the first level from which the backbone's consecutive
slopes stay under a verticality bound over a look-ahead window; the
prediction level is the first level at or after it whose asymptote is a
feasible accuracy (<= 100). Both rules take the level number of every
backbone entry: a backbone read off a trace's converged view skips the
levels whose fit did not converge, so an entry's index is not its level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LevelParams:
    """Verticality threshold, slow-down exponent and look-ahead window."""

    nu: float = 2e-5
    slowdown: int = 1
    lookahead: int = 5

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must be in (0, 1), got {self.nu}")
        if type(self.slowdown) is not int or self.slowdown < 1:
            raise ValueError(f"slowdown must be an integer >= 1, got {self.slowdown!r}")
        if type(self.lookahead) is not int or self.lookahead < 0:
            raise ValueError(f"lookahead must be an integer >= 0, got {self.lookahead!r}")


def verticality_limit(params: LevelParams) -> float:
    """Maximum permissible backbone slope: nu**(1/slowdown) / (1 - nu)."""
    return params.nu ** (1.0 / params.slowdown) / (1.0 - params.nu)


def working_level(
    backbone: Sequence[float],
    positions: Sequence[int],
    params: LevelParams,
    levels: Sequence[int],
) -> int | None:
    """Smallest level whose full look-ahead window keeps every slope under
    the verticality limit, or None if no window passes yet.

    ``levels`` holds the level number of each backbone entry. A window is
    only judged once all of it is observable, so the answer is stable under
    data growth: later entries can never retract an already-reported level.

    Raises ``ValueError`` when the three lengths differ, or when two
    neighbouring positions do not strictly increase: each pair is checked
    as its slope is read, so pairs past the window that names the level are
    not read.
    """
    if not len(backbone) == len(positions) == len(levels):
        raise ValueError("backbone, positions and levels must have equal length")
    limit = verticality_limit(params)
    window = params.lookahead + 1
    run = 0  # consecutive slopes under the limit, ending at entry i
    for i in range(1, len(backbone)):
        step = positions[i] - positions[i - 1]
        if step <= 0:
            raise ValueError(f"positions {positions[i - 1]}, {positions[i]} do not increase")
        if abs(backbone[i] - backbone[i - 1]) / step <= limit:
            run += 1
            if run == window:
                return levels[i - window]
        else:
            run = 0
    return None


def prediction_level(
    backbone: Sequence[float],
    omega: int,
    levels: Sequence[int],
) -> int | None:
    """Smallest level >= ``omega`` whose asymptote is <= 100, or None;
    ``levels`` holds the level number of each backbone entry.

    Raises ``ValueError`` when ``backbone`` and ``levels`` differ in length.
    """
    if len(backbone) != len(levels):
        raise ValueError("backbone and levels must have equal length")
    for level, alpha in zip(levels, backbone):
        if level >= omega and alpha <= 100.0:
            return level
    return None
