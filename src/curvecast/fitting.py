"""Separable least-squares fitting of the power-family curve.

For a fixed decay ``b`` the curve ``c - a*x**(-b)`` is linear in ``(a, c)``,
and so is the optional anchor row. The fit therefore iterates only
``v = log b`` (variable projection, Golub & Pereyra 1973): at each ``v``,
``(a, c)`` come from an exact two-column least-squares solve, and a damped
Gauss-Newton step on ``v`` uses Kaufman's (1975) derivative of the projected
residual. The anchor adds one row, either analytically against the
asymptote (its power term has weight 0) or as a literal pseudo-observation
at a far position (weight ``anchor_x**(-b)``).

A fit has no optimum inside the family when its best ``a`` is <= 0 (flat or
decreasing data) or when ``v`` ends on a rail of its range; such a fit is
returned with ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .model import Observation, PowerLawParams

# Range of the log-decay walk; generous enough never to bind on an
# identified fit, tight enough to keep x**(-b) away from overflow.
_LOG_B_RANGE = (-23.0, 6.0)
_START_B = 0.5
# Reported scale of a degenerate fit (best a <= 0): the family needs a > 0.
_DEGENERATE_A = 1e-20
# Halving a step this often shrinks it below any useful change of log b.
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class FitConfig:
    """Convergence knobs for the Gauss-Newton loop on ``log b``."""

    max_iterations: int = 200
    cost_tolerance: float = 1e-12
    param_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if min(self.cost_tolerance, self.param_tolerance) <= 0:
            raise ValueError("tolerances must be > 0")


DEFAULT_CONFIG = FitConfig()


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit; ``residuals`` are observed minus fitted, with the
    anchor residual appended last when an anchor was used."""

    params: PowerLawParams
    residuals: tuple[float, ...]
    converged: bool
    iterations: int
    final_cost: float


def _basis(b, lx, free_last):
    """Power term ``x**(-b)`` of every row; 0 for an analytic anchor row."""
    w = np.exp(-b * lx)
    if free_last:
        w[-1] = 0.0
    return w


class _Projection:
    """Exact ``(a, c)`` and the projected residual at one ``v = log b``,
    with ``v`` clipped into its range.

    ``lx`` holds the log positions of all rows; ``free_last`` marks an
    analytic anchor row, whose power term has weight 0.
    """

    __slots__ = ("v", "a", "w", "wc", "ww", "r", "cost")

    def __init__(self, v, lx, tc, free_last):
        self.v = v = min(max(v, _LOG_B_RANGE[0]), _LOG_B_RANGE[1])
        w = _basis(math.exp(v), lx, free_last)
        wc = w - w.mean()
        ww = float(wc @ wc)
        # r = tc + a*wc is the targets' residual off span{1, w}.
        self.a = -float(wc @ tc) / ww if ww > 0.0 else 0.0
        self.w, self.wc, self.ww = w, wc, ww
        self.r = tc + self.a * wc
        self.cost = float(self.r @ self.r)

    def step(self, lx):
        """Gauss-Newton step on ``v``, or None when the Jacobian vanishes.

        Kaufman's Jacobian is ``J = a * p`` with ``p = P dw/dv`` and ``P``
        the projector off span{1, w}; the step is ``-(J.r) / (J.J)``.
        """
        if self.a == 0.0:  # also covers ww == 0
            return None
        d = -math.exp(self.v) * lx * self.w
        p = d - d.mean()
        p -= (float(p @ self.wc) / self.ww) * self.wc
        scale = self.a * float(p @ p)
        if scale == 0.0:
            return None
        return -float(p @ self.r) / scale


def fit_power_law(
    points: Sequence[Observation],
    anchor: float | None = None,
    config: FitConfig = DEFAULT_CONFIG,
    *,
    anchor_x: float | None = None,
    initial: PowerLawParams | None = None,
) -> FitResult:
    """Least-squares fit of the curve to ``points``.

    ``anchor`` adds one pseudo-observation: at infinity (residual against
    the asymptote) when ``anchor_x`` is None, else at the finite position
    ``anchor_x``. Only ``initial.b`` is used as a start (default 0.5).
    ``converged`` is False when the iteration cap was hit or the data have
    no optimum inside the family; the caller decides what to do with it.
    """
    if len(points) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(points)}")
    xs = np.array([p.position for p in points], dtype=float)
    targets = np.array([p.accuracy for p in points], dtype=float)
    if anchor is not None and not (math.isfinite(anchor) and anchor > 0):
        raise ValueError(f"anchor must be finite and > 0, got {anchor}")
    if anchor_x is not None:
        if anchor is None:
            raise ValueError("anchor_x given without an anchor value")
        if anchor_x <= xs[-1]:
            raise ValueError("anchor_x must lie beyond every observation")
    lx = np.log(xs)
    free_last = anchor is not None and anchor_x is None
    if anchor is not None:
        targets = np.append(targets, anchor)
        lx = np.append(lx, math.log(anchor_x) if anchor_x is not None else 0.0)
    t_mean = float(targets.mean())
    tc = targets - t_mean

    start_b = initial.b if initial is not None else _START_B
    fit = _Projection(math.log(start_b), lx, tc, free_last)
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        step = fit.step(lx)
        if step is None or abs(step) <= config.param_tolerance * (1.0 + abs(fit.v)):
            converged = True
            break
        for _ in range(_MAX_HALVINGS):
            trial = _Projection(fit.v + step, lx, tc, free_last)
            if trial.cost <= fit.cost:
                break
            step *= 0.5
        else:
            # No descent along v: a (numerical) stationary point.
            converged = True
            break
        moved = abs(trial.v - fit.v)
        drop = fit.cost - trial.cost
        fit = trial
        if (drop <= config.cost_tolerance * max(fit.cost, 1e-300)
                or moved <= config.param_tolerance * (1.0 + abs(fit.v))):
            converged = True
            break

    if fit.a > 0.0:
        params = PowerLawParams(a=fit.a, b=math.exp(fit.v), c=t_mean + fit.a * float(fit.w.mean()))
        converged = converged and fit.v not in _LOG_B_RANGE
        w = fit.w
    else:
        params = PowerLawParams(a=_DEGENERATE_A, b=start_b, c=t_mean)
        converged = False
        w = _basis(start_b, lx, free_last)
    residuals = targets - params.c + params.a * w
    return FitResult(
        params=params,
        residuals=tuple(float(v) for v in residuals),
        converged=converged,
        iterations=iterations,
        final_cost=float(residuals @ residuals),
    )
