"""Separable least-squares fitting of the power-family curve.

For a fixed decay ``b`` the curve ``c - a*x**(-b)`` is linear in ``(a, c)``,
and so is the optional anchor row. The fit therefore iterates only
``v = log b`` (variable projection, Golub & Pereyra 1973): at each ``v``,
``(a, c)`` come from an exact two-column least-squares solve, which leaves
the projected cost ``phi(v) = T - S**2/Q``, with ``T``, ``S`` and ``Q`` the
centred products of the targets and the power term. The anchor adds one
row at infinity, where the power term is 0, so its residual is taken
against the asymptote alone.

Newton's method on ``phi``. Both derivatives of ``phi`` are closed form, so
the loop takes Newton steps ``-phi'/phi''``. It takes the Gauss-Newton
(Kaufman 1975) curvature ``2 a**2 |P dw/dv|**2`` instead where ``phi''`` is
not positive, or where that residual-free part is less than half of
``phi''``. The latter is the ``b -> 0`` valley, where ``phi`` flattens
like ``e**v``: there Newton steps shrink to unit length, while Gauss-Newton
steps run on to the rail. A step that raises the cost is halved. The walk
starts at ``log start_b``: 0.5 by default; a trace passes the decay its
previous level converged to.

One evaluation, one Gram product. An evaluation fills a per-fit buffer in
place and reads ``(a, phi, phi', phi'')`` off one product of three rows
with five: five ufunc calls, the product and a ``tolist``. The power term
is divided by the first row's, ``u = (x/x0)**(-b)``; with ``1`` it spans
the same two columns, so ``phi`` is unchanged. Its derivatives are
``u' = t*u`` and ``u'' = (1 + t)*u'``, with ``t = -b*log(x/x0)``. The left
rows are ``u - 1``, ``u'`` and ``t*u'``; the right rows add the centred
targets and ones, so every dot product and every sum comes out of the one
product. The scaling keeps ``u`` in (0, 1] at any ``b``, so large ``b``
neither underflows nor loses the mean of ``u``. ``u - 1`` comes from
``expm1``, so small ``b`` keeps its digits. The first row has
``u - 1 = u' = 0``, so no centred sum cancels by more than a factor of the
row count.

Stopping. The loop stops when the next step would move ``log b`` by less
than the parameter tolerance, or when its quadratic model would lower the
cost by less than the cost tolerance. Read as ``T + a*S``, the cost is
exact only to a few ulps of ``T``. That is too coarse to judge such a step,
so a trial step may also raise it by up to the cost tolerance of ``T``.

The rows come from the series' columns, which a prefix slices from its
parent's buffer. ``log(x/x0)`` is one of them: the buffer keeps it, since
every prefix shares ``x0``, so a fit only slices it, and keeps ``log x0``
as a scalar, which scales ``a`` back to ``x``. What a fit sets up is
what its level adds: one ``(5, m)`` block, with the rows, ufuncs and the
product bound once in a closure. The block is allocated per fit, contiguous
over exactly its ``m`` columns, and not cut out of a wider workspace: the
strided rows of such a cut give a Gram product that differs from the
contiguous one in its last bits for most ``m`` (OpenBLAS 0.3.31), and
every fit keeps its bits. Means are taken as ``sum / size``, numpy's own
definition of ``mean`` without its call overhead.

A fit has no optimum inside the family when its best ``a`` is <= 0 (flat or
decreasing data), when ``v`` ends on a rail of its range, or when
``b*log(x1/x0) > -log(eps)``, where every power term past the first row is
below rounding and ``b`` would run on to infinity. Such a fit, and one that
stops where the cost is sloped but no curvature is positive, is returned
with ``converged=False``.

A fit is the :class:`~curvecast.model.LearningTrend` of its level: the
prefix, the parameters, the scale of ``u``, the anchor row's residual (the
anchor minus ``c``, a scalar) and the fit's ``converged`` and
``iterations``, built through the constructors of the trend and of its
:class:`~curvecast.model.PowerLawParams`. The fit makes no residual
pass: the trend computes its residuals and ``final_cost`` on read, with
the same arithmetic. The anchor keeps a column of the buffer instead of
entering the sums as scalars after the product: that way the target mean
and every Gram sum reduce over the same ``m`` values in the same order, and
no fit moves in its last bits.

What "the same result" means. Within one machine and one numpy and BLAS
build, a fit is bit for bit repeatable, and so is a run: the online and
offline paths give equal states. Across BLAS kernels and CPU features (an
OpenBLAS kernel chosen by ``OPENBLAS_CORETYPE``, numpy's SIMD loops, such as
the AVX-512 ``log`` and ``expm1``) the Gram product and the logs round
differently. The milestones, the ``converged`` flags and the
``theorem_suite`` results stay equal; each fitted ``a``, ``b`` and ``c``
agrees within 1e-8 relative, and a six-decimal report may differ in its
last digit. The bound is 20 times the largest relative difference measured
over the benchmark's seed 7 and 7331 pools: 5.0e-10 with numpy's AVX-512
loops off and 7.7e-12 under OpenBLAS's Haswell kernels, against SkylakeX.
A fit may also take one iteration more or fewer.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .model import FIRST_LEVEL, LearningTrend, Observation, ObservationSeries, PowerLawParams

# Range of the log-decay walk; generous enough never to bind on an
# identified fit, tight enough to keep x**(-b) away from overflow.
_LOG_B_RANGE = (-23.0, 6.0)
_START_B = 0.5
# Reported scale of a degenerate fit (best a <= 0): the family needs a > 0.
_DEGENERATE_A = 1e-20
# Halving a step this often shrinks it below any useful change of log b.
_MAX_HALVINGS = 40
# Newton's curvature is used while its Gauss-Newton part is at least this
# share of it.
_MIN_GAUSS_NEWTON_SHARE = 0.5
# Convergence of the loop on log b: an iteration cap, and the relative drop
# of cost and change of log b that count as no progress.
_MAX_ITERATIONS = 200
_COST_TOLERANCE = 1e-12
_PARAM_TOLERANCE = 1e-10
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_MAX_IDENTIFIED_DECAY = -math.log(sys.float_info.epsilon)


def _projection(offsets, targets, anchor):
    """The rows of one fit of ``targets`` at ``offsets = log(x/x0)`` and
    the evaluation that fills them in place: ``(t_mean, tt, evaluate)``,
    the target mean, the centred targets' sum of squares and
    ``evaluate(v)``.

    Five rows of ``m`` columns: one column per observation, then one for
    the anchor, if any, whose power term is 0. The rows are ``u - 1``,
    ``u'`` and ``t*u'``, written per evaluation, then the centred targets
    and ones; the first three against all five are the Gram product. They
    are one contiguous block over exactly ``m`` columns: a block strided
    out of a wider workspace gives a Gram product that differs in its last
    bits. The anchor keeps a column of its own, so that the target mean and
    every Gram sum reduce over the same ``m`` values, in one order; its
    ``u - 1``, ``u'`` and ``t*u'`` are the constants -1, -0.0 and 0.0, so
    an evaluation writes only the observations' columns.

    The rows, ufuncs and the product are bound here, once per fit.
    ``evaluate(v)`` returns ``(a_u, cost, slope, curvature, gauss_newton,
    e_mean)``: ``a_u`` is the exact scale of ``u`` (the curve's ``a`` is
    ``a_u * x0**b``); ``cost``, ``slope`` and ``curvature`` are ``phi`` and
    its exact first and second derivatives; ``gauss_newton`` is the
    Gauss-Newton curvature ``2 a_u**2 |P u'|**2``, with ``P`` the projector
    off span{1, u}; ``e_mean`` is the mean of ``u - 1``, which ``c`` needs.
    All but the cost and the mean are 0 where ``u`` spans nothing beside
    ``1``.
    """
    n = len(targets)
    m = n + (anchor is not None)
    rows = np.empty((5, m))
    e, du, z, centred, ones = rows
    if anchor is None:
        e_n, du_n, z_n = e, du, z
    else:
        e_n, du_n, z_n = e[:n], du[:n], z[:n]
        # u = 0, so u' = t*u' = 0, with the signs that t = -0.0 gives them.
        e[n], du[n], z[n] = -1.0, -0.0, 0.0
        centred[:n] = targets
        centred[n] = anchor
        targets = centred
    t_mean = float(np.add.reduce(targets)) / m
    np.subtract(targets, t_mean, centred)
    tt = float(centred.dot(centred))
    ones.fill(1.0)
    gram = rows[:3].dot
    right = rows.T
    multiply, expm1, add, exp = np.multiply, np.expm1, np.add, math.exp

    def evaluate(v):
        # t = -b*log(x/x0) goes in the z row until u' is formed.
        multiply(offsets, -exp(v), z_n)
        expm1(z_n, e_n)
        add(e_n, 1.0, du_n)
        multiply(du_n, z_n, du_n)
        multiply(du_n, z_n, z_n)
        # Rows e = u - 1, u' and z = t*u' (so u'' = u' + z) against those,
        # the centred targets y and ones.
        (ee, eu, ez, ey, e_sum), (_, uu, _, uy, u_sum), (_, _, _, zy, z_sum) = (
            gram(right).tolist())
        mean = e_sum / m
        # With S = e.y, Q = |e - mean|**2 and R = u'.(e - mean): a = -S/Q,
        # phi = T + a*S, phi' = 2a(S' + aR) and
        # phi'' = 2a*S'' + a**2*Q'' - 2(S' + 2aR)**2/Q, where S' = u'.y,
        # S'' = S' + z.y and Q''/2 = |u' - mean u'|**2 + (e - mean).(u' + z).
        q = ee - mean * e_sum
        if not q > 0.0:
            return 0.0, tt, 0.0, 0.0, 0.0, mean
        a = -ey / q
        r = eu - mean * u_sum
        uu_centred = uu - u_sum * u_sum / m
        slope = 2.0 * a * (uy + a * r)
        curvature = (2.0 * a * (uy + zy + a * (uu_centred + eu + ez - mean * (u_sum + z_sum)))
                     - 2.0 * (uy + 2.0 * a * r) ** 2 / q)
        gauss_newton = 2.0 * a * a * (uu_centred - r * r / q)
        return a, tt + a * ey, slope, curvature, gauss_newton, mean

    return t_mean, tt, evaluate


def fit_power_law(
    points: ObservationSeries | Sequence[Observation],
    anchor: float | None = None,
    *,
    start_b: float | None = None,
) -> LearningTrend:
    """Trend of ``points``, a series or any sequence of observations (which
    is first made a series): the least-squares fit of the curve, at level
    ``len(points)`` and the last observation's position. It is the one fit
    the package exports, anchored or not.

    ``anchor`` adds one pseudo-observation at infinity. Its residual, the
    anchor minus ``c``, is the trend's ``anchor_residual`` and counts in
    ``final_cost``. The fit starts from the decay ``start_b`` (default
    0.5), which must be finite and > 0. ``converged`` is False when the
    iteration cap was hit or the data have no optimum inside the family;
    the caller decides what to do with it.
    """
    series = ObservationSeries(points)
    offsets, targets = series.offsets, series.accuracies
    if len(targets) < FIRST_LEVEL:
        raise InsufficientDataError(f"need at least {FIRST_LEVEL} points, got {len(targets)}")
    if anchor is not None and not (math.isfinite(anchor) and anchor > 0):
        raise ValueError(f"anchor must be finite and > 0, got {anchor}")
    if start_b is None:
        start_b = _START_B
    elif not (math.isfinite(start_b) and start_b > 0):
        raise ValueError(f"start_b must be finite and > 0, got {start_b}")
    t_mean, tt, evaluate = _projection(offsets, targets, anchor)
    slack = _COST_TOLERANCE * tt
    lo, hi = _LOG_B_RANGE
    v = min(max(math.log(start_b), lo), hi)
    a, cost, slope, curvature, gauss_newton, e_mean = evaluate(v)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        if not curvature > 0.0 or 0.0 < gauss_newton < _MIN_GAUSS_NEWTON_SHARE * curvature:
            curvature = gauss_newton
        if not curvature > 0.0:
            converged = slope == 0.0  # no step to take: a minimum if flat
            break
        target = v - slope / curvature
        target = lo if target < lo else hi if target > hi else target
        step = target - v
        if (abs(step) <= _PARAM_TOLERANCE * (1.0 + abs(v))
                or slope * slope <= 2.0 * curvature * _COST_TOLERANCE * max(cost, 1e-300)):
            converged = True
            break
        for _ in range(_MAX_HALVINGS):
            trial = evaluate(target)
            if trial[1] <= cost + slack:
                break
            step *= 0.5
            target = v + step
        else:
            # No descent along v: a (numerical) stationary point.
            converged = True
            break
        v = target
        a, cost, slope, curvature, gauss_newton, e_mean = trial

    b = math.exp(v)
    lx0 = float(series._buffer.log_x0)
    # a scales u, so the curve's scale is a * x0**b: beyond floats near the
    # top rail.
    log_scale = math.log(a) + b * lx0 if a > 0.0 else math.inf
    if log_scale < _LOG_FLOAT_MAX:
        params = PowerLawParams(math.exp(log_scale), b, t_mean + a * (1.0 + e_mean))
        converged = (converged and v not in _LOG_B_RANGE
                     and b * float(offsets[1]) <= _MAX_IDENTIFIED_DECAY)
        u_scale = a
    else:
        params = PowerLawParams(_DEGENERATE_A, start_b, t_mean)
        converged = False
        # At start_b the power term a * x**(-b) is a * x0**(-b) times u.
        u_scale = params.a * math.exp(-start_b * lx0)
    # The anchor row's residual is anchor - c + u_scale*0, bit for bit.
    anchor_residual = float(anchor) - params.c if anchor is not None else None
    return LearningTrend(series, params, u_scale, anchor_residual, converged, iterations)
