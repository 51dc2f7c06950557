"""Brute-force reference computations used to cross-check the package.

Everything here is deliberately independent of the production code paths:
plain Python / raw numpy, no imports from the package. The one exception is
``full_rescan_run``, which drives the package's fitting layer so that its
trends are the controller's; its milestone bookkeeping is its own.
"""

import math
import sys

import numpy as np


def curve_value(a, b, c, x):
    return c - a * x ** (-b)


def sum_squared_cost(a, b, c, xs, ys, anchor=None):
    cost = sum((y - curve_value(a, b, c, x)) ** 2 for x, y in zip(xs, ys))
    if anchor is not None:
        cost += (anchor - c) ** 2
    return cost


def grid_polish_fit(xs, ys, anchor=None):
    """Coarse grid over (log a, log b, c) followed by coordinate descent."""
    y_hi = max(ys)
    best = None
    for la in np.linspace(math.log(1e-3), math.log(1e5), 25):
        for lb in np.linspace(math.log(0.05), math.log(4.0), 25):
            for c in np.linspace(y_hi, y_hi + 12.0, 13):
                cost = sum_squared_cost(math.exp(la), math.exp(lb), c, xs, ys, anchor)
                if best is None or cost < best[0]:
                    best = (cost, la, lb, c)
    _, la, lb, c = best
    steps = (0.5, 0.5, 2.0)
    cost = sum_squared_cost(math.exp(la), math.exp(lb), c, xs, ys, anchor)
    for _ in range(300):
        improved = False
        for idx in range(3):
            for sign in (+1, -1):
                trial = [la, lb, c]
                trial[idx] += sign * steps[idx]
                t_cost = sum_squared_cost(
                    math.exp(trial[0]), math.exp(trial[1]), trial[2], xs, ys, anchor
                )
                if t_cost < cost:
                    la, lb, c = trial
                    cost = t_cost
                    improved = True
        if not improved:
            steps = tuple(s * 0.5 for s in steps)
            if max(steps) < 1e-9:
                break
    return math.exp(la), math.exp(lb), c, cost


def sign_scan_crossings(p1, p2, n=1_000_000, lo=1e-6, hi=1e12):
    """Sign changes of the difference of two curves on a log grid.

    The power terms are taken in log space, ``e = log a - b log x``. Where
    one exceeds ``e^700`` only the larger term's sign counts, or the
    asymptote gap's where the two are equal: a term that large dwarfs any
    gap, and ``inf - inf`` would read as a sign change. The power terms are
    subtracted first, so that equal ones leave the gap intact.
    """
    lx = np.linspace(math.log(lo), math.log(hi), n)
    xs = np.exp(lx)
    e1 = math.log(p1[0]) - p1[1] * lx
    e2 = math.log(p2[0]) - p2[1] * lx
    dc = p1[2] - p2[2]
    huge = np.maximum(e1, e2) > 700.0
    diff = dc + (np.exp(np.where(huge, 0.0, e2)) - np.exp(np.where(huge, 0.0, e1)))
    diff = np.where(huge, np.where(e1 == e2, dc, np.sign(e2 - e1)), diff)
    signs = np.sign(diff)
    # A flip is between neighbouring nonzero signs, across any exact zeros.
    nonzero = np.flatnonzero(signs)
    flip_idx = np.flatnonzero(signs[nonzero[1:]] != signs[nonzero[:-1]])
    return len(flip_idx), [float(math.sqrt(xs[nonzero[i]] * xs[nonzero[i + 1]]))
                           for i in flip_idx]


def central_difference(fn, x, h=None):
    if h is None:
        h = max(abs(x), 1.0) * 1e-6
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def longest_monotone_bruteforce(values):
    """Exponential scan over all subsequences; lengths <= 15 only."""
    n = len(values)
    assert n <= 15, "brute force is exponential"
    best = 0
    for mask in range(1, 1 << n):
        sub = [values[i] for i in range(n) if mask >> i & 1]
        if all(x <= y for x, y in zip(sub, sub[1:])) or all(
            x >= y for x, y in zip(sub, sub[1:])
        ):
            best = max(best, len(sub))
    return best


def working_level_scan(levels, alphas, positions, nu, slowdown, lookahead):
    """First level whose whole window of lookahead + 1 backbone slopes stays
    under the verticality limit: every slope computed first, then every
    window judged on its own. The reference for ``levels.working_level``."""
    limit = nu ** (1.0 / slowdown) / (1.0 - nu)
    slopes = [abs(alphas[i + 1] - alphas[i]) / (positions[i + 1] - positions[i])
              for i in range(len(alphas) - 1)]
    window = lookahead + 1
    for start in range(len(slopes) - window + 1):
        if all(s <= limit for s in slopes[start:start + window]):
            return levels[start]
    return None


def _stopping_layer(a, b, c, position, end_position):
    value = c - a * float(position) ** (-b)
    if end_position is not None and end_position > position:
        return abs(value - (c - a * float(end_position) ** (-b)))
    return abs(value - c)


def full_rescan_run(config, points):
    """Controller reference that rescans the whole trace for every milestone
    on every ingest, with the canonical rebuild on the working level.

    Returns ``(milestones, trace)``: a dict of the ``RunState`` milestone
    fields plus ``stopped`` and ``ignored_after_stop``, and the final trace.
    """
    from curvecast.model import ObservationSeries
    from curvecast.trace import LearningTrace, extend_trace

    canonical = config.anchor_policy.mode == "canonical"
    lp = config.level_params
    m = dict(wlevel=None, wposition=None, plevel=None, pposition=None,
             clevel=None, cposition=None, stopped=False, ignored_after_stop=0)
    trace = LearningTrace()
    seen = []
    for obs in points:
        if m["stopped"]:
            m["ignored_after_stop"] += 1
            continue
        seen.append(obs)
        level = len(seen)
        if level < 3:
            continue
        series = ObservationSeries(seen)
        extend_trace(trace, series, omega=m["wlevel"] if canonical else None)

        if m["wlevel"] is None:
            conv = [lv for lv in trace.levels() if trace.trends[lv].converged]
            omega = working_level_scan(
                conv, [trace.trends[lv].params.c for lv in conv],
                [trace.trends[lv].position for lv in conv], lp.nu, lp.slowdown, lp.lookahead)
            if omega is not None:
                m["wlevel"], m["wposition"] = omega, trace.trends[omega].position
                if canonical:
                    rebuilt = LearningTrace()
                    for lv in trace.levels():
                        if lv <= omega:
                            rebuilt.trends[lv] = trace.trends[lv]
                        else:
                            extend_trace(rebuilt, series, omega=omega)
                    trace = rebuilt

        conv = [lv for lv in trace.levels() if trace.trends[lv].converged]
        if m["wlevel"] is not None and m["plevel"] is None:
            for lv in conv:
                if lv >= m["wlevel"] and trace.trends[lv].params.c <= 100.0:
                    m["plevel"], m["pposition"] = lv, trace.trends[lv].position
                    break
        if m["plevel"] is not None and m["clevel"] is None:
            for lv in conv:
                t = trace.trends[lv]
                if lv >= m["plevel"] and _stopping_layer(
                        t.params.a, t.params.b, t.params.c, t.position,
                        config.end_position) <= config.tau:
                    m["clevel"], m["cposition"], m["stopped"] = lv, t.position, True
                    break
    return m, trace


def projected_cost(xs, ys, b, anchor=None):
    """Least-squares cost of ``c - a*x**(-b)`` over ``(a, c)`` at a fixed
    ``b``, by ``lstsq`` on the columns ``[1, x**(-b)]``. An anchor adds the
    row ``(anchor, 0)``, at infinity."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    power = xs ** (-b)
    if anchor is not None:
        ys = np.append(ys, anchor)
        power = np.append(power, 0.0)
    # Scaling a column keeps its span and the cost; lstsq's rank cut-off
    # would drop a column of tiny powers.
    columns = np.column_stack([np.ones_like(power), power / power.max()])
    coef, *_ = np.linalg.lstsq(columns, ys, rcond=None)
    r = ys - columns @ coef
    return float(r @ r)


def end_of_fit_residual_pass(xs, ys, b, c, u_scale, anchor=None):
    """``(cost, last row)`` of a fit with decay ``b``, asymptote ``c`` and
    scale ``u_scale`` of ``u = (x/x0)**(-b)``, by the pass the fitter once
    made at the end of every fit: the residuals ``targets - c + u_scale*u``
    over its ``m``-row buffer (the observations, then the anchor, whose
    ``u - 1`` is -1), their sum of squares and the last one."""
    lx = np.log(np.asarray(xs, dtype=float))
    n = len(lx)
    m = n + (anchor is not None)
    u_minus_1, targets = np.empty((2, m))
    np.multiply(lx - lx[0], -b, out=u_minus_1[:n])
    np.expm1(u_minus_1[:n], out=u_minus_1[:n])
    targets[:n] = ys
    if anchor is not None:
        u_minus_1[n], targets[n] = -1.0, anchor
    power = np.add(u_minus_1, 1.0)
    power *= u_scale
    r = np.subtract(targets, c)
    r += power
    return float(r @ r), float(r[-1])


class _ReferenceWork:
    """Rows of one reference fit in a ``(7, m)`` buffer: ``log(x/x0)``,
    subtracted here per fit, then ``t`` and the five Gram rows."""

    def __init__(self, log_positions, targets, anchor):
        n = len(targets)
        self.m = m = n + (anchor is not None)
        buffer = np.empty((7, m))
        self.shifted, self.t = shifted, t = buffer[0], buffer[1]
        rows = buffer[2:]
        self.left, self.right = rows[:3], rows.T
        e, centred = rows[0], rows[3]
        self.lx0 = lx0 = float(log_positions[0])
        if anchor is None:
            np.subtract(log_positions, lx0, out=shifted)
            self.t_power, self.e_power = t, e
        else:
            np.subtract(log_positions, lx0, out=shifted[:n])
            shifted[n] = 0.0
            e[n] = -1.0
            self.t_power, self.e_power = t[:n], e[:n]
            centred[:n] = targets
            centred[n] = anchor
            targets = centred
        self.t_mean = t_mean = float(np.add.reduce(targets) / m)
        np.subtract(targets, t_mean, out=centred)
        self.tt = float(centred.dot(centred))
        rows[4].fill(1.0)


def _reference_evaluate(work, v):
    left, t = work.left, work.t
    np.multiply(work.shifted, -math.exp(v), out=t)
    np.expm1(work.t_power, out=work.e_power)
    du = np.add(left[0], 1.0, out=left[1])
    np.multiply(du, t, out=du)
    np.multiply(du, t, out=left[2])
    (ee, eu, ez, ey, e_sum), (_, uu, _, uy, u_sum), (_, _, _, zy, z_sum) = (
        left.dot(work.right).tolist())
    m = work.m
    work.e_mean = mean = e_sum / m
    q = ee - mean * e_sum
    if not q > 0.0:
        return 0.0, work.tt, 0.0, 0.0, 0.0
    a = -ey / q
    r = eu - mean * u_sum
    uu_centred = uu - u_sum * u_sum / m
    slope = 2.0 * a * (uy + a * r)
    curvature = (2.0 * a * (uy + zy + a * (uu_centred + eu + ez - mean * (u_sum + z_sum)))
                 - 2.0 * (uy + 2.0 * a * r) ** 2 / q)
    gauss_newton = 2.0 * a * a * (uu_centred - r * r / q)
    return a, work.tt + a * ey, slope, curvature, gauss_newton


def reference_fit(log_positions, accuracies, anchor=None, start_b=None):
    """The variable-projection Newton fit written plainly, a per-fit buffer
    object and a module-level evaluation, as a bit-for-bit reference:
    ``(a, b, c, u_scale, anchor_residual, converged, iterations)`` of the
    fit of ``accuracies`` at the natural logs ``log_positions`` of their
    positions, started at ``start_b`` (0.5 when None). It makes the same
    numpy calls and float operations as ``fit_power_law``, in the same
    order, so the two agree in every bit; it recomputes ``log(x/x0)`` and
    re-evaluates at ``v`` after an exhausted halving, which the package
    does not."""
    log_range, max_halvings, max_iterations = (-23.0, 6.0), 40, 200
    cost_tolerance, param_tolerance, gauss_newton_share = 1e-12, 1e-10, 0.5
    work = _ReferenceWork(log_positions, accuracies, anchor)
    slack = cost_tolerance * work.tt
    start_b = 0.5 if start_b is None else start_b
    v = min(max(math.log(start_b), log_range[0]), log_range[1])
    a, cost, slope, curvature, gauss_newton = _reference_evaluate(work, v)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not curvature > 0.0 or 0.0 < gauss_newton < gauss_newton_share * curvature:
            curvature = gauss_newton
        if not curvature > 0.0:
            converged = slope == 0.0
            break
        target = min(max(v - slope / curvature, log_range[0]), log_range[1])
        step = target - v
        if (abs(step) <= param_tolerance * (1.0 + abs(v))
                or slope * slope <= 2.0 * curvature * cost_tolerance * max(cost, 1e-300)):
            converged = True
            break
        for _ in range(max_halvings):
            trial = _reference_evaluate(work, target)
            if trial[1] <= cost + slack:
                break
            step *= 0.5
            target = v + step
        else:
            _reference_evaluate(work, v)
            converged = True
            break
        v = target
        a, cost, slope, curvature, gauss_newton = trial

    b = math.exp(v)
    log_scale = math.log(a) + b * work.lx0 if a > 0.0 else math.inf
    if log_scale < math.log(sys.float_info.max):
        params = (math.exp(log_scale), b, work.t_mean + a * (1.0 + work.e_mean))
        converged = (converged and v not in log_range
                     and b * float(work.shifted[1]) <= -math.log(sys.float_info.epsilon))
        u_scale = a
    else:
        params = (1e-20, start_b, work.t_mean)
        converged = False
        u_scale = params[0] * math.exp(-start_b * work.lx0)
    anchor_residual = float(anchor) - params[2] if anchor is not None else None
    return (*params, u_scale, anchor_residual, converged, iterations)


def residuals_as_read(log_positions, accuracies, b, c, u_scale):
    """A trend's residuals ``accuracies - c + u_scale*u``, with
    ``log(x/x0)`` subtracted here instead of read off the series, then the
    trend's own operations in their order."""
    power = np.subtract(log_positions, float(log_positions[0]))
    power *= -b
    np.expm1(power, out=power)
    power += 1.0
    power *= u_scale
    power += np.subtract(accuracies, c)
    return power


def projected_cost_grid(xs, ys, lo=-23.0, hi=6.0, count=20_001):
    """``(log b grid, cost at each)`` of the unanchored fit: the
    least-squares cost over ``(a, c)`` at every ``b = exp(v)``, in closed
    form. The power column is divided by the first row's and centred as
    ``expm1``, so neither small nor large ``b`` loses its digits."""
    lx = np.log(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    vs = np.linspace(lo, hi, count)
    u = np.expm1(-np.exp(vs)[:, None] * (lx - lx[0])[None, :])
    u -= u.mean(axis=1, keepdims=True)
    yc = ys - ys.mean()
    uu = np.einsum("ij,ij->i", u, u)
    uy = u @ yc
    return vs, yc @ yc - uy * uy / uu


# ---------------------------------------------------------------- SVG view

def _fmt(value):
    return f"{value:.3f}"


class _Scale:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def x(self, v):
        span = self.x1 - self.x0 or 1.0
        return 70.0 + (v - self.x0) / span * (800.0 - 70.0 - 30.0)

    def y(self, v):
        span = self.y1 - self.y0 or 1.0
        return 500.0 - 50.0 - (v - self.y0) / span * (500.0 - 30.0 - 50.0)


def _ticks(lo, hi, count=5):
    span = hi - lo or 1.0
    return [lo + span * i / (count - 1) for i in range(count)]


def naive_render_svg(trace, series, *, selected=None, markers=None):
    """Scalar reference for ``plotting.render_svg``: one scale call, one
    curve evaluation and one format call per number, labels XML-escaped."""
    from xml.sax.saxutils import escape

    if not trace.trends:
        raise ValueError("cannot plot an empty trace")
    trend = selected if selected is not None else trace.trends[max(trace.trends)]
    a, b, c = trend.params.a, trend.params.b, trend.params.c
    markers = markers or {}

    positions = [p.position for p in series.points]
    positions.extend(t.position for t in trace.trends.values())
    positions.extend(markers.values())
    x_lo, x_hi = 0.0, 1.1 * max(positions)
    accuracies = [p.accuracy for p in series.points]
    accuracies.append(c)
    accuracies.append(curve_value(a, b, c, positions[0]))
    y_lo = max(min(accuracies) - 1.0, 0.0)
    y_hi = min(max(accuracies) + 1.0, 102.0)
    scale = _Scale((x_lo, x_hi), (y_lo, y_hi))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" '
        'height="500" viewBox="0 0 800 500">',
        '<rect x="0" y="0" width="800" height="500" fill="#ffffff"/>',
    ]

    x_axis_y = scale.y(y_lo)
    y_axis_x = scale.x(x_lo)
    parts.append(
        f'<line class="axis" x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(scale.x(x_hi))}" y2="{_fmt(x_axis_y)}" stroke="#000000"/>'
    )
    parts.append(
        f'<line class="axis" x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(y_axis_x)}" y2="{_fmt(scale.y(y_hi))}" stroke="#000000"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        tx = scale.x(tick)
        parts.append(
            f'<line class="tick" x1="{_fmt(tx)}" y1="{_fmt(x_axis_y)}" '
            f'x2="{_fmt(tx)}" y2="{_fmt(x_axis_y + 5)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_fmt(tx)}" y="{_fmt(x_axis_y + 18)}" '
            f'font-size="11" text-anchor="middle">{tick:.0f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        ty = scale.y(tick)
        parts.append(
            f'<line class="tick" x1="{_fmt(y_axis_x - 5)}" y1="{_fmt(ty)}" '
            f'x2="{_fmt(y_axis_x)}" y2="{_fmt(ty)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_fmt(y_axis_x - 8)}" y="{_fmt(ty + 4)}" '
            f'font-size="11" text-anchor="end">{tick:.2f}</text>'
        )

    ay = scale.y(min(max(c, y_lo), y_hi))
    parts.append(
        f'<line class="asymptote" x1="{_fmt(y_axis_x)}" y1="{_fmt(ay)}" '
        f'x2="{_fmt(scale.x(x_hi))}" y2="{_fmt(ay)}" stroke="#888888" '
        'stroke-dasharray="6,4"/>'
    )

    x_start = max(positions[0], 1.0)
    path = []
    for i in range(256 + 1):
        x = x_start + (x_hi - x_start) * i / 256
        y = min(max(curve_value(a, b, c, x), y_lo), y_hi)
        cmd = "M" if i == 0 else "L"
        path.append(f"{cmd}{_fmt(scale.x(x))},{_fmt(scale.y(y))}")
    parts.append(
        f'<path class="trend" d="{" ".join(path)}" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>'
    )

    for p in series.points:
        parts.append(
            f'<circle class="obs" cx="{_fmt(scale.x(p.position))}" '
            f'cy="{_fmt(scale.y(min(max(p.accuracy, y_lo), y_hi)))}" r="2.5" '
            'fill="#d62728"/>'
        )

    for label, position in markers.items():
        mx = scale.x(position)
        parts.append(
            f'<line class="marker" x1="{_fmt(mx)}" y1="{_fmt(x_axis_y)}" '
            f'x2="{_fmt(mx)}" y2="{_fmt(scale.y(y_hi))}" stroke="#2ca02c" '
            'stroke-dasharray="2,3"/>'
        )
        parts.append(
            f'<text class="marker-label" x="{_fmt(mx + 3)}" '
            f'y="{_fmt(scale.y(y_hi) + 12)}" font-size="11">{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
