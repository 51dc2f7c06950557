"""Synthetic learning-curve generation and executable convergence checks.

The generator samples an ideal curve on a kernel + constant-step schedule,
optionally distorted by seeded Gaussian noise or by deterministic
concavity-breaking bumps on the earliest observations. A ``SynthSpec`` is
valid by construction: it rejects a schedule that is not made of integers
>= 1 or that reaches 2**63, a seed that is not an integer >= 0, bumps that
the schedule cannot all place, and a curve that is not an accuracy at
every sampled position, so only noise is clipped into range. The check suite
turns the convergence guarantees of the construction into pass/fail
properties evaluated against the known true curve, always under the
construction itself: default level detection and canonical analytic
anchors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .anchoring import AnchorPolicy
from .levels import LevelParams, working_level
from .model import (
    FIRST_LEVEL,
    ObservationSeries,
    PowerLawParams,
    _series_of_columns,
    eval_pattern,
)
from .trace import (
    LearningTrace,
    _params_close,
    anchored_chain,
    convergence_layer,
    epsilon_bound,
    extend_trace,
    trend_intersection,
)

# Floor of a generated accuracy: the smallest value the six-decimal
# observation writer prints as positive (0.000001), so a simulated file
# always reads back.
_MIN_ACCURACY = 1e-6
# Comparisons between quantities that may coincide exactly.
_EQUAL_TOL = 1e-9 + 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Distortion applied to the ideal curve samples.

    ``gaussian`` adds seeded N(0, sigma) noise; ``bumps`` adds
    ``magnitude``-sized deviations of alternating sign to the first
    ``count`` observations, which must all lie at or below
    ``max_position``: a :class:`SynthSpec` whose schedule places fewer
    than ``count`` positions there raises.

    Valid by construction, whatever the kind: ``sigma`` and ``magnitude``
    are finite real numbers >= 0 (not bools), ``count`` an integer >= 0
    and ``max_position`` an integer >= 1; bumps need a positive
    ``magnitude`` and ``count``.
    """

    kind: str = "none"
    sigma: float = 0.0
    magnitude: float = 0.0
    count: int = 0
    max_position: int = 100_000

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "bumps"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if type(self.count) is not int or type(self.max_position) is not int:
            raise ValueError(f"count and max_position must be integers, got {self.count!r}, "
                             f"{self.max_position!r}")
        if self.count < 0 or self.max_position < 1:
            raise ValueError(f"count must be >= 0 and max_position >= 1, got {self.count}, "
                             f"{self.max_position}")
        for name in ("sigma", "magnitude"):
            value = getattr(self, name)
            if not _is_real(value) or not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.kind == "bumps" and (self.magnitude <= 0 or self.count < 1):
            raise ValueError("bumps need a positive magnitude and count")


@dataclass(frozen=True)
class SynthSpec:
    """The ideal curve ``true_params`` sampled at ``count`` positions from
    ``kernel`` in steps of ``step``, then distorted by ``noise``.

    Checked whole: the schedule is integers >= 1 whose last position is
    below 2**63, the seed is an integer >= 0, with or without noise, every
    bump asked for has a position at or below its ``max_position``, and the
    ideal curve is an accuracy at every position, at least
    ``_MIN_ACCURACY`` (1e-6) at the kernel and at most 100 at the last
    position. The curve increases, so its two ends decide.
    """

    true_params: PowerLawParams
    kernel: int = 5000
    step: int = 5000
    count: int = 60
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        for name, least in (("kernel", 1), ("step", 1), ("count", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        last = self.kernel + self.step * (self.count - 1)
        if last >= 2**63:
            raise ValueError(f"the last position {last} is not below 2**63")
        placed = len(range(self.kernel, min(last, self.noise.max_position) + 1, self.step))
        if self.noise.kind == "bumps" and placed < self.noise.count:
            raise ValueError(f"{self.noise.count} bumps need as many positions at or below "
                             f"{self.noise.max_position}, the schedule has {placed}")
        low, high = (eval_pattern(self.true_params, x) for x in (self.kernel, last))
        if not (_MIN_ACCURACY <= low and high <= 100.0):
            raise ValueError(f"the curve runs from {low!r} at {self.kernel} to {high!r} at "
                             f"{last}, outside [{_MIN_ACCURACY}, 100]")


def generate_series(spec: SynthSpec) -> ObservationSeries:
    """Deterministic series for the spec; same seed, same series."""
    positions = [spec.kernel + spec.step * i for i in range(spec.count)]
    values = np.array([eval_pattern(spec.true_params, x) for x in positions])
    if spec.noise.kind == "gaussian" and spec.noise.sigma > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + rng.normal(0.0, spec.noise.sigma, size=spec.count)
    elif spec.noise.kind == "bumps":
        # The spec has checked that the first count positions are eligible.
        for k in range(spec.noise.count):
            values[k] += spec.noise.magnitude * (1 if k % 2 == 0 else -1)
    # Clips only noise: the spec has checked that the ideal curve is in range.
    values = np.clip(values, _MIN_ACCURACY, 100.0)
    return _series_of_columns(np.array(positions, dtype=np.int64), values)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; its name is its key in ``TheoremReport.results``."""

    passed: bool
    violations: int
    checks: int
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    results: dict[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())


@dataclass(frozen=True)
class TheoremSuiteConfig:
    """True curve and the slack the convergence checks allow.

    ``violation_budget`` is the fraction of monotonicity steps allowed to
    fail on distorted data; ``monotone_tolerance`` is the absolute backbone
    fluctuation treated as absorbed rather than as a direction violation
    (the verticality limit times the step is the natural scale). Keep both
    at 0 for ideal input. Checked whole: the budget is a real number in
    [0, 1], the tolerance a finite real number >= 0 (a bool is neither) and
    ``true_params`` a :class:`~curvecast.model.PowerLawParams`.
    """

    true_params: PowerLawParams
    violation_budget: float = 0.0
    monotone_tolerance: float = 0.0

    def __post_init__(self):
        if not isinstance(self.true_params, PowerLawParams):
            raise ValueError(f"true_params must be a PowerLawParams, got {self.true_params!r}")
        budget, tolerance = self.violation_budget, self.monotone_tolerance
        if not _is_real(budget) or not 0 <= budget <= 1:
            raise ValueError(f"violation_budget must be a number in [0, 1], got {budget!r}")
        if not _is_real(tolerance) or not 0 <= tolerance < math.inf:
            raise ValueError(f"monotone_tolerance must be a finite number >= 0, got "
                             f"{tolerance!r}")

    @property
    def direction_tol(self) -> float:
        return max(_EQUAL_TOL, self.monotone_tolerance)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and type(value) is not bool


def build_traces(
    series: ObservationSeries,
    level_params: LevelParams,
    policy: AnchorPolicy,
) -> tuple[LearningTrace, int | None, LearningTrace | None]:
    """Reference (unanchored) trace over the whole series, the working
    level found on it, and the canonically anchored trace past that level
    (None when no working level emerged or anchoring is off)."""
    reference = LearningTrace()
    for _ in range(FIRST_LEVEL, len(series) + 1):
        extend_trace(reference, series)
    levels, alphas, positions = reference.converged_view()
    omega = working_level(alphas, positions, level_params, levels=levels)
    anchored = None
    if omega is not None and policy.mode == "canonical":
        anchored = anchored_chain(reference, omega)
    return reference, omega, anchored


def _monotone_violations(values, *, direction=None, tol):
    """(violations, steps): direction inferred from the first and last
    value when not forced; +1 means non-decreasing expected."""
    if direction is None:
        direction = 1 if len(values) > 1 and values[-1] > values[0] else -1
    bad = sum(1 for prev, cur in zip(values, values[1:]) if (cur - prev) * direction < -tol)
    return bad, max(len(values) - 1, 0)


def theorem_suite(series: ObservationSeries, config: TheoremSuiteConfig) -> TheoremReport:
    """Evaluate the convergence and anchoring guarantees on one series,
    with default level detection and canonical analytic anchors."""
    c_true = config.true_params.c
    budget = config.violation_budget
    reference, omega, anchored = build_traces(series, LevelParams(),
                                              AnchorPolicy(mode="canonical"))
    results: dict[str, CheckResult] = {}

    def record(name, violations, checks, detail=""):
        allowed = math.floor(budget * checks)
        results[name] = CheckResult(violations <= allowed, violations, checks, detail)

    # The backbone and layer guarantees are stated past the working level,
    # where the backbone has settled under the verticality limit: those
    # checks read the converged levels from omega on, and none without it.
    post_levels = [lv for lv in reference.converged_view()[0]
                   if omega is not None and lv >= omega]
    post = [reference.alpha(lv) for lv in post_levels]

    # Backbone monotone past the working level, approaching the true
    # asymptote.
    bad_mono, steps_mono = _monotone_violations(post, tol=config.direction_tol)
    gaps = [abs(a - c_true) for a in post]
    bad_gap, steps_gap = _monotone_violations(gaps, direction=-1, tol=config.direction_tol)
    record("backbone_monotone_after_working_level", bad_mono, steps_mono,
           f"omega={omega}")
    record("backbone_approaches_true_asymptote", bad_gap, steps_gap)

    # Correctness bound decreasing on locally decreasing stretches.
    eps_values = _epsilon_sequence(reference)
    bad_eps, steps_eps = _monotone_violations(eps_values, direction=-1,
                                              tol=config.direction_tol)
    record("correctness_bound_decreasing", bad_eps, steps_eps,
           f"defined={len(eps_values)}")

    # Oracle variant against the known true curve: the gap between the last
    # crossing and the true asymptote shrinks overall. The last crossing
    # moves discontinuously under distortion, so this is a trend check on
    # medians rather than a stepwise one.
    oracle_gaps = _true_curve_crossing_gaps(reference, config.true_params)
    if len(oracle_gaps) >= 4:
        third = max(len(oracle_gaps) // 3, 1)
        m_first = sorted(oracle_gaps[:third])[third // 2]
        late = sorted(oracle_gaps[-third:])
        m_last = late[len(late) // 2]
        shrunk = m_last <= m_first + config.direction_tol
        record("correctness_bound_true_curve_oracle", 0 if shrunk else 1, 1,
               f"median first/last thirds {m_first:.3g}/{m_last:.3g}")
    else:
        record("correctness_bound_true_curve_oracle", 0, 0,
               f"defined={len(oracle_gaps)}")

    # Layers cross any threshold exactly once (equivalently: decreasing).
    layers = [convergence_layer(reference.trends[lv]) for lv in post_levels]
    bad_lay, steps_lay = _monotone_violations(layers, direction=-1,
                                              tol=config.direction_tol)
    record("layer_single_threshold_crossing",
           bad_lay + _threshold_defects(layers, config.direction_tol),
           steps_lay + max(len(layers) - 1, 0))

    # Anchored-trace checks.
    if anchored is None:
        for name in ("anchored_residual_balance", "anchor_residual_vanishes",
                     "anchor_correction_inequality", "canonical_anchor_ordering"):
            record(name, 0, 0, "no working level")
    else:
        _anchored_checks(record, reference, anchored, omega, config)

    return TheoremReport(results=results)


def _epsilon_sequence(trace: LearningTrace) -> list[float]:
    values = []
    last = trace.last_level or FIRST_LEVEL
    for level in range(FIRST_LEVEL + 1, last + 1):
        eps = epsilon_bound(trace, level)
        if eps is not None:
            values.append(eps)
    return values


def _true_curve_crossing_gaps(trace: LearningTrace, true_params: PowerLawParams) -> list[float]:
    gaps = []
    for level in trace.levels():
        trend = trace.trends[level]
        if not trend.converged or _params_close(trend.params, true_params):
            continue
        crossing = trend_intersection(trend.params, true_params)
        if crossing is not None:
            gaps.append(abs(crossing[1] - true_params.c))
    return gaps


def _threshold_defects(layers: list[float], band: float) -> int:
    """Extra defects from explicit threshold sweeps: for a few thresholds,
    the indicator [layer <= eps] must flip from false to true once. Layers
    within ``band`` of the threshold are indecisive and not counted."""
    if len(layers) < 2:
        return 0
    lo, hi = min(layers), max(layers)
    if hi <= lo:
        return 0
    defects = 0
    for frac in (0.25, 0.5, 0.75):
        eps = lo + (hi - lo) * frac
        flags = [layer <= eps for layer in layers]
        first = flags.index(True) if True in flags else len(flags)
        defects += sum(
            1 for i, (f, layer) in enumerate(zip(flags, layers))
            if f != (i >= first) and abs(layer - eps) > band
        )
    return defects


def _anchored_checks(record, reference, anchored, omega, config):
    anchored_levels = [lv for lv in anchored.levels() if lv > omega
                       and anchored.trends[lv].converged]

    # Residual balance: anchor residual cancels the observation residuals.
    # numpy's pairwise sum gives the same bits on every supported Python;
    # a float sum() is compensated on 3.12+ and plain before. Residuals are
    # computed on read, so each level's are summed once.
    sums = {lv: float(np.add.reduce(anchored.trends[lv].residuals)) for lv in anchored_levels}
    bad_balance = 0
    for lv in anchored_levels:
        total = sums[lv] + anchored.trends[lv].anchor_residual
        if abs(total) > 1e-6 * lv:
            bad_balance += 1
    record("anchored_residual_balance", bad_balance, len(anchored_levels))

    # The anchor residual dies out as levels grow (within the absorbed
    # fluctuation band on distorted data).
    residuals = [abs(anchored.trends[lv].anchor_residual) for lv in anchored_levels]
    if len(residuals) >= 2:
        ok = residuals[-1] <= max(residuals[0] + _EQUAL_TOL, config.monotone_tolerance)
        record("anchor_residual_vanishes", 0 if ok else 1, 1,
               f"first={residuals[0]:.2e} last={residuals[-1]:.2e}")
    else:
        record("anchor_residual_vanishes", 0, 0)

    # Step-wise correction inequality, direction per local monotony.
    bad_corr = checks_corr = 0
    for prev, cur in zip(anchored_levels, anchored_levels[1:]):
        if cur != prev + 1:
            continue
        checks_corr += 1
        t_prev, t_cur = anchored.trends[prev], anchored.trends[cur]
        anchor_value = t_cur.params.c + t_cur.anchor_residual
        bound = t_prev.params.c - sums[cur] - t_cur.anchor_residual
        decreasing = t_cur.params.c <= t_prev.params.c + _EQUAL_TOL
        if decreasing and anchor_value > bound + _EQUAL_TOL:
            bad_corr += 1
        elif not decreasing and anchor_value < bound - _EQUAL_TOL:
            bad_corr += 1
    record("anchor_correction_inequality", bad_corr, checks_corr)

    # Canonical ordering of plain vs anchored asymptotes past the working
    # level, direction per the reference backbone monotony.
    ref_post = [reference.alpha(lv) for lv in anchored_levels]
    anch_post = [anchored.alpha(lv) for lv in anchored_levels]
    if ref_post:
        direction = 1 if ref_post[-1] > ref_post[0] else -1
        order_tol = config.direction_tol
        bad_ord = 0
        for plain, hat in zip(ref_post, anch_post):
            if direction < 0 and plain > hat + order_tol:
                bad_ord += 1
            elif direction > 0 and plain < hat - order_tol:
                bad_ord += 1
        record("canonical_anchor_ordering", bad_ord, len(ref_post))
    else:
        record("canonical_anchor_ordering", 0, 0)
