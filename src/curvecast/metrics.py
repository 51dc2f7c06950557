"""Reliability and robustness metrics over control sequences.

PE/MAPE quantify estimation error; RE/RER/DMR measure whether estimates
preserve the relative ordering of runs; RR measures how monotonic the
asymptote backbone stayed between the working and convergence levels.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

Pair = tuple[float, float]  # (observed accuracy, estimated accuracy)


@dataclass(frozen=True)
class ControlSequence:
    """Fixed scoring positions plus per-run (Ac, EAc) pairs at each one."""

    positions: tuple[int, ...]
    runs: Mapping[str, tuple[Pair, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.positions:
            raise ValueError("need at least one control position")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("control positions must be strictly increasing")
        for name, pairs in self.runs.items():
            if len(pairs) != len(self.positions):
                raise ValueError(f"run {name!r} has {len(pairs)} pairs for "
                                 f"{len(self.positions)} control positions")
            for ac, eac in pairs:
                if not (0.0 < ac <= 100.5 and 0.0 < eac <= 100.5):
                    raise ValueError(f"run {name!r} has out-of-range pair ({ac}, {eac})")

    def pairs(self, name: str) -> tuple[Pair, ...]:
        return self.runs[name]


@dataclass(frozen=True)
class MetricsReport:
    """Per-run and pairwise metrics over one control sequence."""

    positions: tuple[int, ...]
    pe: dict[str, tuple[float, ...]]
    mape: dict[str, float]
    rer: dict[tuple[str, str], float]
    dmr: dict[str, float]
    rr: dict[str, float]


def percentage_error(ac: float, eac: float) -> float:
    """Signed percent error of the estimate relative to the observation."""
    if ac <= 0:
        raise ValueError(f"observed accuracy must be > 0, got {ac}")
    return 100.0 * (eac - ac) / ac


def mape(pe_values: Sequence[float]) -> float:
    """Mean magnitude of already-percent PE values (no second 100 factor)."""
    if not pe_values:
        raise ValueError("mape needs at least one value")
    return sum(abs(v) for v in pe_values) / len(pe_values)


def reliability_estimation(pair1: Pair, pair2: Pair) -> int:
    """1 when the estimated ordering of two runs matches the observed one
    at a single control level; ties count as preserved."""
    (ac1, eac1), (ac2, eac2) = pair1, pair2
    return 1 if (ac1 - ac2) * (eac1 - eac2) >= 0 else 0


def rer(run1: Sequence[Pair], run2: Sequence[Pair]) -> float:
    """Percentage of control levels where two runs' ordering is preserved."""
    if len(run1) != len(run2) or not run1:
        raise ValueError("runs must cover the same non-empty control levels")
    preserved = sum(reliability_estimation(p1, p2) for p1, p2 in zip(run1, run2))
    return 100.0 * preserved / len(run1)


def dmr(run: Sequence[Pair], others: Sequence[Sequence[Pair]]) -> float:
    """Percentage of comparison runs against which the ordering is preserved
    at every control level."""
    if not others:
        raise ValueError("dmr needs at least one comparison run")
    fully_preserved = sum(
        1 for other in others
        if sum(reliability_estimation(p, q) for p, q in zip(run, other)) == len(run)
    )
    return 100.0 * fully_preserved / len(others)


def longest_monotone_length(values: Sequence[float]) -> int:
    """Length of the longest monotonic (non-decreasing or non-increasing)
    subsequence."""
    return max(_longest_non_decreasing(values), _longest_non_decreasing([-v for v in values]))


def _longest_non_decreasing(values: Sequence[float]) -> int:
    # Patience sorting: tails[k] is the smallest tail of a subsequence of
    # length k + 1.
    tails: list[float] = []
    for v in values:
        idx = bisect_right(tails, v)
        if idx == len(tails):
            tails.append(v)
        else:
            tails[idx] = v
    return len(tails)


def rr(backbone_segment: Sequence[float]) -> float:
    """Robustness rate: share of the segment covered by its longest
    monotonic subsequence."""
    if not backbone_segment:
        raise ValueError("robustness rate needs a non-empty segment")
    mono = longest_monotone_length(backbone_segment)
    return 100.0 * mono / len(backbone_segment)


def evaluate_runs(
    sequence: ControlSequence,
    backbone_segments: Mapping[str, Sequence[float]] | None = None,
) -> MetricsReport:
    """All metrics for every run in ``sequence``; RR only for runs with a
    backbone segment supplied."""
    names = list(sequence.runs)
    pe_map: dict[str, tuple[float, ...]] = {}
    mape_map: dict[str, float] = {}
    for name in names:
        pes = tuple(percentage_error(ac, eac) for ac, eac in sequence.pairs(name))
        pe_map[name] = pes
        mape_map[name] = mape(pes)
    rer_map: dict[tuple[str, str], float] = {}
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            rer_map[(n1, n2)] = rer(sequence.pairs(n1), sequence.pairs(n2))
    dmr_map: dict[str, float] = {}
    if len(names) > 1:
        for name in names:
            others = [sequence.pairs(n) for n in names if n != name]
            dmr_map[name] = dmr(sequence.pairs(name), others)
    rr_map: dict[str, float] = {}
    for name, segment in (backbone_segments or {}).items():
        rr_map[name] = rr(segment)
    return MetricsReport(
        positions=sequence.positions,
        pe=pe_map,
        mape=mape_map,
        rer=rer_map,
        dmr=dmr_map,
        rr=rr_map,
    )
