"""Fairness and efficiency audits for complete allocations.

Everything here treats the allocation as given: envy checks up to one/any
good, welfare measures, and exact maximin-share values by exhaustive
partition enumeration that stops at a proven ceiling (desk scale only,
never silently approximated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .allocation import Allocation, utility_vector
from .errors import SizeLimitError, ValidationError
from .solver import log_power_sum
from .valuation import Instance, bundle_value_table

MMS_MAX_AGENTS = 4
MMS_MAX_GOODS = 12

MNW_MMS_THRESHOLD = Fraction(2, 5)


def leximin_mms_threshold(c: int) -> Fraction:
    return Fraction(1, c + 2)


def check_ef1(instance: Instance, allocation: Allocation) -> tuple[bool, tuple[int, int] | None]:
    """Envy-freeness up to one good.

    Passes when every agent i, against every other bundle X_j, has some
    single good whose removal kills the envy (vacuously when X_j is empty).
    Returns the first violating ordered pair (i, j) otherwise.
    """
    for i in instance.agents:
        own = instance.value(i, allocation.bundle(i))
        for j in instance.agents:
            if i == j:
                continue
            other = allocation.bundle(j)
            if not other:
                continue
            if all(own < instance.value(i, other - {g}) for g in other):
                return False, (i, j)
    return True, None


def check_efx(
    instance: Instance, allocation: Allocation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Envy-freeness up to any good: removal of every single good must help."""
    for i in instance.agents:
        own = instance.value(i, allocation.bundle(i))
        for j in instance.agents:
            if i == j:
                continue
            for g in sorted(allocation.bundle(j)):
                if own < instance.value(i, allocation.bundle(j) - {g}):
                    return False, (i, j, g)
    return True, None


def nash_welfare(instance: Instance, allocation: Allocation) -> tuple[int, int]:
    """(number of positive-utility agents, exact product of their utilities)."""
    utilities = utility_vector(instance, allocation)
    positive = [u for u in utilities if u > 0]
    product = 1
    for u in positive:
        product *= u
    return len(positive), product


def usw(instance: Instance, allocation: Allocation) -> int:
    return sum(utility_vector(instance, allocation))


def pmean_welfare(instance: Instance, allocation: Allocation, p: float) -> float:
    """Power-mean welfare over the positive-utility agents, averaged over n."""
    if not math.isfinite(p) or p == 0 or p > 1:
        raise ValidationError(
            f"p-mean welfare is defined for finite p <= 1, p != 0; got {p}"
        )
    utilities = [u for u in utility_vector(instance, allocation) if u > 0]
    if not utilities:
        return 0.0
    return math.exp((log_power_sum(utilities, p) - math.log(instance.n)) / p)


def mms(instance: Instance, i: int) -> int:
    """Exact maximin share of agent i by exhaustive partition enumeration.

    The value the agent locks in by splitting all goods into n bundles and
    receiving the worst one. Unordered partitions suffice because only the
    agent's own valuation is applied, and partitions with fewer than n
    nonempty blocks leave some bundle empty and score zero, so the search
    walks restricted growth strings (good 0 in block 0, each later good
    joining an existing block or opening the next) pruned to exactly n
    blocks. A bundle is worth at most the sum of its goods' singleton
    values, so the worst of n bundles is worth at most the floor of the
    singleton total over n; the search stops once it reaches that ceiling.
    """
    if instance.n > MMS_MAX_AGENTS or instance.m > MMS_MAX_GOODS:
        raise SizeLimitError(
            f"exact maximin shares are limited to n <= {MMS_MAX_AGENTS} and "
            f"m <= {MMS_MAX_GOODS}; got n={instance.n}, m={instance.m}"
        )
    if i not in instance.agents:
        raise ValidationError(f"no agent {i}")
    n, m = instance.n, instance.m
    if m < n:
        return 0
    values = bundle_value_table(instance.valuation(i), m)
    ceiling = sum(values[1 << g] for g in range(m)) // n
    masks = [0] * n
    best = 0

    def rec(pos: int, used: int) -> bool:
        """Extend the partition from good ``pos``; True once at the ceiling."""
        nonlocal best
        if used + (m - pos) < n:
            return False
        if pos == m:
            best = max(best, min(values[mask] for mask in masks))
            return best >= ceiling
        bit = 1 << pos
        for blk in range(min(used + 1, n)):
            masks[blk] |= bit
            done = rec(pos + 1, used + 1 if blk == used else used)
            masks[blk] &= ~bit
            if done:
                return True
        return False

    rec(0, 0)
    return best


@dataclass(frozen=True)
class MmsRatioRow:
    agent: int
    utility: int
    mms: int
    ratio: Fraction | None  # None when the share is zero (trivially satisfied)
    threshold: Fraction | None
    meets_threshold: bool


def mms_ratio_report(
    instance: Instance,
    allocation: Allocation,
    criterion_hint: str | None = None,
) -> list[MmsRatioRow]:
    """Per-agent utility/MMS ratios with threshold verdicts.

    The thresholds are the guarantees the solver's outputs are expected to
    honor: 2/5 for Nash-welfare outputs and 1/(c+2) for leximin outputs. A
    zero maximin share counts as satisfied. Any agent below threshold on a
    genuine solver output indicates a bug.
    """
    if criterion_hint in (None, ""):
        threshold = None
    elif criterion_hint == "mnw":
        threshold = MNW_MMS_THRESHOLD
    elif criterion_hint == "leximin":
        threshold = leximin_mms_threshold(instance.c)
    else:
        raise ValidationError(f"no maximin-share guarantee known for {criterion_hint!r}")
    utilities = utility_vector(instance, allocation)
    rows = []
    for i in instance.agents:
        share = mms(instance, i)
        if share == 0:
            rows.append(MmsRatioRow(i, utilities[i - 1], 0, None, threshold, True))
            continue
        ratio = Fraction(utilities[i - 1], share)
        meets = threshold is None or ratio >= threshold
        rows.append(MmsRatioRow(i, utilities[i - 1], share, ratio, threshold, meets))
    return rows


@dataclass(frozen=True)
class AuditReport:
    """Everything the auditors can say about one allocation."""

    utilities: tuple[int, ...]
    nash_positive_count: int
    nash_product: int
    usw: int
    pmean: dict[float, float]
    ef1: bool
    ef1_witness: tuple[int, int] | None
    efx: bool
    efx_witness: tuple[int, int, int] | None
    mms_rows: tuple[MmsRatioRow, ...] | None

    def to_dict(self) -> dict:
        report: dict = {
            "utilities": list(self.utilities),
            "nash": {"positive_count": self.nash_positive_count,
                     "product": self.nash_product},
            "usw": self.usw,
            "pmean": {str(p): v for p, v in self.pmean.items()},
            "ef1": self.ef1,
            "efx": self.efx,
        }
        if self.ef1_witness:
            report["ef1_witness"] = list(self.ef1_witness)
        if self.efx_witness:
            report["efx_witness"] = list(self.efx_witness)
        if self.mms_rows is not None:
            report["mms"] = [
                {
                    "agent": row.agent,
                    "utility": row.utility,
                    "mms": row.mms,
                    "ratio": None if row.ratio is None else str(row.ratio),
                    "meets_threshold": row.meets_threshold,
                }
                for row in self.mms_rows
            ]
        return report

    def to_table(self) -> str:
        lines = [
            f"utilities          {list(self.utilities)}",
            f"nash welfare       count={self.nash_positive_count} "
            f"product={self.nash_product}",
            f"utilitarian        {self.usw}",
        ]
        for p, v in self.pmean.items():
            lines.append(f"p-mean (p={p})     {v:.6f}")
        lines.append(
            f"EF1                {'yes' if self.ef1 else f'no, witness {self.ef1_witness}'}"
        )
        lines.append(
            f"EFX                {'yes' if self.efx else f'no, witness {self.efx_witness}'}"
        )
        if self.mms_rows is not None:
            for row in self.mms_rows:
                ratio = "satisfied" if row.ratio is None else str(row.ratio)
                verdict = "" if row.meets_threshold else "  BELOW THRESHOLD"
                lines.append(
                    f"MMS agent {row.agent}       share={row.mms} ratio={ratio}{verdict}"
                )
        return "\n".join(lines)


def audit_allocation(
    instance: Instance,
    allocation: Allocation,
    pmean_ps: tuple[float, ...] = (),
    with_mms: bool = False,
    criterion_hint: str | None = None,
) -> AuditReport:
    """Run every auditor and assemble the report.

    Maximin shares are only computed on request since they enumerate all
    partitions; a size overrun raises rather than silently skipping.
    """
    ef1_ok, ef1_witness = check_ef1(instance, allocation)
    efx_ok, efx_witness = check_efx(instance, allocation)
    count, product = nash_welfare(instance, allocation)
    rows = None
    if with_mms:
        rows = tuple(mms_ratio_report(instance, allocation, criterion_hint))
    return AuditReport(
        utilities=utility_vector(instance, allocation),
        nash_positive_count=count,
        nash_product=product,
        usw=usw(instance, allocation),
        pmean={p: pmean_welfare(instance, allocation, p) for p in pmean_ps},
        ef1=ef1_ok,
        ef1_witness=ef1_witness,
        efx=efx_ok,
        efx_witness=efx_witness,
        mms_rows=rows,
    )
