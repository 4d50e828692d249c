"""Fairness and efficiency audits for complete allocations.

Everything here treats the allocation as given: envy checks up to one/any
good, welfare measures, and exact maximin-share values by a max-min DP over
subset bitmasks, bounded by its own step count (desk scale only, never
silently approximated).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .allocation import Allocation, utility_vector
from .errors import ValidationError
from .oracle import _check_cap
from .record import Record
from .solver import P_LIMIT, log_power_sum
from .valuation import Instance, bundle_value_table

MNW_MMS_THRESHOLD = Fraction(2, 5)


def leximin_mms_threshold(c: int) -> Fraction:
    return Fraction(1, c + 2)


def _pairs(instance: Instance, allocation: Allocation):
    """Every ordered pair (i, j) of distinct agents, in order, as
    ``(i, j, v_i(X_i), X_j)``."""
    for i in instance.agents:
        own = instance.value(i, allocation.bundle(i))
        for j in instance.agents:
            if i != j:
                yield i, j, own, allocation.bundle(j)


def check_ef1(instance: Instance, allocation: Allocation) -> tuple[bool, tuple[int, int] | None]:
    """Envy-freeness up to one good.

    Passes when every agent i, against every other bundle X_j, has some
    single good whose removal kills the envy (vacuously when X_j is empty).
    Returns the first violating ordered pair (i, j) otherwise.
    """
    for i, j, own, other in _pairs(instance, allocation):
        if other and all(own < instance.value(i, other - {g}) for g in other):
            return False, (i, j)
    return True, None


def check_efx(
    instance: Instance, allocation: Allocation
) -> tuple[bool, tuple[int, int, int] | None]:
    """Envy-freeness up to any good: removal of every single good must help."""
    for i, j, own, other in _pairs(instance, allocation):
        for g in sorted(other):
            if own < instance.value(i, other - {g}):
                return False, (i, j, g)
    return True, None


def nash_welfare(instance: Instance, allocation: Allocation) -> tuple[int, int]:
    """(number of positive-utility agents, exact product of their utilities)."""
    positive = [u for u in utility_vector(instance, allocation) if u > 0]
    return len(positive), math.prod(positive)


def usw(instance: Instance, allocation: Allocation) -> int:
    return sum(utility_vector(instance, allocation))


def pmean_welfare(instance: Instance, allocation: Allocation, p: float) -> float:
    """Power-mean welfare over the positive-utility agents, averaged over n."""
    if not abs(p) <= P_LIMIT or p == 0 or p > 1:
        raise ValidationError(
            f"p-mean welfare is defined for finite p <= 1, p != 0, "
            f"|p| <= {P_LIMIT:g}; got {p}"
        )
    utilities = [u for u in utility_vector(instance, allocation) if u > 0]
    if not utilities:
        return 0.0
    return math.exp((log_power_sum(utilities, p) - math.log(instance.n)) / p)


def _best_split(s: int, values: list[int], shares: list[int]) -> int:
    """Max of min(values[T], shares[s - T]) over the submasks T of s that hold
    s's lowest good; skips T whose own value cannot beat the best so far."""
    low = s & -s
    others = s ^ low
    best = 0
    t = others
    while True:
        own = values[t | low]
        if own > best:
            left = shares[others ^ t]
            if left > best:
                best = own if own < left else left
        if not t:
            return best
        t = (t - 1) & others


def mms(instance: Instance, i: int) -> int:
    """Exact maximin share of agent i by a max-min DP over subset bitmasks.

    The value the agent locks in by splitting all goods into n bundles and
    receiving the worst one. Only the agent's own valuation applies, so on
    its bundle value table let f_1(S) = v_i(S) and, for k >= 2, f_k(S) be
    the best over bundles T of S holding S's lowest good of
    min(v_i(T), f_{k-1}(S - T)); the share is f_n(all goods). The last
    split puts good 0 in the agent's own bundle, and each layer reads only
    submasks of the mask it splits, so no layer needs a mask holding good 0.
    Each of the n - 2 middle layers fills the other masks, visiting half of
    the 3^(m-1) (subset, submask) pairs over goods 1 .. m-1, and the last
    needs only the full mask, so the DP takes
    (n - 2)(3^(m-1) - 1)/2 + 2^(m-1) steps. Over the oracle's enumeration cap
    it refuses before building the table.
    """
    if i not in instance.agents:
        raise ValidationError(f"no agent {i}")
    n, m = instance.n, instance.m
    if m < n:
        return 0
    if n == 1:
        return instance.value(i, frozenset(range(m)))
    _check_cap((n - 2) * (3 ** (m - 1) - 1) // 2 + 2 ** (m - 1), "maximin-share DP steps")
    values = bundle_value_table(instance.valuation(i))
    full = len(values) - 1
    shares = values
    for _ in range(n - 2):
        # Masks holding good 0 are odd; their entries stay 0 and are never read.
        layer = [0] * (full + 1)
        layer[2::2] = [_best_split(s, values, shares) for s in range(2, full + 1, 2)]
        shares = layer
    return _best_split(full, values, shares)


class MmsRatioRow(Record):
    """One agent's utility against its maximin share; ``ratio`` is None when
    the share is zero (trivially satisfied)."""

    __slots__ = _fields = ("agent", "utility", "mms", "ratio", "threshold", "meets_threshold")


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


class AuditReport(Record):
    """Everything the auditors can say about one allocation."""

    __slots__ = _fields = ("utilities", "nash_positive_count", "nash_product", "usw", "pmean",
                           "ef1", "ef1_witness", "efx", "efx_witness", "mms_rows")

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

    Maximin shares are only computed on request since their DP grows as
    3^m per agent; a size overrun raises rather than silently skipping. A
    criterion hint only sets MMS thresholds, so it needs ``with_mms``.
    """
    if criterion_hint and not with_mms:
        raise ValidationError("a criterion hint needs the MMS audit (--mms)")
    ef1_ok, ef1_witness = check_ef1(instance, allocation)
    efx_ok, efx_witness = check_efx(instance, allocation)
    count, product = nash_welfare(instance, allocation)
    rows = None
    if with_mms:
        rows = tuple(mms_ratio_report(instance, allocation, criterion_hint))
    return AuditReport(
        utility_vector(instance, allocation), count, product, usw(instance, allocation),
        {p: pmean_welfare(instance, allocation, p) for p in pmean_ps},
        ef1_ok, ef1_witness, efx_ok, efx_witness, rows,
    )
