from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest

import bifair.oracle
from bifair.allocation import Allocation
from bifair.audit import (
    MNW_MMS_THRESHOLD,
    audit_allocation,
    check_ef1,
    check_efx,
    leximin_mms_threshold,
    mms,
    mms_ratio_report,
    nash_welfare,
    pmean_welfare,
    usw,
)
from bifair.errors import SizeLimitError, ValidationError
from bifair.io import random_instance
from bifair.oracle import ENUMERATION_CAP
from bifair.solver import Leximin, MaxNashWelfare, solve
from bifair.valuation import BivaluedValuation, Instance, MarkedMatroid
from conftest import capped_vs_additive_instance, two_agent_instance


def _identical_additive_instance(c: int, m: int, n: int) -> Instance:
    goods = tuple(f"g{i}" for i in range(m))
    val = BivaluedValuation(c, MarkedMatroid(m, frozenset(range(m))))
    return Instance(goods, c, (val,) * n)


class TestEnvyChecks:
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_nash_output_of_capped_instance_fails_ef1(self, c):
        instance = capped_vs_additive_instance(c)
        result = solve(instance, MaxNashWelfare())
        assert len(result.allocation.bundle(1)) == 2
        assert len(result.allocation.bundle(2)) == 4
        ok, witness = check_ef1(instance, result.allocation)
        assert not ok
        assert witness == (1, 2)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_leximin_output_of_two_agent_instance_fails_ef1(self, c):
        instance = two_agent_instance(c, m=2 * c + 2)
        result = solve(instance, Leximin(c))
        assert len(result.allocation.bundle(2)) == 2
        assert len(result.allocation.bundle(1)) == 2 * c
        ok, witness = check_ef1(instance, result.allocation)
        assert not ok
        assert witness == (2, 1)

    def test_balanced_identical_agents_are_ef1(self):
        instance = _identical_additive_instance(3, 5, 2)
        allocation = Allocation.from_bundles(instance, [set(), {0, 1, 2}, {3, 4}])
        ok, witness = check_ef1(instance, allocation)
        assert ok and witness is None

    def test_efx_failure_implies_ef1_relation(self):
        rng = random.Random(51)
        for trial in range(60):
            family = ("marked", "uniform", "partition", "transversal")[trial % 4]
            instance = random_instance(family, 3, 6, 2, rng)
            bundles = [set() for _ in range(4)]
            for g in range(6):
                bundles[rng.randint(0, 3)].add(g)
            allocation = Allocation.from_bundles(instance, bundles)
            ef1_ok, _ = check_ef1(instance, allocation)
            efx_ok, _ = check_efx(instance, allocation)
            if ef1_ok is False:
                assert efx_ok is False

    def test_single_agent_trivially_fair(self):
        instance = _identical_additive_instance(2, 4, 1)
        allocation = Allocation.from_bundles(instance, [set(), {0, 1, 2, 3}])
        assert check_ef1(instance, allocation) == (True, None)
        assert check_efx(instance, allocation) == (True, None)

    def test_identical_goods_nash_output_is_efx(self):
        instance = _identical_additive_instance(3, 6, 2)
        result = solve(instance, MaxNashWelfare())
        ok, witness = check_efx(instance, result.allocation)
        assert ok, witness


class TestWelfareMeasures:
    def test_nash_of_worked_example_output(self, worked_example):
        result = solve(worked_example, MaxNashWelfare())
        assert nash_welfare(worked_example, result.allocation) == (2, 45)

    def test_empty_allocation_nash(self, worked_example):
        pool = Allocation.from_bundles(worked_example, [range(6), (), ()])
        assert nash_welfare(worked_example, pool) == (0, 1)

    def test_pmean_at_one_is_the_mean(self, worked_example):
        result = solve(worked_example, MaxNashWelfare())
        assert pmean_welfare(worked_example, result.allocation, 1) == pytest.approx(9.0)

    def test_pmean_rejects_zero(self, worked_example):
        pool = Allocation.from_bundles(worked_example, [range(6), (), ()])
        with pytest.raises(ValidationError):
            pmean_welfare(worked_example, pool, 0)

    def test_pmean_with_no_positive_utility_is_zero(self, worked_example):
        pool = Allocation.from_bundles(worked_example, [range(6), (), ()])
        assert pmean_welfare(worked_example, pool, -1.0) == 0.0

    def test_usw(self, worked_example):
        result = solve(worked_example, MaxNashWelfare())
        assert usw(worked_example, result.allocation) == 18


def _brute_mms(instance: Instance, agent: int) -> int:
    """Second, independent enumeration: label every good with a bundle index."""
    n, m = instance.n, instance.m
    best = 0
    value = functools.cache(instance.valuation(agent).value)
    for labels in itertools.product(range(n), repeat=m):
        bundles = [frozenset(g for g in range(m) if labels[g] == b) for b in range(n)]
        worst = min(value(b) for b in bundles)
        if worst > best:
            best = worst
    return best


class TestMms:
    def test_additive_even_split(self):
        for c in (2, 3):
            instance = _identical_additive_instance(c, 5, 2)
            assert mms(instance, 1) == 2 * c

    def test_lopsided_two_agent_share(self):
        # Six goods, c=2: the all-additive agent splits them three and three.
        instance = two_agent_instance(2, m=6)
        assert mms(instance, 2) == 6
        assert mms(instance, 1) == 3

    def test_matches_independent_enumeration(self):
        rng = random.Random(61)
        for trial in range(12):
            family = ("marked", "uniform", "partition", "transversal")[trial % 4]
            instance = random_instance(family, 3, 6, 2, rng)
            for i in instance.agents:
                assert mms(instance, i) == _brute_mms(instance, i)

    @pytest.mark.parametrize("m", [5, 6])
    def test_five_agents_match_independent_enumeration(self, m):
        rng = random.Random(71 + m)
        for family in ("marked", "uniform", "partition", "transversal"):
            instance = random_instance(family, 5, m, rng.choice([2, 3]), rng)
            for i in instance.agents:
                assert mms(instance, i) == _brute_mms(instance, i), (family, i)

    def test_shares_at_and_below_singleton_ceiling(self):
        # A share never exceeds floor(singleton total / n); the inputs hold
        # agents whose share reaches that ceiling and agents below it.
        rng = random.Random(67)
        at_ceiling = below = 0
        for n, m in ((2, 8), (3, 7), (4, 6)):
            for family in ("marked", "uniform", "partition", "transversal"):
                instance = random_instance(family, n, m, rng.choice([2, 3]), rng)
                for i in instance.agents:
                    share = mms(instance, i)
                    assert share == _brute_mms(instance, i), (family, n, m, i)
                    value = instance.valuation(i).value
                    ceiling = sum(value(frozenset({g})) for g in range(m)) // n
                    at_ceiling += share == ceiling
                    below += share < ceiling
        assert at_ceiling and below

    def test_size_limits(self):
        # The DP takes (n - 2)(3^(m-1) - 1)/2 + 2^(m-1) steps against the
        # oracle's enumeration cap: about 7.2M at n = 3, m = 16, and 21.6M
        # at m = 17.
        assert mms(_identical_additive_instance(2, 5, 5), 1) == 2
        assert mms(_identical_additive_instance(2, 14, 3), 1) == 8
        with pytest.raises(SizeLimitError, match=str(ENUMERATION_CAP)):
            mms(_identical_additive_instance(2, 17, 3), 1)

    def test_step_count_is_exact(self, monkeypatch):
        # n = 4, m = 6: 2 * (3^5 - 1)/2 + 2^5 = 274 steps.
        instance = random_instance("partition", 4, 6, 3, random.Random("mms-count"))
        expected = _brute_mms(instance, 1)
        monkeypatch.setattr(bifair.oracle, "ENUMERATION_CAP", 274)
        assert mms(instance, 1) == expected
        monkeypatch.setattr(bifair.oracle, "ENUMERATION_CAP", 273)
        with pytest.raises(SizeLimitError, match="274 maximin-share DP steps"):
            mms(instance, 1)

    def test_unknown_agent(self):
        instance = _identical_additive_instance(2, 3, 2)
        with pytest.raises(ValidationError):
            mms(instance, 3)


class TestMmsRatios:
    def test_single_agent_ratio_one(self):
        instance = _identical_additive_instance(2, 4, 1)
        allocation = Allocation.from_bundles(instance, [set(), {0, 1, 2, 3}])
        rows = mms_ratio_report(instance, allocation, "mnw")
        assert rows[0].ratio == Fraction(1)
        assert rows[0].meets_threshold

    def test_zero_share_is_satisfied(self):
        # Three agents, two goods: every maximin share is zero.
        instance = _identical_additive_instance(2, 2, 3)
        allocation = Allocation.from_bundles(instance, [set(), {0}, {1}, set()])
        rows = mms_ratio_report(instance, allocation, "leximin")
        assert all(row.meets_threshold for row in rows)
        assert rows[2].ratio is None

    def test_thresholds(self):
        assert MNW_MMS_THRESHOLD == Fraction(2, 5)
        assert leximin_mms_threshold(3) == Fraction(1, 5)

    def test_unknown_hint_rejected(self, worked_example):
        allocation = solve(worked_example, MaxNashWelfare()).allocation
        with pytest.raises(ValidationError):
            mms_ratio_report(worked_example, allocation, "usw")


class TestAuditReport:
    def test_report_round_trip(self, worked_example):
        result = solve(worked_example, MaxNashWelfare())
        report = audit_allocation(
            worked_example,
            result.allocation,
            pmean_ps=(1.0, -1.0),
            with_mms=True,
            criterion_hint="mnw",
        )
        data = report.to_dict()
        assert data["utilities"] == [3, 15]
        assert data["nash"] == {"positive_count": 2, "product": 45}
        assert data["ef1"] is True
        assert len(data["mms"]) == 2
        table = report.to_table()
        assert "nash welfare" in table

    def test_report_includes_witnesses(self):
        instance = capped_vs_additive_instance(3)
        result = solve(instance, MaxNashWelfare())
        report = audit_allocation(instance, result.allocation)
        assert report.ef1 is False
        assert report.to_dict()["ef1_witness"] == [1, 2]
