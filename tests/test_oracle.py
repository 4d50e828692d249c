from __future__ import annotations

import math
import random

import pytest

import bifair.oracle
from bifair.allocation import (
    Allocation,
    check_decomposition,
    compare_domination,
    decompose,
    utility_vector,
)
from bifair.errors import SizeLimitError
from bifair.io import random_instance
from bifair.oracle import (
    _all_vectors,
    _best_groups,
    _sorted_groups,
    brute_force_optima,
    brute_force_optimum,
    certify_dominating,
)
from bifair.solver import (
    Leximin,
    MaxNashWelfare,
    PMeanWelfare,
    SolveResult,
    SolveTrace,
    solve,
)
from bifair.valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    bundle_value_table,
)
from conftest import two_agent_instance
from helpers import all_decompositions, all_utility_vectors, certify_reference

FAMILIES = ("marked", "uniform", "partition", "transversal")


class TestBruteForceOptimum:
    def test_worked_example_leximin(self, worked_example):
        optimum = brute_force_optimum(worked_example, Leximin(5))
        assert optimum.best_sorted == (5, 5)

    def test_worked_example_mnw(self, worked_example):
        optimum = brute_force_optimum(worked_example, MaxNashWelfare())
        assert optimum.optimal_vectors == {(3, 15)}

    def test_identical_additive_agents(self):
        for c in (2, 3):
            goods = ("a", "b", "c", "d")
            val = BivaluedValuation(c, MarkedMatroid(4, frozenset(range(4))))
            instance = Instance(goods, c, (val, val))
            optimum = brute_force_optimum(instance, MaxNashWelfare())
            assert optimum.best_sorted == (2 * c, 2 * c)

    def test_shared_enumeration_matches_individual(self, worked_example):
        criteria = [MaxNashWelfare(), Leximin(5), PMeanWelfare(-1.0)]
        shared = brute_force_optima(worked_example, criteria)
        for criterion, result in zip(criteria, shared):
            assert result == brute_force_optimum(worked_example, criterion)

    def test_mnw_against_log_sum_ordering(self):
        # Independent second opinion: maximize positive count, then the sum
        # of logs, falling back to exact products for near ties.
        rng = random.Random(71)
        for trial in range(25):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, 5, rng.choice([2, 3]), rng)
            optimum = brute_force_optimum(instance, MaxNashWelfare())
            best_key = (-1, -math.inf)
            best_vectors: set[tuple[int, ...]] = set()
            for vec in all_utility_vectors(instance):
                positives = [u for u in vec if u > 0]
                key = (len(positives), sum(math.log(u) for u in positives))
                if key[0] > best_key[0] or (
                    key[0] == best_key[0] and key[1] > best_key[1] + 1e-9
                ):
                    best_key = key
                    best_vectors = {vec}
                elif key[0] == best_key[0] and abs(key[1] - best_key[1]) <= 1e-9:
                    best_vectors.add(vec)
            assert optimum.optimal_vectors == frozenset(best_vectors)


    @pytest.mark.parametrize("family", FAMILIES)
    def test_complete_allocations_give_the_plain_optima(self, family):
        # The subset DP sees complete allocations only; the plain walk also
        # leaves goods in the pool. Their optima must be the same vectors.
        rng = random.Random(f"complete:{family}")
        for n, m in ((1, 5), (2, 7), (3, 6), (4, 3), (4, 5), (4, 7)):
            c = rng.choice([2, 3])
            instance = random_instance(family, n, m, c, rng)
            criteria = [
                MaxNashWelfare(), Leximin(c),
                PMeanWelfare(-1.0), PMeanWelfare(0.5), PMeanWelfare(-20.0),
            ]
            vectors = all_utility_vectors(instance)
            optima = brute_force_optima(instance, criteria)
            for criterion, result in zip(criteria, optima):
                expected = _best_groups(criterion, _sorted_groups(vectors)).optimal_vectors
                assert result.optimal_vectors == expected, (family, n, m, criterion.name)


def _optimum_per_vector(criterion, vectors):
    """Reference scoring: one key per vector, in ascending vector order."""
    best = None
    ties: set[tuple[int, ...]] = set()
    for vec in sorted(vectors):
        key = criterion.key(vec)
        order = 1 if best is None else criterion.compare_keys(key, best)
        if order > 0:
            best, ties = key, {vec}
        elif order == 0:
            ties.add(vec)
    return frozenset(ties)


class TestDpAndScoring:
    """The pair pass and the per-sorted-vector scoring keep their answers."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dp_vectors_match_complete_assignments(self, family):
        rng = random.Random(f"pair-pass:{family}")
        for n in range(1, 5):
            for m in range(7):
                instance = random_instance(family, n, m, rng.choice([2, 3]), rng)
                assert _all_vectors(instance, bundle_value_table) == all_utility_vectors(
                    instance, pool=False
                ), (family, n, m)

    def test_dp_vectors_match_on_an_explicit_table(self):
        rng = random.Random("pair-pass:explicit")
        matroid = random_instance("transversal", 1, 5, 2, rng).valuation(1).matroid
        explicit = BivaluedValuation(3, ExplicitMatroid(5, tuple(matroid.rank_table())))
        marked = BivaluedValuation(3, MarkedMatroid(5, frozenset({0, 2, 4})))
        goods = tuple(f"g{g}" for g in range(5))
        for valuations in ((explicit,), (explicit, marked), (marked, explicit, explicit),
                           (explicit, marked, explicit, marked)):
            instance = Instance(goods, 3, valuations)
            assert _all_vectors(instance, bundle_value_table) == all_utility_vectors(
                instance, pool=False
            ), len(valuations)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scoring_matches_per_vector_loop(self, family):
        rng = random.Random(f"scoring:{family}")
        for n, m in ((1, 4), (2, 5), (3, 4), (3, 6), (4, 4)):
            c = rng.choice([2, 3])
            instance = random_instance(family, n, m, c, rng)
            criteria = [
                MaxNashWelfare(), Leximin(c), PMeanWelfare(-1.0), PMeanWelfare(0.5),
                PMeanWelfare(-20.0), PMeanWelfare(-1000.0),
            ]
            for vectors in (_all_vectors(instance, bundle_value_table),
                            all_utility_vectors(instance)):
                groups = _sorted_groups(vectors)
                for criterion in criteria:
                    assert _best_groups(criterion, groups).optimal_vectors == (
                        _optimum_per_vector(criterion, vectors)
                    ), (family, n, m, criterion.name)


class TestBruteForceSizeLimit:
    """The subset DP is limited by its own steps, not by the (n+1)^m
    assignments it no longer walks."""

    def test_three_agents_twelve_goods_fit(self):
        # 4^12 assignments, but about 550,000 DP steps.
        instance = random_instance("marked", 3, 12, 3, random.Random("cap:3x12"))
        optimum, = brute_force_optima(instance, [MaxNashWelfare()])
        assert optimum.matches(solve(instance, MaxNashWelfare()).sorted_utilities)

    def test_larger_instance_refused_before_any_table(self, monkeypatch):
        instance = random_instance("marked", 4, 16, 3, random.Random("cap:4x16"))

        def no_table(*args):
            raise AssertionError("built a value table past the cap")

        monkeypatch.setattr(bifair.oracle, "bundle_value_table", no_table)
        with pytest.raises(SizeLimitError, match="subset DP steps"):
            brute_force_optima(instance, [MaxNashWelfare()])

    def test_prefix_steps_count_against_the_cap(self, monkeypatch):
        # At least 21,219 steps up front, but about 189,000 once the agents'
        # distinct utility prefixes multiply the submasks.
        instance = random_instance("partition", 5, 8, 3, random.Random("partition"))
        brute_force_optima(instance, [Leximin(3)])
        monkeypatch.setattr(bifair.oracle, "ENUMERATION_CAP", 50_000)
        with pytest.raises(SizeLimitError, match="subset DP steps"):
            brute_force_optima(instance, [Leximin(3)])


class TestCertifyDominating:
    def test_worked_example_certified(self):
        instance = two_agent_instance(3)
        for criterion in (Leximin(3), MaxNashWelfare(), PMeanWelfare(0.5)):
            result = solve(instance, criterion)
            verdict = certify_dominating(instance, result, criterion)
            assert verdict.ok, verdict.reason

    def test_randomized_certification(self):
        rng = random.Random(91)
        for trial in range(30):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, rng.randint(2, 5), 2, rng)
            for criterion in (MaxNashWelfare(), Leximin(2), PMeanWelfare(-1.0)):
                result = solve(instance, criterion)
                verdict = certify_dominating(instance, result, criterion)
                assert verdict.ok, (family, trial, criterion.name, verdict.reason)

    def test_suboptimal_output_rejected(self):
        instance = two_agent_instance(2)
        criterion = MaxNashWelfare()
        good = solve(instance, criterion)
        # Hand everything to agent 1: clearly not Nash-optimal.
        bad_alloc = Allocation.from_bundles(
            instance, [set(), set(range(6)), set()]
        )
        bad = SolveResult(
            bad_alloc,
            decompose(instance, bad_alloc),
            SolveTrace(),
            utility_vector(instance, bad_alloc),
        )
        assert certify_dominating(instance, good, criterion).ok
        assert not certify_dominating(instance, bad, criterion).ok

    def test_ten_goods_certified(self):
        # Ten goods, past the reach of a walk over every assignment.
        instance = random_instance("partition", 3, 10, 3, random.Random("certify:3x10"))
        for criterion in (MaxNashWelfare(), Leximin(3), PMeanWelfare(-1.0)):
            verdict = certify_dominating(instance, solve(instance, criterion), criterion)
            assert verdict.ok, (criterion.name, verdict.reason)

    def test_size_cap(self, monkeypatch):
        # Refused on the DP's step count, before any table is built.
        instance = random_instance("marked", 4, 16, 3, random.Random("cap:4x16"))
        result = solve(instance, MaxNashWelfare())

        def no_table(*args):
            raise AssertionError("built a value table past the cap")

        monkeypatch.setattr(bifair.oracle, "bundle_value_table", no_table)
        with pytest.raises(SizeLimitError, match="subset DP steps"):
            certify_dominating(instance, result, MaxNashWelfare())


class TestDecompositionEnumeration:
    def test_every_split_is_valid(self):
        rng = random.Random(81)
        for trial in range(30):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, 5, 2, rng)
            bundles = [set() for _ in range(3)]
            for g in range(5):
                bundles[rng.randint(0, 2)].add(g)
            allocation = Allocation.from_bundles(instance, bundles)
            decompositions = all_decompositions(instance, allocation)
            for dec in decompositions:
                assert dec.union().bundles == allocation.bundles
                for i in instance.agents:
                    assert len(dec.clean[i]) == instance.valuation(i).rank(
                        allocation.bundle(i)
                    )
                    assert instance.valuation(i).is_clean(dec.clean[i])
                check_decomposition(instance, allocation, dec)
            assert decompose(instance, allocation) in decompositions

    def test_domination_is_decomposition_invariant(self):
        # All valid decompositions share clean-part sizes, so the verdict
        # cannot depend on which one was picked; spot-check that anyway.
        rng = random.Random(83)
        for trial in range(15):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, 4, 2, rng)
            allocs = []
            for _ in range(2):
                bundles = [set() for _ in range(3)]
                for g in range(4):
                    bundles[rng.randint(0, 2)].add(g)
                allocs.append(Allocation.from_bundles(instance, bundles))

            def pairs(allocation, dec):
                utilities = utility_vector(instance, allocation)
                return [(len(dec.clean[i]), utilities[i - 1]) for i in instance.agents]

            verdicts = {
                compare_domination(pairs(allocs[0], da), pairs(allocs[1], db))
                for da in all_decompositions(instance, allocs[0])
                for db in all_decompositions(instance, allocs[1])
            }
            assert len(verdicts) == 1


class TestCertifierAgainstReference:
    """The certifier's verdicts equal a walk over every assignment and every
    decomposition, written from the definitions."""

    def test_verdicts_match_the_definition(self):
        rng = random.Random("certify-reference")
        verdicts: dict[str | None, int] = {None: 0, "beaten": 0, "dominated": 0}
        for trial in range(130):
            family = FAMILIES[trial % len(FAMILIES)]
            n, m = rng.randint(1, 3), rng.randint(1, 5)
            instance = random_instance(family, n, m, rng.choice([2, 3]), rng)
            for criterion in (MaxNashWelfare(), Leximin(instance.c),
                              PMeanWelfare(-1.0), PMeanWelfare(0.5)):
                bundles = [set() for _ in range(n + 1)]
                for g in range(m):
                    bundles[rng.randint(1, n)].add(g)
                allocation = Allocation.from_bundles(instance, bundles)
                random_output = SolveResult(
                    allocation, decompose(instance, allocation), SolveTrace(),
                    utility_vector(instance, allocation),
                )
                for result in (solve(instance, criterion), random_output):
                    expected = certify_reference(instance, result, criterion)
                    verdict = certify_dominating(instance, result, criterion)
                    assert verdict.ok == (expected is None), (
                        family, trial, criterion.name, expected, verdict.reason
                    )
                    verdicts[expected] += 1
        assert sum(verdicts.values()) >= 1000
        assert all(verdicts.values()), verdicts


class TestCorruptedGainIsCaught:
    def test_backwards_gain_misses_the_optimum(self):
        # Mutation check: a criterion whose gain prefers richer agents must
        # disagree with the brute-force optimum somewhere.
        class BackwardsLeximin(Leximin):
            def gain(self, u, d):
                return (0, (self.c + 1) * u + d)

        rng = random.Random(97)
        mismatched = 0
        for trial in range(40):
            instance = random_instance("marked", 2, 5, 2, rng)
            criterion = BackwardsLeximin(2)
            result = solve(instance, criterion)
            optimum = brute_force_optimum(instance, Leximin(2))
            if not optimum.matches(result.sorted_utilities):
                mismatched += 1
        assert mismatched > 0
