from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifair.allocation import (
    DOMINATED,
    DOMINATES,
    INCOMPARABLE_EQUAL,
    Allocation,
    Decomposition,
    check_decomposition,
    compare_domination,
    compare_lex,
    decompose,
    sorted_utility_vector,
    utility_vector,
)
from bifair.errors import PreconditionError, ValidationError
from bifair.io import random_instance
from bifair.solver import Leximin, MaxNashWelfare, solve
from bifair.valuation import BivaluedValuation, Instance, MarkedMatroid, UniformMatroid
from conftest import two_agent_instance
from helpers import brute_max_clean_subset, random_allocation

FAMILIES = ("marked", "uniform", "partition", "transversal")


def _mixed_value_instance(c: int = 3) -> Instance:
    """Agent 1 values everything at c; agent 2 values only the first pick at c."""
    goods = ("g1", "g2", "g3", "g4")
    additive = BivaluedValuation(c, MarkedMatroid(4, frozenset(range(4))))
    capped = BivaluedValuation(c, UniformMatroid(4, 1))
    return Instance(goods, c, (additive, capped))


class TestDecompose:
    def test_capped_agent_keeps_one_clean_good(self):
        instance = _mixed_value_instance()
        allocation = Allocation.from_bundles(
            instance, [set(), {0, 1}, {2, 3}]
        )
        dec = decompose(instance, allocation)
        assert dec.clean[1] == {0, 1}
        assert dec.clean[2] == {2}
        assert dec.supplementary[2] == {3}
        assert dec.clean[0] == {3}
        assert dec.union().bundles == allocation.bundles

    def test_empty_allocation(self):
        instance = _mixed_value_instance()
        dec = decompose(instance, Allocation.from_bundles(instance, [range(4), (), ()]))
        assert all(not dec.clean[i] for i in instance.agents)
        assert all(not s for s in dec.supplementary)
        assert dec.clean[0] == frozenset(range(4))

    def test_clean_sizes_match_subset_enumeration(self):
        rng = random.Random(3)
        for trial in range(60):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, 6, 3, rng)
            allocation = Allocation(random_allocation(instance, rng))
            dec = decompose(instance, allocation)
            check_decomposition(instance, allocation, dec)
            for i in instance.agents:
                expected = brute_max_clean_subset(
                    instance.valuation(i), allocation.bundle(i)
                )
                assert len(dec.clean[i]) == expected

    def test_union_reconstructs_exactly(self):
        rng = random.Random(4)
        for trial in range(40):
            instance = random_instance("partition", 3, 5, 2, rng)
            allocation = Allocation(random_allocation(instance, rng))
            assert decompose(instance, allocation).union().bundles == allocation.bundles


class TestUtilityVectors:
    def test_worked_example_outputs(self, worked_example):
        leximin = solve(worked_example, Leximin(5)).allocation
        assert sorted_utility_vector(worked_example, leximin) == (5, 5)
        mnw = solve(worked_example, MaxNashWelfare()).allocation
        assert utility_vector(worked_example, mnw) == (3, 15)

    def test_empty_allocation_is_all_zeros(self, worked_example):
        pool = Allocation.from_bundles(worked_example, [range(6), (), ()])
        assert utility_vector(worked_example, pool) == (0, 0)


class TestCompareLex:
    def test_second_coordinate(self):
        assert compare_lex((1, 2), (1, 1)) == 1

    def test_first_coordinate_wins(self):
        assert compare_lex((2, 0), (1, 9)) == 1

    def test_equal(self):
        assert compare_lex((3, 3), (3, 3)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            compare_lex((1,), (1, 2))

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_tuple_order(self, x, data):
        y = data.draw(st.lists(st.integers(0, 9), min_size=len(x), max_size=len(x)))
        expected = (tuple(x) > tuple(y)) - (tuple(x) < tuple(y))
        assert compare_lex(x, y) == expected


class TestDomination:
    @staticmethod
    def _decomposed(instance, bundles):
        """Each agent's (clean size, utility) pair under the greedy decomposition."""
        allocation = Allocation.from_bundles(instance, bundles)
        clean = decompose(instance, allocation).clean
        utilities = utility_vector(instance, allocation)
        return [(len(clean[i]), u) for i, u in zip(instance.agents, utilities)]

    def test_sorted_clean_vector_decides(self):
        instance = two_agent_instance(2, m=3)
        # Sorted clean utilities (0, 2c) vs (0, c): more clean value wins.
        x = self._decomposed(instance, [set(), {0}, {1, 2}])
        y = self._decomposed(instance, [{2}, {0}, {1}])
        assert compare_domination(x, y) == DOMINATES
        assert compare_domination(y, x) == DOMINATED

    def test_identical_decompositions_tie(self):
        instance = two_agent_instance(2, m=3)
        x = self._decomposed(instance, [set(), {0}, {1, 2}])
        assert compare_domination(x, x) == INCOMPARABLE_EQUAL

    def test_agentwise_clean_vector_breaks_sorted_ties(self):
        goods = ("g1", "g2", "g3")
        both = BivaluedValuation(2, MarkedMatroid(3, frozenset(range(3))))
        instance = Instance(goods, 2, (both, both))
        # Clean utilities (2c, c) vs (c, 2c): same sorted vector, first wins.
        x = self._decomposed(instance, [set(), {0, 1}, {2}])
        y = self._decomposed(instance, [set(), {0}, {1, 2}])
        assert compare_domination(x, y) == DOMINATES

    def test_full_utilities_break_clean_ties(self):
        instance = two_agent_instance(2, m=3)
        # Agent 1 never sees high value, so clean vectors tie at (0, 2c);
        # the leftover low-value good then decides.
        x = self._decomposed(instance, [{2}, set(), {0, 1}])
        y = self._decomposed(instance, [set(), {2}, {0, 1}])
        assert compare_domination(y, x) == DOMINATES
        assert compare_domination(x, y) == DOMINATED


class TestRefusals:
    def test_from_bundles_needs_one_bundle_per_index(self):
        instance = _mixed_value_instance()
        with pytest.raises(ValidationError, match="^expected 3 bundles, got 2$"):
            Allocation.from_bundles(instance, [range(4), ()])

    # Agent 1 values every good highly, agent 2 only good 2; the bundles are
    # {0, 1} and {2, 3}, whose valid decomposition is clean {0, 1} and {2}
    # with good 3 supplementary. Each case breaks it at one agent.
    @pytest.mark.parametrize("agent, clean, supplementary, message", [
        pytest.param(1, {0, 2}, set(), "decomposition parts of agent 1 leave the bundle",
                     id="leaves-bundle"),
        pytest.param(1, {0, 1}, {1}, "clean and supplementary parts of agent 1 overlap",
                     id="overlap"),
        pytest.param(1, {0}, set(), "decomposition of agent 1 misses goods",
                     id="misses-goods"),
        pytest.param(1, {0}, {1}, "clean part of agent 1 has size 1, expected rank 2",
                     id="below-rank"),
        pytest.param(2, {3}, {2}, "clean part of agent 2 is not clean", id="not-clean"),
    ])
    def test_check_decomposition(self, agent, clean, supplementary, message):
        goods = ("g1", "g2", "g3", "g4")
        instance = Instance(goods, 3, (
            BivaluedValuation(3, MarkedMatroid(4, frozenset(range(4)))),
            BivaluedValuation(3, MarkedMatroid(4, frozenset({2}))),
        ))
        allocation = Allocation.from_bundles(instance, [(), {0, 1}, {2, 3}])
        parts = [[frozenset(), frozenset({0, 1}), frozenset({2})],
                 [frozenset(), frozenset(), frozenset({3})]]
        check_decomposition(instance, allocation, Decomposition(*map(tuple, parts)))
        parts[0][agent], parts[1][agent] = frozenset(clean), frozenset(supplementary)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            check_decomposition(instance, allocation, Decomposition(*map(tuple, parts)))
