from __future__ import annotations

import random
import re

import pytest

from bifair.errors import InternalInvariantError, PreconditionError
from bifair.exchange import ExchangeGraph, augment, f_set, shortest_path
from bifair.io import random_instance
from bifair.valuation import (
    BivaluedValuation,
    Instance,
    MarkedMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from helpers import all_shortest_paths, brute_rank, random_clean_allocation

FAMILIES = ("marked", "uniform", "partition", "transversal")


def _instance(*matroids, c=2):
    m = matroids[0].m
    goods = tuple(f"g{i}" for i in range(m))
    return Instance(goods, c, tuple(BivaluedValuation(c, mat) for mat in matroids))


class TestFSet:
    def test_empty_allocation_uniform(self):
        instance = _instance(UniformMatroid(4, 2))
        clean = (frozenset(range(4)), frozenset())
        assert f_set(instance, clean, 1) == frozenset(range(4))

    def test_saturated_agent(self):
        instance = _instance(UniformMatroid(4, 1))
        clean = (frozenset({1, 2, 3}), frozenset({0}))
        assert f_set(instance, clean, 1) == frozenset()

    def test_partition_unfilled_parts(self):
        matroid = PartitionMatroid(5, (0, 0, 1, 1, -1), (1, 2))
        instance = _instance(matroid)
        clean = (frozenset({1, 3, 4}), frozenset({0, 2}))
        expected = frozenset(
            g for g in range(5)
            if g not in clean[1]
            and matroid.rank(clean[1] | {g}) > matroid.rank(clean[1])
        )
        # Part one is full (good 0 held); part two has room; good 4 is in no part.
        assert expected == {3}
        assert f_set(instance, clean, 1) == expected


class TestBuild:
    def test_all_unallocated_is_complete_on_pool(self):
        instance = _instance(UniformMatroid(3, 1))
        graph = ExchangeGraph(instance, (frozenset(range(3)), frozenset()))
        assert set(graph.edges()) == {
            (g, h) for g in range(3) for h in range(3) if g != h
        }

    def test_single_uniform_agent_edges(self):
        instance = _instance(UniformMatroid(4, 1))
        clean = (frozenset({0, 2, 3}), frozenset({1}))
        graph = ExchangeGraph(instance, clean)
        assert graph.out_neighbors(1) == [0, 2, 3]

    def test_additive_agent_edges(self):
        # After the all-marked agent takes one good, that good can swap for any.
        instance = _instance(
            MarkedMatroid(6, frozenset()),
            MarkedMatroid(6, frozenset(range(6))),
            c=5,
        )
        clean = (frozenset(range(1, 6)), frozenset(), frozenset({0}))
        graph = ExchangeGraph(instance, clean)
        assert graph.out_neighbors(0) == [1, 2, 3, 4, 5]

    def test_rejects_unclean_allocation(self):
        instance = _instance(UniformMatroid(3, 1))
        with pytest.raises(PreconditionError):
            ExchangeGraph(instance, (frozenset({2}), frozenset({0, 1})))

    def test_rejects_wrong_bundle_count(self):
        instance = _instance(UniformMatroid(2, 1), UniformMatroid(2, 1))
        with pytest.raises(PreconditionError, match="^expected 3 clean bundles$"):
            ExchangeGraph(instance, (frozenset({0, 1}), frozenset()))

    def test_rejects_overlapping_bundles(self):
        instance = _instance(UniformMatroid(3, 2), UniformMatroid(3, 2))
        with pytest.raises(PreconditionError, match="^clean bundles overlap$"):
            ExchangeGraph(instance, (frozenset({1, 2}), frozenset({0}), frozenset({0})))

    @pytest.mark.parametrize("clean", [
        (set(), {0}, {1}),
        ({2, 3}, {0}, {1}),
    ], ids=["good-in-no-bundle", "good-outside-the-ground-set"])
    def test_rejects_bundles_that_miss_the_goods(self, clean):
        marked = MarkedMatroid(3, frozenset({0, 1}))
        instance = _instance(marked, marked)
        with pytest.raises(PreconditionError,
                           match="^clean bundles must hold every good and no other$"):
            ExchangeGraph(instance, clean)

    def test_dot_dump(self):
        instance = _instance(UniformMatroid(2, 1))
        graph = ExchangeGraph(instance, (frozenset({1}), frozenset({0})))
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert "g0 -> g1" in dot

    def test_dot_labels_read_back_as_the_good_names(self):
        goods = ('x"y', "a\\b")
        instance = Instance(goods, 2, (BivaluedValuation(2, UniformMatroid(2, 1)),))
        graph = ExchangeGraph(instance, (frozenset({1}), frozenset({0})))
        labels = re.findall(r'  g(\d+) \[label="((?:[^"\\]|\\.)*)"\];\n', graph.to_dot())
        assert len(labels) == 2, graph.to_dot()
        for g, label in labels:
            escaped, owner = label.rsplit("\\nowner ", 1)
            assert re.sub(r"\\(.)", r"\1", escaped) == goods[int(g)]
            assert int(owner) == graph.owner[int(g)]


class TestClosedFormCandidates:
    """Edges and sources from ``extensions`` match the rank definitions."""

    @pytest.mark.parametrize("family", ["partition", "uniform"])
    def test_against_subset_enumeration(self, family):
        rng = random.Random(f"closed-form:{family}")
        edges = sources = 0
        for _ in range(60):
            instance = random_instance(family, rng.randint(1, 3), 6, 2, rng)
            clean = random_clean_allocation(instance, rng)
            graph = ExchangeGraph(instance, clean)
            for i in instance.agents:
                matroid = instance.valuation(i).matroid
                bundle = clean[i]
                expected = frozenset(
                    h for h in range(6)
                    if brute_rank(matroid, bundle | {h}) > brute_rank(matroid, bundle)
                )
                assert f_set(instance, clean, i) == expected
                sources += len(expected)
                for g in sorted(bundle):
                    remainder = bundle - {g}
                    expected_edges = [
                        h for h in range(6)
                        if h not in bundle
                        and brute_rank(matroid, remainder | {h}) == len(bundle)
                    ]
                    assert graph.out_neighbors(g) == expected_edges
                    edges += len(expected_edges)
        assert edges > 50 and sources > 50


class TestShortestPath:
    def test_source_already_a_target(self):
        instance = _instance(UniformMatroid(3, 2))
        clean = (frozenset({0, 1, 2}), frozenset())
        graph = ExchangeGraph(instance, clean)
        path = shortest_path(graph, f_set(instance, clean, 1))
        assert path == (0,)

    def test_unreachable_returns_none(self):
        instance = _instance(MarkedMatroid(3, frozenset({0})))
        clean = (frozenset({1, 2}), frozenset({0}))
        graph = ExchangeGraph(instance, clean)
        assert shortest_path(graph, f_set(instance, clean, 1)) is None

    def test_two_agent_steal_needs_two_hops(self):
        # Agent 1 only values good 0, held by agent 2, who can swap it for
        # the free good 1 within its own part.
        agent1 = PartitionMatroid(2, (0, -1), (1,))
        agent2 = PartitionMatroid(2, (0, 0), (1,))
        instance = _instance(agent1, agent2)
        clean = (frozenset({1}), frozenset(), frozenset({0}))
        graph = ExchangeGraph(instance, clean)
        path = shortest_path(graph, f_set(instance, clean, 1))
        assert path == (0, 1)

    def test_matches_exhaustive_search(self):
        rng = random.Random(17)
        compared = 0
        for trial in range(120):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, rng.randint(1, 3), 6, 2, rng)
            clean = random_clean_allocation(instance, rng)
            graph = ExchangeGraph(instance, clean)
            i = rng.choice(list(instance.agents))
            sources = f_set(instance, clean, i)
            path = shortest_path(graph, sources)
            brute = all_shortest_paths(
                set(graph.edges()), range(instance.m), sources, clean[0]
            )
            if path is None:
                assert not brute
            else:
                compared += 1
                assert path == min(brute)
        assert compared > 30

    def test_dead_goods_keep_the_canonical_path(self):
        # Search from every agent on one graph, so failed searches fill the
        # dead set before later ones; then transfer, which clears it.
        rng = random.Random(31)
        compared = failed = 0
        for trial in range(160):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, rng.randint(2, 4), 7, 2, rng)
            clean = random_clean_allocation(instance, rng)
            graph = ExchangeGraph(instance, clean)
            for _ in range(2):
                found = None
                for i in instance.agents:
                    sources = f_set(instance, graph.clean, i)
                    path = shortest_path(graph, sources)
                    brute = all_shortest_paths(
                        set(graph.edges()), range(instance.m), sources, graph.clean[0]
                    )
                    if path is None:
                        assert not brute
                        failed += 1
                    else:
                        assert path == min(brute)
                        compared += 1
                        found = found or (path, i)
                if found is None:
                    break
                path, i = found
                augment(graph, path, i)
                assert not graph.dead
        assert compared > 200 and failed > 100


class TestAugment:
    def test_single_hop_from_pool(self):
        instance = _instance(UniformMatroid(3, 2))
        graph = ExchangeGraph(instance, (frozenset({0, 1, 2}), frozenset()))
        augment(graph, (0,), 1)
        assert graph.clean == [{1, 2}, {0}]

    def test_two_hop_transfer_keeps_middle_owner_whole(self):
        agent1 = PartitionMatroid(2, (0, -1), (1,))
        agent2 = PartitionMatroid(2, (0, 0), (1,))
        instance = _instance(agent1, agent2)
        graph = ExchangeGraph(instance, (frozenset({1}), frozenset(), frozenset({0})))
        augment(graph, (0, 1), 1)
        assert graph.clean == [set(), {0}, {1}]
        assert instance.valuation(2).rank(graph.clean[2]) == 1

    def test_agent_total_grows_by_one(self):
        rng = random.Random(23)
        grown = 0
        for trial in range(200):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, rng.randint(1, 3), 7, 3, rng)
            clean = random_clean_allocation(instance, rng)
            if not clean[0]:
                continue
            i = rng.choice(list(instance.agents))
            graph = ExchangeGraph(instance, clean)
            path = shortest_path(graph, f_set(instance, clean, i))
            if path is None:
                continue
            augment(graph, path, i)
            result = graph.clean
            before = sum(len(clean[j]) for j in instance.agents)
            after = sum(len(result[j]) for j in instance.agents)
            assert after == before + 1
            assert len(result[i]) == len(clean[i]) + 1
            for j in instance.agents:
                if j != i:
                    assert len(result[j]) == len(clean[j])
            grown += 1
        assert grown > 80

    def test_transfer_moves_goods_in_place(self):
        # Only the path's goods move: the pool and every bundle the path
        # does not touch stay the same objects, and the owner map follows.
        rng = random.Random(37)
        moved = 0
        for trial in range(200):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, rng.randint(2, 4), 8, 2, rng)
            clean = random_clean_allocation(instance, rng)
            graph = ExchangeGraph(instance, clean)
            i = rng.choice(list(instance.agents))
            path = shortest_path(graph, f_set(instance, clean, i))
            if path is None:
                continue
            before = list(graph.clean)
            touched = {i} | {graph.owner[g] for g in path}
            augment(graph, path, i)
            assert all(after is bundle for after, bundle in zip(graph.clean, before))
            for idx in range(instance.n + 1):
                if idx not in touched:
                    assert graph.clean[idx] == clean[idx]
            assert graph.owner == {
                g: idx for idx, bundle in enumerate(graph.clean) for g in bundle
            }
            assert sorted(graph.owner) == list(range(instance.m))
            moved += 1
        assert moved > 80

    def test_empty_path_refused(self):
        instance = _instance(UniformMatroid(2, 1))
        graph = ExchangeGraph(instance, (frozenset({0, 1}), frozenset()))
        with pytest.raises(PreconditionError, match="^empty transfer path$"):
            augment(graph, (), 1)

    def test_invalid_path_raises(self):
        instance = _instance(MarkedMatroid(2, frozenset({0})))
        graph = ExchangeGraph(instance, (frozenset({1}), frozenset({0})))
        # Good 1 is worthless to agent 1, so handing it over breaks cleanness.
        with pytest.raises(InternalInvariantError):
            augment(graph, (1,), 1)


class TestReachabilityCompleteness:
    def test_path_exists_toward_larger_allocation(self):
        # Whenever another clean allocation gives agent i more goods, some
        # over-served bundle is reachable from i's frontier.
        rng = random.Random(29)
        verified = 0
        for trial in range(150):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, rng.randint(1, 3), 8, 2, rng)
            x = random_clean_allocation(instance, rng)
            y = random_clean_allocation(instance, rng)
            graph = ExchangeGraph(instance, x)
            for i in instance.agents:
                if len(x[i]) >= len(y[i]):
                    continue
                over = frozenset().union(
                    *(
                        x[k]
                        for k in range(instance.n + 1)
                        if len(x[k]) > len(y[k])
                    )
                )
                reachable = _reachable(graph, f_set(instance, x, i))
                assert reachable & over, (
                    f"no path from agent {i} toward an over-served bundle"
                )
                verified += 1
        assert verified > 40


def _reachable(graph, sources) -> set[int]:
    seen = set(sources)
    stack = list(sources)
    while stack:
        g = stack.pop()
        for h in graph.out_neighbors(g):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen
