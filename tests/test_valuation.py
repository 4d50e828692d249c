from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifair.errors import MalformedMatroidError, SizeLimitError, ValidationError
from bifair.exchange import ExchangeGraph, augment
from bifair.io import _parse_matroid, emit_matroid, random_instance
from bifair.valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    bundle_value_table,
    validate_explicit,
)
from helpers import brute_rank, brute_value

FAMILIES = ("marked", "uniform", "partition", "transversal")


def _random_matroids(seed: int, count: int, m: int):
    rng = random.Random(seed)
    for k in range(count):
        family = FAMILIES[k % len(FAMILIES)]
        yield random_instance(family, 1, m, 2, rng).valuation(1).matroid


class TestRank:
    def test_uniform_cap_one(self):
        matroid = UniformMatroid(6, 1)
        assert matroid.rank({2, 3}) == 1

    @pytest.mark.parametrize(
        "matroid",
        [
            UniformMatroid(4, 2),
            MarkedMatroid(4, frozenset({1, 3})),
            PartitionMatroid(4, (0, 0, -1, -1), (1,)),
            TransversalMatroid(4, 2, (frozenset({0}),) * 4),
        ],
    )
    def test_empty_set_ranks_zero(self, matroid):
        assert matroid.rank(frozenset()) == 0

    def test_partition_rank_matches_subset_enumeration(self):
        matroid = PartitionMatroid(3, (0, 0, 1), (1, 1))
        subset = frozenset({0, 1, 2})
        assert brute_rank(matroid, subset) == 2
        assert matroid.rank(subset) == 2

    def test_partition_rank_matches_per_part_formula(self):
        # Parts leave some goods uncovered, and the subsets also hold goods
        # outside the ground set: neither kind adds rank.
        rng = random.Random("partition-rank")
        for _ in range(200):
            m = rng.randint(0, 12)
            labels = tuple(rng.randrange(-1, 4) for _ in range(m))
            caps = tuple(rng.randint(0, 3) for _ in range(4))
            matroid = PartitionMatroid(m, labels, caps)
            subset = frozenset(g for g in range(-2, m + 3) if rng.random() < 0.5)
            inside = [labels[g] for g in subset if 0 <= g < m]
            expected = sum(min(inside.count(idx), cap) for idx, cap in enumerate(caps))
            assert matroid.rank(subset) == expected, (labels, caps, subset)
        assert PartitionMatroid(3, (0, 0, -1), (1,)).rank({2, 5, -1}) == 0
        # Good -1 is not the last good, which a part covers.
        assert PartitionMatroid(3, (-1, -1, 0), (1,)).rank({-1, -3}) == 0

    def test_transversal_rank_is_max_matching(self):
        # Goods 0 and 1 compete for slot 0; good 2 can take either slot.
        matroid = TransversalMatroid(
            3, 2, (frozenset({0}), frozenset({0}), frozenset({0, 1}))
        )
        assert matroid.rank({0, 1}) == 1
        assert matroid.rank({0, 1, 2}) == 2
        assert brute_rank(matroid, frozenset({0, 1, 2})) == 2

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: PartitionMatroid(2, (0, 1), (1,)),
                     "partition matroid needs a label in -1..0 per good", id="partition"),
        pytest.param(lambda: PartitionMatroid(2, (0, -2), (1,)),
                     "partition matroid needs a label in -1..0 per good", id="partition-below"),
        pytest.param(lambda: PartitionMatroid(2, (0,), (1,)),
                     "partition matroid needs a label in -1..0 per good", id="partition-labels"),
        pytest.param(lambda: MarkedMatroid(2, frozenset({-1})),
                     "marked good outside ground set", id="marked"),
        pytest.param(lambda: MarkedMatroid(2, frozenset({0, 2})),
                     "marked good outside ground set", id="marked-past-m"),
        pytest.param(lambda: TransversalMatroid(2, 1, (frozenset({0}),)),
                     "transversal adjacency must cover every good", id="transversal"),
        # A bool is not an integer; a float cap or label once reached the solver.
        pytest.param(lambda: UniformMatroid(3, 1.5),
                     "uniform matroid cap must be an integer, got 1.5", id="uniform-cap"),
        pytest.param(lambda: UniformMatroid(3, True),
                     "uniform matroid cap must be an integer, got True", id="uniform-cap-bool"),
        pytest.param(lambda: PartitionMatroid(3, (0, 0, 0), (1.5,)),
                     r"partition matroid caps must be integers, got \(1.5,\)", id="partition-cap"),
        pytest.param(lambda: PartitionMatroid(2, (0, 0), (True,)),
                     r"partition matroid caps must be integers, got \(True,\)",
                     id="partition-cap-bool"),
        pytest.param(lambda: PartitionMatroid(2, (0.5, 0), (1,)),
                     "partition matroid needs a label in -1..0 per good", id="partition-label"),
        pytest.param(lambda: PartitionMatroid(2, (False, 1), (1, 1)),
                     "partition matroid needs a label in -1..1 per good",
                     id="partition-label-bool"),
        pytest.param(lambda: TransversalMatroid(1, 1.0, (frozenset({0}),)),
                     "slot count must be an integer, got 1.0", id="transversal-slots"),
        pytest.param(lambda: TransversalMatroid(1, True, (frozenset(),)),
                     "slot count must be an integer, got True", id="transversal-slots-bool"),
        pytest.param(lambda: TransversalMatroid(1, 2, (frozenset({0.5}),)),
                     "good 0 adjacent to unknown slot", id="transversal-slot-id"),
        pytest.param(lambda: TransversalMatroid(1, 2, (frozenset({True}),)),
                     "good 0 adjacent to unknown slot", id="transversal-slot-id-bool"),
    ])
    def test_constructor_refusals(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    def test_explicit_missing_entry(self):
        # Only the empty set is ranked; the table is refused before any rank query.
        with pytest.raises(MalformedMatroidError, match="has 1 of 4 subsets"):
            ExplicitMatroid(2, (0,))

    @pytest.mark.parametrize("method, good", [("rank", 5), ("rank", -1), ("extensions", 2)])
    def test_explicit_good_out_of_range(self, method, good):
        matroid = ExplicitMatroid(2, (0, 1, 1, 1))
        with pytest.raises(MalformedMatroidError,
                           match=f"^explicit table over 2 goods has no good {good}$"):
            getattr(matroid, method)({good})

    def test_explicit_in_range_answers(self):
        matroid = ExplicitMatroid(2, (0, 1, 1, 1))
        assert [matroid.rank(s) for s in (set(), {0}, {1}, {0, 1})] == [0, 1, 1, 1]
        assert matroid.extensions(set()) == [0, 1]
        assert matroid.extensions({0}) == []
        assert matroid.can_extend(set(), 1) and not matroid.can_extend({1}, 0)

    def test_random_ranks_match_enumeration(self):
        rng = random.Random(5)
        for matroid in _random_matroids(6, 40, 5):
            subset = frozenset(g for g in range(5) if rng.random() < 0.6)
            assert matroid.rank(subset) == brute_rank(matroid, subset)


class TestValue:
    def test_capped_bundle(self):
        val = BivaluedValuation(3, UniformMatroid(6, 1))
        assert val.value({2, 3}) == 4  # c for the first good, 1 for the next

    def test_empty_bundle(self):
        val = BivaluedValuation(3, UniformMatroid(6, 1))
        assert val.value(frozenset()) == 0

    def test_everything_marked(self):
        val = BivaluedValuation(5, MarkedMatroid(6, frozenset(range(6))))
        assert val.value({0, 1, 2}) == 15

    def test_random_values_match_enumeration(self):
        rng = random.Random(9)
        for matroid in _random_matroids(10, 40, 5):
            val = BivaluedValuation(3, matroid)
            subset = frozenset(g for g in range(5) if rng.random() < 0.6)
            assert val.value(subset) == brute_value(val, subset)


class TestMarginal:
    def test_all_marked_from_empty(self):
        val = BivaluedValuation(5, MarkedMatroid(6, frozenset(range(6))))
        for g in range(6):
            assert val.marginal(frozenset(), g) == 5

    def test_capped_second_good(self):
        val = BivaluedValuation(3, UniformMatroid(6, 1))
        assert val.marginal({2}, 3) == 1

    def test_good_already_held(self):
        val = BivaluedValuation(3, UniformMatroid(6, 1))
        with pytest.raises(ValidationError):
            val.marginal({2}, 2)

    def test_marginal_is_value_difference(self):
        rng = random.Random(11)
        for matroid in _random_matroids(12, 60, 5):
            val = BivaluedValuation(2, matroid)
            subset = frozenset(g for g in range(5) if rng.random() < 0.5)
            outside = [x for x in range(5) if x not in subset]
            if not outside:
                continue
            g = rng.choice(outside)
            gain = val.marginal(subset, g)
            assert gain in (1, val.c)
            assert gain == val.value(subset | {g}) - val.value(subset)


class TestMatroidAxioms:
    """rank(empty)=0, unit marginals, submodularity; exhaustive at m=4."""

    def test_exhaustive_small(self):
        for matroid in _random_matroids(21, 24, 4):
            subsets = [frozenset(s for s in range(4) if mask >> s & 1)
                       for mask in range(16)]
            assert matroid.rank(frozenset()) == 0
            for s in subsets:
                rank_s = matroid.rank(s)
                for g in range(4):
                    if g in s:
                        continue
                    assert matroid.rank(s | {g}) - rank_s in (0, 1)
            for s in subsets:
                for t in subsets:
                    if not s <= t:
                        continue
                    for g in range(4):
                        if g in t:
                            continue
                        up_s = matroid.rank(s | {g}) - matroid.rank(s)
                        up_t = matroid.rank(t | {g}) - matroid.rank(t)
                        assert up_s >= up_t

    def test_can_extend_agrees_with_rank(self):
        rng = random.Random(31)
        for matroid in _random_matroids(32, 60, 6):
            subset = frozenset(g for g in range(6) if rng.random() < 0.5)
            for g in range(6):
                expected = g not in subset and \
                    matroid.rank(subset | {g}) > matroid.rank(subset)
                assert matroid.can_extend(subset, g) == expected


def _explicit_twin(matroid, m: int) -> ExplicitMatroid:
    """The same matroid as a complete rank table."""
    subsets = (frozenset(g for g in range(m) if mask >> g & 1) for mask in range(1 << m))
    return ExplicitMatroid(m, tuple(matroid.rank(s) for s in subsets))


class TestExtensions:
    """``extensions`` is the ascending list of goods ``can_extend`` accepts."""

    def test_matches_can_extend_in_every_family(self):
        rng = random.Random(53)
        checked = {family: 0 for family in FAMILIES + ("explicit",)}
        for k in range(200):
            family = FAMILIES[k % len(FAMILIES)]
            m = rng.randint(1, 8)
            matroid = random_instance(family, 1, m, 2, rng).valuation(1).matroid
            matroids = [(family, matroid)]
            if m <= 6:
                matroids.append(("explicit", _explicit_twin(matroid, m)))
            bundle = frozenset(g for g in range(m) if rng.random() < 0.5)
            for name, candidate in matroids:
                for goods in [bundle] + [bundle - {g} for g in sorted(bundle)]:
                    expected = [h for h in range(m) if candidate.can_extend(goods, h)]
                    assert candidate.extensions(goods) == expected, (name, goods)
                    checked[name] += 1
        assert min(checked.values()) > 100

    @pytest.mark.parametrize("first_slot", [0, 10**7 - 16], ids=["dense", "near-1e7"])
    def test_transversal_matches_rank_table_up_to_fourteen_goods(self, first_slot):
        rng = random.Random(59)
        for _ in range(20):
            m = rng.randint(9, 14)
            ids = range(first_slot, first_slot + rng.randint(0, m + 1))
            matroid = TransversalMatroid(m, first_slot + 16, tuple(
                frozenset(s for s in ids if rng.random() < 0.4) for _ in range(m)
            ))
            table = matroid.rank_table()
            for _ in range(20):
                goods = {g for g in range(m) if rng.random() < rng.random()}
                mask = sum(1 << g for g in goods)
                expected = [h for h in range(m)
                            if h not in goods and table[mask | 1 << h] > table[mask]]
                assert matroid.extensions(goods) == expected, (matroid, goods)

    def test_transversal_chain_without_recursion(self):
        # Good g may take slot g - 1 or g, as in the rank test below. With one
        # slot fewer than goods, good 0 extends the middle goods only by
        # shifting every one of them a slot along.
        m = 5000
        chain = TransversalMatroid(m, m, tuple(
            frozenset({max(g - 1, 0), g}) for g in range(m)
        ))
        assert chain.extensions(set(range(m))) == []
        assert chain.extensions(set(range(1, m))) == [0]
        assert chain.extensions(set(range(0, m, 2))) == list(range(1, m, 2))
        short = TransversalMatroid(m, m - 1, tuple(
            frozenset({max(g - 1, 0), min(g, m - 2)}) for g in range(m)
        ))
        assert short.extensions(set(range(1, m - 1))) == [0, m - 1]
        assert short.extensions(set(range(1, m))) == []

    def test_closed_forms(self):
        assert UniformMatroid(5, 2).extensions(frozenset({3})) == [0, 1, 2, 4]
        assert UniformMatroid(5, 2).extensions(frozenset({1, 3})) == []
        assert MarkedMatroid(5, frozenset({4, 0, 2})).extensions(frozenset({2})) == [0, 4]
        partition = PartitionMatroid(6, (1, 0, -1, 2, 0, 1), (1, 2, 0))
        # Part one is full, part two has room, part three has none; good 2
        # lies in no part.
        assert partition.extensions(frozenset({1, 5})) == [0]
        assert partition.extensions(frozenset()) == [0, 1, 4, 5]


class TestExchanges:
    """``exchanges`` answers on the bundle it is given, as its definitions do."""

    def test_random_bundles_agree_with_the_rank_definition(self):
        rng = random.Random(61)
        checked = {family: 0 for family in FAMILIES + ("explicit",)}
        clean_bundles = dict.fromkeys(checked, 0)
        unclean_bundles = dict.fromkeys(checked, 0)
        for k in range(400):
            family = FAMILIES[k % len(FAMILIES)]
            m = rng.randint(1, 7)
            matroid = random_instance(family, 1, m, 2, rng).valuation(1).matroid
            order = rng.sample(range(m), m)
            if k % 8 < 4:
                # Grow a clean bundle: keep each good that raises the rank.
                bundle = frozenset()
                for g in order[:rng.randint(0, m)]:
                    if brute_rank(matroid, bundle | {g}) > len(bundle):
                        bundle |= {g}
            else:
                bundle = frozenset(order[:rng.randint(0, m)])
            clean = brute_rank(matroid, bundle) == len(bundle)
            for name, candidate in ((family, matroid), ("explicit", _explicit_twin(matroid, m))):
                for own in sorted(bundle):
                    answer = candidate.exchanges(bundle, own)
                    expected = [h for h in candidate.extensions(bundle - {own}) if h != own]
                    assert answer == expected, (name, bundle, own)
                    if clean:
                        by_rank = [h for h in range(m) if h != own and brute_rank(
                            matroid, bundle - {own} | {h}) == len(bundle)]
                        assert answer == by_rank, (name, bundle, own)
                    checked[name] += 1
                clean_bundles[name] += clean and bool(bundle)
                unclean_bundles[name] += not clean
        assert min(checked.values()) > 80, checked
        assert min(clean_bundles.values()) > 15, clean_bundles
        assert min(unclean_bundles.values()) > 10, unclean_bundles

    def test_the_exchange_graph_copies_its_bundles(self):
        for matroid in (MarkedMatroid(3, frozenset({0, 1})), UniformMatroid(3, 2)):
            instance = Instance(("x", "y", "z"), 2, (BivaluedValuation(2, matroid),))
            bundles = [{1, 2}, {0}]
            graph = ExchangeGraph(instance, bundles)
            augment(graph, (1,), 1)
            assert bundles == [{1, 2}, {0}] and graph.clean == [{2}, {0, 1}]


class TestCleanSubsetAndExchange:
    def test_clean_subsets_stay_clean(self):
        # Any subset of a bundle worth c per good is worth c per good.
        rng = random.Random(41)
        for matroid in _random_matroids(42, 40, 6):
            val = BivaluedValuation(3, matroid)
            for mask in range(64):
                bundle = frozenset(g for g in range(6) if mask >> g & 1)
                if not val.is_clean(bundle):
                    continue
                drop = frozenset(g for g in bundle if rng.random() < 0.5)
                assert val.is_clean(bundle - drop)

    def test_smaller_clean_bundle_can_take_from_larger(self):
        rng = random.Random(43)
        checked = 0
        for matroid in _random_matroids(44, 80, 6):
            val = BivaluedValuation(3, matroid)
            clean = [
                frozenset(g for g in range(6) if mask >> g & 1)
                for mask in range(64)
                if val.is_clean(frozenset(g for g in range(6) if mask >> g & 1))
            ]
            rng.shuffle(clean)
            for s in clean[:8]:
                for t in clean[:8]:
                    if len(s) >= len(t):
                        continue
                    checked += 1
                    assert any(
                        val.marginal(s, g) == val.c for g in t - s
                    )
        assert checked > 100


@st.composite
def uniform_valuations(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    cap = draw(st.integers(min_value=0, max_value=m))
    c = draw(st.sampled_from([2, 3, 5]))
    return BivaluedValuation(c, UniformMatroid(m, cap)), m


class TestValueConsistencyProperty:
    @given(uniform_valuations(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_chain_additivity(self, val_m, data):
        val, m = val_m
        order = data.draw(st.permutations(range(m)))
        total = 0
        held: set[int] = set()
        for g in order:
            total += val.marginal(frozenset(held), g)
            held.add(g)
        assert total == val.value(frozenset(held))


class TestValidateExplicit:
    @staticmethod
    def _uniform_table(m: int, cap: int) -> list[int]:
        return [min(mask.bit_count(), cap) for mask in range(1 << m)]

    def test_valid_table_certified(self):
        val = BivaluedValuation(2, ExplicitMatroid(3, tuple(self._uniform_table(3, 2))))
        assert validate_explicit(val) == []

    def test_only_explicit_tables_are_audited(self):
        with pytest.raises(ValidationError, match="^only explicit rank tables can be audited$"):
            validate_explicit(BivaluedValuation(2, UniformMatroid(2, 1)))

    def test_empty_set_must_rank_zero(self):
        val = BivaluedValuation(2, ExplicitMatroid(1, (1, 1)))
        assert [(v.axiom, v.subset, v.goods, v.detail) for v in validate_explicit(val)] == [
            ("normalization", (), (), "rank(empty) = 1"),
        ]

    def test_jump_marginal_reported(self):
        table = self._uniform_table(2, 2)
        table[0b01] = 0  # rank jumps 0 -> 2 when good 1 arrives
        val = BivaluedValuation(2, ExplicitMatroid(2, tuple(table)))
        axioms = {v.axiom for v in validate_explicit(val)}
        assert "binary-marginal" in axioms

    def test_planted_corruption_detected(self):
        rng = random.Random(77)
        for _ in range(20):
            m = rng.randint(2, 4)
            table = self._uniform_table(m, rng.randint(0, m))
            victim = rng.randrange(1, len(table))
            table[victim] = table[victim] + rng.choice([2, 5])
            val = BivaluedValuation(2, ExplicitMatroid(m, tuple(table)))
            assert validate_explicit(val)

    def test_violations_come_by_subset_size(self):
        # Adding good 0 to {2} or to {1, 2}, or good 2 to {0, 1}, lowers the rank.
        val = BivaluedValuation(2, ExplicitMatroid(3, (0, 0, 1, 1, 1, 0, 1, 0)))
        assert [(v.axiom, v.subset, v.goods, v.detail) for v in validate_explicit(val)] == [
            ("binary-marginal", (2,), (0,), "marginal -1 not in {0, 1}"),
            ("binary-marginal", (0, 1), (2,), "marginal -1 not in {0, 1}"),
            ("binary-marginal", (1, 2), (0,), "marginal -1 not in {0, 1}"),
        ]

    def test_missing_entry_reported(self):
        table = self._uniform_table(2, 1)
        del table[0b11]
        with pytest.raises(MalformedMatroidError, match="has 3 of 4 subsets"):
            ExplicitMatroid(2, tuple(table))

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_table_of_wrong_length_refused_at_construction(self, length):
        with pytest.raises(MalformedMatroidError, match=f"has {length} of 4 subsets"):
            ExplicitMatroid(2, (0, 1, 1, 1, 1)[:length])

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            ExplicitMatroid(21, ())


class TestInstanceValidation:
    def test_rejects_small_c(self):
        with pytest.raises(ValidationError):
            BivaluedValuation(1, UniformMatroid(2, 1))

    def test_rejects_non_integer_c(self):
        with pytest.raises(ValidationError):
            BivaluedValuation(2.5, UniformMatroid(2, 1))  # type: ignore[arg-type]

    def test_rejects_mismatched_c(self):
        goods = ("a", "b")
        v1 = BivaluedValuation(2, UniformMatroid(2, 1))
        v2 = BivaluedValuation(3, UniformMatroid(2, 1))
        with pytest.raises(ValidationError):
            Instance(goods, 2, (v1, v2))

    def test_rejects_duplicate_names(self):
        v1 = BivaluedValuation(2, UniformMatroid(2, 1))
        with pytest.raises(ValidationError):
            Instance(("a", "a"), 2, (v1,))


def _subsets(m: int):
    return [frozenset(g for g in range(m) if mask >> g & 1) for mask in range(1 << m)]


def _table_matroid(family: str, m: int, rng: random.Random):
    """A random matroid that reaches the closed forms' edge cases: uniform
    caps of 0 and past m, partition parts that are empty or capped at 0 and
    goods in no part, transversal goods with no slot and no slots at all."""
    if family == "marked":
        return MarkedMatroid(m, frozenset(g for g in range(m) if rng.random() < 0.5))
    if family == "uniform":
        return UniformMatroid(m, rng.randint(0, m + 2))
    if family == "partition":
        labels = tuple(rng.randint(-1, 2) for _ in range(m))  # label -1: in no part
        return PartitionMatroid(m, labels, tuple(rng.randint(0, labels.count(p))
                                                 for p in range(3)))
    if family == "transversal":
        slots = rng.randint(0, m)
        return TransversalMatroid(m, slots, tuple(
            frozenset(s for s in range(slots) if rng.random() < 0.4) for _ in range(m)
        ))
    base = _table_matroid(rng.choice(FAMILIES), m, rng)
    return ExplicitMatroid(m, tuple(base.rank(s) for s in _subsets(m)))


def test_bundle_value_table_matches_direct():
    rng = random.Random("tables")
    for family in FAMILIES + ("explicit",):
        for m in range(10):
            for _ in range(6):
                matroid = _table_matroid(family, m, rng)
                val = BivaluedValuation(rng.randint(2, 5), matroid)
                subsets = _subsets(m)
                assert matroid.rank_table() == [matroid.rank(s) for s in subsets]
                assert bundle_value_table(val) == [val.value(s) for s in subsets]


def _labelled(seed: int) -> PartitionMatroid:
    """Seven goods labelled at random into five parts: parts 1 and 4 hold no
    good, and good 0, maybe others, lies in none."""
    rng = random.Random(seed)
    labels = (-1,) + tuple(rng.choice((-1, 0, 2, 3)) for _ in range(6))
    return PartitionMatroid(7, labels, tuple(rng.randint(0, 3) for _ in range(5)))


class TestValueTables:
    """Closed-form rank tables on the cases a closed form gets wrong first."""

    @pytest.mark.parametrize("matroid", [
        pytest.param(UniformMatroid(4, 0), id="uniform-cap-0"),
        pytest.param(UniformMatroid(3, 7), id="uniform-cap-past-m"),
        pytest.param(PartitionMatroid(5, (0, 0, -1, 1, -1), (0, 1)),
                     id="partition-cap-0-and-uncovered"),
        *(pytest.param(_labelled(seed), id=f"partition-labels-{seed}") for seed in range(4)),
        pytest.param(TransversalMatroid(3, 2, (frozenset(), frozenset({1}), frozenset())),
                     id="transversal-goods-without-slots"),
        pytest.param(TransversalMatroid(3, 0, (frozenset(),) * 3), id="transversal-no-slots"),
    ])
    def test_edge_cases(self, matroid):
        # Every query on every bundle matches enumeration, and the matroid
        # comes back equal from its file form.
        m, subsets = matroid.m, _subsets(matroid.m)
        brute = [brute_rank(matroid, s) for s in subsets]
        assert matroid.rank_table() == brute
        for mask, s in enumerate(subsets):
            assert matroid.rank(s) == brute[mask]
            assert matroid.extensions(s) == [
                h for h in range(m) if h not in s and brute[mask | 1 << h] > brute[mask]]
            for own in s:
                rest = mask ^ 1 << own
                assert matroid.exchanges(s, own) == [
                    h for h in range(m)
                    if h != own and h not in s and brute[rest | 1 << h] > brute[rest]], (s, own)
        goods = tuple(f"g{g}" for g in range(m))
        index = {name: g for g, name in enumerate(goods)}
        assert _parse_matroid(emit_matroid(matroid, goods), m, index, "agent 1") == matroid

    @pytest.mark.parametrize("matroid", [
        MarkedMatroid(0, frozenset()),
        UniformMatroid(0, 1),
        PartitionMatroid(0, (), ()),
        TransversalMatroid(0, 2, ()),
        ExplicitMatroid(0, (0,)),
    ], ids=lambda matroid: type(matroid).__name__)
    def test_no_goods(self, matroid):
        assert matroid.rank_table() == [0]
        assert bundle_value_table(BivaluedValuation(3, matroid)) == [0]

    def test_hall_condition_on_every_subset(self):
        # a and b reach only slot 0, c reaches slots 1 and 2: {a, b, c} reaches
        # three slots, yet {a, b} reaches one, so the rank is 2, not 3.
        matroid = TransversalMatroid(3, 3, (frozenset({0}), frozenset({0}), frozenset({1, 2})))
        table = matroid.rank_table()
        assert table[0b111] == 2
        assert table == [brute_rank(matroid, s) for s in _subsets(3)]

    def test_far_apart_slot_ids_rank_as_consecutive_ones(self):
        far = 10**7
        sparse = TransversalMatroid(
            3, far, (frozenset({0, far - 1}),) + (frozenset({far - 1}),) * 2
        )
        assert sparse.rank_table() == [brute_rank(sparse, s) for s in _subsets(3)]

    def test_more_than_twenty_goods_refused(self):
        with pytest.raises(SizeLimitError):
            bundle_value_table(BivaluedValuation(3, UniformMatroid(21, 2)))


def test_transversal_chain_ranks_without_recursion():
    # Good g may take slot g - 1 or g: a greedy search that displaced one
    # good per stack frame would nest thousands of calls deep.
    m = 5000
    adjacency = tuple(frozenset({max(g - 1, 0), g}) for g in range(m))
    matroid = TransversalMatroid(m, m, adjacency)
    assert matroid.rank(range(m)) == m


class TestInstanceRefusals:
    VALUATION = BivaluedValuation(2, UniformMatroid(2, 1))

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"valuations": ()}, "instance needs at least one agent", id="no-agents"),
        pytest.param({"agent_names": ("a", "b")}, "one name per agent required",
                     id="name-count"),
        pytest.param({"scale": 0}, "scale must be a positive integer", id="scale"),
        pytest.param({"scale": 1.5}, "scale must be a positive integer", id="scale-float"),
        pytest.param({"scale": True}, "scale must be a positive integer", id="scale-bool"),
        pytest.param({"valuations": (BivaluedValuation(2, UniformMatroid(3, 1)),)},
                     "matroid is defined over 3 goods, instance has 2", id="ground-set"),
    ])
    def test_refused(self, kwargs, message):
        args = {"goods": ("x", "y"), "c": 2, "valuations": (self.VALUATION,), **kwargs}
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Instance(**args)
