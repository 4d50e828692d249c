from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifair
from bifair.errors import InternalInvariantError, UnsupportedCriterionError, ValidationError
from bifair.exchange import ExchangeGraph
from bifair.exchange import augment as augment_path
from bifair.io import (
    dumps_canonical,
    emit_allocation,
    emit_instance,
    parse_instance,
    random_instance,
)
from bifair.solver import (
    BOTTOM_GAIN,
    Leximin,
    MaxNashWelfare,
    PMeanWelfare,
    SolveTrace,
    TraceRecord,
    _describe,
    _State,
    compare_gains,
    make_criterion,
    solve,
)
from bifair.valuation import BivaluedValuation, Instance, MarkedMatroid, UniformMatroid
from helpers import brute_value, ladder_instance, pmean_optima

FAMILIES = ("marked", "uniform", "partition", "transversal")


class TestGainValues:
    def test_mnw_ratio(self):
        assert MaxNashWelfare().gain(5, 5) == (0, Fraction(2))

    def test_leximin_from_zero(self):
        assert Leximin(5).gain(0, 5) == (0, 5)

    def test_leximin_from_five(self):
        assert Leximin(5).gain(5, 5) == (0, -25)

    def test_zero_escape_ordering(self):
        mnw = MaxNashWelfare()
        high = mnw.gain(0, 5)
        low = mnw.gain(0, 1)
        assert compare_gains(high, low) > 0
        assert compare_gains(high, mnw.gain(7, 5)) > 0  # beats any ordinary ratio
        assert compare_gains(BOTTOM_GAIN, low) < 0

    def test_mnw_cross_multiplication_is_exact(self):
        mnw = MaxNashWelfare()
        # 7/6 vs 8/7: tiny gap that floats near 1 would be risky with
        # a large-constant scheme.
        assert compare_gains(mnw.gain(6, 1), mnw.gain(7, 1)) > 0

    def test_pmean_rejects_degenerate_p(self):
        for p in (0, 1, 1.5):
            with pytest.raises(UnsupportedCriterionError):
                PMeanWelfare(p)

    def test_pmean_rejects_non_finite_p(self):
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(UnsupportedCriterionError):
                PMeanWelfare(p)

    def test_pmean_gain_is_the_log_power_difference(self):
        assert PMeanWelfare(-1.0).gain(3, 2)[1] == pytest.approx(math.log(1 / 3 - 1 / 5))
        assert PMeanWelfare(0.5).gain(4, 1)[1] == pytest.approx(math.log(5**0.5 - 2))
        assert PMeanWelfare(-1.0).gain(0, 2) == (2, 0)

    def test_make_criterion(self):
        assert make_criterion("mnw").name == "mnw"
        assert make_criterion("leximin").name == "leximin"
        assert make_criterion("pmean", p=-1).name == "pmean[p=-1]"
        with pytest.raises(UnsupportedCriterionError):
            make_criterion("pmean")
        with pytest.raises(UnsupportedCriterionError):
            make_criterion("nope")

    def test_unbound_leximin_gain_rejected(self):
        with pytest.raises(UnsupportedCriterionError):
            Leximin().gain(0, 2)


def _sample_criteria(c: int):
    return (
        MaxNashWelfare(),
        Leximin(c),
        PMeanWelfare(0.5),
        PMeanWelfare(-1.0),
        PMeanWelfare(-2.0),
    )


class TestGainAxioms:
    """The selection-criterion laws the solver's correctness rests on."""

    def test_axioms_on_random_vectors(self):
        rng = random.Random(101)
        for _ in range(400):
            n = rng.randint(2, 6)
            c = rng.choice([2, 3, 5])
            u = tuple(rng.randint(0, 50) for _ in range(n))
            i, j = rng.sample(range(1, n + 1), 2)
            d1 = rng.choice([1, c])
            d2 = rng.choice([1, c])
            ui, uj = u[i - 1], u[j - 1]
            for criterion in _sample_criteria(c):
                # Higher value of d always helps (strictly).
                assert compare_gains(criterion.gain(ui, c), criterion.gain(ui, 1)) > 0
                # Poorer agents score at least as high, ties only at equal utility.
                order = compare_gains(criterion.gain(ui, d1), criterion.gain(uj, d1))
                if ui < uj:
                    assert order > 0
                elif ui == uj:
                    assert order == 0
                # Gains are anti-monotone in own utility.
                bumped = ui + rng.randint(1, 4)
                assert compare_gains(criterion.gain(ui, d1), criterion.gain(bumped, d1)) > 0
                # Gain order must agree with the criterion's successor order.
                y = tuple(x + d1 if k == i - 1 else x for k, x in enumerate(u))
                z = tuple(x + d2 if k == j - 1 else x for k, x in enumerate(u))
                gain_order = compare_gains(criterion.gain(ui, d1), criterion.gain(uj, d2))
                assert gain_order == criterion.compare(y, z)


class TestSolveWorkedExample:
    def test_leximin(self, worked_example):
        result = solve(worked_example, Leximin(5), check_invariants=True)
        assert result.sorted_utilities == (5, 5)
        assert len(result.allocation.bundle(2)) == 1

    def test_leximin_trace_shape(self, worked_example):
        trace = solve(worked_example, Leximin(5)).trace
        actions = [r.action for r in trace.records]
        # Agent 1 drops out first, agent 2 takes one good, agent 1 gets the rest.
        assert actions[0] == "removed-from-play"
        assert actions[1] == "augmented"
        assert actions.count("provisional") == 5

    def test_mnw(self, worked_example):
        result = solve(worked_example, MaxNashWelfare(), check_invariants=True)
        assert result.utilities == (3, 15)
        assert len(result.allocation.bundle(1)) == 3
        assert len(result.allocation.bundle(2)) == 3

    def test_mnw_trace_replaces_stolen_goods(self, worked_example):
        trace = solve(worked_example, MaxNashWelfare()).trace
        replaced = [r for r in trace.records if r.replacement is not None]
        assert replaced, "agent 2 should steal provisionally held goods"


class TestSolveGeneral:
    def test_single_agent_gets_everything(self):
        rng = random.Random(7)
        for family in FAMILIES:
            instance = random_instance(family, 1, 5, 3, rng)
            result = solve(instance, MaxNashWelfare(), check_invariants=True)
            assert result.allocation.bundle(1) == frozenset(range(5))

    def test_iteration_bound_and_permanent_removal(self):
        rng = random.Random(13)
        for trial in range(80):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(
                family, rng.randint(1, 4), rng.randint(1, 7), rng.choice([2, 3]), rng
            )
            result = solve(instance, Leximin(instance.c), check_invariants=True)
            records = result.trace.records
            assert len(records) <= instance.m + instance.n
            removed: set[int] = set()
            for record in records:
                if record.action == "removed-from-play":
                    assert record.agent not in removed
                    removed.add(record.agent)
                else:
                    assert record.agent not in removed or record.action == "provisional"
            # Supplementary bundles stay disjoint.
            supp = result.decomposition.supplementary
            seen: set[int] = set()
            for bundle in supp:
                assert not (bundle & seen)
                seen |= bundle

    def test_trace_rebuilds_the_decomposition(self):
        # Replaying the provisional hand-outs and the steals must give the
        # supplementary bundles exactly, and with the clean bundles the
        # utilities, whatever the solver keeps internally.
        steals = {family: 0 for family in FAMILIES}
        for family in FAMILIES:
            for seed in range(20):
                instance = random_instance(family, 4, 12, 2 + seed % 2, seed)
                for criterion in (MaxNashWelfare(), Leximin(), PMeanWelfare(-1.0)):
                    result = solve(instance, criterion)
                    holder: dict[int, int] = {}
                    for record in result.trace.records:
                        if record.action == "provisional":
                            assert record.good not in holder
                            holder[record.good] = record.agent
                        elif record.action == "augmented":
                            stolen = holder.pop(record.path[-1], None)
                            assert (stolen is None) == (record.replacement is None)
                            if stolen is not None:
                                assert record.replacement not in holder
                                holder[record.replacement] = stolen
                                steals[family] += 1
                    supp = [set() for _ in range(instance.n + 1)]
                    for good, agent in holder.items():
                        supp[agent].add(good)
                    decomposition = result.decomposition
                    assert decomposition.supplementary == tuple(map(frozenset, supp))
                    assert result.utilities == tuple(
                        instance.c * len(decomposition.clean[i]) + len(supp[i])
                        for i in instance.agents
                    ), (family, seed, criterion.name)
        # On these draws every family but marked steals at least once.
        assert all(steals[family] for family in FAMILIES[1:]), steals

    @pytest.mark.parametrize("criterion", [
        MaxNashWelfare(), Leximin(), PMeanWelfare(-1.0), PMeanWelfare(0.5),
    ], ids=lambda criterion: criterion.name)
    def test_trace_gains_follow_the_replayed_pool_heads(self, criterion):
        # Replaying each record's effect on utilities gives the two pool heads
        # of the next iteration; its gains must be theirs, and its action the
        # one compare_gains picks, whatever the solver remembers between
        # iterations.
        for family in FAMILIES:
            for seed in range(12):
                instance = random_instance(family, 5, 14, 2 + seed % 2, seed)
                bound, c = criterion.bind(instance), instance.c
                utility = dict.fromkeys(instance.agents, 0)
                in_play = set(instance.agents)
                for record in solve(instance, criterion).trace.records:
                    heads = [min(((utility[i], i) for i in pool), default=None)
                             for pool in (in_play, utility.keys() - in_play)]
                    gains = [BOTTOM_GAIN if head is None else bound.gain(head[0], d)
                             for head, d in zip(heads, (c, 1))]
                    where = (family, seed, record.iteration)
                    assert (record.gain_c, record.gain_1) == tuple(map(_describe, gains)), where
                    if heads[0] is not None and compare_gains(*gains) >= 0:
                        assert record.action != "provisional", where
                        assert record.agent == heads[0][1], where
                    else:
                        assert record.action == "provisional", where
                        assert record.agent == heads[1][1], where
                    if record.action == "augmented":
                        utility[record.agent] += c
                    elif record.action == "provisional":
                        utility[record.agent] += 1
                    else:
                        in_play.remove(record.agent)

    def test_utilities_match_value_oracle(self):
        rng = random.Random(19)
        for trial in range(40):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(family, 2, 5, 2, rng)
            result = solve(instance, MaxNashWelfare())
            for i in instance.agents:
                assert result.utilities[i - 1] == brute_value(
                    instance.valuation(i), result.allocation.bundle(i)
                )

    def test_rejects_bad_c_at_construction(self):
        with pytest.raises(ValidationError):
            Instance(("a",), 1, (BivaluedValuation(2, UniformMatroid(1, 1)),))

    def test_explicit_table_agents_solve_identically(self):
        # A rank table standing in for a structured matroid must not change
        # the outcome.
        from bifair.valuation import ExplicitMatroid

        rng = random.Random(43)
        for _ in range(10):
            instance = random_instance("partition", 2, 5, 2, rng)
            tabled = []
            for i in instance.agents:
                matroid = instance.valuation(i).matroid
                table = tuple(
                    matroid.rank(frozenset(g for g in range(5) if mask >> g & 1))
                    for mask in range(1 << 5)
                )
                tabled.append(BivaluedValuation(2, ExplicitMatroid(5, table)))
            twin = Instance(instance.goods, 2, tuple(tabled))
            for criterion in (MaxNashWelfare(), Leximin(2)):
                a = solve(instance, criterion, check_invariants=True)
                b = solve(twin, criterion, check_invariants=True)
                assert a.allocation.bundles == b.allocation.bundles

    def test_solves_and_audits_leave_valuations_unchanged(self):
        # Memory stays bounded on shared valuations only if no query caches.
        from bifair.valuation import ExplicitMatroid

        rng = random.Random(61)
        for family in FAMILIES + ("explicit",):
            instance = random_instance(family.replace("explicit", "partition"), 3, 6, 2, rng)
            if family == "explicit":
                subsets = [frozenset(g for g in range(6) if mask >> g & 1)
                           for mask in range(1 << 6)]
                instance = Instance(instance.goods, 2, tuple(
                    BivaluedValuation(2, ExplicitMatroid(6, tuple(v.rank(s) for s in subsets)))
                    for v in instance.valuations
                ))

            def slots(obj):
                assert not hasattr(obj, "__dict__")  # every attribute lives in a slot
                return {name: getattr(obj, name)
                        for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}

            def state():
                return [(slots(v), slots(v.matroid)) for v in instance.valuations]

            before = copy.deepcopy(state())
            for name, p in (("mnw", None), ("leximin", None), ("pmean", -1.0)):
                result = solve(instance, make_criterion(name, p))
                bifair.audit_allocation(instance, result.allocation, with_mms=True)
            assert state() == before, family

    def test_trace_serializes_to_jsonl(self, worked_example):
        trace = solve(worked_example, Leximin(5)).trace
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == len(trace.records)
        for line in lines:
            record = json.loads(line)
            assert {"iteration", "gain_c", "gain_1", "agent", "action"} <= set(record)


def _dumps_lines(records) -> str:
    return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records)


_trace_text = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\n\t\x7f", "é ☃ 𝄞", "\ud800"]),
)
_optional_int = st.none() | st.integers()
_trace_records = st.builds(
    TraceRecord,
    iteration=st.integers(),
    gain_c=_trace_text,
    gain_1=_trace_text,
    agent=st.integers(),
    action=_trace_text,
    path=st.none() | st.lists(st.integers(), max_size=6).map(tuple),
    good=_optional_int,
    replacement=_optional_int,
)


class TestTraceJsonl:
    """``to_jsonl`` writes its lines directly; they must be the bytes that
    ``json.dumps(record.to_dict(), sort_keys=True)`` gives."""

    @given(st.lists(_trace_records, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps_on_any_record(self, records):
        assert SolveTrace(records).to_jsonl() == _dumps_lines(records)

    def test_matches_json_dumps_on_real_solves(self):
        rng = random.Random("trace-jsonl")
        criteria = [MaxNashWelfare(), Leximin(), PMeanWelfare(-1.0), PMeanWelfare(0.5)]
        gains = set()
        for trial in range(40):
            family = FAMILIES[trial % len(FAMILIES)]
            instance = random_instance(
                family, rng.randint(1, 5), rng.randint(1, 16), rng.choice([2, 3]), rng
            )
            for criterion in criteria:
                trace = solve(instance, criterion).trace
                assert trace.to_jsonl() == _dumps_lines(trace.records)
                gains.update(g for r in trace.records for g in (r.gain_c, r.gain_1))
        kinds = {
            "fraction": any("/" in g for g in gains),
            "integer": any(g.lstrip("-").isdigit() for g in gains),
            "log": any("." in g and "(" not in g for g in gains),
            "zero-escape": any(g.startswith("zero-escape(") for g in gains),
            "-inf": "-inf" in gains,
        }
        assert all(kinds.values()), kinds


def _solve_against_pmean_oracle(p: float, trials: int) -> None:
    rng = random.Random(f"pmean-exact:{p}")
    for trial in range(trials):
        family = FAMILIES[trial % len(FAMILIES)]
        instance = random_instance(
            family, rng.randint(2, 3), rng.randint(2, 6), rng.choice([2, 3]), rng
        )
        result = solve(instance, PMeanWelfare(p), check_invariants=True)
        assert result.sorted_utilities in pmean_optima(instance, p), (family, trial)


class TestStronglyNegativePMean:
    """At p = -20 and below the gains and power sums are tiny numbers, so a
    tolerance with an absolute floor ties them all, and at p = -1000 the
    powers themselves underflow a float; only logarithms compared with a
    purely relative tolerance keep the solver optimal. The oracle sums
    exact fractions."""

    @pytest.mark.parametrize("p", [-20, -50, -1000])
    def test_matches_exact_fraction_optima(self, p):
        _solve_against_pmean_oracle(p, 120)


class TestNonIntegerPMean:
    """Fractional p against 60-digit decimal power sums, an arithmetic the
    solver's float logarithms do not share."""

    @pytest.mark.parametrize("p", [0.01, 0.99, -3.7])
    def test_matches_decimal_optima(self, p):
        _solve_against_pmean_oracle(p, 150)


class TestMetamorphic:
    """Renumbering agents or goods cannot change how good the optimum is.

    At n = 10-40 and m = 40-160, far past brute force, each criterion's key
    of the solver's utilities must tie across the instance, its agents
    shuffled and its goods shuffled (by re-parsing the file with the goods
    listed in another order). Stating the values as ``(a, b) = (k, k * c)``
    instead of ``c`` rescales them by a common factor, which must give the
    same bundles.
    """

    @pytest.mark.parametrize("family", FAMILIES)
    def test_permutations_keep_the_optimum(self, family):
        rng = random.Random(f"metamorphic:{family}")
        for _ in range(4):
            n, m = rng.randint(10, 40), rng.randint(40, 160)
            instance = random_instance(family, n, m, rng.choice((2, 3)), rng)
            data = emit_instance(instance)
            variants = (
                instance,
                parse_instance(dict(data, agents=rng.sample(data["agents"], n))),
                parse_instance(dict(data, goods=rng.sample(data["goods"], m))),
            )
            unscaled = {key: value for key, value in data.items() if key != "c"}
            rescaled = [parse_instance(dict(unscaled, a=k, b=k * instance.c))
                        for k in (2, 7, 10**6)]
            for name, p in (("mnw", None), ("leximin", None),
                            ("pmean", -1.0), ("pmean", 0.5)):
                criterion = make_criterion(name, p).bind(instance)
                results = [solve(v, criterion) for v in variants]
                keys = [criterion.key(result.utilities) for result in results]
                assert all(criterion.compare_keys(k, keys[0]) == 0 for k in keys), (
                    f"{family} n={n} m={m} {criterion.name}: keys {keys} differ"
                )
                for scaled in rescaled:
                    assert solve(scaled, criterion).allocation.bundles == (
                        results[0].allocation.bundles
                    ), f"{family} n={n} m={m} {criterion.name}: scale {scaled.scale}"


def test_import_and_pmean_solve_load_no_mpmath():
    # A fresh interpreter, so no other test's imports are counted.
    script = (
        "import sys, bifair\n"
        "instance = bifair.random_instance('transversal', 3, 6, 2, 1)\n"
        "bifair.solve(instance, bifair.PMeanWelfare(-1.5))\n"
        "print(sorted(name for name in sys.modules if name.startswith('mpmath')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bifair.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# SHA-256 of the canonical allocation, a NUL byte and the JSONL trace of the
# default ladder instance. The solver's output is canonical, so a speed-up
# must reproduce these bytes exactly.
LADDER_DIGESTS = {
    "leximin": "51b4524507ea073962418254ad62fd30005df4c46097b2bf47eaf611fb28561c",
    "mnw": "37dddec4fd0ea80c504fe8565fd9d355480bae2d1a77a425144a24b197104cfe",
}


# SHA-256 of each canonical allocation, a NUL byte, its JSONL trace and a NUL
# byte, over five random instances per family (n 4-40, m 30-300) under
# Nash, leximin and two p-mean criteria. Taken before the first-layer path
# shortcut and the per-solve gain decisions; both must keep every byte.
RANDOM_DIGESTS = {
    "marked": "56226b99393d754d881c6240a9ad4f0ec88943c7077dba7ff7632b488437c720",
    "uniform": "a7181f54849d72817635db09e1192087806a0c542dcc129a7980500b6dff5f9e",
    "partition": "eb52174f02ab587fb939c443fb6329b238caf2c53644342070dd89b897374991",
    "transversal": "9f571995afc134fc8dbb39f7c2fb3014e4ed9e6b3f875f0324a18f9da94b97ad",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_random_outputs_are_pinned(family):
    digest = hashlib.sha256()
    for seed, (n, m) in enumerate(((4, 30), (8, 60), (20, 200), (30, 250), (40, 300))):
        instance = random_instance(family, n, m, 2 + seed % 2, seed)
        for criterion in (MaxNashWelfare(), Leximin(), PMeanWelfare(-1.0), PMeanWelfare(0.5)):
            result = solve(instance, criterion)
            allocation = dumps_canonical(emit_allocation(
                instance, result.allocation, result.decomposition, criterion.name
            ))
            text = allocation + "\0" + result.trace.to_jsonl() + "\0"
            digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == RANDOM_DIGESTS[family]


class TestLadder:
    """Transfer paths as long as a block: the BFS-heavy regime."""

    @pytest.mark.parametrize("criterion", [Leximin(3), MaxNashWelfare()],
                             ids=lambda criterion: criterion.name)
    def test_long_paths_and_pinned_output(self, criterion):
        instance = ladder_instance(n=30, block=10, m=60, c=3)
        result = solve(instance, criterion, check_invariants=True)
        longest = max(len(record.path or ()) for record in result.trace.records)
        assert longest >= 10
        allocation = dumps_canonical(emit_allocation(
            instance, result.allocation, result.decomposition, criterion.name
        ))
        text = allocation + "\0" + result.trace.to_jsonl()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == LADDER_DIGESTS[criterion.name]

    def test_one_block_expansions_grow_linearly(self, monkeypatch):
        # Half the searches fail; without the dead set each failed search
        # walks the same chain again, about n^2 / 2 expansions in all.
        n = 200
        instance = ladder_instance(n=n, block=n, m=2 * n, c=3)
        expanded = []
        out_neighbors = ExchangeGraph.out_neighbors

        def counted(graph, g):
            expanded.append(g)
            return out_neighbors(graph, g)

        monkeypatch.setattr(ExchangeGraph, "out_neighbors", counted)
        result = solve(instance, Leximin(3))
        assert max(len(record.path or ()) for record in result.trace.records) == n
        assert len(expanded) <= 2 * n


def test_check_invariants_sees_a_good_held_twice():
    # The owner map keeps one bundle per good, so only the sizes show that
    # good 0 sits in bundle 1 as well as in bundle 2.
    marked = BivaluedValuation(3, MarkedMatroid(2, frozenset({0, 1})))
    state = _State(Instance(("x", "y"), 3, (marked, marked)))
    augment_path(state.graph, (0,), 2)
    state.in_play[:] = [(0, 1), (3, 2)]
    state.check_invariants()
    state.graph.clean[1].add(0)
    state.in_play[:] = [(3, 1), (3, 2)]
    assert state.graph.owner == {0: 2, 1: 0}
    with pytest.raises(InternalInvariantError, match="^owner map disagrees with the bundles$"):
        state.check_invariants()


def test_repeated_solves_on_shared_valuations_retain_no_memory():
    # Each solve's trackers live in its own exchange graph, so nothing a
    # solve builds outlives it: 99 more solves leave what is retained as it
    # was after the first.
    instance = ladder_instance(n=60, block=20, m=120, c=3)
    criteria = (MaxNashWelfare(), Leximin(3))
    tracemalloc.start()
    try:
        solve(instance, criteria[0])
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        for k in range(1, 100):
            solve(instance, criteria[k % 2])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - first < 32 * 1024, (first, retained)
