from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import threading
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bifair.cli
import bifair.io
from bifair.allocation import Allocation
from bifair.audit import audit_allocation
from bifair.cli import main
from bifair.errors import InternalInvariantError, ValidationError
from bifair.io import (
    dumps_canonical,
    emit_allocation,
    emit_instance,
    emit_matroid,
    load_allocation,
    load_instance,
    parse_allocation,
    parse_instance,
    random_instance,
)
from bifair.solver import SolveResult, make_criterion, solve
from bifair.valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    Matroid,
    rescale_pair,
)

FAMILIES = ("marked", "uniform", "partition", "transversal")


def _worked_example_file(tmp_path, c=5):
    data = {
        "version": 1,
        "c": c,
        "goods": [f"g{i}" for i in range(1, 7)],
        "agents": [
            {"name": "low", "matroid": {"type": "marked", "marked": []}},
            {
                "name": "high",
                "matroid": {"type": "marked", "marked": [f"g{i}" for i in range(1, 7)]},
            },
        ],
    }
    path = tmp_path / "example.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


_EXPLICIT_INSTANCE_TEXT = """\
{
  "agents": [
    {
      "matroid": {
        "rank": {
          "": 0,
          "x": 1,
          "y": 1,
          "y,x": 2,
          "z": 1,
          "z,x": 2,
          "z,y": 1,
          "z,y,x": 2
        },
        "type": "explicit"
      },
      "name": "t"
    }
  ],
  "c": 3,
  "goods": [
    "z",
    "y",
    "x"
  ],
  "version": 1
}
"""


class TestInstanceParsing:
    def test_round_trip_every_family(self):
        rng = random.Random(9)
        for family in FAMILIES:
            instance = random_instance(family, 3, 5, 3, rng)
            again = parse_instance(emit_instance(instance))
            assert emit_instance(again) == emit_instance(instance)
            assert again.c == instance.c
            for i in instance.agents:
                for mask in range(1 << 5):
                    subset = frozenset(g for g in range(5) if mask >> g & 1)
                    assert again.value(i, subset) == instance.value(i, subset)

    def test_explicit_round_trip(self):
        table = {}
        for mask in range(4):
            subset = frozenset(g for g in range(2) if mask >> g & 1)
            table[subset] = min(len(subset), 1)
        data = {
            "version": 1,
            "c": 2,
            "goods": ["a", "b"],
            "agents": [
                {
                    "name": "only",
                    "matroid": {
                        "type": "explicit",
                        "rank": {"": 0, "a": 1, "b": 1, "a,b": 1},
                    },
                }
            ],
        }
        instance = parse_instance(data)
        assert instance.valuation(1).rank({0, 1}) == 1
        assert parse_instance(emit_instance(instance)).value(1, {0, 1}) == 3

    def test_explicit_emitted_bytes(self):
        # rank(S) = min(|S & {z, y}|, 1) + |S & {x}|, with keys given out of order.
        data = {
            "version": 1, "c": 3, "goods": ["z", "y", "x"],
            "agents": [{"name": "t", "matroid": {"type": "explicit", "rank": {
                "z,y,x": 2, "y,x": 2, "x": 1, "": 0, "z,x": 2, "y": 1, "z,y": 1, "z": 1,
            }}}],
        }
        emitted = emit_instance(parse_instance(data))
        assert list(emitted["agents"][0]["matroid"]["rank"]) == [
            "", "z", "y", "x", "z,y", "z,x", "y,x", "z,y,x",
        ]
        assert dumps_canonical(emitted) == _EXPLICIT_INSTANCE_TEXT

    def test_unknown_field_rejected(self):
        data = {
            "version": 1,
            "c": 2,
            "goods": ["a"],
            "agents": [{"name": "x", "matroid": {"type": "uniform", "cap": 1}}],
            "extra": True,
        }
        with pytest.raises(ValidationError):
            parse_instance(data)

    def test_duplicate_goods_rejected(self):
        data = {
            "version": 1,
            "c": 2,
            "goods": ["a", "a"],
            "agents": [{"matroid": {"type": "uniform", "cap": 1}}],
        }
        with pytest.raises(ValidationError):
            parse_instance(data)

    def test_value_pair_rescaling(self):
        assert rescale_pair(2, 6) == 3
        data = {
            "version": 1,
            "a": 2,
            "b": 6,
            "goods": ["a", "b"],
            "agents": [{"matroid": {"type": "marked", "marked": ["a"]}}],
        }
        instance = parse_instance(data)
        assert instance.c == 3
        assert instance.scale == 2
        emitted = emit_instance(instance)
        assert (emitted["a"], emitted["b"], "c" in emitted) == (2, 6, False)
        assert emit_instance(parse_instance(emitted)) == emitted

    def test_unknown_matroid_class_not_serialized(self):
        class Free(Matroid):
            __slots__ = ()

        with pytest.raises(ValidationError, match="^cannot serialize matroid Free$"):
            emit_matroid(Free(), ("x",))

    def test_indivisible_pair_rejected(self):
        with pytest.raises(ValidationError, match="NP-hard"):
            rescale_pair(3, 7)

    def test_non_integer_c_rejected(self):
        data = {
            "version": 1,
            "c": 2.5,
            "goods": ["a"],
            "agents": [{"matroid": {"type": "uniform", "cap": 1}}],
        }
        with pytest.raises(ValidationError):
            parse_instance(data)

    @pytest.mark.parametrize("c, agents", [
        pytest.param(2.5, [{"matroid": {"type": "uniform", "cap": 1}}], id="float"),
        pytest.param(True, [{"matroid": {"type": "uniform", "cap": 1}}], id="bool"),
        pytest.param(1, [{"matroid": {"type": "uniform", "cap": 1}}], id="one"),
        pytest.param(1, [], id="one-without-agents"),
    ])
    def test_bad_c_has_one_message(self, c, agents):
        with pytest.raises(ValidationError) as caught:
            parse_instance({"version": 1, "c": c, "goods": ["a"], "agents": agents})
        assert str(caught.value) == (
            f"c must be an integer >= 2; got {c!r} (non-integer value "
            f"ratios make the problem NP-hard and are rejected)"
        )

    def test_constructors_share_the_c_message(self):
        expected = ("c must be an integer >= 2; got 1 (non-integer value "
                    "ratios make the problem NP-hard and are rejected)")
        with pytest.raises(ValidationError) as caught:
            BivaluedValuation(1, MarkedMatroid(1, frozenset()))
        assert str(caught.value) == expected
        valuation = BivaluedValuation(2, MarkedMatroid(1, frozenset()))
        with pytest.raises(ValidationError) as caught:
            Instance(("a",), 1, (valuation,))
        assert str(caught.value) == expected


class TestAllocationParsing:
    def test_round_trip(self):
        instance = random_instance("partition", 2, 5, 2, 3)
        allocation = Allocation.from_bundles(instance, [{4}, {0, 1}, {2, 3}])
        data = emit_allocation(instance, allocation)
        assert parse_allocation(data, instance).bundles == allocation.bundles

    def test_partition_violation_rejected(self):
        instance = random_instance("marked", 2, 3, 2, 4)
        data = {
            "version": 1,
            "unallocated": [],
            "bundles": [["g1", "g2"], ["g2", "g3"]],
        }
        with pytest.raises(ValidationError):
            parse_allocation(data, instance)

    def test_given_utilities_emit_the_same_document(self):
        for family in FAMILIES:
            instance = random_instance(family, 3, 9, 3, 5)
            result = solve(instance, make_criterion("leximin"))
            args = (instance, result.allocation, result.decomposition, "leximin")
            assert emit_allocation(*args, utilities=result.utilities) == emit_allocation(*args)

    def test_unsupported_version(self):
        instance = random_instance("marked", 1, 1, 2, 4)
        data = {"version": 2, "unallocated": ["g1"], "bundles": [[]]}
        with pytest.raises(ValidationError, match="^unsupported allocation version 2$"):
            parse_allocation(data, instance)


# A bad entry of a list of good names, and the message that names it.
_BAD_NAMES = [
    pytest.param(["g1", "q"], "unknown good 'q'", id="unknown"),
    pytest.param(["g1", 1], "unknown good 1", id="non-string"),
    pytest.param([[], "q"], "unknown good []", id="unhashable"),
    pytest.param(["g1", {}], "unknown good {}", id="unhashable-object"),
    pytest.param("g1", "good names must be a list, got 'g1'", id="string-not-list"),
    pytest.param(5, "good names must be a list, got 5", id="int-not-list"),
    pytest.param(None, "good names must be a list, got None", id="null-not-list"),
]


class TestGoodNameLists:
    """Every list of good names refuses a bad entry with one exact message."""

    GOODS = ["g1", "g2", "g3"]

    def _instance_error(self, matroid) -> str:
        data = {"version": 1, "c": 3, "goods": self.GOODS,
                "agents": [{"matroid": {"type": "uniform", "cap": 1}}, {"matroid": matroid}]}
        with pytest.raises(ValidationError) as caught:
            parse_instance(data)
        return str(caught.value)

    def _allocation_error(self, unallocated, bundles) -> str:
        instance = random_instance("marked", 2, 3, 3, 1)
        data = {"version": 1, "unallocated": unallocated, "bundles": bundles}
        with pytest.raises(ValidationError) as caught:
            parse_allocation(data, instance)
        return str(caught.value)

    @pytest.mark.parametrize("names, message", _BAD_NAMES)
    def test_marked(self, names, message):
        assert self._instance_error({"type": "marked", "marked": names}) == (
            f"agent 2: {message}"
        )

    @pytest.mark.parametrize("names, message", _BAD_NAMES)
    def test_partition_part(self, names, message):
        matroid = {"type": "partition", "parts": [["g3"], names], "caps": [1, 1]}
        assert self._instance_error(matroid) == f"agent 2: {message}"

    def test_explicit_key(self):
        matroid = {"type": "explicit", "rank": {"": 0, "g1": 1, "q": 1}}
        assert self._instance_error(matroid) == "agent 2: unknown good 'q'"

    @pytest.mark.parametrize("names, message", _BAD_NAMES)
    def test_allocation_bundle(self, names, message):
        assert self._allocation_error([], [["g3"], names]) == f"bundle 2: {message}"

    @pytest.mark.parametrize("names, message", _BAD_NAMES)
    def test_unallocated(self, names, message):
        assert self._allocation_error(names, [["g3"], []]) == f"unallocated: {message}"

    def test_bundles_not_a_list(self):
        assert self._allocation_error([], "g1") == (
            "allocation: bundles must be a list, got 'g1'"
        )

    def test_the_first_bad_name_is_named(self):
        matroid = {"type": "marked", "marked": ["g1", "q", 1, []]}
        assert self._instance_error(matroid) == "agent 2: unknown good 'q'"

    def test_repeated_names_are_one_good(self):
        data = {"version": 1, "c": 3, "goods": self.GOODS,
                "agents": [{"matroid": {"type": "marked", "marked": ["g2", "g2"]}},
                           {"matroid": {"type": "partition", "parts": [["g2", "g2"]],
                                        "caps": [1]}}]}
        instance = parse_instance(data)
        assert instance.valuation(1).matroid.marked == frozenset({1})
        assert instance.valuation(2).matroid.labels == (-1, 0, -1)


# Strings that need escaping: quotes, backslashes, control and non-ASCII characters.
_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€😀\u2028') | st.characters(),
                max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
            | st.floats() | _TEXT)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.lists(st.lists(_TEXT, max_size=3), max_size=4)
    | st.dictionaries(_TEXT, children, max_size=5)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=25,
)


@st.composite
def _written_documents(draw):
    """The instance, allocation and audit documents that bifair writes for one draw."""
    family = draw(st.sampled_from(FAMILIES + ("explicit",)))
    n, m, c = draw(st.integers(1, 3)), draw(st.integers(0, 6)), draw(st.integers(2, 4))
    instance = random_instance(
        "partition" if family == "explicit" else family, n, m, c, draw(st.integers(0, 2**16))
    )
    valuations = instance.valuations
    if family == "explicit":
        valuations = tuple(
            BivaluedValuation(c, ExplicitMatroid(m, tuple(v.matroid.rank_table())))
            for v in valuations
        )
    goods = tuple(draw(st.lists(_TEXT.filter(lambda name: name and "," not in name),
                                min_size=m, max_size=m, unique=True)))
    names = tuple(draw(st.lists(_TEXT, min_size=n, max_size=n)))
    instance = Instance(goods, c, valuations, names, draw(st.sampled_from((1, 3))))
    name = draw(st.sampled_from(("mnw", "leximin")))
    result = solve(instance, make_criterion(name))
    report = audit_allocation(instance, result.allocation, pmean_ps=(0.5, -1.0),
                              with_mms=True, criterion_hint=name)
    return [
        emit_instance(instance),
        emit_allocation(instance, result.allocation, result.decomposition, name),
        emit_allocation(instance, result.allocation),
        report.to_dict(),
    ]


class TestCanonicalJson:
    """``dumps_canonical`` writes exactly the bytes of the stdlib call it stands for."""

    @staticmethod
    def _stdlib(doc) -> str:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_random_documents(self, doc):
        assert dumps_canonical(doc) == self._stdlib(doc)

    @settings(max_examples=40, deadline=None)
    @given(docs=_written_documents())
    def test_every_document_bifair_writes(self, docs):
        for doc in docs:
            assert dumps_canonical(doc) == self._stdlib(doc)

    def test_non_finite_floats_and_fallback_values(self):
        doc = {"f": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
               "k": {2: [1, "x"], 1: {}}, "t": ((), ("a", 1)), "b": [True, 1, None]}
        assert dumps_canonical(doc) == self._stdlib(doc)


class TestExplicitKeyNames:
    """Rank keys join good names with commas, so an explicit table cannot
    state a good whose name is empty or holds a comma."""

    @pytest.mark.parametrize("goods", [("x,y", "z"), ("", "z")], ids=["comma", "empty"])
    def test_load_refuses_the_name(self, tmp_path, capsys, goods):
        ranks = {"": 0, goods[0]: 1, "z": 1, f"{goods[0]},z": 2}
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "version": 1, "c": 3, "goods": list(goods),
            "agents": [{"matroid": {"type": "uniform", "cap": 1}},
                       {"matroid": {"type": "explicit", "rank": ranks}}],
        }), encoding="utf-8")
        assert main(["solve", str(inst)]) == 2
        assert capsys.readouterr().err == (
            f"error: agent 2: good {goods[0]!r} cannot appear in an explicit rank key\n"
        )

    @pytest.mark.parametrize("goods", [("x,y", "z"), ("", "z")], ids=["comma", "empty"])
    def test_emit_refuses_the_name(self, goods):
        valuation = BivaluedValuation(2, ExplicitMatroid(2, (0, 1, 1, 2)))
        with pytest.raises(ValidationError, match="cannot appear in an explicit rank key"):
            emit_instance(Instance(goods, 2, (valuation,)))

    @pytest.mark.parametrize("goods", [("x,y", "z"), ("", "z")], ids=["comma", "empty"])
    def test_other_matroids_keep_the_name(self, goods):
        valuation = BivaluedValuation(2, MarkedMatroid(2, frozenset({0})))
        data = emit_instance(Instance(goods, 2, (valuation,)))
        assert data["agents"][0]["matroid"]["marked"] == [goods[0]]
        assert emit_instance(parse_instance(data)) == data

    def test_legal_names_round_trip_through_a_file(self, tmp_path):
        table = (0, 1, 1, 1, 1, 2, 2, 2)  # goods 0 and 1 are parallel; good 2 is free
        valuation = BivaluedValuation(3, ExplicitMatroid(3, table))
        instance = Instance(("x y", "é", "-"), 3, (valuation,), ("t",))
        path = tmp_path / "inst.json"
        path.write_text(dumps_canonical(emit_instance(instance)), encoding="utf-8")
        assert load_instance(path) == instance


class TestGeneratedInstances:
    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="^unknown family 'ring'; pick one of "):
            random_instance("ring", 1, 1, 2, 0)

    def test_seeded_generation_is_byte_identical(self):
        for family in FAMILIES:
            a = dumps_canonical(emit_instance(random_instance(family, 3, 6, 2, 42)))
            b = dumps_canonical(emit_instance(random_instance(family, 3, 6, 2, 42)))
            assert a == b

    def test_partition_output_is_pinned(self):
        # The digest was taken from the generator that scanned all m goods per
        # part; grouping the drawn labels in one pass must give the same bytes.
        digest = hashlib.sha256()
        for seed in range(30):
            for n, m in ((1, 0), (2, 1), (3, 7), (5, 40), (20, 250), (40, 300)):
                instance = random_instance("partition", n, m, 2 + seed % 2, seed)
                digest.update(dumps_canonical(emit_instance(instance)).encode("utf-8"))
        assert digest.hexdigest() == (
            "e6025b85c5be6029e195956e75ed0ab13c778a3931a5560ef0ea8e45323d6fc8"
        )

    def test_marked_family_is_additive(self):
        instance = random_instance("marked", 2, 6, 3, 11)
        for i in instance.agents:
            matroid = instance.valuation(i).matroid
            for g in range(6):
                single = matroid.can_extend(frozenset(), g)
                rest = frozenset(h for h in range(6) if h != g)
                assert matroid.can_extend(rest - {g}, g) == single

    def test_some_transversal_draw_is_not_additive(self):
        # Additive rank would make a good's marginal independent of the
        # bundle; scan generated draws for a marginal that diminishes.
        def has_diminishing_marginal(matroid) -> bool:
            for mask in range(1 << matroid.m):
                subset = frozenset(g for g in range(matroid.m) if mask >> g & 1)
                for g in range(matroid.m):
                    if g in subset:
                        continue
                    if matroid.can_extend(frozenset(), g) and not matroid.can_extend(
                        subset, g
                    ):
                        return True
            return False

        assert any(
            has_diminishing_marginal(
                random_instance("transversal", 1, 5, 2, seed).valuation(1).matroid
            )
            for seed in range(25)
        ), "no generated transversal matroid showed diminishing rank"


class TestCli:
    def test_solve_leximin(self, tmp_path, capsys):
        path = _worked_example_file(tmp_path)
        assert main(["solve", str(path), "--criterion", "leximin"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sorted_utilities"] == [5, 5]

    def test_solve_mnw_with_trace_and_dot(self, tmp_path, capsys):
        path = _worked_example_file(tmp_path)
        trace = tmp_path / "trace.jsonl"
        dot = tmp_path / "graph.dot"
        code = main(
            [
                "solve", str(path), "--criterion", "mnw",
                "--trace", str(trace), "--dot", str(dot),
                "-o", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["utilities"] == [3, 15]
        lines = trace.read_text().strip().splitlines()
        assert all("gain_c" in json.loads(line) for line in lines)
        assert dot.read_text().startswith("digraph")

    def test_solve_rejects_coprime_pair(self, tmp_path, capsys):
        data = {
            "version": 1,
            "a": 3,
            "b": 7,
            "goods": ["x"],
            "agents": [{"matroid": {"type": "uniform", "cap": 1}}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "NP-hard" in capsys.readouterr().err

    def test_gen_then_solve_then_audit(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        assert main(
            ["gen", "--family", "partition", "--n", "2", "--m", "5",
             "--c", "2", "--seed", "3", "-o", str(inst)]
        ) == 0
        assert main(
            ["solve", str(inst), "--criterion", "leximin", "-o", str(alloc)]
        ) == 0
        assert main(
            ["audit", str(inst), str(alloc), "--mms",
             "--criterion-hint", "leximin", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(row["meets_threshold"] for row in report["mms"])

    def test_gen_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--family", "transversal", "--n", "2", "--m", "4",
                "--c", "3", "--seed", "9"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_oracle_check_passes(self, capsys):
        code = main(
            ["oracle-check", "--families", "marked", "uniform", "--count", "5",
             "--criteria", "mnw", "leximin", "pmean:-1", "--seed", "2"]
        )
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_oracle_check_reaches_ten_goods(self, capsys):
        # Seed 2 draws two 3-agent, 10-good instances: 4**10 assignments each.
        code = main(
            ["oracle-check", "--count", "2", "--max-n", "3", "--max-m", "10",
             "--criteria", "mnw", "leximin", "pmean:-1", "--seed", "2"]
        )
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_audit_flags_envy_violation(self, tmp_path, capsys):
        from bifair.io import emit_instance
        from conftest import capped_vs_additive_instance

        instance = capped_vs_additive_instance(3)
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        inst.write_text(dumps_canonical(emit_instance(instance)), encoding="utf-8")
        assert main(["solve", str(inst), "--criterion", "mnw", "-o", str(alloc)]) == 0
        assert main(["audit", str(inst), str(alloc), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ef1"] is False
        assert report["ef1_witness"] == [1, 2]

    def test_oracle_check_parallel(self, capsys):
        code = main(
            ["oracle-check", "--families", "partition", "--count", "6",
             "--criteria", "leximin", "--seed", "4", "--jobs", "2"]
        )
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs, count, processes", [
        ("64", "1", None), ("64", "3", 3), ("2", "3", 2),
    ], ids=["one-instance-inline", "pool-of-instances", "pool-of-jobs"])
    def test_oracle_check_pool_has_no_idle_workers(self, capsys, monkeypatch, jobs, count,
                                                   processes):
        # The stand-in pool records its size and runs the jobs inline: no process starts.
        import multiprocessing

        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, jobs):
                return [func(*job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        code = main(["oracle-check", "--families", "marked", "--count", count, "--max-m", "4",
                     "--criteria", "leximin", "--jobs", jobs])
        assert code == 0
        assert sizes == ([] if processes is None else [processes])
        assert f"checked {count} instances x 1 criteria" in capsys.readouterr().out

    def test_audit_size_limit_surfaces(self, tmp_path, capsys):
        # Five agents run; n = 3, m = 17 is over the DP's step cap.
        inst = tmp_path / "inst.json"
        alloc = tmp_path / "alloc.json"
        main(["gen", "--family", "partition", "--n", "5", "--m", "8",
              "--c", "2", "--seed", "1", "-o", str(inst)])
        main(["solve", str(inst), "-o", str(alloc)])
        capsys.readouterr()
        assert main(["audit", str(inst), str(alloc), "--mms", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["mms"]) == 5
        main(["gen", "--family", "marked", "--n", "3", "--m", "17",
              "--c", "2", "--seed", "1", "-o", str(inst)])
        main(["solve", str(inst), "-o", str(alloc)])
        capsys.readouterr()
        assert main(["audit", str(inst), str(alloc), "--mms"]) == 2
        assert "10000000 enumeration cap" in capsys.readouterr().err


class TestUnreadableFiles:
    @pytest.fixture
    def files(self, tmp_path):
        inst = _worked_example_file(tmp_path)
        alloc = tmp_path / "alloc.json"
        assert main(["solve", str(inst), "-o", str(alloc)]) == 0
        not_json = tmp_path / "notes.json"
        not_json.write_text("bundles: none", encoding="utf-8")
        return inst, alloc, not_json, tmp_path / "missing.json"

    def test_solve(self, files, capsys):
        _, _, not_json, missing = files
        for path in (missing, not_json):
            capsys.readouterr()
            assert main(["solve", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {path}")
            assert "Traceback" not in err

    def test_audit(self, files, capsys):
        inst, alloc, not_json, missing = files
        for pair in ((missing, alloc), (not_json, alloc), (inst, missing), (inst, not_json)):
            capsys.readouterr()
            assert main(["audit", str(pair[0]), str(pair[1])]) == 2
            assert capsys.readouterr().err.startswith("error: cannot read")


    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100_000, id="nested-past-decoder-depth"),
        pytest.param('{"version": 1, "c": ' + "9" * 5000 + "}", id="int-past-digit-limit"),
    ])
    def test_json_python_cannot_decode(self, files, capsys, text):
        inst, alloc, _, _ = files
        bad = inst.parent / "bad.json"
        bad.write_text(text, encoding="utf-8")
        for argv in (["solve", str(bad)], ["audit", str(bad), str(alloc)],
                     ["audit", str(inst), str(bad)]):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")


class TestLoadsPauseGarbageCollection:
    """Loads pause cyclic GC and leave it as the caller had it, on success or error."""

    @pytest.fixture
    def files(self, tmp_path):
        inst = _worked_example_file(tmp_path)
        alloc = tmp_path / "alloc.json"
        assert main(["solve", str(inst), "-o", str(alloc)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "c": 3, "goods": ["x"], "agents": []', encoding="utf-8")
        return inst, alloc, bad

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_good_loads(self, files, gc_state, monkeypatch):
        inst, alloc, _ = files
        seen = []
        parse = bifair.io.parse_instance
        monkeypatch.setattr(bifair.io, "parse_instance",
                            lambda data: seen.append(gc.isenabled()) or parse(data))
        instance = load_instance(inst)
        assert seen == [False]
        assert gc.isenabled() is gc_state
        load_allocation(alloc, instance)
        assert gc.isenabled() is gc_state

    def test_loads_that_raise(self, files, gc_state):
        inst, alloc, bad = files
        instance = load_instance(inst)
        for load in (lambda: load_instance(bad), lambda: load_allocation(bad, instance),
                     lambda: load_instance(alloc)):
            with pytest.raises(ValidationError):
                load()
            assert gc.isenabled() is gc_state

    def test_overlapping_loads_share_one_pause(self, files, gc_state, monkeypatch):
        # Load A starts first and ends first; load B, which began while GC
        # was already paused, must still leave it as the caller had it.
        inst, _, _ = files
        parse = bifair.io.parse_instance
        a_parsing, b_parsing, a_done = (threading.Event() for _ in range(3))
        seen = {}

        def parse_in_order(data):
            name = threading.current_thread().name
            if name == "A":
                a_parsing.set()
                assert b_parsing.wait(5)
            else:
                b_parsing.set()
                assert a_done.wait(5)
                seen["B after A"] = gc.isenabled()
            return parse(data)

        monkeypatch.setattr(bifair.io, "parse_instance", parse_in_order)

        def load_a():
            load_instance(inst)
            a_done.set()

        a = threading.Thread(target=load_a, name="A")
        b = threading.Thread(target=load_instance, args=(inst,), name="B")
        a.start()
        assert a_parsing.wait(5)
        b.start()
        a.join(10)
        b.join(10)
        assert seen == {"B after A": False}
        assert gc.isenabled() is gc_state


class TestUnwritableOutputs:
    @pytest.mark.parametrize("flag", ["-o", "--trace", "--dot"])
    def test_solve(self, tmp_path, capsys, flag):
        inst = _worked_example_file(tmp_path)
        target = tmp_path / "missing" / "out"
        assert main(["solve", str(inst), flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err

    def test_gen_and_audit(self, tmp_path, capsys):
        inst = _worked_example_file(tmp_path)
        alloc = tmp_path / "alloc.json"
        assert main(["solve", str(inst), "-o", str(alloc)]) == 0
        target = str(tmp_path / "missing" / "out")
        for argv in (
            ["gen", "--family", "marked", "--n", "2", "--m", "3", "--c", "2",
             "--seed", "1", "-o", target],
            ["audit", str(inst), str(alloc), "-o", target],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


class TestOracleCheckReports:
    """``--report-dir`` on a mismatch forced by inflating every solver utility."""

    ARGS = ["oracle-check", "--families", "marked", "--count", "1", "--criteria", "mnw"]

    @pytest.fixture(autouse=True)
    def inflated(self, monkeypatch):
        real = bifair.cli.solve

        def inflated_solve(*args, **kwargs):
            result = real(*args, **kwargs)
            return SolveResult(result.allocation, result.decomposition, result.trace,
                               tuple(u + 1 for u in result.utilities))

        monkeypatch.setattr(bifair.cli, "solve", inflated_solve)

    def test_mismatch_writes_an_artifact(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        assert main(self.ARGS + ["--report-dir", str(reports)]) == 1
        assert "1 mismatches" in capsys.readouterr().out
        assert [p.name for p in reports.iterdir()] == ["mismatch-0000.json"]
        artifact = json.loads((reports / "mismatch-0000.json").read_text(encoding="utf-8"))
        assert sorted(artifact) == [
            "criterion", "family", "index", "instance",
            "optimal_sorted_utilities", "solver_sorted_utilities",
        ]
        assert (artifact["family"], artifact["index"], artifact["criterion"]) == (
            "marked", 0, "mnw"
        )
        assert parse_instance(artifact["instance"]).n == len(
            artifact["solver_sorted_utilities"]
        )
        assert artifact["solver_sorted_utilities"] not in artifact["optimal_sorted_utilities"]
        text = (reports / "mismatch-0000.json").read_text(encoding="utf-8")
        assert text == json.dumps(artifact, indent=2, sort_keys=True) + "\n"

    def test_unwritable_report_dir(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "sub"
        assert main(self.ARGS + ["--report-dir", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err


def test_broken_invariant_exits_1(tmp_path, capsys, monkeypatch):
    def broken(instance, criterion):
        raise InternalInvariantError("bundle 1 unclean")

    monkeypatch.setattr(bifair.cli, "solve", broken)
    assert main(["solve", str(_worked_example_file(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "internal invariant violated: bundle 1 unclean\n"
    assert captured.out == ""


def test_options_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    inst, alloc = _two_additive_agents(tmp_path, 2, 1)
    assert main(["audit", str(inst), str(alloc), "--pmean", "0.5", "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["pmean"]) == ["0.5"]
    assert main(["audit", str(inst), str(alloc), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pmean"] == {}


class TestInputContract:
    """Wrongly typed fields exit 2 naming the agent; nothing is coerced."""

    @pytest.mark.parametrize("matroid", [
        pytest.param({"type": "uniform", "cap": "x"}, id="cap-string"),
        pytest.param({"type": "uniform", "cap": 1.7}, id="cap-float"),
        pytest.param({"type": "uniform", "cap": True}, id="cap-bool"),
        pytest.param({"type": "partition", "parts": [["g1"], ["g2"]], "caps": ["1", "1"]},
                     id="caps-strings"),
        pytest.param({"type": "partition", "parts": [["g1"]], "caps": 1}, id="caps-int"),
        pytest.param({"type": "partition", "parts": 5, "caps": [1]}, id="parts-int"),
        pytest.param({"type": "transversal", "slots": 1, "edges": [["g1", 0]]},
                     id="edges-list"),
        pytest.param({"type": "transversal", "slots": 1.0, "edges": {"g1": [0]}},
                     id="slots-float"),
        pytest.param({"type": "transversal", "slots": 1, "edges": {"g1": ["0"]}},
                     id="slot-id-string"),
        pytest.param({"type": "transversal", "slots": 1, "edges": {"g1": 0}},
                     id="slot-list-int"),
        pytest.param({"type": "explicit", "rank": [0, 1]}, id="rank-list"),
        pytest.param({"type": "explicit", "rank": {"": 0, "g1": 1.0}}, id="rank-float"),
        pytest.param({"type": "marked", "marked": 5}, id="marked-int"),
        pytest.param({"type": "marked", "marked": [["g1"]]}, id="marked-nested"),
    ])
    def test_bad_matroid_field(self, tmp_path, capsys, matroid):
        goods = ["g1"] if matroid["type"] == "explicit" else ["g1", "g2"]
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": goods,
            "agents": [{"matroid": {"type": "uniform", "cap": 1}}, {"matroid": matroid}],
        }, "error: agent 2: ")

    @pytest.mark.parametrize("matroid, message", [
        pytest.param({"type": "transversal", "slots": 1, "edges": {"g1": [1]}},
                     "good 0 adjacent to unknown slot", id="unknown-slot"),
        pytest.param({"type": "transversal", "slots": -1, "edges": {}},
                     "slot count must be non-negative", id="negative-slots"),
        pytest.param({"type": "uniform", "cap": -1},
                     "uniform matroid cap must be non-negative", id="negative-cap"),
        pytest.param({"type": "partition", "parts": [["g1"]], "caps": [-1]},
                     "partition matroid caps must be non-negative", id="negative-caps"),
        pytest.param({"type": "partition", "parts": [["g1"], ["g1", "g2"]], "caps": [1, 1]},
                     "good 0 appears in two parts", id="good-in-two-parts"),
        pytest.param({"type": "partition", "parts": [["g1", "g1"], ["g2", "g1"]], "caps": [1, 1]},
                     "good 0 appears in two parts", id="good-twice-in-a-part-then-in-another"),
        pytest.param({"type": "partition", "parts": [["g1"], ["g2"]], "caps": [1]},
                     "partition matroid needs one cap per part", id="cap-count"),
    ])
    def test_matroid_constructor_error_names_the_agent(self, tmp_path, capsys, matroid,
                                                        message):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": ["g1", "g2"], "agents": [{"matroid": matroid}],
        }, f"error: agent 1: {message}\n")

    @pytest.mark.parametrize("agents, prefix", [
        pytest.param(
            [{"matroid": {"type": "explicit",
                          "rank": {"": 0, "x": 0, "y": 0, "x,y": 1}}}],
            "error: agent 1: explicit rank table breaks submodularity at subset {} "
            "with goods {x,y}: ",
            id="not-submodular"),
        pytest.param(
            [{"matroid": {"type": "uniform", "cap": 1}},
             {"matroid": {"type": "explicit",
                          "rank": {"": 0, "x": 1, "y": 0, "x,y": 2}}}],
            "error: agent 2: explicit rank table breaks submodularity at subset {} "
            "with goods {x,y}: ",
            id="marginal-of-two"),
    ])
    def test_explicit_table_breaking_an_axiom(self, tmp_path, capsys, agents, prefix):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": ["x", "y"], "agents": agents,
        }, prefix)

    @pytest.mark.parametrize("rank, prefix", [
        pytest.param({"": 0, "x": 0, "x,x": 1},
                     "error: agent 1: rank key 'x,x' names a good twice", id="good-twice"),
        pytest.param({"": 0, "x": 1, "x,": 0},
                     "error: agent 1: rank keys 'x' and 'x,' name the same subset",
                     id="same-subset"),
    ])
    def test_explicit_keys_never_overwrite(self, tmp_path, capsys, rank, prefix):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": ["x"],
            "agents": [{"matroid": {"type": "explicit", "rank": rank}}],
        }, prefix)

    @pytest.mark.parametrize("name", [5, [1], None], ids=["int", "list", "null"])
    def test_agent_name_must_be_a_string(self, tmp_path, capsys, name):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": ["x"],
            "agents": [{"name": name, "matroid": {"type": "marked", "marked": ["x"]}}],
        }, "error: agent 1: name must be a string")

    @pytest.mark.parametrize("a, b", [(True, 2), (1, True)], ids=["a", "b"])
    def test_value_pair_bool_rejected(self, tmp_path, capsys, a, b):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "a": a, "b": b, "goods": ["x"],
            "agents": [{"matroid": {"type": "marked", "marked": ["x"]}}],
        }, "error: need integers 0 < a < b")

    @pytest.mark.parametrize("goods", ["abc", [1, 2], None],
                             ids=["string", "ints", "null"])
    def test_goods_must_be_a_list_of_strings(self, tmp_path, capsys, goods):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": goods,
            "agents": [{"matroid": {"type": "uniform", "cap": 1}}],
        }, "error: instance: goods must be a list")

    def test_incomplete_explicit_table(self, tmp_path, capsys):
        self._solve_rejects(tmp_path, capsys, {
            "version": 1, "c": 3, "goods": ["x", "y"],
            "agents": [{"matroid": {"type": "uniform", "cap": 1}},
                       {"matroid": {"type": "explicit", "rank": {"": 0, "x": 1, "y": 1}}}],
        }, "error: agent 2: explicit table has 3 of 4 subsets\n")

    def test_explicit_table_past_twenty_goods_builds_no_table(self, tmp_path, capsys):
        data = {
            "version": 1, "c": 3, "goods": [f"g{g}" for g in range(21)],
            "agents": [{"matroid": {"type": "explicit", "rank": {"": 0}}}],
        }
        tracemalloc.start()
        try:
            self._solve_rejects(
                tmp_path, capsys, data,
                "error: agent 1: explicit rank tables support at most 20 goods, got 21\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # the 2^21 entries of a table would take 16 MiB

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"agents": [{"matroid": {"type": "transversal", "slots": 1,
                                              "edges": {"q": [0]}}}]},
                     "error: agent 1: unknown good 'q' in edges\n", id="unknown-edge-good"),
        pytest.param({"version": 2}, "error: unsupported instance version 2\n",
                     id="version-2"),
        pytest.param({"a": 1, "b": 3}, "error: give either c or the pair a/b, not both\n",
                     id="c-and-pair"),
    ])
    def test_instance_refusal(self, tmp_path, capsys, fields, message):
        data = {"version": 1, "c": 3, "goods": ["x"],
                "agents": [{"matroid": {"type": "marked", "marked": ["x"]}}], **fields}
        self._solve_rejects(tmp_path, capsys, data, message)

    @pytest.mark.parametrize("version", [1.0, True], ids=["float", "bool"])
    def test_version_must_be_an_integer(self, tmp_path, capsys, version):
        inst, alloc = _two_additive_agents(tmp_path, 1, 1)
        for path, where in ((inst, "instance"), (alloc, "allocation")):
            good = path.read_text(encoding="utf-8")
            path.write_text(json.dumps({**json.loads(good), "version": version}),
                            encoding="utf-8")
            capsys.readouterr()
            assert main(["audit", str(inst), str(alloc)]) == 2
            assert capsys.readouterr().err == (
                f"error: {where}: version must be an integer, got {version!r}\n"
            )
            path.write_text(good, encoding="utf-8")

    @staticmethod
    def _solve_rejects(tmp_path, capsys, data, prefix):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert "Traceback" not in err


def _two_additive_agents(tmp_path, first: int, second: int):
    """Instance and allocation files: two additive agents, c = 3, holding
    ``first`` and ``second`` goods, so their utilities are 3x those counts."""
    goods = [f"g{g}" for g in range(first + second)]
    everything = {"type": "marked", "marked": goods}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "version": 1, "c": 3, "goods": goods,
        "agents": [{"matroid": everything}, {"matroid": everything}],
    }), encoding="utf-8")
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({
        "version": 1, "unallocated": [],
        "bundles": [goods[:first], goods[first:]],
    }), encoding="utf-8")
    return inst, alloc


class TestCriterionParameters:
    def test_solve_rejects_non_finite_p(self, tmp_path, capsys):
        path = _worked_example_file(tmp_path)
        for p in ("nan", "inf", "-inf"):
            assert main(["solve", str(path), "--criterion", "pmean", f"--p={p}"]) == 2
            assert "finite" in capsys.readouterr().err

    def test_oracle_check_rejects_a_bad_p_token(self, capsys):
        assert main(["oracle-check", "--count", "1", "--criteria", "pmean:x"]) == 2
        assert "pmean:x" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--count", "--max-n", "--max-m"])
    @pytest.mark.parametrize("bound", ["0", "-1", "-3"])
    def test_oracle_check_rejects_an_empty_size_range(self, capsys, flag, bound):
        assert main(["oracle-check", "--count", "1", flag, bound]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be at least 1, got {bound}\n"
        assert captured.out == ""

    def test_audit_rejects_non_finite_p(self, tmp_path, capsys):
        inst, alloc = _two_additive_agents(tmp_path, 2, 1)
        assert main(["audit", str(inst), str(alloc), "--pmean", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_audit_refuses_p_whose_powers_overflow(self, tmp_path, capsys):
        # Utilities (9, 9): -1e308 * log 9 is -inf, so the welfare read NaN.
        inst, alloc = _two_additive_agents(tmp_path, 3, 3)
        assert main(["audit", str(inst), str(alloc), "--pmean=-1e308", "--json"]) == 2
        captured = capsys.readouterr()
        assert "|p| <= 1e+300" in captured.err
        assert captured.out == ""

    def test_audit_pmean_at_strongly_negative_p(self, tmp_path, capsys):
        # Utilities (24, 12): 12**-300 underflows a float power sum to 0.
        inst, alloc = _two_additive_agents(tmp_path, 8, 4)
        assert main(["audit", str(inst), str(alloc), "--pmean", "-300", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["utilities"] == [24, 12]
        assert report["pmean"]["-300.0"] == pytest.approx(12 * 2 ** (1 / 300), rel=1e-12)

    @pytest.mark.parametrize("command", ["solve", "oracle-check"])
    def test_p_whose_powers_overflow_exits_2(self, tmp_path, capsys, command):
        # p * log u overflows to -inf from u = 6 on; brute force then read nan.
        if command == "solve":
            args = ["solve", str(_worked_example_file(tmp_path)),
                    "--criterion", "pmean", "--p=-1e308"]
        else:
            args = ["oracle-check", "--count", "1", "--criteria", "pmean:-1e308"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "|p| <= 1e+300" in captured.err
        assert captured.out == ""

    def test_p_at_the_bound_matches_brute_force(self, capsys):
        code = main(["oracle-check", "--count", "40", "--max-n", "3", "--max-m", "8",
                     "--criteria", "pmean:-1e300", "pmean:1e-300"])
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_negative_p_in_scientific_notation_takes_the_equals_form(self, tmp_path, capsys):
        # argparse on Python 3.10 and 3.11 reads "-1e-3" after "--p " as an option.
        path = _worked_example_file(tmp_path)
        assert main(["solve", str(path), "--criterion", "pmean", "--p=-1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["criterion"] == "pmean[p=-0.001]"

    @pytest.mark.parametrize("criterion", ["mnw", "leximin"])
    def test_solve_refuses_p_for_other_criteria(self, tmp_path, capsys, criterion):
        path = _worked_example_file(tmp_path)
        assert main(["solve", str(path), "--criterion", criterion, "--p", "0.5"]) == 2
        assert "only pmean takes a p value" in capsys.readouterr().err


class TestNoSilentOptions:
    """Options that would be ignored, or sizes no instance has, exit 2."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, m", [(2, -1), (0, 3), (-1, 3)])
    def test_gen_rejects_impossible_sizes(self, capsys, family, n, m):
        args = ["gen", "--family", family, "--n", str(n), "--m", str(m),
                "--c", "2", "--seed", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: need n >= 1 agents and m >= 0 goods, got n={n}, m={m}\n"
        )
        assert captured.out == ""

    def test_audit_criterion_hint_needs_mms(self, tmp_path, capsys):
        inst, alloc = _two_additive_agents(tmp_path, 2, 1)
        args = ["audit", str(inst), str(alloc), "--criterion-hint", "mnw"]
        assert main(args) == 2
        assert "--mms" in capsys.readouterr().err
        assert main(args + ["--mms"]) == 0

    def test_oracle_check_rejects_an_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle-check", "--count", "1", "--families", "marked", "ring"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'ring'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_oracle_check_rejects_fewer_than_one_job(self, capsys, jobs):
        assert main(["oracle-check", "--count", "1", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert captured.out == ""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)

_VALID_INSTANCE = {
    "version": 1, "c": 3, "goods": ["x", "y", "z"],
    "agents": [
        {"name": "m", "matroid": {"type": "marked", "marked": ["x"]}},
        {"matroid": {"type": "uniform", "cap": 1}},
        {"matroid": {"type": "partition", "parts": [["x", "y"], ["z"]], "caps": [1, 1]}},
        {"matroid": {"type": "transversal", "slots": 2, "edges": {"x": [0], "y": [0, 1]}}},
        {"matroid": {"type": "explicit", "rank": {
            "": 0, "x": 1, "y": 1, "z": 1, "x,y": 2, "x,z": 2, "y,z": 2, "x,y,z": 2,
        }}},
    ],
}
_VALID_ALLOCATION = {"version": 1, "unallocated": ["z"], "bundles": [["x"], ["y"], [], [], []]}


def _json_paths(value, path=()):
    """Every path from the root of a decoded JSON value to a node in it."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, path + (key,))


@st.composite
def _mutated(draw, base):
    """``base`` with one to three nodes deleted or replaced by arbitrary JSON."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        if not path:
            data = draw(_JSON)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON)
    return data


@st.composite
def _restated(draw):
    """A ``random_instance`` file restated without changing what it asks.

    Goods may be renamed consistently, agents reordered, and ``c`` given as
    a pair ``a``/``b``.
    """
    family = draw(st.sampled_from(FAMILIES))
    n, m, c = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(2, 4))
    instance = random_instance(family, n, m, c, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        names = draw(st.lists(st.text(max_size=3), min_size=m, max_size=m, unique=True))
        instance = Instance(tuple(names), instance.c, instance.valuations,
                            instance.agent_names, instance.scale)
    data = emit_instance(instance)
    data["agents"] = draw(st.permutations(data["agents"]))
    if draw(st.booleans()):
        a = draw(st.integers(1, 5))
        del data["c"]
        data["a"], data["b"] = a, a * c
    return data


class TestFuzzedInputs:
    """Whatever JSON an input file holds, solve and audit exit 0 or 2."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=_JSON | _mutated(_VALID_INSTANCE),
           allocation=_JSON | _mutated(_VALID_ALLOCATION))
    def test_exit_code_is_zero_or_two(self, tmp_path, capsys, instance, allocation):
        files = {}
        for name, data in (("inst", _VALID_INSTANCE), ("alloc", _VALID_ALLOCATION),
                           ("fuzzed-inst", instance), ("fuzzed-alloc", allocation)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(data), encoding="utf-8")
        for argv in (
            ["solve", files["fuzzed-inst"]],
            ["audit", files["fuzzed-inst"], files["alloc"], "--mms"],
            ["audit", files["inst"], files["fuzzed-alloc"], "--mms"],
        ):
            assert main([str(arg) for arg in argv]) in (0, 2), argv
        capsys.readouterr()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=_restated())
    def test_restated_valid_files_solve_and_audit(self, tmp_path, capsys, instance):
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        inst.write_text(json.dumps(instance), encoding="utf-8")
        assert main(["solve", str(inst), "-o", str(alloc)]) == 0
        assert main(["audit", str(inst), str(alloc), "--mms"]) == 0
        capsys.readouterr()
