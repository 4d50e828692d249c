"""The value-object contract of every record type: equality, hashing,
immutability, pickling, copying and repr."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from bifair.allocation import Allocation, Decomposition
from bifair.audit import AuditReport, MmsRatioRow
from bifair.errors import BifairError, FrozenInstanceError
from bifair.exchange import ExchangeGraph
from bifair.oracle import BruteForceResult, CertificationVerdict
from bifair.solver import Leximin, SolveResult, SolveTrace, solve
from bifair.valuation import (
    AxiomViolation,
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
)


def _instance() -> Instance:
    matroids = (MarkedMatroid(3, frozenset({0, 2})),
                PartitionMatroid(3, (0, 0, 1), (1, 0)))
    return Instance(("a", "b", "c"), 3, tuple(BivaluedValuation(3, m) for m in matroids),
                    ("ann", "bo"), 2)


def _solved() -> SolveResult:
    return solve(_instance(), Leximin(3))


# Each factory builds a fresh object from fresh, equal arguments.
FROZEN = {
    "UniformMatroid": lambda: UniformMatroid(4, 2),
    "PartitionMatroid": lambda: PartitionMatroid(3, (0, 0, -1), (1,)),
    "MarkedMatroid": lambda: MarkedMatroid(3, frozenset({1})),
    "TransversalMatroid": lambda: TransversalMatroid(2, 1, (frozenset({0}), frozenset())),
    "ExplicitMatroid": lambda: ExplicitMatroid(1, (0, 1)),
    "BivaluedValuation": lambda: BivaluedValuation(2, UniformMatroid(2, 1)),
    "Instance": _instance,
    "AxiomViolation": lambda: AxiomViolation("submodularity", (0,), (1, 2), "detail"),
    "Allocation": lambda: Allocation((frozenset(), frozenset({0}), frozenset({1}))),
    "Decomposition": lambda: Decomposition((frozenset({1}), frozenset({0})),
                                           (frozenset(), frozenset({1}))),
    "SolveResult": _solved,
    "MmsRatioRow": lambda: MmsRatioRow(1, 3, 2, Fraction(3, 2), Fraction(2, 5), True),
    "AuditReport": lambda: AuditReport((3, 4), 2, 12, 7, {-1.0: 3.4}, True, None,
                                       False, (1, 2, 0), None),
    "BruteForceResult": lambda: BruteForceResult(frozenset({(3, 4), (4, 3)})),
    "CertificationVerdict": lambda: CertificationVerdict(True, "optimal and undominated"),
}
MUTABLE = {
    "ExchangeGraph": lambda: ExchangeGraph(_instance(), _solved().decomposition.clean),
    "SolveTrace": lambda: _solved().trace,
}
# Classes holding a list or dict field hash as that field does: not at all.
UNHASHABLE_FIELDS = {"SolveResult", "AuditReport"}
# Instance's last fields have defaults, so one value fewer still builds one.
DEFAULTED_FIELDS = {"Instance"}


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
class TestContract:
    def _make(self, name):
        return {**FROZEN, **MUTABLE}[name]()

    def test_equal_arguments_give_equal_objects(self, name):
        a, b = self._make(name), self._make(name)
        assert type(a).__name__ == name
        assert a == b and not a != b and a is not b
        assert not hasattr(a, "__dict__")
        if name in MUTABLE or name in UNHASHABLE_FIELDS:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_a_changed_field_breaks_equality(self, name):
        a, b = self._make(name), self._make(name)
        field = a._fields[-1]
        object.__setattr__(b, field, "changed")
        assert a != b

    def test_assignment(self, name):
        obj = self._make(name)
        field = obj._fields[0]
        if name in MUTABLE:
            value = getattr(obj, field)
            setattr(obj, field, value)
            assert getattr(obj, field) is value
            return
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.undeclared = None
        with pytest.raises(FrozenInstanceError):
            delattr(obj, field)

    def test_pickle_and_copies_round_trip(self, name):
        obj = self._make(name)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj

    def test_fields_build_it_by_position_or_by_name(self, name):
        if name in MUTABLE:
            pytest.skip("the constructor contract covers frozen records only")
        obj = self._make(name)
        cls, fields, values = type(obj), obj._fields, obj._values()
        assert cls(*values) == obj
        assert cls(**dict(zip(fields, values))) == obj
        assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == obj
        bad_calls = [((*values, None), {}),
                     (values, {"undeclared": None}),
                     (values, {fields[0]: values[0]})]
        if name not in DEFAULTED_FIELDS:
            bad_calls.append((values[:-1], {}))
        for args, named in bad_calls:
            with pytest.raises(TypeError):
                cls(*args, **named)

    def test_repr_names_the_class_and_its_fields(self, name):
        obj = self._make(name)
        text = repr(obj)
        assert text.startswith(f"{name}({obj._fields[0]}=") and text.endswith(")")
        for field in obj._fields:
            assert f"{field}={getattr(obj, field)!r}" in text


def test_instance_stores_its_derived_sizes():
    instance = _instance()
    assert instance.m == len(instance.goods) == 3
    assert instance.n == len(instance.valuations) == 2
    assert instance.agents == range(1, instance.n + 1)
    assert "agents=" not in repr(instance)
    twin = copy.deepcopy(instance)
    assert (twin.m, twin.n, twin.agents) == (3, 2, range(1, 3))


def test_instance_keeps_its_keyword_defaults():
    instance = Instance(goods=("a",), c=2,
                        valuations=(BivaluedValuation(2, UniformMatroid(1, 1)),))
    assert (instance.agent_names, instance.scale) == (("agent1",), 1)


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)
    assert issubclass(FrozenInstanceError, BifairError)
