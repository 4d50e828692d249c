"""Allocations, clean/supplementary decompositions, and vector comparisons.

An allocation is an (n+1)-partition of the goods; bundle 0 holds whatever is
unallocated. A decomposition splits each agent's bundle into the clean part
(every good contributes the high value c) and the supplementary part (goods
contributing 1). Decompositions are not unique; the greedy one built here
scans goods in ascending id order so results are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError, ValidationError
from .record import Record
from .valuation import GoodSet, Instance

DOMINATES = "dominates"
DOMINATED = "dominated"
INCOMPARABLE_EQUAL = "incomparable-equal"


class Allocation(Record):
    """Bundles indexed 0..n; bundle 0 is the unallocated pool."""

    __slots__ = _fields = ("bundles",)

    def __init__(self, bundles: tuple[GoodSet, ...]) -> None:
        self._setslots(bundles)

    def bundle(self, i: int) -> GoodSet:
        return self.bundles[i]

    @staticmethod
    def from_bundles(instance: Instance, bundles: Sequence[Iterable[int]]) -> "Allocation":
        """Build and validate an allocation from per-index good collections."""
        frozen = tuple(frozenset(b) for b in bundles)
        if len(frozen) != instance.n + 1:
            raise ValidationError(
                f"expected {instance.n + 1} bundles, got {len(frozen)}"
            )
        seen: set[int] = set()
        for bundle in frozen:
            if bundle & seen:
                raise ValidationError("bundles overlap")
            seen |= bundle
        if seen != set(range(instance.m)):
            raise ValidationError("bundles must partition the goods")
        return Allocation(frozen)


class Decomposition(Record):
    """Clean and supplementary parts of an allocation.

    ``clean`` has n+1 bundles with ``clean[0]`` covering every good outside
    the agents' clean parts (so the clean bundles alone partition the goods).
    ``supplementary`` is indexed the same way for convenience;
    ``supplementary[0]`` is always empty.
    """

    __slots__ = _fields = ("clean", "supplementary")

    def __init__(self, clean: tuple[GoodSet, ...], supplementary: tuple[GoodSet, ...]) -> None:
        self._setslots(clean, supplementary)

    def union(self) -> Allocation:
        """Recombine the two parts into the allocation they decompose."""
        bundles = [self.clean[i] | self.supplementary[i] for i in range(len(self.clean))]
        allocated = frozenset().union(*bundles[1:])
        bundles[0] = frozenset().union(*self.clean) - allocated
        return Allocation(tuple(bundles))


def decompose(instance: Instance, allocation: Allocation) -> Decomposition:
    """Split each bundle into a maximum clean part plus a supplementary rest.

    Goods are considered in ascending id order; because the high-value goods
    of a bundle form a matroid's independent sets, the greedy clean part
    always reaches size ``rank_i(X_i)``.
    """
    clean: list[GoodSet] = [frozenset()]
    supplementary: list[GoodSet] = [frozenset()]
    for i in instance.agents:
        matroid = instance.valuation(i).matroid
        kept: set[int] = set()
        for g in sorted(allocation.bundle(i)):
            if matroid.can_extend(frozenset(kept), g):
                kept.add(g)
        clean.append(frozenset(kept))
        supplementary.append(allocation.bundle(i) - kept)
    clean[0] = frozenset(range(instance.m)).difference(*clean[1:])
    return Decomposition(tuple(clean), tuple(supplementary))


def utility_vector(instance: Instance, allocation: Allocation) -> tuple[int, ...]:
    """Per-agent utilities ``(v_1(X_1), ..., v_n(X_n))``."""
    return tuple(instance.value(i, allocation.bundle(i)) for i in instance.agents)


def sorted_utility_vector(instance: Instance, allocation: Allocation) -> tuple[int, ...]:
    return tuple(sorted(utility_vector(instance, allocation)))


def compare_lex(x: Sequence, y: Sequence) -> int:
    """First-differing-coordinate order; -1, 0 or 1."""
    if len(x) != len(y):
        raise ValidationError("vectors must have equal length")
    for a, b in zip(x, y):
        if a != b:
            return 1 if a > b else -1
    return 0


def compare_domination(x: Sequence[tuple[int, int]], y: Sequence[tuple[int, int]]) -> str:
    """Three-stage order on each agent's ``(clean size, utility)`` pair.

    Sorted clean sizes decide first, then clean sizes agent by agent, then
    utilities agent by agent. Every valid decomposition of a bundle has a
    clean part of size rank_i(X_i), so the verdict does not depend on which
    decompositions were picked. Returns ``"dominates"`` when ``x`` beats
    ``y``, ``"dominated"`` for the reverse, and ``"incomparable-equal"``
    when all three stages tie.
    """
    x_clean = [size for size, _ in x]
    y_clean = [size for size, _ in y]
    order = compare_lex(sorted(x_clean), sorted(y_clean))
    if order == 0:
        order = compare_lex(x_clean, y_clean)
    if order == 0:
        order = compare_lex([u for _, u in x], [u for _, u in y])
    if order > 0:
        return DOMINATES
    if order < 0:
        return DOMINATED
    return INCOMPARABLE_EQUAL


def check_decomposition(
    instance: Instance, allocation: Allocation, decomposition: Decomposition
) -> None:
    """Verify the defining decomposition properties; raise on any breach."""
    for i in instance.agents:
        clean_i = decomposition.clean[i]
        supp_i = decomposition.supplementary[i]
        bundle = allocation.bundle(i)
        valuation = instance.valuation(i)
        if not (clean_i <= bundle and supp_i <= bundle):
            raise PreconditionError(f"decomposition parts of agent {i} leave the bundle")
        if clean_i & supp_i:
            raise PreconditionError(f"clean and supplementary parts of agent {i} overlap")
        if clean_i | supp_i != bundle:
            raise PreconditionError(f"decomposition of agent {i} misses goods")
        if len(clean_i) != valuation.rank(bundle):
            raise PreconditionError(
                f"clean part of agent {i} has size {len(clean_i)}, "
                f"expected rank {valuation.rank(bundle)}"
            )
        if not valuation.is_clean(clean_i):
            raise PreconditionError(f"clean part of agent {i} is not clean")
