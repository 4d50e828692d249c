"""Exhaustive ground-truth engines for small instances.

These compute exact optima and certify solver outputs independently of the
solver's own machinery; the size caps keep them to desk scale.

Optima range over complete allocations only. Every good adds 1 or c to
whoever holds it, so an allocation that leaves a good in the pool is
strictly Pareto-dominated by handing that good to any agent. Each
criterion's ``key`` is strictly monotone, so a dominated vector is
never an optimum and dropping the pool loses nothing; the solver returns
complete allocations anyway. (P-mean's log tie tolerance can let a
dominated vector tie an optimum, but it is never an exact one.)

The distinct utility vectors come from a DP over used-goods bitmasks, on
per-agent bundle value tables: each agent but the last two in turn takes
every subset of the goods still free. Then one pair pass per used mask
splits the free goods between the last two agents, every subset S to the
second-to-last and the rest to the last, collects the distinct value pairs
and joins them to the mask's prefixes. The tables come from each matroid's
``rank_table``, which explicit matroids store and the other families build
in closed form, so no table asks ``rank``. Prefixes that reach the same used
mask with the same utilities are merged, which is what saves work over
walking every assignment. Its size limit counts its own steps: n * 2^m table
entries plus one step per prefix per submask taken, the pair pass included.
It refuses up front when the least that count can be is over the cap, and
stops once the running count passes it. The engines that do walk every
assignment are limited by the (n+1)^m count.

Every criterion's key depends only on the sorted utilities, so the optimum
search scores each sorted vector once and keeps all of its permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .allocation import (
    DOMINATES,
    Allocation,
    Decomposition,
    compare_domination,
    utility_vector,
)
from .errors import SizeLimitError
from .solver import Criterion, SolveResult
from .valuation import Instance, bundle_value_table

ENUMERATION_CAP = 10**7
CERTIFY_MAX_GOODS = 6


def _check_cap(total: int, what: str) -> None:
    if total > ENUMERATION_CAP:
        raise SizeLimitError(
            f"{total} {what} exceed the {ENUMERATION_CAP} enumeration cap"
        )


def _check_assignments(instance: Instance) -> None:
    _check_cap((instance.n + 1) ** instance.m, "assignments")


def _least_dp_steps(instance: Instance) -> int:
    """The subset DP's step count can be no less than this.

    The tables hold n * 2^m entries. The first agent takes the 2^m submasks
    of the full mask; every later agent but the last sees each used mask with
    at least one prefix, and 2^|free| summed over all masks is 3^m.
    """
    n, m = instance.n, instance.m
    if n == 1:
        return 2**m
    return (n + 1) * 2**m + (n - 2) * 3**m


def enumerate_allocations(instance: Instance) -> Iterator[Allocation]:
    """Every assignment of goods to the pool or an agent, in mixed-radix order.

    Good g is the g-th digit, base n+1, least significant last; digit value
    is the receiving bundle index.
    """
    _check_assignments(instance)
    n, m = instance.n, instance.m
    for digits in itertools.product(range(n + 1), repeat=m):
        bundles: list[set[int]] = [set() for _ in range(n + 1)]
        for g, owner in enumerate(digits):
            bundles[owner].add(g)
        yield Allocation(tuple(frozenset(b) for b in bundles))


def _all_utility_vectors(instance: Instance) -> set[tuple[int, ...]]:
    """Distinct utility vectors over all complete allocations, by subset DP.

    Agents 1 .. n-2 take layers of submasks; the last two share one pair pass
    per used mask, so no layer is kept for agent n - 1.
    """
    _check_cap(_least_dp_steps(instance), "subset DP steps")
    n, m = instance.n, instance.m
    full = (1 << m) - 1
    tables = [bundle_value_table(instance.valuation(i)) for i in instance.agents]
    if n == 1:
        return {(tables[0][full],)}
    steps = n << m
    # used-goods mask -> distinct utility prefixes of the agents served so far
    layer: dict[int, set[tuple[int, ...]]] = {0: {()}}
    for table in tables[:-2]:
        grown: dict[int, set[tuple[int, ...]]] = {}
        for used, prefixes in layer.items():
            rest = full ^ used
            steps += len(prefixes) << rest.bit_count()
            _check_cap(steps, "subset DP steps")
            s = rest
            while True:
                value = table[s]
                grown.setdefault(used | s, set()).update(
                    prefix + (value,) for prefix in prefixes
                )
                if not s:
                    break
                s = (s - 1) & rest
        layer = grown
    second, last = tables[-2:]
    vectors: set[tuple[int, ...]] = set()
    for used, prefixes in layer.items():
        rest = full ^ used
        steps += len(prefixes) << rest.bit_count()
        _check_cap(steps, "subset DP steps")
        pairs = set()
        s = rest
        while True:
            pairs.add((second[s], last[rest ^ s]))
            if not s:
                break
            s = (s - 1) & rest
        vectors.update(prefix + pair for prefix in prefixes for pair in pairs)
    return vectors


@dataclass(frozen=True)
class BruteForceResult:
    """All criterion-optimal utility vectors of an instance."""

    optimal_vectors: frozenset[tuple[int, ...]]

    @property
    def sorted_optima(self) -> frozenset[tuple[int, ...]]:
        return frozenset(tuple(sorted(v)) for v in self.optimal_vectors)

    @property
    def best_sorted(self) -> tuple[int, ...]:
        """Lexicographically largest sorted optimum (the leximin one)."""
        return max(self.sorted_optima)

    def matches(self, sorted_utilities: Sequence[int]) -> bool:
        return tuple(sorted_utilities) in self.sorted_optima


def brute_force_optimum(instance: Instance, criterion: Criterion) -> BruteForceResult:
    """Criterion optimum over every complete allocation."""
    return _optimum_of(instance, criterion, _all_utility_vectors(instance))


def _optimum_of(
    instance: Instance,
    criterion: Criterion,
    vectors: set[tuple[int, ...]],
) -> BruteForceResult:
    """Criterion optimum over ``vectors``, one key per sorted vector."""
    return _best_groups(criterion, _sorted_groups(vectors))


def _sorted_groups(
    vectors: set[tuple[int, ...]],
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The vectors grouped by their sorted utilities, in ascending order."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for vec in vectors:
        groups.setdefault(tuple(sorted(vec)), []).append(vec)
    return sorted(groups.items())


def _best_groups(
    criterion: Criterion,
    groups: list[tuple[tuple[int, ...], list[tuple[int, ...]]]],
) -> BruteForceResult:
    """Scores each sorted vector once; a group that wins or ties brings every
    permutation of it into the optima."""
    best = None
    ties: set[tuple[int, ...]] = set()
    for sorted_vec, vecs in groups:
        key = criterion.key(sorted_vec)
        order = 1 if best is None else criterion.compare_keys(key, best)
        if order > 0:
            best, ties = key, set(vecs)
        elif order == 0:
            ties.update(vecs)
    return BruteForceResult(frozenset(ties))


def brute_force_optima(
    instance: Instance, criteria: Sequence[Criterion]
) -> list[BruteForceResult]:
    """One enumeration and one grouping of utility vectors shared across
    several criteria."""
    groups = _sorted_groups(_all_utility_vectors(instance))
    return [_best_groups(criterion, groups) for criterion in criteria]


def enumerate_decompositions(
    instance: Instance, allocation: Allocation
) -> Iterator[Decomposition]:
    """Every valid clean/supplementary split of an allocation.

    Per agent, every maximum-size clean subset of the bundle is a valid
    clean part; the decompositions are their cartesian product.
    """
    per_agent: list[list[frozenset[int]]] = []
    for i in instance.agents:
        bundle = sorted(allocation.bundle(i))
        valuation = instance.valuation(i)
        target = valuation.rank(frozenset(bundle))
        options = [
            frozenset(combo)
            for combo in itertools.combinations(bundle, target)
            if valuation.is_clean(frozenset(combo))
        ]
        per_agent.append(options)
    everything = frozenset(range(instance.m))
    for choice in itertools.product(*per_agent):
        clean = (everything.difference(*choice),) + choice
        supplementary = (frozenset(),) + tuple(
            allocation.bundle(i) - choice[i - 1] for i in instance.agents
        )
        yield Decomposition(clean, supplementary)


@dataclass(frozen=True)
class CertificationVerdict:
    ok: bool
    reason: str


def certify_dominating(
    instance: Instance,
    result: SolveResult,
    criterion: Criterion,
) -> CertificationVerdict:
    """Certify a solver output as an undominated criterion optimum.

    Confirms the output's utility vector is criterion-optimal, then checks
    that no other optimal allocation, under any of its valid decompositions,
    beats the output under the three-stage domination order. Exhaustive in
    both allocations and decompositions, hence the tight size cap.
    """
    if instance.m > CERTIFY_MAX_GOODS:
        raise SizeLimitError(
            f"certification enumerates decompositions and is limited to "
            f"m <= {CERTIFY_MAX_GOODS} goods"
        )
    _check_assignments(instance)
    criterion = criterion.bind(instance)
    own_utilities = utility_vector(instance, result.allocation)
    own_key = criterion.key(own_utilities)
    own = (result.allocation, result.decomposition)
    for other in enumerate_allocations(instance):
        other_utilities = utility_vector(instance, other)
        order = criterion.compare_keys(criterion.key(other_utilities), own_key)
        if order > 0:
            return CertificationVerdict(
                False,
                f"allocation with utilities {other_utilities} beats the "
                f"output's {own_utilities}",
            )
        if order < 0 or other.bundles == result.allocation.bundles:
            continue
        for decomposition in enumerate_decompositions(instance, other):
            verdict = compare_domination(instance, (other, decomposition), own)
            if verdict == DOMINATES:
                return CertificationVerdict(
                    False,
                    f"optimal allocation {sorted(map(sorted, other.bundles))} "
                    f"dominates the output",
                )
    return CertificationVerdict(True, "optimal and undominated")
