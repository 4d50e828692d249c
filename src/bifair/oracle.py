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

The distinct vectors come from a DP over used-goods bitmasks, on per-agent
tables built from each matroid's ``rank_table``: bundle values for brute
force, (rank, value) pairs for certification. Each agent but the last two in
turn takes every subset of the goods still free; then one pair pass per used
mask splits the free goods between the last two agents and joins their
distinct entry pairs to the mask's prefixes. Prefixes that reach the same
used mask with the same entries merge. Its size limit counts its own steps:
n * 2^m table entries plus one per prefix per submask taken, the pair pass
included. It refuses up front when the least that count can be is over the
cap, and stops once the running count passes it.

Every criterion's key depends only on the sorted utilities, so the optimum
search scores each sorted vector once and keeps all of its permutations.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .allocation import DOMINATES, compare_domination, utility_vector
from .errors import SizeLimitError
from .record import Record
from .solver import Criterion, SolveResult
from .valuation import BivaluedValuation, Instance, bundle_value_table

ENUMERATION_CAP = 10**7


def _check_cap(total: int, what: str) -> None:
    if total > ENUMERATION_CAP:
        raise SizeLimitError(
            f"{total} {what} exceed the {ENUMERATION_CAP} enumeration cap"
        )


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


def _rank_value_table(valuation: BivaluedValuation) -> list[tuple[int, int]]:
    """``(rank, value)`` of every subset, indexed by bitmask; with c >= 2 each
    value v(S) = |S| + (c - 1) * rank(S) gives back its rank."""
    high = valuation.c - 1
    return [((value - mask.bit_count()) // high, value)
            for mask, value in enumerate(bundle_value_table(valuation))]


def _all_vectors(instance: Instance, table_of: Callable) -> set[tuple]:
    """Distinct vectors of per-agent table entries over all complete
    allocations, by subset DP.

    Agents 1 .. n-2 take layers of submasks; the last two share one pair pass
    per used mask, so no layer is kept for agent n - 1.
    """
    _check_cap(_least_dp_steps(instance), "subset DP steps")
    n, m = instance.n, instance.m
    full = (1 << m) - 1
    tables = [table_of(instance.valuation(i)) for i in instance.agents]
    if n == 1:
        return {(tables[0][full],)}
    steps = n << m
    # used-goods mask -> distinct entry prefixes of the agents served so far
    layer: dict[int, set[tuple]] = {0: {()}}
    for table in tables[:-2]:
        grown: dict[int, set[tuple]] = {}
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
    vectors: set[tuple] = set()
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


class BruteForceResult(Record):
    """All criterion-optimal utility vectors of an instance."""

    __slots__ = _fields = ("optimal_vectors",)

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
    return brute_force_optima(instance, [criterion])[0]


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
    groups = _sorted_groups(_all_vectors(instance, bundle_value_table))
    return [_best_groups(criterion, groups) for criterion in criteria]


class CertificationVerdict(Record):
    __slots__ = _fields = ("ok", "reason")


def certify_dominating(
    instance: Instance,
    result: SolveResult,
    criterion: Criterion,
) -> CertificationVerdict:
    """Certify a solver output as an undominated criterion optimum.

    No complete allocation may beat the output's key, nor tie it and
    dominate the output under the three-stage order. Every valid
    decomposition gives agent i a clean part of size rank_i(X_i), so the
    order reads only the pairs (rank_i(X_i), v_i(X_i)) and no decomposition
    is enumerated; the subset DP yields every distinct pair vector. A rival
    that leaves a good in the pool needs no check: handing the good to an
    agent lowers neither its key nor any stage of the order. The output is
    compared by the clean sizes of its given decomposition.
    """
    pair_vectors = _all_vectors(instance, _rank_value_table)
    criterion = criterion.bind(instance)
    own_utilities = utility_vector(instance, result.allocation)
    own_key = criterion.key(own_utilities)
    own = tuple(zip(map(len, result.decomposition.clean[1:]), own_utilities))
    for pairs in pair_vectors:
        utilities = tuple(u for _, u in pairs)
        order = criterion.compare_keys(criterion.key(utilities), own_key)
        if order > 0:
            return CertificationVerdict(False, f"allocation with utilities {utilities} "
                                               f"beats the output's {own_utilities}")
        if order == 0 and compare_domination(pairs, own) == DOMINATES:
            return CertificationVerdict(False, f"optimal allocation with (clean size, "
                                               f"utility) pairs {pairs} dominates the output")
    return CertificationVerdict(True, "optimal and undominated")
