"""Sequential transfer-path solver with pluggable selection criteria.

The solver starts from an empty allocation and repeatedly picks an agent to
serve. An agent still in play receives one more high-value good by shifting
goods along a shortest exchange-graph path ending in the unallocated pool;
once no such path exists the agent permanently drops out of play and can
only collect low-value goods, handed out provisionally so later transfer
paths may still steal them.

Every criterion's gain strictly falls as the agent's utility rises, so each
pool (agents in play, agents out of play) offers its poorest agent, lowest
index first, and only those two agents' gains are evaluated: the gain
decides between the two pools, with ties going to the in-play agent. This
tie-breaking is what makes the output canonical among all optimal
allocations. The pools are ``(utility, index)`` heaps, and one solver state
(utilities, pools, the exchange graph's clean bundles and owner map, the
holders of provisional goods) is updated in place, not rebuilt every
iteration.

Gain magnitudes are compared exactly: rationals via integer
cross-multiplication for Nash welfare, plain integers for leximin, and
high-precision floats with a purely relative tolerance for p-mean welfare.
The "escape from zero utility" bonus is a separate tier above every
ordinary magnitude rather than a large constant, so it can never collide
with a real gain value.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .allocation import Allocation, Decomposition, utility_vector
from .errors import InternalInvariantError, UnsupportedCriterionError
from .exchange import ExchangeGraph, f_set, shortest_path
from .exchange import augment as augment_path
from .valuation import Instance

# Working precision for p-mean gains; ~40 significant digits comfortably
# exceeds extended-double precision at desk-scale utilities.
_PMEAN_DPS = 40

PMEAN_REL_TOL = mpmath.mpf("1e-12")

_TIER_BOTTOM = 0
_TIER_ORDINARY = 1
_TIER_ZERO_ESCAPE = 2


@dataclass(frozen=True)
class GainValue:
    """Totally ordered gain: bottom < every ordinary value < zero-escape.

    The zero-escape tier carries the added value d and realizes the
    arbitrarily large bonus for lifting an agent off zero utility; within
    the tier larger d wins. Ordinary magnitudes are ``Fraction``/``int``
    (compared exactly) or ``mpmath.mpf`` (compared with a relative
    tolerance, so near-ties resolve through the solver's index tie-break).
    """

    tier: int
    magnitude: object = None

    def _cmp(self, other: "GainValue") -> int:
        if self.tier != other.tier:
            return 1 if self.tier > other.tier else -1
        if self.tier == _TIER_BOTTOM:
            return 0
        a, b = self.magnitude, other.magnitude
        if isinstance(a, mpmath.mpf) or isinstance(b, mpmath.mpf):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            if abs(a - b) <= PMEAN_REL_TOL * max(abs(a), abs(b)):
                return 0
        if a == b:
            return 0
        return 1 if a > b else -1

    def __lt__(self, other: "GainValue") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "GainValue") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "GainValue") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "GainValue") -> bool:
        return self._cmp(other) >= 0

    def describe(self) -> str:
        if self.tier == _TIER_BOTTOM:
            return "-inf"
        if self.tier == _TIER_ZERO_ESCAPE:
            return f"zero-escape({self.magnitude})"
        return str(self.magnitude)


BOTTOM_GAIN = GainValue(_TIER_BOTTOM)


class Criterion:
    """A justice criterion: gain function plus a total preorder on utilities."""

    name: str

    def bind(self, instance: Instance) -> "Criterion":
        """Criterion specialized to an instance; default needs no binding."""
        return self

    def gain(self, utilities: Sequence[int], i: int, d: int) -> GainValue:
        """Score of adding value ``d`` to agent ``i`` (1-based) right now.

        It must depend only on ``utilities[i - 1]`` and ``d`` and strictly
        fall as that utility rises: the solver relies on this to evaluate
        only the poorest agent of each pool.
        """
        raise NotImplementedError

    def compare(self, u: Sequence[int], w: Sequence[int]) -> int:
        """Order two utility vectors under the criterion; -1, 0 or 1."""
        raise NotImplementedError


class MaxNashWelfare(Criterion):
    """Most agents positive first, then largest utility product.

    The ordinary gain is the ratio ``(u_i + d) / u_i``, kept as an exact
    rational so comparisons reduce to integer cross-multiplication.
    """

    name = "mnw"

    def gain(self, utilities: Sequence[int], i: int, d: int) -> GainValue:
        u = utilities[i - 1]
        if u == 0:
            return GainValue(_TIER_ZERO_ESCAPE, d)
        return GainValue(_TIER_ORDINARY, Fraction(u + d, u))

    def compare(self, u: Sequence[int], w: Sequence[int]) -> int:
        count_u = sum(1 for x in u if x > 0)
        count_w = sum(1 for x in w if x > 0)
        if count_u != count_w:
            return 1 if count_u > count_w else -1
        prod_u = prod_w = 1
        for x in u:
            if x > 0:
                prod_u *= x
        for x in w:
            if x > 0:
                prod_w *= x
        if prod_u == prod_w:
            return 0
        return 1 if prod_u > prod_w else -1


class Leximin(Criterion):
    """Lexicographic order on ascending-sorted utility vectors.

    The gain is the exact integer ``-(c + 1) * u_i + d``; the slope beats
    any d difference, so poorer agents always outrank richer ones.
    """

    name = "leximin"

    def __init__(self, c: int | None = None):
        self.c = c

    def bind(self, instance: Instance) -> "Leximin":
        return self if self.c == instance.c else Leximin(instance.c)

    def gain(self, utilities: Sequence[int], i: int, d: int) -> GainValue:
        if self.c is None:
            raise UnsupportedCriterionError(
                "leximin gain needs the instance's c; use Leximin(c) or bind()"
            )
        return GainValue(_TIER_ORDINARY, -(self.c + 1) * utilities[i - 1] + d)

    def compare(self, u: Sequence[int], w: Sequence[int]) -> int:
        su, sw = sorted(u), sorted(w)
        if su == sw:
            return 0
        return 1 if su > sw else -1


class PMeanWelfare(Criterion):
    """Most agents positive first, then the power mean of the positives.

    Defined for real ``p < 1`` with ``p != 0``; both excluded values have
    better homes (``p -> 0`` is Nash welfare; ``p = 1`` is plain utilitarian
    welfare, whose constant gain cannot drive agent selection). Gains use
    40-digit floats and values within a relative 1e-12 count as tied.
    """

    def __init__(self, p: float):
        if p == 0 or p >= 1:
            raise UnsupportedCriterionError(
                f"p-mean welfare requires p < 1 and p != 0, got {p}"
            )
        self.p = p
        self.name = f"pmean[p={p}]"

    def gain(self, utilities: Sequence[int], i: int, d: int) -> GainValue:
        u = utilities[i - 1]
        if u == 0:
            return GainValue(_TIER_ZERO_ESCAPE, d)
        with mpmath.workdps(_PMEAN_DPS):
            p = mpmath.mpf(self.p)
            diff = mpmath.power(u + d, p) - mpmath.power(u, p)
            if self.p < 0:
                diff = -diff
        return GainValue(_TIER_ORDINARY, diff)

    def compare(self, u: Sequence[int], w: Sequence[int]) -> int:
        count_u = sum(1 for x in u if x > 0)
        count_w = sum(1 for x in w if x > 0)
        if count_u != count_w:
            return 1 if count_u > count_w else -1
        with mpmath.workdps(_PMEAN_DPS):
            p = mpmath.mpf(self.p)
            sum_u = mpmath.fsum(mpmath.power(x, p) for x in u if x > 0)
            sum_w = mpmath.fsum(mpmath.power(x, p) for x in w if x > 0)
            if abs(sum_u - sum_w) <= PMEAN_REL_TOL * max(abs(sum_u), abs(sum_w)):
                return 0
            # For p < 0 the outer 1/p exponent reverses the power-sum order.
            better = sum_u > sum_w if self.p > 0 else sum_u < sum_w
        return 1 if better else -1


def make_criterion(name: str, p: float | None = None) -> Criterion:
    """Criterion from its CLI name: ``mnw``, ``leximin`` or ``pmean``."""
    if name == "mnw":
        return MaxNashWelfare()
    if name == "leximin":
        return Leximin()
    if name == "pmean":
        if p is None:
            raise UnsupportedCriterionError("pmean requires a p value")
        return PMeanWelfare(p)
    raise UnsupportedCriterionError(f"unknown criterion {name!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One solver iteration: who was picked, why, and what happened."""

    iteration: int
    gain_c: str
    gain_1: str
    agent: int
    action: str  # "augmented" | "removed-from-play" | "provisional"
    path: tuple[int, ...] | None = None
    good: int | None = None
    replacement: int | None = None

    def to_dict(self) -> dict:
        record: dict = {
            "iteration": self.iteration,
            "gain_c": self.gain_c,
            "gain_1": self.gain_1,
            "agent": self.agent,
            "action": self.action,
        }
        if self.path is not None:
            record["path"] = list(self.path)
        if self.good is not None:
            record["good"] = self.good
        if self.replacement is not None:
            record["replacement"] = self.replacement
        return record


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in self.records)


@dataclass(frozen=True)
class SolveResult:
    allocation: Allocation
    decomposition: Decomposition
    trace: SolveTrace
    utilities: tuple[int, ...]

    @property
    def sorted_utilities(self) -> tuple[int, ...]:
        return tuple(sorted(self.utilities))


def _argmax_min_index(
    criterion: Criterion,
    utilities: Sequence[int],
    pool: Sequence[tuple[int, int]],
    d: int,
) -> tuple[int | None, GainValue]:
    """Best agent of a pool by gain, lowest index among ties.

    Gains strictly fall as utility rises, so the best agent is the top of
    the pool's ``(utility, index)`` heap and only its gain is evaluated.
    Returns ``(None, bottom)`` for an empty pool.
    """
    if not pool:
        return None, BOTTOM_GAIN
    i = pool[0][1]
    return i, criterion.gain(utilities, i, d)


def _empty_clean(instance: Instance) -> tuple[frozenset[int], ...]:
    return (frozenset(range(instance.m)),) + (frozenset(),) * instance.n


def _transfer(graph: ExchangeGraph, path: tuple[int, ...], receiver: int) -> None:
    """Augment the graph's allocation along ``path`` in favor of ``receiver``."""
    clean = augment_path(graph.instance, graph.clean, path, receiver, graph.owner)
    graph.update(clean, path, receiver)


class _State:
    """The one mutable solver state, updated in place every iteration.

    ``graph`` holds the clean bundles and their owner map. Provisional goods
    stay in the pool bundle ``graph.clean[0]``; ``holder`` maps each to the
    agent holding it. The free goods (in the pool, not provisional) only
    ever shrink, so the lowest one is found by a pointer that never moves
    back.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.graph = ExchangeGraph(instance, _empty_clean(instance))
        self.supp: list[set[int]] = [set() for _ in range(instance.n + 1)]
        self.holder: dict[int, int] = {}
        self.utilities = [0] * instance.n
        self.in_play = [(0, i) for i in instance.agents]
        self.benched: list[tuple[int, int]] = []
        self._lowest_free = 0

    def unallocated_count(self) -> int:
        return len(self.graph.clean[0]) - len(self.holder)

    def lowest_free_good(self) -> int:
        pool, g = self.graph.clean[0], self._lowest_free
        while g not in pool or g in self.holder:
            g += 1
        self._lowest_free = g
        return g

    def augment(self, path: tuple[int, ...], i: int) -> int | None:
        """Serve ``i``, the top in-play agent, along ``path``; return any replacement.

        When the path ends at a provisional good, its holder is given the
        lowest free good in its place, and that good is returned.
        """
        _transfer(self.graph, path, i)
        u = self.utilities[i - 1] = self.utilities[i - 1] + self.instance.c
        heapq.heapreplace(self.in_play, (u, i))
        holder = self.holder.pop(path[-1], None)
        if holder is None:
            return None
        replacement = self.lowest_free_good()
        self.supp[holder].discard(path[-1])
        self.supp[holder].add(replacement)
        self.holder[replacement] = holder
        return replacement

    def bench(self) -> None:
        """Take the top in-play agent out of play for good."""
        heapq.heappush(self.benched, heapq.heappop(self.in_play))

    def give_provisional(self, i: int) -> int:
        """Hand ``i``, the top benched agent, the lowest free good; return it."""
        good = self.lowest_free_good()
        self.supp[i].add(good)
        self.holder[good] = i
        u = self.utilities[i - 1] = self.utilities[i - 1] + 1
        heapq.heapreplace(self.benched, (u, i))
        return good

    def check_invariants(self) -> None:
        instance, clean = self.instance, self.graph.clean
        for i in instance.agents:
            if not instance.valuation(i).is_clean(clean[i]):
                raise InternalInvariantError(f"clean bundle {i} lost cleanness")
            bundle = clean[i] | self.supp[i]
            expected = instance.c * len(clean[i]) + len(self.supp[i])
            if not instance.value(i, bundle) == expected == self.utilities[i - 1]:
                raise InternalInvariantError(
                    f"agent {i}: bundle value {instance.value(i, bundle)}, "
                    f"decomposition {expected} and cached "
                    f"{self.utilities[i - 1]} differ; a provisional good "
                    f"turned high-value"
                )
        if not self.holder.keys() <= clean[0]:
            raise InternalInvariantError("provisional goods escaped the pool")
        if any(self.graph.owner[g] != idx
               for idx, bundle in enumerate(clean) for g in bundle):
            raise InternalInvariantError("owner map disagrees with the bundles")
        pooled = sorted(self.in_play + self.benched, key=lambda entry: entry[1])
        if pooled != [(u, i) for i, u in enumerate(self.utilities, start=1)]:
            raise InternalInvariantError("agent pools disagree with utilities")


def solve(
    instance: Instance,
    criterion: Criterion,
    check_invariants: bool = False,
) -> SolveResult:
    """Run the transfer-path solver to a complete optimal allocation.

    Returns the allocation together with the clean/supplementary split the
    solver maintained and a per-iteration trace. With ``check_invariants``
    the loop re-verifies its invariants every iteration (cleanness of every
    bundle, cached utilities and pools, the owner map, pool containment,
    and the pick-the-poorest property of the selected agent); this is meant
    for tests and costs roughly a full rank recomputation per bundle per
    iteration.
    """
    criterion = criterion.bind(instance)
    state = _State(instance)
    graph = state.graph
    trace = SolveTrace()
    c = instance.c
    max_iterations = instance.m + instance.n

    iteration = 0
    while state.unallocated_count() > 0:
        iteration += 1
        if iteration > max_iterations:
            raise InternalInvariantError(
                f"exceeded the {max_iterations}-iteration bound"
            )
        utilities = state.utilities
        agent_c, gain_c = _argmax_min_index(criterion, utilities, state.in_play, c)
        agent_1, gain_1 = _argmax_min_index(criterion, utilities, state.benched, 1)
        gains = (gain_c.describe(), gain_1.describe())

        if gain_c >= gain_1 and agent_c is not None:
            i = agent_c
            if check_invariants:
                _check_selection(utilities, (k for _, k in state.in_play), i)
            clean = graph.clean
            path = shortest_path(graph, f_set(instance, clean, i), clean[0])
            if path is None:
                state.bench()
                record = TraceRecord(iteration, *gains, i, "removed-from-play")
            else:
                replacement = state.augment(path, i)
                record = TraceRecord(
                    iteration, *gains, i, "augmented",
                    path=path, replacement=replacement,
                )
        else:
            i = agent_1
            if i is None:
                raise InternalInvariantError("no agent eligible for selection")
            if check_invariants:
                _check_selection(utilities, (k for _, k in state.benched), i)
            good = state.give_provisional(i)
            record = TraceRecord(iteration, *gains, i, "provisional", good=good)
        trace.records.append(record)
        if check_invariants:
            state.check_invariants()

    supplementary = tuple(frozenset(b) for b in state.supp)
    decomposition = Decomposition(graph.clean, supplementary)
    allocation = decomposition.union()
    if sum(len(allocation.bundle(i)) for i in instance.agents) != instance.m:
        raise InternalInvariantError("solver left goods unallocated")
    final = utility_vector(instance, allocation)
    cached = tuple(state.utilities)
    if final != cached:
        raise InternalInvariantError(
            f"final utilities {final} disagree with cached {cached}"
        )
    return SolveResult(allocation, decomposition, trace, final)


def _check_selection(utilities: Sequence[int], pool: Iterable[int], i: int) -> None:
    """The picked agent must be the poorest in its pool, lowest index on ties."""
    for j in pool:
        if utilities[j - 1] < utilities[i - 1] or (
            utilities[j - 1] == utilities[i - 1] and j < i
        ):
            raise InternalInvariantError(
                f"picked agent {i} over poorer or lower-indexed agent {j}"
            )


def utilitarian_optimal(instance: Instance) -> Allocation:
    """A complete allocation maximizing total utility.

    Total utility is ``m + (c - 1) * sum of ranks`` once everything is
    allocated, so it suffices to grow the agents' clean bundles until no
    transfer path from any agent reaches the pool, then hand the leftover
    (uniformly low-value) goods to agent 1.
    """
    graph = ExchangeGraph(instance, _empty_clean(instance))
    progress = True
    while progress and graph.clean[0]:
        progress = False
        for i in instance.agents:
            clean = graph.clean
            if not clean[0]:
                break
            path = shortest_path(graph, f_set(instance, clean, i), clean[0])
            if path is not None:
                _transfer(graph, path, i)
                progress = True
    bundles = list(graph.clean)
    bundles[1] = bundles[1] | bundles[0]
    bundles[0] = frozenset()
    return Allocation(tuple(bundles))
