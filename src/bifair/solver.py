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
allocations. The decision depends only on the two heads' utilities, so a
solve makes it once per distinct pair. The pools are ``(utility, index)``
heaps; a pool good among the served agent's sources is its path, found
without a search. One solver state, updated in place, keeps each fact once:
utilities only in the pools, bundles and owners only in the exchange graph,
provisional goods only in a map to their holders. The served agent's sources
are its matroid's ``extensions`` of its live bundle in the graph. A transfer
moves only the path's goods between the graph's mutable bundles, and the
bundles are frozen once, into the result. The graph also keeps the goods a
failed path search proved unable to reach the pool, so the searches before
the next transfer skip them; provisional hand-outs leave that record valid.

A gain is a plain pair ``(escape, magnitude)`` ordered lexicographically
by ``compare_gains``. The escape is the value added to an agent at zero
utility under Nash and p-mean welfare (0 otherwise), so lifting an agent off
zero beats every ordinary gain and larger additions still win among escapes.
Magnitudes are exact rationals for Nash welfare, exact integers for leximin
and natural logs of power differences for p-mean welfare; ``compare_gains``
holds the only tolerance, an absolute 1e-12 on those logs, which is a
relative 1e-12 on the values themselves.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Sequence

from .allocation import Allocation, Decomposition, utility_vector
from .errors import InternalInvariantError, UnsupportedCriterionError
# ``f_set`` is unused here but stays importable from this module, where the
# layer trace in ``perfbench/layers.py`` looks it up.
from .exchange import ExchangeGraph, f_set, shortest_path  # noqa: F401
from .exchange import augment as augment_path
from .record import MutableRecord, Record
from .valuation import Instance

Gain = tuple  # (escape, magnitude); see compare_gains

# Gain of an empty pool: below every real gain, whose escape is at least 0.
BOTTOM_GAIN: Gain = (-math.inf, 0)

# Float magnitudes are logs, so this absolute tie tolerance on them is a
# relative one on the values, whatever their scale.
LOG_TOL = 1e-12

# Largest |p| for p-mean welfare: it keeps p * log u finite for every utility
# below e**(1.7e8), far past what an instance file can state.
P_LIMIT = 1e300


def compare_gains(a: Gain, b: Gain) -> int:
    """Order two gains lexicographically; -1, 0 or 1.

    Float magnitudes within ``LOG_TOL`` tie, so near-ties resolve through
    the solver's index tie-break; every other part compares exactly.
    """
    if a[0] != b[0]:
        return 1 if a[0] > b[0] else -1
    x, y = a[1], b[1]
    if x == y or (isinstance(x, float) and abs(x - y) <= LOG_TOL):
        return 0
    return 1 if x > y else -1


def _describe(gain: Gain) -> str:
    escape, magnitude = gain
    if escape < 0:
        return "-inf"
    return f"zero-escape({escape})" if escape else str(magnitude)


def log_power_sum(values: Iterable[int], p: float) -> float:
    """``log(sum x**p)`` over the positive values; at least one must be positive.

    Shifts every ``p * log x`` by the largest before exponentiating, so no
    term under- or overflows whatever the size of p.
    """
    logs = [p * math.log(x) for x in values if x > 0]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(t - top) for t in logs))


class Criterion:
    """A justice criterion: gain function plus a total preorder on utilities."""

    name: str

    def bind(self, instance: Instance) -> "Criterion":
        """Criterion specialized to an instance; default needs no binding."""
        return self

    def gain(self, u: int, d: int) -> Gain:
        """Score of adding value ``d`` to an agent whose utility is ``u``.

        It must strictly fall as ``u`` rises: the solver relies on this to
        evaluate only the poorest agent of each pool. The bound criterion's
        gain must be a pure function of ``(u, d)``: ``solve`` evaluates it
        once per distinct pair of pool heads and reuses the decision.
        """
        raise NotImplementedError

    def key(self, u: Sequence[int]) -> tuple:
        """Rank of a utility vector, ordered by ``compare_keys``; higher is better.

        ``compare`` is derived from it. It must be strictly monotone: raising
        one agent's utility, the rest unchanged, gives a strictly better key.
        Brute force relies on this to search complete allocations only. It
        must depend only on the sorted utilities (every criterion here is
        anonymous), so brute force scores one permutation per sorted vector.
        """
        raise NotImplementedError

    @staticmethod
    def compare_keys(a: tuple, b: tuple) -> int:
        """Order two keys exactly; -1, 0 or 1."""
        if a == b:
            return 0
        return 1 if a > b else -1

    def compare(self, u: Sequence[int], w: Sequence[int]) -> int:
        """Order two utility vectors under the criterion; -1, 0 or 1."""
        return self.compare_keys(self.key(u), self.key(w))


class MaxNashWelfare(Criterion):
    """Most agents positive first, then largest utility product.

    The ordinary gain is the ratio ``(u + d) / u``, kept as an exact
    rational so comparisons reduce to integer cross-multiplication.
    """

    name = "mnw"

    def gain(self, u: int, d: int) -> Gain:
        return (d, 0) if u == 0 else (0, Fraction(u + d, u))

    def key(self, u: Sequence[int]) -> tuple[int, int]:
        positives = [x for x in u if x > 0]
        return len(positives), math.prod(positives)


class Leximin(Criterion):
    """Lexicographic order on ascending-sorted utility vectors.

    The gain is the exact integer ``-(c + 1) * u + d``; the slope beats
    any d difference, so poorer agents always outrank richer ones.
    """

    name = "leximin"

    def __init__(self, c: int | None = None):
        self.c = c

    def bind(self, instance: Instance) -> "Leximin":
        return self if self.c == instance.c else Leximin(instance.c)

    def gain(self, u: int, d: int) -> Gain:
        if self.c is None:
            raise UnsupportedCriterionError(
                "leximin gain needs the instance's c; use Leximin(c) or bind()"
            )
        return (0, -(self.c + 1) * u + d)

    def key(self, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(u))


class PMeanWelfare(Criterion):
    """Most agents positive first, then the power mean of the positives.

    Defined for real ``p < 1`` with ``p != 0`` and ``|p| <= P_LIMIT``; both
    excluded values have better homes (``p -> 0`` is Nash welfare; ``p = 1``
    is plain utilitarian welfare, whose constant gain cannot drive agent
    selection). The gain magnitude is ``log|(u + d)**p - u**p|`` and power
    sums are compared by their logs, so strongly negative p neither
    underflows nor loses the order; the bound on |p| keeps ``p * log u``
    finite for every utility an instance can state.
    """

    compare_keys = staticmethod(compare_gains)

    def __init__(self, p: float):
        if not abs(p) <= P_LIMIT or p == 0 or p >= 1:
            raise UnsupportedCriterionError(
                f"p-mean welfare requires a finite p < 1, p != 0 and "
                f"|p| <= {P_LIMIT:g}, got {p}"
            )
        self.p = p
        self.name = f"pmean[p={p}]"

    def gain(self, u: int, d: int) -> Gain:
        if u == 0:
            return (d, 0)
        p = self.p
        return (0, p * math.log(u) + math.log(abs(math.expm1(p * math.log1p(d / u)))))

    def key(self, u: Sequence[int]) -> tuple[int, float]:
        count = sum(1 for x in u if x > 0)
        if not count:
            return (0, 0.0)
        # For p < 0 the outer 1/p exponent reverses the power-sum order.
        power = log_power_sum(u, self.p)
        return (count, power if self.p > 0 else -power)


def make_criterion(name: str, p: float | None = None) -> Criterion:
    """Criterion from its CLI name: ``mnw``, ``leximin`` or ``pmean`` (with p)."""
    if name == "pmean":
        if p is None:
            raise UnsupportedCriterionError("pmean requires a p value")
        return PMeanWelfare(p)
    if p is not None:
        raise UnsupportedCriterionError(f"only pmean takes a p value, not {name!r}")
    if name == "mnw":
        return MaxNashWelfare()
    if name == "leximin":
        return Leximin()
    raise UnsupportedCriterionError(f"unknown criterion {name!r}")


class TraceRecord(NamedTuple):
    """One solver iteration: who was picked, why, and what happened.

    Its JSON line is exactly ``json.dumps(record.to_dict(), sort_keys=True)``,
    and a trace joins its lines with ``"\\n"``; ``SolveTrace.to_jsonl`` writes
    those bytes directly.
    """

    iteration: int
    gain_c: str
    gain_1: str
    agent: int
    action: str  # "augmented" | "removed-from-play" | "provisional"
    path: tuple[int, ...] | None = None
    good: int | None = None
    replacement: int | None = None

    def to_dict(self) -> dict:
        """The fields that are not None, in field order, with the path as a list."""
        record = {name: value for name, value in zip(self._fields, self) if value is not None}
        if self.path is not None:
            record["path"] = list(self.path)
        return record


class SolveTrace(MutableRecord):
    __slots__ = _fields = ("records",)

    def __init__(self, records: list[TraceRecord] | None = None) -> None:
        self.records = [] if records is None else records

    def to_jsonl(self) -> str:
        """The records as JSON lines joined by ``"\\n"``, no final newline.

        Each line is exactly ``json.dumps(record.to_dict(), sort_keys=True)``:
        keys in sorted order, strings escaped by the same ASCII encoder,
        integers as ``str`` gives them and absent fields left out.
        """
        quote = encode_basestring_ascii
        lines = []
        for (iteration, gain_c, gain_1, agent, action,
             path, good, replacement) in self.records:
            line = (f'{{"action": {quote(action)}, "agent": {agent}, '
                    f'"gain_1": {quote(gain_1)}, "gain_c": {quote(gain_c)}')
            if good is not None:
                line += f', "good": {good}'
            line += f', "iteration": {iteration}'
            if path is not None:
                line += f', "path": [{", ".join(map(str, path))}]'
            if replacement is not None:
                line += f', "replacement": {replacement}'
            lines.append(line + "}")
        return "\n".join(lines)


class SolveResult(Record):
    __slots__ = _fields = ("allocation", "decomposition", "trace", "utilities")

    @property
    def sorted_utilities(self) -> tuple[int, ...]:
        return tuple(sorted(self.utilities))


def _argmax_min_index(
    criterion: Criterion, pool: Sequence[tuple[int, int]], d: int
) -> tuple[int | None, Gain]:
    """Best agent of a pool by gain, lowest index among ties.

    Gains strictly fall as utility rises, so the best agent is the top of
    the pool's ``(utility, index)`` heap and only its gain is evaluated.
    Returns ``(None, BOTTOM_GAIN)`` for an empty pool.
    """
    if not pool:
        return None, BOTTOM_GAIN
    u, i = pool[0]
    return i, criterion.gain(u, d)


class _State:
    """The one mutable solver state, updated in place every iteration.

    ``graph`` holds the clean bundles and their owner map; a transfer moves
    the path's goods between those bundles in place. Provisional goods stay
    in the pool bundle ``graph.clean[0]``, and only ``holder`` says who holds
    each. Utilities live only in the ``(utility, index)`` heaps, one entry
    per agent. The free goods (in the pool, not provisional) only ever
    shrink, so the lowest one is found by a pointer that never moves back.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.graph = ExchangeGraph(instance, [range(instance.m)] + [()] * instance.n)
        self.holder: dict[int, int] = {}
        self.in_play = [(0, i) for i in instance.agents]
        self.benched: list[tuple[int, int]] = []
        self._lowest_free = 0

    def lowest_free_good(self) -> int:
        pool, g = self.graph.clean[0], self._lowest_free
        while g not in pool or g in self.holder:
            g += 1
        self._lowest_free = g
        return g

    def utilities(self) -> tuple[int | None, ...]:
        """Every agent's pooled utility, in index order; None for an agent in no pool."""
        utilities: list[int | None] = [None] * (self.instance.n + 1)
        for u, i in self.in_play + self.benched:
            utilities[i] = u
        return tuple(utilities[1:])

    def supplementary(self) -> list[set[int]]:
        """Provisional goods per bundle index, read off ``holder``; none at index 0."""
        bundles: list[set[int]] = [set() for _ in range(self.instance.n + 1)]
        for g, i in self.holder.items():
            bundles[i].add(g)
        return bundles

    def augment(self, path: tuple[int, ...], i: int) -> int | None:
        """Serve ``i``, the top in-play agent, along ``path``; return any replacement.

        When the path ends at a provisional good, its holder is given the
        lowest free good in its place, and that good is returned.
        """
        augment_path(self.graph, path, i)
        heapq.heapreplace(self.in_play, (self.in_play[0][0] + self.instance.c, i))
        holder = self.holder.pop(path[-1], None)
        if holder is None:
            return None
        replacement = self.lowest_free_good()
        self.holder[replacement] = holder
        return replacement

    def bench(self) -> None:
        """Take the top in-play agent out of play for good."""
        heapq.heappush(self.benched, heapq.heappop(self.in_play))

    def give_provisional(self, i: int) -> int:
        """Hand ``i``, the top benched agent, the lowest free good; return it."""
        good = self.lowest_free_good()
        self.holder[good] = i
        heapq.heapreplace(self.benched, (self.benched[0][0] + 1, i))
        return good

    def check_invariants(self) -> None:
        instance, clean, owner = self.instance, self.graph.clean, self.graph.owner
        utilities = self.utilities()
        if len(self.in_play) + len(self.benched) != instance.n or None in utilities:
            raise InternalInvariantError("agent pools do not hold each agent once")
        provisional = self.supplementary()
        for i, u in enumerate(utilities, start=1):
            if not instance.valuation(i).is_clean(clean[i]):
                raise InternalInvariantError(f"clean bundle {i} lost cleanness")
            value = instance.value(i, clean[i] | provisional[i])
            expected = instance.c * len(clean[i]) + len(provisional[i])
            if not value == expected == u:
                raise InternalInvariantError(
                    f"agent {i}: bundle value {value}, decomposition {expected} "
                    f"and pooled utility {u} differ; a provisional good "
                    f"turned high-value"
                )
        if not self.holder.keys() <= clean[0]:
            raise InternalInvariantError("provisional goods escaped the pool")
        # The map keeps one bundle per good, so a good held twice shows only in the sizes.
        if (not sum(map(len, clean)) == len(owner) == instance.m
                or {g: idx for idx, bundle in enumerate(clean) for g in bundle} != owner):
            raise InternalInvariantError("owner map disagrees with the bundles")


def solve(
    instance: Instance,
    criterion: Criterion,
    check_invariants: bool = False,
) -> SolveResult:
    """Run the transfer-path solver to a complete optimal allocation.

    Returns the allocation together with the clean/supplementary split the
    solver maintained and a per-iteration trace. With ``check_invariants``
    the loop re-verifies its invariants every iteration (cleanness of every
    bundle, one pool entry per agent with its bundle's utility, the owner
    map and the bundle sizes, pool containment, and that the picked agent is
    its pool's least entry); this is meant for tests and costs roughly a
    full rank recomputation per bundle per iteration. These checks
    and the final check of the pooled utilities call ``Matroid.rank`` on the
    bundles themselves, not the ``extensions`` and ``exchanges`` queries
    that drive the search.
    """
    criterion = criterion.bind(instance)
    state = _State(instance)
    graph = state.graph
    clean, holder, valuations = graph.clean, state.holder, instance.valuations
    pool = clean[0]
    in_play, benched = state.in_play, state.benched
    trace = SolveTrace()
    c = instance.c
    max_iterations = instance.m + instance.n
    # (in-play head's utility, benched head's) -> (serve in play?, gain_c, gain_1)
    decisions: dict[tuple, tuple[bool, str, str]] = {}

    iteration = 0
    while len(pool) > len(holder):
        iteration += 1
        if iteration > max_iterations:
            raise InternalInvariantError(
                f"exceeded the {max_iterations}-iteration bound"
            )
        heads = (in_play[0][0] if in_play else None, benched[0][0] if benched else None)
        decision = decisions.get(heads)
        if decision is None:
            agent_c, gain_c = _argmax_min_index(criterion, in_play, c)
            _, gain_1 = _argmax_min_index(criterion, benched, 1)
            decision = decisions[heads] = (
                agent_c is not None and compare_gains(gain_c, gain_1) >= 0,
                _describe(gain_c), _describe(gain_1))
        serve, gain_c, gain_1 = decision

        if serve:
            i = in_play[0][1]
            if check_invariants:
                _check_selection(in_play, i)
            path = shortest_path(graph, valuations[i - 1].matroid.extensions(clean[i]))
            if path is None:
                state.bench()
                record = TraceRecord(iteration, gain_c, gain_1, i, "removed-from-play")
            else:
                replacement = state.augment(path, i)
                record = TraceRecord(
                    iteration, gain_c, gain_1, i, "augmented", path, None, replacement
                )
        else:
            i = benched[0][1]
            if check_invariants:
                _check_selection(benched, i)
            good = state.give_provisional(i)
            record = TraceRecord(iteration, gain_c, gain_1, i, "provisional", None, good)
        trace.records.append(record)
        if check_invariants:
            state.check_invariants()

    clean = tuple(map(frozenset, graph.clean))
    supplementary = tuple(map(frozenset, state.supplementary()))
    bundles = [clean[0].difference(holder)]
    bundles += (part | extra if extra else part
                for part, extra in zip(clean[1:], supplementary[1:]))
    if sum(map(len, bundles[1:])) != instance.m:
        raise InternalInvariantError("solver left goods unallocated")
    allocation = Allocation(tuple(bundles))
    final = utility_vector(instance, allocation)
    pooled = state.utilities()
    if final != pooled:
        raise InternalInvariantError(f"final utilities {final} disagree with pooled {pooled}")
    return SolveResult(allocation, Decomposition(clean, supplementary), trace, final)


def _check_selection(pool: Sequence[tuple[int, int]], i: int) -> None:
    """The picked agent must be the pool's least ``(utility, index)`` entry."""
    least = min(pool)[1]
    if least != i:
        raise InternalInvariantError(
            f"picked agent {i} over agent {least}, the pool's least entry")
