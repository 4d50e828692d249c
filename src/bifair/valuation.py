"""Matroid rank functions and bivalued submodular valuations.

Every valuation here has the form ``v(S) = |S| + (c - 1) * rank(S)`` for an
integer ``c >= 2`` and a matroid rank function over the goods: each good adds
marginal value ``c`` while it can extend an independent set and ``1``
otherwise. The rank function counts the high-value goods in a bundle, which
is exactly the structure the transfer-path solver manipulates.

Goods are dense integer ids ``0..m-1``; display names live on the
:class:`Instance`. Exhaustive engines read a matroid's ``rank_table``: the
rank of every subset, indexed by bitmask. Marked, uniform and partition
matroids build it in closed form, one good at a time; transversal matroids
by Hall's theorem over slot bitmasks. Explicit matroids store the table.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Iterable

from .errors import MalformedMatroidError, SizeLimitError, ValidationError
from .record import Record

GoodSet = frozenset[int]

EXPLICIT_TABLE_MAX_GOODS = 20


class Matroid(Record):
    """A matroid over goods ``0..m-1``, exposed through its rank function."""

    __slots__ = ()
    m: int

    def rank(self, goods: AbstractSet[int]) -> int:
        raise NotImplementedError

    def rank_table(self) -> list[int]:
        """Rank of every subset of ``0..m-1``, indexed by bitmask.

        The table has 2^m entries; :func:`bundle_value_table` refuses past 20
        goods. Marked, uniform and partition matroids extend the table one
        good at a time: the subsets holding good g are the earlier masks plus
        g, and each ranks one more than its mask exactly when g extends it.
        """
        raise NotImplementedError

    def can_extend(self, goods: AbstractSet[int], g: int) -> bool:
        """Whether adding ``g`` raises the rank of ``goods`` by one.

        Returns False when ``g`` is already in the set. It compares two
        ranks; the solver reads ``extensions`` instead.
        """
        if g in goods:
            return False
        return self.rank(goods | {g}) > self.rank(goods)

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        """Every good that ``can_extend`` ``goods``, in ascending order."""
        raise NotImplementedError

    def exchanges(self, goods: AbstractSet[int], g: int) -> list[int]:
        """The goods other than ``g`` that extend ``goods`` less ``g``, ascending.

        On a clean bundle holding ``g`` these are the goods its owner would
        take in exchange for ``g`` and keep its rank: the exchange graph's
        edges out of ``g``.
        """
        return [h for h in self.extensions(goods - {g}) if h != g]

    def _check_ground(self, m: int) -> None:
        if self.m != m:
            raise ValidationError(
                f"matroid is defined over {self.m} goods, instance has {m}"
            )


class UniformMatroid(Matroid):
    """Any set of at most ``cap`` goods is independent."""

    __slots__ = _fields = ("m", "cap")

    def __init__(self, m: int, cap: int) -> None:
        if cap.__class__ is not int:
            raise ValidationError(f"uniform matroid cap must be an integer, got {cap!r}")
        if cap < 0:
            raise ValidationError("uniform matroid cap must be non-negative")
        self._setslots(m, cap)

    def rank(self, goods: AbstractSet[int]) -> int:
        return min(len(goods), self.cap)

    def rank_table(self) -> list[int]:
        table, cap = [0], self.cap
        for _ in range(self.m):
            table += [r + (r < cap) for r in table]
        return table

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        if len(goods) >= self.cap:
            return []
        return [h for h in range(self.m) if h not in goods]


class PartitionMatroid(Matroid):
    """Disjoint parts with per-part capacities; uncovered goods never add rank.

    ``labels[g]`` is the index in ``caps`` of good g's part, or -1 when no
    part covers g.
    """

    __slots__ = _fields = ("m", "labels", "caps")

    def __init__(self, m: int, labels: tuple[int, ...], caps: tuple[int, ...]) -> None:
        if len(labels) != m or labels and not (
                set(map(type, labels)) == {int} and -1 <= min(labels) <= max(labels) < len(caps)):
            raise ValidationError(
                f"partition matroid needs a label in -1..{len(caps) - 1} per good")
        if not set(map(type, caps)) <= {int}:
            raise ValidationError(f"partition matroid caps must be integers, got {caps!r}")
        if any(cap < 0 for cap in caps):
            raise ValidationError("partition matroid caps must be non-negative")
        self._setslots(m, labels, caps)

    def _counts(self, goods: AbstractSet[int]) -> dict[int, int]:
        """How many of ``goods`` each part holds, for the parts holding any: O(|goods|)."""
        labels, m, counts = self.labels, self.m, {}
        for g in goods:  # a good outside 0..m-1 is in no part; labels[-1] would wrap
            if 0 <= g < m and (idx := labels[g]) >= 0:
                counts[idx] = counts.get(idx, 0) + 1
        return counts

    def rank(self, goods: AbstractSet[int]) -> int:
        """Per part, the goods given in it up to its cap."""
        total = 0
        for idx, count in self._counts(goods).items():
            cap = self.caps[idx]
            total += count if count < cap else cap
        return total

    def rank_table(self) -> list[int]:
        caps = (*self.caps, 0)  # label -1 reads the last cap: an uncovered good adds no rank
        table, masks = [0], [0] * len(caps)  # per part, its goods below the current one
        for g, idx in enumerate(self.labels):
            part, cap = masks[idx], caps[idx]
            table += [r + ((mask & part).bit_count() < cap)
                      for mask, r in enumerate(table)]
            masks[idx] = part | 1 << g
        return table

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        """The goods outside ``goods`` of every part that still has room, ascending."""
        counts, caps = self._counts(goods), self.caps
        return [g for g, idx in enumerate(self.labels)
                if idx >= 0 and counts.get(idx, 0) < caps[idx] and g not in goods]


class MarkedMatroid(Matroid):
    """Rank counts goods in a fixed marked set; the additive case."""

    __slots__ = _fields = ("m", "marked")

    def __init__(self, m: int, marked: GoodSet) -> None:
        if marked and (min(marked) < 0 or max(marked) >= m):
            raise ValidationError("marked good outside ground set")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "marked", marked)

    def rank(self, goods: AbstractSet[int]) -> int:
        return len(self.marked.intersection(goods))

    def rank_table(self) -> list[int]:
        table = [0]
        for g in range(self.m):
            table += [r + 1 for r in table] if g in self.marked else table
        return table

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        return sorted(self.marked - goods)

    def exchanges(self, goods: AbstractSet[int], g: int) -> list[int]:
        """The marked goods that ``goods`` lacks, as ``extensions`` gives them.

        Without ``g`` the bundle would also lack ``g`` if it is marked, but
        taking ``g`` back is no exchange.
        """
        return sorted(self.marked - goods)


class TransversalMatroid(Matroid):
    """Rank of S is the maximum matching size between S and a slot set.

    ``adjacency[g]`` lists the slots good ``g`` may occupy.
    """

    __slots__ = _fields = ("m", "slots", "adjacency")

    def __init__(self, m: int, slots: int, adjacency: tuple[GoodSet, ...]) -> None:
        if len(adjacency) != m:
            raise ValidationError("transversal adjacency must cover every good")
        if slots.__class__ is not int:
            raise ValidationError(f"slot count must be an integer, got {slots!r}")
        if slots < 0:
            raise ValidationError("slot count must be non-negative")
        for g, reach in enumerate(adjacency):
            if any(s.__class__ is not int or not 0 <= s < slots for s in reach):
                raise ValidationError(f"good {g} adjacent to unknown slot")
        self._setslots(m, slots, adjacency)

    def _matching(self, goods: Iterable[int]) -> dict[int, int]:
        """Greedy augmenting-path matching; returns slot -> good.

        A good takes its first free slot, the one a search would reach
        first; failing that it searches breadth-first for a shortest
        augmenting path, on a queue rather than the call stack, so no input
        size reaches the recursion limit.
        """
        match: dict[int, int] = {}

        def try_place(root: int) -> None:
            via: dict[int, int] = {}  # slot -> the good that reached it
            held: dict[int, int | None] = {root: None}  # good reached -> its slot
            queue = [root]
            for g in queue:
                for s in self.adjacency[g]:
                    if s in via:
                        continue
                    via[s] = g
                    if s in match:
                        held[match[s]] = s
                        queue.append(match[s])
                        continue
                    # Free slot: each good on the path moves to the slot it reached.
                    while s is not None:
                        g = via[s]
                        match[s], s = g, held[g]
                    return

        for g in goods:
            for s in self.adjacency[g]:
                if s not in match:
                    match[s] = g
                    break
            else:
                try_place(g)
        return match

    def rank(self, goods: AbstractSet[int]) -> int:
        return len(self._matching(sorted(goods)))

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        """Goods with an alternating path to a free slot (Cunningham 1986).

        A matched good adjacent to a free or opened slot can move there, so
        its own slot opens; a good extends ``goods`` iff it reaches a slot
        that is not blocked.
        """
        match = self._matching(goods)
        users: dict[int, list[int]] = {}  # slot -> slots of matched goods next to it
        for own, g in match.items():
            for s in self.adjacency[g]:
                users.setdefault(s, []).append(own)
        queue = [s for s in users if s not in match]
        opened = set()
        for s in queue:
            for own in users[s]:
                if own not in opened:
                    opened.add(own)
                    queue.append(own)
        blocked = match.keys() - opened
        return [h for h in range(self.m)
                if h not in goods and not self.adjacency[h] <= blocked]

    def rank_table(self) -> list[int]:
        """Hall's theorem as a DP over masks, on slot bitmasks.

        A set is independent iff every one-smaller subset is and its goods
        reach at least as many slots as there are goods. A dependent set
        ranks as the best of its one-smaller subsets. Only slot counts
        matter, so the slots some good reaches get dense bit positions.
        """
        bit = {s: 1 << k for k, s in enumerate(set().union(*self.adjacency))}
        adjacent = [sum(bit[s] for s in slots) for slots in self.adjacency]
        reach = [0] * (1 << self.m)
        table = [0] * (1 << self.m)
        for mask in range(1, 1 << self.m):
            low = mask & -mask
            rest = mask ^ low
            reach[mask] = reach[rest] | adjacent[low.bit_length() - 1]
            least = most = table[rest]
            while rest:
                bit = rest & -rest
                rest ^= bit
                r = table[mask ^ bit]
                if r < least:
                    least = r
                elif r > most:
                    most = r
            size = mask.bit_count()
            independent = least == size - 1 and reach[mask].bit_count() >= size
            table[mask] = size if independent else most
        return table


class ExplicitMatroid(Matroid):
    """Rank read from a table: ``ranks[mask]`` ranks the goods set in ``mask``.

    The table has exactly 2^m entries, for at most 20 goods. It is not trusted:
    use :func:`validate_explicit` to audit it against the rank-function axioms
    before relying on it, as instance files do at load.
    """

    __slots__ = _fields = ("m", "ranks")

    def __init__(self, m: int, ranks: tuple[int, ...]) -> None:
        if m > EXPLICIT_TABLE_MAX_GOODS:
            raise SizeLimitError(
                f"explicit rank tables support at most "
                f"{EXPLICIT_TABLE_MAX_GOODS} goods, got {m}"
            )
        if len(ranks) != 1 << m:
            raise MalformedMatroidError(
                f"explicit table has {len(ranks)} of {1 << m} subsets"
            )
        self._setslots(m, ranks)

    def rank(self, goods: AbstractSet[int]) -> int:
        try:
            return self.ranks[sum(1 << g for g in goods)]
        except (IndexError, ValueError):  # a good >= m, or a negative shift
            raise self._outside(goods) from None

    def rank_table(self) -> list[int]:
        return list(self.ranks)

    def extensions(self, goods: AbstractSet[int]) -> list[int]:
        ranks = self.ranks
        try:
            mask = sum(1 << g for g in goods)
            base = ranks[mask]
        except (IndexError, ValueError):
            raise self._outside(goods) from None
        return [h for h in range(self.m) if ranks[mask | 1 << h] > base]

    def _outside(self, goods: AbstractSet[int]) -> MalformedMatroidError:
        good = min(g for g in goods if not 0 <= g < self.m)
        return MalformedMatroidError(f"explicit table over {self.m} goods has no good {good}")


class BivaluedValuation(Record):
    """Bundle valuation ``v(S) = |S| + (c - 1) * rank(S)`` with integer c >= 2."""

    __slots__ = _fields = ("c", "matroid")

    def __init__(self, c: int, matroid: Matroid) -> None:
        check_c(c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "matroid", matroid)

    def rank(self, goods: AbstractSet[int]) -> int:
        return self.matroid.rank(goods)

    def value(self, goods: AbstractSet[int]) -> int:
        return len(goods) + (self.c - 1) * self.matroid.rank(goods)

    def marginal(self, goods: AbstractSet[int], g: int) -> int:
        """Marginal value of adding ``g``; always 1 or c."""
        if g in goods:
            raise ValidationError(f"good {g} already in the bundle")
        return 1 + (self.c - 1) * (1 if self.matroid.can_extend(goods, g) else 0)

    def is_clean(self, goods: AbstractSet[int]) -> bool:
        """Whether every good in the bundle contributes the high value c."""
        return self.matroid.rank(goods) == len(goods)


class Instance(Record):
    """An allocation problem: named goods and one valuation per agent.

    All agents share the same ``c``. Agent indices are 1-based in bundle
    tuples; index 0 is the pool of unallocated goods, behaving like a dummy
    owner that values every bundle at ``c`` per good. When the instance was
    stated with an original value pair ``(a, b)`` with ``a | b``, the
    valuations here are the rescaled ``(1, c=b//a)`` ones and ``scale``
    records ``a`` so reported utilities can be mapped back.

    ``m`` counts the goods, ``n`` the agents, and ``agents`` is the range of
    real agent indices ``1..n``; all three are derived once, at construction.
    """

    _fields = ("goods", "c", "valuations", "agent_names", "scale")
    __slots__ = _fields + ("m", "n", "agents")

    def __init__(
        self,
        goods: tuple[str, ...],
        c: int,
        valuations: tuple[BivaluedValuation, ...],
        agent_names: tuple[str, ...] = (),
        scale: int = 1,
    ) -> None:
        check_c(c)
        m = len(goods)
        if len(set(goods)) != m:
            raise ValidationError("good names must be unique")
        if not valuations:
            raise ValidationError("instance needs at least one agent")
        n = len(valuations)
        if not agent_names:
            agent_names = tuple(f"agent{i}" for i in range(1, n + 1))
        if len(agent_names) != n:
            raise ValidationError("one name per agent required")
        if scale.__class__ is not int or scale < 1:
            raise ValidationError("scale must be a positive integer")
        for val in valuations:
            if val.c != c:
                raise ValidationError("all agents must share the same c")
            val.matroid._check_ground(m)
        self._setslots(goods, c, valuations, agent_names, scale, m, n, range(1, n + 1))

    def valuation(self, i: int) -> BivaluedValuation:
        """Valuation of agent ``i`` (1-based)."""
        return self.valuations[i - 1]

    def value(self, i: int, goods: AbstractSet[int]) -> int:
        return self.valuation(i).value(goods)


def check_c(c: object) -> None:
    """Refuse a ``c`` that is not an integer >= 2; a bool is not an integer."""
    if c.__class__ is not int or c < 2:
        raise ValidationError(
            f"c must be an integer >= 2; got {c!r} (non-integer value "
            f"ratios make the problem NP-hard and are rejected)"
        )


def rescale_pair(a: int, b: int) -> int:
    """Collapse an ``(a, b)`` value pair to the canonical ``c = b / a``.

    Only divisible pairs are supported; for coprime pairs the underlying
    optimization problems are NP-hard, so they are rejected outright. A bool
    is not an integer here.
    """
    integers = all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b))
    if not integers or a < 1 or b <= a:
        raise ValidationError(f"need integers 0 < a < b, got a={a!r}, b={b!r}")
    if b % a != 0:
        raise ValidationError(
            f"a={a} does not divide b={b}: computing optimal allocations for "
            f"non-integer value ratios is NP-hard and not supported"
        )
    return b // a


class AxiomViolation(Record):
    """One failed rank-axiom check in an explicit table."""

    __slots__ = _fields = ("axiom", "subset", "goods", "detail")


def validate_explicit(valuation: BivaluedValuation) -> list[AxiomViolation]:
    """Audit an explicit rank table against the rank-function axioms.

    Checks normalization (empty set ranks 0), binary marginals (which
    subsumes monotonicity), and pairwise submodularity
    ``rank(S+g) + rank(S+h) >= rank(S+g+h) + rank(S)``. Subsets S are
    visited by size, then in ``itertools.combinations`` order. Returns every
    violation found; an empty list certifies the table.
    """
    matroid = valuation.matroid
    if not isinstance(matroid, ExplicitMatroid):
        raise ValidationError("only explicit rank tables can be audited")
    ranks = matroid.ranks
    violations: list[AxiomViolation] = []
    if ranks[0] != 0:
        violations.append(
            AxiomViolation("normalization", (), (), f"rank(empty) = {ranks[0]}")
        )

    universe = range(matroid.m)
    for size in range(matroid.m + 1):
        for subset in itertools.combinations(universe, size):
            mask = sum(1 << g for g in subset)
            rank_s = ranks[mask]
            rest = [g for g in universe if not mask >> g & 1]
            for g in rest:
                marginal = ranks[mask | 1 << g] - rank_s
                if marginal not in (0, 1):
                    violations.append(
                        AxiomViolation(
                            "binary-marginal", subset, (g,),
                            f"marginal {marginal} not in {{0, 1}}",
                        )
                    )
            for g, h in itertools.combinations(rest, 2):
                singles = ranks[mask | 1 << g] + ranks[mask | 1 << h]
                both = ranks[mask | 1 << g | 1 << h] + rank_s
                if singles < both:
                    violations.append(
                        AxiomViolation(
                            "submodularity", subset, (g, h),
                            f"rank(S+g)+rank(S+h)={singles} < "
                            f"rank(S+g+h)+rank(S)={both}",
                        )
                    )
    return violations


def bundle_value_table(valuation: BivaluedValuation) -> list[int]:
    """Value of every subset of the matroid's goods, indexed by bitmask.

    Exhaustive-search helpers read values from it, built from the matroid's
    ``rank_table`` without a rank query per subset. It refuses past 20 goods.
    """
    if valuation.matroid.m > EXPLICIT_TABLE_MAX_GOODS:
        raise SizeLimitError("value tables support at most 20 goods")
    high = valuation.c - 1
    return [
        mask.bit_count() + high * rank
        for mask, rank in enumerate(valuation.matroid.rank_table())
    ]
