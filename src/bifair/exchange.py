"""Exchange graph over a clean allocation and transfer-path machinery.

The exchange graph has one node per good. An edge g -> g' means the owner of
g can hand g away and take g' instead without losing any high-value good:
``rank_j(X_j - g + g') = rank_j(X_j)`` for the owning agent j. The
unallocated pool (bundle 0) acts as an owner that values everything highly,
so pool goods have edges to every allocated good.

Shifting goods along a shortest path from an agent's frontier to another
bundle gives that agent one more high-value good, keeps every intermediate
owner whole, and shrinks the path's final bundle by one. ``augment`` makes
that shift in place: it moves the path's goods between the graph's mutable
bundles and owner map, and copies no bundle.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .errors import InternalInvariantError, PreconditionError
from .record import MutableRecord
from .valuation import GoodSet, Instance


def f_set(instance: Instance, clean: Sequence[AbstractSet[int]], i: int) -> GoodSet:
    """Goods (allocated anywhere or free) that extend agent i's clean bundle.

    These are exactly the goods worth the high value c to agent i on top of
    what they already hold; the agent's transfer paths start here.
    """
    return frozenset(instance.valuation(i).matroid.extensions(clean[i]))


class ExchangeGraph(MutableRecord):
    """Exchange graph over a clean allocation, with lazily computed edges.

    The constructor takes one bundle per index, the pool ``0`` first, and
    rejects any other count or an agent bundle that is not clean. It then
    copies them once into ``clean``, a list of mutable sets that
    ``augment`` changes in place; ``owner`` maps each good to the index of
    the bundle holding it. A solver keeps one graph for a whole solve.

    ``dead`` holds goods from which no path reaches the pool ``clean[0]``:
    every good a failed ``shortest_path`` search reached. Everything a dead
    good reaches is dead too, so later searches skip these goods. The set
    depends only on ``clean`` and ``owner``, so ``augment``, the one place
    they change, clears it; provisional hand-outs leave both alone.
    """

    __slots__ = _fields = ("instance", "clean", "owner", "dead")

    def __init__(self, instance: Instance, clean: Sequence[Iterable[int]]) -> None:
        if len(clean) != instance.n + 1:
            raise PreconditionError(f"expected {instance.n + 1} clean bundles")
        for i in instance.agents:
            if not instance.valuation(i).is_clean(clean[i]):
                raise PreconditionError(f"bundle of agent {i} is not clean")
        self.instance = instance
        self.clean: list[set[int]] = [set(bundle) for bundle in clean]
        self.owner = {g: idx for idx, bundle in enumerate(self.clean) for g in bundle}
        self.dead: set[int] = set()

    def out_neighbors(self, g: int) -> list[int]:
        """Goods the owner of ``g`` would accept in exchange, ascending."""
        j = self.owner[g]
        if j == 0:
            # The pool owner counts every good as high value, so it accepts
            # any good in exchange. Pool-to-pool edges never shorten a path
            # (the pool is either the search target or skippable), so this
            # matches the rank-preservation rule wherever paths matter.
            return [h for h in range(self.instance.m) if h != g]
        matroid = self.instance.valuation(j).matroid
        # ``extensions`` skips the goods it is given, so g is the one bundle good left.
        return [h for h in matroid.extensions(self.clean[j] - {g}) if h != g]

    def edges(self) -> list[tuple[int, int]]:
        """Materialize every edge; intended for dumps and small instances."""
        return [
            (g, h) for g in range(self.instance.m) for h in self.out_neighbors(g)
        ]

    def to_dot(self) -> str:
        """DOT rendering with goods labelled by name and owner."""
        lines = ["digraph exchange {"]
        for g in range(self.instance.m):
            lines.append(
                f'  g{g} [label="{self.instance.goods[g]}\\nowner {self.owner[g]}"];'
            )
        for g, h in self.edges():
            lines.append(f"  g{g} -> g{h};")
        lines.append("}")
        return "\n".join(lines)


def shortest_path(graph: ExchangeGraph, sources: AbstractSet[int]) -> tuple[int, ...] | None:
    """Breadth-first shortest path from any source good to the pool ``clean[0]``.

    Among equal-length paths the lexicographically smallest good-id sequence
    wins: a pool good among the sources is the whole path, the least one;
    otherwise layers are expanded in path order, and the first good with a
    pool good among its out-neighbors ends the path, at the least such good.
    Returns ``None`` when the pool is unreachable, and then adds every good
    the search reached to ``graph.dead``.

    Dead goods are neither started from nor enqueued. This keeps the
    canonical path: no dead good has an edge to a live one, so every live
    good keeps its BFS parent and distance, and dropping dead goods keeps
    the order of the rest within each layer. Pool goods are never dead.
    """
    targets, dead = graph.clean[0], graph.dead
    hits = targets.intersection(sources)
    if hits:
        return (min(hits),)
    frontier = sorted(sources - dead)
    parent: dict[int, int | None] = dict.fromkeys(frontier)
    while frontier:
        next_frontier: list[int] = []
        for g in frontier:
            out = graph.out_neighbors(g)
            if not targets.isdisjoint(out):
                path = [min(targets.intersection(out)), g]
                while (g := parent[g]) is not None:
                    path.append(g)
                return tuple(reversed(path))
            for h in out:
                if h not in parent and h not in dead:
                    parent[h] = g
                    next_frontier.append(h)
        frontier = next_frontier
    dead.update(parent)
    return None


def augment(graph: ExchangeGraph, path: Sequence[int], receiver: int) -> None:
    """Shift goods along ``path`` in place and give its first good to ``receiver``.

    Every owner of a path good swaps it for the next good on the path; the
    final good leaves its bundle entirely and the first good goes to the
    receiver. Only the path's goods move, in ``graph.clean`` and
    ``graph.owner``, and ``graph.dead`` is cleared.

    The agent bundles the path touches are then verified: on a shortest
    path each keeps its size, except that the receiver grows by one and the
    last good's owner shrinks by one, and each stays clean. Any breach
    raises ``InternalInvariantError``, since it means the path was invalid;
    the graph is then left as the path moved it.
    """
    if not path:
        raise PreconditionError("empty transfer path")
    clean, owner = graph.clean, graph.owner
    losers = [owner[g] for g in path]
    sizes = {i: len(clean[i]) for i in (receiver, *losers) if i}
    gainer = receiver
    for g, loser in zip(path, losers):
        clean[loser].discard(g)
        clean[gainer].add(g)
        owner[g] = gainer
        gainer = loser
    graph.dead.clear()

    valuations = graph.instance.valuations
    for i in sorted(sizes):
        expected = sizes[i] + (i == receiver) - (i == loser)
        if len(clean[i]) != expected:
            raise InternalInvariantError(
                f"transfer path changed bundle {i} from {sizes[i]} "
                f"to {len(clean[i])} goods"
            )
        if not valuations[i - 1].is_clean(clean[i]):
            raise InternalInvariantError(f"transfer path left bundle {i} unclean")
