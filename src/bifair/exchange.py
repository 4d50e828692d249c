"""Exchange graph over a clean allocation and transfer-path machinery.

The exchange graph has one node per good. An edge g -> g' means the owner of
g can hand g away and take g' instead without losing any high-value good:
``rank_j(X_j - g + g') = rank_j(X_j)`` for the owning agent j. The
unallocated pool (bundle 0) acts as an owner that values everything highly,
so pool goods have edges to every allocated good.

Shifting goods along a shortest path from an agent's frontier to another
bundle gives that agent one more high-value good, keeps every intermediate
owner whole, and shrinks the path's final bundle by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import InternalInvariantError, PreconditionError
from .valuation import GoodSet, Instance

CleanBundles = tuple[GoodSet, ...]


def _check_clean(instance: Instance, clean: CleanBundles) -> None:
    if len(clean) != instance.n + 1:
        raise PreconditionError(f"expected {instance.n + 1} clean bundles")
    for i in instance.agents:
        if not instance.valuation(i).is_clean(clean[i]):
            raise PreconditionError(f"bundle of agent {i} is not clean")


def f_set(instance: Instance, clean: CleanBundles, i: int) -> GoodSet:
    """Goods (allocated anywhere or free) that extend agent i's clean bundle.

    These are exactly the goods worth the high value c to agent i on top of
    what they already hold; the agent's transfer paths start here.
    """
    return frozenset(instance.valuation(i).matroid.extensions(clean[i]))


@dataclass
class ExchangeGraph:
    """Exchange graph over a clean allocation, with lazily computed edges.

    ``owner`` maps each good to the index of the bundle holding it. A solver
    keeps one graph for a whole solve and moves it along with ``update``.

    ``dead`` holds goods from which no path reaches the pool ``clean[0]``:
    every good a failed ``shortest_path`` search reached. Everything a dead
    good reaches is dead too, so later searches skip these goods. The set
    depends only on ``clean`` and ``owner``, so ``update``, the one place
    they change, clears it; provisional hand-outs leave both alone.
    """

    instance: Instance
    clean: CleanBundles
    owner: dict[int, int] = field(init=False)
    dead: set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.dead = set()
        self.owner = {}
        for idx, bundle in enumerate(self.clean):
            for g in bundle:
                self.owner[g] = idx

    def out_neighbors(self, g: int) -> list[int]:
        """Goods the owner of ``g`` would accept in exchange, ascending."""
        j = self.owner[g]
        bundle = self.clean[j]
        if j == 0:
            # The pool owner counts every good as high value, so it accepts
            # any good in exchange. Pool-to-pool edges never shorten a path
            # (the pool is either the search target or skippable), so this
            # matches the rank-preservation rule wherever paths matter.
            return [h for h in range(self.instance.m) if h != g]
        matroid = self.instance.valuation(j).matroid
        return [h for h in matroid.extensions(bundle - {g}) if h not in bundle]

    def update(self, clean: CleanBundles, path: Sequence[int], receiver: int) -> None:
        """Move to ``clean``, the result of ``augment`` along ``path``.

        Only the path's goods change owner: the first goes to ``receiver``
        and each later one to the previous good's owner.
        """
        owner = self.owner
        moved = [receiver] + [owner[g] for g in path[:-1]]
        for g, idx in zip(path, moved):
            owner[g] = idx
        self.clean = clean
        self.dead.clear()

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


def build(instance: Instance, clean: CleanBundles) -> ExchangeGraph:
    """Exchange graph for a clean allocation; rejects non-clean input."""
    _check_clean(instance, clean)
    return ExchangeGraph(instance, clean)


def shortest_path(graph: ExchangeGraph, sources: Iterable[int]) -> tuple[int, ...] | None:
    """Breadth-first shortest path from any source good to the pool ``clean[0]``.

    Among equal-length paths the lexicographically smallest good-id sequence
    wins: each BFS layer is processed in path order and neighbors are
    explored in ascending id, so the first path that reaches the pool is the
    canonical one. Returns ``None`` when the pool is unreachable, and then
    adds every good the search reached to ``graph.dead``.

    Dead goods are neither started from nor enqueued. This keeps the
    canonical path: no dead good has an edge to a live one, so every live
    good keeps its BFS parent and distance, and dropping dead goods keeps
    the order of the rest within each layer. Pool goods are never dead.
    """
    targets, dead = graph.clean[0], graph.dead
    frontier = sorted(set(sources) - dead)
    parent: dict[int, int | None] = {g: None for g in frontier}

    def path_to(g: int) -> tuple[int, ...]:
        path: list[int] = []
        node: int | None = g
        while node is not None:
            path.append(node)
            node = parent[node]
        return tuple(reversed(path))

    while frontier:
        for g in frontier:
            if g in targets:
                return path_to(g)
        next_frontier: list[int] = []
        for g in frontier:
            for h in graph.out_neighbors(g):
                if h not in parent and h not in dead:
                    parent[h] = g
                    next_frontier.append(h)
        frontier = next_frontier
    dead.update(parent)
    return None


def augment(
    instance: Instance,
    clean: CleanBundles,
    path: Sequence[int],
    receiver: int,
    owner: Mapping[int, int] | None = None,
) -> CleanBundles:
    """Shift goods along ``path`` and give its first good to ``receiver``.

    Every owner of a path good swaps it for the next good on the path; the
    final good leaves its bundle entirely and the first good goes to the
    receiver. ``owner`` maps goods to bundle indices, as ``ExchangeGraph``
    keeps it; without it the map is built from ``clean``.

    Only the bundles the path touches are copied and verified: the receiver
    and the owners of path goods. On a shortest path each keeps its size,
    except that the receiver grows by one and the last good's owner shrinks
    by one, and each stays clean. Any breach raises
    ``InternalInvariantError``, since it means the path was invalid. Every
    other bundle is returned as the same object it was in ``clean``.
    """
    if not path:
        raise PreconditionError("empty transfer path")
    if owner is None:
        owner = {g: idx for idx, bundle in enumerate(clean) for g in bundle}
    losers = [owner[g] for g in path]
    gainers = [receiver] + losers[:-1]
    shifted = {idx: set(clean[idx]) for idx in (*losers, receiver)}
    for g, idx in zip(path, losers):
        shifted[idx].discard(g)
    for g, idx in zip(path, gainers):
        shifted[idx].add(g)
    result = list(clean)
    for idx, bundle in shifted.items():
        result[idx] = frozenset(bundle)

    for i in sorted(shifted.keys() - {0}):
        expected = len(clean[i]) + (i == receiver) - (i == losers[-1])
        if len(result[i]) != expected:
            raise InternalInvariantError(
                f"transfer path changed bundle {i} from {len(clean[i])} "
                f"to {len(result[i])} goods"
            )
        if not instance.valuation(i).is_clean(result[i]):
            raise InternalInvariantError(f"transfer path left bundle {i} unclean")
    return tuple(result)
