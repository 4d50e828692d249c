"""Exchange graph over a clean allocation and transfer-path machinery.

The exchange graph has one node per good. An edge g -> g' means the owner of
g can hand g away and take g' instead without losing any high-value good:
``rank_j(X_j - g + g') = rank_j(X_j)`` for the owning agent j. The
unallocated pool (bundle 0) acts as an owner that values everything highly,
so pool goods have edges to every allocated good.

The owner's matroid answers on the live bundle: ``Matroid.extensions``
gives an agent's transfer-path sources and ``Matroid.exchanges`` the edges
out of its goods. A marked matroid answers both in closed form, from the
marked goods the bundle lacks.

Shifting goods along a shortest path from an agent's frontier to another
bundle gives that agent one more high-value good, keeps every intermediate
owner whole, and shrinks the path's final bundle by one. ``augment`` makes
that shift in place: it moves the path's goods between the bundles and
updates the owner map, and copies no bundle.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .errors import InternalInvariantError, PreconditionError
from .record import MutableRecord
from .valuation import GoodSet, Instance


def f_set(instance: Instance, clean: Sequence[AbstractSet[int]], i: int) -> GoodSet:
    """Goods (allocated anywhere or free) that extend agent i's clean bundle.

    These are exactly the goods worth the high value c to agent i on top of
    what they already hold; the agent's transfer paths start here. The
    solver passes the matroid's ``extensions`` list straight to the search
    instead of freezing it.
    """
    return frozenset(instance.valuation(i).matroid.extensions(clean[i]))


class ExchangeGraph(MutableRecord):
    """Exchange graph over a clean allocation, with lazily computed edges.

    The constructor takes one bundle per index, the pool ``0`` first, and
    rejects any other count, bundles that overlap or miss a good of
    ``0..m-1``, and an agent bundle that is not clean. ``clean[i]`` is then
    a mutable copy of bundle i, so the caller's bundles never change, and
    ``owner`` maps each good to the index of the bundle holding it. A solver
    keeps one graph for a whole solve.

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
        bundles = [set(bundle) for bundle in clean]
        owner = {g: idx for idx, bundle in enumerate(bundles) for g in bundle}
        # No matroid ranks a bundle before the bundles pass these checks.
        if sum(map(len, bundles)) != len(owner):
            raise PreconditionError("clean bundles overlap")
        if owner.keys() != set(range(instance.m)):
            raise PreconditionError("clean bundles must hold every good and no other")
        for i, valuation in enumerate(instance.valuations, start=1):
            if not valuation.is_clean(bundles[i]):
                raise PreconditionError(f"bundle of agent {i} is not clean")
        self.instance = instance
        self.clean: list[set[int]] = bundles
        self.owner = owner
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
        return self.instance.valuations[j - 1].matroid.exchanges(self.clean[j], g)

    def edges(self) -> list[tuple[int, int]]:
        """Materialize every edge; intended for dumps and small instances."""
        return [
            (g, h) for g in range(self.instance.m) for h in self.out_neighbors(g)
        ]

    def to_dot(self) -> str:
        """DOT rendering with goods labelled by name and owner.

        A name's backslashes and double quotes are escaped, in that order,
        so every label is a valid DOT string that reads back as the name.
        """
        lines = ["digraph exchange {"]
        for g, name in enumerate(self.instance.goods):
            name = name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  g{g} [label="{name}\\nowner {self.owner[g]}"];')
        for g, h in self.edges():
            lines.append(f"  g{g} -> g{h};")
        lines.append("}")
        return "\n".join(lines)


def shortest_path(graph: ExchangeGraph, sources: Iterable[int]) -> tuple[int, ...] | None:
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
    frontier = sorted(g for g in sources if g not in dead)
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
    receiver. Only the path's goods move, between the sets of
    ``graph.clean`` and in ``graph.owner``, and ``graph.dead`` is cleared.

    The agent bundles the path touches are then verified: on a shortest path
    each keeps its size, except that the receiver grows by one and the last
    good's owner shrinks by one, and each stays clean by its valuation's
    ``is_clean``. Any breach raises ``InternalInvariantError``, since it
    means the path was invalid; the graph is then left as the path moved it.
    """
    if not path:
        raise PreconditionError("empty transfer path")
    clean, owner = graph.clean, graph.owner
    sizes = {receiver: len(clean[receiver])}  # bundle index -> size before
    gainer = receiver
    for g in path:
        loser = owner[g]
        if loser not in sizes:
            sizes[loser] = len(clean[loser])
        clean[loser].remove(g)
        clean[gainer].add(g)
        owner[g] = gainer
        gainer = loser
    graph.dead.clear()

    valuations = graph.instance.valuations
    for i, size in sizes.items():
        if not i:
            continue
        expected = size + (i == receiver) - (i == loser)
        if len(clean[i]) != expected:
            raise InternalInvariantError(
                f"transfer path changed bundle {i} from {size} to {len(clean[i])} goods"
            )
        if not valuations[i - 1].is_clean(clean[i]):
            raise InternalInvariantError(f"transfer path left bundle {i} unclean")
