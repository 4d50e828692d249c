"""Independent oracles for the test suite.

Everything here recomputes quantities from first principles (subset
enumeration, explicit independence predicates, exhaustive path search) so
the library's own rank/graph machinery is never used to check itself.
"""

from __future__ import annotations

import itertools
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from bifair.allocation import Allocation, Decomposition
from bifair.valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
)


def is_independent(matroid: Matroid, subset: frozenset[int]) -> bool:
    """Independence decided from each family's definition, not from rank()."""
    if isinstance(matroid, UniformMatroid):
        return len(subset) <= matroid.cap
    if isinstance(matroid, MarkedMatroid):
        return subset <= matroid.marked
    if isinstance(matroid, PartitionMatroid):
        if any(
            all(g not in part for part in matroid.parts) for g in subset
        ):
            return False
        return all(
            len(subset & part) <= cap
            for part, cap in zip(matroid.parts, matroid.caps)
        )
    if isinstance(matroid, TransversalMatroid):
        goods = sorted(subset)
        reached = sorted(set().union(*(matroid.adjacency[g] for g in goods)))
        for slots in itertools.permutations(reached, len(goods)):
            if all(s in matroid.adjacency[g] for g, s in zip(goods, slots)):
                return True
        return not goods
    if isinstance(matroid, ExplicitMatroid):
        return matroid.ranks[sum(1 << g for g in subset)] == len(subset)
    raise TypeError(type(matroid))


def brute_rank(matroid: Matroid, subset: frozenset[int]) -> int:
    """Largest independent subset, by trying every subset."""
    best = 0
    goods = sorted(subset)
    for size in range(len(goods), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(goods, size):
            if is_independent(matroid, frozenset(combo)):
                best = size
                break
    return best


def brute_value(valuation: BivaluedValuation, subset: frozenset[int]) -> int:
    return len(subset) + (valuation.c - 1) * brute_rank(valuation.matroid, subset)


def brute_max_clean_subset(valuation: BivaluedValuation, bundle: frozenset[int]) -> int:
    """Size of the largest subset worth c per good, by direct enumeration."""
    best = 0
    goods = sorted(bundle)
    for size in range(len(goods), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(goods, size):
            if brute_value(valuation, frozenset(combo)) == valuation.c * size:
                best = size
                break
    return best


def all_shortest_paths(
    edges: set[tuple[int, int]],
    nodes: range,
    sources: frozenset[int],
    targets: frozenset[int],
) -> list[tuple[int, ...]]:
    """Every shortest simple path from a source to a target, via DFS."""
    adjacency: dict[int, list[int]] = {g: [] for g in nodes}
    for g, h in edges:
        adjacency[g].append(h)
    found: list[tuple[int, ...]] = []
    best_len = [len(nodes) + 1]

    def extend(path: list[int]) -> None:
        if len(path) > best_len[0]:
            return
        tail = path[-1]
        if tail in targets:
            if len(path) < best_len[0]:
                best_len[0] = len(path)
                found.clear()
            if len(path) == best_len[0]:
                found.append(tuple(path))
            return
        for succ in adjacency[tail]:
            if succ not in path:
                path.append(succ)
                extend(path)
                path.pop()

    for src in sorted(sources):
        extend([src])
    return [p for p in found if len(p) == best_len[0]]


def random_clean_allocation(
    instance: Instance, rng: random.Random
) -> tuple[frozenset[int], ...]:
    """A random clean allocation: offer each good to a random eligible agent."""
    bundles: list[set[int]] = [set() for _ in range(instance.n + 1)]
    order = list(range(instance.m))
    rng.shuffle(order)
    for g in order:
        agents = list(instance.agents)
        rng.shuffle(agents)
        placed = False
        for i in agents:
            if rng.random() < 0.35:
                continue
            if instance.valuation(i).matroid.can_extend(frozenset(bundles[i]), g):
                bundles[i].add(g)
                placed = True
                break
        if not placed:
            bundles[0].add(g)
    return tuple(frozenset(b) for b in bundles)


def random_allocation(
    instance: Instance, rng: random.Random
) -> tuple[frozenset[int], ...]:
    bundles: list[set[int]] = [set() for _ in range(instance.n + 1)]
    for g in range(instance.m):
        bundles[rng.randint(0, instance.n)].add(g)
    return tuple(frozenset(b) for b in bundles)


def ladder_instance(n: int = 30, block: int = 10, m: int = 60, c: int = 3) -> Instance:
    """Marked instance whose transfer paths run the length of a block.

    Agents come in blocks of ``block``, each over a chain of ``block`` goods.
    Agent j of a block marks chain goods j and j+1; the block's last agent
    marks only the chain's first good, so it is served by shifting every
    good of the chain one place. Goods past the chains are marked by nobody.
    """
    goods = tuple(f"g{g}" for g in range(m))
    valuations = []
    for k in range(n):
        start, j = k - k % block, k % block
        marked = {start} if j == block - 1 else {start + j, start + j + 1}
        valuations.append(BivaluedValuation(c, MarkedMatroid(m, frozenset(marked))))
    return Instance(goods, c, tuple(valuations))


def all_utility_vectors(instance: Instance, pool: bool = True) -> set[tuple[int, ...]]:
    """Utility vector of every assignment of goods to the pool or an agent.

    Walks all (n+1)^m assignments with bundle values from ``brute_value``:
    the plain enumeration that the library's subset DP must agree with.
    With ``pool=False`` it walks the n^m complete assignments only.
    """
    n, m = instance.n, instance.m
    subsets = [frozenset(g for g in range(m) if mask >> g & 1) for mask in range(1 << m)]
    tables = [
        [brute_value(instance.valuation(i), s) for s in subsets] for i in instance.agents
    ]
    vectors = set()
    for owners in itertools.product(range(0 if pool else 1, n + 1), repeat=m):
        masks = [0] * (n + 1)
        for g, owner in enumerate(owners):
            masks[owner] |= 1 << g
        vectors.add(tuple(tables[i][masks[i + 1]] for i in range(n)))
    return vectors


def pmean_optima(instance: Instance, p: float) -> set[tuple[int, ...]]:
    """Sorted utility vectors of every p-mean optimum, for ``p < 1``, ``p != 0``.

    Most positive agents first, then the best power sum of the positive
    utilities (the smallest for ``p < 0``), over ``all_utility_vectors``.
    Integer p sums exact ``Fraction`` powers; any other p sums 60-digit
    ``Decimal`` powers of the exact float p, added in ascending order so
    equal multisets give equal sums.
    """
    vectors = {tuple(sorted(v)) for v in all_utility_vectors(instance)}
    powers: dict[int, Fraction | Decimal] = {}

    def power(x: int) -> Fraction | Decimal:
        if x not in powers:
            if p == int(p):
                powers[x] = Fraction(x) ** int(p)
            else:
                powers[x] = Decimal(x) ** Decimal(p)
        return powers[x]

    def key(vector: tuple[int, ...]) -> tuple:
        positive = [x for x in vector if x > 0]
        total = sum(power(x) for x in positive)
        return len(positive), total if p > 0 else -total

    with localcontext() as context:
        context.prec = 60
        keys = {vector: key(vector) for vector in vectors}
    best = max(keys.values())
    return {vector for vector, k in keys.items() if k == best}


def maximum_independent_subsets(matroid: Matroid, bundle: frozenset[int]) -> list[frozenset[int]]:
    """Every largest subset of ``bundle`` that ``is_independent`` accepts."""
    size = brute_rank(matroid, bundle)
    return [
        frozenset(combo)
        for combo in itertools.combinations(sorted(bundle), size)
        if is_independent(matroid, frozenset(combo))
    ]


def all_decompositions(instance: Instance, allocation: Allocation) -> list[Decomposition]:
    """Every clean/supplementary split of ``allocation``, from the definition.

    Per agent, any of ``maximum_independent_subsets`` of the bundle is a
    clean part; the decompositions are the cartesian product of the choices.
    """
    options = [
        maximum_independent_subsets(instance.valuation(i).matroid, allocation.bundle(i))
        for i in instance.agents
    ]
    everything = frozenset(range(instance.m))
    return [
        Decomposition(
            (everything.difference(*choice),) + choice,
            (frozenset(),) + tuple(
                allocation.bundle(i) - choice[i - 1] for i in instance.agents
            ),
        )
        for choice in itertools.product(*options)
    ]


def certify_reference(instance: Instance, result, criterion) -> str | None:
    """Why a solver output is not an undominated optimum, from the definitions.

    Walks all (n+1)^m assignments, pool included, with bundle values from
    ``brute_value``. Returns ``"beaten"`` if some assignment's key beats the
    output's. Otherwise returns ``"dominated"`` if some assignment ties the
    output's key and one of its decompositions beats the output's under the
    three-stage order: sorted clean utilities, then clean utilities agent by
    agent, then utilities agent by agent. A decomposition takes, per agent,
    any of ``maximum_independent_subsets`` of the bundle as its clean part.
    Returns None when neither happens.
    """
    n, m, c = instance.n, instance.m, instance.c
    criterion = criterion.bind(instance)
    subsets = [frozenset(g for g in range(m) if mask >> g & 1) for mask in range(1 << m)]
    valuations = [instance.valuation(i) for i in instance.agents]
    values = [[brute_value(v, s) for s in subsets] for v in valuations]
    cleans = [
        [maximum_independent_subsets(v.matroid, s) for s in subsets] for v in valuations
    ]
    own_utilities = tuple(
        brute_value(v, result.allocation.bundle(i)) for i, v in enumerate(valuations, 1)
    )
    own_clean = tuple(c * len(result.decomposition.clean[i]) for i in instance.agents)
    own_order = (sorted(own_clean), own_clean, own_utilities)
    own_key = criterion.key(own_utilities)
    dominated = False
    for owners in itertools.product(range(n + 1), repeat=m):
        masks = [0] * (n + 1)
        for g, owner in enumerate(owners):
            masks[owner] |= 1 << g
        utilities = tuple(values[i][masks[i + 1]] for i in range(n))
        order = criterion.compare_keys(criterion.key(utilities), own_key)
        if order > 0:
            return "beaten"
        if order < 0 or dominated:
            continue
        for parts in itertools.product(*(cleans[i][masks[i + 1]] for i in range(n))):
            clean = tuple(c * len(part) for part in parts)
            if (sorted(clean), clean, utilities) > own_order:
                dominated = True
                break
    return "dominated" if dominated else None
