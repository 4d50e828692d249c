"""Outside-in layer trace: wrappers on ``bifair``'s names, spans and counters.

The traced run patches public callables at the names the library itself
resolves at call time (``bifair.solver`` imports ``shortest_path``,
``augment_path``, ``ExchangeGraph`` and ``f_set`` by name, so they are
patched there, not in ``bifair.exchange``). Timed wrappers record a span
(name, parent, start, end, operation); the hot matroid and criterion methods
get count-only wrappers, because timing them slows a ladder solve about 9x.
A name that no longer exists is reported as absent instead of failing the
run. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute path, span name). Several names can share one span.
SPANS = (
    ("bifair.cli", "main", "cli.main"),
    ("bifair.io", "load_instance", "io.load"),
    ("bifair", "load_instance", "io.load"),
    ("bifair.io", "emit_allocation", "io.emit"),
    ("bifair.io", "dumps_canonical", "io.emit"),
    ("bifair.solver", "SolveTrace.to_jsonl", "io.emit"),
    ("bifair", "solve", "solver.solve"),
    ("bifair.cli", "solve", "solver.solve"),
    ("bifair.solver", "_argmax_min_index", "solver.select"),
    ("bifair.solver", "f_set", "exchange.f_set"),
    ("bifair.exchange", "ExchangeGraph.out_neighbors", "exchange.edge_discovery"),
    ("bifair.solver", "ExchangeGraph", "exchange.graph_build"),
    ("bifair.solver", "shortest_path", "exchange.bfs"),
    ("bifair.solver", "augment_path", "exchange.augment"),
    ("bifair.oracle", "brute_force_optima", "oracle.brute_force"),
    ("bifair", "audit_allocation", "audit.allocation"),
    ("bifair.audit", "check_ef1", "audit.envy"),
    ("bifair.audit", "check_efx", "audit.envy"),
    ("bifair.audit", "mms_ratio_report", "audit.mms"),
)

MATROID_FAMILIES = (
    ("MarkedMatroid", "marked"),
    ("UniformMatroid", "uniform"),
    ("PartitionMatroid", "partition"),
    ("TransversalMatroid", "transversal"),
)

# (module, attribute path, counter). Counters ending in ".can_extend.*"
# also count their True results.
COUNTS = (
    ("bifair.solver", "MaxNashWelfare.gain", "solver.gain_evals"),
    ("bifair.solver", "Leximin.gain", "solver.gain_evals"),
    ("bifair.solver", "PMeanWelfare.gain", "solver.gain_evals"),
    ("bifair.valuation", "BivaluedValuation.is_clean", "valuation.is_clean_calls"),
) + tuple(
    ("bifair.valuation", f"{cls}.{method}", f"valuation.{method}.{family}")
    for cls, family in MATROID_FAMILIES
    for method in ("rank", "can_extend")
)

LAYERS = ("bench", "cli", "io", "solver", "exchange", "audit", "oracle")

# Per-layer metric -> the spans or counters it needs; reported as absent
# when one of them could not be wrapped, or (".result") when the wrapped
# call's result no longer has the fields read from it.
NEEDS = {
    "exchange.expansions": ("exchange.edge_discovery",),
    "exchange.edges_found": ("exchange.edge_discovery", "exchange.edge_discovery.result"),
    "exchange.edge_discovery_s": ("exchange.edge_discovery",),
    "exchange.bfs_calls": ("exchange.bfs",),
    "exchange.bfs_s": ("exchange.bfs",),
    "exchange.bfs_hit_ratio": ("exchange.bfs", "exchange.bfs.result"),
    "exchange.path_len.mean": ("exchange.bfs", "exchange.bfs.result"),
    "exchange.path_len.max": ("exchange.bfs", "exchange.bfs.result"),
    "exchange.augment_calls": ("exchange.augment",),
    "exchange.augment_s": ("exchange.augment",),
    "exchange.f_set_s": ("exchange.f_set",),
    "exchange.graph_builds": ("exchange.graph_build",),
    "exchange.graph_build_s": ("exchange.graph_build",),
    "solver.gain_evals": ("solver.gain_evals",),
    "solver.select_s": ("solver.select",),
    "solver.solve_s": ("solver.solve",),
    "solver.self_s": ("solver.solve",),
    "solver.iterations": ("solver.solve", "solver.solve.result"),
    "solver.augmented": ("solver.solve", "solver.solve.result"),
    "solver.removed": ("solver.solve", "solver.solve.result"),
    "solver.provisional": ("solver.solve", "solver.solve.result"),
    "solver.steals": ("solver.solve", "solver.solve.result"),
    "valuation.is_clean_calls": ("valuation.is_clean_calls",),
    "oracle.brute_force_s": ("oracle.brute_force",),
    "oracle.assignments": ("oracle.brute_force", "oracle.brute_force.result"),
    "audit.envy_s": ("audit.envy",),
    "audit.mms_s": ("audit.mms",),
    "io.load_s": ("io.load",),
    "io.emit_s": ("io.emit",),
}


def unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("exchange.path_len."):
        return "goods"
    if metric.endswith("_s") or metric.startswith("self_s."):
        return "s/op"
    return "count/op"


def resolve(module: str, path: str) -> tuple[Any, str]:
    """Owner object and attribute name of ``module.path``; AttributeError if gone."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        # Span records: [name, parent index, start, end, operation index].
        self.spans: list[list] = []
        self.current = -1
        self.operation = -1
        self.counts: Counter[str] = Counter()
        self.max_path = 0
        self.absent: set[str] = set()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._after = {
            "exchange.edge_discovery": self._after_edges,
            "exchange.bfs": self._after_bfs,
            "solver.solve": self._after_solve,
            "oracle.brute_force": self._after_brute_force,
        }

    # Wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            record = [name, self.current, perf_counter(), 0.0, self.operation]
            spans.append(record)
            parent, self.current = self.current, len(spans) - 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self.current = parent
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, TypeError):
                    self.absent.add(f"{name}.result")
            return result

        # No __dict__ merge: ``fn`` may be a class (ExchangeGraph).
        return functools.update_wrapper(wrapper, fn, updated=())

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        if ".can_extend." in key:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if result:
                    counts["valuation.can_extend.true"] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn, updated=())

    def _after_edges(self, args: tuple, result: list) -> None:
        self.counts["exchange.edges_found"] += len(result)

    def _after_bfs(self, args: tuple, path) -> None:
        if path is not None:
            self.counts["exchange.bfs_hits"] += 1
            self.counts["exchange.path_goods"] += len(path)
            self.max_path = max(self.max_path, len(path))

    def _after_solve(self, args: tuple, result) -> None:
        records = result.trace.records
        self.counts["solver.iterations"] += len(records)
        for record in records:
            self.counts[f"solver.{record.action}"] += 1
            if record.replacement is not None:
                self.counts["solver.steals"] += 1

    def _after_brute_force(self, args: tuple, result) -> None:
        instance = args[0]
        self.counts["oracle.assignments"] += (instance.n + 1) ** instance.m

    # Installation ---------------------------------------------------------

    def _patch(self, module: str, path: str, label: str, wrap: Callable) -> None:
        try:
            owner, attr = resolve(module, path)
        except (ImportError, AttributeError):
            self.absent.add(label)
            return
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        setattr(owner, attr, wrap(label, original))
        self._patches.append((owner, attr, original if owned else None, owned))

    def install(self) -> None:
        # Methods are resolved before ``bifair.solver.ExchangeGraph`` is
        # replaced by a wrapper, through ``bifair.exchange``'s class object.
        for module, path, counter in COUNTS:
            self._patch(module, path, counter, self._counted)
        for module, path, span in SPANS:
            self._patch(module, path, span, self._timed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run one operation under a root span that its child spans share."""
        self.operation += 1
        return self._timed(name, fn)()

    # Results --------------------------------------------------------------

    def span_totals(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its children.
        """
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        children = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        own: Counter[str] = Counter()
        for (name, _, start, end, _), inner in zip(self.spans, children):
            own[name] += end - start - inner
        return calls, total, own

    def metrics(self, operations: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics, per operation; counters are exact per pass."""
        calls, total, own = self.span_totals()
        counts = self.counts
        totals = {
            "exchange.expansions": calls["exchange.edge_discovery"],
            "exchange.edges_found": counts["exchange.edges_found"],
            "exchange.edge_discovery_s": own["exchange.edge_discovery"],
            "exchange.bfs_calls": calls["exchange.bfs"],
            "exchange.bfs_s": own["exchange.bfs"],
            "exchange.augment_calls": calls["exchange.augment"],
            "exchange.augment_s": own["exchange.augment"],
            "exchange.f_set_s": own["exchange.f_set"],
            "exchange.graph_builds": calls["exchange.graph_build"],
            "exchange.graph_build_s": own["exchange.graph_build"],
            "valuation.is_clean_calls": counts["valuation.is_clean_calls"],
            "solver.gain_evals": counts["solver.gain_evals"],
            "solver.select_s": own["solver.select"],
            "solver.solve_s": total["solver.solve"],
            "solver.self_s": own["solver.solve"],
            "solver.iterations": counts["solver.iterations"],
            "solver.augmented": counts["solver.augmented"],
            "solver.removed": counts["solver.removed-from-play"],
            "solver.provisional": counts["solver.provisional"],
            "solver.steals": counts["solver.steals"],
            "oracle.brute_force_s": own["oracle.brute_force"],
            "oracle.assignments": counts["oracle.assignments"],
            "audit.envy_s": own["audit.envy"],
            "audit.mms_s": own["audit.mms"],
            "io.load_s": own["io.load"],
            "io.emit_s": own["io.emit"],
        }
        for _, family in MATROID_FAMILIES:
            for method in ("rank", "can_extend"):
                key = f"valuation.{method}.{family}"
                totals[key] = counts[key]
        for layer in LAYERS:
            totals[f"self_s.{layer}"] = sum(
                seconds for name, seconds in own.items()
                if name.split(".", 1)[0] == layer
            )
        # Division of whole-pass totals, so a counter reads the same however
        # many passes a run made.
        values: dict[str, float] = {name: value / operations for name, value in totals.items()}
        hits, bfs_calls = counts["exchange.bfs_hits"], calls["exchange.bfs"]
        extend_calls = sum(counts[f"valuation.can_extend.{family}"]
                           for _, family in MATROID_FAMILIES)
        values.update({
            "exchange.bfs_hit_ratio": hits / bfs_calls if bfs_calls else 0.0,
            "exchange.path_len.mean": counts["exchange.path_goods"] / hits if hits else 0.0,
            "exchange.path_len.max": self.max_path,
            "valuation.can_extend_hit_ratio": (
                counts["valuation.can_extend.true"] / extend_calls if extend_calls else 0.0
            ),
            "trace.overhead_ratio": overhead_ratio,
        })
        return values

    def absent_metrics(self) -> list[str]:
        """Metrics whose span or counter could not be installed."""
        missing = {
            metric for metric, needs in NEEDS.items()
            if any(need in self.absent for need in needs)
        }
        missing |= {label for label in self.absent if label.startswith("valuation.")}
        return sorted(missing)

    def self_shares(self) -> list[tuple[str, float]]:
        """Each span's share of all traced self time, largest first."""
        _, _, own = self.span_totals()
        whole = sum(own.values()) or 1.0
        return [(name, round(seconds / whole, 4)) for name, seconds in own.most_common()]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end, operation) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "op": operation,
                    "name": name, "start": start, "end": end,
                }) + "\n")
