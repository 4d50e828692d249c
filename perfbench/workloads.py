"""Corpora, operations and output checks of the three benchmark workloads.

Every workload builds its instance files from the run's seed, prepares what
its operations share, and exposes a list of operations. An operation is a
``call`` (the timed work, made only through ``bifair``'s public names so the
traced run can wrap them) and a ``check`` of what the call returned. A check
raises ``CheckFailed``; the runner counts that like any other exception.

``ladder`` and ``families`` solve fixed instances whose goods the run seed
renames, and their checks map the names back, so the reference digests in
``reference.json`` cover every run seed. ``verify`` needs no digests: brute
force is its reference.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

LADDER_N = 150
LADDER_BLOCK = 50
LADDER_C = 3
LADDER_VARIANTS = 3
LADDER_CRITERIA = ("leximin", "mnw")
# Operations per instance and pass. leximin runs twice as often as mnw: the
# roadmap's ladder target is leximin, and a 2:1 mix keeps the median and p75
# off the boundary between the two criteria's clusters of times (mnw solves
# take about a quarter longer), where a median would be mostly noise.
LADDER_MIX = ("leximin", "mnw", "leximin")

FAMILIES = ("marked", "uniform", "partition", "transversal")
# (c, agent-count range, goods-count range): both c values at both sizes.
# Sixteen instances under three criteria spread the operation times finely
# enough for a median that does not jump between two instances' times.
FAMILY_SLOTS = tuple(
    (c, n_range, m_range)
    for c in (2, 3)
    for n_range, m_range in (((20, 30), (200, 250)), ((30, 40), (250, 300)))
)
FAMILY_CRITERIA = (("leximin", None), ("mnw", None), ("pmean", -1.0))

# Every (family, n, m, c) with n <= 3 and m <= 7 five times over, so that
# a seed changes the matroids but not the mix of instance sizes, which sets
# the brute-force cost.
VERIFY_SHAPES = [
    (family, n, m, c)
    for family in FAMILIES
    for n in range(1, 4)
    for m in range(1, 8)
    for c in (2, 3)
] * 5
VERIFY_CRITERIA = (("mnw", None), ("leximin", None), ("pmean", -1.0))

REFERENCE_FILE = Path(__file__).with_name("reference.json")

class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass
class Operation:
    """``check`` raises CheckFailed or returns the output's digest, if any."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_partition(payload: dict, goods: int) -> None:
    """Every good lies in exactly one agent's bundle; none is left over."""
    if payload["unallocated"]:
        raise CheckFailed(f"{len(payload['unallocated'])} goods left unallocated")
    held = [g for bundle in payload["bundles"] for g in bundle]
    if len(held) != goods or len(set(held)) != goods:
        raise CheckFailed(f"{len(held)} bundle slots for {goods} goods")


def check_digest(reference: dict[str, str], key: str, digest: str) -> None:
    expected = reference.get(key)
    if expected is None:
        raise CheckFailed(f"no reference digest for {key}")
    if digest != expected:
        raise CheckFailed(f"{key}: digest {digest[:12]} != reference {expected[:12]}")


GOOD_NAME = re.compile(r'"(g[0-9]+)"')


def rename_goods(text: str, names: dict[str, str]) -> str:
    """Replace every quoted good name in JSON text; other bytes stay as they are."""
    return GOOD_NAME.sub(lambda match: f'"{names[match.group(1)]}"', text)


class Workload:
    """Shared parts: instances loaded for the operations, digests by name."""

    name: str
    # The percentile op_s.tail reports: the highest of p75, p90, p95, p99,
    # p99.5 and p99.9 that leaves at least ten samples above it in a run of
    # BENCHMARK.json's run_seconds at the speed of the commit that added the
    # benchmark, also when the host runs slow. It is fixed, not worked out
    # per run, so that it means the same on every commit.
    tail_percentile: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.instances: list = []
        # Per file: the seed's names of the goods mapped back to the instance's.
        self.restores: list[dict[str, str]] = []

    def write_renamed(self, rng: random.Random, name: str, data: dict) -> Path:
        """Write ``data`` with its goods' names permuted by ``rng``.

        Goods keep their positions, and the solver works on positions, so
        every seed costs the same work: a run's times do not hinge on the
        seed. The names show in the input and output bytes only; the checks
        map them back before they compare digests.
        """
        goods = data["goods"]
        names = list(goods)
        rng.shuffle(names)
        path = self.workdir / f"{name}.json"
        text = json.dumps(data, indent=2, sort_keys=True)
        path.write_text(rename_goods(text, dict(zip(goods, names))) + "\n", encoding="utf-8")
        self.restores.append(dict(zip(names, goods)))
        return path

    def prepare(self, files: list[Path]) -> None:
        """Load the instances that the operations share."""
        import bifair.io

        self.instances = []  # free the last pass's instances and caches first
        self.instances = [bifair.io.load_instance(path) for path in files]

    def reference(self) -> dict[str, str] | None:
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[self.name]


def ladder_instance(variant: int) -> dict:
    """Adversarial marked instance whose transfer paths have length B.

    Agents form blocks of B over B marked goods per block (a chain). Agent j
    of a block marks chain goods j-1 and j, and the block's last agent marks
    only the first one, so the last agent is served by shifting every good
    of the chain by one place. The other m - n goods are marked by nobody.
    The variant interleaves the blocks' agents and goods at random but keeps
    each block's agents and chain goods in ascending order, which the
    solver's lowest-index tie-breaks need for the path to stay long.
    """
    rng = random.Random(f"ladder:{variant}")
    n, block = LADDER_N, LADDER_BLOCK
    m = 2 * n
    blocks = n // block
    agent_block = [b for b in range(blocks) for _ in range(block)]
    rng.shuffle(agent_block)
    good_block: list[int | None] = [b for b in range(blocks) for _ in range(block)]
    good_block += [None] * (m - n)
    rng.shuffle(good_block)
    chain: list[list[int]] = [[] for _ in range(blocks)]
    for g, b in enumerate(good_block):
        if b is not None:
            chain[b].append(g)
    position = [0] * blocks
    agents = []
    for k, b in enumerate(agent_block, start=1):
        j = position[b]
        position[b] += 1
        marked = [chain[b][0]] if j == block - 1 else [chain[b][j], chain[b][j + 1]]
        agents.append(
            {"name": f"a{k}",
             "matroid": {"type": "marked", "marked": [f"g{g + 1}" for g in marked]}}
        )
    return {"version": 1, "c": LADDER_C,
            "goods": [f"g{g + 1}" for g in range(m)], "agents": agents}


def longest_path(trace: bytes) -> int:
    return max(
        (len(json.loads(line).get("path", ())) for line in trace.splitlines() if line),
        default=0,
    )


class Ladder(Workload):
    """CLI solves of ladder instances: exchange-graph edge discovery and BFS."""

    name = "ladder"
    tail_percentile = 75.0

    def generate(self) -> list[Path]:
        rng = random.Random(f"ladder-corpus:{self.seed}")
        self.restores = []
        return [
            self.write_renamed(rng, f"ladder-{variant}", ladder_instance(variant))
            for variant in range(LADDER_VARIANTS)
        ]

    def prepare(self, files: list[Path]) -> None:
        """Nothing is shared: every CLI operation parses its own file."""

    def operation(self, path: Path, key: str, criterion: str,
                  reference: dict[str, str] | None,
                  restore: dict[str, str] | None = None) -> Operation:
        """One CLI solve; ``restore`` maps the goods' names back for the digest."""
        import bifair.cli

        out = self.workdir / f"{path.stem}-{criterion}.alloc.json"
        trace = self.workdir / f"{path.stem}-{criterion}.trace.jsonl"
        argv = ["solve", str(path), "--criterion", criterion,
                "-o", str(out), "--trace", str(trace)]

        def call() -> int:
            return bifair.cli.main(argv)

        def check(code: int) -> str:
            if code != 0:
                raise CheckFailed(f"bifair solve exited {code}")
            allocation, steps = out.read_bytes(), trace.read_bytes()
            check_partition(json.loads(allocation), 2 * LADDER_N)
            if longest_path(steps) < LADDER_BLOCK:
                raise CheckFailed(
                    f"{key}: longest transfer path {longest_path(steps)} "
                    f"< block size {LADDER_BLOCK}"
                )
            if restore is not None:
                allocation = rename_goods(allocation.decode("utf-8"), restore).encode("utf-8")
            digest = sha256(allocation, b"\0", steps)
            if reference is not None:
                check_digest(reference, key, digest)
            return digest

        return Operation(key, call, check)

    def operations(self, files: list[Path], reference: dict[str, str] | None) -> list[Operation]:
        return [
            self.operation(path, f"v{variant}:{criterion}", criterion, reference, restore)
            for variant, (path, restore) in enumerate(zip(files, self.restores))
            for criterion in LADDER_MIX
        ]


def criterion_label(name: str, p: float | None) -> str:
    return name if p is None else f"{name}:{p:g}"


class Families(Workload):
    """Library solves on shared random instances of the four matroid families."""

    name = "families"
    tail_percentile = 75.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.slots = [
            (family, slot)
            for family in FAMILIES
            for slot in range(len(FAMILY_SLOTS))
        ]

    @staticmethod
    def instance_data(family: str, slot: int) -> dict:
        """The slot's instance: one fixed draw of ``bifair.io.random_instance``."""
        import bifair.io

        c, n_range, m_range = FAMILY_SLOTS[slot]
        rng = random.Random(f"families:{family}:{slot}")
        n, m = rng.randint(*n_range), rng.randint(*m_range)
        return bifair.io.emit_instance(bifair.io.random_instance(family, n, m, c, rng))

    def generate(self) -> list[Path]:
        rng = random.Random(f"families-corpus:{self.seed}")
        self.restores = []
        return [
            self.write_renamed(rng, f"{family}-{slot}", self.instance_data(family, slot))
            for family, slot in self.slots
        ]

    def operations(self, files: list[Path], reference: dict[str, str] | None) -> list[Operation]:
        ops = []
        for (family, slot), restore, instance in zip(self.slots, self.restores, self.instances):
            for name, p in FAMILY_CRITERIA:
                key = f"{family}:{slot}:{criterion_label(name, p)}"
                ops.append(self.operation(instance, key, name, p, reference, restore))
        return ops

    @staticmethod
    def operation(instance, key: str, name: str, p: float | None,
                  reference: dict[str, str] | None,
                  restore: dict[str, str] | None = None) -> Operation:
        """One library user's solve on a shared instance, then the emit.

        ``restore`` maps the goods' names back to the slot's own before the
        output's digest is taken; every other byte is compared as emitted.
        """
        import bifair
        import bifair.io

        def call() -> str:
            criterion = bifair.make_criterion(name, p=p)
            result = bifair.solve(instance, criterion)
            return bifair.io.dumps_canonical(bifair.io.emit_allocation(
                instance, result.allocation, result.decomposition, criterion.name
            ))

        def check(text: str) -> str:
            check_partition(json.loads(text), instance.m)
            if restore is not None:
                text = rename_goods(text, restore)
            digest = sha256(text.encode("utf-8"))
            if reference is not None:
                check_digest(reference, key, digest)
            return digest

        return Operation(key, call, check)


class Verify(Workload):
    """Oracle-check items on tiny instances: brute force, checked solves, audits."""

    name = "verify"
    tail_percentile = 99.5

    def generate(self) -> list[Path]:
        import bifair.io

        rng = random.Random(f"verify:{self.seed}")
        files = []
        for k, (family, n, m, c) in enumerate(VERIFY_SHAPES):
            instance = bifair.io.random_instance(family, n, m, c, rng)
            path = self.workdir / f"verify-{k:04d}.json"
            write_json(path, bifair.io.emit_instance(instance))
            files.append(path)
        return files

    def reference(self) -> None:
        """Brute force is the reference; there are no digests."""

    def operations(self, files: list[Path], reference: dict[str, str] | None) -> list[Operation]:
        return [self.operation(k, instance) for k, instance in enumerate(self.instances)]

    @staticmethod
    def operation(k: int, instance) -> Operation:
        import bifair
        import bifair.oracle

        def call() -> tuple:
            criteria = [
                bifair.make_criterion(name, p=p).bind(instance)
                for name, p in VERIFY_CRITERIA
            ]
            optima = bifair.oracle.brute_force_optima(instance, criteria)
            results = [
                bifair.solve(instance, criterion, check_invariants=True)
                for criterion in criteria
            ]
            audits = [
                bifair.audit_allocation(
                    instance, result.allocation, with_mms=True, criterion_hint=hint
                )
                for result, (hint, _) in zip(results, VERIFY_CRITERIA[:2])
            ]
            return optima, results, audits

        def check(out: tuple) -> None:
            optima, results, audits = out
            for (name, p), optimum, result in zip(VERIFY_CRITERIA, optima, results):
                if not optimum.matches(result.sorted_utilities):
                    raise CheckFailed(
                        f"instance {k} {criterion_label(name, p)}: solver "
                        f"{result.sorted_utilities} is not a brute-force optimum"
                    )
            thresholds = (Fraction(2, 5), Fraction(1, instance.c + 2))
            for (hint, _), audit, threshold in zip(VERIFY_CRITERIA, audits, thresholds):
                for row in audit.mms_rows:
                    if row.ratio is not None and row.ratio < threshold:
                        raise CheckFailed(
                            f"instance {k} {hint}: agent {row.agent} gets "
                            f"{row.ratio} of its maximin share, below {threshold}"
                        )

        return Operation(f"verify:{k}", call, check)


WORKLOADS = {cls.name: cls for cls in (Ladder, Families, Verify)}
