"""Benchmark of bifair: one workload per run, every output checked.

Usage, from any directory:

    python3 perfbench/run.py --workload {ladder,families,verify} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with no wrappers
installed. With ``--trace 1`` it runs one untraced pass over the corpus, then
traced passes until ``--seconds`` have gone by, and reports the per-layer
metrics per operation. Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's metadata. The program under test is the
``bifair`` package in ``src/`` next to this directory; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Set-up is measured in at least SETUP_MIN_SAMPLES fresh interpreters, and
# in more, up to SETUP_MAX_SAMPLES, while the probes have taken less than
# SETUP_BUDGET_S: with five samples, the median of a set-up of a tenth of a
# second spread by about a third from run to run, and fifteen such set-ups
# cost about two seconds.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 2.0
SETUP_TIMEOUT_S = 60
REPORTED_FAILURES = 3

E2E_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Stats:
    """Operation outcomes of one run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, op, call=None) -> None:
        """Time one operation's call, then check its output.

        Any exception, from the call or from the check, counts as one failed
        operation and the run goes on.
        """
        self.attempted += 1
        try:
            start = perf_counter()
            out = op.call() if call is None else call(op.call)
            elapsed = perf_counter() - start
            op.check(out)
        except Exception as exc:  # noqa: BLE001 - a failure must not end the run
            self.failed += 1
            if self.failed <= REPORTED_FAILURES:
                print(f"operation {op.label} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            return
        self.times.append(elapsed)


def percentile(times: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "bifair").rglob("*.py"))
    )


def setup_samples(files: list[Path], workdir: Path) -> list[float]:
    """Set-up time in fresh interpreters: import bifair, load every instance."""
    manifest = workdir / "manifest.txt"
    manifest.write_text("\n".join(str(path) for path in files), encoding="utf-8")
    samples = []
    start = perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
        len(samples) < SETUP_MAX_SAMPLES and perf_counter() - start < SETUP_BUDGET_S
    ):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(manifest)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(workload, files: list[Path], seconds: float, meta: dict) -> tuple[Stats, dict]:
    setup = setup_samples(files, workload.workdir)
    reference = workload.reference()
    stats = Stats()

    def timed_pass() -> float:
        workload.prepare(files)
        operations = workload.operations(files, reference)
        start = perf_counter()
        for op in operations:
            stats.run(op)
        return perf_counter() - start

    # Whole passes, each over freshly loaded instances: every pass then does
    # the same work (the first solve of an instance fills its valuations'
    # caches, the other criteria reuse them), so a run times the same mix of
    # operations however many passes fit in its time. Loading is set-up and
    # is not timed here.
    elapsed = 0.0
    passes = 0
    while passes == 0 or elapsed < seconds:
        elapsed += timed_pass()
        passes += 1
    times = stats.times or [math.inf]
    tail, beyond = percentile(times, workload.tail_percentile)
    meta.update({
        "setup_samples": len(setup),
        "operations": len(stats.times),
        "passes": passes,
        "corpus_operations": stats.attempted // passes,
        "timed_phase_s": elapsed,
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": beyond,
    })
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "ops_per_s": len(stats.times) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return stats, {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in metrics.items()}


def traced(workload, files: list[Path], seconds: float, meta: dict, seed: int) -> tuple[Stats, dict]:
    import layers

    reference = workload.reference()
    stats = Stats()

    def one_pass(tracer=None) -> tuple[float, int]:
        start = perf_counter()
        workload.prepare(files)
        operations = workload.operations(files, reference)
        call = None if tracer is None else (lambda fn: tracer.root("bench.op", fn))
        for op in operations:
            stats.run(op, call)
        return perf_counter() - start, len(operations)

    start = perf_counter()
    untraced_s, per_pass = one_pass()
    tracer = layers.Tracer()
    tracer.install()
    traced_s = 0.0
    passes = 0
    try:
        while passes == 0 or perf_counter() - start < seconds:
            elapsed, _ = one_pass(tracer)
            traced_s += elapsed
            passes += 1
    finally:
        tracer.uninstall()
    spans = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans)
    meta.update({
        "passes": passes,
        "corpus_operations": per_pass,
        "absent": tracer.absent_metrics(),
        "self_share": tracer.self_shares(),
        "spans_file": str(spans.relative_to(ROOT)),
    })
    values = tracer.metrics(passes * per_pass, traced_s / passes / untraced_s)
    return stats, {name: {"value": value, "unit": layers.unit(name)}
                   for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifair" / "__init__.py").is_file():
        print(f"error: no bifair package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        files = workload.generate()
        import bifair

        if Path(bifair.__file__).resolve().parent != SRC / "bifair":
            print(f"error: bifair was imported from {bifair.__file__}", file=sys.stderr)
            return 2
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "corpus_sha256": workloads.sha256(*(path.read_bytes() for path in files)),
            "machine": machine(),
            "src_lines": src_lines(),
        }
        if args.trace:
            stats, metrics = traced(workload, files, args.seconds, meta, args.seed)
        else:
            stats, metrics = end_to_end(workload, files, args.seconds, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["error_rate"] = stats.failed / stats.attempted
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
