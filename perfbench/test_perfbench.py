"""Tests of the benchmark itself: seeded corpora, checks, trace determinism.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

sys.path.insert(0, str(run.SRC))

import bifair  # noqa: E402
import bifair.io  # noqa: E402


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("criterion", workloads.LADDER_CRITERIA)
def test_ladder_paths_reach_the_block_size(criterion):
    assert workloads.ladder_instance(5) == workloads.ladder_instance(5)
    instance = bifair.io.parse_instance(workloads.ladder_instance(5))
    result = bifair.solve(instance, bifair.make_criterion(criterion))
    longest = max(len(record.path) for record in result.trace.records if record.path)
    assert longest >= workloads.LADDER_BLOCK


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(name, tmp_path):
    def corpus(seed: int) -> str:
        workdir = tmp_path / f"{seed}-{random.random()}"
        workdir.mkdir()
        files = workloads.WORKLOADS[name](seed, workdir).generate()
        return workloads.sha256(*(path.read_bytes() for path in files))

    assert corpus(1) == corpus(1)
    assert corpus(1) != corpus(2)


@pytest.mark.parametrize("name", ["ladder", "families"])
def test_seeds_differ_only_in_the_goods_names(name, tmp_path):
    restored = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workload = workloads.WORKLOADS[name](seed, workdir)
        files = workload.generate()
        restored.append([
            workloads.rename_goods(path.read_text(encoding="utf-8"), restore)
            for path, restore in zip(files, workload.restores)
        ])
    assert restored[0] == restored[1]


def small_operation(reference: dict[str, str] | None) -> workloads.Operation:
    instance = bifair.random_instance("partition", 3, 10, 2, 7)
    return workloads.Families.operation(instance, "small:mnw", "mnw", None, reference)


def test_a_failed_check_is_counted_and_the_run_goes_on():
    digest = small_operation(None).check(small_operation(None).call())
    stats = run.Stats()
    stats.run(small_operation({"small:mnw": "0" * 64}))
    stats.run(small_operation({}))
    stats.run(workloads.Operation("raises", lambda: 1 / 0, lambda out: None))
    stats.run(small_operation({"small:mnw": digest}))
    assert (stats.attempted, stats.failed, len(stats.times)) == (4, 3, 1)


def test_percentile_is_nearest_rank():
    times = [float(k) for k in range(1, 101)]
    assert run.percentile(times, 75.0) == (75.0, 25)
    assert run.percentile(times, 99.5) == (100.0, 0)
    assert run.percentile(times[:40], 50.0) == (20.0, 20)


def wrapped_names() -> dict[tuple[str, str], object]:
    names = {}
    for module, path, _ in layers.COUNTS + layers.SPANS:
        owner, attr = layers.resolve(module, path)
        names[module, path] = (getattr(owner, attr), attr in vars(owner))
    return names


def test_untraced_run_and_uninstall_leave_every_name_as_it_was(capsys):
    before = wrapped_names()
    assert run.main(["--workload", "ladder", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 0
    assert wrapped_names() == before

    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(wrapped_names()[key][0] is not before[key][0] for key in before)
        assert not tracer.absent
    finally:
        tracer.uninstall()
    assert wrapped_names() == before


def test_a_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(bifair.solver, "_argmax_min_index")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"solver.select"}
    assert tracer.absent_metrics() == ["solver.select_s"]


# Where each workload spends its traced self time: the leading spans.
LEADERS = {
    "ladder": {"exchange.edge_discovery"},
    "families": {"exchange.augment", "exchange.f_set", "solver.select"},
    "verify": {"oracle.brute_force"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    runs = [result_of(bench("--workload", name, "--seed", "4", "--seconds", "1",
                            "--trace", "1")) for _ in range(2)]
    counters = []
    for meta, result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(per_layer_metrics())
        assert meta["absent"] == []
        leaders = [span for span, _ in meta["self_share"][:len(LEADERS[name])]]
        assert set(leaders) == LEADERS[name]
        counters.append({
            metric: value["value"] for metric, value in result["metrics"].items()
            if value["unit"] != "s/op" and metric != "trace.overhead_ratio"
        })
    assert counters[0] == counters[1]


def per_layer_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec["per_layer"]]


def test_end_to_end_metrics_match_the_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    assert units == run.E2E_UNITS


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = bench("--workload", "ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
