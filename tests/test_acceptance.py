"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion. These tests pin the package's external guarantees: exact
worked-example reproduction, 100% agreement with brute-force optima,
domination certification, maximin-share guarantees, the envy
counterexamples, structural invariants at 10^4 samples, gain-function laws
at 10^4 samples, and a cubic runtime envelope.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from bifair.allocation import Allocation, check_decomposition, decompose
from bifair.audit import MNW_MMS_THRESHOLD, check_ef1, leximin_mms_threshold, mms
from bifair.exchange import ExchangeGraph, f_set, shortest_path
from bifair.exchange import augment as augment_path
from bifair.io import random_instance
from bifair.oracle import brute_force_optima, certify_dominating
from bifair.solver import Leximin, MaxNashWelfare, PMeanWelfare, compare_gains, solve
from conftest import capped_vs_additive_instance, two_agent_instance
from helpers import (
    brute_max_clean_subset,
    brute_rank,
    random_allocation,
    random_clean_allocation,
)

FAMILIES = ("marked", "uniform", "partition", "transversal")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _criteria_for(c: int):
    return (
        MaxNashWelfare(),
        Leximin(c),
        PMeanWelfare(0.5),
        PMeanWelfare(-1.0),
        PMeanWelfare(-2.0),
    )


def test_acceptance_1_worked_example():
    started = time.perf_counter()
    instance = two_agent_instance(5)
    leximin = solve(instance, Leximin(5))
    mnw = solve(instance, MaxNashWelfare())
    elapsed = time.perf_counter() - started
    ok = (
        leximin.sorted_utilities == (5, 5)
        and len(leximin.allocation.bundle(2)) == 1
        and mnw.utilities == (3, 15)
        and len(mnw.allocation.bundle(1)) == 3
        and len(mnw.allocation.bundle(2)) == 3
        and elapsed < 1.0
    )
    report(
        1, "worked-example-reproduction", ok,
        f"leximin={leximin.sorted_utilities} |X2|={len(leximin.allocation.bundle(2))}, "
        f"mnw={mnw.utilities}, {elapsed:.3f}s",
    )


def test_acceptance_2_oracle_equivalence():
    started = time.perf_counter()
    per_family = 500
    mismatches = []
    solves = 0
    for family in FAMILIES:
        rng = random.Random(f"acceptance2:{family}")
        for trial in range(per_family):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            c = rng.choice([2, 3])
            instance = random_instance(family, n, m, c, rng)
            criteria = _criteria_for(c)
            optima = brute_force_optima(instance, criteria)
            for criterion, optimum in zip(criteria, optima):
                result = solve(instance, criterion)
                solves += 1
                if not optimum.matches(result.sorted_utilities):
                    mismatches.append((family, trial, criterion.name))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 300
    report(
        2, "oracle-equivalence", ok,
        f"{per_family * len(FAMILIES)} instances, {solves} solves, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_acceptance_3_dominance_certification():
    rng = random.Random("acceptance3")
    failures = []
    count = 500
    for trial in range(count):
        family = FAMILIES[trial % len(FAMILIES)]
        instance = random_instance(family, 2, rng.randint(1, 5), 2, rng)
        for criterion in (MaxNashWelfare(), Leximin(2), PMeanWelfare(0.5)):
            result = solve(instance, criterion)
            verdict = certify_dominating(instance, result, criterion)
            if not verdict.ok:
                failures.append((family, trial, criterion.name, verdict.reason))
    report(
        3, "dominance-certification", not failures,
        f"{count} instances x 3 criteria, {len(failures)} failures",
    )


def test_acceptance_4_mms_guarantees():
    started = time.perf_counter()
    rng = random.Random("acceptance4")
    count = 300
    violations = []
    unverified = []
    for trial in range(count):
        family = FAMILIES[trial % len(FAMILIES)]
        n = rng.choice([2, 2, 3, 3, 4])
        max_m = {2: 10, 3: 7, 4: 6}[n]
        m = rng.randint(n, max_m)
        c = rng.choice([2, 3])
        instance = random_instance(family, n, m, c, rng)
        mnw_crit, lex_crit = MaxNashWelfare(), Leximin(c)
        optima = brute_force_optima(instance, (mnw_crit, lex_crit))
        shares = [mms(instance, i) for i in instance.agents]
        for criterion, optimum, threshold in (
            (mnw_crit, optima[0], MNW_MMS_THRESHOLD),
            (lex_crit, optima[1], leximin_mms_threshold(c)),
        ):
            result = solve(instance, criterion)
            if not optimum.matches(result.sorted_utilities):
                unverified.append((family, trial, criterion.name))
                continue
            for i in instance.agents:
                if shares[i - 1] == 0:
                    continue
                ratio = Fraction(result.utilities[i - 1], shares[i - 1])
                if ratio < threshold:
                    violations.append(
                        (family, trial, criterion.name, i, str(ratio))
                    )
    elapsed = time.perf_counter() - started
    ok = not violations and not unverified
    report(
        4, "mms-guarantees", ok,
        f"{count} instances, {len(violations)} ratio violations, "
        f"{len(unverified)} unverified outputs, {elapsed:.1f}s",
    )


def test_acceptance_5_ef1_counterexamples():
    problems = []
    for c in (2, 3, 5):
        capped = capped_vs_additive_instance(c)
        mnw_out = solve(capped, MaxNashWelfare())
        ok_sizes = (
            len(mnw_out.allocation.bundle(1)) == 2
            and len(mnw_out.allocation.bundle(2)) == 4
        )
        ef1_ok, witness = check_ef1(capped, mnw_out.allocation)
        if ef1_ok or not ok_sizes or witness != (1, 2):
            problems.append(("mnw", c, ok_sizes, ef1_ok, witness))

        lopsided = two_agent_instance(c, m=2 * c + 2)
        lex_out = solve(lopsided, Leximin(c))
        ok_sizes = (
            len(lex_out.allocation.bundle(2)) == 2
            and len(lex_out.allocation.bundle(1)) == 2 * c
        )
        ef1_ok, witness = check_ef1(lopsided, lex_out.allocation)
        if ef1_ok or not ok_sizes or witness != (2, 1):
            problems.append(("leximin", c, ok_sizes, ef1_ok, witness))
    report(
        5, "ef1-counterexamples", not problems,
        f"both instances for c in {{2,3,5}}, {len(problems)} deviations",
    )


def _random_matroid_stream(seed: str, m: int):
    rng = random.Random(seed)
    k = 0
    while True:
        family = FAMILIES[k % len(FAMILIES)]
        k += 1
        yield random_instance(family, 1, m, 2, rng).valuation(1).matroid, rng


def test_acceptance_6_structural_invariants():
    started = time.perf_counter()
    checks = {"axioms": 0, "value-relation": 0, "decomposition": 0,
              "augmentation": 0, "solver-loop": 0}

    # Rank-function axioms: unit marginals and diminishing returns.
    stream = _random_matroid_stream("acceptance6:axioms", 8)
    while checks["axioms"] < 10_000:
        matroid, rng = next(stream)
        assert matroid.rank(frozenset()) == 0
        for _ in range(10):
            small = frozenset(g for g in range(8) if rng.random() < 0.4)
            grown = small | frozenset(g for g in range(8) if rng.random() < 0.3)
            outside = [g for g in range(8) if g not in grown]
            if not outside:
                continue
            g = rng.choice(outside)
            up_small = matroid.rank(small | {g}) - matroid.rank(small)
            up_grown = matroid.rank(grown | {g}) - matroid.rank(grown)
            assert up_small in (0, 1) and up_grown in (0, 1)
            assert up_small >= up_grown
            checks["axioms"] += 1

    # Bundle values equal size plus (c-1) times an independently computed rank.
    stream = _random_matroid_stream("acceptance6:value", 6)
    rng_v = random.Random("acceptance6:value-sets")
    while checks["value-relation"] < 10_000:
        matroid, _ = next(stream)
        c = rng_v.choice([2, 3, 5])
        from bifair.valuation import BivaluedValuation

        valuation = BivaluedValuation(c, matroid)
        for _ in range(25):
            subset = frozenset(g for g in range(6) if rng_v.random() < 0.5)
            expected = len(subset) + (c - 1) * brute_rank(matroid, subset)
            assert valuation.value(subset) == expected
            checks["value-relation"] += 1

    # Decomposition properties on random allocations; every tenth one is
    # re-verified against subset enumeration.
    rng_d = random.Random("acceptance6:decompose")
    while checks["decomposition"] < 10_000:
        family = FAMILIES[checks["decomposition"] % len(FAMILIES)]
        instance = random_instance(family, rng_d.randint(1, 3), 6, rng_d.choice([2, 3]), rng_d)
        allocation = Allocation(random_allocation(instance, rng_d))
        dec = decompose(instance, allocation)
        check_decomposition(instance, allocation, dec)
        assert dec.union().bundles == allocation.bundles
        if checks["decomposition"] % 10 == 0:
            for i in instance.agents:
                assert len(dec.clean[i]) == brute_max_clean_subset(
                    instance.valuation(i), allocation.bundle(i)
                )
        checks["decomposition"] += 1

    # Path augmentation: receiver up one, pool down one, cleanness kept
    # (augment itself re-verifies bundle sizes and cleanness). Augment moves
    # goods in place, so each agent gets a fresh graph.
    rng_p = random.Random("acceptance6:paths")
    attempts = 0
    while checks["augmentation"] < 10_000 and attempts < 60_000:
        attempts += 1
        family = FAMILIES[attempts % len(FAMILIES)]
        instance = random_instance(family, rng_p.randint(1, 3), 8, 2, rng_p)
        clean = random_clean_allocation(instance, rng_p)
        if not clean[0]:
            continue
        for i in instance.agents:
            graph = ExchangeGraph(instance, clean)
            path = shortest_path(graph, f_set(instance, clean, i))
            if path is None:
                continue
            augment_path(graph, path, i)
            result = graph.clean
            assert len(result[i]) == len(clean[i]) + 1
            assert len(result[0]) == len(clean[0]) - 1
            checks["augmentation"] += 1
    assert checks["augmentation"] >= 10_000, "not enough augmentable states"

    # Solver loop invariants, verified inside solve() every iteration.
    rng_s = random.Random("acceptance6:solver")
    while checks["solver-loop"] < 10_000:
        family = FAMILIES[checks["solver-loop"] % len(FAMILIES)]
        n = rng_s.randint(1, 4)
        m = rng_s.randint(1, 8)
        instance = random_instance(family, n, m, rng_s.choice([2, 3]), rng_s)
        criterion = rng_s.choice(_criteria_for(instance.c))
        result = solve(instance, criterion, check_invariants=True)
        assert len(result.trace.records) <= m + n
        assert sum(len(result.allocation.bundle(i)) for i in instance.agents) == m
        checks["solver-loop"] += len(result.trace.records)

    elapsed = time.perf_counter() - started
    detail = ", ".join(f"{k}={v}" for k, v in checks.items())
    report(6, "structural-invariants", True, f"{detail}, {elapsed:.1f}s")


def test_acceptance_7_gain_axioms():
    started = time.perf_counter()
    rng = random.Random("acceptance7")
    vectors = 10_000
    for _ in range(vectors):
        n = rng.randint(2, 6)
        c = rng.choice([2, 3, 5])
        u = tuple(rng.randint(0, 50) for _ in range(n))
        i, j = rng.sample(range(1, n + 1), 2)
        d = rng.choice([1, c])
        d2 = rng.choice([1, c])
        ui, uj = u[i - 1], u[j - 1]
        for criterion in (MaxNashWelfare(), Leximin(c),
                          PMeanWelfare(rng.choice([0.5, -1.0, -2.0]))):
            # More added value never hurts (strict).
            assert compare_gains(criterion.gain(ui, c), criterion.gain(ui, 1)) > 0
            # Equal-or-poorer agents get equal-or-higher gains, ties exact.
            order = compare_gains(criterion.gain(ui, d), criterion.gain(uj, d))
            if ui < uj:
                assert order > 0
            elif ui == uj:
                assert order == 0
            else:
                assert order < 0
            # Raising own utility weakly lowers the gain (strictly here).
            bumped = ui + rng.randint(1, 5)
            assert compare_gains(criterion.gain(ui, d), criterion.gain(bumped, d)) > 0
            # Gain comparisons agree with the criterion on successor vectors.
            y = tuple(x + d if k == i - 1 else x for k, x in enumerate(u))
            z = tuple(x + d2 if k == j - 1 else x for k, x in enumerate(u))
            assert compare_gains(criterion.gain(ui, d), criterion.gain(uj, d2)) == \
                criterion.compare(y, z)
    elapsed = time.perf_counter() - started
    report(7, "gain-axioms", True,
           f"{vectors} vectors x 3 criteria, {elapsed:.1f}s")


def test_acceptance_8_complexity_trend():
    sizes = list(range(20, 201, 20))
    n, c = 10, 3
    timings: dict[int, float] = {}
    for m in sizes:
        instance = random_instance("marked", n, m, c, seed=m)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            solve(instance, Leximin(c))
            best = min(best, time.perf_counter() - started)
        timings[m] = best
    # Envelope fitted on the smaller half; the larger half must stay under
    # it with generous slack. Only the growth trend is asserted.
    envelope = max(timings[m] / (m + n) ** 3 for m in sizes[: len(sizes) // 2])
    offenders = [
        m for m in sizes if timings[m] > 5 * envelope * (m + n) ** 3
    ]
    summary = ", ".join(f"m={m}:{timings[m] * 1000:.1f}ms" for m in sizes[::3])
    report(8, "complexity-trend", not offenders,
           f"{summary}; cubic envelope breaches: {offenders}")
