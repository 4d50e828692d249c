"""Command-line surface: solve, audit, gen, oracle-check.

Exit codes: 0 success, 1 broken internal invariant or failed oracle check,
2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import io as bio
from .errors import InternalInvariantError, UnsupportedCriterionError, ValidationError
from .exchange import ExchangeGraph
from .solver import Criterion, make_criterion, solve

DEFAULT_CRITERIA = ("mnw", "leximin", "pmean:0.5")


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_file(text, path)


def _write_file(text: str, path: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is bad input."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _criterion_token(token: str) -> Criterion:
    if token.startswith("pmean:"):
        try:
            p = float(token.split(":", 1)[1])
        except ValueError:
            raise UnsupportedCriterionError(f"bad p in criterion {token!r}") from None
        return make_criterion("pmean", p=p)
    return make_criterion(token)


def cmd_solve(args: argparse.Namespace) -> int:
    instance = bio.load_instance(args.instance)
    criterion = make_criterion(args.criterion, p=args.p)
    result = solve(instance, criterion)
    payload = bio.emit_allocation(instance, result.allocation, result.decomposition,
                                  criterion.name, utilities=result.utilities)
    _write(bio.dumps_canonical(payload), args.output)
    if args.trace:
        _write_file(result.trace.to_jsonl() + "\n", args.trace)
    if args.dot:
        graph = ExchangeGraph(instance, result.decomposition.clean)
        _write_file(graph.to_dot() + "\n", args.dot)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .audit import audit_allocation
    instance = bio.load_instance(args.instance)
    allocation = bio.load_allocation(args.allocation, instance)
    report = audit_allocation(
        instance,
        allocation,
        pmean_ps=tuple(args.pmean or ()),
        with_mms=args.mms,
        criterion_hint=args.criterion_hint,
    )
    if args.json:
        _write(bio.dumps_canonical(report.to_dict()), args.output)
    else:
        _write(report.to_table(), args.output)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    instance = bio.random_instance(args.family, args.n, args.m, args.c, args.seed)
    _write(bio.dumps_canonical(bio.emit_instance(instance)), args.output)
    return 0


def _oracle_check_one(
    family: str, index: int, base_seed: int, max_n: int, max_m: int,
    c_choices: tuple[int, ...], criteria_tokens: tuple[str, ...],
) -> dict | None:
    """Solve one random instance against the brute-force optimum.

    Returns None on agreement, otherwise a failure artifact. Module-level so
    a multiprocessing pool can pickle it.
    """
    from .oracle import brute_force_optima
    rng = random.Random(f"{base_seed}:{family}:{index}")
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    c = rng.choice(c_choices)
    instance = bio.random_instance(family, n, m, c, rng)
    criteria = [_criterion_token(tok).bind(instance) for tok in criteria_tokens]
    optima = brute_force_optima(instance, criteria)
    for criterion, optimum in zip(criteria, optima):
        result = solve(instance, criterion, check_invariants=True)
        if not optimum.matches(result.sorted_utilities):
            return {
                "family": family,
                "index": index,
                "criterion": criterion.name,
                "instance": bio.emit_instance(instance),
                "solver_sorted_utilities": list(result.sorted_utilities),
                "optimal_sorted_utilities": sorted(
                    list(v) for v in optimum.sorted_optima
                ),
            }
    return None


def cmd_oracle_check(args: argparse.Namespace) -> int:
    for token in args.criteria:
        _criterion_token(token)
    for flag, bound in (("--count", args.count), ("--max-n", args.max_n),
                        ("--max-m", args.max_m), ("--jobs", args.jobs)):
        if bound < 1:
            raise ValidationError(f"{flag} must be at least 1, got {bound}")
    jobs = []
    for family in args.families:
        for index in range(args.count):
            jobs.append(
                (
                    family, index, args.seed, args.max_n, args.max_m,
                    tuple(args.c_choices), tuple(args.criteria),
                )
            )
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.starmap(_oracle_check_one, jobs)
    else:
        results = [_oracle_check_one(*job) for job in jobs]

    failures = [r for r in results if r is not None]
    checked = len(jobs) * len(args.criteria)
    print(f"checked {len(jobs)} instances x {len(args.criteria)} criteria "
          f"({checked} solves): {len(failures)} mismatches")
    if failures:
        if args.report_dir:
            report_dir = Path(args.report_dir)
            try:
                report_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValidationError(f"cannot write {report_dir}: {exc}") from None
            for k, failure in enumerate(failures):
                path = report_dir / f"mismatch-{k:04d}.json"
                _write_file(bio.dumps_canonical(failure), str(path))
            print(f"wrote {len(failures)} failure artifacts to {report_dir}")
        for failure in failures[:5]:
            print(
                f"  {failure['family']}#{failure['index']} "
                f"[{failure['criterion']}]: solver "
                f"{failure['solver_sorted_utilities']} vs optimal "
                f"{failure['optimal_sorted_utilities']}"
            )
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="bifair",
        description="Fair allocation of indivisible goods under bivalued "
        "submodular preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an optimal allocation")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument(
        "--criterion", choices=("mnw", "leximin", "pmean"), default="mnw"
    )
    p_solve.add_argument("--p", type=float, default=None,
                         help="p for pmean (p < 1, p != 0); write --p=-1e-3, not --p -1e-3")
    p_solve.add_argument("-o", "--output", default=None, help="output path or -")
    p_solve.add_argument("--trace", default=None,
                         help="write the per-iteration trace as JSON lines")
    p_solve.add_argument("--dot", default=None,
                         help="dump the final exchange graph in DOT format")
    p_solve.set_defaults(func=cmd_solve)

    p_audit = sub.add_parser("audit", help="audit an allocation file")
    p_audit.add_argument("instance")
    p_audit.add_argument("allocation")
    p_audit.add_argument("--mms", action="store_true",
                         help="compute exact maximin shares (size-limited)")
    p_audit.add_argument("--criterion-hint", choices=("mnw", "leximin"),
                         default=None, help="threshold to hold MMS ratios to")
    p_audit.add_argument("--pmean", type=float, action="append",
                         help="also report p-mean welfare for this p")
    p_audit.add_argument("--json", action="store_true", help="JSON instead of table")
    p_audit.add_argument("-o", "--output", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--family", choices=bio.GENERATOR_FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--c", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="solve random instances and compare with brute force",
    )
    p_oracle.add_argument("--families", nargs="+", choices=bio.GENERATOR_FAMILIES,
                          default=list(bio.GENERATOR_FAMILIES))
    p_oracle.add_argument("--count", type=int, default=200,
                          help="instances per family")
    p_oracle.add_argument("--max-n", type=int, default=3)
    p_oracle.add_argument("--max-m", type=int, default=6)
    p_oracle.add_argument("--c-choices", type=int, nargs="+", default=[2, 3])
    p_oracle.add_argument("--criteria", nargs="+", default=list(DEFAULT_CRITERIA),
                          help="mnw, leximin, or pmean:<p>")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--jobs", type=int, default=1)
    p_oracle.add_argument("--report-dir", default=None,
                          help="directory for failure artifacts")
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
