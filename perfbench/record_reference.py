"""Write reference.json: the output digest of every ladder variant and families slot.

Usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the reference. Every later commit
must reproduce these digests byte for byte, so a benchmark run on it counts
any differing output as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, SRC, WORK

sys.path.insert(0, str(SRC))

import bifair.io  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args()
    workdir = WORK / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    reference: dict[str, dict[str, str]] = {"ladder": {}, "families": {}}
    try:
        ladder = workloads.Ladder(0, workdir)
        for variant in range(workloads.LADDER_VARIANTS):
            path = workdir / f"ladder-{variant}.json"
            workloads.write_json(path, workloads.ladder_instance(variant))
            for criterion in workloads.LADDER_CRITERIA:
                key = f"v{variant}:{criterion}"
                op = ladder.operation(path, key, criterion, None)
                reference["ladder"][key] = op.check(op.call())
        for family in workloads.FAMILIES:
            for slot in range(len(workloads.FAMILY_SLOTS)):
                instance = bifair.io.parse_instance(
                    workloads.Families.instance_data(family, slot)
                )
                for name, p in workloads.FAMILY_CRITERIA:
                    key = f"{family}:{slot}:{workloads.criterion_label(name, p)}"
                    op = workloads.Families.operation(instance, key, name, p, None)
                    reference["families"][key] = op.check(op.call())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    target = HERE / "reference.json"
    target.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, reference.values()))} digests to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
