"""Recompute the output digests pinned in pinned.json.

    python3 benchmarks/pin.py [--seeds 1 2 ...] [--workload NAME ...]

Runs every workload once per seed at the standard size, checks the output
with ``fairsim check``, and stores the sha256 of the output directory.
Outputs must stay byte-identical across changes; re-pin only when a change
is meant to alter them, and say why in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    cli = run.import_cli()
    path = run.HERE / "pinned.json"
    with open(path, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    work = run.WORK / f"pin-{os.getpid()}"
    try:
        for workload in args.workload:
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                plan = run.Plan(workload, seed, "standard", 1, work)
                plan.expected = None  # recompute, do not compare
                if plan.iterate(cli.main) is None:
                    print(f"{workload} seed {seed}: run failed, not pinned", file=sys.stderr)
                    return 1
                pinned.setdefault(workload, {})[str(seed)] = plan.expected
                print(f"{workload} seed {seed}: {plan.expected}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
