"""Measurements that need a fresh interpreter, one per process.

    python3 benchmarks/probe.py setup WORKLOAD SEED SIZE DIR
    python3 benchmarks/probe.py memory WORKLOAD SEED SIZE JOBS DIR

``setup`` times fairsim's set-up once: import, scenario generation and
parse_scenario, from the start of this script. It prints the seconds.

``memory`` runs one iteration of the workload (run, then check) in this
process and prints a JSON object with the output digest and the peak
resident memory of this process plus its largest child (a pool worker).

run.py starts these; the work files go into DIR.
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fairsim.cli  # noqa: E402  (what the fairsim command loads)
import workloads  # noqa: E402


def setup(workload: str, seed: int, size: str, out: str) -> None:
    doc = workloads.scenario(workload, seed, size)
    if doc is not None:
        path = os.path.join(out, f"probe-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(path, "r", encoding="utf-8") as fh:
            fairsim.cli.parse_scenario(json.load(fh))
    print(time.perf_counter() - START)


def memory(workload: str, seed: int, size: str, jobs: int, out: str) -> int:
    import run

    plan = run.Plan(workload, seed, size, jobs, Path(out))
    plan.expected = None  # run.py compares the digest
    if plan.iterate(fairsim.cli.main) is None:
        return 1
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(json.dumps({"digest": plan.expected, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    mode, workload, seed, size = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    if mode == "setup":
        setup(workload, seed, size, sys.argv[5])
    else:
        sys.exit(memory(workload, seed, size, int(sys.argv[5]), sys.argv[6]))
