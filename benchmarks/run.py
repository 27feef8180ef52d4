"""The fairsim benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--size standard|tiny|double]

Each iteration calls the public CLI entry point in-process,
``fairsim.cli.main``: first ``run`` (or ``figure``), then ``check`` on the
output directory. The output directory is hashed and compared with the
digest pinned in pinned.json for this workload and seed (or, for a seed
without a pin, with the first iteration's digest), and ``check`` must
report a match. An iteration that fails any of these, or raises, counts as
failed.

--trace 0 measures untraced for S seconds and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 measures untraced for S/2 seconds,
then traced for S/2 seconds, and reports the per-layer metrics. A fixed
kernel (hostspeed.py) runs between iterations; each iteration's run and
check times are scaled by the host's speed around it, and the reported
run_s and check_s are the medians of the scaled times. Every timing is
printed as its fast decile, median (the reported value), highest
percentile with at least ten samples beyond it, and sample count, both
scaled and as wall time (*_wall_s). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Results,
machine info, raw samples and (traced) spans are also written to
.bench-work/results/. NOTES.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import fairsim.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import fairsim from {SRC}: {exc}")
    if Path(fairsim.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"fairsim was imported from {fairsim.cli.__file__}, not from {SRC}")
    return fairsim.cli


def dir_digest(path: Path, pattern: str = "*"):
    """sha256 over every file's relative path and content, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(path.rglob(pattern)):
        if p.is_file():
            data = p.read_bytes()
            total += len(data)
            h.update(p.relative_to(path).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def pinned_digest(workload: str, seed: int, size: str) -> Optional[str]:
    if size != "standard":
        return None
    with open(HERE / "pinned.json", "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Plan:
    """Scenario file, CLI calls and verification state of one benchmark run."""

    def __init__(self, workload: str, seed: int, size: str, jobs: int, work: Path) -> None:
        self.size = size
        self.jobs = jobs
        self.out = work / "out"
        scenario_path = work / "scenario.json"
        doc = workloads.scenario(workload, seed, size)
        if doc is not None:
            with open(scenario_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        self.commands, self.checks = workloads.commands(
            workload, str(scenario_path), str(self.out), size, jobs
        )
        self.expected = pinned_digest(workload, seed, size)
        self.pinned = self.expected is not None
        self.attempted = 0
        self.failed = 0

    def graded_heights(self) -> int:
        """Heights graded in the current output, summed over replications
        (selection heights for the figure workload; 0 if there is no output)."""
        if not self.checks:
            return sum(workloads.SELECTION_FIGURES[f] for f in workloads.selection_figures(self.size))
        path = self.out / "fairness.json"
        if not path.exists():
            return 0
        with open(path, "r", encoding="utf-8") as fh:
            return sum(len(r["grades"]) for r in json.load(fh)["replications"])

    def iterate(self, main) -> Optional[dict]:
        """Run and check once through ``main``; None if the iteration failed."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        sink = io.StringIO()
        sample = {"run_s": 0.0, "check_s": 0.0}
        try:
            for argv in self.commands:
                with contextlib.redirect_stdout(sink):
                    start = time.perf_counter()
                    rc = main(argv)
                    sample["run_s"] += time.perf_counter() - start
                if rc != 0:
                    return self.fail(f"{argv[0]} exited with {rc}")
            digest, sample["output_bytes"] = dir_digest(self.out)
            if self.expected is None:
                self.expected = digest
            elif digest != self.expected:
                return self.fail(f"output digest {digest} != expected {self.expected}")
            for out in self.checks:
                with contextlib.redirect_stdout(sink):
                    start = time.perf_counter()
                    rc = main(["check", "--out", out])
                    sample["check_s"] += time.perf_counter() - start
                with open(os.path.join(out, "fairness-check.json"), "r", encoding="utf-8") as fh:
                    matches = json.load(fh)["matches_stored"]
                if rc != 0 or not matches:
                    return self.fail(f"check exited with {rc}, matches_stored={matches}")
        except Exception:
            traceback.print_exc()
            return self.fail("raised")
        return sample

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"iteration {self.attempted} failed: {why}", file=sys.stderr)
        return None

    def loop(self, main, seconds: float, before=None, after=None, between=None) -> List[dict]:
        """Iterate for ``seconds`` (at least once); the samples of good
        iterations. ``between(elapsed)`` runs after each iteration but the last.

        The host-speed kernel runs before the first iteration and after each
        one. A sample keeps its wall times as ``run_wall_s`` and
        ``check_wall_s``; ``run_s`` and ``check_s`` are scaled to the
        reference speed by the mean of the two kernel runs around it."""
        samples = []
        start = time.perf_counter()
        speed = hostspeed.factor()
        while True:
            if before:
                before(len(samples))
            gc.collect()  # each iteration starts without the last one's garbage
            sample = self.iterate(main)
            speed_after = hostspeed.factor()
            if sample is not None:
                sample["host_factor"] = (speed + speed_after) / 2
                for name in ("run_s", "check_s"):
                    sample[name.replace("_s", "_wall_s")] = sample[name]
                    sample[name] /= sample["host_factor"]
                if after:
                    after(sample)
                samples.append(sample)
            speed = speed_after
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return samples
            if between:
                between(elapsed)


def summary(values: List[float]) -> dict:
    """Fast decile (p10), median, the highest percentile with at least ten
    samples beyond it (the maximum when fewer than twenty samples leave no
    such percentile above the median), the sample count and the samples.
    Percentiles are nearest rank."""
    if not values:
        return {"p10": 0.0, "median": 0.0, "tail": 0.0, "tail_pct": None, "n": 0, "samples": []}
    s = sorted(values)
    n = len(s)

    def rank(pct: int) -> float:
        return s[max(1, math.ceil(pct * n / 100)) - 1]

    pct = 100 * (n - 10) // n if n >= 20 else None
    return {
        "p10": rank(10),
        "median": statistics.median(s),
        "tail": rank(pct) if pct else s[-1],
        "tail_pct": pct,
        "n": n,
        "samples": values,
    }


def timing_line(name: str, st: dict, unit: str = "s") -> str:
    label = f"p{st['tail_pct']}" if st["tail_pct"] is not None else "max"
    return (
        f"{name:16s} p10 {st['p10']:.6f} {unit}  median {st['median']:.6f} {unit}"
        f"  {label} {st['tail']:.6f} {unit}  n={st['n']}"
    )


def probe(*args) -> str:
    """Run probe.py in a fresh interpreter; the last line of its output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *map(str, args)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def machine_info() -> dict:
    uname = platform.uname()
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "system": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": dir_digest(SRC / "fairsim", "*.py")[0],
    }


def run_untraced(plan: Plan, cli, args, work: Path, lines: List[str]):
    # Set-up is timed in fresh interpreters spread over the run. It is mostly
    # interpreter start-up and imports, which the host-speed kernel does not
    # track, so it stays wall time; the median of many probes steadies it.
    count = 3 if args.size == "tiny" else 15
    setup: List[float] = []

    def setup_probe(elapsed=None):
        if len(setup) < count and (elapsed is None or elapsed >= len(setup) * args.seconds / count):
            setup.append(float(probe("setup", args.workload, args.seed, args.size, work)))

    samples = plan.loop(cli.main, args.seconds, between=setup_probe)
    heights = plan.graded_heights()
    while len(setup) < count:
        setup_probe()

    # memory: one more iteration in a fresh process, with its pool workers
    memory_dir = work / "memory"
    memory_dir.mkdir()
    memory = json.loads(probe("memory", args.workload, args.seed, args.size, plan.jobs, memory_dir))
    plan.attempted += 1
    if memory["digest"] != plan.expected:
        plan.fail(f"output digest {memory['digest']} in the memory probe != expected {plan.expected}")
    stats = {
        "setup_s": summary(setup),
        "run_s": summary([s["run_s"] for s in samples]),
        "run_wall_s": summary([s["run_wall_s"] for s in samples]),
        "check_s": summary([s["check_s"] for s in samples]),
        "check_wall_s": summary([s["check_wall_s"] for s in samples]),
        "host_factor": summary([s["host_factor"] for s in samples]),
    }
    for name, st in stats.items():
        lines.append(timing_line(name, st, "x" if name == "host_factor" else "s"))
    run_s = stats["run_s"]["median"]
    metrics = {
        "setup_s": stats["setup_s"]["median"],
        "run_s": run_s,
        "heights_per_s": heights / run_s if run_s else 0.0,
        "peak_rss_mb": memory["peak_rss_mb"],
    }
    return metrics, stats, True


def run_traced(plan: Plan, cli, args, lines: List[str], spans_path: Path):
    untraced = plan.loop(cli.main, args.seconds / 2)
    tracer = tracing.Tracer()
    per_iteration: List[dict] = []

    def traced_main(argv):
        return tracer.span("cli.main", cli.main, (argv,), {})

    def before(i):
        tracer.reset()
        tracer.iteration = i

    def after(sample):
        m = tracing.layer_metrics(tracer)
        m["harness.output_bytes"] = sample["output_bytes"]
        m["traced_s"] = tracer.stats["cli.main"][1]  # the root spans: run and check calls
        per_iteration.append(m)

    origin = time.perf_counter()
    with tracing.installed(tracer):
        traced = plan.loop(traced_main, args.seconds / 2, before, after)

    correct = True
    metrics: Dict[str, float] = {}
    for name in per_iteration[0] if per_iteration else ():
        values = [m[name] for m in per_iteration]
        if name in tracing.SIMULATED and len(set(values)) != 1:
            lines.append(f"simulated count {name} differs between iterations: {values}")
            correct = False
        metrics[name] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)

    stats = {
        "run_s": summary([s["run_s"] for s in untraced]),
        "check_s": summary([s["check_s"] for s in untraced]),
        "traced_run_s": summary([s["run_s"] for s in traced]),
    }
    for name, st in stats.items():
        lines.append(timing_line(name, st))
    run_s = stats["run_s"]["median"]
    metrics["check_s"] = stats["check_s"]["median"]
    metrics["deliveries_per_s"] = metrics.get("consensus.events.msg", 0) / run_s if run_s else 0.0
    metrics["trace.overhead"] = stats["traced_run_s"]["median"] / run_s if run_s else 0.0

    # Self times of all layers plus cli.self_s must add up to the traced
    # run and check calls, iteration by iteration: no span time is lost or
    # counted twice.
    for i, m in enumerate(per_iteration):
        self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        ratio = self_sum / m["traced_s"] if m["traced_s"] else 0.0
        if abs(ratio - 1) > 1e-6:
            correct = False
        lines.append(
            f"self-time check, iteration {i}: layers + cli = {self_sum:.6f} s,"
            f" traced run+check = {m['traced_s']:.6f} s, ratio {ratio:.9f}"
        )
    metrics.pop("traced_s", None)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans_json(origin):
            fh.write(json.dumps(span) + "\n")
    lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, stats, correct and bool(per_iteration)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="standard", choices=workloads.SIZES)
    args = parser.parse_args(argv)
    if args.size == "double" and args.workload != "wide-committee":
        parser.error("--size double exists only for wide-committee")

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cli = import_cli()

    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    work = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    lines = [f"fairsim benchmark: {tag}"]
    try:
        # traced runs keep every span in this process
        jobs = 1 if args.trace else min(len(os.sched_getaffinity(0)), 2)
        plan = Plan(args.workload, args.seed, args.size, jobs, work)
        # warm-up: lazy imports and first-use costs; verified, not timed
        plan.iterate(cli.main)
        if args.trace:
            metrics, stats, correct = run_traced(plan, cli, args, lines, results / f"{tag}-spans.jsonl")
        else:
            metrics, stats, correct = run_untraced(plan, cli, args, work, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_info()
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    correct = correct and plan.failed == 0
    lines.append(
        f"failed_runs {plan.failed}/{plan.attempted}"
        f" (digest {'pinned' if plan.pinned else 'not pinned; first iteration is the reference'}:"
        f" {plan.expected})"
    )
    lines.append("machine " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        lines.append(f"{name:28s} {value!r} {wanted.get(name, '')}")
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "args": vars(args),
                "machine": machine,
                "correct": correct,
                "attempted": plan.attempted,
                "failed": plan.failed,
                "digest": plan.expected,
                "digest_pinned": plan.pinned,
                "timings": stats,
                "metrics": metrics,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": plan.attempted,
                "failed": plan.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
