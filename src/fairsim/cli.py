"""Command line front end.

    fairsim run --scenario FILE --out DIR [--seed N] [--reps N] [--jobs N] [--trace]
    fairsim run --builtin NAME --out DIR ...
    fairsim figure NAME --out DIR
    fairsim check --out DIR

``check`` re-runs the scenario that DIR's scenario-echo.json echoes and
compares every output file byte for byte with the stored one, traces
included when DIR holds trace-000.jsonl; it exits 1 naming the first file
that differs or is missing. Errors, including an output directory whose
scenario echo cannot be read or run, are reported as one JSON object on
stderr and exit code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import ScenarioError, _atomic_write, parse_scenario, regrade_output_dir, run_scenario, selection_csv
from .harness import _CHECK, _FIGURE, _SELECTION
from .core import SelectionMechanismId, uniform_merits
from .scenarios import builtin_scenario, evsync_rewards_figure
from .selection import run_selection_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its outputs")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--builtin", help="name of a built-in scenario")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--reps", type=int, default=None, help="override the replication count")
    run.add_argument("--jobs", type=int, default=1, help="parallel replication workers")
    run.add_argument("--trace", action="store_true", help="record message traces")

    fig = sub.add_parser("figure", help="reproduce a named figure dataset")
    fig.add_argument("name", help="selection-highest | selection-lowest | ev-sync-rewards")
    fig.add_argument("--out", required=True)
    fig.add_argument("--seed", type=int, default=None)

    chk = sub.add_parser("check", help="re-run the echoed scenario and compare every output file")
    chk.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ScenarioError("--jobs", "must be at least 1")
    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = builtin_scenario(args.builtin)
    scenario = parse_scenario(doc, seed=args.seed, replications=args.reps)
    result = run_scenario(scenario, out_dir=args.out, jobs=args.jobs, record_trace=args.trace)
    labels = sorted({rr.report.classification.value for rr in result.replications})
    print(f"{scenario.name}: {len(result.replications)} replication(s), classification(s): {', '.join(labels)}")
    print(f"outputs written to {args.out}")
    return 0


_SELECTION_FIGURES = {
    "selection-highest": (SelectionMechanismId.HIGHEST_STAKE, 170, 50, 5000),
    "selection-lowest": (SelectionMechanismId.LOWEST_STAKE, 170, 50, 10000),
}


def _cmd_figure(args) -> int:
    if args.name in _SELECTION_FIGURES:
        if args.seed is not None:
            raise ScenarioError("--seed", f"{args.name} draws nothing at random; only ev-sync-rewards takes a seed")
        mech, population, n, heights = _SELECTION_FIGURES[args.name]
        stats = run_selection_experiment(population, n, mech, heights)
        os.makedirs(args.out, exist_ok=True)
        text = selection_csv(stats.counts, stats.total_heights, uniform_merits(population))
        _atomic_write(os.path.join(args.out, _SELECTION), text)
        print(f"{args.name}: selection counts over {heights} heights written to {args.out}")
        return 0
    if args.name == "ev-sync-rewards":
        scenario = parse_scenario(evsync_rewards_figure(), seed=args.seed)
        result = run_scenario(scenario, out_dir=args.out)
        lines = ["height,mean,mean_minus_std,mean_plus_std\r\n"]
        for h, (mean, std_all, _) in sorted(result.aggregate.items()):
            lines.append(f"{h},{mean!r},{mean - std_all!r},{mean + std_all!r}\r\n")
        _atomic_write(os.path.join(args.out, _FIGURE), "".join(lines))
        print(f"ev-sync-rewards: {scenario.replications} replications written to {args.out}")
        return 0
    known = sorted(_SELECTION_FIGURES) + ["ev-sync-rewards"]
    raise ScenarioError("figure", f"unknown figure {args.name!r}; known: {known}")


def _cmd_check(args) -> int:
    summary = regrade_output_dir(args.out)
    _atomic_write(os.path.join(args.out, _CHECK), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if summary["matches_stored"]:
        print(f"all {len(summary['files'])} output files match a re-run of the echoed scenario")
        return 0
    first = summary["first_difference"]
    problem = "is missing" if summary["files"][first] == "missing" else "differs from the re-run"
    print(f"{first} {problem} (see {_CHECK})", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "figure": _cmd_figure, "check": _cmd_check}[args.command]
    try:
        return command(args)
    except ScenarioError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2
    except (OSError, MemoryError, RecursionError, ValueError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(json.dumps({"error": {"field": None, "message": message}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
