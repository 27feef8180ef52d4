"""Command line front end.

    fairsim run --scenario FILE --out DIR [--seed N] [--reps N] [--jobs N] [--trace]
    fairsim run --builtin NAME --out DIR ...
    fairsim figure NAME --out DIR
    fairsim check --out DIR

``check`` re-runs the scenario that DIR's scenario-echo.json echoes and
compares every output file byte for byte with the stored one, traces
included when DIR holds trace-000.jsonl; it exits 1 naming the first file
that differs or is missing. This module parses the arguments, calls
``harness``, which renders and writes every output file, and prints.

A refused scenario or option, a scenario file that is not UTF-8 JSON, an
output directory whose scenario echo cannot be read or run, a file error
and running out of memory are reported as one JSON object on stderr and
exit code 2; any other exception is a fault and ends in a traceback.
"""
from __future__ import annotations

import argparse
import json
import sys

from .core import ScenarioError, SelectionMechanismId
from .harness import parse_scenario, regrade_output_dir, run_scenario
from .harness import write_check_summary, write_figure_csv, write_selection_figure
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
    run.add_argument("--jobs", type=int, default=1, help="processes that share the replications")
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
            try:
                doc = json.load(fh)
            except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON, or nested past the recursion limit
                raise ScenarioError(None, str(exc)) from None
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
        write_selection_figure(run_selection_experiment(population, n, mech, heights), args.out)
        print(f"{args.name}: selection counts over {heights} heights written to {args.out}")
        return 0
    if args.name == "ev-sync-rewards":
        scenario = parse_scenario(evsync_rewards_figure(), seed=args.seed)
        write_figure_csv(run_scenario(scenario, out_dir=args.out), args.out)
        print(f"ev-sync-rewards: {scenario.replications} replications written to {args.out}")
        return 0
    known = sorted(_SELECTION_FIGURES) + ["ev-sync-rewards"]
    raise ScenarioError("figure", f"unknown figure {args.name!r}; known: {known}")


def _cmd_check(args) -> int:
    summary = regrade_output_dir(args.out)
    written = write_check_summary(summary, args.out)
    if summary["matches_stored"]:
        print(f"all {len(summary['files'])} output files match a re-run of the echoed scenario")
        return 0
    first = summary["first_difference"]
    problem = "is missing" if summary["files"][first] == "missing" else "differs from the re-run"
    print(f"{first} {problem} (see {written})", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "figure": _cmd_figure, "check": _cmd_check}[args.command]
    try:
        return command(args)
    except ScenarioError as exc:
        field, message = exc.path, exc.message
    except (OSError, MemoryError) as exc:
        field, message = None, "out of memory" if isinstance(exc, MemoryError) else str(exc)
    print(json.dumps({"error": {"field": field, "message": message}}), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
