"""``fairsim check``: re-derive every output file of a run and compare.

``regrade_output_dir`` rebuilds each replication from scenario-echo.json and
the chain-<rep>.jsonl files alone, re-grades and re-aggregates them, renders
them with ``harness.render_outputs`` (the renderer ``run`` writes with) and
compares every file's bytes with the stored one. Only the committees and
reward vectors are read from a chain; its genesis line and each block's
derived fields are checked by that comparison of the chain file. Message
traces are not in the chains, so trace files are skipped; files no run
writes are ignored.
"""
from __future__ import annotations

import json
import os
from typing import Optional

from . import harness
from .consensus import RunResult
from .core import Blockchain
from .harness import ReplicationResult, Scenario, ScenarioError, ScenarioResult, grade, render_outputs
from .reward import matrix_from_chain

# parse_scenario, chain_from_jsonl and compute_aggregate are called through
# the harness module, where benchmarks/tracing.py wraps them, so that a
# traced check is timed like a traced run


class MalformedOutput(ScenarioError):
    """A file of an output directory that cannot be read as what a run
    writes; ``path`` is the file name."""


def regrade_output_dir(out_dir: str) -> dict:
    """Re-derive every output file from scenario-echo.json and the chains on
    disk, and compare each with the stored file byte for byte.

    Returns a summary: ``files`` maps each file name to "matches", "differs"
    or "missing", ``first_difference`` names the first file that does not
    match (or is None), and ``matches_stored`` is true when every file
    matches. Message traces are not recorded in the chains, so trace files
    are listed under ``skipped``. Raises MalformedOutput when the scenario
    echo cannot be read, when a chain cannot be graded, or when a stored
    JSON file that differs is not a JSON object.
    """
    scenario = _read_scenario(out_dir)
    reps = []
    for rep in range(scenario.replications):
        name = f"chain-{rep:03d}.jsonl"
        chain = _read_chain(out_dir, name, scenario)
        try:
            matrix, committees = matrix_from_chain(chain)
        except ValueError as exc:
            raise MalformedOutput(name, str(exc)) from None
        run = RunResult(chain=chain, committees=committees, matrix=matrix)
        reps.append(ReplicationResult(index=rep, result=run, report=grade(scenario, matrix, committees)))
    result = ScenarioResult(scenario=scenario, replications=reps, aggregate=harness.compute_aggregate(scenario, reps))

    files = {}
    for name, text in render_outputs(result):
        stored = _read(out_dir, name)
        if stored is None:
            files[name] = "missing"
        elif stored == text.encode("utf-8"):
            files[name] = "matches"
        elif name.endswith(".json") and not isinstance(_json_or_none(stored), dict):
            raise MalformedOutput(name, "is not a JSON object")
        else:
            files[name] = "differs"
    first = next((name for name, status in files.items() if status != "matches"), None)
    skipped = sorted(name for name in os.listdir(out_dir) if name.startswith("trace-") and name.endswith(".jsonl"))
    return {
        "files": files,
        "first_difference": first,
        "matches_stored": first is None,
        "skipped": {name: "message traces are not recorded in the chains" for name in skipped},
    }


def _read(out_dir: str, name: str, required: bool = False) -> Optional[bytes]:
    """The bytes of file ``name``, or None when there is none and it is not ``required``."""
    try:
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        if required:
            raise MalformedOutput(name, "missing") from None
        return None
    except OSError as exc:
        raise MalformedOutput(name, f"cannot be read: {exc.strerror}") from None


def _json_or_none(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def _read_scenario(out_dir: str) -> Scenario:
    name = "scenario-echo.json"
    doc = _json_or_none(_read(out_dir, name, required=True))
    if not isinstance(doc, dict):
        raise MalformedOutput(name, "is not a JSON object")
    try:
        return harness.parse_scenario(doc)
    except ScenarioError as exc:
        raise MalformedOutput(name, f"{exc.path}: {exc.message}" if exc.path else exc.message) from None


def _read_chain(out_dir: str, name: str, scenario: Scenario) -> Blockchain:
    """The chain in file ``name``, read against the scenario's genesis; only
    its committees and reward vectors come from the file, and the files
    derived from them check those."""
    try:
        chain = harness.chain_from_jsonl(_read(out_dir, name, required=True).decode("utf-8"), scenario.genesis)
    except ValueError as exc:
        raise MalformedOutput(name, str(exc)) from None
    if len(chain) != scenario.max_height + 1:
        raise MalformedOutput(
            name, f"holds {len(chain)} blocks; a run of the scenario writes max_height + 1 = {scenario.max_height + 1}"
        )
    return chain
