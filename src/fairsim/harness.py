"""Scenario ingestion, replication running, aggregation, and the output files.

Scenarios are JSON documents with an explicit schema version. A run
executes R independent replications (seed XOR replication index), grades
each one against the ground truth, and writes its output directory.

``render_outputs`` is the one renderer of that directory. It yields each
file as (name, text), one at a time: scenario-echo.json, one
chain-<rep>.jsonl per replication (and trace-<rep>.jsonl under --trace),
rewards.csv, selection.csv, fairness.json and aggregate.csv. The text is
built from fixed templates, byte for byte what ``json.dumps`` or
``csv.writer`` would write. ``write_outputs`` writes each file atomically.

``regrade_output_dir`` (``fairsim check``) re-runs the scenario that
scenario-echo.json echoes, renders the result with ``render_outputs`` and
compares every file's bytes with the stored one, traces included.
"""
from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .consensus import EngineConfig, RunResult, SimulationEngine
from .core import (
    EMPTY_MAPPING,
    BehaviorKind,
    BehaviorRules,
    DEFAULT_STAKE,
    GenesisConfig,
    ProcessId,
    ProcessSpec,
    RewardMechanismId,
    ScenarioError,
    SelectionMechanismId,
    TimeoutPolicy,
    chain_to_jsonl,
    uniform_merits,
)
from .fairness import FairnessReport, GroundTruth, build_report, fairness_json
from .network import Asynchronous, EventuallySynchronous, GoodBad, Synchronous
from .reward import RewardMatrix
from .selection import SelectionStats, SelectionTally

SCHEMA_VERSION = 1
# the keys a scenario document and its genesis object may hold
_DOCUMENT_FIELDS = ("schema_version", "name", "max_height", "population", "genesis", "network", "engine", "analyzer",
                    "seed", "replications")
_GENESIS_FIELDS = ("committee_size", "selection", "reward", "timeout_policy", "reward_per_member")
# the parser builds per-process tables, whose time and memory grow with the
# size: 10^5 parses in a third of a second, 10^9 would take an hour and
# hundreds of GB, so a larger population is refused at once
MAX_POPULATION = 100_000


class Scenario(NamedTuple):
    name: str
    specs: List[ProcessSpec]
    genesis: GenesisConfig
    model: object
    max_height: int
    seed: int
    replications: int
    engine: EngineConfig
    window: int  # stabilization window of the fairness analyzer
    raw: dict  # the validated document, as scenario-echo.json echoes it


# -- scenario parsing --------------------------------------------------------

def _known(obj, path: str, fields: Sequence[str]) -> dict:
    """``obj`` when it is an object whose every key is one of ``fields``."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be an object")
    for key in obj:
        if key not in fields:
            where = path or "a scenario"
            raise ScenarioError(f"{path}.{key}" if path else key, f"unknown field; {where} takes only {', '.join(fields)}")
    return obj


def _require(obj: dict, key: str, path: str):
    """``obj[key]``; ``path`` names ``obj``, and is empty for the document itself."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be an object")
    if key not in obj:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _heights_matching(spec, max_height: int, path: str) -> range | frozenset:
    """The heights in 1..max_height + 1 that ``spec`` names: a range, or a
    frozenset for a list. No later height is ever read."""
    last = max_height + 1
    if spec == "all":
        return range(1, last + 1)
    if spec == "even":
        return range(2, last + 1, 2)
    if spec == "odd":
        return range(1, last + 1, 2)
    if isinstance(spec, list):
        heights = [_int(h, path) for h in spec]
        return frozenset(h for h in heights if 1 <= h <= last)
    if isinstance(spec, dict):
        if spec.keys() in ({"mod"}, {"mod", "rem"}):
            m = _int(spec["mod"], path, lo=1)
            r = _int(spec.get("rem", 0), path, 0, m - 1)
            return range(r or m, last + 1, m)
        if spec.keys() in ({"from"}, {"from", "to"}):
            lo = _int(spec["from"], path)
            hi = _int(spec["to"], path, lo=lo) if "to" in spec else last
            return range(max(lo, 1), min(hi, last) + 1)
    raise ScenarioError(path, f"unrecognized heights specifier: {spec!r}")


def parse_scenario(doc: dict, seed: Optional[int] = None, replications: Optional[int] = None) -> Scenario:
    """Validate ``doc``; ``seed`` and ``replications`` override its fields of those names."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "must be an object")
    overrides = {"seed": seed, "replications": replications}
    doc = {**doc, **{key: value for key, value in overrides.items() if value is not None}}
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}")
    _known(doc, "", _DOCUMENT_FIELDS)
    name = doc.get("name", "scenario")
    if type(name) is not str:
        raise ScenarioError("name", "must be a string")
    max_height = _int(_require(doc, "max_height", ""), "max_height", lo=1)

    pop = _known(_require(doc, "population", ""), "population", ("size", "merits", "stakes", "behaviors"))
    size = _int(_require(pop, "size", "population"), "population.size", 1, MAX_POPULATION)

    if "merits" not in pop:
        merits = uniform_merits(size)
    else:
        merits_doc = pop["merits"]
        if not (
            isinstance(merits_doc, list)
            and len(merits_doc) == size
            and all(type(m) in (int, float) and math.isfinite(m) and m >= 0 for m in merits_doc)
        ):
            raise ScenarioError("population.merits", f"must be a list of {size} non-negative numbers")
        merits = {pid: Fraction(m).limit_denominator(10**9) for pid, m in enumerate(merits_doc)}
        if sum(merits.values()) != 1:
            raise ScenarioError("population.merits", "merits must sum to 1")

    stakes_doc = pop.get("stakes", DEFAULT_STAKE)
    if isinstance(stakes_doc, dict):
        stakes = _per_process(stakes_doc, "population.stakes", size)
    elif type(stakes_doc) is int and stakes_doc >= 0:
        stakes = {pid: stakes_doc for pid in range(size)}
    else:
        raise ScenarioError(
            "population.stakes", "must be a non-negative integer or a {process id: non-negative integer} mapping"
        )

    rules: Dict[int, list] = {}  # process -> its (kind, heights) rules, in document order
    behaviors_doc = pop.get("behaviors", [])
    if not isinstance(behaviors_doc, list):
        raise ScenarioError("population.behaviors", "must be a list")
    for i, b in enumerate(behaviors_doc):
        path = f"population.behaviors[{i}]"
        _known(b, path, ("process", "kind", "heights"))
        pid = _int(_require(b, "process", path), f"{path}.process", 0, size - 1)
        kind = _enum(BehaviorKind, _require(b, "kind", path), f"{path}.kind")
        heights = _heights_matching(_require(b, "heights", path), max_height, f"{path}.heights")
        if heights:
            rules.setdefault(pid, []).append((kind, heights))

    gen = _known(_require(doc, "genesis", ""), "genesis", _GENESIS_FIELDS)
    n = _int(_require(gen, "committee_size", "genesis"), "genesis.committee_size", 1, size)
    selection = _enum(SelectionMechanismId, _require(gen, "selection", "genesis"), "genesis.selection")
    reward = _enum(RewardMechanismId, _require(gen, "reward", "genesis"), "genesis.reward")
    defaults = GenesisConfig._field_defaults
    policy = _enum(TimeoutPolicy, gen.get("timeout_policy", defaults["timeout_policy"]), "genesis.timeout_policy")
    if selection is SelectionMechanismId.SELECT_ALL and n != size:
        raise ScenarioError("genesis.selection", "select_all requires committee_size == population.size")

    genesis = GenesisConfig(
        n=n,
        population=size,
        selection=selection,
        reward=reward,
        timeout_policy=policy,
        initial_stakes=stakes,
        reward_per_member=_int(
            gen.get("reward_per_member", defaults["reward_per_member"]), "genesis.reward_per_member", lo=0
        ),
    )

    model = _parse_network(_require(doc, "network", ""), size)

    # a field left out keeps EngineConfig's default; a round timer of 0
    # re-arms at the same tick forever
    eng = _known(doc.get("engine", {}), "engine", EngineConfig._fields)
    engine = EngineConfig(**{
        key: _int(eng[key], f"engine.{key}", lo=1 if key == "round_ticks" else 0)
        for key in EngineConfig._fields if key in eng
    })

    ana = _known(doc.get("analyzer", {}), "analyzer", ("stabilization_window",))
    window = _int(
        ana.get("stabilization_window", max(1, max_height // 2)), "analyzer.stabilization_window", 1, max_height
    )

    behaviors = {pid: BehaviorRules(r) for pid, r in rules.items()}
    specs = [
        ProcessSpec(pid, merits[pid], stakes.get(pid, 0), behaviors.get(pid, EMPTY_MAPPING)) for pid in range(size)
    ]

    return Scenario(
        name=name,
        specs=specs,
        genesis=genesis,
        model=model,
        max_height=max_height,
        seed=_int(doc.get("seed", 0), "seed"),
        replications=_int(doc.get("replications", 1), "replications", lo=1),
        engine=engine,
        window=window,
        raw=doc,
    )


def _int(value, path: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """``value`` when it is an integer in ``[lo, hi]``; a bound left out is open."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    if lo is None:
        want = "an integer"
    elif hi is None:
        want = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
    else:
        want = f"an integer in [{lo}, {hi}]"
    raise ScenarioError(path, f"must be {want}, got {value!r}")


def _enum(cls, value, path: str):
    """The ``cls`` member whose value is ``value``."""
    try:
        return cls(value)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _per_process(obj: dict, path: str, size: int) -> Dict[ProcessId, int]:
    """A ``{process id: non-negative integer}`` mapping; JSON keys are strings."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be a {process id: non-negative integer} mapping")
    out = {}
    for key, value in obj.items():
        # only str(pid) names process pid, so no two keys name one process
        pid = int(key) if type(key) is str and key.isdecimal() and len(key) <= len(str(size)) else size
        if pid >= size or str(pid) != key:
            raise ScenarioError(path, f"{key!r} is not a process id in [0, {size}) written as str(id)")
        out[pid] = _int(value, f"{path}.{key}", lo=0)
    return out


def _delay_range(value, path: str) -> tuple:
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(type(v) is int for v in value)
        and 0 <= value[0] <= value[1]
    ):
        raise ScenarioError(path, "must be [lo, hi] with integers 0 <= lo <= hi")
    return tuple(value)


_MODELS = {
    "synchronous": Synchronous,
    "good_bad": GoodBad,
    "eventually_synchronous": EventuallySynchronous,
    "asynchronous": Asynchronous,
}


def _parse_network(net: dict, size: int):
    """The model record ``net`` names. Its fields are the record's: one left
    out keeps the record's default, and one without a default is required."""
    kind = _require(net, "model", "network")
    cls = _MODELS.get(kind) if type(kind) is str else None
    if cls is None:
        raise ScenarioError("network.model", f"unknown model {kind!r}")
    _known(net, "network", ("model", *cls._fields))
    fields = {}
    for key in cls._fields:
        if key in net or key not in cls._field_defaults:
            value, path = _require(net, key, "network"), f"network.{key}"
            if key.endswith("_range"):
                fields[key] = _delay_range(value, path)
            elif key == "laggards":
                fields[key] = _per_process(value, path, size)
            else:
                fields[key] = _int(value, path, lo=0)
    model = cls(**fields)
    if cls is GoodBad and model.good_len + model.bad_len == 0:
        raise ScenarioError("network.bad_len", "good_len + bad_len must be positive")
    if cls is EventuallySynchronous:
        if model.gst is None and model.gst_height is None:
            raise ScenarioError("network", "eventually_synchronous needs gst or gst_height")
        if model.gst is not None and model.gst_height is not None:
            raise ScenarioError("network.gst_height", "give gst or gst_height, not both")
    return model


# -- running -----------------------------------------------------------------

class ReplicationResult(NamedTuple):
    index: int
    result: RunResult
    report: FairnessReport


class ScenarioResult(NamedTuple):
    scenario: Scenario
    replications: List[ReplicationResult]
    # height -> (mean, std over processes x replications, std over replication means)
    aggregate: Dict[int, tuple]


def static_fairness_flags(mech: RewardMechanismId) -> tuple:
    """(complete-by-construction, accurate-by-construction)."""
    return (
        mech is RewardMechanismId.REWARD_ALL_COMMITTEE,
        mech is RewardMechanismId.NEVER_REWARD,
    )


def grade(scenario: Scenario, matrix: RewardMatrix) -> FairnessReport:
    static_complete, static_accurate = static_fairness_flags(scenario.genesis.reward)
    return build_report(
        matrix=matrix,
        truth=GroundTruth.from_specs(scenario.specs),
        stabilization_window=scenario.window,
        static_complete=static_complete,
        static_accurate=static_accurate,
    )


def run_replication(scenario: Scenario, rep: int, record_trace: bool = False) -> ReplicationResult:
    engine = SimulationEngine(
        specs=scenario.specs,
        genesis=scenario.genesis,
        model=scenario.model,
        max_height=scenario.max_height,
        seed=scenario.seed ^ rep,
        config=scenario.engine,
        record_trace=record_trace,
    )
    result = engine.run()
    return ReplicationResult(index=rep, result=result, report=grade(scenario, result.matrix))


def _run_rep_task(args) -> ReplicationResult:
    doc, rep, record_trace = args
    return run_replication(parse_scenario(doc), rep, record_trace)


def run_scenario(
    scenario: Scenario,
    out_dir: Optional[str] = None,
    jobs: int = 1,
    record_trace: bool = False,
) -> ScenarioResult:
    reps: List[ReplicationResult]
    if jobs > 1 and scenario.replications > 1:
        # imported here because it loads multiprocessing, which a serial run
        # never needs; the pool forks all its workers up front, so no more
        # than there are replications
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(scenario.raw, rep, record_trace) for rep in range(scenario.replications)]
        with ProcessPoolExecutor(max_workers=min(jobs, scenario.replications)) as pool:
            reps = list(pool.map(_run_rep_task, tasks))
    else:
        reps = [run_replication(scenario, rep, record_trace) for rep in range(scenario.replications)]

    aggregate = compute_aggregate(scenario, reps)
    out = ScenarioResult(scenario=scenario, replications=reps, aggregate=aggregate)
    if out_dir is not None:
        write_outputs(out, out_dir)
    return out


def _sum_in_order(values) -> float:
    """The floats ``values`` added left to right. The builtin ``sum``
    compensates rounding since Python 3.12, which moves last digits."""
    total = 0.0
    for v in values:
        total += v
    return total


def compute_aggregate(scenario: Scenario, reps: Sequence[ReplicationResult]) -> Dict[int, tuple]:
    """Per-height mean/std of the reward parameter over committee members.

    Two spreads are reported: over every (process, replication) sample and
    over per-replication means.
    """
    heights = reps[0].result.matrix.heights() if reps else []
    out: Dict[int, tuple] = {}
    for h in heights:
        samples: List[int] = []
        rep_means: List[float] = []
        for rr in reps:
            row = rr.result.matrix.row(h)
            values = [1 if row.get(pid, 0) > 0 else 0 for pid in rr.result.matrix.committee(h)]
            samples.extend(values)
            rep_means.append(sum(values) / len(values))
        mean = sum(samples) / len(samples)
        std_all = math.sqrt(_sum_in_order((v - mean) ** 2 for v in samples) / len(samples))
        mu_rep = _sum_in_order(rep_means) / len(rep_means)
        std_rep = math.sqrt(_sum_in_order((v - mu_rep) ** 2 for v in rep_means) / len(rep_means))
        out[h] = (mean, std_all, std_rep)
    return out


# -- outputs -----------------------------------------------------------------
#
# Every file is written from fixed text pieces. The text is what the standard
# library writes: ``json.dumps(..., sort_keys=True)`` for the JSON files
# (``indent=2`` for fairness.json, see ``fairness_json``) and ``csv.writer``
# (lines ending in \r\n) for the CSV files.

# chain and trace names take the replication index; _CHECK is the summary fairsim check writes
_ECHO, _CHAIN, _TRACE, _CHECK = "scenario-echo.json", "chain-{:03d}.jsonl", "trace-{:03d}.jsonl", "fairness-check.json"
# fairsim figure writes selection.csv alone for a selection figure, and
# figure.csv beside a run's files for ev-sync-rewards
_SELECTION, _FIGURE = "selection.csv", "figure.csv"
# the names _CHAIN and _TRACE give
_REP_FILE = re.compile(r"(chain|trace)-([0-9]{3}|[1-9][0-9]{3,})\.jsonl")

_AGGREGATE_HEAD = (
    "# mean/std of the reward parameter per height;"
    " std_all over process x replication samples, std_rep over replication means\n"
    "height,mean,std_all,std_rep\r\n"
)


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data.encode("utf-8"))
    os.replace(tmp, path)


def _rewards_csv(reps: Sequence[ReplicationResult]) -> str:
    out = ["replication,height,process_id,r,amount\r\n"]
    for rr in reps:
        matrix = rr.result.matrix
        for h in matrix.heights():
            row = matrix.row(h)
            prefix = f"{rr.index},{h},"
            for pid in matrix.committee(h):
                amount = row.get(pid, 0)
                out.append(f"{prefix}{pid},{1 if amount > 0 else 0},{amount}\r\n")
    return "".join(out)


def selection_csv(stats: SelectionStats, merits: Dict[ProcessId, Fraction]) -> str:
    """selection.csv: per-process selection count, frequency v_i and merit alpha_i."""
    out = ["process_id,count,v_i,alpha_i\r\n"]
    for pid, count in sorted(stats.counts.items()):
        out.append(f"{pid},{count},{count / stats.total_heights!r},{float(merits[pid])!r}\r\n")
    return "".join(out)


def _aggregate_csv(aggregate: Dict[int, tuple]) -> str:
    out = [_AGGREGATE_HEAD]
    for h, (mean, std_all, std_rep) in sorted(aggregate.items()):
        out.append(f"{h},{mean!r},{std_all!r},{std_rep!r}\r\n")
    return "".join(out)


def _trace_jsonl(trace: Sequence[tuple]) -> str:
    """trace-<rep>.jsonl: one JSON object per copy sent, keys sorted."""
    return "".join(
        f'{{"deliver_at": {at}, "height": {h}, "kind": "{kind}", "recipient": {rcpt},'
        f' "sender": {sender}, "time": {t}}}\n'
        for t, at, sender, rcpt, kind, h in trace
    )


def render_outputs(result: ScenarioResult) -> Iterator[Tuple[str, str]]:
    """Each output file of ``result`` as (file name, text), one at a time."""
    scenario, reps = result.scenario, result.replications
    yield _ECHO, json.dumps(scenario.raw, indent=2, sort_keys=True) + "\n"
    for rr in reps:
        yield _CHAIN.format(rr.index), chain_to_jsonl(rr.result.chain)
        if rr.result.trace:
            yield _TRACE.format(rr.index), _trace_jsonl(rr.result.trace)
    yield "rewards.csv", _rewards_csv(reps)

    tally = SelectionTally(scenario.genesis.population)
    matrix = reps[0].result.matrix
    for h in matrix.heights():
        tally.record(h, matrix.committee(h))
    yield _SELECTION, selection_csv(tally.stats(), {s.id: s.merit for s in scenario.specs})

    yield "fairness.json", fairness_json(scenario.window, [(rr.index, rr.report) for rr in reps])
    yield "aggregate.csv", _aggregate_csv(result.aggregate)


def write_outputs(result: ScenarioResult, out_dir: str) -> None:
    """Write every output file, then remove the chains, traces and check
    summary of an earlier run into ``out_dir``; no other file is touched."""
    os.makedirs(out_dir, exist_ok=True)
    written = set()
    for name, text in render_outputs(result):
        _atomic_write(os.path.join(out_dir, name), text)
        written.add(name)
    for name in os.listdir(out_dir):
        if name not in written and (name == _CHECK or _REP_FILE.fullmatch(name)):
            os.remove(os.path.join(out_dir, name))


# -- check -------------------------------------------------------------------

class MalformedOutput(ScenarioError):
    """An output directory whose scenario echo cannot be read or run, or a
    file of it that cannot be read; ``path`` is the file name."""


# benchmarks/tracing.py wraps this name until ROADMAP item 12 makes that wrap conditional
chain_from_jsonl = None


def regrade_output_dir(out_dir: str) -> dict:
    """Re-run the scenario that scenario-echo.json echoes, as ``run`` does
    but serially, and compare each file it renders with the stored one byte
    for byte. Traces are recorded, and compared, when trace-000.jsonl exists.

    Returns a summary: ``files`` maps each file name to "matches", "differs"
    or "missing", ``first_difference`` names the first file that does not
    match (or is None), and ``matches_stored`` is true when every file
    matches. Files no run writes are ignored. Raises MalformedOutput when
    the scenario echo cannot be read or run, or when a stored JSON file that
    differs is not a JSON object.
    """
    doc = _json_or_none(_read(out_dir, _ECHO, required=True))
    if not isinstance(doc, dict):
        raise MalformedOutput(_ECHO, "is not a JSON object")
    traced = os.path.exists(os.path.join(out_dir, _TRACE.format(0)))
    try:
        result = run_scenario(parse_scenario(doc), record_trace=traced)
    except ScenarioError as exc:
        raise MalformedOutput(_ECHO, f"{exc.path}: {exc.message}" if exc.path else exc.message) from None

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
    return {"files": files, "first_difference": first, "matches_stored": first is None}


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
    except (RecursionError, ValueError):  # a document nested past the recursion limit is not read
        return None
