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
``fairsim check`` (the check module) renders what it re-derives with the
same renderer.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .consensus import EngineConfig, QuorumImpossible, RunResult, SimulationEngine, check_committee
from .core import (
    BehaviorKind,
    GenesisConfig,
    ProcessId,
    ProcessSpec,
    RewardMechanismId,
    SelectionMechanismId,
    TimeoutPolicy,
    chain_from_jsonl,  # the check module reads chains through this name
    chain_to_jsonl,
)
from .fairness import FairnessReport, GroundTruth, build_report, fairness_json
from .network import Asynchronous, EventuallySynchronous, GoodBad, Synchronous
from .reward import RewardMatrix
from .selection import SelectionStats, SelectionTally

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Validation failure with the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def to_json(self) -> dict:
        return {"error": {"field": self.path, "message": self.message}}


@dataclass
class Scenario:
    name: str
    specs: List[ProcessSpec]
    genesis: GenesisConfig
    model: object
    max_height: int
    seed: int
    replications: int
    engine: EngineConfig
    window: int  # stabilization window of the fairness analyzer
    raw: dict = field(default_factory=dict)


# -- scenario parsing --------------------------------------------------------

def _require(obj: dict, key: str, path: str):
    """``obj[key]``; ``path`` names ``obj``, and is empty for the document itself."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be an object")
    if key not in obj:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _heights_matching(spec, max_height: int, path: str) -> List[int]:
    if spec == "all":
        return list(range(1, max_height + 2))
    if spec == "even":
        return list(range(2, max_height + 2, 2))
    if spec == "odd":
        return list(range(1, max_height + 2, 2))
    if isinstance(spec, list):
        return [_int(h, path) for h in spec]
    if isinstance(spec, dict):
        if "mod" in spec:
            m, r = _int(spec["mod"], path, lo=1), _int(spec.get("rem", 0), path)
            return [h for h in range(1, max_height + 2) if h % m == r]
        if "from" in spec:
            return list(range(_int(spec["from"], path), _int(spec.get("to", max_height + 1), path) + 1))
    raise ScenarioError(path, f"unrecognized heights specifier: {spec!r}")


def parse_scenario(doc: dict, seed: Optional[int] = None, replications: Optional[int] = None) -> Scenario:
    """Validate ``doc``; ``seed`` and ``replications`` override its fields of those names."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "must be an object")
    overrides = {"seed": seed, "replications": replications}
    doc = {**doc, **{key: value for key, value in overrides.items() if value is not None}}
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}")
    name = doc.get("name", "scenario")
    max_height = _int(_require(doc, "max_height", ""), "max_height", lo=1)

    pop = _require(doc, "population", "")
    size = _int(_require(pop, "size", "population"), "population.size", lo=1)

    merits_doc = pop.get("merits")
    if merits_doc is None:
        merits = {pid: Fraction(1, size) for pid in range(size)}
    else:
        if not (
            isinstance(merits_doc, list)
            and len(merits_doc) == size
            and all(type(m) in (int, float) and math.isfinite(m) and m >= 0 for m in merits_doc)
        ):
            raise ScenarioError("population.merits", f"must be a list of {size} non-negative numbers")
        merits = {pid: Fraction(m).limit_denominator(10**9) for pid, m in enumerate(merits_doc)}
        if sum(merits.values()) != 1:
            raise ScenarioError("population.merits", "merits must sum to 1")

    stakes_doc = pop.get("stakes", 100)
    if isinstance(stakes_doc, dict):
        stakes = _per_process(stakes_doc, "population.stakes", size)
    elif type(stakes_doc) is int and stakes_doc >= 0:
        stakes = {pid: stakes_doc for pid in range(size)}
    else:
        raise ScenarioError(
            "population.stakes", "must be a non-negative integer or a {process id: non-negative integer} mapping"
        )

    behaviors: Dict[int, Dict[int, BehaviorKind]] = {pid: {} for pid in range(size)}
    behaviors_doc = pop.get("behaviors", [])
    if not isinstance(behaviors_doc, list):
        raise ScenarioError("population.behaviors", "must be a list")
    for i, b in enumerate(behaviors_doc):
        path = f"population.behaviors[{i}]"
        pid = _int(_require(b, "process", path), f"{path}.process", 0, size - 1)
        kind = _enum(BehaviorKind, b, "kind", path)
        for h in _heights_matching(_require(b, "heights", path), max_height, f"{path}.heights"):
            behaviors[pid][h] = kind

    gen = _require(doc, "genesis", "")
    n = _int(_require(gen, "committee_size", "genesis"), "genesis.committee_size", 1, size)
    selection = _enum(SelectionMechanismId, gen, "selection", "genesis")
    reward = _enum(RewardMechanismId, gen, "reward", "genesis")
    policy = _enum(TimeoutPolicy, gen, "timeout_policy", "genesis", "fixed")
    if selection is SelectionMechanismId.SELECT_ALL and n != size:
        raise ScenarioError("genesis.selection", "select_all requires committee_size == population.size")

    genesis = GenesisConfig(
        n=n,
        population=size,
        selection=selection,
        reward=reward,
        timeout_policy=policy,
        initial_stakes=stakes,
        reward_per_member=_ticks(gen, "reward_per_member", "genesis", 1),
    )

    model = _parse_network(_require(doc, "network", ""), size)

    eng = doc.get("engine", {})
    if not isinstance(eng, dict):
        raise ScenarioError("engine", "must be an object")
    allow_quorum_violation = eng.get("allow_quorum_violation", False)
    if type(allow_quorum_violation) is not bool:
        raise ScenarioError("engine.allow_quorum_violation", "must be true or false")
    engine = EngineConfig(
        delta0=_ticks(eng, "delta0", "engine", 5),
        delta_increment=_ticks(eng, "delta_increment", "engine", 5),
        # a round timer of 0 re-arms at the same tick forever
        round_ticks=_int(eng.get("round_ticks", 100), "engine.round_ticks", lo=1),
        allow_quorum_violation=allow_quorum_violation,
    )

    ana = doc.get("analyzer", {})
    if not isinstance(ana, dict):
        raise ScenarioError("analyzer", "must be an object")
    for key in ana:
        if key != "stabilization_window":
            raise ScenarioError(f"analyzer.{key}", "unknown field; analyzer takes only stabilization_window")
    window = _int(
        ana.get("stabilization_window", max(1, max_height // 2)), "analyzer.stabilization_window", 1, max_height
    )

    specs = [
        ProcessSpec(id=pid, merit=merits[pid], initial_stake=stakes.get(pid, 0), behavior=behaviors[pid])
        for pid in range(size)
    ]

    # when every process sits on every committee, the Byzantine bound can be
    # checked before running; otherwise the engine checks each committee
    if size == n and not engine.allow_quorum_violation:
        try:
            for h in range(1, max_height + 2):
                check_committee(specs, h)
        except QuorumImpossible as exc:
            raise ScenarioError("population.behaviors", str(exc)) from None

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


_REQUIRED = object()


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


def _enum(cls, obj: dict, key: str, path: str, default=_REQUIRED):
    """The ``cls`` member whose value is ``obj[key]``, or ``default``'s when it is absent."""
    try:
        return cls(_require(obj, key, path) if default is _REQUIRED else obj.get(key, default))
    except ValueError as exc:
        raise ScenarioError(f"{path}.{key}", str(exc)) from None


def _ticks(obj: dict, key: str, path: str = "network", default=_REQUIRED) -> Optional[int]:
    """The non-negative integer ``obj[key]``, or ``default`` when it is absent.

    Without a ``default`` the field is required.
    """
    if key not in obj and default is not _REQUIRED:
        return default
    return _int(_require(obj, key, path), f"{path}.{key}", lo=0)


def _per_process(obj: dict, path: str, size: int) -> Dict[ProcessId, int]:
    """A ``{process id: non-negative integer}`` mapping; JSON keys are strings."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be a {process id: non-negative integer} mapping")
    out = {}
    for key in obj:
        pid = str(key)
        if not (pid.isdecimal() and int(pid) < size):
            raise ScenarioError(path, f"{key!r} is not a process id in [0, {size})")
        out[int(pid)] = _ticks(obj, key, path)
    return out


def _delay_range(net: dict, key: str, default: Optional[list] = None) -> tuple:
    value = _require(net, key, "network") if default is None else net.get(key, default)
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(type(v) is int for v in value)
        and 0 <= value[0] <= value[1]
    ):
        raise ScenarioError(f"network.{key}", "must be [lo, hi] with integers 0 <= lo <= hi")
    return tuple(value)


def _parse_network(net: dict, size: int):
    kind = _require(net, "model", "network")
    if kind == "synchronous":
        return Synchronous(delay=_ticks(net, "delay", default=0))
    if kind == "good_bad":
        good_len, bad_len = _ticks(net, "good_len"), _ticks(net, "bad_len")
        if good_len + bad_len == 0:
            raise ScenarioError("network.bad_len", "good_len + bad_len must be positive")
        return GoodBad(
            good_len=good_len,
            bad_len=bad_len,
            good_delay_bound=_ticks(net, "good_delay_bound"),
            bad_delay_range=_delay_range(net, "bad_delay_range"),
            laggards=_per_process(net.get("laggards", {}), "network.laggards", size),
        )
    if kind == "eventually_synchronous":
        gst = _ticks(net, "gst", default=None)
        gst_height = _ticks(net, "gst_height", default=None)
        if gst is None and gst_height is None:
            raise ScenarioError("network", "eventually_synchronous needs gst or gst_height")
        return EventuallySynchronous(
            post_gst_bound=_ticks(net, "post_gst_bound"),
            pre_gst_delay_range=_delay_range(net, "pre_gst_delay_range"),
            gst=gst,
            gst_height=gst_height,
        )
    if kind == "asynchronous":
        return Asynchronous(
            base_delay_range=_delay_range(net, "base_delay_range", [0, 3]),
            burst_every_heights=_ticks(net, "burst_every_heights", default=8),
            burst_initial=_ticks(net, "burst_initial", default=50),
            burst_growth=_ticks(net, "burst_growth", default=2),
        )
    raise ScenarioError("network.model", f"unknown model {kind!r}")


# -- running -----------------------------------------------------------------

@dataclass
class ReplicationResult:
    index: int
    result: RunResult
    report: FairnessReport


@dataclass
class ScenarioResult:
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


def grade(scenario: Scenario, matrix: RewardMatrix, committees: Dict[int, List[ProcessId]]) -> FairnessReport:
    static_complete, static_accurate = static_fairness_flags(scenario.genesis.reward)
    return build_report(
        matrix=matrix,
        committees=committees,
        truth=GroundTruth.from_specs(scenario.specs),
        population=scenario.genesis.population,
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
    return ReplicationResult(index=rep, result=result, report=grade(scenario, result.matrix, result.committees))


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
        reps.sort(key=lambda r: r.index)
    else:
        reps = [run_replication(scenario, rep, record_trace) for rep in range(scenario.replications)]

    aggregate = compute_aggregate(scenario, reps)
    out = ScenarioResult(scenario=scenario, replications=reps, aggregate=aggregate)
    if out_dir is not None:
        write_outputs(out, out_dir)
    return out


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
            values = [1 if row.get(pid, 0) > 0 else 0 for pid in rr.result.committees[h]]
            samples.extend(values)
            rep_means.append(sum(values) / len(values))
        mean = sum(samples) / len(samples)
        std_all = math.sqrt(sum((v - mean) ** 2 for v in samples) / len(samples))
        mu_rep = sum(rep_means) / len(rep_means)
        std_rep = math.sqrt(sum((v - mu_rep) ** 2 for v in rep_means) / len(rep_means))
        out[h] = (mean, std_all, std_rep)
    return out


# -- outputs -----------------------------------------------------------------
#
# Every file is written from fixed text pieces. The text is what the standard
# library writes: ``json.dumps(..., sort_keys=True)`` for the JSON files
# (``indent=2`` for fairness.json, see ``fairness_json``) and ``csv.writer``
# (lines ending in \r\n) for the CSV files.

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
        matrix, committees = rr.result.matrix, rr.result.committees
        for h in matrix.heights():
            row = matrix.row(h)
            prefix = f"{rr.index},{h},"
            for pid in committees[h]:
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


def render_outputs(result: ScenarioResult) -> Iterator[Tuple[str, str]]:
    """Each output file of ``result`` as (file name, text), one at a time:
    first the files ``check`` reads back (the scenario echo and the chains),
    then the ones it re-derives from them."""
    scenario, reps = result.scenario, result.replications
    yield "scenario-echo.json", json.dumps(scenario.raw, indent=2, sort_keys=True) + "\n"
    for rr in reps:
        yield f"chain-{rr.index:03d}.jsonl", chain_to_jsonl(rr.result.chain)
        if rr.result.trace:
            yield f"trace-{rr.index:03d}.jsonl", "\n".join(json.dumps(ev, sort_keys=True) for ev in rr.result.trace) + "\n"
    yield "rewards.csv", _rewards_csv(reps)

    tally = SelectionTally(scenario.genesis.population)
    committees = reps[0].result.committees
    for h in sorted(committees):
        if h <= scenario.max_height:
            tally.record(h, committees[h])
    yield "selection.csv", selection_csv(tally.stats(), {s.id: s.merit for s in scenario.specs})

    yield "fairness.json", fairness_json(scenario.window, [(rr.index, rr.report) for rr in reps])
    yield "aggregate.csv", _aggregate_csv(result.aggregate)


def write_outputs(result: ScenarioResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in render_outputs(result):
        _atomic_write(os.path.join(out_dir, name), text)
