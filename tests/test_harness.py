import csv
import faulthandler
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairsim.cli
import fairsim.harness
from fairsim.cli import main as cli_main
from fairsim.consensus import EngineConfig, SimulationEngine
from fairsim.core import EMPTY_MAPPING, BehaviorKind, TimeoutPolicy
from fairsim.fairness import GroundTruth
from fairsim.harness import regrade_output_dir
from fairsim.harness import MAX_POPULATION, ScenarioError, ScenarioResult, parse_scenario, run_scenario
from fairsim.harness import compute_aggregate, grade, render_outputs
from fairsim.network import Asynchronous, GoodBad, MessageKind, Synchronous
from fairsim.reward import RewardMatrix
from fairsim.scenarios import (
    builtin_scenario,
    evsync_rewards_figure,
    evsync_tendermint,
    goodbad_laggard,
    sync_suspicion_equivocator,
)
from oracles import expanded_schedule

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# a JSON document nested 100,000 deep
_DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.fixture
def time_limit(capsys):
    """Give a test that starts --jobs children 60 s, then end the whole run
    with exit code 1 and every thread's stack on the terminal: a deadlocked
    fan-out then fails the suite instead of hanging it."""
    with capsys.disabled():
        stderr = os.dup(2)  # the terminal, not the capture
    faulthandler.dump_traceback_later(60, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)


def _doc(**overrides):
    doc = sync_suspicion_equivocator(seed=4, max_height=20)
    doc.update(overrides)
    return doc


def test_parse_roundtrip_defaults():
    sc = parse_scenario(_doc())
    assert sc.genesis.n == 4
    assert sc.window == 10  # max_height // 2
    assert sc.replications == 1
    assert sc.specs[1].behavior  # the equivocation schedule is kept


def test_parse_rejects_bad_schema_version():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(_doc(schema_version=99))
    assert exc.value.path == "schema_version"


def test_parse_rejects_missing_population_size():
    doc = _doc()
    del doc["population"]["size"]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "population.size"


@pytest.mark.parametrize("size", [MAX_POPULATION + 1, 10**9, 2**63])
def test_parse_refuses_a_population_above_the_bound(size):
    # refused before any per-process table is built, so it costs nothing
    doc = _doc()
    doc["population"]["size"] = size
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "population.size"


def test_parse_rejects_out_of_range_behavior_process():
    doc = _doc()
    doc["population"]["behaviors"] = [{"process": 9, "kind": "silent", "heights": "all"}]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "population.behaviors[0].process"


def test_parse_rejects_unknown_behavior_kind():
    doc = _doc()
    doc["population"]["behaviors"] = [{"process": 1, "kind": "sneaky", "heights": "all"}]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert "sneaky" in exc.value.message


def test_parse_rejects_select_all_mismatch():
    doc = _doc()
    doc["genesis"]["committee_size"] = 3
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "genesis.selection"


def test_parse_rejects_merits_not_summing_to_one():
    doc = _doc()
    doc["population"]["merits"] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "population.merits"


def test_run_refuses_too_many_byzantine():
    """Parsing leaves the Byzantine bound to the engine, which refuses the
    committee of height 3 when that height opens."""
    doc = _doc()
    doc["population"]["behaviors"] = [
        {"process": 0, "kind": "silent", "heights": [3]},
        {"process": 1, "kind": "silent", "heights": [3]},
    ]
    sc = parse_scenario(doc)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(sc)
    assert exc.value.path == "population.behaviors"
    assert exc.value.message == "height 3: 2 Byzantine members in a committee of 4; at most 1 tolerated"


def _behaviors(heights, max_height=20):
    """Process 1's behaviour at each height 1..max_height + 1 of ``_doc``
    when one silent behaviour names ``heights``."""
    doc = _doc(max_height=max_height)
    doc["population"]["behaviors"] = [{"process": 1, "kind": "silent", "heights": heights}]
    truth = GroundTruth.from_specs(parse_scenario(doc).specs)
    return [truth.faulty(h).get(1, BehaviorKind.CORRECT) for h in range(1, max_height + 2)]


def _silent(heights, max_height=20):
    kinds = _behaviors(heights, max_height)
    assert set(kinds) <= {BehaviorKind.CORRECT, BehaviorKind.BYZANTINE_SILENT}
    return [h for h, kind in enumerate(kinds, 1) if kind is BehaviorKind.BYZANTINE_SILENT]


def test_heights_specifiers():
    assert _silent({"mod": 5, "rem": 2}) == [2, 7, 12, 17]
    assert _silent({"mod": 5}) == [5, 10, 15, 20]
    assert _silent({"from": 4, "to": 6}) == [4, 5, 6]
    assert _silent({"from": 19}) == [19, 20, 21]
    assert _silent([1, 9]) == [1, 9]
    assert _silent("even") == list(range(2, 22, 2))
    assert _silent("odd") == list(range(1, 22, 2))
    assert _silent("all") == list(range(1, 22))


def test_heights_past_the_run_are_not_expanded():
    """A rule keeps only the heights inside the run, as a range or a set: a
    huge range parses at once and means what its part inside the run means,
    and a rule that names no height of the run leaves no schedule at all."""
    start = time.perf_counter()
    huge = _behaviors({"from": 1, "to": 3_000_000}, 200)
    assert time.perf_counter() - start < 1.0
    assert huge == _behaviors({"from": 1, "to": 201}, 200)
    assert _behaviors({"from": -5, "to": 3}, 200) == _behaviors({"from": 1, "to": 3}, 200)
    assert _behaviors([0, -3, 9, 1, 202, 10**12], 200) == _behaviors([9, 1], 200)
    assert _behaviors({"from": 500}, 200) == _behaviors({"from": 300, "to": 400}, 200) == _behaviors([], 200)
    doc = _doc(max_height=200)
    doc["population"]["behaviors"] = [{"process": 1, "kind": "silent", "heights": h} for h in ({"from": 500}, [])]
    assert parse_scenario(doc).specs[1].behavior is EMPTY_MAPPING


def test_a_huge_horizon_parses_at_once_in_little_memory():
    # parsing does not check the Byzantine bound: the engine would refuse
    # height 14, where processes 1 and 2 both misbehave
    doc = _doc(max_height=10**9)
    doc["population"]["behaviors"].append({"process": 2, "kind": "silent", "heights": {"mod": 7}})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        sc = parse_scenario(doc)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 2**20
    # 10**9 + 1 = 7 * 142857143 is the run's last height
    heights = (1, 2, 7, 14, 10**9, 10**9 + 1, 10**9 + 2, 10**9 + 8)
    truth = GroundTruth.from_specs(sc.specs)
    assert [truth.faulty(h).get(1, BehaviorKind.CORRECT).value for h in heights] == [
        "correct", "equivocate", "correct", "equivocate", "equivocate", "correct", "correct", "correct"
    ]
    assert [truth.faulty(h).get(2, BehaviorKind.CORRECT).value for h in heights] == [
        "correct", "correct", "silent", "silent", "correct", "silent", "correct", "correct"
    ]


# every heights specifier a scenario can hold, over and around a run of up to 60 heights
_HEIGHTS = st.one_of(
    st.sampled_from(["all", "even", "odd"]),
    st.lists(st.integers(-3, 70), max_size=6),
    st.integers(1, 8).flatmap(
        lambda m: st.fixed_dictionaries({"mod": st.just(m)}, optional={"rem": st.integers(0, m - 1)})
    ),
    st.integers(-5, 70).flatmap(
        lambda lo: st.fixed_dictionaries({"from": st.just(lo)}, optional={"to": st.integers(lo, 80)})
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_schedule_matches_its_per_height_expansion(data):
    """Up to four overlapping rules per process, of every kind ("correct"
    included), read height by height as the per-height table reads them."""
    size = data.draw(st.integers(1, 5))
    max_height = data.draw(st.integers(1, 60))
    kinds = st.sampled_from([k.value for k in BehaviorKind])
    rules = [
        {"process": pid, "kind": data.draw(kinds), "heights": data.draw(_HEIGHTS)}
        for pid in range(size)
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    behaviors = data.draw(st.permutations(rules))
    doc = _doc(max_height=max_height)
    doc["population"] = {"size": size, "behaviors": behaviors}
    doc["genesis"]["committee_size"] = size
    specs = parse_scenario(doc).specs
    expected = expanded_schedule(behaviors, max_height)
    truth = GroundTruth.from_specs(specs)
    for h in range(1, max_height + 2):
        kinds = {pid: expected.get(pid, {}).get(h, BehaviorKind.CORRECT) for pid in range(size)}
        # each process not correct at h -> its kind: the kinds drive the engine
        assert truth.faulty(h) == {pid: kind for pid, kind in kinds.items() if kind is not BehaviorKind.CORRECT}, h


@pytest.mark.usefixtures("time_limit")
def test_select_all_refusal_through_the_pool_is_one_json_line(tmp_path, capsys):
    """A select_all committee over the Byzantine bound at height 3 is refused
    by the engine when that height opens, in the calling process and in a
    child under --jobs 2,
    with the line a refusal at parse time gave; nothing is written."""
    doc = _doc(max_height=10)
    doc["population"]["behaviors"] = [{"process": p, "kind": "silent", "heights": [3]} for p in (1, 2)]
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    expected = (
        '{"error": {"field": "population.behaviors",'
        ' "message": "height 3: 2 Byzantine members in a committee of 4; at most 1 tolerated"}}'
    )
    for jobs in ("1", "2"):
        args = ["run", "--scenario", str(path), "--reps", "2", "--jobs", jobs, "--out", str(tmp_path / jobs)]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.splitlines() == [expected], jobs
        assert not (tmp_path / jobs).exists()


def test_memory_error_is_one_json_line(tmp_path, capsys, monkeypatch):
    """A run that exhausts memory, such as one with a huge max_height, ends
    as one JSON line and exit 2, not a traceback; str(MemoryError()) is empty."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fairsim.cli, "run_scenario", exhausted)
    assert cli_main(["run", "--builtin", "goodbad-laggard", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ['{"error": {"field": null, "message": "out of memory"}}']


def test_an_internal_key_error_is_not_reported_as_a_user_error(tmp_path, monkeypatch):
    """A KeyError inside the engine is a bug: it must surface as a
    traceback, not as exit 2 with a JSON line that blames the input."""
    def broken(self, pid, h, t):
        raise KeyError(1)

    monkeypatch.setattr(SimulationEngine, "_on_collect", broken)
    with pytest.raises(KeyError):
        cli_main(["run", "--builtin", "sync-suspicion-equivocator", "--out", str(tmp_path / "o")])


def test_an_internal_value_error_is_not_reported_as_a_user_error(tmp_path, monkeypatch):
    """A ValueError inside the engine, such as a refused timestamp or reward
    row, is a bug as well: only the errors of reading and decoding the
    scenario file are reported as one JSON line."""
    def broken(self, pid, h, t):
        raise ValueError("broken")

    monkeypatch.setattr(SimulationEngine, "_on_collect", broken)
    with pytest.raises(ValueError, match="broken"):
        cli_main(["run", "--builtin", "sync-suspicion-equivocator", "--out", str(tmp_path / "o")])


def test_run_scenario_writes_expected_files(tmp_path):
    sc = parse_scenario(_doc(replications=2))
    run_scenario(sc, out_dir=str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "aggregate.csv",
        "chain-000.jsonl",
        "chain-001.jsonl",
        "fairness.json",
        "rewards.csv",
        "scenario-echo.json",
        "selection.csv",
    ]


def test_aggregate_matches_rewards_csv(tmp_path):
    sc = parse_scenario(_doc(replications=3))
    run_scenario(sc, out_dir=str(tmp_path))
    by_height = {}
    with open(tmp_path / "rewards.csv") as fh:
        for row in csv.DictReader(fh):
            by_height.setdefault(int(row["height"]), []).append(int(row["r"]))
    with open(tmp_path / "aggregate.csv") as fh:
        fh.readline()  # comment line
        for row in csv.DictReader(fh):
            h = int(row["height"])
            samples = by_height[h]
            mean = sum(samples) / len(samples)
            assert abs(float(row["mean"]) - mean) < 1e-12


def test_replication_seeds_differ(tmp_path):
    doc = _doc(replications=2)
    doc["network"] = {
        "model": "eventually_synchronous",
        "gst_height": 5,
        "post_gst_bound": 4,
        "pre_gst_delay_range": [3, 20],
    }
    doc["population"]["behaviors"] = []
    doc["genesis"]["reward"] = "tendermint_to_reward"
    sc = parse_scenario(doc)
    res = run_scenario(sc)
    a, b = res.replications
    rows = [[rr.result.matrix.row(h) for h in rr.result.matrix.heights()] for rr in (a, b)]
    assert rows[0] != rows[1]


def test_scenario_runs_twice_alike_and_keeps_its_model(tmp_path):
    # the engine runs on its own copy of the model from GST on, so one parsed
    # scenario can be run again in the same process
    sc = parse_scenario(evsync_tendermint("fixed", max_height=20))
    assert sc.model.gst is None and sc.model.gst_height == 10
    first = run_scenario(sc, out_dir=str(tmp_path / "first"))
    second = run_scenario(sc, out_dir=str(tmp_path / "second"))
    assert sc.model.gst is None
    for a, b in zip(first.replications, second.replications, strict=True):
        assert a.result.decided_at == b.result.decided_at
    assert _files(tmp_path / "second") == _files(tmp_path / "first")


def _round_robin_never_reward() -> dict:
    # the committees alternate between two halves of the population, and
    # every block carries one shared empty vector, so a vector object is in
    # two pairs
    doc = _doc()
    doc["population"] = {"size": 8}
    doc["genesis"] = {"committee_size": 4, "selection": "round_robin", "reward": "never_reward"}
    return doc


def _pickled(doc: dict) -> ScenarioResult:
    # a --jobs child process pickles its replications, which gives their objects new ids
    result = run_scenario(parse_scenario(doc))
    return result._replace(replications=[pickle.loads(pickle.dumps(rr)) for rr in result.replications])


@pytest.mark.parametrize(
    "make",
    [
        # one committee, and the vector of every other height is one object
        lambda: run_scenario(parse_scenario(builtin_scenario("sync-suspicion-equivocator"))),
        lambda: run_scenario(parse_scenario(evsync_rewards_figure(replications=3))),
        lambda: run_scenario(parse_scenario(_round_robin_never_reward())),
        lambda: _pickled(evsync_rewards_figure(replications=3)),
    ],
    ids=["sync-suspicion-equivocator", "evsync-rewards-figure-3-reps", "round-robin-never-reward", "pickled"],
)
def test_shared_rows_grade_and_render_as_unshared_ones(make):
    result = make()
    sc = result.scenario
    reps = []
    for rr in result.replications:
        shared, chain, matrix = rr.result.matrix, rr.result.chain, RewardMatrix()
        assert len(shared.pairs()) < len(shared.heights())
        # each row from the chain, as fresh, equal copies: no two heights share an object
        for h in shared.heights():
            matrix.set_row(h, list(chain.block_at(h).committee), dict(chain.block_at(h + 1).reward_vector))
        assert len(matrix.pairs()) == len(matrix.heights())
        assert grade(sc, shared) == grade(sc, matrix) == rr.report
        reps.append(rr._replace(result=rr.result._replace(matrix=matrix), report=grade(sc, matrix)))
    fresh = ScenarioResult(sc, reps, compute_aggregate(sc, reps))
    assert compute_aggregate(sc, result.replications) == fresh.aggregate == result.aggregate
    assert list(render_outputs(result)) == list(render_outputs(fresh))


def test_regrade_matches(tmp_path):
    sc = parse_scenario(_doc(replications=2))
    run_scenario(sc, out_dir=str(tmp_path))
    summary = regrade_output_dir(str(tmp_path))
    assert summary["matches_stored"]


def test_regrade_detects_tampering(tmp_path):
    sc = parse_scenario(_doc())
    run_scenario(sc, out_dir=str(tmp_path))
    stored = json.loads((tmp_path / "fairness.json").read_text())
    stored["replications"][0]["classification"] = "none"
    (tmp_path / "fairness.json").write_text(json.dumps(stored))
    assert not regrade_output_dir(str(tmp_path))["matches_stored"]


_RENDERED = [
    "scenario-echo.json",
    "chain-000.jsonl",
    "chain-001.jsonl",
    "rewards.csv",
    "selection.csv",
    "fairness.json",
    "aggregate.csv",
]


def _corrupt_one_byte(data: bytes, name: str) -> bytes:
    """``data`` with one byte changed so that it still reads as what it was:
    in a JSON file the space after the first colon becomes a tab, and in a
    CSV file the last digit becomes another digit."""
    if name.endswith((".json", ".jsonl")):
        at = data.index(b": ") + 1
        return data[:at] + b"\t" + data[at + 1:]
    at = max(data.rfind(bytes([d])) for d in b"0123456789")
    return data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0") + data[at + 1:]


def test_check_reports_every_file_it_re_derives(tmp_path, capsys):
    sc = parse_scenario(_doc(replications=2))
    run_scenario(sc, out_dir=str(tmp_path))
    (tmp_path / "figure.csv").write_text("not an output of run\n")
    summary = regrade_output_dir(str(tmp_path))
    assert list(summary["files"]) == _RENDERED
    assert set(summary["files"].values()) == {"matches"}
    assert summary["matches_stored"] and summary["first_difference"] is None


@pytest.mark.parametrize("name", _RENDERED)
def test_check_names_a_file_with_one_corrupted_byte(tmp_path, capsys, name):
    out = tmp_path / "o"
    run_scenario(parse_scenario(_doc(replications=2)), out_dir=str(out))
    path = out / name
    path.write_bytes(_corrupt_one_byte(path.read_bytes(), name))
    capsys.readouterr()
    assert cli_main(["check", "--out", str(out)]) == 1
    assert name in capsys.readouterr().err
    summary = json.loads((out / "fairness-check.json").read_text())
    assert summary["first_difference"] == name and not summary["matches_stored"]
    assert [n for n, status in summary["files"].items() if status != "matches"] == [name]


def test_check_reports_a_missing_output_file(tmp_path, capsys):
    run_scenario(parse_scenario(_doc()), out_dir=str(tmp_path))
    (tmp_path / "selection.csv").unlink()
    assert cli_main(["check", "--out", str(tmp_path)]) == 1
    assert "selection.csv is missing" in capsys.readouterr().err


def test_check_compares_traces_and_ignores_other_files(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli_main(["run", "--builtin", "sync-suspicion-equivocator", "--out", str(out), "--trace"]) == 0
    assert cli_main(["check", "--out", str(out)]) == 0
    # a second check reads its own fairness-check.json as a file to ignore
    assert cli_main(["check", "--out", str(out)]) == 0
    summary = json.loads((out / "fairness-check.json").read_text())
    assert summary["files"]["trace-000.jsonl"] == "matches"
    assert set(summary) == {"files", "first_difference", "matches_stored"}
    assert "fairness-check.json" not in summary["files"]


def _check_fails_at(out, capsys, name, status):
    """``fairsim check`` of ``out`` exits 1 naming ``name``, the one file
    whose status is not "matches" but ``status``; its stderr."""
    capsys.readouterr()
    assert cli_main(["check", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{name} {'is missing' if status == 'missing' else 'differs'}" in err
    summary = json.loads((out / "fairness-check.json").read_text())
    assert summary["first_difference"] == name and not summary["matches_stored"]
    assert {n: s for n, s in summary["files"].items() if s != "matches"} == {name: status}
    return err


def test_check_re_runs_the_echoed_seed(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli_main(["run", "--builtin", "evsync-tendermint-fixed", "--out", str(out), "--trace"]) == 0
    echo = out / "scenario-echo.json"
    doc = json.loads(echo.read_text())
    assert doc["seed"] == 3
    doc["seed"] = 12345
    echo.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert cli_main(["check", "--out", str(out)]) == 1
    assert "chain-000.jsonl differs" in capsys.readouterr().err
    summary = json.loads((out / "fairness-check.json").read_text())
    assert summary["first_difference"] == "chain-000.jsonl"
    assert summary["files"]["scenario-echo.json"] == "matches"
    assert summary["files"]["trace-000.jsonl"] == "differs"


def test_check_names_a_trace_with_one_corrupted_byte(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli_main(["run", "--builtin", "goodbad-laggard", "--out", str(out), "--trace"]) == 0
    path = out / "trace-000.jsonl"
    path.write_bytes(_corrupt_one_byte(path.read_bytes(), path.name))
    _check_fails_at(out, capsys, "trace-000.jsonl", "differs")


def test_check_names_a_deleted_chain_once(tmp_path, capsys):
    out = tmp_path / "o"
    run_scenario(parse_scenario(_doc(replications=2)), out_dir=str(out))
    (out / "chain-001.jsonl").unlink()
    err = _check_fails_at(out, capsys, "chain-001.jsonl", "missing")
    assert err == "chain-001.jsonl is missing (see fairness-check.json)\n"


@pytest.mark.usefixtures("time_limit")
def test_check_of_a_pooled_traced_run(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["run", "--builtin", "sync-suspicion-equivocator", "--reps", "4", "--jobs", "2", "--trace"]
    assert cli_main(args + ["--out", str(out)]) == 0
    assert cli_main(["check", "--out", str(out)]) == 0
    summary = json.loads((out / "fairness-check.json").read_text())
    assert [summary["files"][f"trace-{rep:03d}.jsonl"] for rep in range(4)] == ["matches"] * 4


def test_a_run_into_a_used_directory_leaves_only_its_own_files(tmp_path, capsys):
    out = tmp_path / "o"
    first = ["run", "--builtin", "goodbad-laggard", "--out", str(out)]
    assert cli_main(first + ["--reps", "3", "--trace"]) == 0
    assert cli_main(["check", "--out", str(out)]) == 0
    # names no replication index gives, which a run must leave alone
    others = ["figure.csv", "chain-0001.jsonl", "chain-1.jsonl", "trace-abc.jsonl", "chain-000.jsonl.bak"]
    for name in others:
        (out / name).write_text("not an output of run\n")
    assert cli_main(first + ["--reps", "2", "--seed", "9"]) == 0
    assert sorted(os.listdir(out)) == sorted(_RENDERED + others)
    assert cli_main(["check", "--out", str(out)]) == 0
    assert sorted(json.loads((out / "fairness-check.json").read_text())["files"]) == sorted(_RENDERED)


def _truncate_last_line(out):
    path = out / "chain-000.jsonl"
    path.write_bytes(path.read_bytes()[:-20])


def _genesis_only(out):
    path = out / "chain-000.jsonl"
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _edit_chain_line(out, number, edit):
    """Rewrite line ``number`` (0 is the genesis) of chain-000.jsonl with
    ``edit`` applied to its JSON object, as a run writes it."""
    path = out / "chain-000.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    obj = json.loads(lines[number])
    edit(obj)
    lines[number] = json.dumps(obj, sort_keys=True) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "status, damage",
    [
        ("differs", lambda out: (out / "chain-000.jsonl").write_text("")),
        ("differs", _genesis_only),
        ("differs", _truncate_last_line),
        ("differs", lambda out: _edit_chain_line(out, 3, lambda b: b.update(committee=[0, 1, 1, 2]))),
        ("differs", lambda out: _edit_chain_line(out, 3, lambda b: b.update(reward_vector={"0": -1}))),
        ("missing", lambda out: (out / "chain-000.jsonl").unlink()),
    ],
    ids=["empty", "genesis-only", "truncated", "repeated-member", "negative-amount", "deleted"],
)
def test_check_names_a_chain_that_no_run_of_the_echo_writes(tmp_path, capsys, status, damage):
    """Nothing is read from a chain: the re-run writes its own, so a chain
    that is cut short, empty, or wrong in any field only differs."""
    out = tmp_path / "o"
    run_scenario(parse_scenario(_doc()), out_dir=str(out))
    damage(out)
    _check_fails_at(out, capsys, "chain-000.jsonl", status)


@pytest.mark.parametrize(
    "field, damage",
    [
        ("fairness.json", lambda out: (out / "fairness.json").write_text("[]")),
        ("fairness.json", lambda out: (out / "fairness.json").write_text("{")),
        ("scenario-echo.json", lambda out: (out / "scenario-echo.json").unlink()),
        ("scenario-echo.json", lambda out: (out / "scenario-echo.json").write_text('{"schema_version": 1}')),
        # nested past the recursion limit, which the JSON decoder refuses with RecursionError
        ("scenario-echo.json", lambda out: (out / "scenario-echo.json").write_text(_DEEP_JSON)),
        ("fairness.json", lambda out: (out / "fairness.json").write_text(_DEEP_JSON)),
    ],
)
def test_check_of_a_malformed_output_dir_is_one_json_line(tmp_path, capsys, field, damage):
    out = tmp_path / "o"
    run_scenario(parse_scenario(_doc()), out_dir=str(out))
    damage(out)
    capsys.readouterr()
    assert cli_main(["check", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["field"] == field


@pytest.mark.parametrize(
    "line, key",
    [(3, "parent_link"), (3, "payload_id"), (3, "rewards_for"), (3, "height"), (0, "n")],
)
def test_check_names_a_chain_whose_derived_field_is_wrong(tmp_path, capsys, line, key):
    """The genesis line (line 0) and each block's derived fields come from
    the scenario, so a wrong one makes the chain render differently, and
    nothing else."""
    def bump(obj):
        (obj["genesis"] if line == 0 else obj)[key] += 1

    out = tmp_path / "o"
    run_scenario(parse_scenario(_doc()), out_dir=str(out))
    _edit_chain_line(out, line, bump)
    capsys.readouterr()
    assert cli_main(["check", "--out", str(out)]) == 1
    assert "chain-000.jsonl" in capsys.readouterr().err
    summary = json.loads((out / "fairness-check.json").read_text())
    assert [n for n, status in summary["files"].items() if status != "matches"] == ["chain-000.jsonl"]


def _files(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


# sha256 of trace-000.jsonl from `fairsim run --builtin evsync-tendermint-fixed --trace`
_EVSYNC_FIXED_TRACE_SHA256 = "dae380fe09c90b0a2f60f914185ec06764d662fd8f972d0d1183d3e67fd77ed3"


def test_trace_is_pinned_and_leaves_other_outputs_unchanged(tmp_path, capsys):
    args = ["run", "--builtin", "evsync-tendermint-fixed", "--out"]
    assert cli_main(args + [str(tmp_path / "plain")]) == 0
    assert cli_main(args + [str(tmp_path / "traced"), "--trace"]) == 0
    traced = _files(tmp_path / "traced")
    trace = traced.pop("trace-000.jsonl")
    assert traced == _files(tmp_path / "plain")
    assert hashlib.sha256(trace).hexdigest() == _EVSYNC_FIXED_TRACE_SHA256


def _equivocating_laggard() -> dict:
    """goodbad-laggard for 20 heights, with its laggard, process 3, equivocating
    at every height and lagging 80 ticks, more than two heights: its bogus votes
    reach the others after they have started the height after next."""
    doc = goodbad_laggard(max_height=20)
    doc["name"] = "goodbad-equivocating-laggard"
    doc["population"]["behaviors"] = [{"process": 3, "kind": "equivocate", "heights": "all"}]
    doc["network"]["laggards"] = {"3": 80}
    doc["analyzer"] = {"stabilization_window": 5}
    return doc


# sha256 of trace-000.jsonl from `fairsim run --trace` on _equivocating_laggard(),
# computed before the engine dropped the state of past heights
_LAGGARD_TRACE_SHA256 = "ac7848f95355bcd4e6c3505ee93e8885e59bf012ce0571a317f501c9c8d009e2"


def test_late_bogus_messages_leave_the_trace_unchanged(tmp_path, monkeypatch, capsys):
    late = []
    suspect = SimulationEngine._suspect

    def spy(engine, pid, h, sender, t):
        st = engine.procs[pid]
        if h < st.height - 1:
            late.append((pid, h))
        suspect(engine, pid, h, sender, t)
        assert min(st.slots, default=st.height) >= st.height - 1

    monkeypatch.setattr(SimulationEngine, "_suspect", spy)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_equivocating_laggard()))
    assert cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "o"), "--trace"]) == 0
    # bogus messages for a height their recipient has already dropped
    assert late
    trace = (tmp_path / "o" / "trace-000.jsonl").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == _LAGGARD_TRACE_SHA256


class _QueuedBogus(SimulationEngine):
    """Checks, after each start (the only handler that drops height
    records), that each record counts exactly the queued proposal and vote
    copies with a bogus payload for its height and that every height with
    such a copy keeps its record; records the most records held at once."""

    peak = 0

    def _start_height(self, pid, h, t):
        # deliveries add records and only a start drops them
        self.peak = max(self.peak, len(self._heights))
        super()._start_height(pid, h, t)
        queue, heights = self.queue, self._heights
        rest = queue._current[len(queue._current) - queue._drain.__length_hint__():]
        queued = {}
        for events in (rest, *queue._buckets.values()):
            for event in events:
                msg = event[1]
                if event[0] != "msg" or msg.kind not in (MessageKind.PROPOSE, MessageKind.VOTE):
                    continue
                info = heights.get(msg.height)
                valid = info.payload if info is not None else self.chain.block_at(msg.height).payload_id
                if msg.payload != valid:
                    queued[msg.height] = queued.get(msg.height, 0) + len(event[2])
        assert set(queued) <= set(heights), (t, sorted(queued), sorted(heights))
        assert {k: info.bogus for k, info in heights.items()} == {k: queued.get(k, 0) for k in heights}, t


def test_height_records_outlive_their_queued_bogus_copies():
    peaks = []
    for max_height in (100, 400):
        sc = parse_scenario(dict(_equivocating_laggard(), max_height=max_height))
        engine = _QueuedBogus(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
        assert len(engine.run().chain) == max_height + 1
        peaks.append(engine.peak)
    # a record waits out its bogus copies, which lag a fixed 80 ticks
    assert peaks[0] == peaks[1]


@pytest.mark.parametrize("jobs, reps", [(2, 3), (3, 5), (5, 5)])
@pytest.mark.usefixtures("time_limit")
def test_parallel_jobs_match_serial(tmp_path, jobs, reps):
    # (3, 5) gives uneven shares: replications 0 and 3, 1 and 4, and 2
    sc = parse_scenario(_doc(replications=reps))
    serial_res = run_scenario(sc, out_dir=str(tmp_path / "serial"), record_trace=True)
    parallel_res = run_scenario(sc, out_dir=str(tmp_path / "parallel"), jobs=jobs, record_trace=True)
    assert [rr.index for rr in parallel_res.replications] == list(range(reps))
    for a, b in zip(serial_res.replications, parallel_res.replications, strict=True):
        assert a.result.decided_at == b.result.decided_at
    serial = _files(tmp_path / "serial")
    assert f"trace-{reps - 1:03d}.jsonl" in serial
    assert _files(tmp_path / "parallel") == serial


def test_spawned_children_match_serial(tmp_path, capsys):
    """Under the spawn start method a child shares no memory with the caller
    and runs its share from the scenario document it re-parses."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_doc(max_height=8)))
    args = ["run", "--scenario", str(path), "--reps", "3", "--trace", "--out"]
    assert cli_main(args + [str(tmp_path / "serial")]) == 0
    code = (
        "import multiprocessing, sys; from fairsim.cli import main; "
        "multiprocessing.set_start_method('spawn'); sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, *args, str(tmp_path / "spawned"), "--jobs", "2"]
    subprocess.run(argv, capture_output=True, timeout=120, env=env, check=True)
    assert _files(tmp_path / "spawned") == _files(tmp_path / "serial")


@pytest.mark.parametrize("jobs, reps", [(500, 2), (3, 5), (2, 2), (1, 3)])
@pytest.mark.usefixtures("time_limit")
def test_pool_has_at_most_one_worker_per_replication(tmp_path, monkeypatch, jobs, reps):
    """The caller runs one share and min(jobs, reps) - 1 child processes the
    others; each child has exited and been joined when the run returns."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    doc = tmp_path / "s.json"
    doc.write_text(json.dumps(_doc(max_height=6)))
    args = ["run", "--scenario", str(doc), "--out", str(tmp_path / "o"), "--jobs", str(jobs), "--reps", str(reps)]
    assert cli_main(args) == 0
    assert len(started) == min(jobs, reps) - 1
    assert [process.exitcode for process in started] == [0] * len(started)
    assert not multiprocessing.active_children()
    assert (tmp_path / "o" / f"chain-{reps - 1:03d}.jsonl").exists()


def test_importing_the_cli_does_not_load_the_process_pool():
    # a serial run never needs multiprocessing, so harness imports it on the
    # jobs > 1 path only
    code = "import sys, fairsim.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True)
    assert out.stdout.strip() == "False"


# the tests below patch harness.run_replication, which a child inherits only
# when it is forked
_FORKED = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork", reason="child processes are not forked by default"
)


@_FORKED
@pytest.mark.parametrize("failing", [(1, 2), (0, 3)])
@pytest.mark.usefixtures("time_limit")
def test_every_jobs_value_reports_the_lowest_failing_replication(tmp_path, monkeypatch, capsys, failing):
    """As a serial run would: with --jobs 2 and {1, 2} failing, the caller's
    share fails at 2 and the child's at 1; with {0, 3}, the other way round."""
    run_replication = fairsim.harness.run_replication

    def refusing(scenario, rep, record_trace=False):
        if rep in failing:
            raise ScenarioError(f"replication {rep}", "refused")
        return run_replication(scenario, rep, record_trace)

    monkeypatch.setattr(fairsim.harness, "run_replication", refusing)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_doc(max_height=6)))
    expected = json.dumps({"error": {"field": f"replication {min(failing)}", "message": "refused"}})
    for jobs in ("1", "2", "3"):
        args = ["run", "--scenario", str(path), "--reps", "4", "--jobs", jobs, "--out", str(tmp_path / jobs)]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.splitlines() == [expected], jobs
        assert not multiprocessing.active_children(), jobs
        assert not (tmp_path / jobs).exists()


@_FORKED
@pytest.mark.usefixtures("time_limit")
def test_a_child_that_exits_without_sending_is_one_json_line(tmp_path, monkeypatch, capsys):
    run_replication, caller = fairsim.harness.run_replication, os.getpid()

    def exiting(scenario, rep, record_trace=False):
        if os.getpid() != caller:
            os._exit(3)
        return run_replication(scenario, rep, record_trace)

    monkeypatch.setattr(fairsim.harness, "run_replication", exiting)
    args = ["run", "--builtin", "goodbad-laggard", "--reps", "3", "--jobs", "2", "--out", str(tmp_path / "o")]
    assert cli_main(args) == 2
    expected = {"error": {"field": None, "message": "a replication process exited with code 3"}}
    assert capsys.readouterr().err.splitlines() == [json.dumps(expected)]
    assert not multiprocessing.active_children()
    assert not (tmp_path / "o").exists()


# -- command line -----------------------------------------------------------

def test_cli_run_builtin_and_check(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(["run", "--builtin", "sync-suspicion-equivocator", "--out", str(out)]) == 0
    assert cli_main(["check", "--out", str(out)]) == 0
    assert (out / "fairness-check.json").exists()


def test_cli_run_scenario_file(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_doc()))
    assert cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    echoed = json.loads((tmp_path / "o" / "scenario-echo.json").read_text())
    assert echoed["max_height"] == 20


def test_cli_seed_and_reps_overrides(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli_main(
        ["run", "--builtin", "sync-suspicion-equivocator", "--out", str(out), "--seed", "9", "--reps", "2"]
    )
    assert rc == 0
    echoed = json.loads((out / "scenario-echo.json").read_text())
    assert echoed["seed"] == 9
    assert echoed["replications"] == 2
    assert (out / "chain-001.jsonl").exists()


def test_cli_invalid_scenario_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = _doc()
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    rc = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["field"] == "schema_version"


@pytest.mark.parametrize(
    "args",
    [
        # a directory as the scenario file, a regular file as the output
        # directory, and an output directory under a regular file
        lambda d, f: ["run", "--scenario", d, "--out", os.path.join(d, "o")],
        lambda d, f: ["run", "--builtin", "goodbad-laggard", "--out", f],
        lambda d, f: ["figure", "selection-highest", "--out", os.path.join(f, "x")],
    ],
    ids=["scenario-is-a-directory", "out-is-a-file", "out-under-a-file"],
)
def test_cli_os_error_is_one_json_line(tmp_path, capsys, args):
    regular = tmp_path / "file"
    regular.write_text("")
    assert cli_main(args(str(tmp_path), str(regular))) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert str(tmp_path) in json.loads(lines[0])["error"]["message"]


@pytest.mark.parametrize(
    "data",
    [
        _DEEP_JSON.encode(),  # nested past the recursion limit
        b"{not json",
        b"",
        '{"schema_version": 1, "name": "caf\u00e9"}'.encode("latin-1"),  # not UTF-8
    ],
    ids=["deeply-nested", "not-json", "empty", "latin-1"],
)
def test_cli_unreadable_scenario_file_is_one_json_line(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["field"] is None
    assert not (tmp_path / "o").exists()


_NETWORKS = {
    "good_bad": {
        "model": "good_bad",
        "good_len": 300,
        "bad_len": 40,
        "good_delay_bound": 2,
        "bad_delay_range": [4, 9],
    },
    "eventually_synchronous": {
        "model": "eventually_synchronous",
        "gst_height": 6,
        "post_gst_bound": 8,
        "pre_gst_delay_range": [5, 30],
    },
    "asynchronous": {"model": "asynchronous"},
    "synchronous": {"model": "synchronous"},
}


# the fields of each network model that have no default
_REQUIRED_NETWORK_FIELDS = {
    "good_bad": ("good_len", "bad_len", "good_delay_bound", "bad_delay_range"),
    "eventually_synchronous": ("post_gst_bound", "pre_gst_delay_range"),
    "asynchronous": (),
    "synchronous": (),
}


def _network(model, **fields):
    return lambda doc: doc.update(network={**_NETWORKS[model], **fields})


def _network_without(model, field):
    def edit(doc):
        _network(model)(doc)
        del doc["network"][field]
    return edit


def _stakes(value):
    return lambda doc: doc["population"].update(stakes=value)


def _engine(**fields):
    return lambda doc: doc.setdefault("engine", {}).update(fields)


def _genesis(**fields):
    return lambda doc: doc["genesis"].update(fields)


def _analyzer(**fields):
    return lambda doc: doc.setdefault("analyzer", {}).update(fields)


def _heights(spec):
    return lambda doc: doc["population"]["behaviors"][0].update(heights=spec)


_Replacement = namedtuple("_Replacement", "document flags")


def _replaced_by(document, *flags):
    """An edit that replaces the whole document and adds CLI ``flags``."""
    return lambda doc: _Replacement(document, flags)


# fields whose unchecked value makes the run loop forever; their cases run
# the CLI in a subprocess, so that a regression fails on the timeout
_HANGS_WITHOUT_CHECK = {"engine.round_ticks"}


def _cli_subprocess(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fairsim.cli", *args], capture_output=True, text=True, timeout=60, env=env,
    )
    return proc.returncode, proc.stderr


def _evsync_without_gst(doc):
    _network("eventually_synchronous")(doc)
    del doc["network"]["gst_height"]


def _stalled_rounds(doc):
    # before GST no height decides within one tick, so a round timer of 0
    # re-arms at the same tick forever
    _network("eventually_synchronous")(doc)
    doc["engine"]["round_ticks"] = 0


def _over_byzantine_bound(doc):
    # highest-stake selection puts both silent processes on every committee of 4
    doc["population"] = {
        "size": 7,
        "behaviors": [{"process": p, "kind": "silent", "heights": "all"} for p in (0, 1)],
    }
    doc["genesis"]["committee_size"] = 4
    doc["genesis"]["selection"] = "highest_stake"


@pytest.mark.parametrize(
    "field, edit",
    [
        ("population.behaviors[0].heights", _heights({"mod": 0})),
        # a rule that can never match, and keys of neither or both forms
        ("population.behaviors[0].heights", _heights({"mod": 3, "rem": -1})),
        ("population.behaviors[0].heights", _heights({"mod": 3, "rem": 3})),
        ("population.behaviors[0].heights", _heights({"mod": 3, "rem": 7})),
        ("population.behaviors[0].heights", _heights({"from": 9, "to": 2})),
        ("population.behaviors[0].heights", _heights({"mod": 2, "bogus": 1})),
        ("population.behaviors[0].heights", _heights({"from": 2, "bogus": 1})),
        ("population.behaviors[0].heights", _heights({"mod": 2, "from": 1})),
        ("population.behaviors[0].heights", _heights({"rem": 1})),
        ("population.behaviors", _over_byzantine_bound),
        ("network.bad_len", _network("good_bad", good_len=0, bad_len=0)),
        ("network.good_delay_bound", _network("good_bad", good_delay_bound=-1)),
        ("network.bad_delay_range", _network("good_bad", bad_delay_range=[9, 4])),
        ("network.post_gst_bound", _network("eventually_synchronous", post_gst_bound=-3)),
        ("network.pre_gst_delay_range", _network("eventually_synchronous", pre_gst_delay_range=[30, 5])),
        ("network.base_delay_range", _network("asynchronous", base_delay_range=[-1, 3])),
        ("population.stakes", _stakes([1, 2, 3, 4])),
        ("population.stakes", _stakes(-1)),
        ("population.stakes.2", _stakes({"0": 5, "2": -1})),
        ("population.stakes.1", _stakes({"1": "7"})),
        ("population.stakes", _stakes({"a": 1})),
        ("population.stakes", _stakes({"4": 1})),
        ("name", lambda doc: doc.update(name=5)),
        ("name", lambda doc: doc.update(name=["x"])),
        ("name", lambda doc: doc.update(name={"x": 1})),
        ("name", lambda doc: doc.update(name=None)),
        ("network.delay", _network("synchronous", delay=-2)),
        ("network.delay", _network("synchronous", delay=1.5)),
        ("network.laggards", _network("good_bad", laggards=[3])),
        ("network.laggards.3", _network("good_bad", laggards={"3": -4})),
        ("network.laggards", _network("good_bad", laggards={"-1": 4})),
        # only str(pid) names a process, so no two keys collapse into one
        ("population.stakes", _stakes({"3": 1, "03": 7, "\u0663": 9})),
        ("population.stakes", _stakes({"03": 7})),
        ("population.stakes", _stakes({"\u0663": 9})),
        ("population.stakes", _stakes({"1" * 5000: 1})),
        ("network.laggards", _network("good_bad", laggards={"3": 60, "03": 60})),
        ("network.laggards", _network("good_bad", laggards={"\u0663": 60})),
        ("network.burst_initial", _network("asynchronous", burst_initial=-1)),
        ("network.burst_growth", _network("asynchronous", burst_growth="2")),
        ("network.burst_every_heights", _network("asynchronous", burst_every_heights=-8)),
        ("network.gst", _network("eventually_synchronous", gst=-1)),
        ("network.gst_height", _network("eventually_synchronous", gst_height="x")),
        ("network.gst_height", _network("eventually_synchronous", gst_height=2.5)),
        ("network.gst_height", _network("eventually_synchronous", gst_height=None)),
        ("network.gst_height", _network("eventually_synchronous", gst=0)),
        ("network", _evsync_without_gst),
        *[(f"network.{field}", _network_without(model, field))
          for model, fields in _REQUIRED_NETWORK_FIELDS.items() for field in fields],
        ("engine", lambda doc: doc.update(engine=5)),
        ("engine.round_ticks", _stalled_rounds),
        ("engine.round_ticks", _engine(round_ticks=-100)),
        ("engine.delta0", _engine(delta0=-3)),
        ("engine.delta_increment", _engine(delta_increment="5")),
        # engine takes only the fields of EngineConfig
        ("engine.allow_quorum_violation", _engine(allow_quorum_violation=True)),
        ("engine.allow_quorum_violation", _engine(allow_quorum_violation="yes")),
        ("engine.allow_quorum_violation", _engine(allow_quorum_violation=1)),
        ("engine.bogus", _engine(bogus=5)),
        # no object of the document takes a key outside its schema
        ("genesis.timeout_polcy", _genesis(timeout_polcy="modulable")),
        ("network.dealy", lambda doc: doc["network"].update(dealy=3)),
        ("network.laggards", lambda doc: doc["network"].update(laggards={"3": 60})),
        ("population.stake", lambda doc: doc["population"].update(stake=5)),
        ("max_heigth", lambda doc: doc.update(max_heigth=doc.pop("max_height"))),
        ("population.behaviors[0].kindd", lambda doc: doc["population"]["behaviors"][0].update(kindd="silent")),
        ("seed", lambda doc: doc.update(seed="x")),
        ("genesis.reward_per_member", _genesis(reward_per_member="x")),
        ("genesis.reward_per_member", _genesis(reward_per_member=-1)),
        ("genesis.timeout_policy", _genesis(timeout_policy="weird")),
        ("analyzer.stabilization_window", _analyzer(stabilization_window="x")),
        ("analyzer.stabilization_window", _analyzer(stabilization_window=-4)),
        ("analyzer.stabilization_window", _analyzer(stabilization_window=99)),
        ("analyzer.selection_window", _analyzer(selection_window="x")),
        ("population.behaviors[0].process",
         lambda doc: doc["population"]["behaviors"][0].update(process="1")),
        ("population.merits", lambda doc: doc["population"].update(merits=["x", 1, 1, 1])),
        ("population.merits", lambda doc: doc["population"].update(merits=[2, -1, 0, 0])),
        ("population.merits", lambda doc: doc["population"].update(merits=None)),
        # an integer too large for a float
        ("population.merits", lambda doc: doc["population"].update(merits=[10**400, 0, 0, 0])),
        ("population.behaviors[0].heights", _heights(["a"])),
        ("max_height", lambda doc: doc.pop("max_height")),
        ("population", lambda doc: doc.update(population=5)),
        ("genesis", lambda doc: doc.update(genesis=5)),
        ("network", lambda doc: doc.update(network=5)),
        ("population.behaviors", lambda doc: doc["population"].update(behaviors=5)),
        ("population.behaviors[0]", lambda doc: doc["population"].update(behaviors=[5])),
        ("population.behaviors[0].kind",
         lambda doc: doc["population"]["behaviors"][0].update(kind=["x"])),
        # a document that is not an object, also with the overrides that
        # used to write into it
        ("", _replaced_by([1])),
        ("", _replaced_by([1], "--seed", "3")),
        ("", _replaced_by([1], "--reps", "2")),
        ("--jobs", lambda doc: _Replacement(doc, ("--jobs", "0"))),
        ("--jobs", lambda doc: _Replacement(doc, ("--jobs", "-3"))),
    ],
)
def test_cli_invalid_field_is_one_json_line(tmp_path, capsys, field, edit):
    doc = _doc()
    replaced = edit(doc)
    doc, flags = replaced if isinstance(replaced, _Replacement) else (doc, ())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    args = ["run", "--scenario", str(path), "--out", str(tmp_path / "o"), *flags]
    if field in _HANGS_WITHOUT_CHECK:
        rc, err = _cli_subprocess(args)
    else:
        rc, err = cli_main(args), capsys.readouterr().err
    assert rc == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["field"] == field


@pytest.mark.parametrize("model", sorted(_REQUIRED_NETWORK_FIELDS))
def test_a_document_of_only_required_fields_parses_to_the_defaults(model):
    network = {key: value for key, value in _NETWORKS[model].items()
               if key in ("model", *_REQUIRED_NETWORK_FIELDS[model])}
    if model == "eventually_synchronous":
        network["gst"] = 0  # one of gst and gst_height is required
    doc = {
        "schema_version": 1,
        "max_height": 6,
        "population": {"size": 5},
        "genesis": {"committee_size": 3, "selection": "round_robin", "reward": "reward_all_committee"},
        "network": network,
    }
    sc = parse_scenario(doc)
    assert sc.engine == EngineConfig() == (5, 5, 100)
    assert sc.genesis.timeout_policy is TimeoutPolicy.FIXED
    assert sc.genesis.reward_per_member == 1
    assert sc.genesis.initial_stakes == {pid: 100 for pid in range(5)}
    assert [(s.initial_stake, s.merit) for s in sc.specs] == [(100, Fraction(1, 5))] * 5
    assert (sc.name, sc.seed, sc.replications, sc.window) == ("scenario", 0, 1, 3)
    if model == "asynchronous":
        assert sc.model == Asynchronous() == ((0, 3), 8, 50, 2)
    elif model == "synchronous":
        assert sc.model == Synchronous() == (0,)
    elif model == "good_bad":
        assert isinstance(sc.model, GoodBad) and dict(sc.model.laggards) == {}
    else:
        assert (sc.model.gst, sc.model.gst_height) == (0, None)


@pytest.mark.usefixtures("time_limit")
def test_cli_byzantine_committee_in_the_engine_is_one_json_line_with_and_without_the_pool(tmp_path, capsys):
    # round robin puts processes 0-3 on the committee of height 3, where 0 and
    # 1 are silent; a committee smaller than the population is checked by the
    # engine, so with --jobs 2 the error is raised by the caller and by a child
    doc = {
        "schema_version": 1,
        "name": "refused-at-height-3",
        "population": {"size": 8, "behaviors": [{"process": p, "kind": "silent", "heights": [3]} for p in (0, 1)]},
        "genesis": {"committee_size": 4, "selection": "round_robin", "reward": "reward_all_committee"},
        "network": {"model": "synchronous"},
        "max_height": 10,
    }
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    expected = {
        "field": "population.behaviors",
        "message": "height 3: 2 Byzantine members in a committee of 4; at most 1 tolerated",
    }
    for jobs in ("1", "2"):
        args = ["run", "--scenario", str(path), "--reps", "2", "--jobs", jobs, "--out", str(tmp_path / jobs)]
        assert cli_main(args) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [json.dumps({"error": expected})], jobs


@pytest.mark.parametrize(
    "edit, field, message",
    [
        (_engine(bogus=5), "engine.bogus", "unknown field; engine takes only delta0, delta_increment, round_ticks"),
        (_analyzer(window=5), "analyzer.window", "unknown field; analyzer takes only stabilization_window"),
        (_network("synchronous", dealy=3), "network.dealy", "unknown field; network takes only model, delay"),
        (lambda doc: doc.update(max_heigth=5), "max_heigth",
         "unknown field; a scenario takes only schema_version, name, max_height, population, genesis, network,"
         " engine, analyzer, seed, replications"),
    ],
)
def test_an_unknown_key_is_named_with_the_keys_its_object_takes(edit, field, message):
    doc = _doc()
    edit(doc)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert (exc.value.path, exc.value.message) == (field, message)


def test_cli_selection_figure_refuses_a_seed(tmp_path, capsys):
    for name in ("selection-highest", "selection-lowest"):
        assert cli_main(["figure", name, "--seed", "5", "--out", str(tmp_path / name)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["field"] == "--seed"
        assert not (tmp_path / name).exists()


def test_cli_unknown_figure(tmp_path, capsys):
    rc = cli_main(["figure", "no-such-figure", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "no-such-figure" in err["error"]["message"]


def test_cli_unknown_builtin(tmp_path, capsys):
    rc = cli_main(["run", "--builtin", "nope", "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["field"] == "--builtin"
    assert error["message"].startswith("unknown builtin scenario 'nope'")


def test_builtin_scenarios_all_parse():
    from fairsim.scenarios import BUILTIN

    for name in BUILTIN:
        parse_scenario(builtin_scenario(name))


def test_sync_all_correct_always_rewarded(tmp_path):
    doc = _doc(max_height=50)
    doc["population"]["behaviors"] = []
    res = run_scenario(parse_scenario(doc))
    for h, (mean, std_all, std_rep) in res.aggregate.items():
        assert mean == 1.0 and std_all == 0.0 and std_rep == 0.0, h


def test_cli_figure_selection_lowest(tmp_path, capsys):
    assert cli_main(["figure", "selection-lowest", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "selection.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 170
    assert all(abs(int(r["count"]) - 2941) <= 50 for r in rows)


def test_cli_figure_ev_sync_rewards(tmp_path, capsys):
    assert cli_main(["figure", "ev-sync-rewards", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "figure.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert list(rows[0]) == ["height", "mean", "mean_minus_std", "mean_plus_std"]
    last = rows[-1]
    assert float(last["mean"]) == 1.0
    assert float(last["mean_minus_std"]) == 1.0
    # check re-derives all 50 replications and ignores figure.csv
    assert cli_main(["check", "--out", str(tmp_path)]) == 0
