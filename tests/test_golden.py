"""Golden output digests: the sha256 of every file a run writes.

Covers the built-in scenarios, the three figures, the static mechanism
matrix (every reward mechanism under every network model and behaviour
mix) and one wide committee. A refactor that shifts the RNG stream, the
event order or an output format changes a digest here. Regenerate with

    PYTHONPATH=src python tests/test_golden.py --write

only when an output is meant to change, and say why in CHANGES.md.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from fairsim.cli import main as cli_main
from fairsim.core import RewardMechanismId
from fairsim.harness import parse_scenario, run_scenario
from fairsim.scenarios import BUILTIN, builtin_scenario, evsync_rewards_figure, static_matrix

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
FIGURES = ("selection-highest", "selection-lowest", "ev-sync-rewards")


def _wide_committee() -> dict:
    """N=40, n=13, eventually synchronous: hundreds of deliveries land on
    each of a few ticks per height, so this run pins the order of events
    that share a tick at scale (every other run has N=n=4)."""
    return {
        "schema_version": 1,
        "name": "wide-committee",
        "population": {
            "size": 40,
            "behaviors": [
                {"process": 7, "kind": "equivocate", "heights": "odd"},
                {"process": 23, "kind": "silent", "heights": {"mod": 3, "rem": 0}},
            ],
        },
        "genesis": {
            "committee_size": 13,
            "selection": "fewest_selections",
            "reward": "suspicion_quorum",
            "timeout_policy": "modulable",
        },
        "network": {
            "model": "eventually_synchronous",
            "gst_height": 6,
            "post_gst_bound": 15,
            "pre_gst_delay_range": [10, 60],
        },
        "max_height": 12,
        "seed": 5,
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 400},
    }


def _equivocating_proposer(selection: str, pid: int, heights, stakes) -> dict:
    """N=12, n=7, committees ranked by stake. Process ``pid`` is the lowest
    id on each of its committees, so it leads round 0 and equivocates its
    proposal at ``heights``. Every block credits stake, and
    suspicion_quorum withholds the confirmed equivocator's share."""
    return {
        "schema_version": 1,
        "name": f"{selection.replace('_', '-')}-equivocating-proposer",
        "population": {
            "size": 12,
            "stakes": stakes,
            "behaviors": [{"process": pid, "kind": "equivocate", "heights": heights}],
        },
        "genesis": {
            "committee_size": 7,
            "selection": selection,
            "reward": "suspicion_quorum",
            "timeout_policy": "modulable",
        },
        "network": {"model": "synchronous", "delay": 2},
        "max_height": 16,
        "seed": 3,
        "replications": 1,
    }


def _runs() -> dict:
    """Run name -> CLI arguments (without --out), or a scenario document."""
    runs = {f"builtin/{name}": ["run", "--builtin", name] for name in BUILTIN}
    runs.update({f"figure/{name}": ["figure", name] for name in FIGURES})
    for mech in RewardMechanismId:
        for doc in static_matrix(mech.value):
            runs[f"static/{doc['name']}"] = doc
    runs["wide/wide-committee"] = _wide_committee()
    # the only runs whose committees follow stake, and whose proposer equivocates
    runs["stake/lowest-stake-equivocating-proposer"] = _equivocating_proposer("lowest_stake", 0, "all", 100)
    runs["stake/highest-stake-equivocating-proposer"] = _equivocating_proposer(
        "highest_stake", 5, "odd", {str(pid): 100 for pid in range(5, 12)}
    )
    return runs


RUNS = _runs()


def digests(name: str, work: Path) -> dict:
    """Run ``name`` into a fresh directory under ``work``; file -> sha256."""
    spec = RUNS[name]
    out = work / name.replace("/", "__")
    if isinstance(spec, dict):
        path = work / (out.name + ".json")
        path.write_text(json.dumps(spec))
        spec = ["run", "--scenario", str(path)]
    assert cli_main(spec + ["--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path, capsys):
    got = digests(name, tmp_path)
    capsys.readouterr()  # keep the CLI's progress lines out of the -rP report
    assert got == json.loads(GOLDEN.read_text())[name]


def _engine_documents():
    """(name, scenario document) of every run in RUNS that runs the engine."""
    for name, spec in sorted(RUNS.items()):
        if isinstance(spec, dict):
            yield name, spec
        elif spec[0] == "run":
            yield name, builtin_scenario(spec[2])
        elif spec[1] == "ev-sync-rewards":
            yield name, evsync_rewards_figure()


def test_row_numbering_finds_every_shared_row():
    """RewardMatrix numbers a row by looking two heights back for its very
    committee and vector; on every engine run here that finds each pair of
    objects that recurs, so work done once per number is done once per
    distinct row. This fails if the engine's sharing drifts from the lookback."""
    names = set()
    for name, doc in _engine_documents():
        for rr in run_scenario(parse_scenario(doc)).replications:
            m = rr.result.matrix
            distinct = {(id(m.committee(h)), id(m.row(h))) for h in m.heights()}
            assert len(m.pairs()) == len(distinct), (name, rr.index)
        names.add(name)
    assert len(names) == len(RUNS) - 2  # all but the two selection-only figures


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as work:
        pinned = {name: digests(name, Path(work)) for name in sorted(RUNS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} runs to {GOLDEN}")
