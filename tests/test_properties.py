"""Engine invariants over small random scenarios.

Every network model, reward mechanism and selection mechanism is drawn,
with Byzantine schedules kept within the bound of any committee: at most
floor((n-1)/3) processes ever misbehave, so no committee can exceed it.
"""
import os
import tempfile

from hypothesis import given, settings, strategies as st

from fairsim.consensus import SimulationEngine, max_byzantine
from fairsim.core import RewardMechanismId, SelectionMechanismId, TimeoutPolicy, chain_validate
from fairsim.check import regrade_output_dir
from fairsim.harness import parse_scenario, run_scenario


@st.composite
def scenarios(draw, laggard=False):
    """A small scenario; with ``laggard``, under the good/bad model with one
    process lagging up to 150 ticks, so that some messages arrive after their
    recipient has dropped their height."""
    size = draw(st.integers(1, 7))
    selection = draw(st.sampled_from([m.value for m in SelectionMechanismId]))
    n = size if selection == "select_all" else draw(st.integers(1, size))
    faulty = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=max_byzantine(n)))
    behaviors = [
        {
            "process": pid,
            "kind": draw(st.sampled_from(["silent", "equivocate", "decision_only"])),
            "heights": draw(st.sampled_from(["all", "even", "odd", {"mod": 3, "rem": 1}, [2, 5]])),
        }
        for pid in faulty
    ]
    lo = draw(st.integers(0, 5))
    hi = lo + draw(st.integers(0, 20))
    models = [
        {"model": "synchronous", "delay": lo},
        {
            "model": "good_bad",
            "good_len": 60,
            "bad_len": 30,
            "good_delay_bound": lo,
            "bad_delay_range": [lo, hi],
        },
        {
            "model": "eventually_synchronous",
            "gst_height": 3,
            "post_gst_bound": lo,
            "pre_gst_delay_range": [lo, hi],
        },
        {
            "model": "asynchronous",
            "base_delay_range": [lo, hi],
            "burst_every_heights": 4,
            "burst_initial": 30,
            "burst_growth": 2,
        },
    ]
    if laggard:
        lag = {str(draw(st.integers(0, size - 1))): draw(st.integers(0, 150))}
        network = dict(models[1], laggards=lag)
    else:
        network = draw(st.sampled_from(models))
    return {
        "schema_version": 1,
        "name": "property",
        "population": {"size": size, "behaviors": behaviors},
        "genesis": {
            "committee_size": n,
            "selection": selection,
            "reward": draw(st.sampled_from([m.value for m in RewardMechanismId])),
            "timeout_policy": draw(st.sampled_from([p.value for p in TimeoutPolicy])),
        },
        "network": network,
        "max_height": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 2**16)),
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 200},
    }


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_engine_invariants(doc):
    # AgreementViolation and a second write of a reward row both raise here
    with tempfile.TemporaryDirectory() as out:
        result = run_scenario(parse_scenario(doc), out_dir=out)
        chain = result.replications[0].result.chain
        assert chain_validate(chain)
        assert len(chain) == doc["max_height"] + 1
        for block in chain.blocks[1:]:
            committee = chain.block_at(block.rewards_for).committee
            assert set(block.reward_vector) <= set(committee), block.height
        # check re-derives every file the run wrote, byte for byte
        files = regrade_output_dir(out)["files"]
        assert sorted(files) == sorted(os.listdir(out))
        assert set(files.values()) == {"matches"}


@settings(max_examples=30, deadline=None)
@given(st.one_of(scenarios(), scenarios(laggard=True)))
def test_no_state_kept_for_dropped_heights(doc):
    sc = parse_scenario(doc)
    engine = SimulationEngine(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
    engine.run()
    for pid, proc in engine.procs.items():
        kept = set(proc.slots) | set(proc.suspicion.accusers)
        assert min(kept, default=proc.height) >= proc.height - 1, (pid, proc.height, sorted(kept))
