"""Engine invariants over small random scenarios.

Every network model, reward mechanism and selection mechanism is drawn,
with Byzantine schedules kept within the bound of any committee: at most
floor((n-1)/3) processes ever misbehave, so no committee can exceed it.
"""
import os
import tempfile
from operator import itemgetter

from hypothesis import example, given, settings, strategies as st

from fairsim.consensus import SimulationEngine, max_byzantine
from fairsim.core import RewardMechanismId, SelectionMechanismId, TimeoutPolicy
from fairsim.fairness import _GRADES
from fairsim.harness import regrade_output_dir
from fairsim.harness import parse_scenario, run_scenario
from oracles import CollectSpy, PerDeliveryEngine, chain_validate


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
    max_height = draw(st.integers(1, 8))
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
            # a swap at tick 0, mid-run, on the run's last block, or never
            "gst_height": draw(st.sampled_from([0, 1, 3, max_height + 1, max_height + 2, max_height + 5])),
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
        "max_height": max_height,
        "seed": draw(st.integers(0, 2**16)),
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 200},
    }


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_engine_invariants(doc):
    # AgreementViolation and a second write of a reward row both raise here
    with tempfile.TemporaryDirectory() as out:
        result = run_scenario(parse_scenario(doc), out_dir=out, record_trace=True)
        chain = result.replications[0].result.chain
        assert chain_validate(chain)
        assert len(chain) == doc["max_height"] + 1
        for block in chain.blocks[1:]:
            committee = chain.block_at(block.height - 1).committee
            assert set(block.reward_vector) <= set(committee), block.height
        # the matrix grades the chain's own committees and vectors, no copies
        matrix = result.replications[0].result.matrix
        assert matrix.heights() == list(range(1, len(chain)))
        for h in matrix.heights():
            assert matrix.committee(h) is chain.block_at(h).committee, h
            assert matrix.row(h) is chain.block_at(h + 1).reward_vector, h
        # a committee or vector equal to one of the two blocks before it is that block's object
        for i, block in enumerate(chain.blocks):
            for prev in chain.blocks[max(i - 2, 0):i]:
                if block.committee == prev.committee:
                    assert block.committee is prev.committee, block.height
                if block.reward_vector == prev.reward_vector:
                    assert block.reward_vector is prev.reward_vector, block.height
        # every grade is one of the eight shared tuples
        for h, grade in result.replications[0].report.grades.items():
            assert grade is _GRADES[grade], h
        # check re-runs the echoed scenario and matches every file the run
        # wrote, the trace included, byte for byte
        files = regrade_output_dir(out)["files"]
        assert sorted(files) == sorted(os.listdir(out))
        assert set(files.values()) == {"matches"}
    # the same run again, recording what each process collects at every height
    sc = parse_scenario(doc)
    spy = CollectSpy(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
    assert spy.run().chain.blocks == chain.blocks
    for pid, collected in spy.collected.items():
        # a process collects each height, in order, before it starts the next
        assert list(collected) == list(range(1, len(collected) + 1)), pid
        assert len(collected) >= spy.procs[pid].height - 1, pid
        # and collects decisions from members of the height alone
        for h, senders in collected.items():
            assert senders <= set(chain.block_at(h).committee), (pid, h)


@settings(max_examples=30, deadline=None)
@given(st.one_of(scenarios(), scenarios(laggard=True)))
def test_no_state_kept_for_dropped_heights(doc):
    sc = parse_scenario(doc)
    engine = SimulationEngine(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
    engine.run()
    for pid, proc in engine.procs.items():
        # a slot holds all the process keeps of its height
        assert min(proc.slots, default=proc.height) >= proc.height - 1, (pid, proc.height, sorted(proc.slots))


class _DeliverySpy(PerDeliveryEngine):
    """Records (deliver_at, sender, recipient, kind, height) of each delivery,
    and the tick and chain length after each handler that can append a block.
    The reference engine delivers each copy through ``_on_msg``, which the
    engine itself folds into its loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delivered, self.lengths = [], []

    def _on_msg(self, msg, pid, t):
        self.delivered.append((t, msg.sender, pid, msg.kind.value, msg.height))
        super()._on_msg(msg, pid, t)
        self.lengths.append((t, len(self.chain)))

    def _start_height(self, pid, h, t):
        super()._start_height(pid, h, t)
        self.lengths.append((t, len(self.chain)))


def _evsync(gst_height: int, max_height: int = 4) -> dict:
    """An eventually synchronous scenario whose GST is set by ``gst_height``."""
    return {
        "schema_version": 1,
        "name": "gst-swap",
        "population": {"size": 4, "behaviors": [{"process": 3, "kind": "silent", "heights": "even"}]},
        "genesis": {"committee_size": 4, "selection": "select_all", "reward": "tendermint_to_reward",
                    "timeout_policy": "modulable"},
        "network": {"model": "eventually_synchronous", "gst_height": gst_height, "post_gst_bound": 2,
                    "pre_gst_delay_range": [2, 12]},
        "max_height": max_height,
        "seed": 7,
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 200},
    }


@settings(max_examples=30, deadline=None)
@given(st.one_of(scenarios(), scenarios(laggard=True)))
# on every run: the swap at tick 0 (gst_height 0 and 1), on the decision of
# block max_height, and on that of the run's last block, max_height + 1
@example(_evsync(0))
@example(_evsync(1))
@example(_evsync(4 + 1))
@example(_evsync(4 + 2))
def test_deliveries_follow_the_trace_in_delivery_tick_order(doc):
    """Copies are delivered by tick and, within a tick, in the order they were
    sent: the trace (in send order) sorted stably by delivery tick, up to the
    delivery the run stopped after. The GST swap and the stop follow the
    exact handler call that brings the chain to their length."""
    sc = parse_scenario(doc)
    engine = _DeliverySpy(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine, record_trace=True)
    trace = engine.run().trace
    sent = sorted(((at, sender, rcpt, kind, h) for _, at, sender, rcpt, kind, h in trace), key=itemgetter(0))
    assert engine.delivered == sent[: len(engine.delivered)]
    stop = [i for i, (_, n) in enumerate(engine.lengths) if n >= sc.max_height + 1]
    assert stop == [len(engine.lengths) - 1]
    gst_height = getattr(sc.model, "gst_height", None)
    if gst_height is not None and gst_height <= 1:
        assert engine.model.gst == 0
    elif gst_height is not None and gst_height <= sc.max_height + 2:
        assert engine.model.gst == next(t for t, n in engine.lengths if n >= gst_height - 1)
    elif gst_height is not None:
        assert engine.model.gst is None


# six processes, all correct, delays of at most 5 ticks from tick 0 on:
# process 2 starts height 6, the run's last, holding a quorum of 4 votes and
# appends block 6 in its start event, so the run stops after that event
_LATE_STARTER_HOLDS_A_QUORUM = {
    "schema_version": 1,
    "name": "late-starter-holds-a-quorum",
    "population": {"size": 6, "behaviors": []},
    "genesis": {"committee_size": 6, "selection": "highest_stake", "reward": "reward_all_committee",
                "timeout_policy": "modulable"},
    "network": {"model": "eventually_synchronous", "gst_height": 0, "post_gst_bound": 5,
                "pre_gst_delay_range": [5, 5]},
    "max_height": 5,
    "seed": 1296,
    "replications": 1,
    "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 200},
}


@settings(max_examples=60, deadline=None)
@given(st.one_of(scenarios(), scenarios(laggard=True)))
@example(_evsync(0))
@example(_evsync(1))
@example(_evsync(4 + 1))
@example(_evsync(4 + 2))
@example(_LATE_STARTER_HOLDS_A_QUORUM)
def test_engine_matches_the_per_delivery_reference(doc):
    """The engine checks only what each delivery can complete and stops
    only after a call that can append a block; the reference runs every
    check after every copy. Both give the same run."""
    sc = parse_scenario(doc)
    args = (sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
    got = SimulationEngine(*args, record_trace=True).run()
    want = PerDeliveryEngine(*args, record_trace=True).run()
    assert got.chain.blocks == want.chain.blocks
    assert got.trace == want.trace
    assert got.decided_at == want.decided_at
    assert got.finished_at == want.finished_at
