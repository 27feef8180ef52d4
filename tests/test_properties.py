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
from fairsim.harness import regrade_output_dir
from fairsim.harness import parse_scenario, run_scenario
from oracles import chain_validate


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
        # each process collects decisions from members of the height alone
        for pid, collected in result.replications[0].result.to_reward.items():
            for h, senders in collected.items():
                assert senders <= set(chain.block_at(h).committee), (pid, h)
        # check re-runs the echoed scenario and matches every file the run
        # wrote, the trace included, byte for byte
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


class _DeliverySpy(SimulationEngine):
    """Records (deliver_at, sender, recipient, kind, height) of each delivery,
    and the tick and chain length after each handler that can append a block."""

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
