"""The benchmark's tracer patches fairsim functions by name; each must exist.

``tracing.installed`` raises AttributeError for any patched name that is
gone, so a rename in the program fails here instead of only in the
benchmark's own smoke test (benchmarks/test_smoke.py, which takes longer).
The tracer also counts events and messages where the engine pops them, so
the engine must take every event through ``EventQueue.pop``.
"""
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCHMARKS))
    return tracing


def test_tracer_patches_every_name_and_restores_them():
    tracing = _tracing()
    from fairsim import consensus

    run = consensus.SimulationEngine.run
    with tracing.installed(tracing.Tracer()):
        assert consensus.SimulationEngine.run is not run
    assert consensus.SimulationEngine.run is run


def test_tracer_counts_every_event_the_engine_handles():
    from fairsim.consensus import SimulationEngine
    from fairsim.harness import parse_scenario
    from fairsim.scenarios import builtin_scenario

    tracing = _tracing()
    sc = parse_scenario(dict(builtin_scenario("sync-suspicion-equivocator"), max_height=20))
    with tracing.installed(tracing.Tracer()) as tracer:
        SimulationEngine(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine, record_trace=True).run()
    m = tracing.layer_metrics(tracer)
    events = sum(m[f"consensus.events.{kind}"] for kind in ("msg", "start", "round", "collect"))
    assert m["network.queue_pops"] == events
    msgs = sum(m[f"consensus.msgs.{kind}"] for kind in ("propose", "vote", "decision", "suspicion"))
    assert m["consensus.events.msg"] == msgs > 0
    # the equivocator's suspicions reach the tracer's wrapper of SuspicionState.accuse
    assert m["consensus.msgs.suspicion"] > 0 and m["reward.accuse_calls"] > 0
