"""The benchmark's tracer patches fairsim functions by name; each must exist.

``tracing.installed`` raises AttributeError for any patched name that is
gone, so a rename in the program fails here instead of only in the
benchmark's own smoke test (benchmarks/test_smoke.py, which takes longer).
"""
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_patches_every_name_and_restores_them():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCHMARKS))
    from fairsim import consensus

    run = consensus.SimulationEngine.run
    with tracing.installed(tracing.Tracer()):
        assert consensus.SimulationEngine.run is not run
    assert consensus.SimulationEngine.run is run
