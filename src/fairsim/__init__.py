"""Deterministic simulator for committee-based repeated consensus with
selection and reward mechanisms, plus a ground-truth fairness analyzer."""

from .core import (
    BehaviorKind,
    Block,
    Blockchain,
    GenesisConfig,
    ProcessSpec,
    RewardMechanismId,
    SelectionMechanismId,
    TimeoutPolicy,
)
from .consensus import EngineConfig, QuorumImpossible, RunResult, SimulationEngine
from .fairness import Classification, FairnessReport, GroundTruth, build_report, classify, grade_height
from .harness import Scenario, ScenarioError, parse_scenario, run_scenario
from .network import Asynchronous, EventuallySynchronous, GoodBad, Synchronous
from .reward import RewardMatrix, SuspicionState, allocate, suspicion_quorum
from .selection import SelectionState, check_selection_fairness, run_selection_experiment

__version__ = "0.1.0"
