"""Shared domain vocabulary: processes, blocks, chains, mechanism identifiers.

Stakes and rewards are integer units so selection tie-breaking is exact;
merit is a Fraction. Hashes are simulated by an injective encoding, not
cryptography: nothing downstream depends on hash security. No output
format lives here: ``harness`` writes the chain as chain-<rep>.jsonl.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

ProcessId = int

#: parent link of the block at height 1 (the genesis placeholder hash).
GENESIS_HASH = 0


class ScenarioError(ValueError):
    """A run refused, with the field path at fault (None when no one field
    is); the CLI reports it as one JSON line and exit code 2."""

    def __init__(self, path: Optional[str], message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so one raised in a child process unpickles
        return type(self), (self.path, self.message)


class BehaviorKind(Enum):
    """What a process does during one height. Every kind decides; only a
    committee member proposes, votes or sends its decision."""

    # proposes and votes the valid payload, sends its decision, and accuses
    # a sender of a bogus payload (and, under synchrony, a silent member)
    CORRECT = "correct"
    # proposes, votes and sends nothing, and accuses no one
    BYZANTINE_SILENT = "silent"
    # proposes and votes one bogus payload to the lower half of the other
    # members and another to the upper half, sends its decision, accuses no one
    BYZANTINE_EQUIVOCATE = "equivocate"
    # proposes and votes nothing, sends its decision, and accuses no one
    BYZANTINE_DECISION_ONLY = "decision_only"


EMPTY_MAPPING: Mapping = MappingProxyType({})  # a mapping field's default, shared by every instance
DEFAULT_STAKE = 100  # the initial stake of every process when a scenario gives none


class SelectionMechanismId(Enum):
    HIGHEST_STAKE = "highest_stake"
    LOWEST_STAKE = "lowest_stake"
    FEWEST_SELECTIONS = "fewest_selections"
    SELECT_ALL = "select_all"
    ROUND_ROBIN = "round_robin"


class RewardMechanismId(Enum):
    REWARD_ALL_COMMITTEE = "reward_all_committee"
    NEVER_REWARD = "never_reward"
    SUSPICION_QUORUM = "suspicion_quorum"
    TENDERMINT_TO_REWARD = "tendermint_to_reward"


class TimeoutPolicy(Enum):
    FIXED = "fixed"
    MODULABLE = "modulable"


class BehaviorRules:
    """A behaviour schedule as its scenario states it: (kind, heights) rules,
    ``heights`` a range or a frozenset; the last rule that holds a height wins."""

    __slots__ = ("rules",)

    def __init__(self, rules: Sequence[Tuple[BehaviorKind, range | FrozenSet[int]]]) -> None:
        self.rules = tuple(rules)

    def get(self, height: int, default: Optional[BehaviorKind] = None) -> Optional[BehaviorKind]:
        for kind, heights in reversed(self.rules):
            if height in heights:
                return kind
        return default


class ProcessSpec(NamedTuple):
    """Identity, merit, initial stake and per-height behavior of one process."""

    id: ProcessId
    merit: Fraction
    initial_stake: int
    behavior: BehaviorRules | Mapping[int, BehaviorKind] = EMPTY_MAPPING


class GenesisConfig(NamedTuple):
    """Public run configuration every process knows up front."""

    n: int
    population: int
    selection: SelectionMechanismId
    reward: RewardMechanismId
    timeout_policy: TimeoutPolicy = TimeoutPolicy.FIXED
    initial_stakes: Mapping[ProcessId, int] = EMPTY_MAPPING
    reward_per_member: int = 1


class Block(NamedTuple):
    """One chain entry: the committee of ``height`` and, as in the full
    protocol, the reward vector for height ``height - 1``."""

    height: int
    committee: List[ProcessId]
    reward_vector: Dict[ProcessId, int]
    payload_id: int
    parent_link: int


class Blockchain:
    __slots__ = ("genesis", "blocks")

    def __init__(self, genesis: GenesisConfig, blocks: Optional[List[Block]] = None) -> None:
        self.genesis, self.blocks = genesis, [] if blocks is None else blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def block_at(self, height: int) -> Block:
        return self.blocks[height - 1]

    def append(self, block: Block) -> None:
        expected = len(self.blocks) + 1
        if block.height != expected:
            raise ValueError(f"expected block at height {expected}, got {block.height}")
        self.blocks.append(block)


# payloads below 2**40 keep the hash encoding injective
_PAYLOAD_BITS = 40


def payload_for_height(height: int, parent_link: int) -> int:
    """Deterministic valid payload for a height; the validity predicate
    accepts exactly this value."""
    return (height * 1000003 + parent_link * 31 + 7) % (1 << _PAYLOAD_BITS)


def simulated_hash(block: Block) -> int:
    """Injective stand-in for a block hash: encodes (payload, height)."""
    return (block.payload_id << 24) + block.height


def uniform_merits(population: int) -> Dict[ProcessId, Fraction]:
    share = Fraction(1, population)
    return {pid: share for pid in range(population)}
