"""Shared domain vocabulary: processes, blocks, chains, mechanism identifiers.

Stakes and rewards are integer units so selection tie-breaking is exact;
merit is a Fraction. Hashes are simulated by an injective encoding, not
cryptography: nothing downstream depends on hash security.
"""
from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional

ProcessId = int

#: parent link of the block at height 1 (the genesis placeholder hash).
GENESIS_HASH = 0


class ScenarioError(ValueError):
    """A run refused, with the field path at fault; the CLI reports it as one
    JSON line and exit code 2."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so one raised in a pool worker unpickles
        return type(self), (self.path, self.message)

    def to_json(self) -> dict:
        return {"error": {"field": self.path, "message": self.message}}


class BehaviorKind(Enum):
    """What a process does during one height."""

    CORRECT = "correct"
    # sends nothing at all for the height
    BYZANTINE_SILENT = "silent"
    # sends conflicting vote payloads to different peers
    BYZANTINE_EQUIVOCATE = "equivocate"
    # skips the protocol but sends a plausible final decision message
    BYZANTINE_DECISION_ONLY = "decision_only"


# bound once: behavior_at is on the engine's hot path, and reading a member off
# its Enum class costs several times a module global
_CORRECT = BehaviorKind.CORRECT
EMPTY_MAPPING: Mapping = MappingProxyType({})  # a mapping field's default, shared by every instance


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


class ProcessSpec(NamedTuple):
    """Identity, merit, initial stake and per-height behavior of one process."""

    id: ProcessId
    merit: Fraction
    initial_stake: int
    behavior: Mapping[int, BehaviorKind] = EMPTY_MAPPING

    def behavior_at(self, height: int) -> BehaviorKind:
        return self.behavior.get(height, _CORRECT)


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


# -- line-oriented JSON trace (one block per line, genesis first) ------------

def genesis_to_json(g: GenesisConfig) -> dict:
    return {
        "n": g.n,
        "population": g.population,
        "selection": g.selection.value,
        "reward": g.reward.value,
        "timeout_policy": g.timeout_policy.value,
        "initial_stakes": {str(k): v for k, v in sorted(g.initial_stakes.items())},
        "reward_per_member": g.reward_per_member,
    }


def chain_to_jsonl(bc: Blockchain) -> str:
    """The chain as JSON lines: ``json.dumps(..., sort_keys=True)`` of the
    genesis, then of each block, written here from one template per block.

    Block keys are in sorted order, and so are the ``reward_vector`` keys,
    as strings: ``"10"`` comes before ``"2"``. Committees and reward vectors
    repeat across heights, so each distinct one is written once.
    """
    lines = [json.dumps({"genesis": genesis_to_json(bc.genesis)}, sort_keys=True)]
    committees: Dict[tuple, str] = {}
    vectors: Dict[tuple, str] = {}
    for b in bc.blocks:
        key = tuple(b.committee)
        committee = committees.get(key)
        if committee is None:
            committee = committees[key] = ", ".join(map(str, key))
        key = tuple(b.reward_vector.items())
        rewards = vectors.get(key)
        if rewards is None:
            rewards = vectors[key] = ", ".join(f'"{k}": {v}' for k, v in sorted((str(k), v) for k, v in key))
        lines.append(
            f'{{"committee": [{committee}], "height": {b.height}, "parent_link": {b.parent_link},'
            f' "payload_id": {b.payload_id}, "reward_vector": {{{rewards}}}, "rewards_for": {b.height - 1}}}'
        )
    lines.append("")
    return "\n".join(lines)


def uniform_merits(population: int) -> Dict[ProcessId, Fraction]:
    share = Fraction(1, population)
    return {pid: share for pid in range(population)}
