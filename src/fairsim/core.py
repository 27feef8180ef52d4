"""Shared domain vocabulary: processes, blocks, chains, mechanism identifiers.

Stakes and rewards are integer units so selection tie-breaking is exact;
merit is a Fraction. Hashes are simulated by an injective encoding, not
cryptography: nothing downstream depends on hash security.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List

ProcessId = int

#: parent link of the block at height 1 (the genesis placeholder hash).
GENESIS_HASH = 0


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


@dataclass
class ProcessSpec:
    """Identity, merit, initial stake and per-height behavior of one process."""

    id: ProcessId
    merit: Fraction
    initial_stake: int
    behavior: Dict[int, BehaviorKind] = field(default_factory=dict)

    def behavior_at(self, height: int) -> BehaviorKind:
        return self.behavior.get(height, _CORRECT)


@dataclass
class GenesisConfig:
    """Public run configuration every process knows up front."""

    n: int
    population: int
    selection: SelectionMechanismId
    reward: RewardMechanismId
    timeout_policy: TimeoutPolicy = TimeoutPolicy.FIXED
    initial_stakes: Dict[ProcessId, int] = field(default_factory=dict)
    reward_per_member: int = 1


@dataclass
class Block:
    """One chain entry.

    ``reward_vector`` allocates the rewards for height ``rewards_for``;
    in the full protocol rewards for h live in the block at h+1, while the
    selection-analysis runner credits them in the same block (rewards_for
    == height), so the invariant is rewards_for <= height.
    """

    height: int
    committee: List[ProcessId]
    rewards_for: int
    reward_vector: Dict[ProcessId, int]
    payload_id: int
    parent_link: int


@dataclass
class Blockchain:
    genesis: GenesisConfig
    blocks: List[Block] = field(default_factory=list)

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


def chain_validate(bc: Blockchain) -> bool:
    """True iff heights are contiguous from 1 and every parent link matches."""
    prev_hash = GENESIS_HASH
    for i, block in enumerate(bc.blocks):
        if block.height != i + 1:
            return False
        if block.parent_link != prev_hash:
            return False
        prev_hash = simulated_hash(block)
    return True


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


def genesis_from_json(obj: dict) -> GenesisConfig:
    return GenesisConfig(
        n=obj["n"],
        population=obj["population"],
        selection=SelectionMechanismId(obj["selection"]),
        reward=RewardMechanismId(obj["reward"]),
        timeout_policy=TimeoutPolicy(obj["timeout_policy"]),
        initial_stakes={int(k): v for k, v in obj["initial_stakes"].items()},
        reward_per_member=obj["reward_per_member"],
    )


def block_from_json(obj: dict) -> Block:
    return Block(
        height=obj["height"],
        committee=list(obj["committee"]),
        rewards_for=obj["rewards_for"],
        reward_vector={int(k): v for k, v in obj["reward_vector"].items()},
        payload_id=obj["payload_id"],
        parent_link=obj["parent_link"],
    )


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
            f' "payload_id": {b.payload_id}, "reward_vector": {{{rewards}}}, "rewards_for": {b.rewards_for}}}'
        )
    lines.append("")
    return "\n".join(lines)


def chain_from_jsonl(text: str) -> Blockchain:
    """Read ``chain_to_jsonl``'s text back; blank lines are skipped.

    Raises ValueError naming the first line that is not the genesis or the
    next block.
    """
    bc = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if bc is None:
                bc = Blockchain(genesis=genesis_from_json(obj["genesis"]))
            else:
                bc.append(block_from_json(obj))
        except KeyError as exc:
            raise ValueError(f"line {number}: no {exc} field") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"line {number}: {exc}") from None
    if bc is None:
        raise ValueError("no genesis line")
    return bc


def uniform_merits(population: int) -> Dict[ProcessId, Fraction]:
    share = Fraction(1, population)
    return {pid: share for pid in range(population)}
