"""Reward mechanisms: the allocation rule of each mechanism, suspicion-quorum
detection, and the write-once reward matrix a chain implies.

Rewards for height h are carried by the block at height h+1 and never
change afterwards. A committee member of h is confirmed misbehaving once
2*floor(n/3)+1 distinct processes accuse it for that height, which keeps at
least one honest accuser behind every confirmation while Byzantines stay
within floor((n-1)/3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .core import Blockchain, ProcessId, RewardMechanismId


def suspicion_quorum(n: int) -> int:
    return 2 * (n // 3) + 1


class RewardsNotYetAllocated(KeyError):
    pass


class RewardMatrix:
    """Boolean reward parameters r[h][i] plus the allocated amounts.

    A height's row is written exactly once, when the allocating block is
    appended, and is immutable afterwards.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[ProcessId, int]] = {}

    def set_row(self, height: int, committee: Sequence[ProcessId], amounts: Dict[ProcessId, int]) -> None:
        if height in self._rows:
            raise ValueError(f"rewards for height {height} already allocated")
        bad = set(amounts) - set(committee)
        if bad:
            raise ValueError(f"rewarded non-members at height {height}: {sorted(bad)}")
        self._rows[height] = dict(amounts)

    def heights(self) -> List[int]:
        return sorted(self._rows)

    def row(self, height: int) -> Dict[ProcessId, int]:
        """The amounts allocated for ``height``, by process; a member left
        out got nothing. Read it, do not change it."""
        try:
            return self._rows[height]
        except KeyError:
            raise RewardsNotYetAllocated(height) from None

    def amount(self, height: int, pid: ProcessId) -> int:
        return self.row(height).get(pid, 0)

    def r(self, height: int, pid: ProcessId) -> int:
        return 1 if self.amount(height, pid) > 0 else 0

    def rewarded(self, height: int) -> Set[ProcessId]:
        return {pid for pid, amt in self.row(height).items() if amt > 0}


def matrix_from_chain(chain: Blockchain) -> Tuple[RewardMatrix, Dict[int, List[ProcessId]]]:
    """Reward matrix and committee map implied by a chain: the block at h+1
    writes row h for the committee of h."""
    matrix = RewardMatrix()
    committees = {b.height: b.committee for b in chain.blocks}
    for block in chain.blocks:
        if block.height >= 2:
            matrix.set_row(block.height - 1, committees[block.height - 1], block.reward_vector)
    return matrix, committees


@dataclass
class SuspicionState:
    """Accusations delivered to one process: height -> suspect -> accusers."""

    n: int
    accusers: Dict[int, Dict[ProcessId, Set[ProcessId]]] = field(default_factory=dict)

    def accuse(self, height: int, suspect: ProcessId, accuser: ProcessId) -> None:
        self.accusers.setdefault(height, {}).setdefault(suspect, set()).add(accuser)

    def confirmed(self, height: int) -> Set[ProcessId]:
        quorum = suspicion_quorum(self.n)
        return {suspect for suspect, accs in self.accusers.get(height, {}).items() if len(accs) >= quorum}


def allocate(
    mech: RewardMechanismId,
    committee: Sequence[ProcessId],
    to_reward: Set[ProcessId],
    incorrect: Set[ProcessId],
    reward_per_member: int,
) -> Dict[ProcessId, int]:
    """Reward vector, carried by the next block, for a height with ``committee``.

    ``to_reward`` is the set of members whose decisions the proposer
    collected within its window; ``incorrect`` the confirmed suspects.
    """
    members = set(committee)
    if mech is RewardMechanismId.REWARD_ALL_COMMITTEE:
        rewarded = members
    elif mech is RewardMechanismId.NEVER_REWARD:
        rewarded = set()
    elif mech is RewardMechanismId.TENDERMINT_TO_REWARD:
        rewarded = to_reward & members
    elif mech is RewardMechanismId.SUSPICION_QUORUM:
        rewarded = (to_reward & members) - incorrect
    else:
        raise ValueError(f"unknown reward mechanism: {mech}")
    return {pid: reward_per_member for pid in sorted(rewarded)}
