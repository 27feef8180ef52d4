"""Reward mechanisms: the allocation rule of each mechanism, suspicion-quorum
detection, and the write-once reward matrix a chain implies.

Rewards for height h are carried by the block at height h+1 and never
change afterwards. A committee member of h is confirmed misbehaving once
2*floor(n/3)+1 distinct processes accuse it for that height, which keeps at
least one honest accuser behind every confirmation while Byzantines stay
within floor((n-1)/3).
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .core import ProcessId, RewardMechanismId


def suspicion_quorum(n: int) -> int:
    return 2 * (n // 3) + 1


class RewardsNotYetAllocated(KeyError):
    pass


class RewardMatrix:
    """Boolean reward parameters r[h][i] plus the allocated amounts.

    A height's row is written exactly once and is (the committee, the vector):
    block h's committee and block h+1's reward vector, the chain's own objects.
    A block reuses an equal committee or vector of the two blocks before it,
    so several rows can share one object: read them, never change them.

    A height holds the number of its row's pair of objects, and ``pairs``
    lists the distinct pairs by number. ``set_row`` reuses the number of
    height h-1 or h-2 when the pair is those very objects, which finds every
    recurring pair on each built-in scenario and benchmark workload; so work
    done once per number is done once per distinct row. The numbers, unlike
    object ids, survive pickling.
    """

    def __init__(self) -> None:
        self._numbers: Dict[int, int] = {}  # height -> the number of its row's pair
        self._pairs: List[Tuple[Sequence[ProcessId], Dict[ProcessId, int]]] = []

    def set_row(self, height: int, committee: Sequence[ProcessId], amounts: Dict[ProcessId, int]) -> None:
        numbers, pairs = self._numbers, self._pairs
        if height in numbers:
            raise ValueError(f"rewards for height {height} already allocated")
        for earlier in (height - 1, height - 2):
            number = numbers.get(earlier)
            if number is not None and pairs[number][0] is committee and pairs[number][1] is amounts:
                break
        else:
            # a pair already stored was checked when it was
            bad = set(amounts) - set(committee)
            if bad:
                raise ValueError(f"rewarded non-members at height {height}: {sorted(bad)}")
            number = len(pairs)
            pairs.append((committee, amounts))
        numbers[height] = number

    def heights(self) -> List[int]:
        return sorted(self._numbers)

    def numbers(self) -> List[Tuple[int, int]]:
        """(height, the number of its row's pair) for each allocated height, in height order."""
        return sorted(self._numbers.items())

    def pairs(self) -> List[Tuple[Sequence[ProcessId], Dict[ProcessId, int]]]:
        """The distinct (committee, vector) pairs, indexed by number. Read them, do not change them."""
        return self._pairs

    def row(self, height: int) -> Dict[ProcessId, int]:
        """The amounts allocated for ``height``, by process; a member left
        out got nothing. Read it, do not change it."""
        try:
            return self._pairs[self._numbers[height]][1]
        except KeyError:
            raise RewardsNotYetAllocated(height) from None

    def committee(self, height: int) -> Sequence[ProcessId]:
        """The committee of an allocated ``height``, in its block's order. Read it, do not change it."""
        return self._pairs[self._numbers[height]][0]

    def amount(self, height: int, pid: ProcessId) -> int:
        return self.row(height).get(pid, 0)

    def r(self, height: int, pid: ProcessId) -> int:
        return 1 if self.amount(height, pid) > 0 else 0

    def rewarded(self, height: int) -> Set[ProcessId]:
        return {pid for pid, amt in self.row(height).items() if amt > 0}


class SuspicionState:
    """Accusations delivered to one process for one height: suspect -> accusers."""

    __slots__ = ("n", "accusers")

    def __init__(self, n: int) -> None:
        self.n, self.accusers = n, {}

    def accuse(self, suspect: ProcessId, accuser: ProcessId) -> None:
        self.accusers.setdefault(suspect, set()).add(accuser)

    def confirmed(self) -> Set[ProcessId]:
        quorum = suspicion_quorum(self.n)
        return {suspect for suspect, accs in self.accusers.items() if len(accs) >= quorum}


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
