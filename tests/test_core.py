import json
import re

import pytest
from hypothesis import given, strategies as st

from fairsim.core import (
    GENESIS_HASH,
    Block,
    Blockchain,
    GenesisConfig,
    RewardMechanismId,
    SelectionMechanismId,
    chain_from_jsonl,
    chain_to_jsonl,
    payload_for_height,
    simulated_hash,
    uniform_merits,
)
from oracles import chain_validate


def _genesis(n=4, population=4):
    return GenesisConfig(
        n=n,
        population=population,
        selection=SelectionMechanismId.SELECT_ALL,
        reward=RewardMechanismId.REWARD_ALL_COMMITTEE,
        initial_stakes={pid: 100 for pid in range(population)},
    )


def _block(height, parent, committee=(0, 1, 2, 3), rewards=None):
    payload = payload_for_height(height, parent)
    return Block(
        height=height,
        committee=list(committee),
        reward_vector=rewards or {},
        payload_id=payload,
        parent_link=parent,
    )


def build_chain(length, genesis=None):
    bc = Blockchain(genesis=genesis or _genesis())
    parent = GENESIS_HASH
    for h in range(1, length + 1):
        rewards = {pid: 1 for pid in (0, 1, 2)} if h > 1 else {}
        block = _block(h, parent, rewards=rewards)
        bc.append(block)
        parent = simulated_hash(block)
    return bc


def test_payload_deterministic():
    assert payload_for_height(1, GENESIS_HASH) == payload_for_height(1, GENESIS_HASH)
    assert payload_for_height(1, GENESIS_HASH) != payload_for_height(2, GENESIS_HASH)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_hash_distinguishes_heights(h1, h2):
    b1 = _block(h1, 0)
    b2 = _block(h2, 0)
    if h1 != h2:
        assert simulated_hash(b1) != simulated_hash(b2)
    else:
        assert simulated_hash(b1) == simulated_hash(b2)


def test_hash_distinguishes_payloads():
    a = _block(3, 0)
    b = a._replace(payload_id=a.payload_id + 1)
    assert simulated_hash(a) != simulated_hash(b)


def test_append_requires_contiguous_heights():
    bc = build_chain(3)
    with pytest.raises(ValueError):
        bc.append(_block(5, simulated_hash(bc.block_at(3))))
    with pytest.raises(ValueError):
        bc.append(_block(3, simulated_hash(bc.block_at(3))))


def test_chain_validate():
    bc = build_chain(5)
    assert chain_validate(bc)
    bc.blocks[2] = bc.blocks[2]._replace(parent_link=bc.blocks[2].parent_link + 1)
    assert not chain_validate(bc)


def test_chain_validate_empty():
    assert chain_validate(Blockchain(genesis=_genesis()))


def test_jsonl_roundtrip():
    bc = build_chain(4)
    text = chain_to_jsonl(bc)
    back = chain_from_jsonl(text, bc.genesis)
    assert back.genesis == bc.genesis
    assert back.blocks == bc.blocks
    # genesis rides on the first line
    first = json.loads(text.splitlines()[0])
    assert "genesis" in first


def test_jsonl_is_stable():
    bc = build_chain(4)
    assert chain_to_jsonl(bc) == chain_to_jsonl(chain_from_jsonl(chain_to_jsonl(bc), bc.genesis))


def _without_committee(block):
    del block["committee"]
    return block


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without_committee, "line 3: no 'committee' field"),
        (lambda b: {**b, "committee": None}, "line 3: 'NoneType' object is not iterable"),
        (lambda b: {**b, "committee": [0, 1, 2, 4]}, "line 3: the committee is not 4 distinct process ids"),
        (lambda b: {**b, "reward_vector": {"0": 1.0}}, "line 3: a reward amount is not a non-negative integer"),
        (lambda b: {**b, "reward_vector": {"x": 1}}, "line 3: invalid literal for int() with base 10: 'x'"),
    ],
)
def test_jsonl_reader_names_a_line_that_cannot_be_graded(edit, message):
    bc = build_chain(4)
    lines = chain_to_jsonl(bc).splitlines()
    lines[2] = json.dumps(edit(json.loads(lines[2])))
    with pytest.raises(ValueError, match=re.escape(message)):
        chain_from_jsonl("\n".join(lines), bc.genesis)


def test_uniform_merits_sum_to_one():
    merits = uniform_merits(17)
    assert sum(merits.values()) == 1
    assert len(set(merits.values())) == 1
