"""Built-in scenario documents.

Each entry is a plain JSON-serializable dict in the harness scenario
schema, so the CLI can dump them to files and the tests can run them
directly. Parameter choices are tuned so the qualitative regimes (always
fair, never complete, fair-after-stabilization, defeated-by-bursts) are
robust across seeds.
"""
from __future__ import annotations

import copy
from typing import Dict, List

from .core import ScenarioError
from .harness import SCHEMA_VERSION


def sync_suspicion_equivocator(seed: int = 1, max_height: int = 200) -> dict:
    """All-member committee under instant delivery with one member
    equivocating at even heights. Detection confirms the equivocator every
    even height, so it earns nothing exactly there."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "sync-suspicion-equivocator",
        "population": {
            "size": 4,
            "behaviors": [{"process": 1, "kind": "equivocate", "heights": "even"}],
        },
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": "suspicion_quorum",
            "timeout_policy": "fixed",
        },
        "network": {"model": "synchronous", "delay": 0},
        "max_height": max_height,
        "seed": seed,
        "replications": 1,
        "engine": {"delta0": 2, "delta_increment": 2, "round_ticks": 100},
    }


def goodbad_laggard(seed: int = 7, max_height: int = 500) -> dict:
    """Correct but badly connected process 3: its outgoing messages carry a
    fixed extra delay larger than the fixed collection window, so decision
    collection always misses it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "goodbad-laggard",
        "population": {"size": 4},
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": "tendermint_to_reward",
            "timeout_policy": "fixed",
        },
        "network": {
            "model": "good_bad",
            "good_len": 400,
            "bad_len": 40,
            "good_delay_bound": 2,
            "bad_delay_range": [4, 9],
            "laggards": {"3": 60},
        },
        "max_height": max_height,
        "seed": seed,
        "replications": 1,
        "engine": {"delta0": 12, "delta_increment": 12, "round_ticks": 200},
        "analyzer": {"stabilization_window": 50},
    }


def _evsync_base(policy: str, seed: int, max_height: int, replications: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": f"evsync-tendermint-{policy}",
        "population": {"size": 4},
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": "tendermint_to_reward",
            "timeout_policy": policy,
        },
        "network": {
            "model": "eventually_synchronous",
            "gst_height": 10,
            "post_gst_bound": 15,
            "pre_gst_delay_range": [10, 60],
        },
        "max_height": max_height,
        "seed": seed,
        "replications": replications,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 400},
    }


def evsync_tendermint(policy: str = "modulable", seed: int = 3, max_height: int = 60) -> dict:
    # stabilization window defaults to max_height // 2
    return _evsync_base(policy, seed, max_height, 1)


def evsync_rewards_figure(seed: int = 11, replications: int = 50) -> dict:
    """Reward-parameter trajectory around stabilization: noisy mean below 1
    before the network calms down during height 10, then a clean plateau."""
    doc = _evsync_base("modulable", seed, 30, replications)
    doc["name"] = "evsync-rewards-figure"
    doc["analyzer"] = {"stabilization_window": 10}
    return doc


def async_defeat(reward: str, seed: int = 5, max_height: int = 48) -> dict:
    """Escalating decision-message bursts every few heights. Each burst
    outgrows whatever timeout the proposer has accumulated, so clean
    suffixes never stretch long enough for any collection-based mechanism,
    and the burst heights break completeness or accuracy for the static
    ones."""
    behaviors: List[dict] = []
    if reward in ("reward_all_committee",):
        # a silent member makes unconditional rewarding inaccurate
        behaviors.append({"process": 3, "kind": "silent", "heights": {"mod": 16, "rem": 0}})
    return {
        "schema_version": SCHEMA_VERSION,
        "name": f"async-defeat-{reward}",
        "population": {"size": 4, "behaviors": behaviors},
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": reward,
            "timeout_policy": "modulable",
        },
        "network": {
            "model": "asynchronous",
            "base_delay_range": [0, 3],
            "burst_every_heights": 8,
            "burst_initial": 120,
            "burst_growth": 3,
        },
        "max_height": max_height,
        "seed": seed,
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 5000},
        "analyzer": {"stabilization_window": 12},
    }


_MODEL_DOCS: Dict[str, dict] = {
    "synchronous": {"model": "synchronous", "delay": 0},
    "good_bad": {
        "model": "good_bad",
        "good_len": 300,
        "bad_len": 40,
        "good_delay_bound": 2,
        "bad_delay_range": [4, 9],
    },
    "eventually_synchronous": {
        "model": "eventually_synchronous",
        "gst_height": 6,
        "post_gst_bound": 8,
        "pre_gst_delay_range": [5, 30],
    },
    "asynchronous": {
        "model": "asynchronous",
        "base_delay_range": [0, 3],
        "burst_every_heights": 10,
        "burst_initial": 60,
        "burst_growth": 2,
    },
}

_BEHAVIOR_MIXES: Dict[str, List[dict]] = {
    "all-correct": [],
    "one-silent": [{"process": 2, "kind": "silent", "heights": {"mod": 3, "rem": 0}}],
    "one-equivocator": [{"process": 1, "kind": "equivocate", "heights": "odd"}],
}


def static_matrix(reward: str, seed: int = 2, max_height: int = 40) -> List[dict]:
    """One scenario per (network model, behavior mix) for a reward
    mechanism that ignores observations entirely."""
    out = []
    for model_name, net in _MODEL_DOCS.items():
        for mix_name, behaviors in _BEHAVIOR_MIXES.items():
            out.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "name": f"{reward}-{model_name}-{mix_name}",
                    "population": {"size": 4, "behaviors": copy.deepcopy(behaviors)},
                    "genesis": {
                        "committee_size": 4,
                        "selection": "select_all",
                        "reward": reward,
                        "timeout_policy": "fixed",
                    },
                    "network": copy.deepcopy(net),
                    "max_height": max_height,
                    "seed": seed,
                    "replications": 1,
                    "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 2000},
                    "analyzer": {"stabilization_window": 15},
                }
            )
    return out


BUILTIN = {
    "sync-suspicion-equivocator": sync_suspicion_equivocator,
    "goodbad-laggard": goodbad_laggard,
    "evsync-tendermint-fixed": lambda: evsync_tendermint("fixed"),
    "evsync-tendermint-modulable": lambda: evsync_tendermint("modulable"),
    "evsync-rewards-figure": evsync_rewards_figure,
    "async-defeat-reward-all": lambda: async_defeat("reward_all_committee"),
    "async-defeat-never": lambda: async_defeat("never_reward"),
    "async-defeat-tendermint": lambda: async_defeat("tendermint_to_reward"),
    "async-defeat-suspicion": lambda: async_defeat("suspicion_quorum"),
}


def builtin_scenario(name: str) -> dict:
    """The document of built-in scenario ``name``, which ``run --builtin`` names."""
    if name not in BUILTIN:
        raise ScenarioError("--builtin", f"unknown builtin scenario {name!r}; known: {sorted(BUILTIN)}")
    return BUILTIN[name]()
