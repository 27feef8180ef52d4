"""Workloads of the fairsim benchmark.

A workload turns a seed into scenario documents and the ``fairsim`` CLI
argument lists that run and check them. The program sees only the
generated scenario files; the seed never reaches it any other way.

Sizes: ``standard`` is what the benchmark gates on, ``tiny`` is for the
smoke test, and ``double`` doubles the committee of ``wide-committee``
(N=200, n=67) for the scaling study in NOTES.md.
"""
from __future__ import annotations

import os
import random
from typing import List, Optional, Tuple

WORKLOADS = ("wide-committee", "long-horizon", "many-replications", "selection-figures")
SIZES = ("standard", "tiny", "double")

# Heights of the two selection figures, as the CLI defines them
# (170 processes, committees of 50).
SELECTION_FIGURES = {"selection-highest": 5000, "selection-lowest": 10000}


def _wide_committee(seed: int, size: str) -> dict:
    # Many deliveries per height: the engine, delay draws and the event heap
    # are almost all of the work. GST falls halfway through the run.
    population, n, heights, gst_height = {
        "standard": (100, 34, 10, 5),
        "double": (200, 67, 10, 5),
        "tiny": (16, 7, 6, 3),
    }[size]
    equivocator, silent = random.Random(seed).sample(range(population), 2)
    return {
        "schema_version": 1,
        "name": "wide-committee",
        "population": {
            "size": population,
            "behaviors": [
                {"process": equivocator, "kind": "equivocate", "heights": "odd"},
                {"process": silent, "kind": "silent", "heights": {"mod": 3, "rem": 0}},
            ],
        },
        "genesis": {
            "committee_size": n,
            "selection": "fewest_selections",
            "reward": "suspicion_quorum",
            "timeout_policy": "modulable",
        },
        "network": {
            "model": "eventually_synchronous",
            "gst_height": gst_height,
            "post_gst_bound": 15,
            "pre_gst_delay_range": [10, 60],
        },
        "max_height": heights,
        "seed": seed,
        "replications": 1,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 400},
    }


def _long_horizon(seed: int, size: str) -> dict:
    # The sync-suspicion-equivocator scenario run for many heights: few
    # messages per height, so per-height bookkeeping dominates.
    heights = {"standard": 1200, "tiny": 60}[size]
    rng = random.Random(seed)
    equivocator = rng.randrange(4)
    parity = rng.choice(["even", "odd"])
    return {
        "schema_version": 1,
        "name": "long-horizon",
        "population": {
            "size": 4,
            "behaviors": [{"process": equivocator, "kind": "equivocate", "heights": parity}],
        },
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": "suspicion_quorum",
            "timeout_policy": "fixed",
        },
        "network": {"model": "synchronous", "delay": 0},
        "max_height": heights,
        "seed": seed,
        "replications": 1,
        "engine": {"delta0": 2, "delta_increment": 2, "round_ticks": 100},
    }


def _many_replications(seed: int, size: str) -> dict:
    # The evsync-rewards-figure scenario with more replications: many short
    # engine runs fanned out over a process pool.
    replications = {"standard": 64, "tiny": 4}[size]
    return {
        "schema_version": 1,
        "name": "evsync-rewards-figure",
        "population": {"size": 4},
        "genesis": {
            "committee_size": 4,
            "selection": "select_all",
            "reward": "tendermint_to_reward",
            "timeout_policy": "modulable",
        },
        "network": {
            "model": "eventually_synchronous",
            "gst_height": 10,
            "post_gst_bound": 15,
            "pre_gst_delay_range": [10, 60],
        },
        "max_height": 30,
        "seed": seed,
        "replications": replications,
        "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 400},
        "analyzer": {"stabilization_window": 10},
    }


_SCENARIOS = {
    "wide-committee": _wide_committee,
    "long-horizon": _long_horizon,
    "many-replications": _many_replications,
}


def scenario(workload: str, seed: int, size: str) -> Optional[dict]:
    """The scenario document for ``workload``, or None for figure workloads."""
    make = _SCENARIOS.get(workload)
    return make(seed, size) if make else None


def selection_figures(size: str) -> List[str]:
    return ["selection-highest"] if size == "tiny" else list(SELECTION_FIGURES)


def commands(
    workload: str, scenario_path: str, out_dir: str, size: str, jobs: int
) -> Tuple[List[List[str]], List[str]]:
    """CLI argument lists that produce the outputs, and the output
    directories that ``fairsim check`` then re-grades."""
    if workload == "selection-figures":
        runs = [["figure", f, "--out", os.path.join(out_dir, f)] for f in selection_figures(size)]
        return runs, []
    argv = ["run", "--scenario", scenario_path, "--out", out_dir]
    if workload == "many-replications":
        argv += ["--jobs", str(jobs)]
    return [argv], [out_dir]
