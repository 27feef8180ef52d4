"""Deterministic simulator for committee-based repeated consensus with
selection and reward mechanisms, plus a ground-truth fairness analyzer."""

from .harness import parse_scenario, run_scenario
