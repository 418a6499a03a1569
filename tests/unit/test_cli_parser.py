"""The parsed defaults of the scenario-shaped CLI subcommands.

``scenario``, ``trials`` and ``chaos`` share one helper for their
workload flags; these literal dicts pin every default each subcommand
parses, so folding or reordering flag definitions cannot change them.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser

SCHEDULERS = "pfs,baraat,stream,aalo,gurita"
SUPERVISOR = {
    "run_dir": None,
    "checkpoint_every": None,
    "run_budget": None,
    "resume": False,
    "allow_partial": False,
}

EXPECTED = {
    "scenario": {
        "command": "scenario",
        "structure": "fb-tao",
        "jobs": 40,
        "arrival": "uniform",
        "seed": 42,
        "load": 1.5,
        "topology": "fattree",
        "fattree_k": 8,
        "hosts": 0,
        "schedulers": SCHEDULERS,
        "fault_profile": "",
        "fault_intensity": 1.0,
        "fault_seed": 0,
        **SUPERVISOR,
        "out": None,
    },
    "trials": {
        "command": "trials",
        "structure": "fb-tao",
        "jobs": 30,
        "arrival": "uniform",
        "load": 1.5,
        "fattree_k": 8,
        "seeds": "1,2,3",
        "schedulers": SCHEDULERS,
        "gaps": False,
        "parallel": 1,
        "cache_dir": None,
        **SUPERVISOR,
    },
    "chaos": {
        "command": "chaos",
        "structure": "fb-tao",
        "jobs": 40,
        "arrival": "uniform",
        "seed": 42,
        "load": 1.5,
        "topology": "fattree",
        "fattree_k": 8,
        "profiles": "link-flap,switch-failure,host-crash,hr-loss,chaos",
        "intensity": 1.0,
        "fault_seed": 0,
        "schedulers": SCHEDULERS,
        "parallel": 1,
        "cache_dir": None,
    },
}


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_scenario_subcommand_defaults(command):
    assert vars(build_parser().parse_args([command])) == EXPECTED[command]
