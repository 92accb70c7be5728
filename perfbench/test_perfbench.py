"""The benchmark's own checks: its referee and its determinism gate.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench import families
from perfbench.run import BenchError, check_counts

SMALL = dataclasses.replace(families.WORKLOADS["sst-central"], n=24,
                            instances=2)


def test_solved_instance_passes_the_referee():
    inst = families.build_instance(SMALL, 7)
    families.solve(inst)
    assert families.judge(inst) is None


def test_non_silent_instance_counts_as_failed():
    # a planted ghost root needs about n_bound rounds to flush, so one
    # round leaves the instance enabled: the budget error is recorded,
    # and judged as a failure rather than raised
    inst = families.build_instance(SMALL, 7)
    families.solve(inst, max_rounds=1)
    assert not inst.sim.is_silent()
    assert families.judge(inst) is not None
    inst.error = None
    assert families.judge(inst) == "not silent"


def test_planted_ghosts_pin_the_slow_regime():
    inst = families.build_instance(SMALL, 7)
    live_min = inst.sim.net.min_id
    ghosts = [v for v, st in inst.sim.config.items() if st["rid"] < live_min]
    assert len(ghosts) == SMALL.ghosts


def test_churn_root_is_a_cut_vertex_with_leaves():
    churn = dataclasses.replace(families.WORKLOADS["sst-churn"], n=24)
    net = families.build_instance(churn, 7).sim.net
    assert net.n == churn.n and net.min_id == 1
    leaves = [v for v in net.neighbors(1) if net.degree(v) == 1]
    assert len(leaves) == families.ROOT_LEAVES
    assert not net.is_connected_subset(set(net.nodes) - {1})


def test_instances_are_a_function_of_the_seed():
    one = families.instance_seeds(SMALL, 3)
    assert one == families.instance_seeds(SMALL, 3)
    assert one != families.instance_seeds(SMALL, 4)


def test_differing_counts_between_passes_are_an_error():
    same = {"counts": [{"moves": 5, "rounds": 2, "register_bits_max": 9}]}
    other = {"counts": [{"moves": 6, "rounds": 2, "register_bits_max": 9}]}
    assert check_counts([same, same]) == same["counts"]
    with pytest.raises(BenchError) as err:
        check_counts([same, other])
    assert err.value.code == 3
