"""The pinned workload registry and its one driver, :func:`execute`.

Every workload is a pure function of the code under test: the registry
rebuilds identically, repeated executions agree exactly, and each
``smoke-*`` workload plus the acceptance workload performs exactly the
pinned ``(moves, rounds, silent)`` counts.
"""

import re

import pytest

from repro.obs.workloads import WORKLOADS, Workload, _build_registry, execute

#: name -> (moves, rounds, silent); any drift is an algorithmic change
PINNED = {
    "acceptance-sst-512": (17265, 19, True),
    "smoke-sst-48": (78, 2, True),
    "smoke-shard-sst-512": (12288, 47, True),
    "smoke-churn-sst-48": (144, 8, True),
    "smoke-bfs-48": (159, 5, True),
    "smoke-mst-48": (1152, 24, False),
    "smoke-mdst-48": (288, 6, False),
    "smoke-nca-48": (71, 12, True),
    "smoke-guided-bfs-48": (226, 9, True),
    "smoke-guided-mst-48": (244, 16, False),
    "smoke-guided-mdst-48": (225, 16, False),
}


def _tiny_workload(**overrides):
    defaults = dict(
        name="test-sst-ring",
        protocol="sst",
        topology="ring",
        topo_params=(("n", 12), ("seed", 3)),
        scheduler="central-random",
        scheduler_seed=9,
        init="arbitrary",
        init_params=(("seed", 4),),
    )
    defaults.update(overrides)
    return Workload(**defaults)


def test_names_are_unique_and_stable():
    assert len(WORKLOADS) == len({w.name for w in WORKLOADS.values()})
    for name, w in WORKLOADS.items():
        assert name == w.name


def test_acceptance_workload_pins_its_parameters():
    w = WORKLOADS["acceptance-sst-512"]
    assert w.protocol == "sst"
    assert w.topology == "random"
    assert dict(w.topo_params) == {"n": 512, "seed": 42}
    assert w.scheduler == "central-random"
    assert w.scheduler_seed == 3
    assert w.init == "arbitrary"
    assert dict(w.init_params) == {"seed": 7}
    # run to silence: no budget caps on the acceptance number
    assert w.round_budget == 0 and w.move_budget == 0


@pytest.mark.parametrize("overrides, message", [
    (dict(round_budget=-1), "budgets must be >= 0"),
    (dict(move_budget=-1), "budgets must be >= 0"),
    (dict(shards=-1), "shards must be >= 0"),
    (dict(shards=2, init="per-node"), "need the synchronous scheduler"),
    (dict(shards=2, scheduler="synchronous"), "require init='per-node'"),
    (dict(shards=2, scheduler="synchronous", init="per-node", move_budget=5),
     "round-budgeted only"),
    (dict(shards=2, scheduler="synchronous", init="per-node",
          churn=(("kind", "mixed"),)), "churn workloads are single-process"),
    (dict(round_budget=3, churn=(("kind", "mixed"),)),
     "churn workloads run to silence"),
], ids=["negative-round-budget", "negative-move-budget", "negative-shards",
        "sharded-async", "sharded-not-per-node", "sharded-move-budget",
        "sharded-churn", "budgeted-churn"])
def test_workload_rejects_inconsistent_fields(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _tiny_workload(**overrides)


def test_registry_rebuild_is_deterministic():
    assert _build_registry() == WORKLOADS


def test_every_smoke_workload_is_pinned():
    smoke = {name for name in WORKLOADS if name.startswith("smoke-")}
    assert smoke | {"acceptance-sst-512"} == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_execution_performs_the_pinned_counts(name):
    run = execute(WORKLOADS[name])
    assert (run.moves, run.rounds, run.silent) == PINNED[name]


def test_execute_is_deterministic():
    a = execute(_tiny_workload())
    b = execute(_tiny_workload())
    assert a[1:] == b[1:]  # everything but the clock
    assert a.silent is True
    assert a.moves > 0
    assert a.seconds > 0
