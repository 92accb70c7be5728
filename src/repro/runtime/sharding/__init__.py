"""Partitioned shard-parallel execution of the synchronous daemon.

See :mod:`repro.runtime.sharding.engine` for the round protocol and the
equivalence argument, :mod:`repro.runtime.sharding.partition` for the
partitioner, and ``python -m repro shard --help`` for the CLI (``plan``
and the ``verify`` equivalence gate).  Sharded runs come from three
places — ``shard verify``, the sharded pinned workloads
(:mod:`repro.obs.workloads`) and the ``sharded-scale`` campaign
analysis — and all three name topologies through
:func:`repro.experiments.registry.resolve_topology`.
"""

from repro.runtime.sharding.engine import (
    ShardCrashError,
    ShardedSimulator,
    ShardRunResult,
    ShardWorker,
    config_fingerprint,
    per_node_configuration,
    simulator_fingerprint,
    single_process_reference,
)
from repro.runtime.sharding.partition import ShardPlan, plan_partition

__all__ = [
    "ShardCrashError",
    "ShardPlan",
    "ShardRunResult",
    "ShardWorker",
    "ShardedSimulator",
    "config_fingerprint",
    "per_node_configuration",
    "plan_partition",
    "simulator_fingerprint",
    "single_process_reference",
]
