"""The state-model runtime (Section II-A of the paper).

This subpackage implements the abstract machine the paper works in:

* :mod:`registers` — single-writer multiple-reader registers whose fields
  carry exact bit-size encoders (space complexity is *measured*, not assumed);
* :mod:`protocol` — guarded-rule protocols: an atomic step reads the node's
  own register and its neighbors' registers, applies the transition function,
  and writes back;
* :mod:`scheduler` — daemons, from the synchronous one to unfair adversaries;
* :mod:`simulator` — the execution engine with the paper's round accounting
  and silence detection;
* :mod:`faults` — transient fault injection (register corruption);
* :mod:`metrics` — measurement helpers shared by tests and benchmarks.
"""

from repro.runtime.registers import (
    Field,
    RegisterSpec,
    id_field,
    opt_id_field,
    counter_field,
    opt_counter_field,
    flag_field,
    enum_field,
    weight_field,
    edge_field,
    custom_field,
    NONE,
)
from repro.runtime.protocol import (
    NodeView,
    Protocol,
    ComposedProtocol,
    adapt_step_to_slots,
    effective_delta,
)
from repro.runtime.schema import SlotState, StateSchema
from repro.runtime.scheduler import (
    EnabledSet,
    Scheduler,
    SynchronousScheduler,
    CentralRandomScheduler,
    CentralRoundRobinScheduler,
    CentralMaxIdScheduler,
    CentralMinIdScheduler,
    DistributedRandomScheduler,
    StarvingScheduler,
    ALL_SCHEDULER_FACTORIES,
)
from repro.runtime.simulator import Simulator, RunResult, random_configuration
from repro.runtime.faults import (
    corrupt_nodes,
    corrupt_random_nodes,
    inject_faults,
    inject_random_faults,
)
from repro.runtime.metrics import (
    node_register_bits,
    max_register_bits,
    total_register_bits,
)

__all__ = [
    "Field",
    "RegisterSpec",
    "id_field",
    "opt_id_field",
    "counter_field",
    "opt_counter_field",
    "flag_field",
    "enum_field",
    "weight_field",
    "edge_field",
    "custom_field",
    "NONE",
    "NodeView",
    "effective_delta",
    "adapt_step_to_slots",
    "Protocol",
    "ComposedProtocol",
    "SlotState",
    "StateSchema",
    "EnabledSet",
    "Scheduler",
    "SynchronousScheduler",
    "CentralRandomScheduler",
    "CentralRoundRobinScheduler",
    "CentralMaxIdScheduler",
    "CentralMinIdScheduler",
    "DistributedRandomScheduler",
    "StarvingScheduler",
    "ALL_SCHEDULER_FACTORIES",
    "Simulator",
    "RunResult",
    "random_configuration",
    "corrupt_nodes",
    "corrupt_random_nodes",
    "inject_faults",
    "inject_random_faults",
    "node_register_bits",
    "max_register_bits",
    "total_register_bits",
]
