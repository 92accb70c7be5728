"""The shared engine referee: a daemon wrapper checking first principles.

Before every selection :class:`CrossCheckingScheduler` asserts that the
simulator's incrementally maintained state equals a from-scratch
evaluation:

* the enabled set equals :meth:`Simulator.rescan_enabled` (the same
  slot rule, re-evaluated over neighbor rows rebuilt from the network);
* every enabled node's cached proposal equals the effective delta of
  the name-keyed referee (:func:`referee_rules.referee_step`: the
  NodeView statement of every compiled rule, or the ``step`` of a test
  fixture written in that form), re-keyed to slot indices.

The engine proposes through one slot rule per binding, the one the
protocol's ``fast_step_slots`` compiles, so the second assertion pins
that rule to the referee at every selection.
The wrapper has only ``select``, so the engine applies its single-node
selections through the same fused loop as an unwrapped daemon's.
"""

from repro.runtime import EnabledSet, Scheduler, Simulator

from referee_rules import referee_delta, referee_step


class CrossCheckingScheduler(Scheduler):
    """Wraps a daemon; cross-checks the engine before each selection."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = f"xcheck({inner.name})"
        self.sim: Simulator | None = None
        self.checks = 0
        self._referee = None

    def select(self, enabled):
        sim = self.sim
        assert isinstance(enabled, EnabledSet)
        assert list(enabled) == sim.rescan_enabled(), (
            "incrementally maintained enabled set diverged from a "
            "from-scratch rescan")
        if self._referee is None:
            self._referee = referee_step(sim.protocol)
        index = sim.schema.index
        for v in enabled:
            want = referee_delta(self._referee, sim.net, sim.config, v)
            if want is not None:  # None: the referee disagrees
                want = {index[k]: val for k, val in want.items()}
            assert sim._proposal[v] == want, (
                f"node {v}: cached proposal {sim._proposal[v]} != "
                f"the referee's effective delta {want}")
        self.checks += 1
        return self.inner.select(enabled)
