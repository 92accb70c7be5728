"""The declarative experiment model.

A campaign is *plain data*: an :class:`ExperimentSpec` names what to run
(protocol x topology x daemon x initialization x fault model x replicate)
by registry keys and JSON-able parameters, and a :class:`Campaign` is an
ordered tuple of specs under one root seed.  Everything downstream hangs
off two derived quantities:

* the **fingerprint** — a stable hash of (spec, root seed) that keys the
  result store, so reruns skip completed work and two campaigns never
  collide;
* the **seed streams** — per-run :class:`random.Random` instances spawned
  deterministically from (root seed, fingerprint), so a run draws the same
  randomness whether it executes first or last, serially or on any worker
  of a multiprocessing pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields

__all__ = [
    "ExperimentSpec",
    "Campaign",
    "grid",
    "derive_seed",
    "spawn_rng",
]

#: Parameter mappings are stored as sorted key/value tuples so specs are
#: hashable, order-insensitive, and fingerprint-stable.
Params = tuple[tuple[str, object], ...]


def _freeze_value(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze_value(v)) for k, v in value.items()))
    return value


def _freeze_params(params: object) -> Params:
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:  # already a key/value pair sequence
        items = list(params)
    return tuple(sorted((str(k), _freeze_value(v)) for k, v in items))


def _thaw_value(value: object) -> object:
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


def _params_dict(params: Params) -> dict[str, object]:
    return {k: _thaw_value(v) for k, v in params}


@dataclass(frozen=True)
class ExperimentSpec:
    """One run of a campaign, as data.

    Registry keys (see :mod:`repro.experiments.registry`): ``protocol``,
    ``topology``, ``scheduler``, ``init``, ``analysis``.  A spec either
    names a protocol run (``protocol`` set) or an analysis workload
    (``analysis`` set); ``skip`` marks combinations that are declared but
    deliberately not executed (e.g. documented daemon exclusions) — they
    are recorded in the store with the reason, keeping reports
    self-describing.
    """

    experiment: str
    protocol: str = ""
    topology: str = ""
    topo_params: Params = ()
    scheduler: str = "synchronous"
    init: str = "arbitrary"
    init_params: Params = ()
    faults: int = 0
    stop: str = "silence"  # "silence" | "legal"
    max_rounds: int = 0  # 0: runner picks a generous default
    replicate: int = 0
    analysis: str = ""
    analysis_params: Params = ()
    skip: str = ""
    #: 1 = persist this run's convergence trace (repro.obs JSONL) next
    #: to the result store; the run record then carries the trace
    #: filename.  Untraced specs serialize without this field, so every
    #: pre-telemetry fingerprint — and store — is preserved verbatim.
    trace: int = 0
    #: churn phase parameters (``kind``, ``waves``, ``seed``, ...) run by
    #: the dynamics engine *after* stabilization; empty = no churn.
    #: Serialized only when set, so every pre-dynamics fingerprint — and
    #: store — is preserved verbatim.
    events: Params = ()

    def __post_init__(self) -> None:
        for name in ("topo_params", "init_params", "analysis_params",
                     "events"):
            object.__setattr__(self, name, _freeze_params(getattr(self, name)))
        # well-formedness is independent of `skip`: a skip spec is still a
        # declared run (it is fingerprinted and stored), only not executed
        if bool(self.protocol) == bool(self.analysis):
            raise ValueError(
                f"spec {self.experiment!r} must set exactly one of "
                f"protocol/analysis (got protocol={self.protocol!r}, "
                f"analysis={self.analysis!r})")
        if self.stop not in ("silence", "legal"):
            raise ValueError(f"unknown stop condition {self.stop!r}")

    # -- parameter access ------------------------------------------------

    @property
    def topo(self) -> dict[str, object]:
        return _params_dict(self.topo_params)

    @property
    def init_args(self) -> dict[str, object]:
        return _params_dict(self.init_params)

    @property
    def analysis_args(self) -> dict[str, object]:
        return _params_dict(self.analysis_params)

    @property
    def events_args(self) -> dict[str, object]:
        return _params_dict(self.events)

    @property
    def topology_label(self) -> str:
        """Human-readable instance name, e.g. ``ring/n=8``."""
        if not self.topology:
            return "-"
        args = ",".join(f"{k}={v}" for k, v in self.topo.items())
        return f"{self.topology}/{args}" if args else self.topology

    @property
    def label(self) -> str:
        """One-line display label for progress output."""
        what = self.protocol or f"analysis:{self.analysis}"
        parts = [self.experiment, what]
        if self.topology:
            parts.append(self.topology_label)
        if self.protocol:
            parts.append(self.scheduler)
        if self.faults:
            parts.append(f"faults={self.faults}")
        if self.replicate:
            parts.append(f"rep={self.replicate}")
        return " ".join(parts)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """A JSON-plain dict; round-trips through :meth:`from_dict`."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_params"):
                value = _params_dict(value)
            if f.name == "events":
                if not value:
                    # omitted when falsy: churn-free specs serialize
                    # exactly as they did before the dynamics engine
                    # existed, so stored spec dicts round-trip verbatim.
                    # Unlike ``trace``, a set ``events`` IS identity: it
                    # changes what executes, so it stays in the
                    # fingerprint.
                    continue
                value = _params_dict(value)
            if f.name == "trace" and not value:
                # omitted when falsy: untraced specs serialize exactly
                # as they did before the telemetry layer existed, so
                # stored spec dicts round-trip verbatim (the fingerprint
                # additionally drops the field even when set — see
                # :meth:`fingerprint`)
                continue
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    # -- identity --------------------------------------------------------

    def fingerprint(self, root_seed: int) -> str:
        """Stable run identity: hash of the canonical spec + root seed.

        Insensitive to parameter-dict ordering (params are stored sorted)
        and to the position of the spec inside its campaign.  The
        ``trace`` flag is excluded: tracing is observability, not
        identity — a traced run derives the same seed streams, executes
        the same moves, and keys the same store record as its untraced
        twin (so flipping ``trace`` on an already-completed spec finds
        the record cached; re-run against a fresh store to capture the
        trace).
        """
        spec = self.to_dict()
        spec.pop("trace", None)
        canon = json.dumps({"root_seed": root_seed, "spec": spec},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def derive_seed(root_seed: int, fingerprint: str, stream: str) -> int:
    """A 63-bit seed for one named stream of one run, by hashing.

    Pure function of its arguments: no dependence on execution order,
    worker identity, or Python hash randomization.
    """
    digest = hashlib.sha256(
        f"{root_seed}:{fingerprint}:{stream}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16) >> 1


def spawn_rng(root_seed: int, fingerprint: str, stream: str) -> random.Random:
    """An isolated :class:`random.Random` for one named stream of one run."""
    return random.Random(derive_seed(root_seed, fingerprint, stream))


@dataclass(frozen=True)
class Campaign:
    """An ordered set of runs under one root seed."""

    name: str
    title: str
    specs: tuple[ExperimentSpec, ...]
    root_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        fps = self.fingerprints()
        if len(set(fps)) != len(fps):
            dupes = sorted({f for f in fps if fps.count(f) > 1})
            raise ValueError(
                f"campaign {self.name!r} contains duplicate runs "
                f"(fingerprints {dupes}); give replicates distinct "
                f"`replicate` indices")

    def __len__(self) -> int:
        return len(self.specs)

    def fingerprints(self) -> list[str]:
        return [s.fingerprint(self.root_seed) for s in self.specs]

    def experiments(self) -> list[str]:
        """Experiment ids in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.specs:
            seen.setdefault(s.experiment, None)
        return list(seen)


def grid(**axes: Sequence[object]) -> Iterator[dict[str, object]]:
    """Cartesian product of named axes, in the given axis order.

    >>> list(grid(a=[1, 2], b=["x"]))
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    for combo in itertools.product(*(axes[k] for k in names)):
        yield dict(zip(names, combo))
