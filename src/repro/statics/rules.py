"""The pluggable rule series of ``repro.statics``.

Five series, one per contract of the paper's state model (each rule is a
class; the registry at the bottom is what the analyzer runs):

* **L (locality)** — a layer's rules read only the closed 1-hop
  neighborhood: they must not reach net-global accessors or iterate the
  configuration.
* **W (write-ownership)** — rules communicate through returned deltas
  only; registers, neighbor rows and views are never mutated in place.
* **S (schema coverage)** — every field literal on any rule path
  resolves to a declared ``RegisterSpec`` field, and the slot path
  resolves slots only through ``StateSchema`` (no hard-coded slot ints).
* **D (determinism)** — no ambient randomness or clocks, no iteration
  over unordered sets feeding a proposal.
* **C (path consistency)** — the literal read/write field sets of
  ``step`` / ``fast_step_slots`` agree field-for-field.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from types import ModuleType

from repro.statics.bindings import ScopeMap, Tag, build_scopes
from repro.statics.model import Finding, Site
from repro.statics.scan import FuncUnit, RulePath

__all__ = ["ALL_RULES", "LayerContext", "Rule", "RULE_CATALOG"]


@dataclass
class LayerContext:
    """Everything the rules know about the layer under analysis."""

    protocol: str               #: registry name of the analyzed protocol
    layer: object               #: the live layer instance
    layer_name: str             #: class name of the layer
    universe: frozenset[str]    #: the composed register's field names


class Rule:
    """One pluggable check.  Subclasses override one of the two hooks."""

    rule_id: str = "X000"
    series: str = "X"
    title: str = ""

    def check_layer(self, ctx: LayerContext, paths: list[RulePath],
                    scopes: dict[int, ScopeMap]) -> list[Finding]:
        findings: list[Finding] = []
        for path in paths:
            findings.extend(self.check_path(ctx, path, scopes))
        return findings

    def check_path(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]) -> list[Finding]:
        return []

    # ------------------------------------------------------------------

    @staticmethod
    def finding(rule_id: str, ctx: LayerContext, path: RulePath,
                unit: FuncUnit, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule_id,
            protocol=ctx.protocol,
            layer=ctx.layer_name,
            path=path.path,
            function=unit.qualname,
            site=Site(unit.src.path, getattr(node, "lineno", unit.node.lineno)),
            message=message,
            chain=unit.via_names + (unit.qualname,),
            waiver_sites=unit.via_sites,
        )


def _scope_map(scopes: dict[int, ScopeMap], unit: FuncUnit) -> ScopeMap:
    sm = scopes.get(id(unit.node))
    if sm is None:
        sm = scopes[id(unit.node)] = build_scopes(unit.node)
    return sm


# ----------------------------------------------------------------------
# L-series: locality
# ----------------------------------------------------------------------

#: Network accessors a 1-hop rule may legally touch: a node's
#: incorruptible constants (its adjacency, incident weights, the public
#: bounds).  Everything else on Network is global by default.
ALLOWED_NET_ACCESSORS = frozenset({
    "neighbors", "neighbor_set", "degree", "weight", "n_bound", "id_space",
})

_CONFIG_SWEEP_ATTRS = frozenset({"items", "keys", "values"})


class LocalityRule(Rule):
    rule_id = "L001"
    series = "L"
    title = "rules must not reach global accessors or sweep the config"

    def check_path(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]) -> list[Finding]:
        out: list[Finding] = []
        for unit in path.units:
            out.extend(self._scan_unit(ctx, path, unit,
                                       _scope_map(scopes, unit)))
        return out

    def _scan_unit(self, ctx: LayerContext, path: RulePath, unit: FuncUnit,
                   sm: ScopeMap) -> list[Finding]:
        out: list[Finding] = []
        for node in unit.walk():
            if isinstance(node, ast.Attribute):
                if (sm.tag(node.value) == Tag.NET
                        and node.attr not in ALLOWED_NET_ACCESSORS
                        and not node.attr.startswith("__")):
                    out.append(self.finding(
                        "L001", ctx, path, unit, node,
                        f"reads net.{node.attr} — a global accessor "
                        f"outside the 1-hop view (allowed: "
                        f"{', '.join(sorted(ALLOWED_NET_ACCESSORS))})"))
                elif (sm.tag(node.value) == Tag.CONFIG
                        and node.attr in _CONFIG_SWEEP_ATTRS):
                    out.append(self.finding(
                        "L002", ctx, path, unit, node,
                        f"sweeps the whole configuration via "
                        f".{node.attr}() — a neighborhood rule may only "
                        f"read its own and its neighbors' registers"))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if sm.tag(node.iter) == Tag.CONFIG:
                    out.append(self.finding(
                        "L002", ctx, path, unit, node,
                        "iterates over the whole configuration — a "
                        "neighborhood rule may only read its own and its "
                        "neighbors' registers"))
            elif isinstance(node, ast.comprehension):
                if sm.tag(node.iter) == Tag.CONFIG:
                    out.append(self.finding(
                        "L002", ctx, path, unit, node.iter,
                        "iterates over the whole configuration — a "
                        "neighborhood rule may only read its own and its "
                        "neighbors' registers"))
        return out


# ----------------------------------------------------------------------
# W-series: write ownership
# ----------------------------------------------------------------------

_STATE_TAGS = frozenset({Tag.ROW, Tag.CONFIG, Tag.NBR_ROWS, Tag.VIEW})
_MUTATORS = frozenset({
    "update", "setdefault", "pop", "popitem", "clear",
    "append", "extend", "insert", "remove", "sort", "add", "discard",
})


class WriteOwnershipRule(Rule):
    rule_id = "W001"
    series = "W"
    title = "rules return deltas; they never mutate registers in place"

    def check_path(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]) -> list[Finding]:
        out: list[Finding] = []
        for unit in path.units:
            sm = _scope_map(scopes, unit)
            for node in unit.walk():
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if (isinstance(target, ast.Subscript)
                                and sm.tag(target.value) in _STATE_TAGS):
                            out.append(self.finding(
                                "W001", ctx, path, unit, node,
                                "writes a register in place — rules "
                                "communicate only through the returned "
                                "delta (the engine applies it atomically)"))
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS
                        and sm.tag(node.func.value) in
                        (_STATE_TAGS - {Tag.VIEW})):
                    out.append(self.finding(
                        "W002", ctx, path, unit, node,
                        f"calls .{node.func.attr}() on a register/state "
                        f"value — in-place mutation breaks the "
                        f"single-writer atomic-step model"))
        return out


# ----------------------------------------------------------------------
# S-series: schema coverage
# ----------------------------------------------------------------------

#: Rule paths that traffic in compiled slot indices (S002 applies).
_SLOT_PATHS = frozenset({"fast_step_slots", "interrupt_step"})


class SchemaCoverageRule(Rule):
    rule_id = "S001"
    series = "S"
    title = ("field literals resolve to RegisterSpec fields; slots "
             "resolve only through StateSchema")

    def check_path(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]) -> list[Finding]:
        out: list[Finding] = []
        for unit in path.units:
            sm = _scope_map(scopes, unit)
            owned = unit.owner is ctx.layer
            for node in unit.walk():
                if isinstance(node, ast.Subscript):
                    out.extend(self._check_subscript(
                        ctx, path, unit, sm, node, owned))
                elif isinstance(node, ast.Call):
                    out.extend(self._check_call(ctx, path, unit, sm, node))
                elif isinstance(node, ast.Dict) and owned:
                    out.extend(self._check_dict(
                        ctx, path, unit, sm, node))
        return out

    def _unknown(self, ctx: LayerContext, field: str) -> bool:
        return field not in ctx.universe

    def _check_subscript(self, ctx, path, unit, sm, node, owned):
        base_tag = sm.tag(node.value)
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            state_like = base_tag in (Tag.VIEW, Tag.ROW)
            scratch = owned and base_tag == Tag.LOCALDICT
            if (state_like or scratch) and self._unknown(ctx, key.value):
                return [self.finding(
                    "S001", ctx, path, unit, node,
                    f"field {key.value!r} does not resolve to any "
                    f"RegisterSpec field of {ctx.protocol} "
                    f"(fields: {', '.join(sorted(ctx.universe))})")]
            if base_tag == Tag.SINDEX and self._unknown(ctx, key.value):
                return [self.finding(
                    "S001", ctx, path, unit, node,
                    f"schema.index[{key.value!r}] does not resolve — "
                    f"no such field in the compiled layout")]
        elif (isinstance(key, ast.Constant) and isinstance(key.value, int)
                and not isinstance(key.value, bool)
                and path.path in _SLOT_PATHS
                and base_tag == Tag.ROW):
            return [self.finding(
                "S002", ctx, path, unit, node,
                f"hard-coded slot index {key.value} on a register row — "
                f"slots must be resolved through StateSchema "
                f"(schema.slot/schema.index), never written literally")]
        return []

    def _check_call(self, ctx, path, unit, sm, node):
        func = node.func
        if not (isinstance(func, ast.Attribute) and node.args):
            return []
        key = node.args[0]
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return []
        base_tag = sm.tag(func.value)
        if (func.attr == "slot" and base_tag == Tag.SCHEMA
                and self._unknown(ctx, key.value)):
            return [self.finding(
                "S001", ctx, path, unit, node,
                f"schema.slot({key.value!r}) does not resolve — no such "
                f"field in the compiled layout")]
        if func.attr == "slots" and base_tag == Tag.SCHEMA:
            return [self.finding(
                "S001", ctx, path, unit, node,
                f"schema.slots(... {arg.value!r} ...) does not resolve — "
                f"no such field in the compiled layout")
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and self._unknown(ctx, arg.value)]
        if (func.attr == "get" and base_tag == Tag.ROW
                and self._unknown(ctx, key.value)):
            # .get() is the sanctioned absence-tolerant accessor — a
            # layer may probe for a sibling layer's field that this
            # composition does not carry, so unknown names are fine here.
            return []
        return []

    def _check_dict(self, ctx, path, unit, sm, node):
        out = []
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if self._unknown(ctx, key.value):
                    out.append(self.finding(
                        "S001", ctx, path, unit, key,
                        f"delta key {key.value!r} does not resolve to any "
                        f"RegisterSpec field of {ctx.protocol}"))
            elif (isinstance(key, ast.Constant)
                    and isinstance(key.value, int)
                    and not isinstance(key.value, bool)
                    and path.path in _SLOT_PATHS):
                out.append(self.finding(
                    "S002", ctx, path, unit, key,
                    f"hard-coded slot index {key.value} as a delta key — "
                    f"slots must be resolved through StateSchema"))
        return out


# ----------------------------------------------------------------------
# D-series: determinism
# ----------------------------------------------------------------------

_AMBIENT_MODULES = frozenset({
    "random", "time", "secrets", "uuid", "datetime", "os", "_random",
})


class DeterminismRule(Rule):
    rule_id = "D001"
    series = "D"
    title = "no ambient randomness/clocks, no unordered-set iteration"

    def check_path(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]) -> list[Finding]:
        out: list[Finding] = []
        for unit in path.units:
            sm = _scope_map(scopes, unit)
            for node in unit.walk():
                if isinstance(node, ast.Call):
                    name = self._ambient_call(node, unit)
                    if name is not None:
                        out.append(self.finding(
                            "D001", ctx, path, unit, node,
                            f"calls {name} — rules must be pure functions "
                            f"of the 1-hop view; ambient randomness/clocks "
                            f"break proposal caching and replayability"))
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if self._unordered(sm, node.iter):
                        out.append(self.finding(
                            "D002", ctx, path, unit, node,
                            "iterates an unordered set — iteration order "
                            "feeds the proposal; wrap in sorted() for a "
                            "deterministic order"))
                elif isinstance(node, ast.comprehension):
                    if self._unordered(sm, node.iter):
                        out.append(self.finding(
                            "D002", ctx, path, unit, node.iter,
                            "comprehends over an unordered set — wrap in "
                            "sorted() for a deterministic order"))
        return out

    @staticmethod
    def _unordered(sm: ScopeMap, iter_node: ast.AST) -> bool:
        return sm.tag(iter_node) == Tag.SETVAL

    @staticmethod
    def _ambient_call(node: ast.Call, unit: FuncUnit) -> str | None:
        func = node.func
        module_ns = unit.module.__dict__
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            base = func.value.id
            if (base in _AMBIENT_MODULES
                    and isinstance(module_ns.get(base), ModuleType)):
                return f"{base}.{func.attr}()"
        elif isinstance(func, ast.Name):
            target = module_ns.get(func.id)
            mod = getattr(target, "__module__", None)
            if target is not None and mod in _AMBIENT_MODULES:
                return f"{mod}.{func.id}()"
        return None


# ----------------------------------------------------------------------
# C-series: rule-path consistency
# ----------------------------------------------------------------------

class PathConsistencyRule(Rule):
    rule_id = "C001"
    series = "C"
    title = "step / fast_step_slots read and write the same fields"

    def check_layer(self, ctx: LayerContext, paths: list[RulePath],
                    scopes: dict[int, ScopeMap]) -> list[Finding]:
        if len(paths) < 2:
            return []
        footprints = [
            (path, *self._footprint(ctx, path, scopes)) for path in paths]
        base_path, base_reads, base_writes = footprints[0]
        out: list[Finding] = []
        for path, reads, writes in footprints[1:]:
            if reads != base_reads:
                out.append(self.finding(
                    "C001", ctx, path, path.entry, path.entry.node,
                    self._diff_message("read", path, base_path,
                                       reads, base_reads)))
            if writes != base_writes:
                out.append(self.finding(
                    "C002", ctx, path, path.entry, path.entry.node,
                    self._diff_message("write", path, base_path,
                                       writes, base_writes)))
        return out

    @staticmethod
    def _diff_message(kind: str, path: RulePath, base: RulePath,
                      mine: frozenset[str], theirs: frozenset[str]) -> str:
        extra = sorted(mine - theirs)
        missing = sorted(theirs - mine)
        parts = []
        if extra:
            parts.append(f"also touches {', '.join(extra)}")
        if missing:
            parts.append(f"misses {', '.join(missing)}")
        return (f"{kind}-set of {path.path} disagrees with {base.path} "
                f"({'; '.join(parts)}) — a ported rule silently "
                f"{'dropped' if missing else 'grew'} a field dependency")

    def _footprint(self, ctx: LayerContext, path: RulePath,
                   scopes: dict[int, ScopeMap]
                   ) -> tuple[frozenset[str], frozenset[str]]:
        """Literal (read, write) field sets of one rule path.

        Only statically-resolvable accesses count: string literals and
        slot variables bound from ``schema.slot``/``schema.index``
        lookups.  Dynamic accesses (a field name held in an instance
        attribute) are invisible on *every* path, so a rule that is
        dynamic the same way on both planes still compares equal.
        """
        reads: set[str] = set()
        writes: set[str] = set()
        for unit in path.units:
            sm = _scope_map(scopes, unit)
            owned = unit.owner is ctx.layer
            for node in unit.walk():
                if isinstance(node, ast.Subscript):
                    field = self._key_field(sm, node.slice)
                    if field is None:
                        continue
                    base_tag = sm.tag(node.value)
                    is_store = isinstance(node.ctx, (ast.Store, ast.Del))
                    if base_tag in (Tag.VIEW, Tag.ROW) and not is_store:
                        reads.add(field)
                    elif base_tag == Tag.LOCALDICT and is_store and owned:
                        writes.add(field)
                elif isinstance(node, ast.Call):
                    func = node.func
                    if not (isinstance(func, ast.Attribute) and node.args):
                        continue
                    base_tag = sm.tag(func.value)
                    if (func.attr == "get"
                            and base_tag in (Tag.VIEW, Tag.ROW)):
                        field = self._key_field(sm, node.args[0])
                        if field is not None:
                            reads.add(field)
                elif isinstance(node, ast.Dict) and owned:
                    for key in node.keys:
                        field = self._key_field(sm, key)
                        if field is not None:
                            writes.add(field)
        return frozenset(reads), frozenset(writes)

    @staticmethod
    def _key_field(sm: ScopeMap, key: ast.AST | None) -> str | None:
        if key is None:
            return None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        tag = sm.tag(key)
        return Tag.slot_field(tag)


ALL_RULES: tuple[Rule, ...] = (
    LocalityRule(),
    WriteOwnershipRule(),
    SchemaCoverageRule(),
    DeterminismRule(),
    PathConsistencyRule(),
)

#: Rule catalog for ``statics list`` and the docs.
RULE_CATALOG: tuple[tuple[str, str, str], ...] = (
    ("L001", "L", "global net accessor reached from a neighborhood rule"),
    ("L002", "L", "whole-configuration sweep from a neighborhood rule"),
    ("W001", "W", "in-place register write (rules must return deltas)"),
    ("W002", "W", "mutating method call on a register/state value"),
    ("S001", "S", "field literal does not resolve to a RegisterSpec field"),
    ("S002", "S", "hard-coded slot integer on the slot path"),
    ("D001", "D", "ambient randomness/clock inside a rule"),
    ("D002", "D", "iteration over an unordered set feeds the proposal"),
    ("C001", "C", "read-sets of the rule paths disagree"),
    ("C002", "C", "write-sets of the rule paths disagree"),
)
