"""Rule-surface extraction: from live protocol layers to analyzable ASTs.

The analyzer works on *instances*, not on import paths: given a layer it
resolves each rule entrypoint (``step`` / ``fast_step_slots`` /
``interrupt_step``) through the class MRO, parses the defining module's
source once, and locates the matching ``ast.FunctionDef`` by name and
first line.  From each entrypoint it then walks the call graph —
``self.helper()`` through the MRO of the *concrete* class (so hook
overrides like ``slot_hooks`` resolve to the subclass), bare names
through the defining module, ``self._attr.method()`` through the live
attribute — collecting every reachable function whose source lives in
the repository (or in the module defining the layer's own classes, so
test fixtures analyze like first-class protocols).

Two boundaries are sanctioned and never crossed:

* :meth:`repro.certify.oracle.CertifiedOracle.consult`.  The
  digest-keyed write-once memo is the repo's *mechanism* for letting a
  rule consult a globally-computed decision while remaining a pure
  function of its 1-hop view (see the oracle module's docstring), so
  the compute thunk passed to ``consult`` is exempt from the locality
  rules: traversal stops at the call and the thunk argument's subtree
  is excluded from rule scans.  A rule that reaches the detector
  *without* going through ``consult`` gets no such exemption — that is
  exactly the PR 1 stale-oracle bug, and the L-series test
  re-introduces it to prove the analyzer catches it.
* the observer entrypoints (``OBS_ENTRYPOINTS`` on the protocol
  contract, e.g. ``probe_potential``).  Probes run *between* atomic
  steps, never from inside one, and read the whole configuration by
  design — they are telemetry, not rules, so traversal stops at any
  call into one instead of flagging its global sweep as a locality
  violation.  The probe body itself is simply outside the rule
  surface; nothing a rule computes may depend on it, and the engine
  enforces that by construction (probes fire from the recorder hook,
  not from rule code).
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Optional

from repro.runtime.protocol import OBS_ENTRYPOINTS
from repro.statics.model import Site

__all__ = [
    "FuncUnit",
    "RulePath",
    "SourceModule",
    "build_paths",
    "closure_of",
    "source_module",
]

#: Root of the analyzable package tree (``src/repro``).
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Call-graph traversal depth cap (entrypoint = depth 0).
MAX_DEPTH = 8

_MODULE_CACHE: dict[str, "SourceModule"] = {}


class SourceModule:
    """One parsed source file: AST plus line access, cached per path."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.source = Path(path).read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=path)
        self._funcs: dict[str, list[ast.FunctionDef]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._funcs.setdefault(node.name, []).append(node)

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def function_node(self, fn: FunctionType) -> Optional[ast.FunctionDef]:
        """The ``FunctionDef`` matching a live function, by name + line.

        ``co_firstlineno`` points at the first decorator when the
        function is decorated, so the match tolerates that offset.
        """
        lineno = fn.__code__.co_firstlineno
        candidates = self._funcs.get(fn.__name__, [])
        for node in candidates:
            if node.lineno == lineno:
                return node
            decorators = node.decorator_list
            if decorators and decorators[0].lineno <= lineno <= node.lineno:
                return node
        return None


def source_module(path: str) -> SourceModule:
    cached = _MODULE_CACHE.get(path)
    if cached is None:
        cached = _MODULE_CACHE[path] = SourceModule(path)
    return cached


def read_source_line(file: str, lineno: int) -> str:
    """Waiver-lookup hook shared with :func:`model.apply_waivers`."""
    try:
        return source_module(file).line(lineno)
    except OSError:  # pragma: no cover - vanished file
        return ""


@dataclass
class FuncUnit:
    """One reachable function of a rule surface, ready for rule scans."""

    fn: FunctionType
    node: ast.FunctionDef
    src: SourceModule
    module: ModuleType
    #: instance used to resolve further ``self.x`` calls from this unit
    owner: object | None
    qualname: str
    depth: int
    #: call-site chain (entrypoint-side first) that reached this unit;
    #: inline waivers at any of these sites suppress findings inside it
    via_sites: tuple[Site, ...] = ()
    via_names: tuple[str, ...] = ()
    #: AST nodes (by id) excluded from rule scans: arguments handed to
    #: the sanctioned ``CertifiedOracle.consult`` boundary
    skip_nodes: set[int] = field(default_factory=set)

    def walk(self):
        """``ast.walk`` over this unit minus the sanctioned subtrees."""
        stack: list[ast.AST] = [self.node]
        skip = self.skip_nodes
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class RulePath:
    """One rule implementation path of one layer, transitively closed."""

    path: str                   #: a RULE_ENTRYPOINTS name, e.g. "step"
    layer: object
    units: list[FuncUnit]

    @property
    def entry(self) -> FuncUnit:
        return self.units[0]


# ----------------------------------------------------------------------
# resolution helpers
# ----------------------------------------------------------------------

def _unwrap(obj: object) -> FunctionType | None:
    """A plain function out of methods/static/class wrappers, or None."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    obj = getattr(obj, "__func__", obj)
    return obj if isinstance(obj, FunctionType) else None


def _source_file(fn: FunctionType) -> str | None:
    try:
        path = inspect.getsourcefile(fn)
    except TypeError:  # pragma: no cover - builtins
        return None
    return str(Path(path).resolve()) if path else None


def _allowed_roots(layer: object) -> tuple[Path, ...]:
    """Where traversal may follow calls: the package tree plus the files
    defining the layer's own classes (test fixtures live outside src)."""
    roots = [PACKAGE_ROOT]
    for cls in type(layer).__mro__:
        try:
            path = inspect.getsourcefile(cls)
        except TypeError:
            continue
        if path:
            roots.append(Path(path).resolve().parent)
    return tuple(roots)


def _traversable(fn: FunctionType, roots: tuple[Path, ...]) -> bool:
    path = _source_file(fn)
    if path is None:
        return False
    resolved = Path(path)
    return any(root == resolved.parent or root in resolved.parents
               for root in roots)


def _is_sanctioned(fn: FunctionType) -> bool:
    """The oracle-consult boundary (see module docstring)."""
    return (fn.__qualname__ == "CertifiedOracle.consult"
            and fn.__module__.endswith("certify.oracle"))


def _is_observer(fn: FunctionType) -> bool:
    """The probe boundary (see module docstring): observer entrypoints
    are telemetry outside the rule surface, never chased."""
    return fn.__name__ in OBS_ENTRYPOINTS


def _resolve_call(call: ast.Call, unit: FuncUnit,
                  local_defs: set[str]) -> FunctionType | object | None:
    """Best-effort resolution of a call target to a live function.

    Returns the resolved function (plus, implicitly through
    ``__self__`` on bound methods, its owner), a non-function object, or
    ``None`` when the target is dynamic.  Names defined by nested
    ``def``s inside the same unit resolve to ``None`` — their bodies are
    already part of this unit's AST and must not be enqueued twice.
    """
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in local_defs:
            return None
        return unit.module.__dict__.get(func.id)
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    owner = unit.owner
    # self.method(...)
    if isinstance(base, ast.Name):
        if base.id == "self" and owner is not None:
            return getattr(type(owner), func.attr, None)
        target = unit.module.__dict__.get(base.id)
        if target is not None and not isinstance(target, type):
            # module.function(...) — modules only; instances at module
            # scope are registries, not rule helpers
            if isinstance(target, ModuleType):
                return target.__dict__.get(func.attr)
        return None
    # self._attr.method(...): resolve through the live instance
    if (isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self" and owner is not None):
        try:
            held = getattr(owner, base.attr)
        except AttributeError:
            return None
        return getattr(held, func.attr, None)
    return None


def _local_def_names(node: ast.FunctionDef) -> set[str]:
    return {child.name for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node}


# ----------------------------------------------------------------------
# closure construction
# ----------------------------------------------------------------------

def _make_unit(fn: FunctionType, owner: object | None, depth: int,
               via_sites: tuple[Site, ...],
               via_names: tuple[str, ...]) -> FuncUnit | None:
    path = _source_file(fn)
    if path is None:
        return None
    try:
        src = source_module(path)
    except (OSError, SyntaxError):  # pragma: no cover - unreadable source
        return None
    node = src.function_node(fn)
    if node is None:
        return None
    module = inspect.getmodule(fn)
    if module is None:
        return None
    return FuncUnit(fn=fn, node=node, src=src, module=module, owner=owner,
                    qualname=fn.__qualname__, depth=depth,
                    via_sites=via_sites, via_names=via_names)


def closure_of(entry_fn: FunctionType, owner: object) -> list[FuncUnit]:
    """Transitive call closure of one entrypoint, sanctioned-boundary
    aware; the entry unit always comes first."""
    roots = _allowed_roots(owner)
    units: list[FuncUnit] = []
    seen: set[object] = set()
    queue: list[FuncUnit] = []

    first = _make_unit(entry_fn, owner, 0, (), ())
    if first is None:
        return []
    seen.add(entry_fn.__code__)
    queue.append(first)

    while queue:
        unit = queue.pop(0)
        units.append(unit)
        if unit.depth >= MAX_DEPTH:
            continue
        local_defs = _local_def_names(unit.node)
        for node in unit.walk():
            if not isinstance(node, ast.Call):
                continue
            raw = _resolve_call(node, unit, local_defs)
            if raw is None:
                continue
            bound_owner = getattr(raw, "__self__", None)
            fn = _unwrap(raw)
            if fn is None:
                continue
            if _is_sanctioned(fn):
                # the compute thunk handed to the oracle memo is exempt
                # from rule scans: it is the sanctioned global read
                for arg in node.args[1:]:
                    for sub in ast.walk(arg):
                        unit.skip_nodes.add(id(sub))
                continue
            if _is_observer(fn):
                # probe callbacks are telemetry between atomic steps,
                # not rule code: stop at the boundary, scan nothing
                continue
            if fn.__code__ in seen or not _traversable(fn, roots):
                continue
            seen.add(fn.__code__)
            if bound_owner is not None and not isinstance(bound_owner, type):
                callee_owner: object | None = bound_owner
            elif (fn.__code__.co_argcount
                    and fn.__code__.co_varnames[0] == "self"):
                callee_owner = unit.owner
            else:
                callee_owner = None
            site = Site(unit.src.path, node.lineno)
            sub = _make_unit(fn, callee_owner, unit.depth + 1,
                             unit.via_sites + (site,),
                             unit.via_names + (unit.qualname,))
            if sub is not None:
                queue.append(sub)
    return units


# ----------------------------------------------------------------------
# rule-path discovery
# ----------------------------------------------------------------------

def build_paths(layer: object) -> list[RulePath]:
    """The implemented rule paths of one layer, each transitively closed.

    Uses the layer's machine-readable contract
    (:meth:`repro.runtime.protocol.Protocol.rule_contract`) to decide
    which entrypoints exist, so the analyzer and the runtime agree on
    what the rule surface *is*.
    """
    contract = layer.rule_contract()
    paths: list[RulePath] = []
    for name, implemented in contract["entrypoints"].items():
        if not implemented:
            continue
        entry = _unwrap(inspect.getattr_static(type(layer), name, None)
                        or getattr(type(layer), name, None))
        if entry is None:
            continue
        units = closure_of(entry, layer)
        if units:
            paths.append(RulePath(path=name, layer=layer, units=units))
    return paths
