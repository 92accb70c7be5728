"""Convention-based value tagging for rule-surface expressions.

The rule series need to know, for an arbitrary expression inside a rule,
*what kind of value* it denotes: the network, the configuration, a
node's register (own or a neighbor's), a local scratch dict, a compiled
slot index, an unordered set.  Full dataflow analysis is out of scope —
instead this module exploits the repo's rigid rule-surface calling
conventions (``step(self, view)``, ``fast_step_slots(self, schema)``
with its compiled ``rule(net, config, node, own, nbr_rows)``) to seed
parameter tags by name, then propagates tags through the straight-line
assignments, loop targets and comprehension generators of each function
scope.  Two derived shapes
keep their register tag: a comprehension re-packing ``(id, register)``
pairs (``children = [(u, st) for u, st in nbr_rows if ...]``) is itself
a neighbor-row sequence, and a call to a nested helper ``def`` carries
the merged tag of the helper's ``return`` values (a local
``row_of(u)`` returning a neighbor's row is a register).

Known limitation (documented, deliberate): a name is tagged with its
*final* binding in the scope — ``cur = own`` rebound to ``cur =
own.copy()`` tags ``cur`` as a local dict, which matches the only idiom
the runtime uses (copy-before-mutate).  Instance-attribute caches
(``self._bound_net`` style memoization) are opaque to the tagger and
therefore exempt from the determinism rules; the seeding suite still
exercises those dynamically.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from typing import Optional

__all__ = ["Tag", "ScopeEnv", "ScopeMap", "build_scopes"]


class Tag:
    """Value-kind tags (plain strings; ``SLOT:<field>`` carries a field)."""

    VIEW = "VIEW"            #: a NodeView
    NET = "NET"              #: the Network
    CONFIG = "CONFIG"        #: the whole configuration mapping
    ROW = "ROW"              #: one node's register (dict, SlotState or row)
    NBR_ROWS = "NBR_ROWS"    #: the (neighbor, register) pair sequence
    SCHEMA = "SCHEMA"        #: a StateSchema
    SINDEX = "SINDEX"        #: schema.index (name -> slot table)
    LOCALDICT = "LOCALDICT"  #: a scratch dict owned by the rule
    SETVAL = "SETVAL"        #: an unordered set/frozenset value
    NODE = "NODE"            #: a node identity
    OBS = "OBS"              #: a telemetry recorder/probe handle — opaque
                             #: plumbing outside the rule dataflow (the
                             #: scan stops at observer entrypoints, so a
                             #: tagged handle never reaches a rule scan;
                             #: the tag keeps the convention explicit)
    OTHER = "OTHER"

    SLOT_PREFIX = "SLOT:"

    @staticmethod
    def slot(field: str) -> str:
        return Tag.SLOT_PREFIX + field

    @staticmethod
    def slot_field(tag: str) -> Optional[str]:
        if tag.startswith(Tag.SLOT_PREFIX):
            return tag[len(Tag.SLOT_PREFIX):]
        return None


#: Parameter-name conventions of the rule surfaces (see module docstring).
PARAM_TAGS: dict[str, str] = {
    "view": Tag.VIEW,
    "layer_view": Tag.VIEW,
    "net": Tag.NET,
    "config": Tag.CONFIG,
    "own": Tag.ROW,
    "cur": Tag.ROW,
    "st": Tag.ROW,
    "state": Tag.ROW,
    "nbr_rows": Tag.NBR_ROWS,
    "rows": Tag.NBR_ROWS,
    "schema": Tag.SCHEMA,
    "node": Tag.NODE,
    "me": Tag.NODE,
    "intended": Tag.LOCALDICT,
    "delta": Tag.LOCALDICT,
    "updates": Tag.LOCALDICT,
    "recorder": Tag.OBS,
    "probe": Tag.OBS,
}

#: NodeView attributes yielding state-plane values.
_VIEW_STATE_ATTRS = {"state": Tag.ROW, "_config": Tag.CONFIG, "net": Tag.NET}

#: NodeView method calls yielding state-plane values.
_VIEW_STATE_CALLS = {"nbr": Tag.ROW, "nbr_or_none": Tag.ROW,
                     "nbr_states": Tag.NBR_ROWS}


class ScopeEnv:
    """Name -> tag for one function/lambda scope, chained to its parent."""

    def __init__(self, node: ast.AST, parent: Optional["ScopeEnv"]) -> None:
        self.node = node
        self.parent = parent
        self.names: dict[str, str] = {}
        #: directly nested scopes (defs and lambdas)
        self.sub_scopes: list[ast.AST] = []
        #: nested helper defs of this scope, by name
        self.defs: dict[str, ast.AST] = {}
        #: helper def (by id) -> merged tag of its return values
        self._returns: dict[int, str] = {}

    def lookup(self, name: str) -> str:
        env: Optional[ScopeEnv] = self
        while env is not None:
            tag = env.names.get(name)
            if tag is not None:
                return tag
            env = env.parent
        return Tag.OTHER

    # -- expression tagging -------------------------------------------

    def tag(self, node: ast.AST) -> str:
        """The value-kind tag of an expression in this scope."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return self._tag_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._tag_subscript(node)
        if isinstance(node, ast.Call):
            return self._tag_call(node)
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return Tag.LOCALDICT
        if isinstance(node, (ast.Set, ast.SetComp)):
            return Tag.SETVAL
        if isinstance(node, ast.IfExp):
            return self._prefer(self.tag(node.body), self.tag(node.orelse))
        if isinstance(node, ast.BoolOp):
            tags = [self.tag(v) for v in node.values]
            out = Tag.OTHER
            for t in tags:
                out = self._prefer(out, t)
            return out
        if isinstance(node, ast.NamedExpr):
            return self.tag(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._tag_comprehension(node)
        return Tag.OTHER

    def _tag_comprehension(self, node: ast.ListComp | ast.GeneratorExp
                           ) -> str:
        """``(id, register)`` pairs re-packed from a row sequence (a
        filtered children list) are neighbor rows themselves."""
        elt = node.elt
        if not (isinstance(elt, ast.Tuple) and len(elt.elts) == 2):
            return Tag.OTHER
        env = ScopeEnv(node, self)
        env.process_assignments(node.generators)
        return Tag.NBR_ROWS if env.tag(elt.elts[1]) == Tag.ROW else Tag.OTHER

    def _return_tag(self, name: str) -> str:
        """The merged tag of the ``return`` values of the nested helper
        ``name`` visible from this scope (OTHER when there is none)."""
        env: Optional[ScopeEnv] = self
        while env is not None and name not in env.defs:
            env = env.parent
        if env is None:
            return Tag.OTHER
        fn = env.defs[name]
        cached = env._returns.get(id(fn))
        if cached is not None:
            return cached
        env._returns[id(fn)] = Tag.OTHER  # recursion guard
        body_env = _scope_env(fn, env)
        out = Tag.OTHER
        for stmt in _scope_body(fn)[0]:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                out = self._prefer(out, body_env.tag(stmt.value))
        env._returns[id(fn)] = out
        return out

    @staticmethod
    def _prefer(a: str, b: str) -> str:
        """Merge branch tags: a state-plane tag wins over OTHER/constants
        (``view.nbr(p) if ... else None`` is still a register)."""
        if a == Tag.OTHER:
            return b
        if b == Tag.OTHER:
            return a
        return a if a == b else Tag.OTHER

    def _tag_attribute(self, node: ast.Attribute) -> str:
        base = self.tag(node.value)
        if base == Tag.VIEW:
            return _VIEW_STATE_ATTRS.get(node.attr, Tag.OTHER)
        if base == Tag.SCHEMA and node.attr == "index":
            return Tag.SINDEX
        if base == Tag.ROW and node.attr == "row":
            return Tag.ROW  # SlotState.row: same register, raw plane
        return Tag.OTHER

    def _tag_subscript(self, node: ast.Subscript) -> str:
        base = self.tag(node.value)
        if base == Tag.CONFIG:
            return Tag.ROW
        if base == Tag.SINDEX:
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return Tag.slot(key.value)
        return Tag.OTHER

    def _tag_call(self, node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                return Tag.SETVAL
            if func.id == "dict":
                return Tag.LOCALDICT
            return self._return_tag(func.id)
        if not isinstance(func, ast.Attribute):
            return Tag.OTHER
        base = self.tag(func.value)
        attr = func.attr
        if base == Tag.VIEW and attr in _VIEW_STATE_CALLS:
            return _VIEW_STATE_CALLS[attr]
        if base == Tag.SCHEMA and attr == "slot":
            key = node.args[0] if node.args else None
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return Tag.slot(key.value)
        if base == Tag.SINDEX and attr == "get":
            key = node.args[0] if node.args else None
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return Tag.slot(key.value)
        if base == Tag.NET and attr == "neighbor_set":
            return Tag.SETVAL
        if attr == "copy" and base in (Tag.ROW, Tag.LOCALDICT):
            return Tag.LOCALDICT
        return Tag.OTHER

    # -- binding construction -----------------------------------------

    def bind_target(self, target: ast.AST, value_tag: str,
                    value: ast.AST | None = None) -> None:
        if isinstance(target, ast.Name):
            self.names[target.id] = value_tag
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                for t, v in zip(target.elts, value.elts):
                    self.bind_target(t, self.tag(v), v)
                return
            slot_fields = self._slots_call_fields(value)
            if slot_fields is not None and \
                    len(slot_fields) == len(target.elts):
                # RID, PAR, D = schema.slots("rid", "par", "d")
                for t, field in zip(target.elts, slot_fields):
                    self.bind_target(t, Tag.slot(field))
                return
            if value_tag == Tag.NBR_ROWS and len(target.elts) == 2:
                # for u, st in nbr_rows: ...
                self.bind_target(target.elts[0], Tag.NODE)
                self.bind_target(target.elts[1], Tag.ROW)
                return
            for t in target.elts:
                self.bind_target(t, Tag.OTHER)

    def _slots_call_fields(self, value: ast.AST | None
                           ) -> Optional[list[str]]:
        """The field names of a ``schema.slots("a", "b", ...)`` call, or
        None when ``value`` is anything else (dynamic args included)."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "slots"
                and not value.keywords
                and self.tag(value.func.value) == Tag.SCHEMA):
            return None
        fields: list[str] = []
        for arg in value.args:
            if not (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                return None
            fields.append(arg.value)
        return fields

    def process_assignments(self, stmts: Sequence[ast.AST]) -> None:
        """Seed bindings from the scope's assignments in source order."""
        for node in stmts:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self.bind_target(target, self.tag(node.value), node.value)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is not None:
                    self.bind_target(node.target, self.tag(node.value),
                                     node.value)
            elif isinstance(node, ast.NamedExpr):
                self.bind_target(node.target, self.tag(node.value),
                                 node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iter_tag = self.tag(node.iter)
                if iter_tag == Tag.NBR_ROWS:
                    self.bind_target(node.target, Tag.NBR_ROWS)
                else:
                    self.bind_target(node.target, Tag.OTHER)
            elif isinstance(node, ast.comprehension):
                iter_tag = self.tag(node.iter)
                if iter_tag == Tag.NBR_ROWS:
                    self.bind_target(node.target, Tag.NBR_ROWS)
                else:
                    self.bind_target(node.target, Tag.OTHER)


def _is_scope(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda))


def _source_pos(node: ast.AST) -> tuple[int, int]:
    # comprehension generators carry no position: use their target's,
    # so they bind in source order like every other statement
    if isinstance(node, ast.comprehension):
        node = node.target
    return getattr(node, "lineno", 0), getattr(node, "col_offset", 0)


def _scope_body(scope_node: ast.AST) -> tuple[list[ast.AST], list[ast.AST]]:
    """A scope's own nodes in source order (not descending into nested
    scopes) and its directly nested scopes."""
    own_stmts: list[ast.AST] = []
    sub_scopes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope_node))
    while stack:
        node = stack.pop(0)
        if _is_scope(node):
            sub_scopes.append(node)
            continue
        own_stmts.append(node)
        stack.extend(ast.iter_child_nodes(node))
    own_stmts.sort(key=_source_pos)
    return own_stmts, sub_scopes


def _scope_env(scope_node: ast.AST, parent: Optional[ScopeEnv]) -> ScopeEnv:
    """The bindings of one scope: parameter seeds, nested helper defs,
    then its assignments in source order."""
    env = ScopeEnv(scope_node, parent)
    _seed_params(env, scope_node)
    own_stmts, env.sub_scopes = _scope_body(scope_node)
    for sub in env.sub_scopes:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env.defs[sub.name] = sub
    env.process_assignments(own_stmts)
    return env


def _seed_params(env: ScopeEnv, node: ast.AST) -> None:
    args = getattr(node, "args", None)
    if args is None:
        return
    all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    for arg in all_args:
        tag = PARAM_TAGS.get(arg.arg)
        if tag is not None:
            env.names[arg.arg] = tag


class ScopeMap:
    """The scope environments of one function unit plus node -> scope
    resolution (via a parent map over the whole subtree)."""

    def __init__(self, root: ast.FunctionDef) -> None:
        self.root = root
        self.envs: dict[int, ScopeEnv] = {}
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._build(root, None)

    def _build(self, scope_node: ast.AST, parent: Optional[ScopeEnv]) -> None:
        env = _scope_env(scope_node, parent)
        self.envs[id(scope_node)] = env
        for sub in env.sub_scopes:
            self._build(sub, env)

    def scope_of(self, node: ast.AST) -> ScopeEnv:
        """The innermost scope environment enclosing ``node``."""
        cur: ast.AST | None = node
        while cur is not None:
            env = self.envs.get(id(cur))
            if env is not None:
                return env
            cur = self._parents.get(id(cur))
        return self.envs[id(self.root)]

    def tag(self, node: ast.AST) -> str:
        """Tag an expression in its own enclosing scope."""
        return self.scope_of(node).tag(node)


def build_scopes(root: ast.FunctionDef) -> ScopeMap:
    """Scope environments for ``root`` and every nested def/lambda.

    Comprehension generators bind into the *enclosing* function scope (a
    harmless over-approximation that keeps loop-variable tags visible to
    the element expressions)."""
    return ScopeMap(root)
