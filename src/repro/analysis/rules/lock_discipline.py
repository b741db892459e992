"""Lock discipline: guarded attributes must be accessed under their lock.

The engine's thread-safe classes follow one idiom: ``__init__`` creates
``self._lock`` (or several, e.g. ``_admin_lock``/``_routes_lock``;
or borrows its owner's through a ``lock`` parameter), and every shared attribute is read and written inside ``with
self._lock:`` blocks. The rule *infers* each class's guarded set — an
attribute is guarded by the locks it is ever accessed under, provided
something mutates it after construction (write-once configuration read
inside a locked region is not thereby guarded) — and flags any access
to a guarded attribute outside a lock context. Methods and properties
are exempt: they live on the class object and never rebind. That is
exactly the class of bug the cache ``keys()``-snapshot race was: a
consistently-guarded attribute read once, casually, without the lock.

What counts as "under the lock":

* the body of a ``with self.<lock>:`` statement (nested locks stack);
* the body of a *locked helper* — a method whose name ends in
  ``_locked`` (the repo's caller-holds-the-lock convention), or a
  private method whose every in-class call site is itself under a lock
  (computed to a fixpoint, so helpers calling helpers resolve);
* ``__init__``, where the instance is not yet shared.

A nested function or lambda resets the held-lock context: it runs
later, when the enclosing ``with`` has long exited.

False positives (e.g. a deliberate benign race on a cache of
idempotently-computed handles) get an inline
``# analysis: allow[lock-discipline] reason`` on the access.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleInfo, Rule, register

_LOCK_FACTORIES = {"Lock", "RLock", "named_lock", "make_lock"}

#: Container methods that mutate their receiver in place. A call like
#: ``self._building.add(key)`` counts as a *write* to ``_building``.
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}


def _call_name(node: ast.AST) -> str:
    """The trailing identifier of a call target (``threading.Lock`` -> Lock)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _self_attr(node: ast.AST) -> str:
    """``X`` when node is ``self.X``, else the empty string."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _store_base(node: ast.AST) -> str:
    """The attribute a store target mutates: ``self.X[i]`` -> ``X``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr(node)


@dataclass
class _Access:
    """One ``self.X`` touch: where, and which locks were held."""

    attr: str
    method: str
    node: ast.AST
    held: Tuple[str, ...]


@dataclass
class _MethodInfo:
    name: str
    accesses: List[_Access] = field(default_factory=list)
    # Calls to sibling methods: name -> list of held-lock tuples, one
    # per call site in this method.
    calls: Dict[str, List[Tuple[str, ...]]] = field(default_factory=dict)
    # Attributes this method mutates (assignment, augmented assignment,
    # subscript store, del, or an in-place mutator call).
    writes: Set[str] = field(default_factory=set)
    # The same mutations with their lock context: (attr, held) pairs.
    write_accesses: List[Tuple[str, Tuple[str, ...]]] = field(
        default_factory=list
    )


class _ClassScanner:
    """Collect accesses, lock contexts, and sibling calls for one class."""

    def __init__(self, cls: ast.ClassDef, locks: Set[str]):
        self.cls = cls
        self.locks = locks
        self.methods: Dict[str, _MethodInfo] = {}

    def scan(self) -> None:
        for child in self.cls.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _MethodInfo(child.name)
                self.methods[child.name] = info
                self._walk(child.body, info, held=())

    def _walk(self, nodes, info: _MethodInfo, held: Tuple[str, ...]) -> None:
        for node in nodes:
            self._visit(node, info, held)

    def _visit(self, node, info: _MethodInfo, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A deferred body: whatever lock is held now is NOT held when
            # this eventually runs.
            body = node.body if isinstance(node.body, list) else [node.body]
            self._walk(body, info, held=())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = [
                attr
                for item in node.items
                if (attr := _self_attr(item.context_expr)) in self.locks
            ]
            for item in node.items:
                self._visit(item.context_expr, info, held)
            self._walk(node.body, info, tuple(dict.fromkeys(held + tuple(acquired))))
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                base = _store_base(target)
                if base and base not in self.locks:
                    info.writes.add(base)
                    info.write_accesses.append((base, held))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = _store_base(target)
                if base and base not in self.locks:
                    info.writes.add(base)
                    info.write_accesses.append((base, held))
        if isinstance(node, ast.Call):
            callee = node.func
            method = _self_attr(callee)
            if method:
                info.calls.setdefault(method, []).append(held)
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in _MUTATORS
            ):
                base = _store_base(callee.value)
                if base and base not in self.locks:
                    info.writes.add(base)
                    info.write_accesses.append((base, held))
            for child in ast.iter_child_nodes(node):
                self._visit(child, info, held)
            return
        attr = _self_attr(node)
        if attr and attr not in self.locks:
            info.accesses.append(_Access(attr, info.name, node, held))
        for child in ast.iter_child_nodes(node):
            self._visit(child, info, held)


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes assigned a lock object anywhere in the class.

    Either created here (a lock factory call) or borrowed: ``self._lock
    = lock`` from a variable named ``*lock`` — ``engine/epoch.py``'s
    ``Epochs`` guards its state with its owner's lock.
    """
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        created = (
            isinstance(value, ast.Call)
            and _call_name(value) in _LOCK_FACTORIES
        )
        borrowed = isinstance(value, ast.Name) and value.id.endswith("lock")
        if created or borrowed:
            for target in node.targets:
                attr = _self_attr(target)
                if attr:
                    locks.add(attr)
    return locks


def _locked_helpers(methods: Dict[str, _MethodInfo]) -> Set[str]:
    """Methods whose body runs with the lock held by convention.

    ``*_locked`` names declare it; otherwise a private method qualifies
    when it is called at least once and every in-class call site holds a
    lock or sits inside an already-qualified helper — iterated to a
    fixpoint so chains of helpers resolve.
    """
    helpers = {name for name in methods if name.endswith("_locked")}
    changed = True
    while changed:
        changed = False
        for name in methods:
            if name in helpers:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue
            # Call sites from *other* methods (self-recursion doesn't
            # vouch): (caller name, locks held at the call).
            sites = [
                (caller.name, held)
                for caller in methods.values()
                if caller.name != name
                for held in caller.calls.get(name, ())
            ]
            if sites and all(
                held or caller in helpers for caller, held in sites
            ):
                helpers.add(name)
                changed = True
    return helpers


@register
class LockDisciplineRule(Rule):
    """Flag unguarded access to attributes a class guards with a lock."""

    id = "lock-discipline"
    description = (
        "attributes accessed under `with self._lock` anywhere must be "
        "accessed under that lock everywhere (outside __init__ and "
        "caller-holds-lock helpers)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield unguarded accesses per lock-owning class."""
        for cls in [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        ]:
            locks = _lock_attrs(cls)
            if not locks:
                continue
            scanner = _ClassScanner(cls, locks)
            scanner.scan()
            helpers = _locked_helpers(scanner.methods)
            # Write-once configuration (assigned in __init__, only read
            # afterwards) cannot race: guardedness requires a mutation
            # somewhere after construction. Helper methods count — they
            # run post-construction on the caller's behalf.
            written: Set[str] = set()
            for info in scanner.methods.values():
                if info.name != "__init__":
                    written |= info.writes
            # Owners come from the locks held while *writing* — the
            # writer defines the protocol. Attributes whose writes all
            # sit inside locked helpers (where held is empty but the
            # caller holds the lock) fall back to the union of locks
            # held at any access.
            write_owned: Dict[str, Set[str]] = {}
            any_owned: Dict[str, Set[str]] = {}
            for info in scanner.methods.values():
                if info.name == "__init__" or info.name in helpers:
                    continue
                for attr, held in info.write_accesses:
                    if held and attr in written:
                        write_owned.setdefault(attr, set()).update(held)
                for access in info.accesses:
                    if access.held and access.attr in written:
                        any_owned.setdefault(access.attr, set()).update(
                            access.held
                        )
            guarded = {
                attr: write_owned.get(attr) or owners
                for attr, owners in any_owned.items()
            }
            for info in scanner.methods.values():
                if info.name == "__init__" or info.name in helpers:
                    continue
                for access in info.accesses:
                    # Methods and properties live on the class object and
                    # never rebind per-instance; calling one unguarded is
                    # fine (whether its *body* needs the lock is what the
                    # helper fixpoint answers).
                    if access.attr in scanner.methods:
                        continue
                    owners = guarded.get(access.attr)
                    if not owners:
                        continue
                    if set(access.held) & owners:
                        continue
                    where = (
                        f"under {'/'.join(sorted(access.held))} only"
                        if access.held
                        else "without a lock"
                    )
                    yield self.finding(
                        module,
                        access.node,
                        scope=f"{cls.name}.{info.name}",
                        key=f"{cls.name}.{info.name}:{access.attr}",
                        message=(
                            f"{cls.name}.{info.name} accesses "
                            f"self.{access.attr} {where}; it is guarded "
                            f"by {'/'.join(sorted(owners))} elsewhere"
                        ),
                    )
