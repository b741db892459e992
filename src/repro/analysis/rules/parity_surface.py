"""Parity surface: every enumeration entry point keeps kernel + reference.

The columnar kernel's headline guarantee is *bit-identical parity*: any
``enumerate*``/``shared_enumerate`` entry point answers identically
through the compiled-layout kernel and the reference tuple-at-a-time
walk — rows and, under a counter, logical steps — and every entry point
can fall back (stale layouts, ``--kernel=off``). Dirty dynamic buffers
are not a per-class fallback: a dirty version is read by
``FrozenDynamicView`` alone.
Parity erodes silently: a new entry point added with only one of the two
routes still passes its own tests. This rule pins the surface on every
serving representation class (one that defines ``enumerate_from`` or
``shared_enumerate``):

* **Signatures** of same-name entry points are identical across
  classes — pinned here as the canonical parameter lists — so cursors,
  shared scans, and resume tokens treat representations
  interchangeably.
* In classes that route to the kernel (reference any ``kernel_*``
  name), each entry point either **delegates** to a sibling entry
  point, or carries **both** routes: a ``kernel_*`` call and a
  non-kernel reference yield/return.
* The **dirty fallback** (a ``LazyView`` over base ∪ Δ) is constructed
  in ``FrozenDynamicView`` and nowhere else: any other class building
  one is a second dirty path — read through
  ``DynamicRepresentation.freeze()`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleInfo, Rule, register

#: The canonical serving-surface signatures (positional parameter names).
ENTRY_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "enumerate": ("self", "access", "counter"),
    "enumerate_from": ("self", "access", "start_values", "counter"),
    "enumerate_after": ("self", "access", "last", "counter"),
    "shared_enumerate": (
        "self",
        "accesses",
        "starts",
        "counters",
        "cache",
        "alive",
    ),
}

_SURFACE_MARKERS = {"enumerate_from", "shared_enumerate"}

#: The one class allowed to construct the dirty fallback.
_DIRTY_PATH_OWNER = "FrozenDynamicView"


def _references_kernel(node: ast.AST) -> bool:
    """True when the class *calls* a ``kernel_*`` function.

    Only calls count: merely exposing a ``kernel_ready`` property (as
    the decomposed/dynamic wrappers do) does not make a class
    kernel-routed.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        target = _call_target(sub)
        if target is not None and target.startswith("kernel_"):
            return True
    return False


def _call_target(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _routes(method: ast.FunctionDef) -> Tuple[bool, bool, bool]:
    """(has kernel call, has reference route, delegates to a sibling)."""
    kernel = False
    reference = False
    delegates = False
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            target = _call_target(node)
            if target is None:
                continue
            if target.startswith("kernel_"):
                kernel = True
            if target in ENTRY_SIGNATURES and (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                delegates = True
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Return)):
            value = node.value
            if value is None:
                continue
            if isinstance(value, ast.Call):
                target = _call_target(value)
                if target is not None and target.startswith("kernel_"):
                    continue
            reference = True
    return kernel, reference, delegates


@register
class ParitySurfaceRule(Rule):
    """Pin entry-point signatures and the kernel/reference dual route."""

    id = "parity-surface"
    description = (
        "serving representation classes keep canonical enumerate* "
        "signatures, kernel-routed classes keep a reference fallback "
        "on every entry point, and the dirty fallback is "
        "FrozenDynamicView's alone"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield signature drift and missing kernel/reference routes."""
        for cls in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]:
            methods = {
                n.name: n
                for n in cls.body
                if isinstance(n, ast.FunctionDef)
            }
            if cls.name != _DIRTY_PATH_OWNER:
                for sub in ast.walk(cls):
                    if (
                        isinstance(sub, ast.Call)
                        and _call_target(sub) == "LazyView"
                    ):
                        yield self.finding(
                            module,
                            sub,
                            scope=cls.name,
                            key=f"{cls.name}:dirty-fallback",
                            message=(
                                f"{cls.name} constructs a LazyView — the "
                                f"dirty fallback is {_DIRTY_PATH_OWNER}'s "
                                f"alone; read through "
                                f"DynamicRepresentation.freeze()"
                            ),
                        )
            if not (_SURFACE_MARKERS & set(methods)):
                continue
            kernel_class = _references_kernel(cls)
            for name, expected in ENTRY_SIGNATURES.items():
                method = methods.get(name)
                if method is None:
                    continue
                params = tuple(arg.arg for arg in method.args.args)
                if params != expected:
                    yield self.finding(
                        module,
                        method,
                        scope=f"{cls.name}.{name}",
                        key=f"{cls.name}.{name}:signature",
                        message=(
                            f"{cls.name}.{name} signature {params!r} "
                            f"drifts from the canonical serving surface "
                            f"{expected!r} — cursors and shared scans "
                            f"treat representations interchangeably"
                        ),
                    )
                if not kernel_class:
                    continue
                kernel, reference, delegates = _routes(method)
                if delegates and not kernel:
                    continue  # rides a sibling's dual route
                if not kernel:
                    yield self.finding(
                        module,
                        method,
                        scope=f"{cls.name}.{name}",
                        key=f"{cls.name}.{name}:kernel-route",
                        message=(
                            f"{cls.name}.{name} has no kernel route "
                            f"(and does not delegate to a sibling entry "
                            f"point) in a kernel-routed class"
                        ),
                    )
                if not reference:
                    yield self.finding(
                        module,
                        method,
                        scope=f"{cls.name}.{name}",
                        key=f"{cls.name}.{name}:reference-route",
                        message=(
                            f"{cls.name}.{name} has no reference "
                            f"fallback — stale layouts and "
                            f"--kernel=off need the non-kernel walk "
                            f"(dirty versions are {_DIRTY_PATH_OWNER}'s)"
                        ),
                    )
