"""Parity surface: one enumeration signature, one owner of the dirty path.

Static structures have one enumerator — the columnar kernel; the
recursive transcription of Algorithm 2 is the executable spec under
``tests/`` and the parity between the two is a test matrix
(``tests/test_columnar_kernel.py``), not something a class carries. What
is still pinned statically, on every serving representation class (one
that defines ``enumerate_from``):

* **Signatures** of same-name entry points are identical across
  classes — pinned here as the canonical parameter lists — so cursors,
  shared scans, and resume tokens treat representations
  interchangeably.
* The **dirty fallback** (a ``LazyView`` over base ∪ Δ) is constructed
  in ``FrozenDynamicView`` and nowhere else: any other class building
  one is a second dirty path — read through
  ``DynamicRepresentation.freeze()`` instead. This clause goes when the
  compiled delta overlay replaces that branch (ROADMAP, "One
  enumerator").
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
}

_SURFACE_MARKER = "enumerate_from"

#: The one class allowed to construct the dirty fallback.
_DIRTY_PATH_OWNER = "FrozenDynamicView"


def _call_target(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class ParitySurfaceRule(Rule):
    """Pin entry-point signatures and the single owner of the dirty path."""

    id = "parity-surface"
    description = (
        "serving representation classes keep canonical enumerate* "
        "signatures, and the dirty fallback is FrozenDynamicView's alone"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield signature drift and second dirty paths."""
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
            if _SURFACE_MARKER not in methods:
                continue
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
