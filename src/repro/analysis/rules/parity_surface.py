"""Parity surface: one enumeration signature on every serving class.

There is one enumerator — the columnar kernel, for static structures
and for both backings of a dynamic version; the recursive transcription
of Algorithm 2 is the executable spec under ``tests/`` and the parity
between the two is a test matrix (``tests/test_columnar_kernel.py``,
``tests/test_dirty_versions.py``), not something a class carries. What
is still pinned statically, on every serving representation class (one
that defines ``enumerate_from``): the **signatures** of same-name entry
points are identical across classes — pinned here as the canonical
parameter lists — so cursors, shared scans, and resume tokens treat
representations interchangeably.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleInfo, Rule, register

#: The canonical serving-surface signatures (positional parameter names).
ENTRY_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "enumerate": ("self", "access", "counter"),
    "enumerate_from": ("self", "access", "start_values", "counter"),
    "enumerate_after": ("self", "access", "last", "counter"),
}

_SURFACE_MARKER = "enumerate_from"


@register
class ParitySurfaceRule(Rule):
    """Pin the entry-point signatures of serving representation classes."""

    id = "parity-surface"
    description = (
        "serving representation classes keep canonical enumerate* "
        "signatures"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield signature drift."""
        for cls in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]:
            methods = {
                n.name: n
                for n in cls.body
                if isinstance(n, ast.FunctionDef)
            }
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
