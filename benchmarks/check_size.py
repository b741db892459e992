"""Size gate: source lines of code per package, counted from the AST.

"Net-negative" is a roadmap aim, so it needs a number nobody can move
by reflowing: a line counts when it carries at least one code token —
blank lines, comment-only lines and docstrings (the first statement of
a module, class or function, when it is a string) do not. Docstrings
and comments are documentation the repo wants *more* of; only code is
weighed.

Usage: ``python benchmarks/check_size.py [ROOT]`` prints one row per
package under ``ROOT/src/repro`` (default: this file's grandparent),
the engine per file, the CLI (``src/repro/__main__.py``, the largest
single file) on its own line under the top-level modules, and the
total. ``tests/test_ci_pipeline.py`` pins the engine package's figure,
the CLI's and the total as ceilings, so growing any of them is a
decision, not an accident — and moving code between packages shrinks
nothing. Code
moved out of ``src/`` to be the tests' reference is printed on its own
line after the total (:data:`SPEC`, :data:`BUILD_SPEC`,
:data:`INDEX_SPEC`), so it reads as moved, not as deleted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set

#: Algorithm 2's recursive walk: lived under ``src/repro/core`` until the
#: kernel became the only route, now the tests' executable spec —
#: weighed, shown, and not part of the total.
SPEC = "tests/reference_walk.py"

#: Section 4.3's object-based preprocessing (f-box classes, per-box trie
#: descents, Algorithm 1 on fresh boxes): lived under ``src/repro/core``
#: until the build moved to index space, now the build's executable spec.
BUILD_SPEC = "tests/reference_build.py"

#: The value-space index and join (sorted tries, the generic join over
#: them, Proposition 4's bags built with both): lived under
#: ``src/repro/database`` and ``src/repro/joins`` until every reader —
#: the build, the baselines, the bags — joined on the context's columns,
#: now the spec those readers are held to.
INDEX_SPEC = "tests/reference_index.py"

#: The CLI: one file wiring every back end, shown on its own line.
MAIN = "__main__.py"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def sloc(source: str) -> int:
    """Lines of ``source`` carrying code: no blanks, comments, docstrings."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def file_sloc(path: Path) -> int:
    """:func:`sloc` of one file."""
    return sloc(path.read_text(encoding="utf-8"))


def package_sloc(package: Path) -> Dict[str, int]:
    """``{relative file: sloc}`` of every module under ``package``."""
    return {
        str(path.relative_to(package)): file_sloc(path)
        for path in sorted(package.rglob("*.py"))
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    source = root / "src" / "repro"
    total = 0
    for package in sorted(p for p in source.iterdir() if p.is_dir()):
        files = package_sloc(package)
        if not files:
            continue
        count = sum(files.values())
        total += count
        print(f"{count:7d}  src/repro/{package.name}/")
        if package.name == "engine":
            for name, lines in files.items():
                print(f"{lines:9d}  {name}")
    top = sum(file_sloc(path) for path in sorted(source.glob("*.py")))
    print(f"{top:7d}  src/repro/*.py")
    print(f"{file_sloc(source / MAIN):9d}  {MAIN}")
    print(f"{total + top:7d}  total")
    for spec in (SPEC, BUILD_SPEC, INDEX_SPEC):
        if (root / spec).exists():
            moved = file_sloc(root / spec)
            print(f"{moved:7d}  {spec} (moved out of src/, not in the total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
