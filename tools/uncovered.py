"""List the function-body lines of ``src/convret`` that the Tier-1 suite never runs.

Runs pytest on the repository's tests in this process under a
``sys.settrace`` line collector (the standard library only; ``coverage`` is
not a dependency), then prints every function-body line that never ran, as
``path:line: source``, and a closing count. A function-body line is a line
inside a ``def`` body that holds bytecode; docstrings hold none and are
skipped. Code that runs only in a subprocess counts as never run.

    python3 tools/uncovered.py [extra pytest arguments]

It exits with pytest's status, so a failing suite is not mistaken for a
coverage report.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "convret"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode of ``code`` itself (not of nested code)."""
    return {line for _, _, line in code.co_lines() if line is not None}


def body_lines(path: Path) -> set[int]:
    """Lines of ``path`` that hold bytecode and lie inside a function body,
    past its docstring."""
    source = path.read_text(encoding="utf-8")
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if body:
                spans.append((body[0].lineno, body[-1].end_lineno))
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        lines |= code_lines(code)
    return {line for line in lines if any(lo <= line <= hi for lo, hi in spans)}


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the collector: its exit status and, per package
    file, the lines that ran."""
    import pytest

    ran: dict[str, set[int]] = {}
    ours: dict[str, str | None] = {}  # co_filename -> package path, or None
    # lines of a code object not yet seen; a code object with none left is
    # no longer traced, which keeps the suite's hot loops near full speed
    left: dict[types.CodeType, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[ours[code.co_filename]].add(frame.f_lineno)
            todo = left[code]
            todo.discard(frame.f_lineno)
            if not todo:
                frame.f_trace_lines = False
        return local

    def start(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in ours:
            path = Path(name).resolve() if name and not name.startswith("<") else None
            ours[name] = (str(path) if path is not None and path.parent == PACKAGE
                          else None)
            if ours[name] is not None:
                ran.setdefault(ours[name], set())
        if ours[name] is None:
            return None
        todo = left.get(code)
        if todo is None:
            todo = left[code] = code_lines(code)
        return local if todo else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(TIER1 + pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        body = body_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(body)
        for line in sorted(body - ran.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} function-body lines in "
          f"{PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
