"""List the function-body statements of ``src/riskbounds`` that a pytest run,
or the CLI corpus, never executes.

Usage, from the repository root::

    python tests/trace_statements.py [pytest arguments]
    python tests/trace_statements.py --cli

With no arguments it runs the tier-1 suite (``tests/``); with ``--cli`` it
runs the command lines of ``tests/cli_corpus.py`` instead, in this process,
which shows what the program itself reaches (a few seconds). The run is
traced with ``sys.settrace``, restricted to frames of ``src/riskbounds``,
so tier-1 takes about twice its usual wall time. Afterwards every statement
inside a function body whose lines never ran is printed as
``path:line: source``, followed by the count of such statements against
the total. Module and class bodies are not counted (they run at import,
before the hook), nor are docstrings and ``global``/``nonlocal``
declarations, which run no code. Code run in a subprocess (the CLI tests
that spawn one) is not seen.

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riskbounds"

_BODIES = ("body", "orelse", "finalbody")


def _statement_lines(stmt: ast.stmt) -> range:
    """The lines whose execution shows that ``stmt`` ran: its header for a
    compound statement, all of it otherwise."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    inner = [s for field in _BODIES for s in getattr(stmt, field, [])]
    inner += getattr(stmt, "handlers", [])
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or not inner:
        last = stmt.lineno if inner else stmt.end_lineno
    else:
        last = min(s.lineno for s in inner) - 1
    return range(first, max(first, last) + 1)


def _walk_body(stmts: list[ast.stmt], out: list[ast.stmt]) -> None:
    """Collect the statements of a function body, down through compound
    statements but not into nested functions or classes (which
    ``function_statements`` visits on their own)."""
    for i, stmt in enumerate(stmts):
        docstring = i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        if docstring and isinstance(stmt.value.value, str):
            continue
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        out.append(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in _BODIES:
            _walk_body(getattr(stmt, field, []), out)
        for handler in getattr(stmt, "handlers", []):
            _walk_body(handler.body, out)


def function_statements(path: Path) -> list[ast.stmt]:
    """Every statement inside a function body of the module at ``path``."""
    out: list[ast.stmt] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _walk_body(node.body, out)
    return sorted(out, key=lambda stmt: stmt.lineno)


def traced_run(run: Callable[[], int]) -> tuple[int, dict[str, set[int]]]:
    """Call ``run`` with the line tracer on; return its exit code and the
    executed lines per module file."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its hit set, or None

    def local(frame, event, arg):
        if event == "line":
            ours[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            real = os.path.realpath(name)
            ours[name] = hits.setdefault(real, set()) if real.startswith(prefix) else None
        return None if ours[name] is None else local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def _run_pytest(args: list[str]) -> int:
    import pytest

    return int(pytest.main(args))


def _run_corpus() -> int:
    import cli_corpus  # tests/ is on sys.path as the script's directory

    with tempfile.TemporaryDirectory() as tmp:
        cli_corpus.run(Path(tmp))
    return 0


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--cli"]:
        label, run = "CLI corpus", _run_corpus
    else:
        label, run = "pytest", functools.partial(_run_pytest, argv or ["-q", "-p", "no:cacheprovider", "tests"])
    code, hits = traced_run(run)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(os.path.realpath(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for stmt in function_statements(path):
            total += 1
            lines = _statement_lines(stmt)
            if not ran.intersection(lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
    print(f"{missed} of {total} function-body statements never ran ({label} exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
