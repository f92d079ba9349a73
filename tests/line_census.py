"""Never-run line census: the src statements that no Tier-1 test runs.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer,
and every Python subprocess it starts under the same tracer, through a
``sitecustomize`` module put first on the children's ``PYTHONPATH``. It counts
the statements inside the function bodies of ``src/corrbb84``; docstrings,
class bodies and module-level lines run at import and are left out. A
statement ran when any line of its own (a compound statement's header, with
its decorators) did.

Each statement that may stay unrun is listed in ``EXPECTED`` with the reason,
keyed by module, enclosing function and stripped first line rather than line
number, so an edit elsewhere leaves the table valid. The script exits 1 when
the suite fails, when a never-run statement is not listed, or when a listed
one ran, so the table cannot go stale.

Run it from the repository root; it is a script, not a pytest module:

    PYTHONPATH=src python tests/line_census.py [--summary FILE]

The report goes to stdout after the suite's own output; ``--summary`` also
appends it to FILE. The tracer makes the suite about three times slower.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import corrbb84

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(corrbb84.__file__).resolve().parent
TIER1_ARGS = ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]

# (module, enclosing function, stripped first line) -> why it may stay unrun;
# none may today
EXPECTED: dict[tuple[str, str, str], str] = {}

# The tracer, run as it stands in this process and, started at once and with
# dump at exit, as each child's sitecustomize; SRC is the package directory,
# OUT the directory for the children's hits.
TRACER = """
import atexit, json, os, sys, threading

HITS = set()


def _lines(frame, event, arg):
    if event == "line":
        HITS.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(SRC) else None


def start():
    sys.settrace(_calls)
    threading.settrace(_calls)


def dump():
    with open(os.path.join(OUT, f"hits-{os.getpid()}.json"), "w") as handle:
        json.dump(sorted(HITS), handle)
"""


def statements(path: Path) -> list[tuple[str, str, int, set[int]]]:
    """(enclosing function, stripped first line, line, own lines) of each
    statement in a function body of the module at ``path``."""
    text = path.read_text()
    source = text.splitlines()
    found = []

    def own_lines(node: ast.stmt) -> set[int]:
        body = getattr(node, "body", None)
        if not isinstance(body, list):  # a simple statement: all of it
            return set(range(node.lineno, node.end_lineno + 1))
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        return set(range(first, max(body[0].lineno, node.lineno + 1)))

    def visit(body: list[ast.stmt], scope: str, in_function: bool) -> None:
        for index, node in enumerate(body):
            docstring = (index == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if in_function and not docstring:
                found.append((scope, source[node.lineno - 1].strip(), node.lineno,
                              own_lines(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
                visit(node.body, inner, not isinstance(node, ast.ClassDef))
                continue
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, []), scope, in_function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, scope, in_function)

    visit(ast.parse(text).body, "", False)
    return found


def run_traced(out: Path) -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit status and the (file, line) pairs it ran, here and in
    its subprocesses."""
    prefix = f"SRC = {str(PACKAGE) + os.sep!r}\nOUT = {str(out)!r}\n"
    (out / "sitecustomize.py").write_text(prefix + TRACER + "start()\natexit.register(dump)\n")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(out),
                                                             os.environ.get("PYTHONPATH")]))
    tracer = {}
    exec(prefix + TRACER, tracer)
    tracer["start"]()
    try:
        status = pytest.main(TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits = set(tracer["HITS"])
    for dump in out.glob("hits-*.json"):
        hits.update((name, line) for name, line in json.loads(dump.read_text()))
    return int(status), hits


def census(hits: set[tuple[str, int]]) -> dict[tuple[str, str, str], list[int]]:
    """Each never-run statement's key, with the lines it starts on."""
    never = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in hits if name == str(path)}
        for scope, text, line, lines in statements(path):
            if not lines & ran:
                never.setdefault((path.stem, scope, text), []).append(line)
    return never


def report(status: int, never: dict[tuple[str, str, str], list[int]]) -> tuple[str, bool]:
    unlisted = sorted(set(never) - set(EXPECTED))
    stale = sorted(set(EXPECTED) - set(never))
    lines = [f"line census: {sum(map(len, never.values()))} never-run src statements "
             f"({len(unlisted)} not listed, {len(stale)} listed but run)"]
    for key, starts in sorted(never.items()):
        module, scope, text = key
        why = EXPECTED.get(key, "NOT LISTED: reach it with a test, delete it, or list why")
        lines.append(f"- {module}.py:{','.join(map(str, starts))} {scope}: `{text}` -- {why}")
    lines += [f"- LISTED BUT RUN: {module}.py {scope}: `{text}`" for module, scope, text in stale]
    if status:
        lines.append(f"the suite failed (pytest exit status {status}), so the census is void")
    return "\n".join(lines) + "\n", not (status or unlisted or stale)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="also append the report to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        status, hits = run_traced(Path(out))
    text, ok = report(status, census(hits))
    print("\n" + text, end="")
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
