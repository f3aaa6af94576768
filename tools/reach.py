#!/usr/bin/env python3
"""Reachability report: which ``src/repro`` functions does the paper's
reproduction run?

Runs, in this one process under a ``sys.setprofile`` hook:

* the cold figure/table/extension suite (``pytest benchmarks`` without
  the ``test_perf_*`` budgets, against a fresh result store);
* every script in ``examples/``;
* the CLI commands of CI's smoke job, plus ``devices``, ``table3``,
  ``attack``, ``testtime``, ``verify`` and one ``store prune``.

It then prints every ``src/`` function that never started, with its line
count, and the totals. A function is reached when its code starts; nested
functions are entries of their own, and their lines also count toward the
enclosing function's. Abstract stubs (an ``@abstractmethod``, or a body of
only a docstring and ``raise NotImplementedError``) have no code to reach:
they are listed apart and not counted as unreached. The hook is installed
before anything imports ``repro``, so functions that run at import time
count. Everything runs in a temporary working directory, with output
discarded; each step's exit status is printed at the end.

It exits 1 when a step exits non-zero (the reproduction broke) or when
more than :data:`CEILING` functions go unreached (dead code grew), so CI's
smoke job runs it as one step. Lower ``CEILING`` when a change deletes
unreached code.

Run from anywhere (37 s on a 2-core x86 Xeon host)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import threading
from functools import partial
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Most unreached ``src/`` functions a run may report before it fails.
CEILING = 41

#: CI's smoke-job CLI commands (``.github/workflows/ci.yml``), the CLI
#: commands of the smoke steps this tool replaces, plus the documented
#: ``devices``, ``table3``, ``attack``, ``testtime``, ``verify`` and
#: ``store prune`` commands.
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("measure", "M1", "--row", "100", "-n", "200"),
    ("report", "--json"),
    ("fig14", "--mixes", "1", "--window", "2000", "--no-cache",
     "--trace-out", "fig14-trace.json"),
    ("profile", "M1", "--rows-per-block", "1", "-n", "100", "--cache-dir",
     "ci-cache", "-o", "first.json"),
    ("profile", "M1", "--rows-per-block", "1", "-n", "100", "--cache-dir",
     "ci-cache", "-o", "second.json", "--trace"),
    ("analyze", "second.json"),
    ("store", "stats", "--store", "ci-cache/results.sqlite"),
    ("fig14", "--mixes", "1", "--window", "5000", "--cache-dir",
     "ci-cache", "--check-timing"),
    ("fig14", "--mixes", "1", "--window", "5000", "--cache-dir",
     "ci-cache", "--trace"),
    ("devices",),
    ("table3",),
    ("attack", "M1"),
    ("testtime",),
    ("verify",),
    ("store", "prune", "--kind", "sweep", "--store",
     "ci-cache/results.sqlite"),
)

#: Pytest arguments of the cold figure suite, plus CI's Table 1 and 3
#: steps (which it contains).
SUITE_ARGS: Tuple[str, ...] = (
    str(REPO / "benchmarks"),
    f"--ignore-glob={REPO / 'benchmarks' / 'test_perf_*'}",
    "--benchmark-disable",
    "-q",
    "-p", "no:cacheprovider",
)

Key = Tuple[str, int]


def _functions(root: Path):
    """``(key, qualified name, node)`` for every function in ``root``. A
    key's line is a decorated function's first decorator, matching
    ``code.co_firstlineno``."""
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    name = f"{prefix}{child.name}"
                    yield (str(path), first), name, child
                    stack.append((child, f"{name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))


def function_inventory(root: Path = SRC) -> Dict[Key, Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` for every
    function in ``root``; nested functions' lines count toward the
    enclosing function's too."""
    return {
        key: (name, node.end_lineno - key[1] + 1)
        for key, name, node in _functions(root)
    }


def _is_abstract_stub(node: ast.AST) -> bool:
    """An ``@abstractmethod``, or a body of only an optional docstring and
    ``raise NotImplementedError``."""
    for decorator in node.decorator_list:
        target = getattr(decorator, "attr", getattr(decorator, "id", None))
        if target == "abstractmethod":
            return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def abstract_stubs(root: Path = SRC) -> Set[Key]:
    """Keys of the functions in ``root`` that are abstract stubs."""
    return {
        key for key, _, node in _functions(root) if _is_abstract_stub(node)
    }


def _run_quietly(label: str, step, statuses: Dict[str, object]) -> None:
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                status = step()
            except SystemExit as stop:
                status = stop.code
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                status = f"{type(error).__name__}: {error}"
    statuses[label] = 0 if status is None else status


def run_traced(steps, statuses: Dict[str, object]) -> Set[Key]:
    """Run each ``(label, step)`` under the profile hook, quietly, and
    record its exit status; the keys of every function that started.

    The hook is installed before the first step runs, so functions that
    modules call while they are being imported count as reached.
    """
    codes: Set[object] = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        for label, step in steps:
            _run_quietly(label, step, statuses)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def _run_example(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def _run_cli(argv: Tuple[str, ...]) -> object:
    from repro.cli import main

    return main(list(argv))


def workloads():
    """``(label, step)`` pairs: the cold figure suite, every example and
    every CLI command. No step imports ``repro`` before it runs."""
    import pytest

    yield "pytest benchmarks", lambda: int(pytest.main(list(SUITE_ARGS)))
    for example in sorted((REPO / "examples").glob("*.py")):
        yield f"examples/{example.name}", partial(_run_example, example)
    for argv in CLI_COMMANDS:
        yield "repro " + " ".join(argv), partial(_run_cli, argv)


def main() -> int:
    sys.path.insert(0, str(SRC))
    inventory = function_inventory()
    statuses: Dict[str, object] = {}
    with tempfile.TemporaryDirectory(prefix="vrd-reach-") as scratch:
        previous = os.getcwd()
        os.environ["VRD_STORE_PATH"] = str(Path(scratch) / "results.sqlite")
        os.chdir(scratch)
        try:
            reached = run_traced(workloads(), statuses)
        finally:
            os.chdir(previous)
    stubs = abstract_stubs()
    unreached = sorted(
        key for key in inventory if key not in reached and key not in stubs
    )
    per_file: Dict[str, List[int]] = {}
    for path, line in unreached:
        name, n_lines = inventory[(path, line)]
        relative = os.path.relpath(path, REPO)
        print(f"{relative}:{line}  {name}  ({n_lines} lines)")
        per_file.setdefault(relative, [0, 0])
        per_file[relative][0] += 1
        per_file[relative][1] += n_lines
    print()
    for relative, (count, n_lines) in sorted(
        per_file.items(), key=lambda item: -item[1][1]
    ):
        print(f"{n_lines:6d} lines  {count:4d} functions  {relative}")
    lines = sum(inventory[key][1] for key in unreached)
    idle_stubs = sorted(key for key in stubs if key not in reached)
    print("\nabstract stubs, not counted:")
    for path, line in idle_stubs:
        print(f"{os.path.relpath(path, REPO)}:{line}  "
              f"{inventory[(path, line)][0]}")
    print(
        f"\nunreached: {len(unreached)} of {len(inventory)} functions, "
        f"{lines} function lines (ceiling {CEILING}); "
        f"{len(idle_stubs)} abstract stubs left out"
    )
    for label, status in statuses.items():
        print(f"{label}: exit {status}", file=sys.stderr)
    failed = [label for label, status in statuses.items() if status != 0]
    if failed:
        print(f"FAILED: {len(failed)} step(s) exited non-zero", file=sys.stderr)
    if len(unreached) > CEILING:
        print(
            f"FAILED: {len(unreached)} unreached functions exceed the "
            f"ceiling of {CEILING}",
            file=sys.stderr,
        )
    return 1 if failed or len(unreached) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
