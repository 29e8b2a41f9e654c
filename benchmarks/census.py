"""Call census: which ``src/`` functions does the tier-1 suite never reach?

Runs the tier-1 tests in this process under ``sys.setprofile`` (and
``threading.setprofile`` for server threads), records the code object
of every Python-level call, and lists each function defined under
``src/repro`` that no test entered, grouped by module with its line
count. Subprocess workers are not traced, so functions that only run in
a child process show up as unreached. A function listed here is either
a test gap, a subprocess entry point, or dead code.

Usage::

    PYTHONPATH=src python benchmarks/census.py [--out census.txt] [pytest args]

Run it from the repository root. Extra arguments go to pytest (default:
the configured ``testpaths``). The profiler makes the suite about 2.5x
slower: some five minutes on 2 vCPUs, where timing-bound tests may fail.
The report ends with the node id of every failed or errored test.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

reached = set()


def _hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


def _install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


class _Plugin:
    """Rearms the hook per test (a ``RecursionError`` inside it unsets
    it) and collects the node ids of failed and errored tests."""

    def __init__(self):
        self.failed = []

    def pytest_runtest_setup(self, item):
        _install()

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(
                report.nodeid if report.when == "call"
                else f"{report.nodeid} ({report.when} error)"
            )

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.append(f"{report.nodeid} (collection error)")


def defined_functions(root=SRC):
    """``(path, first_line) -> (qualname, line_count)`` for every
    module-level function and method; nested defs count as their
    enclosing function's lines."""
    found = {}
    for directory, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                stack = [(ast.parse(handle.read(), path), "")]
            while stack:
                node, prefix = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        stack.append((child, f"{prefix}{child.name}."))
                    elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        lines = [d.lineno for d in child.decorator_list]
                        first = min(lines + [child.lineno])
                        span = child.end_lineno - first + 1
                        found[(path, first)] = (prefix + child.name, span)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report here (default stdout)")
    args, pytest_args = parser.parse_known_args(argv)
    import pytest

    plugin = _Plugin()
    _install()
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[plugin]
        )
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {
        (os.path.abspath(code.co_filename), code.co_firstlineno) for code in reached
    }
    by_module = defaultdict(list)
    for (path, first), (qualname, lines) in defined_functions().items():
        if (path, first) not in entered:
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            by_module[module.replace(".__init__", "")].append((first, qualname, lines))
    report = []
    for module in sorted(by_module):
        report.append(module)
        for first, qualname, lines in sorted(by_module[module]):
            report.append(f"  {qualname}  line {first}, {lines} lines")
    entries = [entry for module in by_module.values() for entry in module]
    total = sum(lines for _, _, lines in entries)
    report.append(
        f"unreached: {len(entries)} functions, {total} lines"
        f" (pytest exit {int(status)})"
    )
    # Profiler timeouts fail tests too: name every failure, so a real
    # one is not mistaken for one of them.
    report.append(f"failed or errored tests: {len(plugin.failed)}")
    report.extend(f"  {nodeid}" for nodeid in plugin.failed)
    text = "\n".join(report) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
