"""Depth-limit behaviour: typed errors for runaway recursion, the
RecursionError fallback, the recursion-limit clamp, and the CLI's
one-line error reporting."""

import sys

import pytest

from repro.cli import main
from repro.errors import DepthLimitExceeded
from repro.prolog import Engine
from repro.prolog.engine import Engine as EngineClass


LOOP = "loop :- loop.\n"


class TestTypedErrors:
    def test_max_depth_exceeded_is_typed(self):
        with pytest.raises(DepthLimitExceeded) as info:
            Engine.from_source(LOOP, max_depth=50).ask("loop")
        assert "depth 50 exceeded" in str(info.value)

    def test_recursion_error_becomes_typed(self):
        # Only the interpreter recurses in Python (one generator frame
        # per Prolog level); the VM's depth is data, see below.
        eng = Engine.from_source(
            LOOP, max_depth=10_000_000, adjust_recursion_limit=False,
            compiled=False,
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(700)
        try:
            with pytest.raises(DepthLimitExceeded) as info:
                eng.ask("loop")
        finally:
            sys.setrecursionlimit(limit)
        assert "recursion limit" in str(info.value)

    def test_vm_runs_to_max_depth_under_a_low_recursion_limit(self):
        eng = Engine.from_source(
            LOOP, max_depth=5_000, adjust_recursion_limit=False
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(700)
        try:
            with pytest.raises(DepthLimitExceeded) as info:
                eng.ask("loop")
        finally:
            sys.setrecursionlimit(limit)
        assert "depth 5000 exceeded" in str(info.value)


class TestRecursionCapacity:
    def test_cap_is_respected(self):
        before = sys.getrecursionlimit()
        try:
            Engine.ensure_recursion_capacity(10**9)
            assert sys.getrecursionlimit() <= max(
                before, EngineClass.RECURSION_LIMIT_CAP
            )
        finally:
            sys.setrecursionlimit(before)

    def test_never_lowers_the_limit(self):
        before = sys.getrecursionlimit()
        try:
            Engine.ensure_recursion_capacity(100_000)
            raised = sys.getrecursionlimit()
            Engine.ensure_recursion_capacity(10)
            assert sys.getrecursionlimit() >= raised
        finally:
            sys.setrecursionlimit(before)

    def test_opt_out_engine_does_not_touch_the_limit(self):
        before = sys.getrecursionlimit()
        Engine.from_source(
            LOOP, max_depth=10**8, adjust_recursion_limit=False
        )
        assert sys.getrecursionlimit() == before


class TestCLIErrorReporting:
    @pytest.fixture()
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.pl"
        path.write_text(LOOP)
        return str(path)

    def test_depth_error_is_one_clean_line(self, loop_file, capsys):
        code = main(["run", loop_file, "loop"])
        captured = capsys.readouterr()
        assert code == 2
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(error_lines) == 1
        assert "depth" in error_lines[0]
        assert "Traceback" not in captured.err

    def test_syntax_error_is_one_clean_line(self, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("foo(\n")
        code = main(["run", str(path), "foo(X)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
