"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXIT_ERROR, build_parser, main

PROGRAM = """
:- entry(grandmother/2).
wife(john, jane). wife(tom, pat).
mother(john, joan). mother(joan, pat). mother(ann, joan).
girl(jan).
female(W) :- girl(W).
female(W) :- wife(_, W).
grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "family.pl"
    path.write_text(PROGRAM)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reorder_flags(self):
        args = build_parser().parse_args(
            ["reorder", "f.pl", "--no-specialize", "--unfold", "2"]
        )
        assert args.no_specialize and args.unfold == 2


class TestReorderCommand:
    def test_prints_valid_prolog(self, program_file, capsys):
        assert main(["reorder", program_file]) == 0
        output = capsys.readouterr().out
        from repro.prolog import Database, Engine

        engine = Engine(Database.from_source(output))
        assert engine.succeeds("grandmother(X, Y)")

    def test_report_flag(self, program_file, capsys):
        main(["reorder", program_file, "--report"])
        captured = capsys.readouterr()
        assert "goals reordered" in captured.err

    def test_no_specialize(self, program_file, capsys):
        main(["reorder", program_file, "--no-specialize"])
        output = capsys.readouterr().out
        assert "_uu" not in output


class TestAnalyzeCommand:
    def test_sections(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        output = capsys.readouterr().out
        for section in ("entry points:", "recursive:", "fixed", "legal modes:"):
            assert section in output
        assert "grandmother/2" in output


class TestRunCommand:
    def test_answers_and_count(self, program_file, capsys):
        assert main(["run", program_file, "grandmother(X, Y)"]) == 0
        output = capsys.readouterr().out
        assert "X = john" in output
        assert "calls" in output

    def test_failing_query(self, program_file, capsys):
        main(["run", program_file, "grandmother(jane, jane)"])
        assert "no" in capsys.readouterr().out


class TestDisasmCommand:
    def test_whole_file(self, program_file, capsys):
        assert main(["disasm", program_file]) == 0
        output = capsys.readouterr().out
        for indicator in ("grandmother/2", "parent/2", "wife/2"):
            assert f"% {indicator} (" in output
        assert "CALL         grandparent/2" in output

    def test_one_predicate(self, program_file, capsys):
        assert main(["disasm", program_file, "--predicate", "parent/2"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("% parent/2 (2 clauses)")
        assert "% grandmother/2" not in output

    def test_bad_spec(self, program_file, capsys):
        code = main(["disasm", program_file, "--predicate", "parent"])
        assert code == EXIT_ERROR
        assert "bad predicate spec" in capsys.readouterr().err

    def test_unknown_predicate(self, program_file, capsys):
        code = main(["disasm", program_file, "--predicate", "ghost/1"])
        assert code == EXIT_ERROR
        assert "unknown predicate ghost/1" in capsys.readouterr().err

class TestCompareCommand:
    def test_improvement_reported(self, program_file, capsys):
        assert main(["compare", program_file, "grandmother(X, Y)"]) == 0
        output = capsys.readouterr().out
        assert "ratio" in output
        assert "identical set" in output

    def test_runtime_tests_flag(self, program_file, capsys):
        code = main(
            ["compare", program_file, "grandmother(X, Y)",
             "--no-specialize", "--runtime-tests"]
        )
        assert code == 0

    def test_zero_call_run_prints_na_ratio(self, program_file, capsys):
        # 'true' is control, not a charged call: both runs make 0 calls,
        # so the ratio is undefined rather than a ZeroDivisionError/inf.
        assert main(["compare", program_file, "true"]) == 0
        captured = capsys.readouterr()
        assert "ratio    : n/a" in captured.out
        assert "inf" not in captured.out
        assert "ratio is undefined" in captured.err


class TestUserOperators:
    SOURCE = (
        ":- op(700, xfx, ===>).\na ===> b.\nb ===> c.\n"
        "reach(X, Y) :- X ===> Y.\n"
    )

    @pytest.fixture()
    def op_file(self, tmp_path):
        path = tmp_path / "ops.pl"
        path.write_text(self.SOURCE)
        return str(path)

    @pytest.mark.parametrize(
        "flags", [[], ["--unfold", "1"], ["--method", "warren"]]
    )
    def test_compare_parses_the_query_with_the_source_operators(
        self, op_file, flags, capsys
    ):
        assert main(["compare", op_file, "X ===> Y", *flags]) == 0
        assert "identical set" in capsys.readouterr().out

    def test_unfolded_reorder_keeps_the_op_directive(self, op_file, capsys):
        assert main(["reorder", op_file, "--unfold", "1"]) == 0
        output = capsys.readouterr().out
        assert output.startswith(":- op(700, xfx, ===>).\n")
        assert "a ===> b." in output


class TestCompareExitCode:
    def test_matching_sets(self):
        from repro.cli import compare_exit_code

        assert compare_exit_code(3, 3, matches=True) == 0
        assert compare_exit_code(0, 0, matches=True) == 0

    def test_differing_sets(self):
        from repro.cli import compare_exit_code

        assert compare_exit_code(3, 3, matches=False) == 1

    def test_asymmetric_emptiness_is_nonzero(self):
        from repro.cli import compare_exit_code

        assert compare_exit_code(2, 0, matches=False) == 1
        assert compare_exit_code(0, 2, matches=False) == 1


class TestExplainCommand:
    def test_shows_candidates(self, program_file, capsys):
        assert main(["explain", program_file, "grandmother/2", "ui"]) == 0
        output = capsys.readouterr().out
        assert "grandmother/2 in mode (-, +)" in output
        assert ">>" in output


class TestTablesCommand:
    def test_figures_only(self, capsys):
        assert main(["tables", "fig"]) == 0
        output = capsys.readouterr().out
        assert "130.24" in output and "78.968" in output

    def test_table1(self, capsys):
        assert main(["tables", "1"]) == 0
        assert "restrictions" in capsys.readouterr().out


class TestVerifyCommand:
    def test_passes_on_honest_reordering(self, program_file, capsys):
        assert main(["verify", program_file, "--samples", "3"]) == 0
        output = capsys.readouterr().out
        assert "0 failures" in output

    def test_warren_method(self, program_file, capsys):
        assert main(
            ["compare", program_file, "grandmother(X, Y)", "--method", "warren"]
        ) == 0
        assert "identical set" in capsys.readouterr().out
