"""Fact-table reordering: exact output, and work linear in the facts.

A fact's body is ``true``, so every fact of a version shares one goal
reordering, one chain evaluation and one renaming, and a ground fact
has the output mode ``(+,...,+)`` in every input mode. The pipeline
computes these once instead of once per fact and mode. This module pins
that the shortcuts change nothing:

* ``fact_table_digests.json`` holds, for ``PROGRAMS`` seeded programs,
  digests of the cold reorder and the re-reorder (source text,
  decisions and warnings), recorded before the shortcuts existed. The
  programs cover ground, variable-headed, structured and duplicate
  facts, arities 1-4, facts mixed with rules, a user-defined ``true/0``
  and tables whose clause order differs by mode.
* The number of chain evaluations does not grow with the table.
* Each shortcut equals the generic computation, written out here.

Regenerate the fixture (only when an output change is intended) with
``PYTHONPATH=src python -m tests.reorder.test_fact_tables``.
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.mode_inference import ModeInference
from repro.analysis.modes import (
    ModeItem,
    all_input_modes,
    argument_inst,
    bind_head_states,
    inst_to_item,
)
from repro.markov import clause_model
from repro.markov.predicate_model import CostModel
from repro.prolog import Database
from repro.prolog.database import Clause, body_goals
from repro.prolog.terms import Atom, Struct, Var
from repro.reorder import Reorderer
from repro.reorder.pipeline.context import AnalysisContext

FIXTURE = Path(__file__).parent / "fact_table_digests.json"
PROGRAMS = 30
CONSTANTS = ("a", "b", "c", "d", "e", "f")


def fact_table_program(seed: int) -> str:
    """A seeded program of fact tables ``t0``.. and rules ``q0``.. over them.

    Each table position draws from its own domain size, and some facts
    have variable arguments, so clause order depends on the calling
    mode and the versions of a table do not all merge.
    """
    rng = random.Random(seed)
    lines = [f"dom({c})." for c in CONSTANTS[: rng.randint(2, 6)]]
    if rng.random() < 0.3:
        lines.append("true :- dom(a).")
    tables = []
    for k in range(rng.randint(1, 3)):
        name, arity = f"t{k}", rng.randint(1, 4)
        domains = [CONSTANTS[: rng.randint(1, 6)] for _ in range(arity)]
        clauses = []
        for _ in range(rng.randint(3, 12)):
            args = []
            for position in range(arity):
                roll = rng.random()
                constant = rng.choice(domains[position])
                if roll < 0.15:
                    args.append(rng.choice(("X", "Y", "_")))
                elif roll < 0.25:
                    args.append(rng.choice((f"f({constant})", f"g({constant}, Z)")))
                else:
                    args.append(constant)
            clauses.append(f"{name}({', '.join(args)}).")
        for _ in range(rng.randint(0, 3)):
            clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses))
        if rng.random() < 0.3:
            head = ", ".join(f"V{i}" for i in range(arity))
            clauses.insert(
                rng.randrange(len(clauses) + 1),
                f"{name}({head}) :- dom(V0), dom(V{arity - 1}).",
            )
        lines.extend(clauses)
        tables.append((name, arity))
    pool = ["A", "B", "C", "D"]
    for j in range(rng.randint(1, 3)):
        goals = []
        for _ in range(rng.randint(1, 4)):
            name, arity = rng.choice(tables)
            goals.append(f"{name}({', '.join(rng.choice(pool) for _ in range(arity))})")
        head_vars = sorted(set(rng.sample(pool, rng.randint(1, 2))))
        lines.append(f"q{j}({', '.join(head_vars)}) :- {', '.join(goals)}.")
    return "\n".join(lines) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(program) -> str:
    payload = program.report.to_dict()
    return json.dumps([payload["decisions"], payload["warnings"]])


def reorder_digests(source: str) -> dict:
    """Digests of the cold reorder and of a re-reorder after ``t0`` is
    replaced by its own clauses."""
    database = Database.from_source(source)
    context = AnalysisContext(database)
    cold = Reorderer(database, context=context).reorder()
    edit = next(i for i in database.predicates() if i[0] == "t0")
    database.replace_predicate(edit, database.clauses(edit))
    warm = Reorderer(database, context=context).reorder()
    return {
        "cold": _digest(cold.source()),
        "cold_report": _digest(_report_text(cold)),
        "rereorder": _digest(warm.source()),
        "rereorder_report": _digest(_report_text(warm)),
    }


@pytest.mark.parametrize("seed", range(PROGRAMS))
def test_fact_table_output_matches_recorded_digests(seed):
    recorded = json.loads(FIXTURE.read_text())
    assert len(recorded) == PROGRAMS
    assert reorder_digests(fact_table_program(seed)) == recorded[str(seed)]


def _table(facts: int) -> str:
    """``facts`` distinct ground rows over ten constants, one
    variable-headed row and a one-goal caller: more rows change no
    domain size and give the caller nothing to search."""
    rows = "".join(f"t(c{i % 10}, c{(i // 10 + i) % 10}).\n" for i in range(facts))
    return rows + "t(X, c0).\nq(X) :- t(X, c1).\n"


def test_chain_evaluations_do_not_grow_with_the_table(monkeypatch):
    calls = []
    original = clause_model.evaluate_sequence

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "evaluate_sequence", None) is original:
            monkeypatch.setattr(module, "evaluate_sequence", counting)
    counts = []
    for facts in (10, 40, 80):
        calls.clear()
        Reorderer(Database.from_source(_table(facts))).reorder()
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_clause_order_note_names_source_positions():
    # Duplicate rows are distinct clauses: each keeps its own position.
    source = "t(a, b).\nt(X, c).\nt(a, b).\nt(b, a).\nt(c, X).\n"
    program = Reorderer(Database.from_source(source)).reorder()
    assert program.report.to_dict()["decisions"] == [
        {"predicate": "t/2", "mode": "(+, +)", "note": "clauses reordered to [2, 5, 1, 3, 4]"},
        {"predicate": "t/2", "mode": "(+, -)", "note": "clauses reordered to [2, 1, 3, 4, 5]"},
        {"predicate": "t/2", "mode": "(-, +)", "note": "clauses reordered to [5, 1, 2, 3, 4]"},
    ]


def test_clause_order_note_is_a_permutation_for_repeated_atom_heads():
    # Equal ``q.`` facts share their interned head atom; the note must
    # still name each clause's own position, not the first equal one.
    source = "r(a).\nq.\nq :- r(b).\nq.\nq :- r(a).\n"
    program = Reorderer(Database.from_source(source)).reorder()
    assert program.report.decisions[(("q", 0), ())] == [
        "clauses reordered to [1, 3, 2, 4]"
    ]


def _bits(evaluation):
    return [value.hex() for value in dataclasses.astuple(evaluation)]


def test_fact_body_evaluation_equals_generic_chain():
    for seed in range(0, PROGRAMS, 3):
        database = Database.from_source(fact_table_program(seed))
        model = CostModel(database)
        for indicator in database.predicates():
            for clause in database.clauses(indicator):
                if not clause.is_fact:
                    continue
                for mode in all_input_modes(indicator[1]):
                    states = {}
                    bind_head_states(clause.head, mode, states)
                    generic = model.evaluate_goals(body_goals(clause.body), states)
                    shortcut = model.clause_body_evaluation(clause, mode)
                    assert _bits(shortcut) == _bits(generic), (clause, mode)


_leaves = st.sampled_from([Atom("a"), Atom("b"), 0, 7, 2.5])
_terms = st.recursive(
    _leaves | st.builds(Var),
    lambda inner: st.builds(
        lambda name, args: Struct(name, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def _heads_and_modes(draw):
    args = draw(st.lists(_terms, max_size=4))
    head = Struct("h", tuple(args)) if args else Atom("h")
    mode = tuple(draw(st.lists(st.sampled_from(list(ModeItem)),
                               min_size=len(args), max_size=len(args))))
    return head, mode


@settings(max_examples=200, deadline=None)
@given(_heads_and_modes())
def test_fact_clause_output_equals_generic_execution(head_and_mode):
    head, mode = head_and_mode
    inference = ModeInference(Database.from_source(""))
    clause = Clause(head, Atom("true"))
    states = {}
    bind_head_states(head, mode, states)
    assert inference._exec(clause.body, states)
    args = head.args if isinstance(head, Struct) else ()
    generic = tuple(inst_to_item(argument_inst(arg, states)) for arg in args)
    assert inference._clause_output(clause, mode) == generic


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {str(seed): reorder_digests(fact_table_program(seed)) for seed in range(PROGRAMS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
