"""Fact-table reordering: exact output, and per-mode work that follows
the distinct head shapes, not the number of facts.

A fact's body is ``true``, so every fact of a version shares one goal
reordering, one chain evaluation and one renaming; a predicate's ground
facts add ``(+,...,+)`` to its output mode in every input mode; a head's
match probability depends only on which positions hold a variable, a
constant or a compound term; and a version whose facts are the source
clause objects in the same order as another's merges with it without
being printed. The pipeline computes these once instead of once per
fact and mode. This module pins that the shortcuts change nothing:

* ``fact_table_digests.json`` holds, for ``PROGRAMS`` seeded programs,
  digests of the cold reorder and the re-reorder (source text,
  decisions and warnings), recorded before the shortcuts existed. The
  programs cover ground, variable-headed, structured and duplicate
  facts, arities 1-4, facts mixed with rules, a user-defined ``true/0``
  and tables whose clause order differs by mode.
* The number of chain evaluations, match-probability evaluations,
  clause-output inferences and printed clauses does not grow with a
  ground table.
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

from types import SimpleNamespace

from repro.analysis.domains import DomainAnalysis
from repro.analysis.mode_inference import ModeInference, join_modes
from repro.analysis.modes import (
    ModeItem,
    all_input_modes,
    argument_inst,
    bind_head_states,
    inst_to_item,
)
from repro.markov import clause_model, predicate_model
from repro.markov.predicate_model import CostModel, HeadShapes, head_match_probability
from repro.prolog import Database, writer
from repro.prolog.database import Clause, body_goals
from repro.prolog.reader.parser import parse_term
from repro.prolog.terms import Atom, Struct, Var
from repro.reorder import ModeVersion, ReorderReport, Reorderer
from repro.reorder.pipeline.context import AnalysisContext
from repro.reorder.pipeline.phases import VersionDedupPhase
from repro.reorder.specialize import specialized_name

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


def _counter(monkeypatch, function):
    """Count the calls of ``function`` made through any module that
    imported it by name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_chain_evaluations_do_not_grow_with_the_table(monkeypatch):
    calls = _counter(monkeypatch, clause_model.evaluate_sequence)
    counts = []
    for facts in (10, 40, 80):
        calls.clear()
        Reorderer(Database.from_source(_table(facts))).reorder()
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def _ground_table(facts: int, rule: bool) -> str:
    """``facts`` distinct ground rows over ten constants per position
    (one head shape, every mode's versions merge), with or without a
    rule calling it."""
    rows = "".join(f"t(c{i % 10}, c{(i // 10 + i) % 10}).\n" for i in range(facts))
    return rows + ("q(X) :- t(X, c1).\n" if rule else "")


@pytest.mark.parametrize("rule", [False, True], ids=["table", "table+rule"])
def test_per_mode_work_does_not_grow_with_a_ground_table(monkeypatch, rule):
    matches = _counter(monkeypatch, predicate_model.head_match_probability)
    printed = _counter(monkeypatch, writer.clause_to_string)
    outputs = []
    original = ModeInference._clause_output

    def clause_output(self, clause, mode):
        outputs.append(None)
        return original(self, clause, mode)

    monkeypatch.setattr(ModeInference, "_clause_output", clause_output)
    counts = []
    for facts in (10, 40, 80):
        for calls in (matches, printed, outputs):
            calls.clear()
        program = Reorderer(Database.from_source(_ground_table(facts, rule))).reorder()
        assert program.version_name(("t", 2), (ModeItem.PLUS, ModeItem.MINUS)) == "t"
        counts.append((len(matches), len(outputs), len(printed)))
    assert counts[0][0] > 0
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
def _heads_and_mode(draw):
    """One to three heads of one predicate, and an input mode."""
    arity = draw(st.integers(0, 4))
    heads = [
        Struct("h", tuple(draw(st.lists(_terms, min_size=arity, max_size=arity))))
        if arity
        else Atom("h")
        for _ in range(draw(st.integers(1, 3)))
    ]
    mode = tuple(draw(st.lists(st.sampled_from(list(ModeItem)),
                               min_size=arity, max_size=arity)))
    return heads, mode


@settings(max_examples=200, deadline=None)
@given(_heads_and_mode())
def test_fact_output_mode_equals_generic_execution(heads_and_mode):
    # Ground facts answer from one per-predicate verdict, the others
    # through the abstract interpreter; the join over the facts must
    # equal executing each fact's ``true`` body from its bound head.
    heads, mode = heads_and_mode
    database = Database()
    generic = None
    for head in heads:
        clause = Clause(head, Atom("true"))
        database.add_clause(clause)
        inference = ModeInference(Database())
        states = {}
        bind_head_states(head, mode, states)
        assert inference._exec(clause.body, states)
        args = head.args if isinstance(head, Struct) else ()
        output = tuple(inst_to_item(argument_inst(arg, states)) for arg in args)
        generic = output if generic is None else join_modes(generic, output)
    inference = ModeInference(database)
    assert inference.output_mode(("h", len(mode)), mode) == generic


_constants = st.sampled_from([Atom("a"), Atom("b"), 0, 1, 1.0, 7])


@st.composite
def _predicate(draw):
    """The heads of one predicate: atoms, ints, ``1`` vs ``1.0``,
    variables (some repeated within a head), compounds, or arity 0."""
    arity = draw(st.integers(0, 3))
    heads = []
    for _ in range(draw(st.integers(1, 8))):
        shared = [Var(), Var()]
        leaves = _constants | st.sampled_from(shared) | st.builds(Var)
        args = draw(st.lists(
            leaves | st.builds(lambda a: Struct("f", (a,)), leaves),
            min_size=arity, max_size=arity,
        ))
        heads.append(Struct("h", tuple(args)) if arity else Atom("h"))
    return heads


@settings(max_examples=200, deadline=None)
@given(_predicate())
def test_head_shape_table_equals_head_match_probability(heads):
    database = Database()
    for head in heads:
        database.add_clause(Clause(head, Atom("true")))
    indicator = database.predicates()[0]
    clauses = database.clauses(indicator)
    domains = DomainAnalysis(database)
    table = HeadShapes(clauses)
    model = CostModel(database, domains=domains)
    for mode in all_input_modes(indicator[1]):
        expected = [head_match_probability(c, mode, domains).hex() for c in clauses]
        assert [p.hex() for p in table.match_probabilities(mode, domains)] == expected
        assert [p.hex() for p in model.match_probabilities(indicator, mode)] == expected


#: Clause texts a version may list; several print alike only by object.
_POOL = ("t(a, b)", "t(X, c)", "t(b, a)", "t(X, Y) :- u(X), u(Y)")
_MODES = list(all_input_modes(2))


def _clause(text: str) -> Clause:
    term = parse_term(text)
    if isinstance(term, Struct) and term.name == ":-":
        return Clause(term.args[0], term.args[1])
    return Clause(term, Atom("true"))


@st.composite
def _versions(draw):
    """Per mode, a clause list drawn from ``_POOL``: each clause either
    the pool's shared object or a fresh parse of the same text."""
    shared = [_clause(text) for text in _POOL]
    versions = []
    for mode in _MODES[: draw(st.integers(1, len(_MODES)))]:
        picks = draw(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3))
        fresh = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        versions.append((mode, [
            _clause(_POOL[i]) if new else shared[i] for i, new in zip(picks, fresh)
        ]))
    return versions


def _text(clauses) -> str:
    return "\n".join(writer.clause_to_string(c.to_term()) for c in clauses)


@settings(max_examples=200, deadline=None)
@given(_versions())
def test_dedup_by_identity_equals_the_text_only_rule(drawn):
    indicator = ("t", 2)
    reorderer = SimpleNamespace(_version_names={}, report=ReorderReport())
    versions = []
    for mode, clauses in drawn:
        name = specialized_name("t", mode)
        reorderer._version_names[(indicator, mode)] = name
        versions.append(ModeVersion(indicator, mode, name, list(clauses), None, None))
    # The text-only rule: the first version printing alike is canonical.
    canonical, notes = {}, []
    for version in versions:
        first = canonical.setdefault(_text(version.clauses), version)
        if first is not version:
            notes.append(((indicator, version.mode),
                          [f"identical to version {first.name}; merged"]))
    survivors = list(canonical.values())
    names = {
        mode: "t" if len(survivors) == 1 else canonical[_text(clauses)].name
        for mode, clauses in drawn
    }
    expected = []
    for version in survivors:
        name = "t" if len(survivors) == 1 else version.name
        renamed = [Clause(Struct(name, c.head.args), c.body) for c in version.clauses]
        expected.append((version.mode, name, _text(renamed)))

    VersionDedupPhase.run(SimpleNamespace(reorderer=reorderer), indicator, versions)
    assert list(reorderer.report.decisions.items()) == notes
    assert [(v.mode, v.name, _text(v.clauses)) for v in versions] == expected
    assert reorderer._version_names == {
        (indicator, mode): name for mode, name in names.items()
    }


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {str(seed): reorder_digests(fact_table_program(seed)) for seed in range(PROGRAMS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
