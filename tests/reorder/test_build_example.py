"""The paper's §V-D ``build/4`` example: partly-instantiated structures
and the conservative mode choice.

The dilemma: saying ``append(+,-,-)`` returns ``(+,-,-)`` rejects a
good reordering; saying it returns ``(+,-,+)`` admits an illegal one.
"We must forego the first rather than risk the second" — with the
conservative declared output ``(+,?,?)``, both the good and the illegal
reorderings are rejected and the source order survives.
"""

import pytest

from repro.analysis.declarations import Declarations
from repro.analysis.mode_inference import ModeInference
from repro.analysis.modes import parse_mode_string
from repro.prolog import Database, Engine, parse_term
from repro.prolog.database import body_goals, split_clause
from tests.reorder.legality import order_is_legal
from repro.reorder.system import Reorderer

SOURCE = """
:- entry(build/4).
:- legal_mode(append(+, +, ?), append(+, +, +)).
:- legal_mode(append(+, ?, ?), append(+, ?, ?)).
:- legal_mode(append(?, ?, +), append(?, ?, +)).
:- recursive(append/3).
:- cost(append/3, [+, ?, ?], 6, 1.0).
:- cost(append/3, [?, ?, +], 6, 1.0).
:- legal_mode(transform(+, ?), transform(+, +)).

append([X | Y], Z, [X | W]) :- append(Y, Z, W).
append([], X, X).

transform(a, [1]).  transform(b, [2, 2]).  transform(c, [3]).

build(L1, L2, L3, L4) :-
    transform(L2, L2a),
    transform(L3, L3a),
    append(L1, L2a, L2b),
    append(L2b, L3a, L4).
"""

BUILD_MODE = parse_mode_string("+++-")


@pytest.fixture(scope="module")
def setup():
    database = Database.from_source(SOURCE)
    declarations = Declarations.from_database(database)
    inference = ModeInference(database, declarations)
    clause = database.clauses(("build", 4))[0]
    goals = body_goals(clause.body)
    return database, inference, clause, goals


class TestLegality:
    def test_source_order_legal(self, setup):
        _, inference, clause, goals = setup
        assert order_is_legal(clause.head, goals, BUILD_MODE, inference)

    def test_paper_good_order_rejected(self, setup):
        # build :- append(L1,L2a,L2b), transform(L2,L2a),
        #          append(L2b,L3a,L4), transform(L3,L3a).
        # Good at run time, but under the conservative modes append's
        # third argument comes back '?', and the second append demands
        # '+' on its first: rejected.
        _, inference, clause, goals = setup
        transform2, transform3, append1, append2 = goals
        order = [append1, transform2, append2, transform3]
        assert not order_is_legal(clause.head, order, BUILD_MODE, inference)

    def test_paper_illegal_order_rejected(self, setup):
        # build :- append(L1,L2a,L2b), append(L2b,L3a,L4),
        #          transform(L2,L2a), transform(L3,L3a).
        # Would crash/diverge at run time; must be rejected too.
        _, inference, clause, goals = setup
        transform2, transform3, append1, append2 = goals
        order = [append1, append2, transform2, transform3]
        assert not order_is_legal(clause.head, order, BUILD_MODE, inference)


class TestEndToEnd:
    def test_reorderer_keeps_safe_order(self, setup):
        database, _, _, _ = setup
        program = Reorderer(database).reorder()
        version = program.version_name(("build", 4), BUILD_MODE)
        (clause,) = program.database.clauses((version, 4))
        goals = body_goals(clause.body)
        # The two transforms still precede their appends.
        names = [str(g).split("(")[0].split("_")[0] for g in goals]
        assert names.index("transform") < names.index("append")
        first_append = names.index("append")
        assert names[:first_append].count("transform") == 2

    def test_answers_preserved(self, setup):
        database, _, _, _ = setup
        program = Reorderer(database).reorder()
        query = "build([9], b, c, Out)"
        original = sorted(s.key() for s in Engine(database).ask(query))
        reordered = sorted(s.key() for s in program.engine().ask(query))
        assert original == reordered
        assert original  # [9, 2, 2, 3]

    def test_difference_list_mode(self, setup):
        # append in mode (+,-,-) builds an open list; the engine must
        # handle the partial structure the analysis calls '?'.
        database, _, _, _ = setup
        engine = Engine(database)
        (solution,) = engine.ask("append([1, 2], Tail, Open), Tail = [x]")
        assert str(solution["Open"]) == "[1, 2, x]"
