"""Regenerating the paper's Tables I–IV.

Each ``tableN`` function runs the full pipeline — build the program,
analyse, reorder, execute original and reordered versions, count
predicate calls — and returns a :class:`~repro.experiments.harness.Table`
whose rows mirror the paper's rows. Expected shapes are recorded in
EXPERIMENTS.md; the benchmark suite asserts them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..analysis.callgraph import CallGraph
from ..analysis.declarations import Declarations
from ..analysis.fixity import FixityAnalysis
from ..analysis.mode_inference import ModeInference
from ..analysis.modes import parse_mode_string
from ..analysis.recursion import recursive_predicates
from ..analysis.semifixity import SemifixityAnalysis
from ..prolog.database import Database
from ..prolog.engine import Engine
from ..reorder.restrictions import partition_body
from ..reorder.system import ReorderedProgram, Reorderer
from ..programs import corporate, family_tree, kmbench, meal, p58, team
from .harness import Row, Table, count_calls, label_to_mode, mode_queries

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "reorder_program",
    "compare_labelled_queries",
]


def reorder_program(database: Database, **options) -> ReorderedProgram:
    """Reorder a database with default options (convenience wrapper)."""
    from ..reorder.system import ReorderOptions

    return Reorderer(database, ReorderOptions(**options)).reorder()


# -- Table I -----------------------------------------------------------------

_TABLE1_PROBE = """
:- entry(top/0).
top :- logger(x), looper(L), chooser(a, R), tester(V), builder(T).

logger(X) :- write(X), nl.                     % fixity
looper([]).                                    % recursion
looper([_ | T]) :- looper(T).
chooser(X, R) :- ( X = a -> R = left ; R = right ).   % implication
either(X) :- ( one(X) ; two(X) ).              % disjunction
one(1).  two(2).
tester(V) :- var(V).                           % semifixity
builder(T) :- functor(T, f, 2).                % mode demand
cutter(X) :- gen(X), test(X), !, use(X).       % the cut
gen(1). gen(2).  test(2).  use(_).
"""


def table1() -> Table:
    """Table I — detected restrictions on reordering, per construct.

    Qualitative: for each of the paper's seven restriction classes the
    row reports what our analyses detected on a probe program that
    exercises it. 'reordered'=1 / 'original'=1 keep the Row shape; the
    finding lives in the label.
    """
    database = Database.from_source(_TABLE1_PROBE)
    declarations = Declarations.from_database(database)
    callgraph = CallGraph(database)
    fixity = FixityAnalysis(database, callgraph, declarations)
    semifixity = SemifixityAnalysis(database, callgraph, declarations)
    inference = ModeInference(database, declarations, callgraph)
    recursive = recursive_predicates(callgraph)

    findings: List[Tuple[str, bool]] = []
    findings.append((
        "mode demand: builder/1 illegal with free name+arity (functor/3)",
        inference.output_mode(("builder", 1), parse_mode_string("-")) is not None
        and not inference.is_legal(("functor", 3), parse_mode_string("---")),
    ))
    findings.append((
        "fixity: logger/1 fixed by write/1; ancestor top/0 contaminated",
        fixity.is_fixed(("logger", 1)) and fixity.is_fixed(("top", 0)),
    ))
    findings.append((
        "semifixity: tester/1 semifixed via var/1 culprit propagation",
        semifixity.is_semifixed(("tester", 1)),
    ))
    cutter_clause = database.clauses(("cutter", 1))[0]
    partition = partition_body(cutter_clause.body, fixity)
    pre_cut_blocks = [b for b in partition.blocks if not b.multi_solution]
    findings.append((
        "cut: goals before ! immobilised (one-solution chain)",
        len(pre_cut_blocks) >= 1 and all(not b.mobile for b in pre_cut_blocks),
    ))
    either_clause = database.clauses(("either", 1))[0]
    either_partition = partition_body(either_clause.body, fixity)
    findings.append((
        "disjunction: (a ; b) kept whole, halves confined",
        len(either_partition.blocks) == 1
        and len(either_partition.blocks[0]) == 1,
    ))
    chooser_clause = database.clauses(("chooser", 2))[0]
    chooser_partition = partition_body(chooser_clause.body, fixity)
    findings.append((
        "implication: if-then-else kept whole, premise immobile",
        len(chooser_partition.blocks) == 1,
    ))
    findings.append((
        "recursion: looper/2 detected; unsafe modes rejected",
        ("looper", 1) in recursive
        and not inference.is_legal(("looper", 1), parse_mode_string("-")),
    ))

    rows = [
        Row(label=text, original=1, reordered=1 if detected else 0)
        for text, detected in findings
    ]
    return Table(
        title="Table I - restrictions on reordering (detected on probe program)",
        rows=rows,
        note="ratio 1.00 = restriction detected as the paper describes",
    )


# -- Table II -----------------------------------------------------------------

def table2(
    include_fully_instantiated: bool = True, include_best: bool = False
) -> Table:
    """Table II — the family-tree program, every predicate × mode.

    One call per possible instantiation: 1 for (-,-), 55 for each
    half-instantiated mode, 3025 for (+,+) (skippable for speed).
    ``include_best`` adds the paper's "cheapest reordering possible"
    column by exhaustive enumeration where practical.
    """
    from .harness import best_order_by_enumeration

    database = family_tree.database()
    reordered = reorder_program(database)
    modes = ["--", "-+", "+-"] + (["++"] if include_fully_instantiated else [])
    rows: List[Row] = []
    for name, arity in family_tree.TESTED_PREDICATES:
        for mode_text in modes:
            mode = parse_mode_string(mode_text)
            original_queries = mode_queries(name, mode, family_tree.PERSONS)
            version = reordered.version_name((name, arity), mode) or name
            new_queries = mode_queries(version, mode, family_tree.PERSONS)
            extras = {}
            if include_best:
                extras["best"] = best_order_by_enumeration(
                    reordered, (name, arity), mode, family_tree.PERSONS
                )
            rows.append(
                Row(
                    label=f"{name}({','.join(mode_text)})",
                    original=count_calls(lambda: Engine(database), original_queries),
                    reordered=count_calls(
                        lambda: reordered.engine(), new_queries
                    ),
                    extras=extras,
                )
            )
    return Table(
        title="Table II - results of reordering a family-tree program "
        "(number of calls)",
        rows=rows,
        note="55 persons; 10 girl/1, 19 wife/2, 34 mother/2 facts, rules "
        "of Fig. 6; synthetic pedigree (see DESIGN.md)",
    )


# -- Tables III & IV ---------------------------------------------------------------

def compare_labelled_queries(
    database: Database,
    reordered: ReorderedProgram,
    labelled: Sequence[Tuple[str, Sequence[str]]],
) -> List[Row]:
    """Rows for (label, query list) pairs, rewriting each query's head
    predicate to the reordered program's version for the label's mode."""
    rows = []
    for label, queries in labelled:
        new_queries = []
        for query in queries:
            if "(" in label:
                name = query[: query.index("(")]
                mode = label_to_mode(label)
                version = reordered.version_name((name, len(mode)), mode) or name
                new_queries.append(version + query[len(name):])
            else:
                new_queries.append(query)
        rows.append(
            Row(
                label=label,
                original=count_calls(lambda: Engine(database), queries),
                reordered=count_calls(lambda: reordered.engine(), new_queries),
            )
        )
    return rows


def table3() -> Table:
    """Table III — the corporate-database rules."""
    database = corporate.database()
    reordered = reorder_program(database)
    labelled = [(label, [query]) for label, query in corporate.TABLE3_QUERIES]
    return Table(
        title="Table III - results of reordering a corporate database program",
        rows=compare_labelled_queries(database, reordered, labelled),
        note=f"{corporate.EMPLOYEE_COUNT} employees, facts indexed on the id",
    )


def table4() -> Table:
    """Table IV — p58, meal, team, kmbench."""
    rows: List[Row] = []
    for module in (p58, meal, team, kmbench):
        database = module.database()
        reordered = reorder_program(database)
        rows.extend(
            compare_labelled_queries(database, reordered, module.TABLE4_QUERIES)
        )
    return Table(
        title="Table IV - results of reordering several programs",
        rows=rows,
        note="p58 / meal / team / kmbench reconstructions (see DESIGN.md)",
    )
