"""The theorem-prover benchmark (paper §VII, Table IV: ``kmbench``).

"kmbench is a substantial program: a theorem-prover running a set of
benchmark problems ... Only a single clause ... can be reordered; the
gains in performance are less impressive" — Table IV reports 1.14.

The original kmbench is unpublished; per DESIGN.md §3 (substitution 4)
we implement a propositional Horn-clause theorem prover *written in
Prolog* (a meta-interpreter over an ``axiom/2`` rule base) plus a
battery of problems: graph-colouring-style constraints, a blocks-world
fragment, and propositional chains. The prover is mostly deterministic
recursion — exactly the profile the paper says gains little — with one
reorderable clause (the rule-selection clause, where the subsumption
test can precede or follow the rule fetch).
"""

from __future__ import annotations

from ..prolog.database import Database

__all__ = ["SOURCE", "source", "database", "TABLE4_QUERIES", "PROBLEMS"]


def _axioms() -> str:
    lines = []
    # Propositional chains: p_k(i) provable from p_k(0) in i steps.
    for chain in range(1, 6):
        lines.append(f"axiom(p{chain}(0), true).")
        for step in range(1, 12):
            lines.append(f"axiom(p{chain}({step}), p{chain}({step - 1})).")
    # A small rule base with conjunctive bodies (branching proofs).
    lines += [
        "axiom(wet, (rain, outside)).",
        "axiom(wet, (sprinkler, outside)).",
        "axiom(rain, clouds).",
        "axiom(clouds, true).",
        "axiom(sprinkler, (summer, morning)).",
        "axiom(summer, true).",
        "axiom(morning, true).",
        "axiom(outside, true).",
        "axiom(happy(X), (sunny, at_beach(X))).",
        "axiom(happy(X), (rich(X), healthy(X))).",
        "axiom(sunny, true).",
        "axiom(at_beach(alice), true).",
        "axiom(rich(bob), true).",
        "axiom(healthy(bob), true).",
        "axiom(healthy(alice), true).",
        # Unprovable leads that force search.
        "axiom(at_beach(carol), winter).",
        "axiom(rich(carol), lottery).",
    ]
    # Cached lemmas: mid-chain results the prover may use directly.
    for chain in range(1, 6):
        lines.append(f"lemma(p{chain}(8)).")
    lines.append("lemma(clouds).")
    lines.append("lemma(outside).")
    return "\n".join(lines)


SOURCE = (
    """
:- entry(kmbench/0).
:- entry(prove/1).
:- recursive(prove/1).
:- legal_mode(prove(+)).
:- cost(prove/1, [+], 40, 0.7).
:- legal_mode(provable_fact(+)).

% The prover: a Horn-clause meta-interpreter over axiom/2. The two
% cut clauses are anchored; the chaining and lemma clauses below them
% may swap (the lemma table answers deep chain goals in one step, so
% the clause reorderer should try it first).
prove(true) :- !.
prove((A, B)) :- !, prove(A), prove(B).
prove(Goal) :- axiom(Goal, Body), prove(Body).
prove(Goal) :- lemma(Goal).

% Checking a goal is an already-known fact before (or after) rule
% chaining: the other reorderable conjunction.
provable_fact(Goal) :- axiom(Goal, Body), Body == true.

% The benchmark driver: prove every problem (one proof each suffices,
% as a real prover would stop at the first derivation).
kmbench :- problem(P), once(prove(P)), fail.
kmbench.

problem(p1(11)).
problem(p2(11)).
problem(p3(11)).
problem(p4(11)).
problem(p5(11)).
problem(wet).
problem(happy(alice)).
problem(happy(bob)).

"""
    + _axioms()
    + "\n"
)

PROBLEMS = ["p1(11)", "p2(11)", "p3(11)", "p4(11)", "p5(11)",
            "wet", "happy(alice)", "happy(bob)"]

#: Table IV row: the whole benchmark run.
TABLE4_QUERIES = [("kmbench", ["kmbench"])]


def source() -> str:
    """The complete program text."""
    return SOURCE


def database(indexing: bool = True) -> Database:
    """A fresh database holding the program."""
    return Database.from_source(SOURCE, indexing=indexing)
