"""Clause database with optional multi-argument indexing.

The paper (§III-A) notes that clause indexing "can have the same effect"
as clause reordering for head-match filtering, but "unless the engine
always indexes on the proper arguments, reordering can still be useful".
To study that interaction (the indexing ablation benchmark), indexing is
a per-database flag.

A database holds :class:`Clause` objects grouped by predicate indicator
``(name, arity)``, preserving source order; directives are collected
separately for the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import PrologSyntaxError
from ..observability.events import IndexEvent
from .reader.parser import parse_terms
from .terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    is_number,
    rename_term,
)

__all__ = [
    "Clause",
    "Database",
    "KNOWN_DIRECTIVES",
    "split_clause",
    "body_goals",
    "goals_to_body",
    "first_arg_key",
]

Indicator = Tuple[str, int]

#: Directive functors the toolchain understands (database- or
#: analysis-level). Anything else is routed through ``warnings`` with a
#: did-you-mean hint instead of being collected silently.
KNOWN_DIRECTIVES = frozenset(
    [
        "entry",
        "legal_mode",
        "mode",
        "recursive",
        "fixed",
        "cost",
        "match_prob",
        "domain_size",
        "table",
        "op",
        "dynamic",
        "discontiguous",
        "multifile",
    ]
)


@dataclass
class Clause:
    """One stored clause: ``head :- body`` (body is ``true`` for facts)."""

    head: Term
    body: Term
    #: Position within its predicate, in source order.
    index: int = 0
    #: ``(name, arity)`` of the head, computed once: consult and the
    #: analyses read it many times per clause, and no code reassigns
    #: :attr:`head`.
    indicator: Indicator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indicator = functor_indicator(self.head)

    @property
    def is_fact(self) -> bool:
        body = deref(self.body)
        return isinstance(body, Atom) and body.name == "true"

    def rename(self) -> Tuple[Term, Term]:
        """A fresh variant (head, body) with variables renamed apart."""
        mapping: Dict[int, Var] = {}
        return rename_term(self.head, mapping), rename_term(self.body, mapping)

    def to_term(self) -> Term:
        """The clause as a ``:-``/2 term (or bare head for facts)."""
        if self.is_fact:
            return self.head
        return Struct(":-", (self.head, self.body))


def split_clause(term: Term) -> Tuple[Term, Term]:
    """Split a clause term into (head, body); facts get body ``true``."""
    term = deref(term)
    if isinstance(term, Struct) and term.name == ":-" and term.arity == 2:
        return term.args[0], term.args[1]
    return term, Atom("true")


def body_goals(body: Term) -> List[Term]:
    """Flatten a conjunction into its top-level goals.

    Only ``','/2`` is flattened; disjunctions and if-then-elses remain
    single (compound) goals, which is what the block partitioner wants.
    """
    goals: List[Term] = []
    stack = [body]
    while stack:
        current = deref(stack.pop())
        if isinstance(current, Struct) and current.name == "," and current.arity == 2:
            stack.append(current.args[1])
            stack.append(current.args[0])
        else:
            goals.append(current)
    return goals


def goals_to_body(goals: Iterable[Term]) -> Term:
    """Rebuild a conjunction term from a goal list (``true`` if empty)."""
    items = list(goals)
    if not items:
        return Atom("true")
    body = items[-1]
    for goal in reversed(items[:-1]):
        body = Struct(",", (goal, body))
    return body


def _unknown_directive_warning(name: str) -> str:
    """One warning line for an unrecognized directive functor, with a
    did-you-mean hint when a known directive is a close misspelling."""
    import difflib

    message = f"unknown directive: {name}"
    close = difflib.get_close_matches(name, KNOWN_DIRECTIVES, n=1, cutoff=0.6)
    if close:
        message += f" (did you mean '{close[0]}'?)"
    return message


def first_arg_key(term: Term):
    """Index key of a call/head argument; None when unindexable (var).

    Shared between the clause index buckets and the compiled-clause
    head fingerprints (:mod:`repro.prolog.compile`): two concrete keys
    that differ can never unify, so either consumer may skip the
    attempt outright. Representation (internal, chosen for cheap
    construction on the per-call hot path): atoms key as the interned
    :class:`Atom` itself, numbers as ``(type, value)`` (so ``1`` and
    ``1.0`` stay distinct), compounds as ``(name, arity)``. The three
    families cannot collide: a ``(type, value)`` pair never equals a
    ``(str, int)`` pair, and an ``Atom`` equals only itself.

    Dispatches on the exact ``type()`` of the dereferenced term (the
    per-call hot path); any other type takes the ``isinstance`` path of
    :func:`_general_arg_key`.
    """
    kind = type(term)
    while kind is Var:
        term = term.ref
        if term is None:
            return None
        kind = type(term)
    if kind is Atom:
        return term
    if kind is Struct:
        return (term.name, len(term.args))
    if kind is int or kind is float:
        return (kind, term)
    return _general_arg_key(term)


def _general_arg_key(term: Term):
    """:func:`first_arg_key` for a term of a type it does not dispatch."""
    term = deref(term)
    if isinstance(term, Atom):
        return term
    if isinstance(term, Var):
        return None
    if is_number(term):
        return (type(term), term)
    assert isinstance(term, Struct)
    return (term.name, term.arity)


class Database:
    """All clauses of a program, grouped by predicate.

    ``indexing=True`` enables argument indexing: for a call whose
    indexed argument is bound, only clauses whose head could unify on
    that argument are attempted (a variable head argument matches any
    key). ``index_argument`` selects the position:

    * ``"multi"`` (default) — multi-argument discrimination indexing:
      the database keeps one bucket index per argument position (built
      lazily, only for positions a call actually binds) and each call
      is answered from the most *selective* bucket among its bound
      arguments — the generalization of the paper's §III-A "proper
      arguments" engine to per-call instantiation modes;
    * ``1`` (or any 1-based position) — classic first-argument
      indexing, what the paper's engines (C-Prolog, SB-Prolog-style)
      do;
    * ``"auto"`` — per predicate, one fixed most-selective argument
      (most distinct keys among the heads), used by the indexing
      ablation.

    ``scan_plans=True`` additionally lets the compiled engine bulk-skip
    fingerprint-rejected clauses on *unnarrowed* scans (``indexing=False``
    or an unindexable call) without a per-clause Python loop; the
    skipped clauses' counters are still charged exactly as if each had
    been attempted (see :meth:`scan_plan`).
    """

    def __init__(
        self,
        indexing: bool = True,
        index_argument: Union[int, str] = "multi",
        scan_plans: bool = True,
    ):
        self.indexing = indexing
        if index_argument not in ("auto", "multi") and (
            not isinstance(index_argument, int) or index_argument < 1
        ):
            raise ValueError(f"bad index_argument: {index_argument!r}")
        self.index_argument = index_argument
        #: Bulk fast-reject plans enabled (an ablation knob, like
        #: :attr:`indexing`: ``benchmarks/engine_bench.py`` measures the
        #: unindexed-scan speedup by toggling it).
        self.scan_plans = scan_plans
        self._predicates: Dict[Indicator, List[Clause]] = {}
        self._index: Dict[Indicator, Dict[Optional[Tuple], List[Clause]]] = {}
        self._index_position: Dict[Indicator, int] = {}
        #: Multi-argument mode: per predicate, per argument position,
        #: key -> clauses buckets; positions are indexed lazily.
        self._multi_index: Dict[Indicator, Dict[int, Dict[Optional[Tuple], List[Clause]]]] = {}
        #: Cached bulk fast-reject plans per predicate (see scan_plan).
        self._scan_plans: Dict[Indicator, Dict] = {}
        #: Compiled skeletons per predicate (see
        #: :mod:`repro.prolog.compile`), invalidated wholesale whenever
        #: :attr:`generation` moves past :attr:`_compiled_generation`.
        self._compiled: Dict[Indicator, List] = {}
        self._compiled_generation = 0
        self.directives: List[Term] = []
        #: Predicates declared ``:- table name/arity`` (see
        #: :mod:`repro.prolog.tabling`).
        self.tabled: set = set()
        #: Human-readable notes about directives we could not interpret.
        self.warnings: List[str] = []
        #: Bumped on every clause mutation; lets caches (e.g. the
        #: engine's table store) notice the program changed.
        self.generation = 0
        #: Per-predicate generation watermark: the :attr:`generation`
        #: value of each predicate's most recent mutation. Lets
        #: generation-scoped caches (the reorderer's AnalysisContext)
        #: identify *which* predicates changed instead of invalidating
        #: wholesale.
        self._predicate_marks: Dict[Indicator, int] = {}
        #: Optional event bus (index hit/miss telemetry); None = fast path.
        self.events = None
        # Per-database operator table: ':- op/3' directives extend it,
        # so queries and re-emitted source parse/print consistently.
        from .reader.operators import standard_operators

        self.operators = standard_operators()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_source(
        cls, source: str, indexing: bool = True, **kwargs
    ) -> "Database":
        """Build a database from Prolog source text.

        ``kwargs`` forward to the constructor (``index_argument``,
        ``scan_plans``).
        """
        database = cls(indexing=indexing, **kwargs)
        database.consult(source)
        return database

    def consult(self, source: str) -> None:
        """Add all clauses/directives from ``source`` (op/3 honoured)."""
        from .reader.parser import Parser

        for term in Parser(source, self.operators).read_program():
            self.add_term(term)

    def add_term(self, term: Term) -> None:
        """Add one parsed clause or directive term.

        Directives are collected for the analysis layer; ``table``
        directives additionally populate :attr:`tabled`, and directives
        whose functor is not in :data:`KNOWN_DIRECTIVES` produce a
        warning (with a did-you-mean hint for close misspellings).
        """
        term = deref(term)
        if isinstance(term, Struct) and term.name == ":-" and term.arity == 1:
            directive = deref(term.args[0])
            self.directives.append(directive)
            name = (
                directive.name
                if isinstance(directive, (Atom, Struct))
                else None
            )
            if name == "table":
                self._register_table_directive(directive)
            elif name is not None and name not in KNOWN_DIRECTIVES:
                self.warnings.append(_unknown_directive_warning(name))
            return
        head, body = split_clause(term)
        head = deref(head)
        if not isinstance(head, (Atom, Struct)):
            raise PrologSyntaxError(f"invalid clause head: {head!r}")
        self.add_clause(Clause(head, body))

    def _register_table_directive(self, directive: Term) -> None:
        """Record the predicates named by one ``table`` directive.

        Accepts ``name/arity``, comma-conjunctions, and list syntax;
        malformed specifications warn instead of failing the consult.
        """
        if not isinstance(directive, Struct) or directive.arity != 1:
            self.warnings.append(
                "table directive expects a name/arity argument"
            )
            return
        stack = [directive.args[0]]
        while stack:
            spec = deref(stack.pop())
            if isinstance(spec, Struct) and spec.name in (",", ".") and spec.arity == 2:
                stack.append(spec.args[1])
                stack.append(spec.args[0])
                continue
            if isinstance(spec, Atom) and spec.name == "[]":
                continue
            if isinstance(spec, Struct) and spec.name == "/" and spec.arity == 2:
                name = deref(spec.args[0])
                arity = deref(spec.args[1])
                if isinstance(name, Atom) and isinstance(arity, int) and arity >= 0:
                    self.tabled.add((name.name, arity))
                    continue
            self.warnings.append(
                f"table directive: expected name/arity, got {spec!r}"
            )

    def add_clause(self, clause: Clause) -> None:
        """Append a clause to its predicate (source order preserved)."""
        indicator = clause.indicator
        clauses = self._predicates.setdefault(indicator, [])
        if clauses:  # one indicator tuple per predicate, not per clause
            clause.indicator = indicator = clauses[0].indicator
        clause.index = len(clauses)
        clauses.append(clause)
        self.generation += 1
        self._predicate_marks[indicator] = self.generation
        self._index.pop(indicator, None)  # invalidate
        self._index_position.pop(indicator, None)
        self._multi_index.pop(indicator, None)
        self._scan_plans.pop(indicator, None)

    def replace_predicate(self, indicator: Indicator, clauses: List[Clause]) -> None:
        """Replace all clauses of a predicate (used by the reorderer)."""
        renumbered = []
        for position, clause in enumerate(clauses):
            renumbered.append(Clause(clause.head, clause.body, position))
        self._predicates[indicator] = renumbered
        self.generation += 1
        self._predicate_marks[indicator] = self.generation
        self._index.pop(indicator, None)
        self._index_position.pop(indicator, None)
        self._multi_index.pop(indicator, None)
        self._scan_plans.pop(indicator, None)

    def remove_predicate(self, indicator: Indicator) -> None:
        """Delete a predicate and its index entries."""
        self._predicates.pop(indicator, None)
        self.generation += 1
        self._predicate_marks.pop(indicator, None)
        self._index.pop(indicator, None)
        self._index_position.pop(indicator, None)
        self._multi_index.pop(indicator, None)
        self._scan_plans.pop(indicator, None)

    # -- queries ---------------------------------------------------------

    def predicates(self) -> List[Indicator]:
        """All predicate indicators, in first-definition order."""
        return list(self._predicates)

    def clauses(self, indicator: Indicator) -> List[Clause]:
        """All clauses of a predicate, in order (empty if undefined)."""
        return list(self._predicates.get(indicator, ()))

    def defines(self, indicator: Indicator) -> bool:
        """Is the predicate defined by at least one clause?"""
        return indicator in self._predicates

    def predicate_marks(self) -> Dict[Indicator, int]:
        """Generation watermark per defined predicate.

        Comparing two snapshots of this map tells an incremental
        consumer exactly which predicates were added, edited, or removed
        between two :attr:`generation` values."""
        return {
            indicator: self._predicate_marks.get(indicator, 0)
            for indicator in self._predicates
        }

    def compiled_program(self, indicator: Indicator) -> List:
        """Compiled skeletons for *every* clause of ``indicator``.

        The list is parallel to the predicate's full clause list, so a
        clause selected by :meth:`matching_clauses` finds its skeleton
        at ``program[clause.index]``. The cache is invalidated
        wholesale via the existing :attr:`generation` counter: any
        mutation (:meth:`add_clause`, :meth:`replace_predicate`,
        :meth:`remove_predicate`) bumps it, and the next lookup
        recompiles lazily — the same discipline the tabling store uses.
        """
        if self._compiled_generation != self.generation:
            self._compiled.clear()
            self._compiled_generation = self.generation
        program = self._compiled.get(indicator)
        if program is None:
            from .compile import compile_clause

            program = [
                compile_clause(clause)
                for clause in self._predicates.get(indicator, ())
            ]
            self._compiled[indicator] = program
        return program

    def matching_clauses(self, goal: Term) -> List[Clause]:
        """Clauses worth trying for ``goal``, respecting indexing."""
        indicator = functor_indicator(goal)
        if indicator[1]:
            goal = deref(goal)
            assert isinstance(goal, Struct)
            args: Tuple[Term, ...] = goal.args
        else:
            args = ()
        return self.matching_for(indicator, args)

    def matching_for(
        self,
        indicator: Indicator,
        args: Tuple[Term, ...],
        keys: Optional[Tuple[object, ...]] = None,
    ) -> List[Clause]:
        """Clause lookup from an indicator and argument tuple.

        The goal-term-free entry point the bytecode VM calls: the VM
        holds call arguments as a tuple and never builds a ``Struct``
        just to look up clauses. ``matching_clauses`` delegates here,
        so both engines share one indexing implementation. ``keys``,
        when given, is the caller's precomputed ``first_arg_key`` per
        argument (the VM already has them for head fingerprinting) and
        skips recomputing them here.
        """
        clauses = self._predicates.get(indicator)
        if clauses is None:
            return []
        if not self.indexing or indicator[1] == 0:
            if self.events is not None:
                self.events.emit(
                    IndexEvent(indicator, False, len(clauses), len(clauses))
                )
            return clauses
        if self.index_argument == "multi":
            return self._matching_multi(indicator, args, clauses, keys)
        buckets = self._index.get(indicator)
        if buckets is None:
            buckets = self._build_index(indicator, clauses)
        position = self._index_position[indicator]
        key = (
            keys[position] if keys is not None
            else first_arg_key(args[position])
        )
        if key is None:  # unbound call argument: every clause may match
            if self.events is not None:
                self.events.emit(
                    IndexEvent(indicator, False, len(clauses), len(clauses))
                )
            return clauses
        matched = buckets.get(key)
        unindexed = buckets.get(None)
        if matched is None:
            result: List[Clause] = unindexed or []
        elif not unindexed:
            result = matched
        else:
            # Merge variable-headed clauses back in source order.
            result = sorted(matched + unindexed, key=lambda c: c.index)
        if self.events is not None:
            self.events.emit(
                IndexEvent(indicator, True, len(result), len(clauses))
            )
        return result

    def _matching_multi(
        self,
        indicator: Indicator,
        args: Tuple[Term, ...],
        clauses: List[Clause],
        keys: Optional[Tuple[object, ...]] = None,
    ) -> List[Clause]:
        """Multi-argument lookup: the most selective bound position wins.

        Every bound call argument probes that position's bucket index
        (built lazily on first probe); the smallest candidate set is
        returned, with variable-headed clauses merged back in source
        order. A call with no bound argument reports an index miss and
        scans every clause, exactly like the single-position modes.
        """
        positions = self._multi_index.get(indicator)
        if positions is None:
            positions = {}
            self._multi_index[indicator] = positions
        total = len(clauses)
        best = None
        best_size = total + 1
        best_position = -1
        for position, arg in enumerate(args):
            key = keys[position] if keys is not None else first_arg_key(arg)
            if key is None:
                continue
            buckets = positions.get(position)
            if buckets is None:
                buckets = self._build_position_index(clauses, position)
                positions[position] = buckets
            matched = buckets.get(key)
            unindexed = buckets.get(None)
            size = (len(matched) if matched else 0) + (
                len(unindexed) if unindexed else 0
            )
            if size < best_size:
                best = (matched, unindexed)
                best_size = size
                best_position = position
                if size == 0:
                    break
        if best is None:  # no bound argument: every clause may match
            if self.events is not None:
                self.events.emit(IndexEvent(indicator, False, total, total))
            return clauses
        matched, unindexed = best
        if matched is None:
            result: List[Clause] = unindexed or []
        elif not unindexed:
            result = matched
        else:
            # Merge variable-headed clauses back in source order.
            result = sorted(matched + unindexed, key=lambda c: c.index)
        if self.events is not None:
            self.events.emit(
                IndexEvent(
                    indicator,
                    True,
                    len(result),
                    total,
                    position=best_position,
                    selectivity=(len(result) / total) if total else 0.0,
                )
            )
        return result

    @staticmethod
    def _build_position_index(
        clauses: List[Clause], position: int
    ) -> Dict[Optional[Tuple], List[Clause]]:
        buckets: Dict[Optional[Tuple], List[Clause]] = {}
        for clause in clauses:
            head = deref(clause.head)
            assert isinstance(head, Struct)
            buckets.setdefault(
                first_arg_key(head.args[position]), []
            ).append(clause)
        return buckets

    def scan_plan(self, indicator: Indicator, clauses: List[Clause], key):
        """Bulk fast-reject plan for a full-predicate scan, or ``None``.

        Applies only when ``clauses`` is the *unnarrowed* stored list
        (``indexing=False``, or an index mode that could not narrow this
        call) and the call's first argument is bound to ``key``. The
        plan is a tuple of ``(skipped, clause)`` steps — ``skipped``
        clauses whose head first-argument fingerprint can never unify
        with ``key``, followed by one survivor — ending with a
        ``(trailing_skipped, None)`` sentinel. The compiled engine
        charges each skipped clause's counters in one bulk update
        (identical totals to attempting it) instead of iterating
        per clause; ``None`` means no clause can be skipped (or plans
        are disabled) and the plain loop should run.
        """
        if not self.scan_plans:
            return None
        if clauses is not self._predicates.get(indicator):
            return None  # already narrowed by the index
        plans = self._scan_plans.get(indicator)
        if plans is None:
            plans = {}
            self._scan_plans[indicator] = plans
        if key in plans:
            return plans[key]
        steps: List[Tuple[int, Optional[Clause]]] = []
        skipped = 0
        for clause in clauses:
            head = deref(clause.head)
            assert isinstance(head, Struct)
            head_key = first_arg_key(head.args[0])
            if head_key is None or head_key == key:
                steps.append((skipped, clause))
                skipped = 0
            else:
                skipped += 1
        if len(steps) == len(clauses):
            plan = None  # nothing rejectable: the plan buys nothing
        else:
            steps.append((skipped, None))
            plan = tuple(steps)
        plans[key] = plan
        return plan

    def _choose_index_position(
        self, indicator: Indicator, clauses: List[Clause]
    ) -> int:
        """0-based argument position to index this predicate on."""
        if self.index_argument != "auto":
            return min(int(self.index_argument), indicator[1]) - 1
        best_position, best_selectivity = 0, -1
        for position in range(indicator[1]):
            keys = set()
            for clause in clauses:
                head = deref(clause.head)
                assert isinstance(head, Struct)
                keys.add(first_arg_key(head.args[position]))
            # A None key (variable argument) matches everything: it
            # hurts selectivity, so count distinct concrete keys only.
            selectivity = len(keys - {None}) - (10 * (None in keys))
            if selectivity > best_selectivity:
                best_position, best_selectivity = position, selectivity
        return best_position

    def _build_index(
        self, indicator: Indicator, clauses: List[Clause]
    ) -> Dict[Optional[Tuple], List[Clause]]:
        position = self._choose_index_position(indicator, clauses)
        self._index_position[indicator] = position
        buckets: Dict[Optional[Tuple], List[Clause]] = {}
        for clause in clauses:
            head = deref(clause.head)
            assert isinstance(head, Struct)
            key = first_arg_key(head.args[position])
            buckets.setdefault(key, []).append(clause)
        self._index[indicator] = buckets
        return buckets

    # -- whole-program views ----------------------------------------------

    def all_clauses(self) -> Iterator[Clause]:
        """Every stored clause, predicate by predicate."""
        for clauses in self._predicates.values():
            yield from clauses

    def to_terms(self) -> List[Term]:
        """Every clause as a term, predicate by predicate, in order."""
        return [clause.to_term() for clause in self.all_clauses()]

    def copy(self) -> "Database":
        """A shallow copy sharing Clause objects (they are immutable in use)."""
        other = Database(
            indexing=self.indexing,
            index_argument=self.index_argument,
            scan_plans=self.scan_plans,
        )
        for indicator, clauses in self._predicates.items():
            other._predicates[indicator] = list(clauses)
        other.directives = list(self.directives)
        other.tabled = set(self.tabled)
        other.warnings = list(self.warnings)
        other.operators = self.operators
        # The copy starts at generation 0 with every predicate unmarked,
        # matching a database consulted from scratch.
        other._predicate_marks = dict.fromkeys(other._predicates, 0)
        return other

    def snapshot(self) -> "Database":
        """A generation-preserving copy for snapshot-isolated readers.

        Unlike :meth:`copy` (which models "consulted from scratch" and
        resets every watermark), a snapshot keeps :attr:`generation`
        and the per-predicate marks intact, so generation-scoped
        consumers (the serving layer's :class:`repro.serve.Snapshot`
        handles, the incremental pipeline) can compare two snapshots'
        :meth:`predicate_marks` directly. Clause objects are shared —
        they are immutable in use (execution always renames or
        instantiates from skeletons) — so the copy is O(predicates),
        cheap enough to take per update.
        """
        other = self.copy()
        other.generation = self.generation
        other._predicate_marks = dict(self._predicate_marks)
        return other

    def __contains__(self, indicator: Indicator) -> bool:
        return indicator in self._predicates

    def __len__(self) -> int:
        return sum(len(c) for c in self._predicates.values())
