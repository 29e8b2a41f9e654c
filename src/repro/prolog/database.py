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
from .terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
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
    #: Is the body ``true``? Computed once, like :attr:`indicator`: no
    #: code reassigns :attr:`body` either.
    is_fact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indicator = functor_indicator(self.head)
        body = deref(self.body)
        self.is_fact = isinstance(body, Atom) and body.name == "true"

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
    per-call hot path). A term of any other type is unindexable too:
    every clause stays a candidate.
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
    return None


class _PositionIndex:
    """The candidates per call key at one discriminating position."""

    __slots__ = ("candidates", "buckets", "wild")

    def __init__(self, buckets: Dict[object, List[Clause]], wild: List[Clause]):
        #: Head key -> the clauses with that key here, in source order.
        self.buckets = buckets
        #: The clauses with a variable here, in source order: they match
        #: every key.
        self.wild = wild
        #: Call key -> candidates. Without variable heads a bucket is
        #: already the candidate list; with them, :meth:`merge` fills it.
        self.candidates = buckets if not wild else {}

    def merge(self, key) -> List[Clause]:
        """The candidates for a key :attr:`candidates` does not hold yet:
        its bucket merged with the variable heads in source order, or
        the variable heads alone when no head has the key."""
        matched = self.buckets.get(key)
        if matched is None:
            return self.wild
        merged = self.candidates[key] = sorted(
            matched + self.wild, key=lambda clause: clause.index
        )
        return merged


class _SelectionEntry:
    """What :meth:`Database.select` knows about one predicate.

    Built from the clause list and its compiled program, whose
    ``head_keys`` give each clause's key per argument position. A
    position is *discriminating* when at least one head is not a
    variable there; only those get a :class:`_PositionIndex`, because a
    call key elsewhere can reject no clause.
    """

    __slots__ = ("clauses", "program", "indexes", "whole", "plans")

    def __init__(self, clauses: Tuple[Clause, ...], program: List):
        #: Its own tuple, not the database's list: ``add_clause``
        #: appends to that list, and copies share the entry.
        self.clauses = clauses
        self.program = program
        #: ``(position, index.candidates, index)`` per discriminating
        #: position, ascending.
        self.indexes: Tuple[Tuple[int, Dict, _PositionIndex], ...] = ()
        for position in range(len(program[0].head_keys) if program else 0):
            buckets: Dict[object, List[Clause]] = {}
            wild: List[Clause] = []
            for clause, compiled in zip(clauses, program):
                key = compiled.head_keys[position]
                if key is None:
                    wild.append(clause)
                else:
                    buckets.setdefault(key, []).append(clause)
            if buckets:
                index = _PositionIndex(buckets, wild)
                self.indexes += ((position, index.candidates, index),)
        #: The selection of a call that binds no discriminating position.
        self.whole = (clauses, program, None, (), None)
        #: Scan plans per first-argument key; see :meth:`plan`.
        self.plans: Dict[object, Optional[tuple]] = {}

    def plan(self, key):
        """Bulk fast-reject plan for a full-predicate scan, or ``None``.

        ``key`` is the call's bound first-argument key (position 0 is
        discriminating). The plan is a tuple of ``(skipped, clause)``
        steps — ``skipped`` clauses whose head first-argument
        fingerprint can never unify with ``key``, followed by one
        survivor — ending with a ``(trailing_skipped, None)`` sentinel.
        The compiled engine charges each skipped clause's counters in
        one bulk update (identical totals to attempting it) instead of
        iterating per clause; ``None`` means no clause can be skipped
        and the plain loop should run. Every key no head has shares one
        plan, so the cache holds at most one plan per head key, plus one.
        """
        if key not in self.indexes[0][2].buckets:
            key = None
        if key in self.plans:
            return self.plans[key]
        steps: List[Tuple[int, Optional[Clause]]] = []
        skipped = 0
        for clause, compiled in zip(self.clauses, self.program):
            head_key = compiled.head_keys[0]
            if head_key is None or head_key == key:
                steps.append((skipped, clause))
                skipped = 0
            else:
                skipped += 1
        plan = None  # nothing rejectable: the plan buys nothing
        if len(steps) != len(self.clauses):
            steps.append((skipped, None))
            plan = tuple(steps)
        self.plans[key] = plan
        return plan


#: The selection of a call no clause can match.
_NO_CLAUSES = ((), (), None, (), None)


class Database:
    """All clauses of a program, grouped by predicate.

    ``indexing=True`` enables argument indexing: for a call with a bound
    argument, only clauses whose head could unify on that argument are
    attempted (a variable head argument matches any key). Each call is
    answered from the most *selective* bucket among its bound
    arguments. ``index_argument`` limits the positions consulted:

    * ``"multi"`` (default) — every argument position: the paper's
      §III-A engine that "indexes on the proper arguments", generalized
      to per-call instantiation modes;
    * ``1`` — the first argument only: classic first-argument indexing,
      what the paper's engines (C-Prolog, SB-Prolog-style) do.

    :meth:`select` is the one clause-selection entry point of the
    compiled engine. It answers from one :class:`_SelectionEntry` per
    predicate, built on first use: the clause list, the compiled
    program and a bucket index per discriminating argument position.
    A mutation drops only its own predicate's entry; the entry does not
    depend on ``indexing`` or ``index_argument``, which :meth:`select`
    reads on every call. :meth:`matching_for` is the
    interpreter's selection, with its own lazily built buckets, and the
    compiled engine's while an event bus is attached to :attr:`events`
    (so the bus sees every index probe).

    On an unindexed scan (``indexing=False``) of a call whose first
    argument is bound, the compiled engine bulk-skips
    fingerprint-rejected clauses through a scan plan instead of a
    per-clause Python loop; the skipped clauses' counters are still
    charged exactly as if each had been attempted (see
    :meth:`_SelectionEntry.plan`).
    """

    def __init__(
        self,
        indexing: bool = True,
        index_argument: Union[int, str] = "multi",
    ):
        self.indexing = indexing
        self.index_argument = index_argument
        self._predicates: Dict[Indicator, List[Clause]] = {}
        #: :meth:`matching_for`'s buckets: per predicate, per argument
        #: position, key -> clauses; positions are indexed lazily.
        self._buckets: Dict[Indicator, Dict[int, Dict[Optional[Tuple], List[Clause]]]] = {}
        #: :meth:`select`'s entry per predicate, built lazily.
        self._entries: Dict[Indicator, _SelectionEntry] = {}
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

    def __setattr__(self, name: str, value) -> None:
        if name == "index_argument" and value != "multi" and (
            type(value) is not int or value != 1
        ):
            raise ValueError(f"bad index_argument: {value!r}")
        object.__setattr__(self, name, value)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_source(
        cls, source: str, indexing: bool = True, **kwargs
    ) -> "Database":
        """Build a database from Prolog source text.

        ``kwargs`` forward to the constructor (``index_argument``).
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
        self._changed(indicator)

    def replace_predicate(self, indicator: Indicator, clauses: List[Clause]) -> None:
        """Replace all clauses of a predicate (used by the reorderer)."""
        renumbered = []
        for position, clause in enumerate(clauses):
            renumbered.append(Clause(clause.head, clause.body, position))
        self._predicates[indicator] = renumbered
        self._changed(indicator)

    def remove_predicate(self, indicator: Indicator) -> None:
        """Delete a predicate and its index entries."""
        self._predicates.pop(indicator, None)
        self._changed(indicator)
        del self._predicate_marks[indicator]

    def _changed(self, indicator: Indicator) -> None:
        """Record a mutation of ``indicator``: bump the generation and
        drop its bucket indexes and its selection entry."""
        self.generation += 1
        self._predicate_marks[indicator] = self.generation
        self._buckets.pop(indicator, None)
        self._entries.pop(indicator, None)

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
        at ``program[clause.index]``. It lives in the predicate's
        selection entry: a mutation of the predicate drops it, and the
        next lookup recompiles lazily; other predicates keep theirs.
        """
        return self._entry(indicator).program

    def _entry(self, indicator: Indicator) -> "_SelectionEntry":
        """The selection entry of ``indicator``, built on first use."""
        entry = self._entries.get(indicator)
        if entry is None:
            from .compile import compile_clause

            clauses = tuple(self._predicates.get(indicator, ()))
            entry = _SelectionEntry(
                clauses, [compile_clause(clause) for clause in clauses]
            )
            self._entries[indicator] = entry
        return entry

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
        self, indicator: Indicator, args: Tuple[Term, ...]
    ) -> List[Clause]:
        """Candidate clauses for a call, from its indicator and arguments.

        With indexing on, every bound call argument (only the first
        under ``index_argument=1``) probes that position's bucket index,
        built lazily on first probe; the smallest candidate set wins,
        with variable-headed clauses merged back in source order. A call
        with no bound argument, or any call with indexing off, reports
        an index miss and scans every clause.
        """
        clauses = self._predicates.get(indicator)
        if clauses is None:
            return []
        total = len(clauses)
        best = None
        if self.indexing:
            if self.index_argument == 1:
                args = args[:1]
            positions = self._buckets.get(indicator)
            if positions is None:
                positions = self._buckets[indicator] = {}
            best_size = total + 1
            best_position = -1
            for position, arg in enumerate(args):
                key = first_arg_key(arg)
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

    def select(self, indicator: Indicator, args: Tuple[Term, ...]) -> Tuple:
        """Clause selection for one compiled-engine call.

        Returns ``(clauses, program, goal_keys, bound_positions, plan)``:
        the candidates (those of :meth:`matching_for`, in the same
        order), the predicate's :meth:`compiled_program`, the call's
        argument keys indexed by position and the positions whose head
        fingerprints the engine must still check (``None`` and ``()``
        when no candidate can be fingerprint-rejected), and an
        unindexed-scan plan or ``None``.

        Only discriminating positions (some head is not a variable
        there) are keyed: a predicate without one returns its
        precomputed whole-predicate selection at once. With indexing on,
        each bound discriminating position costs one dict probe, and the
        smallest bucket wins, the first one on a tie, as in
        :meth:`matching_for`. The chosen position is left out of
        ``bound_positions``: its bucket's clauses all match it. While an
        event bus is attached the candidates come from
        :meth:`matching_for`, which emits the ``IndexEvent``.
        """
        entry = self._entries.get(indicator)
        if entry is None:
            entry = self._entry(indicator)
        # The argument positions below the limit are probed.
        if self.events is not None or not self.indexing:
            limit = 0
        elif self.index_argument == 1:
            limit = 1
        elif entry.indexes:
            limit = len(args)
        else:
            return entry.whole
        clauses = entry.clauses
        best_size = len(clauses) + 1
        chosen = None
        bound = 0
        for position, table, index in entry.indexes:
            key = args[position]
            if type(key) is not Atom:  # an atom is its own key
                key = first_arg_key(key)
                if key is None:
                    continue
            bound += 1
            if position < limit:
                candidates = table.get(key)
                if candidates is None:
                    candidates = index.merge(key)
                size = len(candidates)
                if size < best_size:
                    if not size:
                        return _NO_CLAUSES
                    clauses = candidates
                    best_size = size
                    chosen = position
        if self.events is not None:
            clauses = self.matching_for(indicator, args)
        elif chosen is not None:
            bound -= 1
        if not bound or len(clauses) < 2:
            if not clauses:
                return _NO_CLAUSES
            return clauses, entry.program, None, (), None
        # Some candidate may fail a fingerprint: key the other positions.
        keys = {}
        for position, _table, _index in entry.indexes:
            if position != chosen:
                key = first_arg_key(args[position])
                if key is not None:
                    keys[position] = key
        plan = None
        if not self.indexing and 0 in keys:
            plan = entry.plan(keys[0])
        return clauses, entry.program, keys, tuple(keys), plan

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

    # -- whole-program views ----------------------------------------------

    def all_clauses(self) -> Iterator[Clause]:
        """Every stored clause, predicate by predicate."""
        for clauses in self._predicates.values():
            yield from clauses

    def to_terms(self) -> List[Term]:
        """Every clause as a term, predicate by predicate, in order."""
        return [clause.to_term() for clause in self.all_clauses()]

    def empty_like(self) -> "Database":
        """A clauseless database that reads, prints and indexes like
        this one: the same ``indexing``, ``index_argument`` and operator
        table. Directives and tabling stay with the caller to copy."""
        other = Database(
            indexing=self.indexing, index_argument=self.index_argument
        )
        other.operators = self.operators
        return other

    def copy(self) -> "Database":
        """A shallow copy sharing Clause objects (they are immutable in use)
        and every predicate's selection entry: an entry holds its own
        clause tuple, so an edit on either side drops only that side's
        entry of the edited predicate."""
        other = self.empty_like()
        for indicator, clauses in self._predicates.items():
            other._predicates[indicator] = list(clauses)
        other.directives = list(self.directives)
        other.tabled = set(self.tabled)
        other.warnings = list(self.warnings)
        other._entries = dict(self._entries)
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
        cheap enough to take per update. So are the selection entries
        (compiled programs included): after an update, only the edited
        predicates are compiled and indexed again.
        """
        other = self.copy()
        other.generation = self.generation
        other._predicate_marks = dict(self._predicate_marks)
        return other

    def __getstate__(self) -> dict:
        # A pickled database ships without its selection tables: the
        # receiver rebuilds them lazily, and the blob stays the size of
        # the clauses.
        state = dict(self.__dict__)
        state["_entries"] = {}
        state["_buckets"] = {}
        return state

    def __contains__(self, indicator: Indicator) -> bool:
        return indicator in self._predicates

    def __len__(self) -> int:
        return sum(len(c) for c in self._predicates.values())
