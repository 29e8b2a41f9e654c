"""The Prolog inference engine.

Depth-first SLD resolution with backtracking, exactly the execution
model the paper assumes: clauses tried in stored order, goals solved
left to right, backtracking on failure, with a WAM-style binding trail
undone between alternatives.

A compiled engine (the default) runs every user-predicate call on the
bytecode VM (:mod:`repro.prolog.vm`): clauses are compiled once to
slot-numbered skeletons (:mod:`repro.prolog.compile`) and their bodies,
control constructs included, to linear bytecode run by one iterative
trampoline. :meth:`Engine.solve_goal` is the generator-based entry the
query API, meta-calls (``call/N``, ``findall/3``, ...) and variable
goals go through — ``solve_goal`` yields once per solution — and
``Engine(compiled=False)`` keeps the seed interpreter, the
rename-per-attempt generator path that the differential tests hold the
VM against, solution for solution and counter for counter.

On the generator path cut is implemented with per-call *frames*:
executing ``!`` succeeds immediately; when it is asked for another
solution it sets the frame's ``cut`` flag, which (a) stops retrying
goals to its left in the body and (b) stops the clause loop from trying
further clauses. ``;``, ``->`` and ``\\+`` introduce the standard local
barriers.

Safety bounds (``max_depth``, ``call_budget``) turn the infinite
recursions that illegal modes cause (§V-B) into catchable exceptions,
which both the tests and the legality experiments rely on.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
from typing import Deque, Dict, Iterator, List, Optional, Tuple, Union

from ..observability.events import EventBus
from ..errors import (
    CallBudgetExceeded,
    DepthLimitExceeded,
    ExistenceError,
    InstantiationError,
    TypeErrorProlog,
)
from ..robustness import faults
from ..robustness.budget import Budget
from .builtins import BUILTINS, lookup, solve_det
from .compile import flatten_conjunction
from .database import Database
from .metrics import Metrics
from .tabling import TableStore, solve_tabled
from .reader.parser import parse_term
from .terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    is_callable_term,
    rename_term,
    term_variables,
)
from .unify import Trail, unify

__all__ = ["Engine", "Frame", "Solution"]

Indicator = Tuple[str, int]


class Frame:
    """A cut barrier: one per predicate call (and per local-cut context)."""

    __slots__ = ("cut",)

    def __init__(self) -> None:
        self.cut = False


class Solution:
    """One query answer: variable name → fully-resolved term copy."""

    def __init__(self, bindings: Dict[str, Term]):
        self.bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __eq__(self, other: object) -> bool:
        from .terms import structural_eq

        if not isinstance(other, Solution):
            return NotImplemented
        if set(self.bindings) != set(other.bindings):
            return False
        return all(
            structural_eq(self.bindings[k], other.bindings[k]) for k in self.bindings
        )

    def __repr__(self) -> str:
        from .writer import term_to_string

        inner = ", ".join(
            f"{name} = {term_to_string(term)}" for name, term in self.bindings.items()
        )
        return "{" + inner + "}"

    def key(self) -> tuple:
        """A hashable key for set-equivalence checks.

        Stable across runs: unbound variables are numbered by first
        occurrence (scanning bindings in name order), so two solutions
        that differ only in variable identity get equal keys.
        """
        from .terms import Atom, Struct, Var, deref, is_number

        numbering: Dict[int, int] = {}

        def canonical(term):
            term = deref(term)
            if isinstance(term, Var):
                index = numbering.setdefault(id(term), len(numbering))
                return (0, index)
            if is_number(term):
                return (1, float(term), 0 if isinstance(term, float) else 1)
            if isinstance(term, Atom):
                return (2, term.name)
            assert isinstance(term, Struct)
            return (3, term.arity, term.name, tuple(canonical(a) for a in term.args))

        return tuple(
            (name, canonical(self.bindings[name])) for name in sorted(self.bindings)
        )


#: Highest recursion limit any engine has requested so far; lets
#: :meth:`Engine.ensure_recursion_capacity` skip the ``sys`` calls when
#: an equal or deeper engine already raised the limit.
_recursion_highwater = 0


class Engine:
    """Executes queries against a :class:`~repro.prolog.database.Database`."""

    #: Python stack frames consumed per Prolog call level (with margin).
    _FRAMES_PER_LEVEL = 12

    #: Upper bound on the interpreter recursion limit this library will
    #: ever set. Beyond this the C stack overflows before Python's
    #: bookkeeping helps; deeper programs should raise ``max_depth``
    #: expectations instead (the engine reports DepthLimitExceeded).
    RECURSION_LIMIT_CAP = 30_000

    @classmethod
    def ensure_recursion_capacity(cls, max_depth: int) -> None:
        """Raise the interpreter recursion limit once for ``max_depth``.

        The interpreter's generator chain (and meta-call nesting on any
        engine) takes Python frames in proportion to the Prolog depth. The computed need is clamped to
        :data:`RECURSION_LIMIT_CAP`, the limit is never lowered, and a
        module-level high-water mark makes repeat calls (one engine per
        calibration sample, say) free.
        """
        global _recursion_highwater
        needed = min(
            2_000 + cls._FRAMES_PER_LEVEL * max_depth, cls.RECURSION_LIMIT_CAP
        )
        if needed <= _recursion_highwater:
            return
        _recursion_highwater = needed
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)

    def __init__(
        self,
        database: Database,
        max_depth: int = 1_000,
        call_budget: Optional[int] = None,
        occurs_check: bool = False,
        echo: bool = False,
        table_all: bool = False,
        adjust_recursion_limit: bool = True,
        compiled: bool = True,
        budget: Optional[Budget] = None,
        eval_strategy: str = "topdown",
    ):
        self.database = database
        self.trail = Trail()
        self.metrics = Metrics()
        self.max_depth = max_depth
        self.call_budget = call_budget
        #: Default :class:`~repro.robustness.Budget` applied to every
        #: query this engine runs (a per-call budget passed to
        #: :meth:`solve`/:meth:`ask` takes precedence).
        self.budget = budget
        #: The budget charged by the query currently executing; set and
        #: restored by :meth:`solve` so nested machinery (the VM, the
        #: tabling fixpoint) can reach it without plumbing.
        self._active_budget: Optional[Budget] = None
        self.occurs_check = occurs_check
        #: Captured output of write/nl/etc.
        self.output: List[str] = []
        #: Mirror output to stdout as well.
        self.echo = echo
        #: Input queue for read/1 and get0/1.
        self.input_terms: Deque[Term] = deque()
        #: Optional event bus for the low-rate structural events (index,
        #: table, stratum, budget, ...; see
        #: :mod:`repro.observability.events`). Never consulted per call.
        self.events: Optional[EventBus] = None
        #: The one per-call instrumentation slot: anything with the
        #: recorder's box hooks — a sampled or full-rate
        #: :class:`~repro.observability.streaming.recorder.StreamingRecorder`,
        #: or a :class:`~repro.prolog.trace.CollectingTracer`. None
        #: keeps the uninstrumented fast path.
        self.recorder = None
        #: Bound for length/2 open enumeration.
        self.max_list_length = 10_000
        #: Table every user predicate, not just ``:- table`` ones.
        self.table_all = table_all
        #: Variant tables memoized by this engine (see tabling docs).
        self.tables = TableStore()
        #: The in-flight tabling fixpoint, if any.
        self._table_evaluation = None
        #: Stack of tables currently running a production pass.
        self._table_producing: List = []
        #: Nesting depth of negation-as-failure (stratification check).
        self._negation_depth = 0
        #: Solve user predicates on the bytecode VM (the default; see
        #: :mod:`repro.prolog.vm`) or on the interpreted
        #: rename-per-attempt path, the differential oracle. Bound once
        #: here so the hot dispatch in ``solve_goal`` (and the tabling
        #: producer, which calls ``engine._solve_user`` directly) pays
        #: no per-call branching.
        self.compiled = compiled
        #: Clause-selection memo for the VM call path, keyed by
        #: ``(indicator, arg_keys)`` with the database generation
        #: stored in each cell — index probes are a pure function of
        #: the argument keys, so a generation-validated hit skips the
        #: defines/matching/compiled-program lookups entirely.
        self._vm_call_cache: dict = {}
        if compiled:
            from .vm import solve_vm

            self._solve_user = partial(solve_vm, self)
        else:
            self._solve_user = self._solve_user_interpreted
        #: Evaluation strategy: ``"topdown"`` (the default — pure SLD,
        #: counters byte-identical to every earlier release),
        #: ``"bottomup"`` (route every eligible datalog-like stratum to
        #: the semi-naive evaluator in :mod:`repro.prolog.bottomup`),
        #: or ``"auto"`` (the cost model routes recursive eligible
        #: strata bottom-up and leaves the rest to SLD resolution).
        if eval_strategy not in ("topdown", "bottomup", "auto"):
            raise ValueError(f"bad eval_strategy: {eval_strategy!r}")
        self.eval_strategy = eval_strategy
        if eval_strategy == "topdown":
            self._bottomup = None
        else:
            from .bottomup import BottomUpDispatcher

            self._bottomup = BottomUpDispatcher(eval_strategy)
        if adjust_recursion_limit:
            # Short-lived engines (calibration samples) pass False and
            # rely on one up-front ensure_recursion_capacity call.
            self.ensure_recursion_capacity(max_depth)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_source(cls, source: str, **kwargs) -> "Engine":
        """Build an engine over a database consulted from ``source``."""
        return cls(Database.from_source(source), **kwargs)

    def new_frame(self) -> Frame:
        """A fresh cut barrier (one per call / local-cut context)."""
        return Frame()

    def output_text(self) -> str:
        """All captured output as one string."""
        return "".join(self.output)

    # -- the solver ----------------------------------------------------------

    def solve_goal(self, goal: Term, depth: int, frame: Frame) -> Iterator[None]:
        """Yield once per solution of ``goal``. Bindings live on the trail
        while the caller holds the yield; they are undone when the caller
        asks for the next solution (or by an enclosing choice point)."""
        goal = deref(goal)
        if isinstance(goal, Var):
            raise InstantiationError("variable goal")
        if not is_callable_term(goal):
            raise TypeErrorProlog("callable", goal)

        if isinstance(goal, Struct):
            name, arity = goal.name, goal.arity
            # Control constructs: handled inline for cut transparency.
            if name == "," and arity == 2:
                # Flatten the whole chain once and run the flat loop
                # instead of recursing one generator per ',' node.
                yield from self._solve_body(
                    flatten_conjunction(goal), depth, frame
                )
                return
            if name == ";" and arity == 2:
                yield from self._solve_disjunction(goal.args[0], goal.args[1], depth, frame)
                return
            if name == "->" and arity == 2:
                # A bare if-then (no else): fail if the condition fails.
                yield from self._solve_if_then_else(
                    goal.args[0], goal.args[1], Atom("fail"), depth, frame
                )
                return
            args: Tuple[Term, ...] = goal.args
        else:
            assert isinstance(goal, Atom)
            name, arity = goal.name, 0
            if name == "true":
                yield
                return
            if name in ("fail", "false"):
                return
            if name == "!":
                yield
                frame.cut = True
                return
            args = ()

        indicator = (name, arity)
        self._charge_call(indicator)

        registered = lookup(indicator)
        if registered is not None:
            if registered.det:
                iterator = solve_det(self, registered.fn, args)
            else:
                iterator = registered.fn(self, args, depth, frame)
        else:
            if not self.database.defines(indicator):
                raise ExistenceError(indicator)
            bottomup = self._bottomup
            iterator = (
                bottomup.solve(self, goal, indicator, depth)
                if bottomup is not None
                else None
            )
            if iterator is None:
                if self.table_all or indicator in self.database.tabled:
                    iterator = solve_tabled(self, goal, indicator, depth)
                else:
                    iterator = self._solve_user(goal, indicator, depth)
        recorder = self.recorder
        if recorder is None:
            # Uninstrumented fast path: delegate directly. Nothing below
            # this line (mode strings, timestamps, boxes) is constructed
            # when no recorder is attached.
            yield from iterator
            return
        # Sampling decided inline, so an unsampled call costs one set
        # test plus a stride check on the call counter ``_charge_call``
        # already maintains — only sampled boxes pay for a box object
        # and timestamps, and only rare-phase predicates reach recorder
        # code at all.
        if indicator in recorder.hot:
            sampled = not self.metrics.calls % recorder.sample_every
        else:
            sampled = recorder.admit_cold(indicator, self.metrics)
        if sampled:
            yield from self._record_boxed(iterator, goal, args, indicator, depth)
        else:
            yield from iterator

    def _record_boxed(
        self,
        iterator: Iterator[None],
        goal: Term,
        args: Tuple[Term, ...],
        indicator: Indicator,
        depth: int,
    ) -> Iterator[None]:
        """Byrd's four-port box around one sampled goal activation.

        ``open_box`` is the call port, ``pause_box`` exit and
        ``resume_box`` redo. ``close_box`` always runs; its ``failed``
        flag is True only when the goal failed out (the fail port), and
        False when the box was abandoned by cut, ``once``, a solution
        limit or an exception. The pause/resume windows make the closed
        box's cost 1 + calls made while it was active.
        """
        recorder = self.recorder
        box = recorder.open_box(
            indicator, _runtime_mode(args), depth, self.metrics, goal
        )
        failed = False
        try:
            for _ in iterator:
                recorder.pause_box(box)
                yield
                recorder.resume_box(box)
            failed = True
        finally:
            recorder.close_box(box, failed)

    def _charge_call(self, indicator: Indicator) -> None:
        # The one place a predicate call is charged: the VM calls it too.
        metrics = self.metrics
        metrics.calls += 1
        by_predicate = metrics.calls_by_predicate
        by_predicate[indicator] = by_predicate.get(indicator, 0) + 1
        if self.call_budget is not None and metrics.calls > self.call_budget:
            raise CallBudgetExceeded(
                f"exceeded {self.call_budget} calls (at {indicator[0]}/{indicator[1]})"
            )
        if self._active_budget is not None:
            self._active_budget.charge_call()
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("engine.call")

    def _solve_body(
        self, goals: List[Term], depth: int, frame: Frame
    ) -> Iterator[None]:
        """Solve a flat goal list left to right with backtracking.

        The goal-list equivalent of the classic nested-conjunction
        recursion, in one Python frame: goal ``i`` advancing opens a
        fresh sub-iterator for goal ``i+1``; goal ``i`` exhausting
        resumes goal ``i-1`` — unless the clause frame's cut flag is
        set, which (exactly like the recursive version) stops retrying
        goals to the left. Each solution costs one ``yield`` instead of
        one hop per conjunction level.
        """
        n = len(goals)
        if n == 1:
            yield from self.solve_goal(goals[0], depth, frame)
            return
        if n == 0:
            yield
            return
        solve = self.solve_goal
        iterators: List[Optional[Iterator[None]]] = [None] * n
        iterators[0] = solve(goals[0], depth, frame)
        last = n - 1
        i = 0
        budget = self._active_budget
        try:
            while i >= 0:
                if budget is not None:
                    # A step per body-loop iteration catches redo storms
                    # (e.g. ``between/3, fail``) that never make a new
                    # call and so would dodge ``_charge_call``.
                    budget.charge_step()
                advanced = False
                for _ in iterators[i]:
                    advanced = True
                    break
                if advanced:
                    if i == last:
                        yield
                    else:
                        i += 1
                        iterators[i] = solve(goals[i], depth, frame)
                else:
                    iterators[i] = None
                    if frame.cut:
                        return
                    i -= 1
        finally:
            # Close abandoned sub-iterators rightmost-first — the same
            # order the nested yield-from chain unwound in, so paired
            # try/finally state (negation depth, producer stacks) pops
            # in LIFO order.
            while i >= 0:
                iterator = iterators[i]
                if iterator is not None:
                    iterator.close()
                i -= 1

    def _solve_disjunction(
        self, left: Term, right: Term, depth: int, frame: Frame
    ) -> Iterator[None]:
        left_deref = deref(left)
        if (
            isinstance(left_deref, Struct)
            and left_deref.name == "->"
            and left_deref.arity == 2
        ):
            yield from self._solve_if_then_else(
                left_deref.args[0], left_deref.args[1], right, depth, frame
            )
            return
        mark = self.trail.mark()
        yield from self.solve_goal(left, depth, frame)
        if frame.cut:
            return
        self.trail.undo_to(mark)
        yield from self.solve_goal(right, depth, frame)

    def _solve_if_then_else(
        self, condition: Term, then_part: Term, else_part: Term, depth: int, frame: Frame
    ) -> Iterator[None]:
        mark = self.trail.mark()
        condition_frame = self.new_frame()  # '->' cuts locally to the condition
        satisfied = False
        for _ in self.solve_goal(condition, depth, condition_frame):
            satisfied = True
            yield from self.solve_goal(then_part, depth, frame)
            break  # commit to the first condition solution
        if not satisfied:
            self.trail.undo_to(mark)
            yield from self.solve_goal(else_part, depth, frame)

    def _solve_user_interpreted(
        self, goal: Term, indicator: Indicator, depth: int
    ) -> Iterator[None]:
        """The pre-compilation clause-try loop (full rename per attempt).

        Kept as the ``Engine(compiled=False)`` reference semantics: the
        differential tests assert the compiled path matches it solution
        for solution and counter for counter.
        """
        if depth >= self.max_depth:
            raise DepthLimitExceeded(
                f"depth {self.max_depth} exceeded at {indicator[0]}/{indicator[1]}"
            )
        clauses = self.database.matching_clauses(goal)
        frame = self.new_frame()
        first_attempt = True
        for clause in clauses:
            if not first_attempt:
                self.metrics.record_backtrack()
            first_attempt = False
            mark = self.trail.mark()
            head, body = clause.rename()
            if unify(goal, head, self.trail, occurs_check=self.occurs_check):
                self.metrics.record_unification(True)
                yield from self.solve_goal(body, depth + 1, frame)
            else:
                self.metrics.record_unification(False)
            self.trail.undo_to(mark)
            if frame.cut:
                return

    # -- public query API --------------------------------------------------------

    def solve(
        self, query: Union[str, Term], budget: Optional[Budget] = None
    ) -> Iterator[Solution]:
        """Yield a :class:`Solution` snapshot per answer to ``query``.

        The snapshot's terms are copies: safe to keep after backtracking.
        ``budget`` (or the engine-level default) bounds the enumeration:
        deadline expiry / budget exhaustion raise the
        :class:`~repro.errors.BudgetExceededError` family, and a
        solution cap stops the iteration cleanly once reached.
        """
        goal = (
            parse_term(query, self.database.operators)
            if isinstance(query, str)
            else query
        )
        variables = [
            v for v in term_variables(goal) if not v.name.startswith("_")
        ]
        active = budget if budget is not None else self.budget
        if active is not None:
            active.start()
        previous = self._active_budget
        self._active_budget = active
        mark = self.trail.mark()
        try:
            for _ in self.solve_goal(goal, 0, self.new_frame()):
                # One shared mapping per snapshot: two query variables
                # bound to the same unbound variable must keep sharing
                # it in the Solution (a fresh mapping per variable
                # would tear them apart).
                mapping: Dict[int, Var] = {}
                yield Solution(
                    {var.name: rename_term(var, mapping) for var in variables}
                )
                if active is not None and active.note_solution():
                    return
        except RecursionError:
            raise DepthLimitExceeded(
                "Python recursion limit reached before max_depth; "
                "the query recurses too deeply"
            ) from None
        finally:
            self._active_budget = previous
            self.trail.undo_to(mark)

    def ask(
        self,
        query: Union[str, Term],
        limit: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> List[Solution]:
        """All (or the first ``limit``) solutions as a list.

        The solve generator is closed explicitly once the limit is hit,
        so trail/choice-point state unwinds deterministically here — not
        whenever garbage collection happens to finalize the generator.
        """
        results: List[Solution] = []
        generator = self.solve(query, budget=budget)
        try:
            for solution in generator:
                results.append(solution)
                if limit is not None and len(results) >= limit:
                    break
        finally:
            generator.close()
        return results

    def succeeds(self, query: Union[str, Term]) -> bool:
        """True when ``query`` has at least one solution."""
        for _ in self.solve(query):
            return True
        return False

    def count_solutions(self, query: Union[str, Term]) -> int:
        """The number of solutions (forces full backtracking)."""
        return sum(1 for _ in self.solve(query))

    def run(self, query: Union[str, Term]) -> Tuple[List[Solution], Metrics]:
        """All solutions plus the metrics charged by this query alone."""
        before = self.metrics.snapshot()
        solutions = self.ask(query)
        return solutions, self.metrics.snapshot() - before


#: Rendered mode strings keyed by the per-argument var-ness pattern;
#: bounded by the distinct patterns a program exhibits (≤ 2**arity).
_MODE_CACHE: Dict[Tuple[bool, ...], str] = {}


def _runtime_mode(args: Tuple[Term, ...]) -> str:
    """The runtime calling mode, rendered like ``(+, -)``.

    ``+`` per nonvar argument, ``-`` per unbound one — the nonvar/var
    approximation of the model's ground/free abstraction (a partially
    instantiated structure counts as ``+``).
    """
    if not args:
        return "()"
    pattern = tuple([isinstance(deref(arg), Var) for arg in args])
    text = _MODE_CACHE.get(pattern)
    if text is None:
        text = "(" + ", ".join("-" if free else "+" for free in pattern) + ")"
        _MODE_CACHE[pattern] = text
    return text
