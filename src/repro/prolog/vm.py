"""The bytecode VM: the iterative trampoline behind every compiled engine.

Clause bodies are lowered to the linear bytecode of
:meth:`~repro.prolog.compile.CompiledClause.vm_code` and executed by
:class:`Machine`, a single iterative loop with

* an explicit **choice-point stack** (``Machine.cps``) instead of
  suspended generators — each entry is a plain Python list/tuple
  (picklable data when no delegated iterator or recorder box is on
  it);
* an explicit **continuation chain** — the caller's registers are
  saved as one immutable tuple per in-flight call, so yielding a
  solution is O(1) instead of O(depth) generator hops, and recursion
  depth is data, not Python stack;
* **deterministic builtins called directly** — a builtin registered
  ``det=True`` (``is/2``, the comparisons, ``=/2``, the type tests,
  term construction, I/O, ...; see :mod:`repro.prolog.builtins`) runs
  as one call of its registered function: no generator, no choice
  point, no undo (any later backtrack undoes to an older trail mark,
  which subsumes its bindings);
* **native control constructs** — ``;``, ``->`` and ``\\+``/``not``
  are bytecode: an alternative choice point with its own trail mark, a
  local cut barrier for a condition or negated goal, and a jump.

Counter discipline is byte-identical to the generator clause loop this
machine replaced (``BENCH_engine.json`` and the recorder-parity
fixture pin it), and the charged counters match the seed interpreter
``Engine(compiled=False)``, the differential oracle. The clause-attempt
loops bump the :class:`~repro.prolog.metrics.Metrics` fields in place
(as ``Engine._charge_call`` does for calls); those bumps must stay in
step with the interpreter's ``record_unification`` and
``record_backtrack`` calls. ``BENCH_engine.json``'s exact counters and
the two-way differential suite pin them.

Facts return at once. A clause with empty bytecode needs no activation:
once its head unifies, at call entry or on a retry, the machine resumes
the call's continuation directly instead of entering the empty body and
popping the continuation in a PROCEED round. It still charges the budget
step that round would have charged, so ``max_steps`` accounting is
unchanged. A deterministic fact (the last candidate, with no recorder
box open) goes further: the caller continues at ``pc + 1``, with no cut
``Frame`` allocated and no continuation tuple built. A root call's own
clauses keep their PROCEED round, which is where the machine yields.

Choice-point kinds:

``CP_CLAUSES``
    ``[kind, cont, goal_args, clauses, program, cursor, mark, frame,
    body_depth, goal_keys, bound_positions]`` — the machine's own
    clause selection (the WAM's RETRY chain). When the last candidate
    unifies, the entry is dropped eagerly (TRUST).
``CP_PLAN``
    Same, with the clause list replaced by a database scan plan
    (``index``/``processed`` cursors) so runs of fingerprint-rejected
    clauses are skipped and charged in bulk.
``CP_ITER``
    ``[kind, cont, iterator, frame, barrier, box_entry]`` — a
    delegated goal (non-deterministic builtin, tabled or bottom-up
    call, variable goal via ``Engine.solve_goal``) held as an iterator.
``CP_ALT``
    ``[kind, registers, mark]`` — the other branch of a ``;`` or the
    else branch of an ``->``: undo to ``mark``, resume at ``registers``.
``CP_NOT``
    ``[kind, registers, mark, box_entry]`` — the negated goal of a
    ``\\+`` failed: the negation succeeds at ``registers``.
``CP_BOX`` / ``CP_REDO``
    ``[kind, recorder, box, mark, redo]`` / ``[kind, recorder, box]`` —
    a recorder's Byrd box (see below); ``box_entry`` above is the
    goal's ``CP_BOX`` entry, or None when the call is not sampled.

Cut is eager: ``VM_CUT`` prunes the stack down to the activation's
barrier (the stack height captured at call entry, or just above the
alternative of the enclosing condition or negation), closing delegated
iterators and abandoned boxes in LIFO order; the trail is deliberately
*not* undone (bindings made left of the cut are part of the committed
solution).

Every call, the root call included, takes its clause selection from
:meth:`~repro.prolog.database.Database.select`, which answers from the
predicate's index tables: ``goal_keys`` maps each position the head
fingerprints must still check to the call's key there. The machine
emits the interpreter's ``IndexEvent``/``TableEvent`` sequence while the
structural event bus is attached, because ``select`` takes its
candidates from ``Database.matching_for`` while ``database.events`` is
set.

Recorder boxes. With ``engine.recorder`` attached, every sampled call
(user predicate, builtin, negation) opens a box: the call port pushes
``CP_BOX`` under the goal's own choice points. An exit pauses the box
and pushes ``CP_REDO`` above them (or, when the goal left none, flags
its ``CP_BOX`` to redo first), so backtracking meets the redo marker
before it resumes anything inside the box — outer boxes first, exactly
the order of the generator ladder. Popping ``CP_BOX`` by
backtracking is the fail port (``close_box(box, True)``, after undoing
the goal's bindings wherever the generator ladder had undone them by
then); a box pruned by cut or discarded by ``close()`` closes with
``failed=False``. A user call's exit port is a one-op
continuation (``VM_EXIT``) spliced in front of the caller's, so an
unrecorded run pays one ``recorder is None`` test per call and nothing
else.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import DepthLimitExceeded, ExistenceError
from .compile import (
    ARG_CONST,
    ARG_SLOT,
    VM_BUILTIN,
    VM_CALL,
    VM_CUT,
    VM_DET,
    VM_EXIT,
    VM_FAIL,
    VM_GENERIC,
    VM_IF,
    VM_JUMP,
    VM_NOT,
    VM_NOT_FAIL,
    VM_THEN,
    VM_TRY,
    _run,
)
from .engine import Frame, _runtime_mode
from .tabling import solve_tabled
from .terms import Atom, Struct, Var, deref

__all__ = [
    "Machine",
    "solve_vm",
    "disassemble_clause",
    "disassemble_predicate",
    "disassemble_database",
]

#: Choice-point kinds (first element of every stack entry).
CP_CLAUSES = 0
CP_PLAN = 1
CP_ITER = 2
CP_ALT = 3
CP_NOT = 4
CP_BOX = 5
CP_REDO = 6

#: Sentinel distinguishing "iterator exhausted" from a yielded None.
_EXHAUSTED = object()

#: The code of a box-exit continuation (see the module docstring).
_EXIT_OPS = ((VM_EXIT,),)


class Machine:
    """One root user-predicate call, executed by the trampoline.

    ``next_solution()`` runs the machine to its next answer (``True``)
    or to exhaustion (``False``); bindings for an answer live on the
    engine trail while the caller holds them. ``close()`` discards the
    remaining choice points, closing delegated iterators and open boxes
    in LIFO order — the explicit unwind ``ask(limit=)`` and budget
    aborts rely on.
    """

    __slots__ = ("engine", "goal", "indicator", "depth", "cps", "_mark", "_run")

    def __init__(self, engine, goal, indicator, depth: int):
        self.engine = engine
        self.goal = goal
        self.indicator = indicator
        self.depth = depth
        #: The explicit choice-point stack (plain lists).
        self.cps: List[list] = []
        #: Trail height at entry: exhaustion undoes back to it, so the
        #: root goal fails out with its bindings gone (as its box's fail
        #: port renders it).
        self._mark = engine.trail.mark()
        #: The running :meth:`solutions` generator of next_solution().
        self._run = None

    # -- lifecycle ------------------------------------------------------

    def next_solution(self) -> bool:
        """Advance to the next answer; ``False`` when exhausted."""
        if self._run is None:
            self._run = self.solutions()
        return next(self._run, _EXHAUSTED) is not _EXHAUSTED

    def close(self) -> None:
        """Discard all remaining choice points (LIFO unwind); the
        machine yields no further answers.

        The trail is *not* undone here: abandoned-generator semantics
        leave bindings for the enclosing mark/undo discipline
        (``Engine.solve``'s ``finally`` owns the query-level undo), and
        a committed answer's bindings must survive its own cleanup.
        """
        if self._run is None:
            self._run = iter(())
        else:
            self._run.close()
        self._prune(0)

    def _prune(self, barrier: int) -> None:
        """Drop choice points above ``barrier`` rightmost-first: close
        delegated iterators, close boxes as abandoned (not failed), and
        leave the negations being discarded."""
        cps = self.cps
        for position in range(len(cps) - 1, barrier - 1, -1):
            cp = cps[position]
            kind = cp[0]
            if kind == CP_ITER:
                cp[2].close()
            elif kind == CP_BOX:
                cp[1].close_box(cp[2], False)
            elif kind == CP_NOT:
                self.engine._negation_depth -= 1
        del cps[barrier:]

    def _open_box(self, recorder, indicator, goal, depth, undo=True):
        """The call port of ``goal``, if the recorder samples it.

        Pushes the goal's ``CP_BOX`` entry and returns it (None when the
        call is not sampled). The sampling rule is ``solve_goal``'s: a
        hot predicate is sampled on the stride of the call counter — a
        test the trampoline makes inline before calling here — and a
        cold one asks the recorder. With ``undo`` the fail port first
        undoes everything bound since the call, as the generator clause
        loop and the interpreter's deterministic-builtin adapter do;
        without, the fail port renders the bindings backtracking left in
        place, as a delegated iterator leaves them.
        """
        engine = self.engine
        metrics = engine.metrics
        if indicator not in recorder.hot and not recorder.admit_cold(
            indicator, metrics
        ):
            return None
        args = goal.args if isinstance(goal, Struct) else ()
        box = recorder.open_box(
            indicator, _runtime_mode(args), depth, metrics, goal
        )
        entry = [CP_BOX, recorder, box,
                 engine.trail.mark() if undo else None, False]
        self.cps.append(entry)
        return entry

    def _exit_box(self, entry) -> None:
        """The exit port of the box whose ``CP_BOX`` is ``entry``.

        Backtracking must redo the box before it resumes anything the
        goal left on the stack: a ``CP_REDO`` goes on top of those
        choice points — or, when the goal left none, the ``CP_BOX``
        itself is flagged to redo before it fails.
        """
        entry[1].pause_box(entry[2])
        cps = self.cps
        if cps[-1] is entry:
            entry[4] = True
        else:
            cps.append([CP_REDO, entry[1], entry[2]])

    def _enter_iterator(
        self, recorder, indicator, goal, args, iterator, depth, frame,
        barrier, resume,
    ) -> bool:
        """Run a delegated goal (builtin, tabled or bottom-up call) to
        its first answer and push its ``CP_ITER``, boxed when sampled
        (``goal`` is built from ``args`` only then, when not given).
        Returns ``True`` when the goal failed at once."""
        entry = None
        if recorder is not None and (
            indicator not in recorder.hot
            or not self.engine.metrics.calls % recorder.sample_every
        ):
            if goal is None:
                goal = _goal(indicator, args)
            entry = self._open_box(recorder, indicator, goal, depth,
                                   undo=False)
        if next(iterator, _EXHAUSTED) is _EXHAUSTED:
            if frame.cut:
                self._prune(barrier)
            return True
        self.cps.append([CP_ITER, resume, iterator, frame, barrier, entry])
        if entry is not None:
            self._exit_box(entry)
        return False

    # -- call entry -----------------------------------------------------

    def _push_call(self, cont, args, call_depth: int) -> bool:
        """Push the root call's choice point over its clause selection.

        Returns ``False`` when no clause can match (the call fails
        without a choice point). The first attempt runs from the
        ``CP_CLAUSES``/``CP_PLAN`` backtrack handler (a fresh cursor
        charges nothing on its first attempt).
        """
        engine = self.engine
        indicator = self.indicator
        if call_depth >= engine.max_depth:
            raise DepthLimitExceeded(
                f"depth {engine.max_depth} exceeded at {indicator[0]}/{indicator[1]}"
            )
        clauses, program, goal_keys, bound_positions, plan = (
            engine.database.select(indicator, args)
        )
        if not clauses:
            return False
        mark = engine.trail.mark()
        if plan is not None:
            self.cps.append(
                [CP_PLAN, cont, args, plan, program, 0, 0, mark,
                 Frame(), call_depth + 1, goal_keys, bound_positions]
            )
        else:
            self.cps.append(
                [CP_CLAUSES, cont, args, clauses, program, 0, mark,
                 Frame(), call_depth + 1, goal_keys, bound_positions]
            )
        return True

    # -- clause attempt loops -------------------------------------------
    #
    # Shared by call entry (first attempt, no choice point yet) and the
    # backtrack handlers (retry from a stored cursor). Every counter
    # bumped below is one the differential suites and the engine
    # benchmark pin; they must stay in step with the interpreter's
    # Metrics.record_unification/record_backtrack calls.

    def _try_clauses(
        self, goal_args, clauses, program, cursor, mark,
        goal_keys, bound_positions,
    ):
        """Try clauses from ``cursor``; return ``(slots, cursor,
        compiled)`` with ``slots=None`` on exhaustion.

        Per attempt: the cached head fingerprints reject calls where
        *any* bound argument's key cannot match (no allocation at all;
        still charged as a failed unification), the head alone is
        instantiated from its slot program, and the body runs only
        after the head unifies.
        """
        engine = self.engine
        metrics = engine.metrics
        trail = engine.trail
        occurs = engine.occurs_check
        total = len(clauses)
        compiled = None
        slots = None
        retries = rejects = attempts = 0
        while cursor < total:
            if cursor:
                retries += 1
            compiled = program[clauses[cursor].index]
            cursor += 1
            if goal_keys is not None:
                head_keys = compiled.head_keys
                rejected = False
                for position in bound_positions:
                    head_key = head_keys[position]
                    if head_key is not None and head_key != goal_keys[position]:
                        rejected = True
                        break
                if rejected:
                    rejects += 1
                    continue
            attempts += 1
            slots = compiled.unify_head(goal_args, trail, occurs)
            if slots is None:
                trail.undo_to(mark)
                continue
            metrics.clause_entries += 1
            break
        metrics.backtracks += retries
        metrics.head_fast_rejects += rejects
        metrics.skeleton_instantiations += attempts
        metrics.unifications += rejects + attempts
        return slots, cursor, compiled

    def _try_plan(
        self, goal_args, plan, program, index, processed, mark,
        goal_keys, bound_positions,
    ):
        """Scan-plan variant of :meth:`_try_clauses`: runs of rejectable
        clauses are skipped in one step and charged in bulk, with totals
        byte-identical to the plain loop under every consumption pattern
        (early close, cut, full exhaustion). Returns ``(slots, index,
        processed, compiled)``."""
        engine = self.engine
        metrics = engine.metrics
        trail = engine.trail
        occurs = engine.occurs_check
        steps = len(plan)
        compiled = None
        slots = None
        retries = rejects = attempts = 0
        while index < steps:
            skipped, clause = plan[index]
            index += 1
            if skipped:
                rejects += skipped
                retries += skipped if processed else skipped - 1
                processed += skipped
            if clause is None:
                break
            if processed:
                retries += 1
            processed += 1
            compiled = program[clause.index]
            head_keys = compiled.head_keys
            rejected = False
            for position in bound_positions:
                head_key = head_keys[position]
                if head_key is not None and head_key != goal_keys[position]:
                    rejected = True
                    break
            if rejected:
                rejects += 1
                continue
            attempts += 1
            slots = compiled.unify_head(goal_args, trail, occurs)
            if slots is None:
                trail.undo_to(mark)
                continue
            metrics.clause_entries += 1
            break
        metrics.backtracks += retries
        metrics.head_fast_rejects += rejects
        metrics.skeleton_instantiations += attempts
        metrics.unifications += rejects + attempts
        return slots, index, processed, compiled

    # -- the trampoline -------------------------------------------------

    def solutions(self) -> Iterator[None]:
        """The trampoline: yield once per answer of the root call.

        Bindings for an answer live on the engine trail while the
        caller holds the yield. The ``finally`` prune makes an abandoned
        enumeration (``ask(limit=)``, a budget abort, an exception) pop
        the whole choice-point stack deterministically, closing
        delegated iterators and open boxes in LIFO order.
        """
        engine = self.engine
        trail = engine.trail
        undo_to = trail.undo_to
        trail_mark = trail.mark
        database = engine.database
        defines = database.defines
        select = database.select
        tabled = database.tabled
        table_all = engine.table_all
        bottomup = engine._bottomup
        max_depth = engine.max_depth
        charge_call = engine._charge_call
        budget = engine._active_budget
        recorder = engine.recorder
        if recorder is not None:
            # The inline half of the sampling rule (see _open_box).
            hot = recorder.hot
            stride = recorder.sample_every
            metrics = engine.metrics
        cps = self.cps
        cps_append = cps.append

        # Activation registers (restored from a choice point or a
        # continuation tuple on every transfer).
        ops: tuple = ()
        pc = 0
        frame_slots = ()
        frame: Optional[Frame] = None
        barrier = 0
        depth = 0
        cont = None

        try:
            # Root entry: solve_goal already charged, resolved, and routed
            # this call, so only clause selection happens here.
            goal = deref(self.goal)
            args = goal.args if isinstance(goal, Struct) else ()
            if not self._push_call(None, args, self.depth):
                return
            failing = True

            while True:
                if budget is not None:
                    # One step per machine transition bounds redo storms
                    # that never issue a new call and keeps deadline and
                    # cancellation checks live.
                    budget.charge_step()
                if failing:
                    # ---------------- backtracking ----------------
                    if not cps:
                        undo_to(self._mark)
                        return
                    cp = cps[-1]
                    kind = cp[0]
                    if kind == CP_CLAUSES:
                        undo_to(cp[6])
                        slots, cursor, compiled = self._try_clauses(
                            cp[2], cp[3], cp[4], cp[5], cp[6], cp[9], cp[10]
                        )
                        if slots is None:
                            cps.pop()
                            continue
                        barrier = len(cps) - 1
                        if cursor == len(cp[3]):
                            cps.pop()  # TRUST: no alternative left
                        else:
                            cp[5] = cursor
                        ops = compiled.vm_ops
                        if ops is None:
                            ops = compiled.vm_code()
                        failing = False
                        if not ops and cp[1] is not None:
                            # A fact: return to the continuation at once.
                            if budget is not None:
                                budget.charge_step()
                            (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                            continue
                        pc = 0
                        frame_slots = slots
                        frame = cp[7]
                        depth = cp[8]
                        cont = cp[1]
                        continue
                    if kind == CP_PLAN:
                        undo_to(cp[7])
                        slots, index, processed, compiled = self._try_plan(
                            cp[2], cp[3], cp[4], cp[5], cp[6], cp[7], cp[10], cp[11]
                        )
                        if slots is None:
                            cps.pop()
                            continue
                        barrier = len(cps) - 1
                        plan = cp[3]
                        if index == len(plan) - 1 and plan[index][0] == 0:
                            cps.pop()  # only the empty sentinel remains
                        else:
                            cp[5] = index
                            cp[6] = processed
                        ops = compiled.vm_ops
                        if ops is None:
                            ops = compiled.vm_code()
                        failing = False
                        if not ops and cp[1] is not None:
                            # A fact: return to the continuation at once.
                            if budget is not None:
                                budget.charge_step()
                            (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                            continue
                        pc = 0
                        frame_slots = slots
                        frame = cp[8]
                        depth = cp[9]
                        cont = cp[1]
                        continue
                    cps.pop()
                    if kind == CP_ALT:
                        undo_to(cp[2])
                        (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                        failing = False
                        continue
                    if kind == CP_ITER:
                        value = next(cp[2], _EXHAUSTED)
                        if value is _EXHAUSTED:
                            if cp[3].cut:
                                # A delegated construct executed a cut that
                                # escapes into its clause: discard the
                                # call's remaining alternatives.
                                self._prune(cp[4])
                            continue
                        cps_append(cp)
                        (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                        if cp[5] is not None:
                            self._exit_box(cp[5])
                        failing = False
                        continue
                    if kind == CP_REDO:
                        cp[1].resume_box(cp[2])
                        continue
                    if kind == CP_BOX:
                        if cp[4]:
                            cp[1].resume_box(cp[2])
                        if cp[3] is not None:
                            undo_to(cp[3])
                        cp[1].close_box(cp[2], True)
                        continue
                    # kind == CP_NOT: the negated goal failed, so the
                    # negation succeeds.
                    engine._negation_depth -= 1
                    undo_to(cp[2])
                    (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                    if cp[3] is not None:
                        self._exit_box(cp[3])
                    failing = False
                    continue

                # ---------------- forward execution ----------------
                if pc == len(ops):
                    # PROCEED: the body is done — pop the continuation.
                    if cont is None:
                        yield  # a root answer; resume = backtrack
                        failing = True
                        continue
                    (ops, pc, frame_slots, frame, barrier, depth, cont) = cont
                    continue
                op = ops[pc]
                tag = op[0]
                if tag == VM_CALL:
                    indicator = op[1]
                    args = op[2](frame_slots)
                    charge_call(indicator)
                    if bottomup is not None or table_all or indicator in tabled:
                        if not defines(indicator):
                            raise ExistenceError(indicator)
                        goal = _goal(indicator, args)
                        iterator = (
                            None if bottomup is None
                            else bottomup.solve(engine, goal, indicator, depth)
                        )
                        if iterator is None and (table_all or indicator in tabled):
                            iterator = solve_tabled(engine, goal, indicator, depth)
                        if iterator is not None:
                            failing = self._enter_iterator(
                                recorder, indicator, goal, args, iterator, depth,
                                frame, barrier,
                                (ops, pc + 1, frame_slots, frame, barrier, depth,
                                 cont),
                            )
                            pc += 1
                            continue
                    # Inline call entry with a *lazy* choice point: the
                    # first clause attempt runs right here, and a CP is
                    # allocated only when alternatives actually remain —
                    # a deterministic call (the common case) never touches
                    # the stack.
                    if not defines(indicator):
                        raise ExistenceError(indicator)
                    entry = None
                    if recorder is not None and (
                        indicator not in hot or not metrics.calls % stride
                    ):
                        entry = self._open_box(recorder, indicator,
                                               _goal(indicator, args), depth)
                    if depth >= max_depth:
                        raise DepthLimitExceeded(
                            f"depth {max_depth} exceeded at "
                            f"{indicator[0]}/{indicator[1]}"
                        )
                    clauses, program, goal_keys, bound_positions, plan = select(
                        indicator, args
                    )
                    if not clauses:
                        failing = True
                        continue
                    mark = trail_mark()
                    if plan is None:
                        slots, cursor, compiled = self._try_clauses(
                            args, clauses, program, 0, mark,
                            goal_keys, bound_positions,
                        )
                        if slots is None:
                            failing = True
                            continue
                        last = cursor == len(clauses)
                    else:
                        slots, index, processed, compiled = self._try_plan(
                            args, plan, program, 0, 0, mark,
                            goal_keys, bound_positions,
                        )
                        if slots is None:
                            failing = True
                            continue
                        last = index == len(plan) - 1 and plan[index][0] == 0
                    body = compiled.vm_ops
                    if body is None:
                        body = compiled.vm_code()
                    if last and not body and entry is None:
                        # A deterministic fact: continue the caller at
                        # once, charging the step of the skipped PROCEED.
                        if budget is not None:
                            budget.charge_step()
                        pc += 1
                        continue
                    saved = (ops, pc + 1, frame_slots, frame, barrier, depth, cont)
                    if entry is not None:
                        saved = (_EXIT_OPS, 0, entry, None, 0, depth, saved)
                    barrier = len(cps)
                    frame = Frame()
                    if not last and plan is None:
                        cps_append(
                            [CP_CLAUSES, saved, args, clauses, program,
                             cursor, mark, frame, depth + 1,
                             goal_keys, bound_positions]
                        )
                    elif not last:
                        cps_append(
                            [CP_PLAN, saved, args, plan, program,
                             index, processed, mark, frame, depth + 1,
                             goal_keys, bound_positions]
                        )
                    if not body:
                        # A fact with alternatives or a box: return to
                        # the continuation at once (see the module docstring).
                        if budget is not None:
                            budget.charge_step()
                        (ops, pc, frame_slots, frame, barrier, depth, cont) = saved
                        continue
                    ops = body
                    pc = 0
                    frame_slots = slots
                    depth = depth + 1
                    cont = saved
                    continue
                if tag == VM_DET:
                    charge_call(op[1])
                    if recorder is None or (
                        op[1] in hot and metrics.calls % stride
                    ):
                        if op[2](engine, op[3](frame_slots)):
                            pc += 1
                        else:
                            failing = True
                        continue
                    entry = self._open_box(recorder, op[1],
                                           _source_goal(op[-1], frame_slots),
                                           depth)
                    if op[2](engine, op[3](frame_slots)):
                        if entry is not None:
                            self._exit_box(entry)
                        pc += 1
                    else:
                        failing = True
                    continue
                if tag == VM_EXIT:
                    # A recorded call's body finished: its exit port.
                    self._exit_box(frame_slots)
                    (ops, pc, frame_slots, frame, barrier, depth, cont) = cont
                    continue
                if tag == VM_IF:
                    # The else branch as an alternative, then a local cut
                    # barrier just above it for the condition.
                    cps_append([CP_ALT,
                                (ops, op[1], frame_slots, frame, barrier, depth,
                                 cont),
                                trail_mark()])
                    barrier = len(cps)
                    if op[2]:
                        frame = Frame()
                    pc += 1
                    continue
                if tag == VM_THEN:
                    # The condition succeeded: commit to it. Its alternative
                    # sits just below the local barrier and holds the
                    # clause's own frame and barrier.
                    alternative = barrier - 1
                    registers = cps[alternative][1]
                    frame = registers[3]
                    barrier = registers[4]
                    if len(cps) == alternative + 1:
                        cps.pop()
                    else:
                        self._prune(alternative)
                    pc += 1
                    continue
                if tag == VM_JUMP:
                    pc = op[1]
                    continue
                if tag == VM_BUILTIN:
                    charge_call(op[1])
                    args = op[3](frame_slots)
                    iterator = op[2](engine, args, depth, frame)
                    failing = self._enter_iterator(
                        recorder, op[1], None, args, iterator, depth, frame,
                        barrier,
                        (ops, pc + 1, frame_slots, frame, barrier, depth, cont),
                    )
                    pc += 1
                    continue
                if tag == VM_CUT:
                    if len(cps) > barrier:
                        self._prune(barrier)
                    pc += 1
                    continue
                if tag == VM_TRY:
                    cps_append([CP_ALT,
                                (ops, op[1], frame_slots, frame, barrier, depth,
                                 cont),
                                trail_mark()])
                    pc += 1
                    continue
                if tag == VM_NOT:
                    charge_call(op[1])
                    entry = None
                    if recorder is not None and (
                        op[1] not in hot or not metrics.calls % stride
                    ):
                        entry = self._open_box(
                            recorder, op[1], _source_goal(op[-1], frame_slots),
                            depth, undo=False,
                        )
                    # Negation nesting feeds tabling's stratification check;
                    # every way the CP_NOT leaves the stack decrements it.
                    engine._negation_depth += 1
                    cps_append([CP_NOT,
                                (ops, op[2], frame_slots, frame, barrier, depth,
                                 cont),
                                trail_mark(), entry])
                    barrier = len(cps)
                    if op[3]:
                        frame = Frame()
                    pc += 1
                    continue
                if tag == VM_NOT_FAIL:
                    # The negated goal succeeded: discard it and the
                    # negation's alternative, then fail.
                    negation = barrier - 1
                    mark = cps[negation][2]
                    self._prune(negation)
                    undo_to(mark)
                    failing = True
                    continue
                if tag == VM_GENERIC:
                    code = op[1]
                    goal = op[2] if code is None else _run(code, frame_slots)
                    # solve_goal charges, dispatches and boxes the variable
                    # goal itself (control constructs, builtins, user calls
                    # through a nested machine).
                    iterator = engine.solve_goal(goal, depth, frame)
                    value = next(iterator, _EXHAUSTED)
                    if value is _EXHAUSTED:
                        if frame.cut:
                            self._prune(barrier)
                        failing = True
                        continue
                    cps_append(
                        [CP_ITER,
                         (ops, pc + 1, frame_slots, frame, barrier, depth, cont),
                         iterator, frame, barrier, None]
                    )
                    pc += 1
                    continue
                # tag == VM_FAIL (never charged, like the engine's inline
                # handling of ``fail``/``false``).
                failing = True
        finally:
            self._prune(0)


def _goal(indicator, args):
    """The called term of a goal from its argument tuple."""
    return Struct(indicator[0], args) if args else Atom(indicator[0])


def _source_goal(source, frame_slots):
    """The called term of a goal from its ``(code, const)`` source (a
    det builtin's arguments may have been constant-folded)."""
    code, const = source
    return const if code is None else _run(code, frame_slots)


def _build_args(specs, frame) -> tuple:
    """Materialize a goal's argument tuple from its argspecs."""
    if not specs:
        return ()
    return tuple(
        payload
        if tag == ARG_CONST
        else frame[payload]
        if tag == ARG_SLOT
        else _run(payload, frame)
        for tag, payload in specs
    )


def solve_vm(engine, goal, indicator, depth: int) -> Iterator[None]:
    """The answers of one user-predicate call, run on a fresh
    :class:`Machine` — the compiled engine's ``_solve_user``."""
    return Machine(engine, goal, indicator, depth).solutions()


# -- disassembler -----------------------------------------------------------

_OP_NAMES = {
    VM_CALL: "CALL",
    VM_DET: "DET_BUILTIN",
    VM_BUILTIN: "BUILTIN",
    VM_GENERIC: "GENERIC",
    VM_CUT: "CUT",
    VM_FAIL: "FAIL",
    VM_TRY: "TRY",
    VM_JUMP: "JUMP",
    VM_IF: "IF",
    VM_THEN: "THEN",
    VM_NOT: "NOT",
    VM_NOT_FAIL: "NOT_FAIL",
}


def _display_frame(compiled) -> list:
    """A frame of named free variables for rendering bytecode operands."""
    return [Var(name) for name in compiled.var_names]


def _render(term) -> str:
    from .writer import term_to_string

    return term_to_string(term)


def _render_args(specs, frame) -> str:
    if not specs:
        return ""
    return "(" + ", ".join(_render(arg) for arg in _build_args(specs, frame)) + ")"


def _head_spec_text(tag: int, payload, frame) -> str:
    from .compile import _ARG_BUILD, _ARG_CONST, _ARG_FRESH, _ARG_SLOT

    if tag == _ARG_FRESH:
        return f"fresh {frame[payload].name}@{payload}"
    if tag == _ARG_SLOT:
        return f"slot {frame[payload].name}@{payload}"
    if tag == _ARG_CONST:
        return f"const {_render(payload)}"
    assert tag == _ARG_BUILD
    return f"build {_render(_run(payload, frame))}"


def disassemble_clause(compiled, position: Optional[int] = None) -> List[str]:
    """Human-readable bytecode listing for one compiled clause.

    Op lines are numbered by program counter; jump operands (``else``,
    ``after``, ``JUMP``) refer to those numbers, and a target equal to
    the op count is the clause's ``PROCEED``.
    """
    frame = _display_frame(compiled)
    lines = []
    label = "clause" if position is None else f"clause {position}"
    lines.append(f"  {label}: frame={len(frame)} slots")
    if compiled.head_args:
        specs = ", ".join(
            _head_spec_text(tag, payload, frame)
            for tag, payload in compiled.head_args
        )
        lines.append(f"        UNIFY_HEAD   {specs}")
    lines.append("        NECK")
    ops = compiled.vm_code()
    for pc, op in enumerate(ops):
        tag = op[0]
        name = _OP_NAMES[tag]
        if tag == VM_CALL:
            indicator = op[1]
            text = f"{name:<12} {indicator[0]}/{indicator[1]}{_render_args(op[3], frame)}"
        elif tag in (VM_DET, VM_BUILTIN):
            indicator = op[1]
            text = f"{name:<12} {indicator[0]}/{indicator[1]}{_render_args(op[4], frame)}"
        elif tag == VM_GENERIC:
            code, const = op[1], op[2]
            goal = const if code is None else _run(code, frame)
            text = f"{name:<12} {_render(goal)}"
        elif tag in (VM_TRY, VM_IF):
            text = f"{name:<12} else {op[1]}"
        elif tag == VM_JUMP:
            text = f"{name:<12} {op[1]}"
        elif tag == VM_NOT:
            indicator = op[1]
            text = f"{name:<12} {indicator[0]}/{indicator[1]} after {op[2]}"
        else:
            text = name
        lines.append(f"    {pc:>3} {text}")
    lines.append(f"    {len(ops):>3} PROCEED")
    return lines


def disassemble_predicate(database, indicator) -> List[str]:
    """Bytecode listing for every clause of one predicate."""
    program = database.compiled_program(indicator)
    lines = [f"% {indicator[0]}/{indicator[1]} ({len(program)} clauses)"]
    for position, compiled in enumerate(program):
        lines.extend(disassemble_clause(compiled, position))
    return lines


def disassemble_database(database) -> str:
    """Bytecode listing for every predicate, in definition order."""
    lines: List[str] = []
    for indicator in database.predicates():
        lines.extend(disassemble_predicate(database, indicator))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
