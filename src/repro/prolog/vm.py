"""The bytecode VM: one iterative trampoline for the compiled solve path.

PR 3's compiled clauses still *executed* through a ladder of Python
generators — ``solve_goal`` → ``_solve_user_compiled`` →
``_solve_body`` — paying roughly three generator frames per predicate
call and one resume hop per frame per solution. This module flattens
that ladder into an explicit machine: clause bodies are lowered to the
linear bytecode of :meth:`~repro.prolog.compile.CompiledClause.vm_code`
and executed by :class:`Machine`, a single iterative loop with

* an explicit **choice-point stack** (``Machine.cps``) instead of
  suspended generators — each entry is a plain Python list/tuple
  (picklable data, the prerequisite the ROADMAP names for a
  multi-process or native backend);
* an explicit **continuation chain** — the caller's registers are
  saved as one immutable tuple per in-flight call, so yielding a
  solution is O(1) instead of O(depth) generator hops;
* **native deterministic builtins** (:data:`DET_BUILTINS`) — ``is/2``,
  the arithmetic comparisons, ``=/2``, the identity/order tests, and
  the type tests run as one function call: no generator, no choice
  point, no undo (any later backtrack undoes to an older trail mark,
  which subsumes their bindings).

Counter discipline is byte-identical to ``Engine._solve_user_compiled``
(the differential suite and ``BENCH_engine.json`` pin it): the machine
charges ``record_backtrack``/``record_fast_reject``/
``record_instantiation``/``record_unification`` at exactly the same
points, including the scan-plan bulk charges from PR 8.

Three choice-point kinds:

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
    ``[kind, cont, iterator, frame, barrier]`` — a delegated goal
    (non-deterministic builtin, tabled call, control construct via
    ``Engine.solve_goal``) held as an iterator. The escape hatch that
    keeps every delegated construct's semantics — cut transparency,
    tabling, exceptions — literally the engine's existing code.

Cut is eager: ``VM_CUT`` prunes the stack down to the call's barrier
(the stack height captured at call entry), closing delegated iterators
in LIFO order; the trail is deliberately *not* undone (bindings made
left of the cut are part of the committed solution).

The machine runs with or without the structural event bus: it emits
the same ``IndexEvent``/``TableEvent`` sequence as the generator path,
because the clause-selection memo is bypassed while ``database.events``
is set. When a recorder (the engine's one per-call instrumentation
slot) or the bottom-up dispatcher is attached, ``Engine._solve_user_vm``
routes to the generator path instead, whose ``solve_goal`` opens one
Byrd box per call.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import DepthLimitExceeded, ExistenceError
from .builtins.arith import evaluate
from .compile import (
    ARG_CODE,
    ARG_CONST,
    ARG_SLOT,
    VM_BUILTIN,
    VM_CALL,
    VM_CUT,
    VM_DET,
    VM_FAIL,
    VM_GENERIC,
    _run,
)
from .database import first_arg_key
from .engine import Frame
from .tabling import solve_tabled
from .terms import (
    Atom,
    Struct,
    Var,
    deref,
    is_number,
    is_proper_list,
    structural_eq,
    term_is_ground,
    term_ordering_key,
)
from .unify import unify

__all__ = [
    "Machine",
    "solve_vm",
    "DET_BUILTINS",
    "disassemble_clause",
    "disassemble_predicate",
    "disassemble_database",
]

#: Choice-point kinds (first element of every stack entry).
CP_CLAUSES = 0
CP_PLAN = 1
CP_ITER = 2

#: Sentinel distinguishing "iterator exhausted" from a yielded None.
_EXHAUSTED = object()


# -- native deterministic builtins ------------------------------------------
#
# Each mirrors its generator twin in repro.prolog.builtins line for
# line (same evaluation order, same failure-time undo), minus the
# success-time redo-undo: the machine never resumes a det op, and any
# backtrack that could observe its bindings first undoes to an older
# trail mark, which subsumes them. All are module-level named functions
# so the bytecode tuples that carry them stay picklable.


def _det_is(engine, args):
    value = evaluate(args[1])
    trail = engine.trail
    mark = trail.mark()
    if unify(args[0], value, trail):
        return True
    trail.undo_to(mark)
    return False


def _det_eq_num(engine, args):
    return evaluate(args[0]) == evaluate(args[1])


def _det_ne_num(engine, args):
    return evaluate(args[0]) != evaluate(args[1])


def _det_lt(engine, args):
    return evaluate(args[0]) < evaluate(args[1])


def _det_gt(engine, args):
    return evaluate(args[0]) > evaluate(args[1])


def _det_le(engine, args):
    return evaluate(args[0]) <= evaluate(args[1])


def _det_ge(engine, args):
    return evaluate(args[0]) >= evaluate(args[1])


def _det_unify(engine, args):
    trail = engine.trail
    mark = trail.mark()
    if unify(args[0], args[1], trail, occurs_check=engine.occurs_check):
        return True
    trail.undo_to(mark)
    return False


def _det_not_unify(engine, args):
    trail = engine.trail
    mark = trail.mark()
    unified = unify(args[0], args[1], trail, occurs_check=engine.occurs_check)
    trail.undo_to(mark)
    return not unified


def _det_identical(engine, args):
    return structural_eq(args[0], args[1])


def _det_not_identical(engine, args):
    return not structural_eq(args[0], args[1])


def _order_sign(args):
    left = term_ordering_key(args[0])
    right = term_ordering_key(args[1])
    return (left > right) - (left < right)


def _det_before(engine, args):
    return _order_sign(args) < 0


def _det_after(engine, args):
    return _order_sign(args) > 0


def _det_before_eq(engine, args):
    return _order_sign(args) <= 0


def _det_after_eq(engine, args):
    return _order_sign(args) >= 0


def _det_var(engine, args):
    return isinstance(deref(args[0]), Var)


def _det_nonvar(engine, args):
    return not isinstance(deref(args[0]), Var)


def _det_atom(engine, args):
    return isinstance(deref(args[0]), Atom)


def _det_number(engine, args):
    return is_number(deref(args[0]))


def _det_integer(engine, args):
    term = deref(args[0])
    return isinstance(term, int) and not isinstance(term, bool)


def _det_float(engine, args):
    return isinstance(deref(args[0]), float)


def _det_atomic(engine, args):
    term = deref(args[0])
    return isinstance(term, Atom) or is_number(term)


def _det_compound(engine, args):
    return isinstance(deref(args[0]), Struct)


def _det_callable(engine, args):
    return isinstance(deref(args[0]), (Atom, Struct))


def _det_is_list(engine, args):
    return is_proper_list(deref(args[0]))


def _det_ground(engine, args):
    return term_is_ground(deref(args[0]))


#: Deterministic builtins the machine runs natively: ``fn(engine,
#: args) -> bool``. Anything registered here must succeed at most once
#: and leave bindings only on success (the generator twin's redo-undo
#: is subsumed by outer trail marks — see the module docstring).
DET_BUILTINS = {
    ("is", 2): _det_is,
    ("=:=", 2): _det_eq_num,
    ("=\\=", 2): _det_ne_num,
    ("<", 2): _det_lt,
    (">", 2): _det_gt,
    ("=<", 2): _det_le,
    (">=", 2): _det_ge,
    ("=", 2): _det_unify,
    ("\\=", 2): _det_not_unify,
    ("==", 2): _det_identical,
    ("\\==", 2): _det_not_identical,
    ("@<", 2): _det_before,
    ("@>", 2): _det_after,
    ("@=<", 2): _det_before_eq,
    ("@>=", 2): _det_after_eq,
    ("var", 1): _det_var,
    ("nonvar", 1): _det_nonvar,
    ("atom", 1): _det_atom,
    ("number", 1): _det_number,
    ("integer", 1): _det_integer,
    ("float", 1): _det_float,
    ("atomic", 1): _det_atomic,
    ("compound", 1): _det_compound,
    ("callable", 1): _det_callable,
    ("is_list", 1): _det_is_list,
    ("ground", 1): _det_ground,
}


class Machine:
    """One root user-predicate call, executed by the trampoline.

    ``next_solution()`` runs the machine to its next answer (``True``)
    or to exhaustion (``False``); bindings for an answer live on the
    engine trail while the caller holds them, exactly like the
    generator path. ``close()`` discards the remaining choice points,
    closing delegated iterators in LIFO order — the explicit unwind
    the satellite requires for ``ask(limit=)``/budget aborts.
    """

    __slots__ = ("engine", "goal", "indicator", "depth", "cps", "_started", "_done")

    def __init__(self, engine, goal, indicator, depth: int):
        self.engine = engine
        self.goal = goal
        self.indicator = indicator
        self.depth = depth
        #: The explicit choice-point stack (plain lists — picklable
        #: when no delegated iterator is on the stack).
        self.cps: List[list] = []
        self._started = False
        self._done = False

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Discard all remaining choice points (LIFO iterator close).

        The trail is *not* undone here: abandoned-generator semantics
        leave bindings for the enclosing mark/undo discipline
        (``Engine.solve``'s ``finally`` owns the query-level undo), and
        a committed answer's bindings must survive its own cleanup.
        """
        cps = self.cps
        for position in range(len(cps) - 1, -1, -1):
            cp = cps[position]
            if cp[0] == CP_ITER:
                cp[2].close()
        del cps[:]
        self._done = True

    def _prune(self, barrier: int) -> None:
        """Cut: drop choice points above ``barrier``, closing delegated
        iterators rightmost-first (the order the generator ladder's
        ``finally`` chain unwound in)."""
        cps = self.cps
        for position in range(len(cps) - 1, barrier - 1, -1):
            cp = cps[position]
            if cp[0] == CP_ITER:
                cp[2].close()
        del cps[barrier:]

    # -- call entry -----------------------------------------------------

    def _push_call(self, cont, indicator, args, call_depth: int) -> bool:
        """Clause selection for one call: push its choice point.

        Returns ``False`` when no clause can match (the call fails
        without a choice point). Mirrors the preamble of
        ``Engine._solve_user_compiled`` exactly — including the
        fingerprint setup and the scan-plan condition (a bound first
        argument). The index probe goes to the database on every root
        entry, so ``IndexEvent``s are emitted as on the generator path.
        """
        engine = self.engine
        if call_depth >= engine.max_depth:
            raise DepthLimitExceeded(
                f"depth {engine.max_depth} exceeded at {indicator[0]}/{indicator[1]}"
            )
        database = engine.database
        clauses = database.matching_for(indicator, args)
        if not clauses:
            return False
        program = database.compiled_program(indicator)
        goal_keys = None
        bound_positions = ()
        plan = None
        if args and len(clauses) > 1:
            goal_keys = tuple(first_arg_key(arg) for arg in args)
            bound_positions = tuple(
                position
                for position, key in enumerate(goal_keys)
                if key is not None
            )
            if not bound_positions:
                goal_keys = None
            elif goal_keys[0] is not None:
                plan = database.scan_plan(indicator, clauses, goal_keys[0])
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
    # backtrack handlers (retry from a stored cursor). The counter
    # charges transcribe Engine._solve_user_compiled verbatim — every
    # record_* call below has a line-for-line twin there.

    def _try_clauses(
        self, goal_args, clauses, program, cursor, mark,
        goal_keys, bound_positions,
    ):
        """Try clauses from ``cursor``; return ``(slots, cursor,
        compiled)`` with ``slots=None`` on exhaustion."""
        engine = self.engine
        metrics = engine.metrics
        trail = engine.trail
        occurs = engine.occurs_check
        undo_to = trail.undo_to
        total = len(clauses)
        compiled = None
        while cursor < total:
            if cursor:
                metrics.record_backtrack()
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
                    metrics.record_fast_reject()
                    continue
            slots = compiled.unify_head(goal_args, trail, occurs)
            metrics.record_instantiation()
            if slots is None:
                metrics.record_unification(False)
                undo_to(mark)
                continue
            metrics.record_unification(True)
            return slots, cursor, compiled
        return None, cursor, compiled

    def _try_plan(
        self, goal_args, plan, program, index, processed, mark,
        goal_keys, bound_positions,
    ):
        """Scan-plan variant of :meth:`_try_clauses`, with the PR 8
        bulk charges; returns ``(slots, index, processed, compiled)``."""
        engine = self.engine
        metrics = engine.metrics
        trail = engine.trail
        occurs = engine.occurs_check
        undo_to = trail.undo_to
        steps = len(plan)
        compiled = None
        while index < steps:
            skipped, clause = plan[index]
            index += 1
            if skipped:
                metrics.unifications += skipped
                metrics.head_fast_rejects += skipped
                metrics.backtracks += skipped if processed else skipped - 1
                processed += skipped
            if clause is None:
                break
            if processed:
                metrics.record_backtrack()
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
                metrics.record_fast_reject()
                continue
            slots = compiled.unify_head(goal_args, trail, occurs)
            metrics.record_instantiation()
            if slots is None:
                metrics.record_unification(False)
                undo_to(mark)
                continue
            metrics.record_unification(True)
            return slots, index, processed, compiled
        return None, index, processed, compiled

    # -- the trampoline -------------------------------------------------

    def next_solution(self) -> bool:
        """Advance to the next answer; ``False`` when exhausted."""
        if self._done:
            return False
        engine = self.engine
        trail = engine.trail
        undo_to = trail.undo_to
        trail_mark = trail.mark
        database = engine.database
        defines = database.defines
        matching_for = database.matching_for
        compiled_program = database.compiled_program
        scan_plan = database.scan_plan
        tabled = database.tabled
        table_all = engine.table_all
        max_depth = engine.max_depth
        charge_call = engine._charge_call
        budget = engine._active_budget
        call_cache = engine._vm_call_cache
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

        if self._started:
            failing = True
        else:
            self._started = True
            # Root entry: solve_goal already charged, resolved, and
            # routed this call, so only clause selection happens here —
            # driven through the CP_CLAUSES/CP_PLAN backtrack handler
            # (a fresh cursor charges nothing on its first attempt).
            goal = deref(self.goal)
            args = goal.args if isinstance(goal, Struct) else ()
            if not self._push_call(None, self.indicator, args, self.depth):
                self._done = True
                return False
            failing = True

        while True:
            if budget is not None:
                # One step per machine transition bounds redo storms
                # that never issue a new call (the generator path's
                # per-body-iteration charge, at the machine's cadence)
                # and keeps deadline/cancellation checks live.
                budget.charge_step()
            if failing:
                # ---------------- backtracking ----------------
                if not cps:
                    self._done = True
                    return False
                cp = cps[-1]
                kind = cp[0]
                if kind == CP_ITER:
                    value = next(cp[2], _EXHAUSTED)
                    if value is _EXHAUSTED:
                        cps.pop()
                        if cp[3].cut:
                            # A delegated construct executed a cut that
                            # escapes into its clause: discard the
                            # call's remaining alternatives.
                            self._prune(cp[4])
                        continue
                    (ops, pc, frame_slots, frame, barrier, depth, cont) = cp[1]
                    failing = False
                    continue
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
                    ops = compiled.vm_code()
                    pc = 0
                    frame_slots = slots
                    frame = cp[7]
                    depth = cp[8]
                    cont = cp[1]
                    failing = False
                    continue
                # kind == CP_PLAN
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
                ops = compiled.vm_code()
                pc = 0
                frame_slots = slots
                frame = cp[8]
                depth = cp[9]
                cont = cp[1]
                failing = False
                continue

            # ---------------- forward execution ----------------
            if pc == len(ops):
                # PROCEED: the body is done — pop the continuation.
                if cont is None:
                    return True  # a root answer; resume = backtrack
                (ops, pc, frame_slots, frame, barrier, depth, cont) = cont
                continue
            op = ops[pc]
            tag = op[0]
            if tag == VM_CALL:
                indicator = op[1]
                args = op[2](frame_slots)
                charge_call(indicator)
                if table_all or indicator in tabled:
                    if not defines(indicator):
                        raise ExistenceError(indicator)
                    goal = (
                        Struct(indicator[0], args) if args else Atom(indicator[0])
                    )
                    iterator = solve_tabled(engine, goal, indicator, depth)
                    value = next(iterator, _EXHAUSTED)
                    if value is _EXHAUSTED:
                        failing = True
                        continue
                    cps_append(
                        [CP_ITER,
                         (ops, pc + 1, frame_slots, frame, barrier, depth, cont),
                         iterator, frame, barrier]
                    )
                    pc += 1
                    continue
                # Inline call entry with a *lazy* choice point: the
                # first clause attempt runs right here, and a CP is
                # allocated only when alternatives actually remain —
                # a deterministic call (the common case) never touches
                # the stack. Mirrors _push_call's preamble; the two
                # must stay in sync.
                #
                # Clause selection is memoized per (indicator, arg
                # keys): index probes depend on the arguments only
                # through first_arg_key, so a cell validated against
                # the database generation replays the exact lookup —
                # clause list, compiled program, fingerprint keys and
                # scan plan — without touching the index. The memo is
                # bypassed whenever IndexEvents are being observed.
                if args:
                    goal_keys = tuple([first_arg_key(arg) for arg in args])
                else:
                    goal_keys = ()
                cache_key = (indicator, goal_keys)
                cached = call_cache.get(cache_key)
                if (
                    cached is None
                    or cached[0] != database.generation
                    or database.events is not None
                ):
                    cached = None
                    if not defines(indicator):
                        raise ExistenceError(indicator)
                if depth >= max_depth:
                    raise DepthLimitExceeded(
                        f"depth {max_depth} exceeded at "
                        f"{indicator[0]}/{indicator[1]}"
                    )
                if cached is not None:
                    (_, clauses, program,
                     goal_keys, bound_positions, plan) = cached
                else:
                    clauses = matching_for(indicator, args,
                                           goal_keys or None)
                    program = compiled_program(indicator)
                    bound_positions = ()
                    plan = None
                    if goal_keys and len(clauses) > 1:
                        bound_positions = tuple(
                            [p for p, key in enumerate(goal_keys)
                             if key is not None]
                        )
                        if not bound_positions:
                            goal_keys = None
                        elif goal_keys[0] is not None:
                            plan = scan_plan(indicator, clauses, goal_keys[0])
                    else:
                        goal_keys = None
                    if database.events is None:
                        if len(call_cache) > 4096:
                            call_cache.clear()
                        call_cache[cache_key] = (
                            database.generation, clauses, program,
                            goal_keys, bound_positions, plan,
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
                    saved = (ops, pc + 1, frame_slots, frame, barrier,
                             depth, cont)
                    barrier = len(cps)
                    frame = Frame()
                    if cursor < len(clauses):
                        cps_append(
                            [CP_CLAUSES, saved, args, clauses, program,
                             cursor, mark, frame, depth + 1,
                             goal_keys, bound_positions]
                        )
                else:
                    slots, index, processed, compiled = self._try_plan(
                        args, plan, program, 0, 0, mark,
                        goal_keys, bound_positions,
                    )
                    if slots is None:
                        failing = True
                        continue
                    saved = (ops, pc + 1, frame_slots, frame, barrier,
                             depth, cont)
                    barrier = len(cps)
                    frame = Frame()
                    if not (index == len(plan) - 1 and plan[index][0] == 0):
                        cps_append(
                            [CP_PLAN, saved, args, plan, program,
                             index, processed, mark, frame, depth + 1,
                             goal_keys, bound_positions]
                        )
                ops = compiled.vm_code()
                pc = 0
                frame_slots = slots
                depth = depth + 1
                cont = saved
                continue
            if tag == VM_DET:
                charge_call(op[1])
                if op[2](engine, op[3](frame_slots)):
                    pc += 1
                else:
                    failing = True
                continue
            if tag == VM_BUILTIN:
                charge_call(op[1])
                iterator = op[2](
                    engine, op[3](frame_slots), depth, frame
                )
                value = next(iterator, _EXHAUSTED)
                if value is _EXHAUSTED:
                    if frame.cut:
                        self._prune(barrier)
                    failing = True
                    continue
                cps_append(
                    [CP_ITER,
                     (ops, pc + 1, frame_slots, frame, barrier, depth, cont),
                     iterator, frame, barrier]
                )
                pc += 1
                continue
            if tag == VM_GENERIC:
                code = op[1]
                goal = op[2] if code is None else _run(code, frame_slots)
                # solve_goal charges, dispatches (control constructs,
                # runtime builtins behind variables, nested user calls
                # through _solve_user_vm) and boxes — verbatim reuse.
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
                     iterator, frame, barrier]
                )
                pc += 1
                continue
            if tag == VM_CUT:
                if len(cps) > barrier:
                    self._prune(barrier)
                pc += 1
                continue
            # tag == VM_FAIL (never charged, like the engine's inline
            # handling of ``fail``/``false``).
            failing = True


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
    """Drive one :class:`Machine` as an iterator — the VM's only
    generator, one per root user call rather than three per goal.

    The ``finally`` close is the leak fix the satellite names: an
    abandoned enumeration (``ask(limit=)``, a budget abort, an
    exception) pops the whole choice-point stack deterministically,
    closing delegated iterators in LIFO order.
    """
    machine = Machine(engine, goal, indicator, depth)
    try:
        while machine.next_solution():
            yield
    finally:
        machine.close()


# -- disassembler -----------------------------------------------------------

_OP_NAMES = {
    VM_CALL: "CALL",
    VM_DET: "DET_BUILTIN",
    VM_BUILTIN: "BUILTIN",
    VM_GENERIC: "GENERIC",
    VM_CUT: "CUT",
    VM_FAIL: "FAIL",
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
    """Human-readable bytecode listing for one compiled clause."""
    frame = _display_frame(compiled)
    lines = []
    label = "clause" if position is None else f"clause {position}"
    lines.append(f"  {label}: frame={len(frame)} slots")
    if compiled.head_args:
        specs = ", ".join(
            _head_spec_text(tag, payload, frame)
            for tag, payload in compiled.head_args
        )
        lines.append(f"    UNIFY_HEAD   {specs}")
    lines.append("    NECK")
    for op in compiled.vm_code():
        tag = op[0]
        name = _OP_NAMES[tag]
        if tag == VM_CALL:
            indicator = op[1]
            lines.append(
                f"    {name:<12} {indicator[0]}/{indicator[1]}"
                f"{_render_args(op[3], frame)}"
            )
        elif tag in (VM_DET, VM_BUILTIN):
            indicator = op[1]
            lines.append(
                f"    {name:<12} {indicator[0]}/{indicator[1]}"
                f"{_render_args(op[4], frame)}"
            )
        elif tag == VM_GENERIC:
            code, const = op[1], op[2]
            goal = const if code is None else _run(code, frame)
            lines.append(f"    {name:<12} {_render(goal)}")
        else:
            lines.append(f"    {name}")
    lines.append("    PROCEED")
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
