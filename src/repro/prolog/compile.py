"""Clause compilation: slot-based skeletons lowered to VM bytecode.

The paper's execution model charges one clause *try* per head attempted
(the ``c_i`` costs its Markov model consumes), so the engine's clause-try
loop is the hot path that every calibration, ablation, and benchmark
ultimately measures. The interpreted loop paid a full recursive
:func:`~repro.prolog.terms.rename_term` copy of head *and* body for every
attempt — even when head unification failed immediately.

This module applies the WAM's core insight (Warren 1983) at the Python
level: each :class:`~repro.prolog.database.Clause` is compiled **once**
into a :class:`CompiledClause` skeleton where

* every distinct clause variable becomes a dense integer **slot**;
* the head becomes per-argument **get specs** (the WAM's get
  instructions): fresh-variable arguments bind directly without
  entering the general unifier, and the head term itself is never
  rebuilt — ``matching_clauses`` already guarantees the functor;
* body goals become flat **build programs** — postorder instruction
  tuples executed iteratively over one argument stack, so
  instantiation never recurses;
* **ground subterms are shared**, not copied (they are immutable in
  use), so a ground fact head costs *zero* allocation per attempt;
* the **body is materialized lazily** — only after the head unifies —
  so failed attempts never copy the body at all;
* conjunction chains are flattened at compile time into a goal list,
  which the VM lowers to one linear op sequence;
* the head's per-argument **fingerprints** (the index keys shared with
  the database's bucket indexes) are cached so calls whose bound
  arguments cannot match skip unification entirely.

Compiled skeletons are cached per predicate on the
:class:`~repro.prolog.database.Database`, in the predicate's selection
entry, which a mutation of that predicate drops (see
``Database.compiled_program``).

Instruction encoding
--------------------
Each build program is a tuple of uniform 3-tuples ``(op, a, b)``:

=====  ==========  ====================================================
op     operands    effect
=====  ==========  ====================================================
``0``  term, --    push a shared ground (sub)term
``1``  slot, --    push the frame's variable for ``slot``
``2``  name, n     pop ``n`` args, push ``Struct(name, args)``
=====  ==========  ====================================================

A skeleton whose term is entirely ground compiles to *no* program at
all: the stored term itself is reused on every instantiation.

VM bytecode
-----------
On top of the build programs, each clause body is lowered to the
linear **VM bytecode** executed by :mod:`repro.prolog.vm`, the engine
behind every compiled ``Engine``. Lowering is lazy —
:meth:`CompiledClause.vm_code` compiles on first use and caches. Each
op is a tuple whose first element is one of:

================ ======================================================
op               meaning
================ ======================================================
``VM_CALL``      ``(op, indicator, build, argspecs)`` — a
                 user-predicate call, resolved inline by the machine's
                 clause-selection loop
``VM_DET``       ``(op, indicator, fn, build, argspecs, source)`` — a
                 builtin registered ``det=True`` (``is/2``,
                 comparisons, ``=/2``, type tests, I/O...) run as one
                 call of its registered function: no generator, no
                 choice point
``VM_BUILTIN``   ``(op, indicator, fn, build, argspecs)`` — any
                 other registered builtin, run as an iterator choice
                 point
``VM_GENERIC``   ``(op, code, const)`` — a variable goal (or a
                 non-callable term), delegated to ``Engine.solve_goal``
``VM_CUT``       ``(op,)`` — prune choice points to the cut barrier
``VM_FAIL``      ``(op,)`` — unconditional failure (``fail``/``false``)
``VM_TRY``       ``(op, else_pc)`` — ``;``: push an alternative that
                 resumes at ``else_pc`` with its own trail mark
``VM_JUMP``      ``(op, pc)`` — continue at ``pc``
``VM_IF``        ``(op, else_pc, fresh_frame)`` — ``->``: push the
                 else alternative and open a local cut barrier for the
                 condition (a fresh cut frame too when the condition
                 holds a delegated goal)
``VM_THEN``      ``(op,)`` — the condition succeeded: drop the else
                 alternative and the condition's choice points
``VM_NOT``       ``(op, indicator, after_pc, fresh_frame, source)`` —
                 ``\\+``/``not``: a charged call that pushes the
                 "negated goal failed" alternative (resuming at
                 ``after_pc``) and opens a local barrier
``VM_NOT_FAIL``  ``(op,)`` — the negated goal succeeded: drop the
                 alternative and fail
================ ======================================================

``build`` is a specialized callable — ``build(frame) -> args`` — that
materializes the goal's argument tuple without building the goal term
itself (an instance of one of the ``_*Args`` classes below, picked per
goal shape, all plain picklable data). ``argspecs`` is its declarative
source, kept on the op for the disassembler: each spec is ``(0, term)``
(shared ground argument), ``(1, slot)`` (one frame variable), or
``(2, code)`` (a build program). ``source`` is the goal's own
``(code, const)`` pair, from which the machine rebuilds the called term
for a recorder's box (so a folded ``is/2`` still shows its expression;
calls and other builtins rebuild it from their argument tuple).
The classification is sound to do at compile time because the builtin
registry is populated at import and never mutated afterwards, and
``Engine.solve_goal`` resolves builtins before user clauses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .database import body_goals, first_arg_key
from .terms import Atom, Struct, Term, Var, deref, term_is_ground
from .unify import unify

__all__ = [
    "CompiledClause",
    "compile_clause",
    "VM_CALL",
    "VM_DET",
    "VM_BUILTIN",
    "VM_GENERIC",
    "VM_CUT",
    "VM_FAIL",
    "VM_TRY",
    "VM_JUMP",
    "VM_IF",
    "VM_THEN",
    "VM_NOT",
    "VM_NOT_FAIL",
    "VM_EXIT",
    "ARG_CONST",
    "ARG_SLOT",
    "ARG_CODE",
]

#: Instruction opcodes (module-private names kept short for the hot loop).
_OP_CONST = 0
_OP_SLOT = 1
_OP_BUILD = 2

#: VM bytecode opcodes (see module docstring and :mod:`repro.prolog.vm`).
VM_CALL = 0
VM_DET = 1
VM_BUILTIN = 2
VM_GENERIC = 3
VM_CUT = 4
VM_FAIL = 5
VM_TRY = 6
VM_JUMP = 7
VM_IF = 8
VM_THEN = 9
VM_NOT = 10
VM_NOT_FAIL = 11
#: Never emitted by the compiler: the machine's box-exit continuation.
VM_EXIT = 12

#: Argument-spec tags for VM_CALL/VM_DET/VM_BUILTIN ops.
ARG_CONST = 0
ARG_SLOT = 1
ARG_CODE = 2

#: Shared empty slot frame for clauses with no variables (facts).
_NO_SLOTS: Tuple = ()

#: Raw allocator bypassing ``Struct.__init__`` validation in the hot loop.
_new_struct = Struct.__new__

#: A build program: tuple of ``(op, a, b)`` instructions, or ``None``
#: when the term is ground and ``const`` is shared instead.
_Code = Optional[Tuple[Tuple[int, object, int], ...]]


def _compile_term(
    term: Term, slots: Dict[int, int], names: List[str]
) -> Tuple[_Code, Optional[Term]]:
    """Compile one term into ``(code, const)``.

    Ground terms return ``(None, term)`` — shared, never copied.
    Non-ground terms return a postorder build program; ``slots`` maps
    ``id(var)`` to its slot index and grows as new variables appear (so
    head and body compiled with the same maps share slots).
    """
    term = deref(term)
    if term_is_ground(term):
        return None, term
    code: List[Tuple[int, object, int]] = []

    def emit(node: Term) -> None:
        node = deref(node)
        if isinstance(node, Var):
            index = slots.get(id(node))
            if index is None:
                index = len(names)
                slots[id(node)] = index
                names.append(node.name)
            code.append((_OP_SLOT, index, 0))
            return
        if isinstance(node, Struct) and not term_is_ground(node):
            for arg in node.args:
                emit(arg)
            code.append((_OP_BUILD, node.name, len(node.args)))
            return
        code.append((_OP_CONST, node, 0))

    emit(term)
    return tuple(code), None


def _run(code: Tuple[Tuple[int, object, int], ...], frame) -> Term:
    """Execute a build program over ``frame`` (the flat ``Var`` list)."""
    stack: List[Term] = []
    push = stack.append
    for op, a, b in code:
        if op == _OP_SLOT:
            push(frame[a])
        elif op == _OP_CONST:
            push(a)
        else:
            struct = _new_struct(Struct)
            struct.name = a
            struct.args = tuple(stack[-b:])
            del stack[-b:]
            push(struct)
    return stack[-1]


#: Head-argument spec tags (see :meth:`CompiledClause.unify_head`).
_ARG_FRESH = 0
_ARG_CONST = 1
_ARG_SLOT = 2
_ARG_BUILD = 3


class CompiledClause:
    """One clause compiled to a slot-numbered skeleton.

    Attributes:

    * ``var_names`` — display name per slot; ``len(var_names)`` is the
      frame size allocated per attempt.
    * ``head_args`` — per-argument head unification specs (WAM "get"
      instructions): ``(0, slot)`` first occurrence of a variable (a
      direct bind, no general unification), ``(1, term)`` a shared
      ground argument, ``(2, slot)`` a repeated variable, ``(3, code)``
      a compound containing variables, built then unified.
    * ``head_keys`` — per-argument index keys (the same fingerprints
      ``Database``'s bucket indexes use), ``None`` per variable
      argument; the engine rejects an attempt when *any* bound call
      argument's key conflicts with the head's concrete key at that
      position.
    * ``goals`` — the flattened body as ``(code, const)`` pairs, in
      execution order; empty for facts. Compile-time ``true`` atoms are
      dropped (the solver never charged or traced them anyway).

    The head is never rebuilt as a term: ``matching_clauses`` already
    guarantees the functor and arity match, so head unification runs
    argument by argument against the caller's argument tuple.
    """

    __slots__ = (
        "var_names",
        "head_args",
        "head_keys",
        "goals",
        "vm_ops",
    )

    def __init__(self, head: Term, body: Term):
        slots: Dict[int, int] = {}
        names: List[str] = []
        head = deref(head)
        head_args: List[Tuple[int, object]] = []
        if isinstance(head, Struct):
            for arg in head.args:
                arg = deref(arg)
                if isinstance(arg, Var) and id(arg) not in slots:
                    slots[id(arg)] = len(names)
                    names.append(arg.name)
                    head_args.append((_ARG_FRESH, slots[id(arg)]))
                elif isinstance(arg, Var):
                    head_args.append((_ARG_SLOT, slots[id(arg)]))
                else:
                    code, const = _compile_term(arg, slots, names)
                    if code is None:
                        head_args.append((_ARG_CONST, const))
                    else:
                        head_args.append((_ARG_BUILD, code))
        self.head_args = tuple(head_args)
        goals: List[Tuple[_Code, Optional[Term]]] = []
        for goal in body_goals(body):
            if isinstance(goal, Atom) and goal.name == "true":
                continue
            goals.append(_compile_term(goal, slots, names))
        self.goals = tuple(goals)
        self.var_names = tuple(names)
        #: The body's VM bytecode once :meth:`vm_code` has lowered it.
        self.vm_ops = None
        if isinstance(head, Struct):
            self.head_keys = tuple(first_arg_key(arg) for arg in head.args)
        else:
            self.head_keys = ()

    def unify_head(self, goal_args, trail, occurs_check: bool = False):
        """Unify the skeleton head against ``goal_args``; one attempt.

        Allocates the flat frame of fresh variables (head *and* body
        slots, once), then runs the per-argument specs: fresh-variable
        arguments bind directly without entering the general unifier,
        and so do atom constants (interned, so a bound goal argument
        matches only the same object); other ground arguments and
        compounds go through :func:`~.unify.unify`. Returns the frame on
        success and ``None`` on failure; in both cases bindings stay on
        the trail for the caller's mark/undo discipline, exactly like a
        plain ``unify`` call.
        """
        names = self.var_names
        frame = list(map(Var, names)) if names else _NO_SLOTS
        push = trail._entries.append
        index = 0
        for tag, payload in self.head_args:
            goal_arg = goal_args[index]
            index += 1
            if tag == _ARG_CONST:
                if type(payload) is not Atom:
                    if not unify(goal_arg, payload, trail, occurs_check):
                        return None
                    continue
                while type(goal_arg) is Var:
                    ref = goal_arg.ref
                    if ref is None:
                        goal_arg.ref = payload
                        push(goal_arg)
                        break
                    goal_arg = ref
                else:  # bound: only the interned atom itself matches
                    if goal_arg is not payload:
                        return None
            elif tag == _ARG_FRESH:
                while type(goal_arg) is Var:
                    ref = goal_arg.ref
                    if ref is None:
                        # Bind the caller's variable to the fresh slot —
                        # the same direction the general unifier picks.
                        goal_arg.ref = frame[payload]
                        push(goal_arg)
                        break
                    goal_arg = ref
                else:  # bound: the fresh slot takes the goal's value
                    var = frame[payload]
                    var.ref = goal_arg
                    push(var)
            elif tag == _ARG_SLOT:
                if not unify(goal_arg, frame[payload], trail, occurs_check):
                    return None
            elif not unify(goal_arg, _run(payload, frame), trail, occurs_check):
                return None
        return frame

    def vm_code(self):
        """The body lowered to VM bytecode (compiled lazily, cached).

        See the module docstring for the op encoding. The same slot
        numbering as :meth:`unify_head` is reused, so the frame the
        head unification returns doubles as the machine's register
        file for this activation.
        """
        ops = self.vm_ops
        if ops is None:
            ops = _compile_vm_body(self.goals)
            self.vm_ops = ops
        return ops


def _split_arg_programs(code, count: int):
    """Split a postorder build program into its root's argument spans.

    ``code`` ends with the root's ``(_OP_BUILD, name, count)``; every
    subterm program leaves exactly one value on the stack, so the
    root's ``count`` children occupy consecutive spans that each
    net +1 stack depth. Returns one argspec per argument.
    """
    spans = []
    end = len(code) - 1  # the root build op itself is excluded
    for _ in range(count):
        # Walk backward until this argument's subprogram is complete:
        # each op supplies one value and a build consumes ``b``.
        needed = 1
        start = end
        while needed:
            start -= 1
            op, _a, b = code[start]
            needed -= 1
            if op == _OP_BUILD:
                needed += b
        spans.append((start, end))
        end = start
    assert end == 0, "postorder split lost an argument"
    specs = []
    for start, stop in reversed(spans):
        span = code[start:stop]
        if len(span) == 1:
            only, payload, _b = span[0]
            if only == _OP_SLOT:
                specs.append((ARG_SLOT, payload))
            else:
                specs.append((ARG_CONST, payload))
        else:
            specs.append((ARG_CODE, span))
    return tuple(specs)


class _NoArgs:
    """Argument builder for 0-arity goals."""

    __slots__ = ()

    def __call__(self, frame) -> tuple:
        return ()


class _ConstArgs:
    """Argument builder for fully-ground goals: one shared tuple."""

    __slots__ = ("value",)

    def __init__(self, value: tuple):
        self.value = value

    def __call__(self, frame) -> tuple:
        return self.value


class _SlotArgs:
    """Argument builder when every argument is a plain frame slot."""

    __slots__ = ("positions",)

    def __init__(self, positions: tuple):
        self.positions = positions

    def __call__(self, frame) -> tuple:
        return tuple([frame[p] for p in self.positions])


class _TemplateArgs:
    """Const/slot mix: copy the const template, patch in the slots."""

    __slots__ = ("template", "patches")

    def __init__(self, template: tuple, patches: tuple):
        self.template = template
        self.patches = patches  # ((arg position, frame slot), ...)

    def __call__(self, frame) -> tuple:
        args = list(self.template)
        for position, slot in self.patches:
            args[position] = frame[slot]
        return tuple(args)


class _BuildArgs:
    """General builder: at least one argument is a nested build program."""

    __slots__ = ("specs",)

    def __init__(self, specs: tuple):
        self.specs = specs

    def __call__(self, frame) -> tuple:
        return tuple([
            payload
            if tag == ARG_CONST
            else frame[payload]
            if tag == ARG_SLOT
            else _run(payload, frame)
            for tag, payload in self.specs
        ])


def _make_args_builder(specs: tuple):
    """Specialize a goal's argspecs into the cheapest builder callable.

    All builders are instances of module-level ``__slots__`` classes so
    the bytecode tuples that carry them stay plain picklable data.
    """
    if not specs:
        return _NoArgs()
    tags = [tag for tag, _payload in specs]
    if ARG_CODE in tags:
        return _BuildArgs(specs)
    if ARG_SLOT not in tags:
        return _ConstArgs(tuple(payload for _tag, payload in specs))
    if ARG_CONST not in tags:
        return _SlotArgs(tuple(payload for _tag, payload in specs))
    template = tuple(
        payload if tag == ARG_CONST else None for tag, payload in specs
    )
    patches = tuple(
        (position, payload)
        for position, (tag, payload) in enumerate(specs)
        if tag == ARG_SLOT
    )
    return _TemplateArgs(template, patches)


#: Arithmetically-evaluated argument positions of the det ops.
#: A constant expression at one of these positions folds to its value
#: at compile time (``X1 is 1 + 1`` carries the number 2, not the
#: ``+/2`` term). Folding is attempted, never required: an expression
#: that fails to evaluate keeps its source form so the error still
#: raises at call time, not at consult time.
_ARITH_POSITIONS = {
    ("is", 2): (1,),
    ("=:=", 2): (0, 1),
    ("=\\=", 2): (0, 1),
    ("<", 2): (0, 1),
    (">", 2): (0, 1),
    ("=<", 2): (0, 1),
    (">=", 2): (0, 1),
}


def _fold_arith_consts(indicator, specs):
    """Constant-fold ground arithmetic arguments of a det builtin."""
    positions = _ARITH_POSITIONS.get(indicator)
    if positions is None:
        return specs
    from .builtins.arith import evaluate

    out = None
    for position in positions:
        tag, payload = specs[position]
        if tag != ARG_CONST or isinstance(payload, (int, float)):
            continue
        try:
            value = evaluate(payload)
        except Exception:
            continue  # defer the arithmetic error to call time
        if out is None:
            out = list(specs)
        out[position] = (ARG_CONST, value)
    return specs if out is None else tuple(out)


def _spec_goal(spec) -> Tuple[_Code, Optional[Term]]:
    """An argspec read back as a ``(code, const)`` goal pair."""
    tag, payload = spec
    if tag == ARG_CONST:
        return None, payload
    if tag == ARG_SLOT:
        return ((_OP_SLOT, payload, 0),), None
    return payload, None


def _goal_shape(code, const):
    """``(indicator, argspecs)`` of a compiled goal, or ``(None, None)``
    for a variable or a non-callable term."""
    if const is not None:
        if isinstance(const, Atom):
            return (const.name, 0), ()
        if isinstance(const, Struct):
            return (
                (const.name, len(const.args)),
                tuple((ARG_CONST, arg) for arg in const.args),
            )
        return None, None
    op, a, b = code[-1]
    if op == _OP_BUILD:
        return (a, b), _split_arg_programs(code, b)
    return None, None


#: Ops that read the activation's cut frame (delegated goals can set its
#: ``cut`` flag): a condition or negated goal containing one runs with a
#: frame of its own, so a cut it performs stays local.
_FRAME_OPS = (VM_BUILTIN, VM_GENERIC)


def _compile_vm_body(goals) -> Tuple[tuple, ...]:
    """Lower a clause body (its ``(code, const)`` goal pairs) to VM ops."""
    # Late import: builtins pulls in the whole registry (harmless by the
    # time anything executes a clause), which would cycle at import time.
    from .builtins import lookup

    ops: list = []

    def needs_frame(start: int) -> bool:
        return any(op[0] in _FRAME_OPS for op in ops[start:])

    def lower(code, const) -> None:
        indicator, specs = _goal_shape(code, const)
        if indicator is None:
            # A variable goal (or a non-callable term): Engine.solve_goal
            # resolves, charges and raises exactly as the interpreter.
            ops.append((VM_GENERIC, code, const))
            return
        name, arity = indicator
        if arity == 0:
            if name == "!":
                ops.append((VM_CUT,))
                return
            if name in ("fail", "false"):
                ops.append((VM_FAIL,))
                return
            if name == "true":
                return
        elif arity == 2 and name == ",":
            lower(*_spec_goal(specs[0]))
            lower(*_spec_goal(specs[1]))
            return
        elif arity == 2 and name == ";":
            left_indicator, left_specs = _goal_shape(*_spec_goal(specs[0]))
            if left_indicator is None:
                # ``(G ; E)`` with G a variable may be bound to an
                # if-then at run time, which changes the meaning of E:
                # the whole disjunction stays with Engine.solve_goal.
                ops.append((VM_GENERIC, code, const))
                return
            if left_indicator == ("->", 2):
                lower_if(left_specs[0], left_specs[1], specs[1])
                return
            at = len(ops)
            ops.append(None)
            lower(*_spec_goal(specs[0]))
            jump = len(ops)
            ops.append(None)
            ops[at] = (VM_TRY, len(ops))
            lower(*_spec_goal(specs[1]))
            ops[jump] = (VM_JUMP, len(ops))
            return
        elif arity == 2 and name == "->":
            lower_if(specs[0], specs[1], None)
            return
        elif arity == 1 and name in ("\\+", "not"):
            if _goal_shape(*_spec_goal(specs[0]))[0] is not None:
                at = len(ops)
                ops.append(None)
                lower(*_spec_goal(specs[0]))
                fresh = needs_frame(at + 1)
                ops.append((VM_NOT_FAIL,))
                ops[at] = (VM_NOT, indicator, len(ops), fresh, (code, const))
                return
        registered = lookup(indicator)
        if registered is not None and registered.det:
            folded = _fold_arith_consts(indicator, specs)
            ops.append((VM_DET, indicator, registered.fn,
                        _make_args_builder(folded), folded, (code, const)))
            return
        build = _make_args_builder(specs)
        if registered is not None:
            ops.append((VM_BUILTIN, indicator, registered.fn, build, specs))
            return
        ops.append((VM_CALL, indicator, build, specs))

    def lower_if(condition, then_part, else_part) -> None:
        at = len(ops)
        ops.append(None)
        lower(*_spec_goal(condition))
        fresh = needs_frame(at + 1)
        ops.append((VM_THEN,))
        lower(*_spec_goal(then_part))
        jump = len(ops)
        ops.append(None)
        ops[at] = (VM_IF, len(ops), fresh)
        if else_part is None:
            ops.append((VM_FAIL,))
        else:
            lower(*_spec_goal(else_part))
        ops[jump] = (VM_JUMP, len(ops))

    for code, const in goals:
        lower(code, const)
    return tuple(ops)


def compile_clause(clause) -> CompiledClause:
    """Compile one :class:`~repro.prolog.database.Clause` to a skeleton."""
    return CompiledClause(clause.head, clause.body)
