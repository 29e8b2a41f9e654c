"""Mode inference by abstract interpretation (paper §V-E).

We execute clauses symbolically over the FREE/GROUND/ANY lattice of
:mod:`repro.analysis.modes`. For a predicate called in a given input
mode the analysis produces:

* the *output mode* it leaves on success — the pointwise join over all
  clauses that can legally run in that mode; or
* ``None`` — the mode is **illegal**: every clause eventually calls some
  builtin outside its legal modes (run-time error), or the predicate is
  recursive and the mode cannot be shown terminating.

Recursive predicates (§IV-D-7, §V-B): declared legal modes always win.
Without a declaration we apply a *structural-descent* check: a recursive
mode is accepted only if, in every directly-recursive clause, the
recursive call has some argument position that is a strict subterm of
the head's same position and is instantiated (``+``) in the calling
mode (the ``delete/3`` pattern). Recursions that rebind their arguments
through other goals (``permutation/2``) fail the check and must be
declared — exactly the paper's position that "the programmer declares a
predicate recursive and provides necessary information".

The fixpoint: mutually recursive output modes start from the assumption
"output = input" and iterate until stable; the lattice is finite and
all operations are monotone joins, so this terminates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..prolog.builtins import is_builtin
from ..prolog.database import Clause, Database
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Var,
    deref,
    functor_indicator,
    term_is_ground,
    term_variables,
)
from .builtin_modes import builtin_profile
from .callgraph import CallGraph
from .declarations import Declarations
from .modes import (
    Inst,
    Mode,
    ModeItem,
    ModePair,
    VarState,
    all_input_modes,
    apply_output,
    argument_inst,
    bind_head_states,
    call_mode,
    inst_to_item,
    join_inst,
    mode_accepts,
    mode_str,
)
from .recursion import recursive_predicates

__all__ = ["ModeInference", "join_modes", "structural_descent_positions"]

Indicator = Tuple[str, int]


def _join_items(left: ModeItem, right: ModeItem) -> ModeItem:
    if left is right:
        return left
    return ModeItem.ANY


def join_modes(left: Mode, right: Mode) -> Mode:
    """Pointwise join (least upper bound) of two modes."""
    return tuple(_join_items(a, b) for a, b in zip(left, right))


def _is_strict_subterm(candidate: Term, container: Term) -> bool:
    """Is ``candidate`` a proper subterm of ``container`` (syntactically)?"""
    container = deref(container)
    if not isinstance(container, Struct):
        return False
    stack = list(container.args)
    candidate = deref(candidate)
    while stack:
        current = deref(stack.pop())
        if current is candidate:
            return True
        if isinstance(current, Struct):
            stack.extend(current.args)
    return False


def structural_descent_positions(clause: Clause) -> Set[int]:
    """Head positions on which every direct recursive call descends.

    For a clause of ``p`` whose body calls ``p`` directly, the returned
    positions (1-based) are those where *each* recursive call's argument
    is a strict subterm of the head's argument. An instantiated argument
    in such a position shrinks on every recursion, so it bounds the
    recursion depth.
    """
    from .callgraph import iter_called_goals

    head = deref(clause.head)
    if not isinstance(head, Struct):
        return set()
    indicator = clause.indicator
    recursive_calls = [
        deref(goal)
        for goal in iter_called_goals(clause.body)
        if isinstance(deref(goal), Struct)
        and deref(goal).indicator == indicator
    ]
    if not recursive_calls:
        return set()
    positions: Set[int] = set()
    for index in range(head.arity):
        if all(
            _is_strict_subterm(call.args[index], head.args[index])
            for call in recursive_calls
        ):
            positions.add(index + 1)
    return positions


class ModeInference:
    """Abstract interpreter answering output-mode and legality queries."""

    def __init__(
        self,
        database: Database,
        declarations: Optional[Declarations] = None,
        callgraph: Optional[CallGraph] = None,
        max_iterations: int = 20,
    ):
        self.database = database
        self.declarations = declarations or Declarations()
        self.callgraph = callgraph or CallGraph(database)
        self.recursive = recursive_predicates(self.callgraph)
        self.recursive |= self.declarations.recursive
        self.max_iterations = max_iterations
        self._memo: Dict[Tuple[Indicator, Mode], Optional[Mode]] = {}
        self._assumption: Dict[Tuple[Indicator, Mode], Mode] = {}
        #: Per predicate: does it have a ground fact, and its other clauses.
        self._fact_split: Dict[Indicator, Tuple[bool, List[Clause]]] = {}
        #: Diagnostics produced while inferring (Fig. 3: "informs the
        #: programmer when it cannot infer properties").
        self.warnings: List[str] = []

    # -- public API --------------------------------------------------------

    def output_mode(self, indicator: Indicator, input_mode: Mode) -> Optional[Mode]:
        """Success output mode for a call, or None when illegal."""
        key = (indicator, input_mode)
        if key in self._memo:
            return self._memo[key]
        if key in self._assumption:  # recursion: use current assumption
            return self._assumption[key]

        declared = self._declared_output(indicator, input_mode)
        if declared is not NO_DECLARATION:
            self._memo[key] = declared
            return declared

        profile = builtin_profile(indicator)
        if profile is not None:
            entry = profile.accepting(input_mode)
            result = None if entry is None else self._pair_output(
                entry.pair, input_mode
            )
            self._memo[key] = result
            return result

        if not self.database.defines(indicator):
            if is_builtin(indicator):
                # Registered builtin with no profile: assume mode-free.
                result = input_mode
            else:
                self.warnings.append(
                    f"undefined predicate {indicator[0]}/{indicator[1]}"
                )
                result = None
            self._memo[key] = result
            return result

        if indicator in self.recursive and not self._recursion_admissible(
            indicator, input_mode
        ):
            self._memo[key] = None
            return None

        if self._split(indicator)[1]:
            result = self._fixpoint(indicator, input_mode)
        else:
            # Only ground facts: every mode is legal and grounds everything.
            result = (ModeItem.PLUS,) * len(input_mode)
        self._memo[key] = result
        return result

    def is_legal(self, indicator: Indicator, input_mode: Mode) -> bool:
        """Is a call in ``input_mode`` legal (has any output mode)?"""
        return self.output_mode(indicator, input_mode) is not None

    def legal_input_modes(self, indicator: Indicator) -> List[Mode]:
        """All legal {+, -} input modes of a predicate."""
        return [
            mode
            for mode in all_input_modes(indicator[1])
            if self.is_legal(indicator, mode)
        ]

    # -- declarations ---------------------------------------------------------

    def _declared_output(self, indicator: Indicator, input_mode: Mode):
        declared = self.declarations.declared_pairs(indicator)
        if not declared:
            return NO_DECLARATION
        # First accepting pair wins (same discipline as the builtin
        # profiles): declare the more specific modes first, e.g.
        # append(+,+,?)->(+,+,+) before append(+,?,?)->(+,?,?).
        for pair in declared:
            if mode_accepts(pair.input, input_mode):
                return self._pair_output(pair, input_mode)
        return None  # declared predicate, undeclared mode: illegal

    @staticmethod
    def _pair_output(pair: ModePair, input_mode: Mode) -> Mode:
        # The actual call may be more instantiated than the declared
        # input; keep the stronger of the two pointwise.
        output = []
        for declared_out, actual_in in zip(pair.output, input_mode):
            if actual_in is ModeItem.PLUS:
                output.append(ModeItem.PLUS)
            else:
                output.append(declared_out)
        return tuple(output)

    # -- recursion admissibility --------------------------------------------------

    def _recursion_admissible(self, indicator: Indicator, input_mode: Mode) -> bool:
        """Structural-descent termination check for undeclared recursion."""
        clauses = self.database.clauses(indicator)
        checked_any = False
        for clause in clauses:
            positions = structural_descent_positions(clause)
            has_direct_recursion = any(
                True
                for goal in _direct_recursive_goals(clause, indicator)
            )
            if not has_direct_recursion:
                continue
            checked_any = True
            descending = any(
                input_mode[position - 1] is ModeItem.PLUS for position in positions
            )
            if not descending:
                self.warnings.append(
                    f"recursive {indicator[0]}/{indicator[1]} has no declared "
                    f"legal modes and no instantiated descending argument in "
                    f"mode {mode_str(input_mode)}; treating the mode as illegal"
                )
                return False
        if not checked_any:
            # Mutual recursion only: structural check does not apply; be
            # permissive and let the per-goal legality checks decide.
            return True
        return True


    # -- the abstract interpreter --------------------------------------------------

    def _fixpoint(self, indicator: Indicator, input_mode: Mode) -> Optional[Mode]:
        key = (indicator, input_mode)
        self._assumption[key] = input_mode
        result: Optional[Mode] = None
        for _ in range(self.max_iterations):
            result = self._predicate_output(indicator, input_mode)
            if result is None or result == self._assumption[key]:
                break
            self._assumption[key] = result
        del self._assumption[key]
        return result

    def _split(self, indicator: Indicator) -> Tuple[bool, List[Clause]]:
        """Whether ``indicator`` has a ground fact, and its other clauses.

        A ground fact runs in every mode and leaves every argument
        ground, so all of them together add one ``(+,...,+)`` to the
        join of a predicate's clause outputs (the join is commutative).
        """
        split = self._fact_split.get(indicator)
        if split is None:
            ground = False
            others: List[Clause] = []
            for clause in self.database.clauses(indicator):
                if clause.is_fact and term_is_ground(clause.head):
                    ground = True
                else:
                    others.append(clause)
            split = self._fact_split[indicator] = (ground, others)
        return split

    def _predicate_output(
        self, indicator: Indicator, input_mode: Mode
    ) -> Optional[Mode]:
        ground, others = self._split(indicator)
        output: Optional[Mode] = (ModeItem.PLUS,) * len(input_mode) if ground else None
        for clause in others:
            clause_output = self._clause_output(clause, input_mode)
            if clause_output is None:
                continue  # this clause cannot run legally in this mode
            output = (
                clause_output if output is None else join_modes(output, clause_output)
            )
        return output

    def _clause_output(self, clause: Clause, input_mode: Mode) -> Optional[Mode]:
        head = deref(clause.head)
        states: VarState = {}
        bind_head_states(head, input_mode, states)
        if not self._exec(clause.body, states):
            return None
        if isinstance(head, Atom):
            return ()
        assert isinstance(head, Struct)
        return tuple(inst_to_item(argument_inst(arg, states)) for arg in head.args)

    def abstract_execute(self, goal: Term, states: VarState) -> bool:
        """Public alias of the abstract goal step, used by the legality
        checker (paper §VI-B-1) to scan candidate orders goal by goal."""
        return self._exec(goal, states)

    def _exec(self, goal: Term, states: VarState) -> bool:
        """Abstractly execute a goal; False when it is illegal here."""
        goal = deref(goal)
        if isinstance(goal, Var):
            return False  # variable goals are forbidden (§I-C)
        if isinstance(goal, Atom):
            if goal.name in ("!", "true", "fail", "false"):
                return True
            return self._exec_call(goal, states)
        if not isinstance(goal, Struct):
            return False

        name, arity = goal.name, goal.arity
        if name == "," and arity == 2:
            return self._exec(goal.args[0], states) and self._exec(
                goal.args[1], states
            )
        if name == ";" and arity == 2:
            return self._exec_disjunction(goal, states)
        if name == "->" and arity == 2:
            return self._exec(goal.args[0], states) and self._exec(
                goal.args[1], states
            )
        if name in ("\\+", "not") and arity == 1:
            # Negation makes no bindings; its argument must still be legal.
            return self._exec(goal.args[0], dict(states))
        if name in ("call", "once") and arity == 1:
            return self._exec(goal.args[0], states)
        if name == "forall" and arity == 2:
            scratch = dict(states)
            return self._exec(goal.args[0], scratch) and self._exec(
                goal.args[1], scratch
            )
        if name in ("findall", "bagof", "setof") and arity == 3:
            inner = _strip_carets(goal.args[1])
            if not self._exec(inner, dict(states)):
                return False
            for variable in term_variables(goal.args[2]):
                states[id(variable)] = Inst.GROUND
            return True
        return self._exec_call(goal, states)

    def _exec_disjunction(self, goal: Struct, states: VarState) -> bool:
        """Disjunction / if-then-else. Every reachable part must be
        legal: Prolog tries the left branch (or the condition) first and
        an illegal call there is a run-time *error*, not a failure — it
        never falls through to the other branch."""
        left, right = goal.args
        left_deref = deref(left)
        if (
            isinstance(left_deref, Struct)
            and left_deref.name == "->"
            and left_deref.arity == 2
        ):
            then_states = dict(states)
            if not self._exec(left_deref.args[0], then_states):
                return False  # illegal condition: the construct errors
            if not self._exec(left_deref.args[1], then_states):
                return False
            else_states = dict(states)
            if not self._exec(right, else_states):
                return False
            self._merge_branches(states, then_states, else_states)
            return True
        left_states = dict(states)
        if not self._exec(left, left_states):
            return False
        right_states = dict(states)
        if not self._exec(right, right_states):
            return False
        self._merge_branches(states, left_states, right_states)
        return True

    @staticmethod
    def _merge_branches(states: VarState, first: VarState, second: VarState) -> None:
        keys = set(first) | set(second)
        for key in keys:
            states[key] = join_inst(
                first.get(key, Inst.FREE), second.get(key, Inst.FREE)
            )

    def _exec_call(self, goal: Term, states: VarState) -> bool:
        indicator = functor_indicator(goal)
        mode = call_mode(goal, states)
        output = self.output_mode(indicator, mode)
        if output is None:
            return False
        apply_output(goal, output, states)
        return True


def _direct_recursive_goals(clause: Clause, indicator: Indicator):
    from .callgraph import iter_called_goals

    for goal in iter_called_goals(clause.body):
        goal = deref(goal)
        if isinstance(goal, Struct) and goal.indicator == indicator:
            yield goal


def _strip_carets(term: Term) -> Term:
    term = deref(term)
    while isinstance(term, Struct) and term.name == "^" and term.arity == 2:
        term = deref(term.args[1])
    return term


#: Sentinel distinguishing "no declaration" from "declared illegal".
NO_DECLARATION = object()
