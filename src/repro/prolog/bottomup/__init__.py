"""Bottom-up (semi-naive) evaluation of datalog-like strata.

The second evaluation strategy beside SLD resolution (Warren's *A
Prolog Program for Bottom-up Evaluation*, PAPERS.md): eligible strata —
range-restricted, side-effect-free, stratified, term-flat recursion
components detected by :mod:`repro.analysis.stratify` — are
materialized to fixpoint with semi-naive iteration over indexed fact
relations (hash joins on bound columns, delta relations per round),
and calls are answered by probing the materialized relation. Engine
integration is ``Engine(eval_strategy="bottomup"|"auto")`` / the CLI's
``--eval`` flag; everything else falls back to the top-down engine
unchanged.
"""

from .dispatch import (
    BackendVerdict,
    BottomUpDispatcher,
    Materializer,
    backend_verdict,
)
from .relation import Relation, ground_key
from .rules import Literal, Rule, compile_rule
from .seminaive import StratumStats, evaluate_component

__all__ = [
    "BackendVerdict",
    "BottomUpDispatcher",
    "Literal",
    "Materializer",
    "Relation",
    "Rule",
    "StratumStats",
    "backend_verdict",
    "compile_rule",
    "evaluate_component",
    "ground_key",
]
