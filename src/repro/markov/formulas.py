"""Closed-form cost formulas (paper §III and §VI-A-2).

These are the no-matrix counterparts of :mod:`repro.markov.chain`:

* the Fig. 1/Fig. 2 expected-cost expressions for trying children of an
  OR-node (clauses) until first success, and of an AND-node (goals)
  until first failure;
* the Li & Wah optimal-order criteria — clauses by decreasing ``p/c``,
  goals by decreasing ``q/c``;
* the paper's closed form for the all-solutions chain visit counts,
  ``v_i = Π_{j≤i} p_{j−1}/(1 − p_j)`` with ``p_0 = 1``, and the derived
  per-solution cost — cross-checked against the matrix method in the
  property tests;
* the gambler's-ruin closed form for the single-solution chain's
  success probability.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .chain import clamp_probability

__all__ = [
    "expected_cost_until_success",
    "expected_cost_until_failure",
    "order_by_success_ratio",
    "order_by_failure_ratio",
    "all_solutions_visits_closed_form",
    "all_solutions_visit",
    "all_solutions_cost_closed_form",
    "single_solution_success_closed_form",
]


def expected_cost_until_success(
    probs: Sequence[float], costs: Sequence[float]
) -> float:
    """Expected cost of trying alternatives in order until one succeeds.

    The Fig. 1 formula: alternative *i* is reached when all earlier ones
    failed, and contributes the cumulative cost so far when it succeeds
    — ``Σ_i (Π_{j<i} (1−p_j)) · p_i · Σ_{j≤i} c_j``. (As in the paper's
    worked example, the all-fail outcome contributes nothing.)
    """
    if len(probs) != len(costs):
        raise ValueError("probs and costs must have equal length")
    total = 0.0
    reach = 1.0  # probability that alternative i is reached
    cumulative = 0.0
    for p, c in zip(probs, costs):
        cumulative += c
        total += reach * p * cumulative
        reach *= 1.0 - p
    return total


def expected_cost_until_failure(
    fail_probs: Sequence[float], costs: Sequence[float]
) -> float:
    """Expected cost of a conjunction failing at goal *i* (Fig. 2).

    ``Σ_i (Π_{j<i} (1−q_j)) · q_i · Σ_{j≤i} c_j`` where ``q`` are
    failure probabilities.
    """
    return expected_cost_until_success(fail_probs, costs)


def order_by_success_ratio(
    probs: Sequence[float], costs: Sequence[float]
) -> List[int]:
    """Indices ordered by decreasing ``p/c`` — Li & Wah's optimal order
    for the children of an OR-node (clauses)."""
    return sorted(
        range(len(probs)), key=lambda i: probs[i] / costs[i], reverse=True
    )


def order_by_failure_ratio(
    fail_probs: Sequence[float], costs: Sequence[float]
) -> List[int]:
    """Indices ordered by decreasing ``q/c`` — Li & Wah's optimal order
    for the children of an AND-node (goals)."""
    return sorted(
        range(len(fail_probs)),
        key=lambda i: fail_probs[i] / costs[i],
        reverse=True,
    )


def all_solutions_visits_closed_form(
    probs: Sequence[float],
) -> Tuple[Tuple[float, ...], float]:
    """Closed-form visit counts of the Fig. 5 chain.

    Returns ``(goal visits, success visits)``. Derivation: the chain is
    a birth–death process absorbed only at F, so net flow across every
    cut is zero — ``v_1 (1−p_1) = 1`` (exactly one absorption) and
    ``v_{i+1} (1−p_{i+1}) = v_i p_i``, giving the paper's product form
    ``v_i = Π_{j≤i} p_{j−1}/(1−p_j)`` with ``p_0 = 1``; the success
    state is entered once per success of the last goal, ``v_S = v_n p_n``.
    """
    visits: List[float] = []
    previous_flow = 1.0  # v_{i-1} · p_{i-1}, with the virtual p_0 = 1
    for p in probs:
        v, previous_flow = all_solutions_visit(previous_flow, p)
        visits.append(v)
    success_visits = previous_flow if probs else 1.0
    return tuple(visits), success_visits


def all_solutions_visit(previous_flow: float, p: float) -> Tuple[float, float]:
    """One step of the Fig. 5 visit recursion: ``(v_i, v_i · p_i)``.

    ``previous_flow`` is ``v_{i-1} · p_{i-1}`` (1 for the first goal).
    The closed form and goal search's running prefix cost both step
    through here, so they clamp and round identically.
    """
    p = clamp_probability(p, high=1.0 - 1e-9)
    visits = previous_flow / (1.0 - p)
    return visits, visits * p


def all_solutions_cost_closed_form(
    probs: Sequence[float], costs: Sequence[float]
) -> Tuple[float, float]:
    """(total cost, cost per solution) of the all-solutions chain."""
    if len(probs) != len(costs):
        raise ValueError("probs and costs must have equal length")
    visits, success_visits = all_solutions_visits_closed_form(probs)
    # Left to right, not sum(): sum() over floats is compensated from
    # Python 3.12 on, and goal search breaks exact cost ties on this float.
    total = 0.0
    for c, v in zip(costs, visits):
        total += c * v
    per_solution = total / success_visits if success_visits > 0 else float("inf")
    return total, per_solution


def single_solution_success_closed_form(probs: Sequence[float]) -> float:
    """Probability the Fig. 4 chain is absorbed in S (gambler's ruin).

    With per-state odds ``r_i = (1−p_i)/p_i``, the probability of
    reaching S before F from the first goal is
    ``1 / (1 + Σ_{k=1}^{n} Π_{j≤k} r_j)`` — the standard heterogeneous
    ruin formula.
    """
    if not probs:
        return 1.0
    probs = [clamp_probability(p, low=1e-12) for p in probs]
    denominator = 1.0
    product = 1.0
    for p in probs:
        product *= (1.0 - p) / p
        denominator += product
    return 1.0 / denominator
