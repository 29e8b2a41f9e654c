"""The Markov-chain cost model, hands on (paper §III and §VI-A).

Run:  python examples/markov_playground.py

Recomputes the paper's Fig. 1 / Fig. 2 worked examples exactly, builds
the Fig. 4 / Fig. 5 transition matrices for ``k :- a, b, c, d``, and
shows how per-goal statistics drive the choice between goal orders.
"""

from typing import List, Sequence

from repro.experiments.figures import figure1, figure2, figures_4_5
from repro.markov import GoalStats, evaluate_sequence


def show_matrix(name: str, matrix: List[List[float]], labels: Sequence[str]) -> None:
    print(f"\n{name} (rows/cols: {', '.join(labels)})")
    for row_label, row in zip(labels, matrix):
        cells = "  ".join(f"{value:5.2f}" for value in row)
        print(f"  {row_label:>2}  {cells}")


def main() -> None:
    print(figure1().format())
    print()
    print(figure2().format())

    probs = (0.9, 0.6, 0.7, 0.8)
    costs = (5.0, 3.0, 4.0, 2.0)
    result = figures_4_5(probs, costs)
    show_matrix(
        "Fig. 4 transition matrix (single solution)",
        result["single_matrix"],
        ["S", "F", "a", "b", "c", "d"],
    )
    show_matrix(
        "Fig. 5 transition matrix (all solutions)",
        result["all_matrix"],
        ["F", "a", "b", "c", "d", "S"],
    )
    print(f"\np_body     = {result['p_body']:.4f}")
    print(f"c_single   = {result['c_single']:.4f}")
    print(f"c_multiple = {result['c_multiple']:.4f} per solution")
    print(f"visits (all-solutions chain): "
          f"{[round(v, 3) for v in result['all_visits']]}, "
          f"S visited {result['v_success']:.3f} times")

    # Goal ordering by chain cost: a generator (34 solutions), a test
    # (succeeds 30% of the time), and a medium goal.
    generator = GoalStats(cost=1.0, solutions=34.0, prob=1.0)
    test = GoalStats(cost=1.0, solutions=0.3, prob=0.3)
    medium = GoalStats(cost=2.0, solutions=2.0, prob=0.8)
    print("\nordering a conjunction of {generator, test, medium}:")
    orders = {
        "generator, medium, test": [generator, medium, test],
        "generator, test, medium": [generator, test, medium],
        "test, medium, generator": [test, medium, generator],
        "test, generator, medium": [test, generator, medium],
    }
    for label, stats in orders.items():
        evaluation = evaluate_sequence(stats)
        print(f"  {label:<26} total cost {evaluation.total_cost:10.2f}   "
              f"solutions {evaluation.solutions:6.2f}")


if __name__ == "__main__":
    main()
