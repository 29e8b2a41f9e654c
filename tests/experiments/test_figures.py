"""Unit tests pinning the figure reproductions to the paper's numbers."""

import math

import pytest

from repro.experiments.figures import figure1, figure2, figures_4_5


class TestFigure1:
    def test_paper_numbers(self):
        result = figure1()
        assert result.original_cost == pytest.approx(130.24)
        assert result.reordered_cost == pytest.approx(49.64)

    def test_order(self):
        assert figure1().order == [3, 1, 0, 2]

    def test_format_mentions_paper(self):
        assert "130.24" in figure1().format()
        assert "49.64" in figure1().format()


class TestFigure2:
    def test_paper_numbers(self):
        result = figure2()
        assert result.original_cost == pytest.approx(98.928)
        assert result.reordered_cost == pytest.approx(78.968)

    def test_order(self):
        assert figure2().order == [0, 3, 2, 1]


class TestFigures45:
    def test_matrices_stochastic(self):
        result = figures_4_5()
        for key in ("single_matrix", "all_matrix"):
            assert all(math.isclose(sum(row), 1.0) for row in result[key])

    def test_quantities_consistent(self):
        result = figures_4_5()
        assert 0.0 < result["p_body"] < 1.0
        assert result["c_single"] > 0
        assert result["c_multiple"] > 0
        assert len(result["single_visits"]) == 4
        assert result["v_success"] > 0

    def test_custom_probabilities(self):
        result = figures_4_5(probs=(0.5, 0.5), costs=(1.0, 1.0))
        # Symmetric ruin from state 1 of 2: P = 1/3.
        assert result["p_body"] == pytest.approx(1 / 3)
