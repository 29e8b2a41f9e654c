"""Experiment harness: regenerates every table and figure of the paper."""

from .figures import Figure1Result, Figure2Result, figure1, figure2, figures_4_5
from .harness import Row, Table, count_calls, label_to_mode, mode_queries
from .tables import (
    compare_labelled_queries,
    reorder_program,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "Figure1Result",
    "Figure2Result",
    "Row",
    "Table",
    "compare_labelled_queries",
    "count_calls",
    "figure1",
    "figure2",
    "figures_4_5",
    "label_to_mode",
    "mode_queries",
    "reorder_program",
    "table1",
    "table2",
    "table3",
    "table4",
]
