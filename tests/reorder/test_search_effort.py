"""Pinned goal-search effort.

The golden fixtures compare the report and the emitted text, which
carry no search counters: a search that explores more nodes but picks
the same orders passes them. These tests pin
``Reorderer.search_counters`` exactly for the nine golden programs and
the two generated programs of perfbench's ``reorder_long_bodies``
workload, and the number of ``CostModel.goal_stats`` calls one p58
reorder makes.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.markov.predicate_model import CostModel
from repro.programs import REGISTRY
from repro.prolog import Database
from repro.reorder import Reorderer

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = Path(__file__).parent / "golden"


def _counters(blocks, exhaustive=(0, 0, 0, 0), astar=(0, 0, 0, 0, 0)):
    """``exhaustive``: blocks, permutations, illegal, pruned;
    ``astar``: blocks, expanded, pruned, heap peak, budget exhausted."""
    return {
        "blocks": blocks,
        "exhaustive_blocks": exhaustive[0],
        "exhaustive_permutations": exhaustive[1],
        "exhaustive_illegal": exhaustive[2],
        "exhaustive_pruned": exhaustive[3],
        "astar_blocks": astar[0],
        "astar_expanded": astar[1],
        "astar_pruned": astar[2],
        "astar_heap_peak": astar[3],
        "astar_budget_exhausted": astar[4],
        "admissibility_violations": 0,
    }


#: Default options, Python 3.9 to 3.12 alike.
EXPECTED = {
    "corporate": _counters(41, (41, 7410, 5543, 1662)),
    "examples/family_tree.pl": _counters(36, (36, 208, 12, 117)),
    "examples/graph_closure.pl": _counters(0),
    "family_tree": _counters(36, (36, 208, 12, 117)),
    "geography": _counters(12, (10, 1200, 360, 719), (2, 900, 248, 324, 0)),
    "kmbench": _counters(4, (4, 6, 1, 0)),
    "meal": _counters(8, (8, 960, 912, 21)),
    "p58": _counters(4, astar=(4, 5338, 2059, 1101, 0)),
    "team": _counters(12, (8, 2896, 720, 2044), (4, 2096, 62, 448, 0)),
    "generated0": _counters(16, (12, 6240, 0, 6129), (4, 1656, 0, 444, 0)),
    "generated1": _counters(16, (4, 2880, 0, 2821), (12, 4912, 0, 525, 0)),
}


def _golden_source(name):
    if name.endswith(".pl"):
        return (ROOT / name).read_text()
    return REGISTRY[name].source()


def _generated_source(index):
    """``reorder_long_bodies``' generated program ``index``, as
    ``perfbench/batch.py`` builds it (``LONG_RULES``,
    ``LONG_BODY_LENGTHS``, ``LONG_CONTROL_SHARE``); its run seed only
    renames constants, which leaves the search unchanged."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generators", ROOT / "perfbench" / "generators.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    program = module.long_body_program(
        random.Random(index + 1), f"generated{index}", 5, (5, 6, 7), 0.3
    )
    return program.source


def _source(name):
    if name.startswith("generated"):
        return _generated_source(int(name[len("generated"):]))
    return _golden_source(name)


def test_every_golden_program_is_pinned():
    names = {json.loads(path.read_text())["name"] for path in GOLDEN_DIR.glob("*.json")}
    assert names == set(EXPECTED) - {"generated0", "generated1"}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_search_counters_pinned(name):
    reorderer = Reorderer(Database.from_source(_source(name)))
    reorderer.reorder()
    assert reorderer.search_counters.to_dict() == EXPECTED[name]


def test_p58_goal_stats_calls_pinned(monkeypatch):
    # One 8-goal clause in four modes, all by A*: each (goal, states of
    # its variables) pair reaches the model once per search, plus the
    # winner's replay. The per-child A* made 7,482 calls here.
    calls = []
    goal_stats = CostModel.goal_stats

    def counting(self, goal, states):
        calls.append(goal)
        return goal_stats(self, goal, states)

    monkeypatch.setattr(CostModel, "goal_stats", counting)
    Reorderer(Database.from_source(REGISTRY["p58"].source())).reorder()
    assert len(calls) == 205
