"""One backend verdict: the reorder report names the route ``--eval=auto``
takes (``repro.prolog.bottomup.dispatch.backend_verdict``)."""

from pathlib import Path

import pytest

from repro.analysis import stratify
from repro.programs import REGISTRY
from repro.prolog import Database
from repro.prolog.bottomup import BottomUpDispatcher, backend_verdict
from repro.reorder import Reorderer

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

PROGRAMS = {name: program.source() for name, program in REGISTRY.items()}
PROGRAMS.update((path.name, path.read_text()) for path in EXAMPLES.glob("*.pl"))

GRAPH = """
edge(a, b). edge(b, c).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
hop2(X, Z) :- edge(X, Y), edge(Y, Z).
shifted(Y) :- edge(X, _), atom_length(X, Y).
"""


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_report_verdict_is_the_auto_dispatch(name):
    database = Database.from_source(PROGRAMS[name])
    backends = Reorderer(database).reorder().report.backends
    dispatcher = BottomUpDispatcher("auto")
    dispatcher._refresh(database)
    assert set(backends) == set(database.predicates())
    for indicator, verdict in backends.items():
        expected = "bottomup" if dispatcher.selects(indicator) else "topdown"
        assert verdict.backend == expected, indicator


def stratum(indicator):
    return stratify(Database.from_source(GRAPH)).info(indicator)


class TestVerdictRule:
    def test_eligible_recursive_stratum_goes_bottomup(self):
        verdict = backend_verdict(stratum(("path", 2)))
        assert verdict.backend == "bottomup"
        assert verdict.reason.startswith("recursive eligible stratum")

    def test_ineligible_stratum_keeps_its_stratify_reasons(self):
        info = stratum(("shifted", 1))
        assert not info.eligible
        verdict = backend_verdict(info)
        assert verdict == ("topdown", "; ".join(info.reasons))
        assert "builtin atom_length/2" in verdict.reason

    def test_eligible_nonrecursive_stratum_stays_topdown(self):
        verdict = backend_verdict(stratum(("hop2", 2)))
        assert verdict.backend == "topdown"
        assert verdict.reason.startswith("non-recursive eligible stratum")

    def test_report_prints_only_bottomup_strata(self):
        report = Reorderer(Database.from_source(GRAPH)).reorder().report
        backend_lines = [
            line for line in report.summary().splitlines()
            if line.startswith("backend:")
        ]
        assert backend_lines == [
            "backend: path/2 -> bottomup (recursive eligible stratum: "
            "materialization bounds re-derivation)"
        ]
