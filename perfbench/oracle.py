"""Reference answers from the seed interpreter, and answer comparison.

The oracle is always ``Engine(compiled=False)`` — the rename-per-attempt
interpreter — on the *source* program, so it shares no compiled path
with the engine configurations the benchmark times. Answers are
compared as multisets of rendered bindings.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.prolog.database import Database
from repro.prolog.engine import Engine
from repro.prolog.writer import term_to_string

Answer = Tuple[Tuple[str, str], ...]


def answer_multiset(solutions, operators=None) -> List[Answer]:
    """Engine solutions as a sorted list of ((var, text), ...) tuples."""
    return sorted(
        tuple(
            (name, term_to_string(term, operators))
            for name, term in sorted(solution.bindings.items())
        )
        for solution in solutions
    )


def response_multiset(solutions: Iterable[dict]) -> List[Answer]:
    """A serve response's ``solutions`` in the same shape."""
    return sorted(tuple(sorted(solution.items())) for solution in solutions)


def digest(answers: List[Answer]) -> str:
    """A short stable fingerprint of an answer multiset."""
    text = json.dumps(answers, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def reference_digests(source: str, queries: Sequence[str]) -> Dict[str, str]:
    """query -> digest of its answers on the source program."""
    database = Database.from_source(source)
    engine = Engine(database, compiled=False)
    return {
        query: digest(answer_multiset(engine.ask(query), database.operators))
        for query in queries
    }
