"""Generation-pinned program snapshots for concurrent serving.

The paper's machinery assumes the program is fixed while a query runs;
a server accepting updates concurrently with queries must make that
assumption *true per request* rather than globally. The model here is
copy-on-write multi-versioning over whole databases:

* a :class:`Snapshot` is an immutable-by-convention handle pairing one
  :class:`~repro.prolog.database.Database` with the server-side
  generation number it was published under (plus the database's
  per-predicate generation watermarks, for telemetry and cache keys);
* the :class:`SnapshotStore` holds the *current* snapshot. Readers pin
  ``store.current`` once, at admission, and run their whole query
  against that handle — the underlying database is never mutated after
  publication, so a reader can never observe a torn program;
* updates build the **next** database off to the side
  (:meth:`SnapshotStore.build` — a generation-preserving
  :meth:`Database.snapshot` copy plus the asserted/retracted terms) and
  then :meth:`publish` it. Publication is one attribute assignment,
  atomic under the GIL, so concurrent readers see either the old
  snapshot or the new one, never a mixture.

Laziness makes the shared-read case safe too: a published database's
clause index and compiled-skeleton caches fill in lazily under
concurrent readers, but they rebuild idempotently — a racing duplicate
computation produces an identical value, and stored clause terms are
never bound during execution (resolution renames or instantiates from
skeletons), so sharing one snapshot across engine threads is sound.
The next snapshot starts with these caches for every predicate an
update does not edit.
"""

from __future__ import annotations

import re
from time import perf_counter
from typing import Dict, Iterable, Tuple

from ..errors import PrologSyntaxError
from ..prolog.database import Database
from ..prolog.reader.parser import Parser, parse_term
from ..prolog.terms import structural_eq

__all__ = ["Snapshot", "SnapshotStore", "UpdateResult"]

Indicator = Tuple[str, int]

#: ``name/arity`` retract shorthand (whole-predicate removal).
_INDICATOR_RE = re.compile(r"^\s*([a-z][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$")


class Snapshot:
    """One published program version: pin it once, use it for the whole
    request.

    ``generation`` is the store's monotonically increasing publication
    counter (0 for the program the server was started with); ``marks``
    is the frozen :meth:`Database.predicate_marks` map at publication
    time, which generation-scoped caches can diff against a later
    snapshot's to see exactly which predicates changed.
    """

    __slots__ = ("database", "generation", "marks", "published_at")

    def __init__(self, database: Database, generation: int):
        self.database = database
        self.generation = generation
        self.marks: Dict[Indicator, int] = database.predicate_marks()
        #: ``perf_counter()`` at publication (latency/age telemetry).
        self.published_at = perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Snapshot gen={self.generation} "
            f"predicates={len(self.marks)} clauses={len(self.database)}>"
        )


class UpdateResult:
    """What one :meth:`SnapshotStore.build` produced, pre-publication."""

    __slots__ = ("snapshot", "asserted", "retracted")

    def __init__(self, snapshot: Snapshot, asserted: int, retracted: int):
        self.snapshot = snapshot
        self.asserted = asserted
        self.retracted = retracted


class SnapshotStore:
    """The current snapshot plus the build/publish update protocol.

    The store itself does no locking: the *server* serializes update
    builds (one writer at a time), and publication is a single
    attribute store. Readers only ever touch :attr:`current`.
    """

    def __init__(self, database: Database):
        self._current = Snapshot(database, 0)

    @property
    def current(self) -> Snapshot:
        """The latest published snapshot (atomic read; pin at admission)."""
        return self._current

    @property
    def generation(self) -> int:
        return self._current.generation

    # -- updates ----------------------------------------------------------

    def build(
        self,
        base: Snapshot,
        asserts: Iterable[str] = (),
        retracts: Iterable[str] = (),
    ) -> UpdateResult:
        """Build (but do not publish) the next generation off ``base``.

        ``asserts`` are Prolog source chunks (clauses and/or
        directives, each ending in ``.``); ``retracts`` are either
        ``name/arity`` indicators (remove the whole predicate) or
        clause texts (remove every structurally equal stored clause —
        ``retract``-style, but idempotent). A retract that matches
        nothing counts zero rather than failing, mirroring ``retract/1``
        failure semantics. Malformed source raises
        :class:`~repro.errors.PrologSyntaxError` and nothing is
        published — the caller reports the error and the current
        generation stands.
        """
        database = base.database.snapshot()
        asserted = 0
        retracted = 0
        for chunk in retracts:
            retracted += _apply_retract(database, chunk)
        for chunk in asserts:
            before = len(database) + len(database.directives)
            for term in Parser(chunk, database.operators).read_program():
                database.add_term(term)
            asserted += len(database) + len(database.directives) - before
        snapshot = Snapshot(database, base.generation + 1)
        return UpdateResult(snapshot, asserted, retracted)

    def publish(self, result: UpdateResult) -> Snapshot:
        """Atomically swap the built snapshot in; returns it.

        Rejects stale builds (a racing writer already published past
        the build's base) instead of silently losing their updates —
        the server's update lock makes this unreachable, but a direct
        library user gets a loud error rather than a lost write.
        """
        snapshot = result.snapshot
        if snapshot.generation != self._current.generation + 1:
            raise RuntimeError(
                f"stale update build: built generation {snapshot.generation} "
                f"but current is {self._current.generation}"
            )
        self._current = snapshot
        return snapshot


def _apply_retract(database: Database, spec: str) -> int:
    """Apply one retract spec to ``database``; returns clauses removed."""
    match = _INDICATOR_RE.match(spec)
    if match is not None:
        indicator = (match.group(1), int(match.group(2)))
        removed = len(database.clauses(indicator))
        if removed:
            database.remove_predicate(indicator)
        return removed
    target = parse_term(spec, database.operators)
    from ..prolog.database import split_clause

    head, _body = split_clause(target)
    from ..prolog.terms import functor_indicator

    try:
        indicator = functor_indicator(head)
    except Exception:
        raise PrologSyntaxError(f"retract: not a clause or indicator: {spec!r}")
    kept = [
        clause
        for clause in database.clauses(indicator)
        if not structural_eq(clause.to_term(), target)
    ]
    removed = len(database.clauses(indicator)) - len(kept)
    if removed:
        if kept:
            database.replace_predicate(indicator, kept)
        else:
            database.remove_predicate(indicator)
    return removed
