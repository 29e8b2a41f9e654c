"""Deterministic fault injection at named sites.

The robustness suite must *prove* every degradation path: that an
engine abort maps to one clean CLI error, that a pipeline phase blowing
up degrades exactly one predicate, that a hung calibration worker is
killed and quarantined. Faults therefore fire at **named sites** the
production code declares::

    engine.call          Engine._charge_call (every predicate call)
    tabling.complete     the tabling fixpoint loop
    phase.build          ReorderPipeline._build, per-predicate build
    calibration.worker   the parallel-calibration worker task
    serve.request        QueryServer request execution (worker thread,
                         before the engine runs — a ``hang`` here
                         simulates a wedged request the serve-side
                         deadline watchdog must answer for)
    serve.worker         inside a ``--backend=process`` worker process,
                         before the engine runs — ``hang`` wedges the
                         worker non-cooperatively (the supervisor must
                         SIGKILL it), ``crash`` drops the process on
                         the spot (``os._exit``), exercising the
                         retry → degrade → quarantine ladder

The fault **kinds**:

* ``raise``   — raise :class:`~repro.errors.FaultInjected`;
* ``hang``    — ``time.sleep`` for the configured seconds (default 5),
  simulating a wedge that only wall-clock machinery can catch;
* ``exhaust`` — raise :class:`~repro.errors.BudgetExceededError`, as if
  a resource budget ran out at that site;
* ``crash``   — ``os._exit(13)``: the process dies instantly, no
  exception, no cleanup — a segfault/OOM-kill stand-in. Only
  meaningful at sites that run inside supervised worker processes;
  arming it at an in-process site kills that process, by design.

Selection is deterministic: a spec like ``engine.call:raise@5`` trips
on the 5th hit of the site (counted per process); keyed sites
(``calibration.worker`` passes the task index as ``key``) trip when
``key + 1 == N``. Without ``@N`` the trigger index derives from the
plan's seed, so the same spec + seed always trips at the same place. A
rule fires at most once per process.

Plans install from the environment (``REPRO_FAULTS`` spec +
``REPRO_FAULTS_SEED``), which worker processes inherit, or from the CLI
(``--faults``). The hot-path guard is ``faults.ACTIVE is not None`` —
one module-attribute read when idle.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from ..errors import BudgetExceededError, FaultInjected

__all__ = [
    "ACTIVE",
    "FAULT_SITES",
    "FaultRule",
    "FaultPlan",
    "install",
    "install_from_spec",
    "clear",
]

#: The fault-site catalog (documented in docs/ROBUSTNESS.md).
FAULT_SITES = (
    "engine.call",
    "tabling.complete",
    "phase.build",
    "calibration.worker",
    "serve.request",
    "serve.worker",
)

FAULT_KINDS = ("raise", "hang", "exhaust", "crash")

#: Default sleep of a ``hang`` fault, seconds (long enough to trip any
#: sane watchdog timeout; overridable per rule as ``site:hang:0.2``).
DEFAULT_HANG_SECONDS = 5.0


class FaultRule:
    """One armed fault: a site, a kind, and a deterministic trigger."""

    __slots__ = ("site", "kind", "seconds", "at", "fired")

    def __init__(self, site: str, kind: str, seconds: float, at: int):
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (use raise|hang|exhaust|crash)"
            )
        self.site = site
        self.kind = kind
        self.seconds = seconds
        #: 1-based trigger index: the Nth counter hit, or key ``N - 1``.
        self.at = max(1, at)
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultRule {self.site}:{self.kind}@{self.at}>"


class FaultPlan:
    """A set of armed :class:`FaultRule` objects plus trip bookkeeping."""

    def __init__(self, rules: Optional[List[FaultRule]] = None, seed: int = 0):
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules or []:
            self.rules[rule.site] = rule
        self._counters: Dict[str, int] = {}
        #: (site, kind) pairs that actually fired, in order.
        self.trips: List[Tuple[str, str]] = []
        #: Optional event bus: each trip emits a ``fault`` event.
        self.events = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site:kind[:seconds][@N],...`` into a plan.

        Without ``@N`` the trigger index is derived from the seed
        (``1 + seed % 7``), so distinct seeds probe distinct hit
        positions while staying fully reproducible.
        """
        rules = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            at = 1 + (seed % 7)
            if "@" in chunk:
                chunk, _, at_text = chunk.rpartition("@")
                at = int(at_text)
            parts = chunk.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"bad fault spec {chunk!r} (want site:kind[:seconds][@N])"
                )
            site, kind = parts[0], parts[1]
            seconds = float(parts[2]) if len(parts) > 2 else DEFAULT_HANG_SECONDS
            rules.append(FaultRule(site, kind, seconds, at))
        return cls(rules, seed=seed)

    # -- firing -----------------------------------------------------------

    def hit(self, site: str, key: Optional[int] = None) -> None:
        """Notify the plan that execution reached ``site``.

        ``key`` identifies the unit of work at keyed sites (the
        calibration task index); counter sites pass None. May raise or
        sleep, per the armed rule; at most once per rule per process.
        """
        rule = self.rules.get(site)
        if rule is None or rule.fired:
            return
        if key is None:
            count = self._counters.get(site, 0) + 1
            self._counters[site] = count
            if count != rule.at:
                return
        elif key + 1 != rule.at:
            return
        rule.fired = True
        self.trips.append((site, rule.kind))
        if self.events is not None:
            from ..observability.events import FaultEvent

            self.events.emit(FaultEvent(site=site, action=rule.kind))
        if rule.kind == "raise":
            raise FaultInjected(f"injected fault at {site}")
        if rule.kind == "exhaust":
            raise BudgetExceededError(f"injected budget exhaustion at {site}")
        if rule.kind == "crash":
            os._exit(13)  # simulated hard crash: no unwind, no cleanup
        time.sleep(rule.seconds)  # kind == "hang"


#: The installed plan; ``None`` keeps every site a no-op. Production
#: code guards each site with ``if faults.ACTIVE is not None``.
ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install a plan (None clears); returns the plan."""
    global ACTIVE
    ACTIVE = plan
    return plan


def install_from_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse and install a plan from its spec string."""
    return install(FaultPlan.from_spec(spec, seed=seed))


def clear() -> None:
    """Remove the installed plan (every site becomes a no-op again)."""
    install(None)


def _install_from_environment() -> None:
    """Arm faults from ``REPRO_FAULTS`` (worker processes inherit it)."""
    spec = os.environ.get("REPRO_FAULTS")
    if spec:
        seed = int(os.environ.get("REPRO_FAULTS_SEED", "0"))
        install_from_spec(spec, seed=seed)


_install_from_environment()
