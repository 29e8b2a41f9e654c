"""The VM without scan plans: the reference a scan plan must match.

On an unindexed scan with a bound first argument, ``Database.select``
hands the VM a scan plan, which bulk-skips the clauses whose
first-argument fingerprint cannot match and charges their counters in
one update. With the plan withheld the VM tries those clauses one at a
time in its per-clause loop. Answers and every counter must be the
same either way.
"""

__all__ = ["without_scan_plans"]


def without_scan_plans(database):
    """Patch ``database.select`` to return ``plan=None``; returns the
    database."""
    select = database.select
    database.select = lambda indicator, args: select(indicator, args)[:4] + (None,)
    return database
