"""Seeded input generators: long-body programs and the serve request mix.

Everything here is a pure function of a ``random.Random``; the program
under test only ever receives the generated text and requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

# -- long-body programs -------------------------------------------------------

#: Constants shared by every fact table, so joins between tables match.
CONSTANTS = [f"c{i}" for i in range(32)]
#: Binary fact tables per generated program.
TABLES = 8


@dataclass
class GeneratedProgram:
    name: str
    source: str
    #: The base fact table touched before the re-reorder step.
    edit_table: Tuple[str, int]
    smoke_queries: List[str] = field(default_factory=list)


def long_body_program(
    rng: random.Random,
    name: str,
    rules: int,
    body_lengths: Sequence[int],
    control_share: float,
    constants: Sequence[str] = CONSTANTS,
) -> GeneratedProgram:
    """A program of ``rules`` rules over ``TABLES`` binary fact tables.

    Each rule body is a conjunction of fact-table goals whose length is
    drawn from ``body_lengths`` (chosen to cross the exhaustive-search
    limit into A*). Domain sizes vary per table, so the cost model sees
    genuinely different selectivities. With probability
    ``control_share`` a rule also gets one Table I control construct —
    a negation or a trailing cut — which splits the body into blocks and
    restricts mobility. (If-then-else is left out: the reorderer moves
    ``( p(V, c) -> true ; V \\== c )`` ahead of the goal binding ``V``,
    which changes the answers, and a workload must not fail.)

    ``constants`` names the 32 constants; passing a permutation renames
    them without changing the program's structure or its costs.
    """
    lines = []
    for k in range(TABLES):
        first = rng.choice((4, 8, 16, 24))
        second = rng.choice((4, 8, 16, 24))
        density = rng.choice((0.1, 0.2, 0.3))
        count = max(first, second, int(first * second * density))
        pairs = set()
        while len(pairs) < count:
            pairs.add((rng.randrange(first), rng.randrange(second)))
        lines.extend(f"t{k}({constants[a]}, {constants[b]})." for a, b in sorted(pairs))
    rule_indicators = []
    usage = [0] * TABLES
    for j in range(rules):
        # Rule 0 always has the longest body and no control construct,
        # so every program has at least one block past the exhaustive
        # limit (the A* path).
        length = max(body_lengths) if j == 0 else rng.choice(list(body_lengths))
        variables = ["X"]
        goals = []
        for index in range(length):
            table = rng.randrange(TABLES)
            usage[table] += 1
            left = rng.choice(variables)
            if index == length - 1 and "Y" not in variables:
                right = "Y"
            elif rng.random() < 0.7 or len(variables) < 2:
                right = f"V{len(variables)}"
            else:
                right = rng.choice(variables)
            if right not in variables:
                variables.append(right)
            goals.append(f"t{table}({left}, {right})")
        if "Y" not in variables:
            goals.append(f"t{rng.randrange(TABLES)}({rng.choice(variables)}, Y)")
        if j > 0 and rng.random() < control_share:
            if rng.random() < 0.5:
                var = rng.choice(variables[1:] or variables)
                goals.append(f"\\+ t{rng.randrange(TABLES)}({var}, {rng.choice(constants[:4])})")
            else:
                goals.append("!")
        head = f"r{j}(X, Y)"
        lines.append(f"{head} :-\n    " + ",\n    ".join(goals) + ".")
        rule_indicators.append((f"r{j}", 2))
    entries = "".join(f":- entry(r{j}/2).\n" for j in range(rules))
    # Edit the least-used table, so the re-reorder rebuilds a strict
    # subset of the rules (the incremental path, not a cold rebuild).
    edit = min(range(TABLES), key=lambda k: (usage[k], k))
    smoke = []
    for rule, _arity in rule_indicators:
        smoke.append(f"{rule}(X, Y)")
        smoke.append(f"{rule}({rng.choice(constants[:8])}, Y)")
    return GeneratedProgram(
        name=name,
        source=entries + "\n".join(lines) + "\n",
        edit_table=(f"t{edit}", 2),
        smoke_queries=smoke,
    )


# -- the serve request mix ------------------------------------------------------


@dataclass
class Request:
    """One scheduled request: send offset (s) and the JSON message."""

    offset: float
    message: dict


#: Temporary employees the updates toggle in and out. A small pool keeps
#: the number of distinct program states (and so the oracle's work)
#: bounded while every update still publishes a new generation.
TEMP_POOL = 4
TEMP_ID_BASE = 1000


def temp_employee_facts(slot: int) -> List[str]:
    """The full record of temporary employee ``slot``, as fact texts."""
    ident = TEMP_ID_BASE + slot
    sex = "f" if slot % 2 == 0 else "m"
    return [
        f"employee({ident}, temp{slot}).",
        f"department({ident}, {('sales', 'research')[slot % 2]}).",
        f"salary({ident}, {24000 + 7000 * slot}).",
        f"service({ident}, {4 + 5 * slot}).",
        f"sex({ident}, {sex}).",
        f"insured({ident}).",
        f"dependents({ident}, {slot % 3}).",
    ]


def _point_query(rng: random.Random, names: Sequence[str], form: int) -> str:
    name = rng.choice(names)
    if form == 0:
        return f"benefits({name}, Benefit)"
    if form == 1:
        return f"pay(Dept, {name}, Amount)"
    if form == 2:
        return f"maternity(Weeks, {name})"
    return f"tax(Class, {name})"


def serve_schedule(
    rng: random.Random,
    rate: float,
    seconds: float,
    names: Sequence[str],
    prefix: str,
    toggles: List[bool],
) -> List[Request]:
    """An open-loop schedule of ``rate * seconds`` requests.

    Arrivals are a Poisson process conditioned on its count (sorted
    uniform offsets). The mix has fixed shares, in seeded order: 60%
    point queries on a random employee (Table III forms), 25% open
    enumerations (``benefits/2``, ``pay/3``), 10% ``average_pay/2``,
    and 5% updates that assert or retract a temporary employee's whole
    record. Fixed shares keep the work per run independent of the seed.
    ``toggles`` carries which pool slots are present, across schedules.
    """
    count = max(1, round(rate * seconds))
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    enumerations = round(count * 0.25)
    averages = round(count * 0.10)
    updates = round(count * 0.05)
    kinds = (["enumeration"] * enumerations + ["average"] * averages
             + ["update"] * updates)
    kinds += ["point"] * (count - len(kinds))
    rng.shuffle(kinds)
    requests = []
    points = 0
    for index, (offset, kind) in enumerate(zip(offsets, kinds)):
        if kind == "point":
            # The four forms take turns, so the mix is fixed per run.
            message = {"op": "query", "query": _point_query(rng, names, points % 4)}
            points += 1
        elif kind == "enumeration":
            message = {"op": "query", "query": ("benefits(Name, Benefit)",
                                                "pay(Dept, Name, Amount)")[index % 2]}
        elif kind == "average":
            message = {"op": "query", "query": "average_pay(Dept, Avg)"}
        else:
            slot = rng.randrange(TEMP_POOL)
            facts = temp_employee_facts(slot)
            if toggles[slot]:
                message = {"op": "update", "retract": facts}
            else:
                message = {"op": "update", "assert": facts}
            toggles[slot] = not toggles[slot]
        message["id"] = f"{prefix}{index}"
        requests.append(Request(offset, message))
    return requests
