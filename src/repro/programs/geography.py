"""A Warren-style geography database (paper §I-E).

The paper's account of Warren's system [25]: English questions about
geography were translated to conjunctive Prolog queries whose goal
order followed the word order of the question; "a goal country(C),
with C uninstantiated, multiplies the number of possibilities by the
number of countries in the database — about 150"; "if borders/2 ...
has 900 tuples, and each argument has a domain size of 150, the
function gives 900 for an uninstantiated call, 6 for a partly-
instantiated call, and 0.04 for an instantiated call"; "reordering to
minimize this yielded speedups up to several hundred times."

This module builds a synthetic world at exactly that scale — 150
countries, 900 directed border tuples (6 neighbours each), regions,
populations, capitals — plus a set of "translated English questions"
whose goal order follows the question's word order, ready for the
reordering experiments (``examples/geography_queries.py``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..prolog.database import Database

__all__ = [
    "COUNTRY_COUNT",
    "COUNTRIES",
    "REGIONS",
    "BORDER_PAIRS",
    "QUESTIONS",
    "facts_source",
    "DECLARATIONS_SOURCE",
    "QUERY_RULES_SOURCE",
    "source",
    "database",
]

COUNTRY_COUNT = 150
REGIONS = ["europa", "asiana", "afria", "northia", "southia", "oceania"]

_PREFIXES = [
    "al", "bar", "cor", "dan", "el", "fre", "gor", "han", "is", "jor",
    "kar", "lu", "mon", "nor", "or", "pol", "qua", "rov", "sal", "tur",
    "uz", "vel", "wes", "xan", "yar",
]
_SUFFIXES = ["land", "via", "stan", "mark", "nia", "dor"]

#: 150 distinct synthetic country names (25 prefixes x 6 suffixes).
COUNTRIES: List[str] = [
    f"{prefix}{suffix}" for suffix in _SUFFIXES for prefix in _PREFIXES
]
assert len(COUNTRIES) == COUNTRY_COUNT
assert len(set(COUNTRIES)) == COUNTRY_COUNT


def _build_borders() -> List[Tuple[str, str]]:
    """Exactly 900 directed border tuples: 6 neighbours per country.

    Neighbourhood structure: each country borders the 3 countries
    before/after it in its 25-country region ring (wrapping), giving a
    connected, realistic-feeling adjacency that is symmetric (if A
    borders B then B borders A), 6 per country, 900 in total.
    """
    pairs: List[Tuple[str, str]] = []
    region_size = COUNTRY_COUNT // len(REGIONS)
    for region_index in range(len(REGIONS)):
        base = region_index * region_size
        members = COUNTRIES[base : base + region_size]
        for position, country in enumerate(members):
            for offset in (1, 2, 3):
                neighbour = members[(position + offset) % region_size]
                pairs.append((country, neighbour))
                pairs.append((neighbour, country))
    assert len(pairs) == 900, len(pairs)
    return pairs


BORDER_PAIRS = _build_borders()


def facts_source() -> str:
    """The generated fact tables as Prolog text."""
    lines: List[str] = []
    region_size = COUNTRY_COUNT // len(REGIONS)
    for index, country in enumerate(COUNTRIES):
        lines.append(f"country({country}).")
    for index, country in enumerate(COUNTRIES):
        region = REGIONS[index // region_size]
        lines.append(f"region({country}, {region}).")
    for index, country in enumerate(COUNTRIES):
        population = 1 + (index * 37) % 140  # millions, 1..140
        lines.append(f"population({country}, {population}).")
    for index, country in enumerate(COUNTRIES):
        lines.append(f"capital({country}, city_{country}).")
    for a, b in BORDER_PAIRS:
        lines.append(f"borders({a}, {b}).")
    return "\n".join(lines) + "\n"


DECLARATIONS_SOURCE = """
:- domain_size(borders/2, 1, 150).
:- domain_size(borders/2, 2, 150).
:- domain_size(region/2, 1, 150).
:- domain_size(population/2, 1, 150).
:- domain_size(capital/2, 1, 150).
:- entry(q1/1).
:- entry(q2/2).
:- entry(q3/1).
:- entry(q4/2).
"""

#: The "translated English questions": goal order follows the word
#: order of the question, exactly Warren's problem setting.
QUERY_RULES_SOURCE = """
% "Which COUNTRY BORDERS a country in ASIANA whose POPULATION exceeds 120?"
q1(C) :-
    country(C),
    borders(C, N),
    region(N, asiana),
    population(N, P),
    P > 120.

% "Which COUNTRY and its CAPITAL lie in EUROPA with POPULATION below 5?"
q2(C, Cap) :-
    country(C),
    capital(C, Cap),
    region(C, europa),
    population(C, P),
    P < 5.

% "Which COUNTRY BORDERS two different countries of POPULATION above 130?"
q3(C) :-
    country(C),
    borders(C, N1),
    borders(C, N2),
    population(N1, P1),
    population(N2, P2),
    P1 > 130,
    P2 > 130,
    N1 \\== N2.

% "Which pair of BORDERING countries lie in OCEANIA and NORTHIA?"
q4(A, B) :-
    country(A),
    country(B),
    borders(A, B),
    region(A, oceania),
    region(B, northia).
"""

#: (label, query) pairs for the harness/example.
QUESTIONS = [
    ("q1: borders high-population asiana", "q1(C)"),
    ("q2: small europa country+capital", "q2(C, Cap)"),
    ("q3: borders two 130M+ countries", "q3(C)"),
    ("q4: oceania-northia border pair", "q4(A, B)"),
]


def source(with_declarations: bool = True) -> str:
    """The complete program text."""
    parts = []
    if with_declarations:
        parts.append(DECLARATIONS_SOURCE)
    parts.append(facts_source())
    parts.append(QUERY_RULES_SOURCE)
    return "\n".join(parts)


def database(with_declarations: bool = True, indexing: bool = True) -> Database:
    """A fresh database holding the program."""
    return Database.from_source(source(with_declarations), indexing=indexing)
