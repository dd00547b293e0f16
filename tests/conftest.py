"""Shared fixtures: one lazily-built Case per bundled reference id.

Building a case enumerates its fixed locus (the rank-4 case takes on the
order of a minute), and integrating monomials fills per-case caches, so all
test modules share a single session-wide cache keyed by case id.
"""

from __future__ import annotations

import pytest

from toric_virasoro import golden
from toric_virasoro.enumeration import fixed_locus_cached
from toric_virasoro.localization import make_case

_CACHE: dict[str, tuple] = {}


def _build(case_id: str):
    if case_id not in _CACHE:
        gold = golden.load_case(case_id)
        sheaves = fixed_locus_cached(gold.surface, gold.rank, gold.delta, gold.c2, gold.H)
        case = make_case(gold.surface, gold.rank, gold.delta, gold.c2, gold.H, sheaves=sheaves)
        _CACHE[case_id] = (gold, case, sheaves)
    return _CACHE[case_id]


@pytest.fixture(scope="session")
def case_of():
    """Factory fixture: ``case_of(case_id) -> (golden_case, case, sheaves)``."""
    return _build


@pytest.fixture(scope="session")
def is_built():
    """``is_built(case_id)``: whether the session cache already holds the case."""
    return _CACHE.__contains__


@pytest.fixture(scope="session")
def all_case_ids():
    return golden.list_cases()
