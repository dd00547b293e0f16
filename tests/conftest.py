"""Shared fixtures: one lazily-built Case per bundled reference id, and faults in the brackets.

Building a case enumerates its fixed locus (the rank-4 case takes on the
order of a minute), and integrating monomials fills per-case caches, so all
test modules share a single session-wide cache keyed by case id.
"""

from __future__ import annotations

import pytest

from toric_virasoro import descendents, golden
from toric_virasoro.descendents import DescPoly
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


def _r_minus_one_keeps_degree_zero(monkeypatch):
    rule = descendents._r_coeff
    monkeypatch.setattr(
        descendents,
        "_r_coeff",
        lambda k, sdeg, plus: 1 if (k == -1 and sdeg == 0) else rule(k, sdeg, plus),
    )


def _tplus_2_perturbed(monkeypatch):
    element = descendents.Tplus_element

    def perturbed(k, surface):
        T = element(k, surface)
        return T + DescPoly.monomial(min(T.terms)) if k == 2 else T

    monkeypatch.setattr(descendents, "Tplus_element", perturbed)


def _tplus_minus_one_nonzero(monkeypatch):
    element = descendents.Tplus_element
    p0_squared = DescPoly.monomial(((0, "p"), (0, "p")))
    monkeypatch.setattr(
        descendents,
        "Tplus_element",
        lambda k, surface: p0_squared if k == -1 else element(k, surface),
    )


def _r_1_off_by_one(monkeypatch):
    rule = descendents._r_coeff
    monkeypatch.setattr(
        descendents, "_r_coeff", lambda k, sdeg, plus: rule(k, sdeg, plus) + (k == 1)
    )


# fault id -> (patch, the message bracket_suite gives on every surface)
BRACKET_FAULTS = {
    "r_minus_one_keeps_degree_zero": (
        _r_minus_one_keeps_degree_zero,
        "[L+_k, L+_m]: R+_-1 h_0(1) = 0 fails",
    ),
    "tplus_2_perturbed": (
        _tplus_2_perturbed,
        "[L+_-1, L+_2]: R+_-1 T+_2 - R+_2 T+_-1 = 3 T+_1 fails",
    ),
    "tplus_minus_one_nonzero": (_tplus_minus_one_nonzero, "[L+_-1, S+_j]: T+_-1 = 0 fails"),
    "r_1_off_by_one": (_r_1_off_by_one, "[L+_k, L+_m]: R+_1 h_0(1) = 0 fails"),
}


@pytest.fixture(params=sorted(BRACKET_FAULTS))
def bracket_fault(request, monkeypatch):
    """One fault patched into the bracket operators; the value is the message it should raise."""
    patch, message = BRACKET_FAULTS[request.param]
    patch(monkeypatch)
    return message
