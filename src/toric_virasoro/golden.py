"""Recorded regression fixtures and the comparison logic that checks them.

Each JSON file under ``data/golden`` records one moduli case: the surface,
the Chern data, a polarization inside a known chamber, the expected
torus-fixed locus (as one restriction row per fixed sheaf, one character
per fixed point, written as text such as ``s^2*t^-1 - 3`` and loaded as an
integer character ``{(a, b): c}``), and a table of operator integrals
``(int R_k D, int T_k D, int S_k D)`` for selected descendent monomials.

Fixed-locus rows are compared as multisets after a twist normalization:
an equivariant sheaf is recorded only up to tensoring by a character, so
every chart of a row is scaled by the same monomial before hashing.  A few
recorded rows carry known defects and are flagged in the data:

* ``sign_corrupt`` rows have one coefficient with the wrong sign; they are
  matched by absolute coefficient values instead of exactly.
* cases with ``k_rows_reliable: false`` keep their rows for the record but
  exclude them from comparison (the rows do not belong to the stated
  invariants); the integral table is still checked.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .descendents import Monomial, monomial_degree, parse_monomial
from .exactalg import Character, parse_character
from .localization import Case, _Memo

__all__ = [
    "GoldenCase",
    "GoldenKRow",
    "GoldenIntegralRow",
    "CaseReport",
    "list_cases",
    "load_case",
    "canonical_row_key",
    "compare_fixed_locus",
    "compare_integrals",
    "verify_case",
]


@dataclass(frozen=True)
class GoldenKRow:
    """One recorded fixed sheaf: its restriction character at every point."""

    charts: tuple[Character, ...]
    sign_corrupt: bool = False


@dataclass(frozen=True)
class GoldenIntegralRow:
    """One recorded integral row: D and the exact values of the three parts."""

    label: str
    monomial: Monomial
    r_value: Fraction
    t_value: Fraction
    s_value: Fraction
    typo_suspected: bool = False
    printed: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class GoldenCase:
    id: str
    surface: str
    rank: int
    delta: tuple[int, ...]
    c2: int
    H: tuple[int, ...]
    dim: int
    k_rows: tuple[GoldenKRow, ...]
    k_rows_reliable: bool
    integrals: tuple[GoldenIntegralRow, ...]
    notes: tuple[str, ...] = ()


def _data_dir():
    return resources.files(__package__).joinpath("data", "golden")


def list_cases() -> list[str]:
    """Sorted ids of all recorded cases."""
    return sorted(
        entry.name[: -len(".json")]
        for entry in _data_dir().iterdir()
        if entry.name.endswith(".json")
    )


def _character(case_id: str, text: str) -> Character:
    """A recorded chart as an integer character; a chart it cannot read raises ``ValueError``.

    That is a fractional coefficient or a malformed term (:func:`parse_character`);
    the message names the case.
    """
    try:
        return parse_character(text)
    except ValueError as err:
        raise ValueError(f"case {case_id!r}: {err}") from None


def load_case(case_id: str) -> GoldenCase:
    """The recorded case named ``case_id``; ``KeyError`` unless it is one of :func:`list_cases`."""
    if case_id not in list_cases():
        raise KeyError(f"no recorded case named {case_id!r}")
    raw = json.loads(_data_dir().joinpath(case_id + ".json").read_text())
    k_rows = tuple(
        GoldenKRow(
            charts=tuple(_character(case_id, chart) for chart in row["charts"]),
            sign_corrupt=bool(row.get("sign_corrupt", False)),
        )
        for row in raw["k_rows"]
    )
    integrals = []
    for row in raw["integrals"]:
        printed = tuple(
            sorted((part, row[part + "_printed"]) for part in ("R", "T", "S") if part + "_printed" in row)
        )
        integrals.append(
            GoldenIntegralRow(
                label=row["D"],
                monomial=parse_monomial(row["D"]),
                r_value=Fraction(row["R"]),
                t_value=Fraction(row["T"]),
                s_value=Fraction(row["S"]),
                typo_suspected=bool(row.get("typo_suspected", False)),
                printed=printed,
            )
        )
    return GoldenCase(
        id=raw["id"],
        surface=raw["surface"],
        rank=raw["rank"],
        delta=tuple(raw["delta"]),
        c2=raw["c2"],
        H=tuple(raw["H"]),
        dim=raw["dim"],
        k_rows=k_rows,
        k_rows_reliable=bool(raw.get("k_rows_reliable", True)),
        integrals=tuple(integrals),
        notes=tuple(raw.get("notes", ())),
    )


# ---------------------------------------------------------------------------
# fixed-locus comparison


# one Fraction object per coefficient value seen in a row key, by (numerator, denominator)
_COEFFICIENTS = _Memo(lambda ratio: Fraction(*ratio))


def canonical_row_key(charts) -> tuple:
    """Hashable key of a restriction row, stable under a global twist.

    The charts are mappings ``{(a, b): c}`` with ``int`` or ``Fraction``
    coefficients.  Every chart is divided by the lexicographically smallest
    exponent monomial of the first chart, then each chart is flattened to a
    sorted coefficient tuple.  The coefficients are interned: equal values
    are one ``Fraction`` object, so comparing and sorting keys finds equal
    entries by identity, not through ``Fraction.__eq__``.  The key's
    ``repr`` is that of plain ``Fraction`` values.
    """
    first = charts[0]
    if not first:
        raise ValueError("empty chart in restriction row")
    a0, b0 = min(first)
    intern = _COEFFICIENTS
    return tuple(
        tuple(
            sorted(
                (a - a0, b - b0, intern[coeff.as_integer_ratio()])
                for (a, b), coeff in chart.items()
            )
        )
        for chart in charts
    )


def _abs_key(key: tuple) -> tuple:
    return tuple(
        tuple(sorted((a, b, abs(coeff)) for a, b, coeff in chart)) for chart in key
    )


@dataclass
class CaseReport:
    """Outcome of checking one recorded case against the engine."""

    case_id: str
    dim_ok: bool = True
    k_status: str = "skipped"
    k_messages: tuple[str, ...] = ()
    integral_count: int = 0
    integral_failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.dim_ok and self.k_status != "mismatch" and not self.integral_failures


def compare_fixed_locus(golden: GoldenCase, computed_rows) -> tuple[str, tuple[str, ...]]:
    """Match recorded rows against computed restriction rows as multisets.

    Returns ``(status, messages)`` where status is one of ``match``,
    ``match-with-recorded-sign-slips``, ``skipped`` or ``mismatch``.
    """
    if not golden.k_rows_reliable:
        return "skipped", ("recorded rows are marked unreliable for these invariants",)
    if len(golden.k_rows) != len(computed_rows):
        return "mismatch", (
            f"recorded {len(golden.k_rows)} fixed sheaves, computed {len(computed_rows)}",
        )
    exact = Counter(
        canonical_row_key(row.charts) for row in golden.k_rows if not row.sign_corrupt
    )
    corrupt = Counter(
        _abs_key(canonical_row_key(row.charts))
        for row in golden.k_rows
        if row.sign_corrupt
    )
    unmatched = []
    for charts in computed_rows:
        key = canonical_row_key(charts)
        if exact[key] > 0:
            exact[key] -= 1
        else:
            unmatched.append(key)
    exact += Counter()  # drop zero entries
    if exact:
        return "mismatch", (
            f"{sum(exact.values())} recorded rows have no computed counterpart",
        )
    messages = []
    for key in unmatched:
        akey = _abs_key(key)
        if corrupt[akey] > 0:
            corrupt[akey] -= 1
            messages.append("matched one flagged row by absolute coefficients")
        else:
            return "mismatch", ("a computed row matches no recorded row",)
    corrupt += Counter()
    if corrupt:
        return "mismatch", (
            f"{sum(corrupt.values())} flagged rows have no computed counterpart",
        )
    status = "match-with-recorded-sign-slips" if messages else "match"
    return status, tuple(messages)


def compare_integrals(golden: GoldenCase, case: Case) -> tuple[int, tuple[str, ...]]:
    """Recompute every recorded integral row; return (count, failure messages)."""
    surface = case.surface
    failures = []
    for row in golden.integrals:
        k = golden.dim - monomial_degree(row.monomial, surface)
        r_val, t_val, s_val = case.operator_parts(k, row.monomial)
        expected = (row.r_value, row.t_value, row.s_value)
        if (r_val, t_val, s_val) != expected:
            failures.append(
                f"D = {row.label}, k = {k}: computed "
                f"({r_val}, {t_val}, {s_val}), recorded "
                f"({row.r_value}, {row.t_value}, {row.s_value})"
            )
    return len(golden.integrals), tuple(failures)


def verify_case(golden: GoldenCase, case: Case) -> CaseReport:
    """Check one recorded case end to end against the case built for it."""
    report = CaseReport(case_id=golden.id)
    report.dim_ok = case.vdim == golden.dim
    report.k_status, report.k_messages = compare_fixed_locus(golden, case.restrictions)
    report.integral_count, report.integral_failures = compare_integrals(golden, case)
    return report
