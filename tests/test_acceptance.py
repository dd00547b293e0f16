"""End-to-end acceptance sweep.

One test per shipped guarantee, in dependency order; each prints a single
``criterion N ... PASS`` line on success (visible with ``-s`` or ``-rA``).
The heavy per-case state is shared through the session cache in conftest.
"""

from fractions import Fraction

import pytest

from toric_virasoro import golden
from toric_virasoro.descendents import (
    T_element,
    Tplus_element,
    bracket_suite,
    monomial_basis,
    parse_monomial,
)
from toric_virasoro.enumeration import (
    enumerate_bundles,
    fixed_locus_cached,
    hirzebruch_ch2_check,
)
from toric_virasoro.exactalg import LaurentPoly, NotDivisible, parse_laurent
from toric_virasoro.golden import canonical_row_key
from toric_virasoro.localization import verify_conjecture
from toric_virasoro.surfaces import surface_by_name

ALL_IDS = golden.list_cases()
ZERO = Fraction(0)

_sweeps: dict[str, list] = {}


def _passed(text: str) -> None:
    print(f"\n{text}: PASS")


def test_criterion_1_reference_tables_reproduced(case_of):
    failures = []
    for case_id in ALL_IDS:
        gold, case, _ = case_of(case_id)
        report = golden.verify_case(gold, case=case)
        if not report.ok:
            failures.append((case_id, report.lines()))
    assert not failures, failures
    _passed(f"criterion 1: all {len(ALL_IDS)} bundled reference tables reproduced")


def test_criterion_2_zero_sum_sweeps(case_of):
    total = 0
    nonzero = []
    for case_id in ALL_IDS:
        _, case, _ = case_of(case_id)
        rows = verify_conjecture(case)
        _sweeps[case_id] = rows
        total += len(rows)
        nonzero.extend((case_id, row.label) for row in rows if row.total != ZERO)
    assert not nonzero, nonzero[:10]
    biggest = len(_sweeps["p2-r2-c2-3"])
    # the benchmark case's work counts: distinct integrals and certificates
    _, case, _ = case_of("p2-r2-c2-3")
    assert (len(case._integrals), case.certified_clearings) == (3993, 1610)
    _passed(
        "criterion 2: every operator row sums to zero "
        f"({total} rows across {len(ALL_IDS)} cases; {biggest} in p2-r2-c2-3)"
    )


@pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
def test_criterion_3_analytic_identities(case_of, case_id):
    _, case, _ = case_of(case_id)
    n, dim, srf = case.n_points, case.vdim, case.surface

    zeros = (LaurentPoly.zero(),) * n
    assert case.realize_symbol(0, "p") == (LaurentPoly.const(-case.rank),) * n
    assert case.realize_symbol(0, "1") == zeros
    for name in srf.divisor_names:
        assert case.realize_symbol(0, name) == zeros
    for name in ("1", "p", *srf.divisor_names):
        assert case.realize_symbol(1, name) == zeros

    from toric_virasoro.descendents import DescPoly

    assert T_element(-1, srf) == DescPoly.zero()

    for mono in monomial_basis(srf, dim):
        I = case.integrate_monomial(mono)
        r, t, s = case.operator_parts(0, mono)
        assert (r, t, s) == (dim * I, (1 - dim) * I, -I)
    for mono in monomial_basis(srf, dim + 1):
        r, t, s = case.operator_parts(-1, mono)
        assert t == ZERO and s == -r
    _passed(f"criterion 3: analytic operator identities hold on {case_id}")


def test_criterion_4_commutator_suite():
    counts = [bracket_suite(surface_by_name(name), max_k=4, max_degree=6) for name in ("p2", "f0")]
    assert all(c > 0 for c in counts)
    _passed(f"criterion 4: commutator suite passes ({sum(counts)} identities on p2+f0)")


def test_criterion_5_enumeration_counts():
    p2 = surface_by_name("p2")
    assert [len(enumerate_bundles(p2, 2, (1,), c2, (1,))) for c2 in (1, 2, 3)] == [1, 3, 3]
    assert len(fixed_locus_cached("p2", 2, (1,), 3, (1,))) == 48
    r4 = fixed_locus_cached("p2", 4, (-1,), 3, (1,))
    assert len(r4) == 13 and all(s.is_locally_free for s in r4)

    low = fixed_locus_cached("f0", 2, (1, 0), 2, (2, 7))
    high = fixed_locus_cached("f0", 2, (1, 0), 2, (3, 5))
    assert len(low) == 6 and all(s.is_locally_free for s in low)
    assert len(high) == 22
    high_lf = [s for s in high if s.is_locally_free]
    assert len(high_lf) == 6
    low_keys = {canonical_row_key(s.restrictions()) for s in low}
    new_keys = {
        canonical_row_key(s.restrictions()) for s in high_lf
    } - low_keys
    assert len(new_keys) == 4  # 2 of the 6 persist across the wall, 4 are new

    from toric_virasoro.localization import make_case

    fz = make_case("f0", 2, (1, 1), 2, (2, 5), sheaves=fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5)))
    expected = [
        ("st + s + t", "s^2t + st^2"),
        ("t + s^-1t + s^-1", "s^2t - st^2"),
        ("s + st^-1 + t^-1", "-s^2t + st^2"),
        ("t^-1 + s^-1 + s^-1t^-1", "-s^2t - st^2"),
    ]
    assert fz.tangents() == [parse_laurent(t) for t, _ in expected]
    assert fz.euler_classes() == [parse_laurent(e) for _, e in expected]
    _passed("criterion 5: enumeration counts and tangent data match the records")


def test_criterion_6_surface_consistency(case_of):
    checked = 0
    for case_id in ALL_IDS:
        gold, _, sheaves = case_of(case_id)
        if gold.surface == "p2" or gold.rank != 2:
            continue
        for sheaf in sheaves:
            if sheaf.is_locally_free:
                assert hirzebruch_ch2_check(sheaf)
                checked += 1
    assert checked > 0

    from oracles import integer_surface_integral

    for name in ("p2", "f0", "f1", "f2"):
        srf = surface_by_name(name)

        def class_integral(x, y):
            return integer_surface_integral(srf, x, y)

        names = ("1", *srf.divisor_names, "p")
        for x in names:
            for y in names:
                direct = class_integral(x, y)
                via_diagonal = sum(
                    c * class_integral(x, left) * class_integral(y, right)
                    for left, right, c in srf.kunneth
                )
                assert direct == via_diagonal, (name, x, y)

        for k in range(0, 7):
            assert T_element(k, srf) == Tplus_element(k, srf)
    _passed(
        "criterion 6: ch_2 consistency on every bundle "
        f"({checked} checked), diagonal pairing and T-elements agree"
    )


def test_criterion_7_certified_clearings(case_of):
    for case_id in ALL_IDS:
        _, case, _ = case_of(case_id)
        if case.certified_clearings == 0:
            case.integrate_monomial(())
        assert case.certified_clearings > 0, case_id

    _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
    with pytest.raises(NotDivisible):
        case.drop_point(0).integrate_monomial(parse_monomial("ch_2(F)^2"))
    _passed("criterion 7: every case integration is certificate-backed")
