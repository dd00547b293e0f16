"""Fixed-point integration: tangent weights, certificates, operator rows."""

from fractions import Fraction

import pytest

from toric_virasoro.descendents import monomial_basis, parse_monomial
from toric_virasoro.exactalg import LaurentPoly, NotDivisible, parse_laurent
from toric_virasoro.localization import Case, TrivialWeight, verify_conjecture
from toric_virasoro.surfaces import surface_by_name

ZERO = Fraction(0)


class TestTangentsAndEuler:
    def test_f0_rank_two_tangent_data(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        expected = [
            ("st + s + t", "s^2t + st^2"),
            ("t + s^-1t + s^-1", "s^2t - st^2"),
            ("s + st^-1 + t^-1", "-s^2t + st^2"),
            ("t^-1 + s^-1 + s^-1t^-1", "-s^2t - st^2"),
        ]
        assert case.vdim == 3
        assert case.tangents() == [parse_laurent(t) for t, _ in expected]
        assert case.euler_classes() == [parse_laurent(e) for _, e in expected]

    def test_trivial_weight_is_rejected(self):
        p2 = surface_by_name("p2")
        # O + O is strictly semistable and has a torus-fixed automorphism
        # weight of zero, so its "tangent space" is not a genuine
        # representation: multiplicity 1 - chi(E, E) = -3 at weight (0, 0).
        rows = ((LaurentPoly.const(2),) * 3,)
        broken = Case(p2, 2, (0,), 0, (1,), rows)
        with pytest.raises(TrivialWeight):
            broken.euler_classes()


    def test_tangent_denominator_merges_associate_weights(self, case_of):
        # t and 2*t (or s - t and t - s) are one LCM factor: 21 factors, not
        # the 27 that scalar multiples kept apart would give
        _, case, _ = case_of("p2-r2-c2-3")
        den = case.tangent_denominator
        assert len(den.factors) == 21
        assert sum(len(co) for co in den.cofactors) == 504


class TestRealizedSymbols:
    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_index_zero_realizes_minus_rank_times_point_count(self, case_of, case_id):
        _, case, _ = case_of(case_id)
        minus_r = LaurentPoly.const(-case.rank)
        assert case.realize_symbol(0, "p") == (minus_r,) * case.n_points
        assert case.realize_symbol(0, "1") == (LaurentPoly.zero(),) * case.n_points
        for name in case.surface.divisor_names:
            assert case.realize_symbol(0, name) == (LaurentPoly.zero(),) * case.n_points

    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_index_one_realizes_to_zero(self, case_of, case_id):
        _, case, _ = case_of(case_id)
        for name in ("1", "p", *case.surface.divisor_names):
            assert case.realize_symbol(1, name) == (LaurentPoly.zero(),) * case.n_points


class TestOperatorRows:
    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_k_zero_parts(self, case_of, case_id):
        # At k = 0 the three parts act on a top-degree monomial D as
        # deg(D) * I, (1 - dim) * I and -I, where I is the integral of D.
        _, case, _ = case_of(case_id)
        dim = case.vdim
        for mono in monomial_basis(case.surface, dim):
            I = case.integrate_monomial(mono)
            r, t, s = case.operator_parts(0, mono)
            assert r == dim * I
            assert t == (1 - dim) * I
            assert s == -I
            assert r + t + s == ZERO

    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_k_minus_one_parts(self, case_of, case_id):
        _, case, _ = case_of(case_id)
        for mono in monomial_basis(case.surface, case.vdim + 1):
            r, t, s = case.operator_parts(-1, mono)
            assert t == ZERO
            assert s == -r

    def test_rows_sum_to_zero(self, case_of):
        _, case, _ = case_of("p2-r3-c2-2")
        rows = verify_conjecture(case, ks=[-1, 0, 1])
        assert rows
        for row in rows:
            assert row.total == ZERO
            assert row.label

    def test_twist_invariance(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        twisted = case.twisted((1, -2))
        for k, text in [(0, "ch_3(p)"), (1, "ch_2(Z)"), (2, "ch_3(1)")]:
            mono = parse_monomial(text)
            assert twisted.operator_parts(k, mono) == case.operator_parts(k, mono)

    def test_readme_example_values(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        parts = case.operator_parts(2, parse_monomial("ch_2(Z)"))
        assert parts == (Fraction(-1, 8), Fraction(-1, 4), Fraction(3, 8))


class TestCertificates:
    def test_clearings_are_counted(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        before = case.certified_clearings
        case.integrate_monomial(parse_monomial("ch_2(F)ch_2(Z)ch_3(1)"))
        assert case.certified_clearings >= before
        assert case.certified_clearings > 0

    def test_dropping_a_fixed_point_breaks_the_certificate(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        dropped = case.drop_point(0)
        assert dropped.n_points == case.n_points - 1
        with pytest.raises(NotDivisible):
            dropped.integrate_monomial(parse_monomial("ch_2(F)^2"))
