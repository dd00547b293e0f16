"""Symbolic descendent algebra and the operators acting on it."""

from fractions import Fraction
from math import factorial

import pytest

from toric_virasoro.descendents import (
    DescPoly,
    T_element,
    Tplus_element,
    apply_L,
    apply_Lplus,
    apply_R,
    apply_Rplus,
    apply_S,
    apply_Splus,
    apply_scriptLplus,
    bracket_suite,
    h_poly,
    monomial_basis,
    monomial_degree,
    parse_monomial,
    render_monomial,
    render_poly,
)
from toric_virasoro.surfaces import surface_by_name

P2 = surface_by_name("p2")
F0 = surface_by_name("f0")


def poly_degree(poly: DescPoly, surface) -> int:
    """The common degree of a homogeneous polynomial (0 for the zero one)."""
    degs = {monomial_degree(m, surface) for m in poly.terms}
    if not degs:
        return 0
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
    return degs.pop()


class TestR:
    def test_values_on_symbols(self):
        assert apply_R(2, DescPoly.symbol(2, "Z"), F0) == DescPoly.symbol(4, "Z", 6)
        assert apply_R(1, DescPoly.symbol(2, "p"), F0) == DescPoly.symbol(3, "p", 6)
        assert apply_R(-1, DescPoly.symbol(2, "Z"), F0) == DescPoly.symbol(1, "Z")
        assert apply_R(-1, DescPoly.symbol(0, "Z"), F0) == DescPoly.zero()

    def test_r0_scales_by_degree(self):
        for i, name in [(3, "Z"), (4, "1"), (3, "p"), (2, "F")]:
            D = DescPoly.symbol(i, name)
            assert apply_R(0, D, F0) == D * Fraction(poly_degree(D, F0))
        mono = DescPoly.symbol(3, "1") * DescPoly.symbol(2, "Z")
        assert apply_R(0, mono, F0) == mono * Fraction(poly_degree(mono, F0))

    @pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
    def test_derivation_property(self, k):
        A = DescPoly.symbol(3, "1") + DescPoly.symbol(2, "F", Fraction(1, 2))
        B = DescPoly.symbol(2, "Z") * DescPoly.symbol(2, "p")
        lhs = apply_R(k, A * B, F0)
        rhs = apply_R(k, A, F0) * B + A * apply_R(k, B, F0)
        assert lhs == rhs


class TestT:
    def test_t_minus_one_vanishes(self):
        assert T_element(-1, P2) == DescPoly.zero()
        assert T_element(-1, F0) == DescPoly.zero()

    def test_t_zero_on_f0(self):
        expected = (
            DescPoly.symbol(0, "p") * DescPoly.symbol(0, "p")
            + DescPoly.symbol(2, "1") * DescPoly.symbol(0, "p") * Fraction(2)
            - DescPoly.symbol(1, "F") * DescPoly.symbol(1, "Z") * Fraction(2)
        )
        assert T_element(0, F0) == expected

    @pytest.mark.parametrize("surface", [P2, F0])
    @pytest.mark.parametrize("k", range(0, 7))
    def test_t_agrees_with_plus_variant(self, surface, k):
        assert T_element(k, surface) == Tplus_element(k, surface)


class TestS:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("i,name", [(2, "Z"), (3, "1")])
    def test_defining_identity(self, k, i, name):
        # S_k D = (k+1)!/r * R_{-1}(ch_{k+1}(p) * D)
        D = DescPoly.symbol(i, name)
        for r in (2, 3):
            lhs = apply_S(k, D, F0, r)
            rhs = apply_Rplus(-1, DescPoly.symbol(k + 1, "p") * D, F0) * Fraction(
                factorial(k + 1), r
            )
            assert lhs == rhs
            assert lhs == apply_Splus(k, D, F0, r)

    def test_s_zero_value(self):
        lhs = apply_S(0, DescPoly.symbol(2, "Z"), F0, 2)
        expected = (
            DescPoly.symbol(2, "Z") * DescPoly.symbol(0, "p") * Fraction(1, 2)
            + DescPoly.symbol(1, "Z") * DescPoly.symbol(1, "p") * Fraction(1, 2)
        )
        assert lhs == expected


class TestAssembled:
    def test_l_sums_parts(self):
        D = DescPoly.symbol(2, "Z") * DescPoly.symbol(3, "1")
        for k in (-1, 0, 1, 2):
            full = apply_scriptLplus(k, D, F0, 2)
            assert full == apply_Lplus(k, D, F0) + apply_S(k, D, F0, 2)
            assert apply_L(k, D, F0, 2) == full

    def test_bracket_suite_smoke(self):
        assert bracket_suite(P2, max_k=2, max_degree=3) > 0


class TestHBasis:
    def test_values(self):
        assert h_poly(3, "Z", F0) == DescPoly.symbol(4, "Z", 6)
        assert h_poly(2, "p", F0) == DescPoly.symbol(2, "p", 2)
        assert h_poly(4, "1", F0) == DescPoly.symbol(6, "1", 24)

    def test_degree_is_the_index(self):
        for j, name in [(1, "Z"), (3, "F"), (2, "p"), (4, "1")]:
            assert poly_degree(h_poly(j, name, F0), F0) == j


class TestBasisAndParsing:
    def test_p2_basis_counts(self):
        assert monomial_basis(P2, 0) == [()]
        deg1 = monomial_basis(P2, 1)
        assert {render_monomial(m) for m in deg1} == {"ch_3(1)", "ch_2(H)"}
        assert len(monomial_basis(P2, 2)) == 6

    def test_no_index_one_symbols(self):
        for degree in range(0, 5):
            for mono in monomial_basis(F0, degree):
                assert all(i != 1 for i, _name in mono)
                assert monomial_degree(mono, F0) == degree

    def test_parse_render_roundtrip(self):
        for text in ["ch_3(1)^2ch_2(H)", "ch_2(p)", "1", "ch_4(1)ch_2(H)^3"]:
            mono = parse_monomial(text)
            assert parse_monomial(render_monomial(mono)) == mono

    def test_parse_tex_flavour(self):
        assert parse_monomial(r"\ch_3(\mathbf{p})") == parse_monomial("ch_3(p)")

    def test_render_poly(self):
        D = DescPoly.symbol(3, "1", Fraction(-1, 2)) + DescPoly.one()
        text = render_poly(D)
        assert "ch_3(1)" in text and "1/2" in text
