"""Symbolic descendent algebra and the operators acting on it."""

from fractions import Fraction
from math import factorial
from unittest import mock

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_virasoro import descendents
from toric_virasoro.descendents import (
    MAX_COPIES,
    BracketMismatch,
    DescPoly,
    Packing,
    T_element,
    T_terms,
    Tplus_element,
    apply_R,
    apply_S,
    apply_T,
    bracket_suite,
    derivation_terms,
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
SURFACES = [surface_by_name(name) for name in ("p2", "f0", "f1", "f2")]


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
            rhs = apply_R(-1, DescPoly.symbol(k + 1, "p") * D, F0, plus=True) * Fraction(
                factorial(k + 1), r
            )
            assert lhs == rhs
            assert lhs == oracles.apply_Splus(k, D, F0, r)

    def test_s_zero_value(self):
        lhs = apply_S(0, DescPoly.symbol(2, "Z"), F0, 2)
        expected = (
            DescPoly.symbol(2, "Z") * DescPoly.symbol(0, "p") * Fraction(1, 2)
            + DescPoly.symbol(1, "Z") * DescPoly.symbol(1, "p") * Fraction(1, 2)
        )
        assert lhs == expected


class TestAssembled:
    def test_l_sums_parts(self):
        # off degree-0 factors the paper's L_k is L+_k + S_k
        D = DescPoly.symbol(2, "Z") * DescPoly.symbol(3, "1")
        for k in (-1, 0, 1, 2):
            full = oracles.apply_Lplus(k, D, F0) + apply_S(k, D, F0, 2)
            assert oracles.apply_L(k, D, F0, 2) == full

    def test_bracket_suite_smoke(self):
        assert bracket_suite(P2, max_k=2, max_degree=3) > 0


class TestBracketSuite:
    @pytest.mark.parametrize(
        "name, max_k, max_degree",
        [(name, 2, 3) for name in ("p2", "f0", "f1", "f2")]
        + [("f1", -1, 0), ("f1", 0, 2), ("f1", 1, 1), ("f1", 3, 0)],
    )
    def test_the_per_monomial_oracle_passes_and_counts_the_same(self, name, max_k, max_degree):
        surface = surface_by_name(name)
        count = oracles.monomial_bracket_suite(surface, max_k, max_degree)
        assert count == bracket_suite(surface, max_k=max_k, max_degree=max_degree)

    def test_a_fault_is_refused_naming_its_generator_or_element(self, bracket_fault):
        for surface in SURFACES:
            with pytest.raises(BracketMismatch) as info:
                bracket_suite(surface)
            assert str(info.value) == bracket_fault

    @settings(deadline=None, max_examples=30)
    @given(
        st.sampled_from(SURFACES),
        st.integers(-1, 4),
        st.integers(0, 5),
        st.sampled_from([-2, -1, 1, 2]),
    )
    def test_the_oracle_passes_wherever_the_proof_does(self, surface, k0, sdeg0, delta):
        # one coefficient of the generator rule perturbed: the proof covers
        # every pair that the oracle checks, so where it passes the oracle does
        rule = descendents._r_coeff

        def perturbed(k, sdeg, plus):
            return rule(k, sdeg, plus) + (delta if (k, sdeg) == (k0, sdeg0) else 0)

        with mock.patch.object(descendents, "_r_coeff", perturbed):
            try:
                count = bracket_suite(surface, max_k=2, max_degree=2)
            except BracketMismatch:
                return
            assert oracles.monomial_bracket_suite(surface, max_k=2, max_degree=2) == count

    def test_the_oracle_at_degree_three_catches_each_fault(self, bracket_fault):
        for surface in SURFACES:
            with pytest.raises(BracketMismatch):
                oracles.monomial_bracket_suite(surface, max_k=2, max_degree=3)


class TestHBasis:
    def test_values(self):
        assert h_poly(3, "Z", F0) == DescPoly.symbol(4, "Z", 6)
        assert h_poly(2, "p", F0) == DescPoly.symbol(2, "p", 2)
        assert h_poly(4, "1", F0) == DescPoly.symbol(6, "1", 24)

    def test_degree_is_the_index(self):
        for j, name in [(1, "Z"), (3, "F"), (2, "p"), (4, "1")]:
            assert poly_degree(h_poly(j, name, F0), F0) == j


@st.composite
def basis_monomials(draw):
    """A surface and a restricted monomial of degree <= 6 on it."""
    surface = draw(st.sampled_from(SURFACES))
    basis = monomial_basis(surface, draw(st.integers(0, 6)))
    return surface, basis[draw(st.integers(0, len(basis) - 1))]


class TestIntegerTerms:
    @settings(deadline=None, max_examples=300)
    @given(basis_monomials(), st.integers(-1, 8), st.integers(1, 4))
    def test_operator_terms_match_the_descpoly_oracle(self, surface_mono, k, rank):
        # each part, times its scale, equals the DescPoly operator term by
        # term: R and S against the oracle derivation, T against the
        # product with T_element
        surface, mono = surface_mono
        D = DescPoly.monomial(mono)
        r, t, s, scale = oracles.operator_terms(k, mono, surface, rank)
        assert scale == Fraction(factorial(k + 1), rank)
        assert all(type(c) is int and c for part in (r, t, s) for c in part.values())
        assert r == oracles.apply_R(k, D, surface).terms
        assert t == apply_T(k, D, surface).terms
        assert {m: scale * c for m, c in s.items()} == oracles.apply_S(k, D, surface, rank).terms
        # the plus variant of the rule, and the package's Fraction extensions
        plus = oracles.apply_R(k, D, surface, plus=True).terms
        assert derivation_terms(k, mono, surface, plus=True) == plus
        assert apply_S(k, D, surface, rank) == oracles.apply_S(k, D, surface, rank)
        assert oracles.apply_Splus(k, D, surface, rank) == oracles.apply_S(
            k, D, surface, rank, plus=True
        )

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from(SURFACES),
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["1", "H", "F", "Z", "p"])),
            max_size=4,
        ),
        st.integers(-1, 4),
        st.fractions(max_denominator=6),
    )
    def test_derivation_matches_the_oracle_on_any_monomial(self, surface, syms, k, c):
        # symbols of degree -2 and -1 give negative and zero coefficients,
        # and at k = 0 the hits of a monomial of degree 0 cancel to nothing
        names = {"1", "p", *surface.divisor_names}
        mono = tuple(sorted(sym for sym in syms if sym[1] in names))
        D = DescPoly.monomial(mono, c)
        assert apply_R(k, D, surface) == oracles.apply_R(k, D, surface)
        assert DescPoly(derivation_terms(k, mono, surface)) == oracles.apply_R(
            k, DescPoly.monomial(mono), surface
        )

    @settings(deadline=None, max_examples=300)
    @given(
        st.sampled_from(SURFACES),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["1", "H", "F", "Z", "p"])), max_size=4),
        st.tuples(st.integers(0, 5), st.sampled_from(["1", "H", "F", "Z", "p"])),
        st.integers(0, 2),
        st.booleans(),
        st.integers(-1, 5),
        st.integers(1, 3),
    )
    @example(P2, [(2, "H")], (1, "H"), 0, True, 0, 2)  # S_0 inserts the zero ch_1(p)
    @example(P2, [(3, "1")], (1, "H"), 1, True, 0, 2)  # the zero factor at multiplicity 1
    @example(P2, [(3, "H")], (1, "H"), 2, False, -1, 2)  # and 2
    @example(P2, [(2, "H"), (3, "1")], (2, "H"), 1, False, -1, 2)  # R_-1 images are zero
    @example(P2, [(0, "1"), (4, "1")], (1, "H"), 0, True, 0, 2)  # the R_0 hits cancel
    def test_filtered_terms_are_the_unfiltered_less_those_with_a_zero_factor(
        self, surface, syms, zero_sym, copies, with_ch1, k, rank
    ):
        # a random monomial with a zero symbol at multiplicity 0, 1 or 2; the
        # normalized ch_1 of the divisors and of p are zero as well, now and then
        names = {"1", "p", *surface.divisor_names}
        mono = tuple(sorted(sym for sym in syms + [zero_sym] * copies if sym[1] in names))
        zero = {zero_sym}
        if with_ch1:
            zero |= {(1, name) for name in (*surface.divisor_names, "p")}
        packing = Packing(surface)
        mask = sum(packing[sym] * 0xFF for sym in zero if sym[1] in names)
        base = packing.key(mono)
        p = (k + 1, "p")
        packed = (
            [(base + delta, c) for delta, c in packing.derivation(k, mono)],
            [(base + pair, c) for pair, c in packing.pairs(k)],
            [(base + packing[p] + delta, c) for delta, c in packing.derivation(-1, mono + (p,))],
        )
        *parts, scale = oracles.operator_terms(k, mono, surface, rank)
        assert scale == Fraction(factorial(k + 1), rank)
        for part, terms in zip(parts, packed):
            kept = {oracles.monomial(packing, key): c for key, c in terms if not key & mask}
            assert len(kept) == len([key for key, _c in terms if not key & mask])
            assert kept == {m: c for m, c in part.items() if not zero.intersection(m)}
            # unfiltered, the packed terms are the oracle's
            assert {oracles.monomial(packing, key): c for key, c in terms} == part

    def test_cancelled_hits_leave_no_term(self):
        # R_0 scales by the degree: ch_0(1) ch_4(1) has degree -2 + 2 = 0
        mono = parse_monomial("ch_0(1)ch_4(1)")
        assert monomial_degree(mono, P2) == 0
        assert derivation_terms(0, mono, P2) == {}

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
    def test_t_terms_are_the_integer_coefficients_of_t_element(self, surface):
        # summed over the integers, they are the DescPoly sum of the oracle
        for k in range(-1, 13):
            terms = T_terms(k, surface)
            assert all(type(c) is int and c for c in terms.values())
            assert all(mono == tuple(sorted(mono)) for mono in terms)
            assert DescPoly(terms) == oracles.T_element(k, surface) == T_element(k, surface)
        with pytest.raises(ValueError, match="k >= -1"):
            T_terms(-2, surface)


class TestPacking:
    def test_fields_ascend_as_sorted_symbols_and_decode_back(self):
        packing = Packing(F0)
        syms = sorted((i, name) for i in range(6) for name in ("1", "F", "Z", "p"))
        units = [packing[sym] for sym in syms]
        assert units == sorted(units) and units[0] == 1 and units[1] == 1 << 8
        mono = parse_monomial("ch_5(Z)^3ch_2(F)ch_0(1)^2")
        assert packing.key(mono[::-1]) == packing.key(mono)
        assert oracles.monomial(packing, packing.key(mono)) == mono
        assert packing.factors(packing.key(mono)) == [((0, "1"), 2), ((2, "F"), 1), ((5, "Z"), 3)]
        with pytest.raises(ValueError):
            packing[(-1, "p")]

    def test_too_many_copies_of_one_symbol_raise_instead_of_carrying(self):
        # 256 copies would carry into the next field, ch_2(H); so do 254,
        # once an operator term adds two more copies of the symbol
        packing = Packing(P2)
        sym = (2, "1")
        assert packing.key((sym,) * MAX_COPIES) == MAX_COPIES * packing[sym]
        for copies in (MAX_COPIES + 1, 256):
            with pytest.raises(OverflowError):
                packing.key((sym,) * copies)
        with pytest.raises(OverflowError):
            packing.key(((3, "p"),) + (sym,) * 256)


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

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
    def test_basis_and_labels_are_the_oracle_ones(self, surface):
        # the basis is built sorted, and a label sorts without a key function
        for degree in range(-1, 11):
            basis = monomial_basis(surface, degree)
            assert basis == oracles.monomial_basis(surface, degree)
            for mono in basis:
                assert render_monomial(mono) == oracles.render_monomial(mono)
                assert render_monomial(mono[::-1]) == oracles.render_monomial(mono[::-1])

    def test_parse_tex_flavour(self):
        assert parse_monomial(r"\ch_3(\mathbf{p})") == parse_monomial("ch_3(p)")

    def test_render_poly(self):
        D = DescPoly.symbol(3, "1", Fraction(-1, 2)) + DescPoly.const(1)
        text = render_poly(D)
        assert "ch_3(1)" in text and "1/2" in text
