"""Exact-arithmetic core: Laurent polynomials, exact division, common denominators."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    as_constant,
    char_to_chern,
    degrees,
    homogeneous_part,
    is_homogeneous,
    substitute_st,
    truncate,
    truncated_exp,
    truncated_exp_rat,
)
from toric_virasoro.exactalg import (
    CommonDenominator,
    LaurentPoly,
    NotDivisible,
    convolve,
    dehomogenize,
    divide_linear,
    exact_div,
    homogenize,
    integer_rows,
    linform,
    pack,
    parse_laurent,
    unpack,
)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
lpolys = st.dictionaries(exponents, coeffs, max_size=5).map(LaurentPoly)
nonzero_lpolys = lpolys.filter(bool)
weights = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda v: v != (0, 0))
two_term_weights = st.tuples(
    st.integers(-2, 2).filter(bool), st.integers(-2, 2).filter(bool)
)


def kfactor(w) -> LaurentPoly:
    """The K-theory denominator factor 1 - s^a t^b."""
    return LaurentPoly.one() - LaurentPoly.monomial(*w)


def product(factors) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in factors:
        out = out * f
    return out


def linforms(weights) -> list[list[LaurentPoly]]:
    """Denominator factor lists of linear forms a*s + b*t, one list per term."""
    return [[linform(w) for w in ws] for ws in weights]


def associates(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Whether f == u * g for a unit u: a rational, times a monomial when the
    factors have two or more terms (a lone ``t`` is no unit in cohomology)."""
    if len(f) != len(g):
        return False
    (fa, fb), fc = max(f.coeffs.items())
    (ga, gb), gc = max(g.coeffs.items())
    if len(f) == 1 and (fa, fb) != (ga, gb):
        return False
    return f == g.shift(fa - ga, fb - gb) * (fc / gc)


class TestRing:
    @settings(deadline=None)
    @given(lpolys, lpolys, lpolys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * LaurentPoly.one() == p
        assert p + LaurentPoly.zero() == p
        assert p - p == LaurentPoly.zero()

    @settings(deadline=None)
    @given(lpolys)
    def test_parse_render_roundtrip(self, p):
        assert parse_laurent(p.render()) == p

    @settings(deadline=None)
    @given(lpolys)
    def test_dual_involution(self, p):
        assert p.dual().dual() == p

    @settings(deadline=None)
    @given(lpolys, st.integers(-2, 2), st.integers(-2, 2))
    def test_shift_is_monomial_multiplication(self, p, da, db):
        assert p.shift(da, db) == p * LaurentPoly.monomial(da, db)

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({(1, 0): Fraction(0)}) == LaurentPoly.zero()
        assert not LaurentPoly.zero()

    def test_pow(self):
        s_plus_t = parse_laurent("s + t")
        assert s_plus_t**2 == parse_laurent("s^2 + 2*s*t + t^2")
        assert s_plus_t**0 == LaurentPoly.one()

    def test_substitute(self):
        p = parse_laurent("s^2*t^-1 - 3")
        assert substitute_st(p, Fraction(2), Fraction(4)) == Fraction(4, 4) - 3

    def test_homogeneous_parts(self):
        p = parse_laurent("s^2 + s*t + t^-1 + 5")
        assert homogeneous_part(p, 2) == parse_laurent("s^2 + s*t")
        assert homogeneous_part(p, 0) == parse_laurent("5")
        assert degrees(p) == {2, 0, -1}
        assert not is_homogeneous(p)
        assert is_homogeneous(homogeneous_part(p, 2), 2)
        assert truncate(p, 0) == parse_laurent("t^-1 + 5")

    def test_render_examples(self):
        assert parse_laurent("s^-1t + t^-1").render() == "s^-1*t + t^-1"
        assert LaurentPoly.zero().render() == "0"
        p = parse_laurent("-s^2t + 2st^-1 + 1")
        assert p.render() == "-s^2*t + 2*s*t^-1 + 1"
        assert p.render_tex() == "-s^{2}t + 2st^{-1} + 1"
        assert parse_laurent(p.render_tex().replace("{", "").replace("}", "")) == p

    def test_parse_repeated_terms_accumulate(self):
        assert parse_laurent("1 + s + 1") == parse_laurent("s + 2")


class TestTruncatedExp:
    def test_against_factorials(self):
        cap = 5
        e = truncated_exp(2, -1, cap)
        lin = LaurentPoly({(1, 0): Fraction(2), (0, 1): Fraction(-1)})
        expect = LaurentPoly.zero()
        for k in range(cap + 1):
            expect = expect + lin**k * Fraction(1, factorial(k))
        assert e == expect

    def test_rational_exponents(self):
        e = truncated_exp_rat(Fraction(1, 2), Fraction(0), 3)
        assert homogeneous_part(e, 0) == LaurentPoly.one()
        assert homogeneous_part(e, 1) == LaurentPoly.monomial(1, 0, Fraction(1, 2))
        assert homogeneous_part(e, 2) == LaurentPoly.monomial(2, 0, Fraction(1, 8))

    def test_char_to_chern_additive(self):
        cap = 6
        a = char_to_chern(parse_laurent("s*t^-1"), cap)
        b = char_to_chern(parse_laurent("2*t"), cap)
        both = char_to_chern(parse_laurent("s*t^-1 + 2*t"), cap)
        assert both == a + b
        assert char_to_chern(parse_laurent("t"), cap) == truncated_exp(0, 1, cap)


class TestExactDivision:
    @settings(deadline=None)
    @given(lpolys, weights)
    def test_multiply_then_divide_linform(self, p, form):
        lin = linform(form)
        assert exact_div(p * lin, lin) == p

    @settings(deadline=None)
    @given(lpolys, weights)
    def test_multiply_then_divide_kfactor(self, p, form):
        kf = kfactor(form)
        assert exact_div(p * kf, kf) == p

    def test_monomial_linform_is_a_laurent_unit(self):
        # dividing by the weight s alone only shifts exponents; negative
        # exponents are rejected later, by the polynomial check that
        # Case._integrate makes above the virtual dimension
        assert exact_div(LaurentPoly.one(), linform((1, 0))) == parse_laurent("s^-1")

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(parse_laurent("s + 1"), linform((1, 1)))
        with pytest.raises(NotDivisible):
            exact_div(parse_laurent("s^2 + t^2"), linform((1, -1)))
        with pytest.raises(NotDivisible):
            exact_div(parse_laurent("s"), kfactor((0, 1)))


class TestCommonDenominator:
    def test_projective_line_euler_characteristic(self):
        # chi(O) on P^1 by K-theoretic localization: two fixed points with
        # dual tangent characters s and s^-1.
        den = CommonDenominator([[kfactor((-1, 0))], [kfactor((1, 0))]])
        one = LaurentPoly.one()
        assert den.clear([one, one]) == one

    def test_cohomological_cancellation(self):
        # 1/(s - t) + 1/(t - s): the sign-flipped forms share one LCM factor
        den = CommonDenominator(linforms([[(1, -1)], [(-1, 1)]]))
        assert den.factors == (linform((1, -1)),)
        assert den.cofactors == [LaurentPoly.one(), -LaurentPoly.one()]
        one = LaurentPoly.one()
        assert den.clear([one, one]) == LaurentPoly.zero()
        # 1/(s - t) - 1/(t - s) = 2/(s - t) is no Laurent polynomial
        with pytest.raises(NotDivisible):
            den.clear([one, -one])

    def test_sum_and_clear_by_hand(self):
        # t/(s(s+t)) + s/(t(s+t)) - (s^2+t^2)/(st(s+t)) = 0; the LCM is
        # st(s+t), not the product of the three denominators
        den = CommonDenominator(
            linforms([[(1, 0), (1, 1)], [(0, 1), (1, 1)], [(1, 0), (0, 1), (1, 1)]])
        )
        assert den.poly == parse_laurent("s^2*t + s*t^2")
        assert len(den.factors) == 3
        values = [parse_laurent("t"), parse_laurent("s"), parse_laurent("-s^2 - t^2")]
        assert den.numerator(values) == LaurentPoly.zero()
        assert den.clear(values) == LaurentPoly.zero()

    def test_empty_sum_clears_to_zero(self):
        den = CommonDenominator([])
        assert den.factors == ()
        assert den.poly == LaurentPoly.one()
        assert den.clear([]) == LaurentPoly.zero()

    def test_factor_order_is_sorted_not_input_order(self):
        forward = CommonDenominator(linforms([[(1, 1), (0, 1)], [(1, -1), (1, 0)]]))
        backward = CommonDenominator(linforms([[(1, 0), (1, -1)], [(0, 1), (1, 1)]]))
        assert forward.factors == backward.factors

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CommonDenominator([[LaurentPoly.zero()]])

    @settings(deadline=None, max_examples=60)
    @given(
        nonzero_lpolys,
        st.lists(st.lists(weights, max_size=3), min_size=1, max_size=4),
        two_term_weights,
        st.sampled_from(["linear", "character"]),
    )
    def test_clears_sum_of_polynomial_terms(self, P, raw, g, kind):
        # every term v_q / e_q equals P, with e_q built from the raw
        # (sign-flipped, repeated) factors, so the sum clears to n * P; a
        # cancelling pair P + 1/g and -1/g rides along on top
        factor = linform if kind == "linear" else kfactor
        raw = [list(ws) for ws in raw]
        raw[0].append(g)
        raw.append([g])
        den = CommonDenominator([[factor(w) for w in ws] for ws in raw])
        es = [product(factor(w) for w in ws) for ws in raw]
        assert den.poly == product(den.factors)
        for e, co in zip(es, den.cofactors):
            assert e * co == den.poly
        n = len(raw) - 1
        values = [P * e for e in es[:-1]] + [LaurentPoly.const(-1)]
        values[0] = values[0] + exact_div(es[0], factor(g))
        assert den.clear(values) == P * n
        for drop in (0, n):
            broken = list(values)
            broken[drop] = LaurentPoly.zero()
            with pytest.raises(NotDivisible):
                den.clear(broken)

    def test_associates_share_one_factor(self):
        # s - t / t - s, t / 2*t and 1 - s / 1 - s^-1 differ by units only
        for f, g in (("s - t", "t - s"), ("t", "2*t"), ("1 - s", "1 - s^-1")):
            f, g = parse_laurent(f), parse_laurent(g)
            den = CommonDenominator([[f], [g]])
            assert len(den.factors) == 1
            assert den.clear([f, g]) == LaurentPoly.const(2)

    @settings(deadline=None, max_examples=60)
    @given(
        nonzero_lpolys,
        st.lists(st.lists(weights, max_size=3), min_size=1, max_size=4),
        st.sampled_from(["linear", "character"]),
        st.data(),
    )
    def test_factors_are_defined_up_to_units(self, P, raw, kind, data):
        # multiplying every factor by a unit (a sign, a small integer and, for
        # factors with two or more terms, a monomial) changes neither the LCM
        # nor the cleared value; the unit moves into the term's cofactor
        factor = linform if kind == "linear" else kfactor
        plain = [[factor(w) for w in ws] for ws in raw]
        units = st.tuples(
            st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-2, 2), st.integers(-2, 2)
        )

        def scaled(f):
            c, a, b = data.draw(units)
            return f.shift(a, b) * c if len(f) > 1 else f * c

        dressed = [[scaled(f) for f in fs] for fs in plain]
        den, ref = CommonDenominator(dressed), CommonDenominator(plain)
        assert den.factors == ref.factors
        distinct = list(dict.fromkeys(den.factors))
        for i, f in enumerate(distinct):
            assert not any(associates(f, g) for g in distinct[i + 1:])
        es = [product(fs) for fs in dressed]
        for e, co in zip(es, den.cofactors):
            assert co * e == den.poly
        values = [P * e for e in es]
        assert den.clear(values) == P * len(es)
        assert den.clear(values) == ref.clear([P * product(fs) for fs in plain])

    def test_as_constant(self):
        assert as_constant(LaurentPoly.const(Fraction(7, 3))) == Fraction(7, 3)
        assert as_constant(LaurentPoly.zero()) == 0
        with pytest.raises(ValueError):
            as_constant(parse_laurent("s + 1"))


primitive_forms = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda form: gcd(*form) == 1
)


class TestDivideLinear:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
        st.sampled_from([(1, 0), (0, 1)]) | primitive_forms,
        st.data(),
    )
    def test_quotient_of_a_product_and_a_perturbed_product(self, f, form, data):
        a, b = form
        product = convolve(f, [a, b])
        assert divide_linear(product, a, b) == f
        # a monomial is divisible by s (or t) unless it lacks that variable,
        # so for a one-term form perturb the coefficient without it
        if not b:
            j = len(product) - 1
        elif not a:
            j = 0
        else:
            j = data.draw(st.integers(0, len(product) - 1))
        product[j] += data.draw(st.integers(-3, 3).filter(bool))
        with pytest.raises(NotDivisible):
            divide_linear(product, a, b)

    def test_a_constant_divides_only_when_zero(self):
        assert divide_linear([0], 2, 3) == []
        with pytest.raises(NotDivisible):
            divide_linear([1], 1, 1)


class TestKroneckerPacking:
    @settings(deadline=None)
    @given(st.sampled_from([64, 128, 192]), st.data())
    def test_pack_unpack_round_trip_at_the_slot_limit(self, width, data):
        top = (1 << (width - 1)) - 1
        slot = st.sampled_from([top, -top, 0, 1, -1]) | st.integers(-top, top)
        coeffs = data.draw(st.lists(slot, max_size=12))
        assert unpack(pack(coeffs, width), width, len(coeffs)) == coeffs

    @settings(deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=6), st.lists(st.integers(-50, 50), max_size=6))
    def test_packed_product_is_the_polynomial_product(self, f, g):
        width = 64  # |coefficient| <= ||f||_1 * ||g||_1 < 2^63
        prod = [0] * max(len(f) + len(g) - 1, 0)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        assert unpack(pack(f, width) * pack(g, width), width, len(prod)) == prod

    def test_carry_past_the_last_slot_is_refused(self):
        with pytest.raises(OverflowError):
            unpack(pack([1, 2, 3], 64), 64, 2)
        with pytest.raises(OverflowError):
            unpack(1 << 63, 64, 1)  # does not fit one signed 64-bit slot

    def test_dehomogenize_round_trip(self):
        p = parse_laurent("3/2*s^2*t - t^3 + 5*s^3")
        assert dehomogenize(p, 3) == [5, Fraction(3, 2), 0, -1]
        assert homogenize([10, 3, 0, -2], 3, 2) == p
        assert dehomogenize(LaurentPoly.zero(), -2) == []

    @pytest.mark.parametrize("text, deg", [("s^-1*t^2", 1), ("s*t + t", 2), ("s^2", 1)])
    def test_dehomogenize_refuses_what_is_not_homogeneous_of_the_degree(self, text, deg):
        with pytest.raises(NotDivisible):
            dehomogenize(parse_laurent(text), deg)

    def test_integer_rows_share_one_least_common_denominator(self):
        rows = [[Fraction(1, 4), Fraction(-2, 3)], [], [Fraction(5)]]
        assert integer_rows(rows) == (12, [[3, -8], [], [60]])
        assert integer_rows([]) == (1, [])
