"""Fixed-point integration: tangent weights, certificates, operator rows."""

from fractions import Fraction

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_virasoro.descendents import monomial_basis, monomial_degree, parse_monomial
from toric_virasoro.exactalg import (
    CommonDenominator,
    LaurentPoly,
    NotDivisible,
    dehomogenize,
    exact_div,
    integer_rows,
    linform,
    parse_laurent,
)
from toric_virasoro.klyachko import Flag, Subspace, bundle_from_flags
from toric_virasoro.localization import Case, TrivialWeight, verify_conjecture
from toric_virasoro.surfaces import surface_by_name

ZERO = Fraction(0)
ONE = Fraction(1)


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


def oracle_integral(case, mono):
    """The Fraction reference path: realized products cleared by ``numerator``.

    The integer kernel of ``Case.integrate_monomial`` must agree with it on
    every value and on every ``NotDivisible`` (with the same message).
    """
    den = case.tangent_denominator
    values = [LaurentPoly.one()] * case.n_points
    for i, name in mono:
        values = [v * w for v, w in zip(values, case.realize_symbol(i, name))]
    deg = monomial_degree(mono, case.surface)
    num = den.numerator(values)
    if not num:
        return ZERO
    if deg < case.vdim:
        raise NotDivisible(
            f"fixed-point sum of a degree-{deg} class on a {case.vdim}-"
            f"dimensional space failed to cancel: {num.render()}"
        )
    if deg == case.vdim:
        lead = max(den.poly.coeffs)
        c = num.coeff(*lead) / den.poly.coeff(*lead)
        if num != den.poly * c:
            raise NotDivisible(
                "fixed-point sum does not clear to a constant; the fixed"
                " locus or tangent data is inconsistent"
            )
        return c
    for factor in den.factors:
        num = exact_div(num, factor)
    if any(a < 0 or b < 0 for a, b in num.coeffs):
        raise NotDivisible("cleared sum is not polynomial")
    return num.constant_term()


def _outcome(integral, case, mono):
    try:
        return integral(case, mono)
    except NotDivisible as exc:
        return ("NotDivisible", str(exc))


def lagrange_case(weights, scalars, perturb):
    """A case whose fixed points are the distinct linear forms ``w_q``.

    The tangent Euler class at ``q`` is ``prod_{r != q} (w_q - w_r)`` and the
    symbol ``ch_k(p)`` (of degree k) realizes to ``scalars[k] * w_q^k``, so
    ``sum_q prod_i c_i w_q^(k_i) / e_q`` is ``prod_i c_i`` times the complete
    homogeneous polynomial of degree ``sum_i k_i - n + 1`` in the ``w_q``:
    zero below ``vdim = n - 1``, a constant at it and a polynomial above it.
    ``perturb = (k, q, delta)`` adds ``delta * (s^k + t^k)`` to one value,
    which breaks the clearing unless the monomial avoids ``ch_k(p)``; being
    divisible by neither ``s`` nor ``t``, it also breaks one-term factors.
    """
    n = len(weights)
    forms = [linform(w) for w in weights]
    case = Case(surface_by_name("p2"), 1, (0,), 0, (1,), ((LaurentPoly.one(),) * 3,) * n)
    case.vdim = n - 1
    case.tangent_denominator = CommonDenominator(
        [forms[q] - forms[r] for r in range(n) if r != q] for q in range(n)
    )
    for k, c in enumerate(scalars):
        values = [form**k * c for form in forms]
        if perturb and perturb[0] == k:
            _k, q, delta = perturb
            bump = LaurentPoly.monomial(k, 0) + LaurentPoly.monomial(0, k)
            values[q] = values[q] + bump * delta
        set_symbol(case, (k, "p"), values)
    return case


def set_symbol(case, sym, values):
    """Make ``case`` realize ``sym`` (of degree ``sym[0]`` here) to ``values``."""
    scale, rows = integer_rows(dehomogenize(v, sym[0]) for v in values)
    case._int_symbols[sym] = (scale, rows, [sum(map(abs, row)) for row in rows])


distinct_weights = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=5, unique=True
)
# huge scalars push the l1 bound past 2^63, so the slots get wider than 64 bits
scalars = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=5)
    | st.integers(-(2**80), 2**80).map(Fraction),
    min_size=6,
    max_size=6,
)


class TestIntegerKernel:
    @settings(deadline=None, max_examples=80)
    @given(
        distinct_weights,
        scalars,
        st.lists(st.integers(0, 5), min_size=1, max_size=3),
        st.none() | st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(-3, 3)),
    )
    @example([(3, -2), (0, 0), (1, 0), (1, 1)], [Fraction(-(2**80) + 1)] * 6, [1, 2], None)
    @example([(1, 2)], [Fraction(2**63)] * 6, [0], None)  # 2^63 needs a sign bit above it
    @example([(1, 0), (0, 1), (1, 1)], [ONE] * 6, [2], (2, 0, 1))  # not a constant at vdim
    @example([(3, -2), (0, 0), (1, 0), (1, 1)], [Fraction(2**80)] * 6, [3, 3], (3, 1, 1))
    def test_agrees_with_the_fraction_oracle(self, weights, cs, ks, perturb):
        # weights such as (0, 0) give zero values, (1, 0) and (1, 1) an LCM
        # factor t; the degree sum(ks) falls below, at and above vdim
        if perturb:
            perturb = (perturb[0], perturb[1] % len(weights), perturb[2])
        mono = tuple(sorted((k, "p") for k in ks))
        kernel = _outcome(Case.integrate_monomial, lagrange_case(weights, cs, perturb), mono)
        oracle = _outcome(oracle_integral, lagrange_case(weights, cs, perturb), mono)
        assert kernel == oracle

    def test_lagrange_identity_values(self):
        # sum_q w_q^2 / e_q is h_0 = 1 and w_q^3 gives h_1, which is 0 at s = t = 0
        weights = [(1, 0), (0, 1), (1, 1)]
        for k, want in [(1, ZERO), (2, Fraction(-3, 2)), (3, ZERO)]:
            case = lagrange_case(weights, [Fraction(-3, 2)] * 6, None)
            assert case.integrate_monomial(((k, "p"),)) == want
            assert case.certified_clearings == (k >= 2)

    def test_sum_not_divisible_by_a_monomial_factor_is_refused_above_dim(self):
        # e = -t and t: dividing by t never fails as a Laurent division, so the
        # certificate is that no negative exponent survives
        case = lagrange_case([(1, 0), (1, 1)], [ONE] * 6, (2, 0, 1))
        with pytest.raises(NotDivisible, match="cleared sum is not polynomial"):
            case.integrate_monomial(((2, "p"),))

    def test_negative_exponent_in_a_realized_value_is_refused(self):
        # 1 + s at the first point of P2 and 2 elsewhere is no equivariant
        # class: ch_2(1) sums to -s*t^-1/4, which is no polynomial
        charts = (parse_laurent("1 + s"), LaurentPoly.const(2), LaurentPoly.const(2))
        case = Case(surface_by_name("p2"), 2, (0,), 0, (1,), (charts,))
        assert oracles.realize_symbol(case, 2, "1") == (parse_laurent("-1/4*s*t^-1"),)
        with pytest.raises(NotDivisible, match="leaves a remainder"):
            case.realize_symbol(2, "1")

    @pytest.mark.parametrize(
        "text, above, value, message",
        [
            ("ch_2(F)^3", 0, Fraction(27, 8), "does not clear to a constant"),
            ("ch_2(F)^4", 1, ZERO, "not divisible by"),
        ],
    )
    def test_dropping_a_point_breaks_the_certificate_at_and_above_dim(
        self, case_of, text, above, value, message
    ):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        mono = parse_monomial(text)
        assert monomial_degree(mono, case.surface) == case.vdim + above
        assert case.integrate_monomial(mono) == value
        with pytest.raises(NotDivisible, match=message):
            case.drop_point(0).integrate_monomial(mono)

    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_basis_integrals_match_the_oracle(self, case_of, case_id):
        # the sweep's monomials D of degree vdim - k, k in [-1, vdim]
        _, case, _ = case_of(case_id)
        for k in range(-1, case.vdim + 1):
            for mono in monomial_basis(case.surface, case.vdim - k):
                assert case.integrate_monomial(mono) == oracle_integral(case, mono)


def _symbol_outcome(realize, case, sym):
    try:
        return realize(case, sym)
    except NotDivisible:
        return "NotDivisible"


@st.composite
def chart_cases(draw):
    """A case built directly from chart characters, one row per moduli point.

    Each chart row is a sum of ``rank`` equivariant line bundles (an honest
    class, so every symbol clears); a drawn extra character at one point
    usually breaks that.
    """
    srf = surface_by_name(draw(st.sampled_from(["p2", "f0", "f1", "f2"])))
    rank = draw(st.integers(1, 3))
    jumps = st.lists(st.integers(-3, 3), min_size=len(srf.rays), max_size=len(srf.rays))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        charts = [LaurentPoly.zero()] * srf.n_points
        for _ in range(rank):
            flags = [Flag(1, ((d, Subspace.full(1)),)) for d in draw(jumps)]
            line = bundle_from_flags(srf, 1, flags)
            charts = [c + line.restriction(p) for c, p in zip(charts, srf.points)]
        if draw(st.booleans()):
            p = draw(st.integers(0, srf.n_points - 1))
            a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            charts[p] = charts[p] + LaurentPoly.monomial(a, b, draw(st.integers(-2, 2)))
        rows.append(tuple(charts))
    zero = (0,) * srf.picard_rank
    return Case(srf, rank, zero, 0, (1,) * srf.picard_rank, tuple(rows))


class TestIntegerRealization:
    @settings(deadline=None, max_examples=60)
    @given(chart_cases(), st.integers(-1, 6), st.data())
    def test_agrees_with_the_fraction_oracle(self, case, i, data):
        name = data.draw(st.sampled_from(["1", *case.surface.divisor_names, "p"]))
        assert _symbol_outcome(Case._integer_symbol, case, (i, name)) == _symbol_outcome(
            oracles.integer_symbol, case, (i, name)
        )

    def test_every_bundled_symbol_matches_the_oracle(self, case_of, all_case_ids, is_built):
        # (scale, rows, norms) fix the kernel's slot widths, so they must be
        # the oracle's exactly; the rank-4 case joins when already built
        checked = 0
        for case_id in all_case_ids:
            if case_id == "p2-r4-c2-3" and not is_built(case_id):
                continue
            _, case, _ = case_of(case_id)
            for i in range(-1, case.vdim + 3):
                for name in ("1", *case.surface.divisor_names, "p"):
                    sym = (i, name)
                    assert case._integer_symbol(sym) == oracles.integer_symbol(case, sym), (
                        case_id, sym,
                    )
                    checked += 1
        assert checked >= 360
