"""Fixed-point integration: tangent weights, certificates, operator rows."""

import random
from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import CommonDenominator, LaurentPoly, exact_div, linform, parse_laurent
from toric_virasoro.descendents import (
    DescPoly,
    basis_symbols,
    monomial_basis,
    monomial_degree,
    parse_monomial,
)
from toric_virasoro.enumeration import chamber_representatives, fixed_locus_cached
from toric_virasoro.exactalg import NotDivisible
from toric_virasoro.klyachko import Flag, NonIsolated, Subspace, bundle_from_flags
from toric_virasoro.localization import (
    Case,
    TrivialWeight,
    _Memo,
    sheaf_euler_pairing,
    tangent_representation,
    verify_conjecture,
)
from toric_virasoro.surfaces import surface_by_name

ZERO = Fraction(0)
ONE = Fraction(1)

# copies of the bundled cases, plain and twisted, that only the operator-part
# property test integrates: the shared cases keep the sweep's work counts
_COPIES: dict = {}


def _character(text: str) -> dict:
    """The integer character of a chart written as a Laurent polynomial."""
    return oracles.character(parse_laurent(text))


def _add(f: dict, g: dict) -> dict:
    """The sum of two integer characters, without zero coefficients."""
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


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
        assert [LaurentPoly(t) for t in case.tangents()] == [parse_laurent(t) for t, _ in expected]
        assert oracles.euler_classes(case) == [parse_laurent(e) for _, e in expected]

    def test_euler_pairing_matches_the_oracle(self, case_of, all_case_ids, is_built):
        # chi(E, E) by integer running sums along the chart characters equals
        # the Fraction CommonDenominator clearing and the Fraction running
        # sums at every sheaf of the bundled cases (the rank-4 case joins when
        # already built) and of the ten chambers of f0, c1 = F + Z, c2 = 3
        rows = []
        for case_id in all_case_ids:
            if case_id == "p2-r4-c2-3" and not is_built(case_id):
                continue
            _, case, _ = case_of(case_id)
            rows += [(case.surface, row) for row in case.restrictions]
        f0 = surface_by_name("f0")
        chambers = chamber_representatives(f0, 2, (1, 1), 3)
        assert len(chambers) == 10
        for H in chambers:
            for sheaf in fixed_locus_cached("f0", 2, (1, 1), 3, H):
                rows.append((f0, tuple(sheaf.restriction(p) for p in f0.points)))
        assert len(rows) >= 305
        for srf, row in rows:
            chi = sheaf_euler_pairing(row, srf)
            assert all(type(c) is int and c for c in chi.values()), row
            want = oracles.euler_pairing(row, srf)
            assert LaurentPoly(chi) == want == oracles.binomial_euler_pairing(row, srf), row

    def test_a_perturbed_restriction_row_is_refused(self, case_of):
        # one more character at one chart is no K-class: the change of
        # E_p^dual E_p is 2r + 1 at s = t = 1, so (1 - u)(1 - v) does not
        # divide it, and the sum over the points does not clear
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        for row in case.restrictions:
            for p in range(len(row)):
                broken = list(row)
                broken[p] = _add(broken[p], {(1, 0): 1})
                with pytest.raises(NotDivisible):
                    sheaf_euler_pairing(broken, case.surface)
                with pytest.raises(NotDivisible):
                    oracles.euler_pairing(broken, case.surface)
                with pytest.raises(NotDivisible):
                    oracles.binomial_euler_pairing(broken, case.surface)
        broken = Case(case.surface, case.rank, case.c1, case.c2, case.H, (tuple(broken),))
        with pytest.raises(NotDivisible):
            broken.tangents()

    def test_trivial_weight_is_rejected(self):
        p2 = surface_by_name("p2")
        # O + O is strictly semistable and has a torus-fixed automorphism
        # weight of zero, so its "tangent space" is not a genuine
        # representation: multiplicity 1 - chi(E, E) = -3 at weight (0, 0).
        rows = (({(0, 0): 2},) * 3,)
        broken = Case(p2, 2, (0,), 0, (1,), rows)
        with pytest.raises(TrivialWeight):
            oracles.euler_classes(broken)

    def test_a_positive_trivial_multiplicity_is_not_isolated(self):
        # one fixed point of f1, c1 = F, c2 = 2, H = 4F + 3Z (the locus the
        # command line refuses): 1 - chi(E, E) has multiplicity 1 at (0, 0)
        f1 = surface_by_name("f1")
        row = tuple(map(_character, ("s + t", "s*t + 1", "s*t + s", "s^2*t + 1")))
        tangent = LaurentPoly.one() - oracles.euler_pairing(row, f1)
        assert tangent.coeffs[(0, 0)] == 1
        with pytest.raises(NonIsolated, match="trivial weight with multiplicity 1 "):
            tangent_representation(row, f1, f1.vdim(2, (1, 0), 2))

    def test_a_total_dimension_other_than_vdim_is_refused(self, case_of):
        # the rows of f0-FZ-c2-2-H2F5Z have 3-dimensional tangent spaces;
        # under c2 = 3 the expected dimension is 7
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        wrong = Case(case.surface, case.rank, case.c1, case.c2 + 1, case.H, case.restrictions)
        assert wrong.vdim == 7
        with pytest.raises(TrivialWeight, match="dimension 3 differs from expected dimension 7$"):
            wrong.tangents()

    def test_a_non_integral_row_is_refused_not_truncated(self, case_of):
        # chi(E, E) is cleared over the integers from integer characters: a
        # case refuses a coefficient that is no int when it is built, before
        # any clearing, an integral Fraction too
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        for c in (Fraction(1, 2), Fraction(2)):
            row = list(case.restrictions[0])
            row[1] = {**row[1], (1, 0): c}
            with pytest.raises(ValueError, match="of fixed point 1 has a non-integral coefficient"):
                Case(case.surface, case.rank, case.c1, case.c2, case.H, (case.restrictions[0], row))


    def test_tangent_denominator_merges_associate_weights(self, case_of):
        # t and 2*t (or s - t and t - s) are one LCM factor: 21 factors, not
        # the 27 that scalar multiples kept apart would give
        _, case, _ = case_of("p2-r2-c2-3")
        den = case.tangent_denominator
        assert len(den.forms) == 21
        assert sum(c != 0 for co in den.cofactors for c in co) == 504
        # the readable view that the benchmark counts
        _poly, factors, cofactors = case.scaffold()
        assert factors == tuple(linform(f) for f in den.forms)
        assert sum(len(co) for co in cofactors) == 504

    def test_every_tangent_denominator_matches_the_oracle(self, case_of, all_case_ids, is_built):
        # forms, scale, cofactors and LCM of every surface and bundled case
        # equal the Fraction CommonDenominator read at s = 1; the rank-4 case
        # joins when already built
        for name in ("p2", "f0", "f1", "f2"):
            srf = surface_by_name(name)
            den = srf.tangent_denominator
            want = oracles.linear_denominator(p.tangent_weights for p in srf.points)
            assert (den.forms, den.scale, den.cofactors, den.poly) == want, name
        for case_id in all_case_ids:
            if case_id == "p2-r4-c2-3" and not is_built(case_id):
                continue
            _, case, _ = case_of(case_id)
            den = case.tangent_denominator
            want = oracles.linear_denominator(tangent_weights(case))
            assert (den.forms, den.scale, den.cofactors, den.poly) == want, case_id


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
            I = integral(case, mono)
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
        twisted = oracles.twisted(case, (1, -2))
        for k, text in [(0, "ch_3(p)"), (1, "ch_2(Z)"), (2, "ch_3(1)")]:
            mono = parse_monomial(text)
            assert twisted.operator_parts(k, mono) == case.operator_parts(k, mono)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(["p2-r2-c2-3", "f0-FZ-c2-2-H2F5Z"]),
        st.sampled_from([None, (1, -2), (-1, 3)]),
        st.integers(-1, 1),
        st.data(),
    )
    def test_operator_parts_match_the_fraction_oracle(self, case_of, case_id, twist, off, data):
        # the integer terms summed per denominator against the Fraction sums
        # over the DescPoly operators, for a random (k, D) with D of degree
        # vdim - k + off, on a copy of the case and on twisted copies
        _, case, _ = case_of(case_id)
        if (case_id, twist) not in _COPIES:
            _COPIES[case_id, twist] = oracles.twisted(case, twist) if twist else fresh(case)
        case = _COPIES[case_id, twist]
        k = data.draw(st.integers(-1, case.vdim + 1))
        basis = monomial_basis(case.surface, case.vdim - k + off)
        if not basis:
            return
        mono = data.draw(st.sampled_from(basis))
        parts = _outcome(Case.operator_parts, case, k, mono)
        assert parts == _outcome(oracles.operator_parts, case, k, mono)
        if off == 0:
            assert sum(parts) == ZERO

    @settings(deadline=None, max_examples=80)
    @given(
        st.sampled_from(["p2-r2-c2-3", "f0-FZ-c2-2-H2F5Z", "p2-r3-c2-2", "f1-Z-c2-1", "empty"]),
        st.integers(-1, 4),
        st.data(),
    )
    @example("p2-r2-c2-3", 0, "ch_3(1)^2ch_2(H)ch_0(p)")  # k = 0: R hits land on D's own key
    @example("p2-r2-c2-3", 1, "ch_3(1)ch_1(H)")  # R_1 ch_1(H) = ch_2(H) does not vanish
    @example("f0-FZ-c2-2-H2F5Z", -1, "ch_2(Z)ch_1(p)^2ch_2(1)")
    @example("empty", 1, "ch_3(1)ch_2(H)")
    def test_packed_operator_parts_are_the_tuple_oracle(self, case_of, case_id, k, data):
        # a random monomial of the basis symbols, with the vanishing ch_1(D)
        # and ch_1(p) and the constants ch_2(1) and ch_0(p) at multiplicity
        # 0, 1 or 2: the packed parts on one fresh copy against the tuple
        # terms of the oracle summed per denominator on another
        if case_id == "empty":
            _, base, _ = case_of("p2-r2-c2-2")
            copy, oracle_copy = (Case(base.surface, 2, (-1,), 9, (1,), ()) for _ in range(2))
        else:
            _, base, _ = case_of(case_id)
            copy, oracle_copy = fresh(base), fresh(base)
        surface = copy.surface
        factors = ["1", "p", *surface.divisor_names]
        special = [(1, name) for name in factors[1:]] + [(2, "1"), (0, "p")]
        if isinstance(data, str):
            mono = parse_monomial(data)
        else:
            symbols = [sym for d in (1, 2, 3) for sym in basis_symbols(surface, d)]
            mono = data.draw(st.lists(st.sampled_from(symbols), max_size=3))
            for sym in special:
                mono += [sym] * data.draw(st.integers(0, 2))
        mono = tuple(sorted(mono))
        *parts, scale = oracles.operator_terms(k, mono, surface, copy.rank)
        want = _outcome(
            lambda case: (
                oracles.part(case, parts[0]),
                oracles.part(case, parts[1]),
                oracles.part(case, parts[2], scale.numerator, scale.denominator),
            ),
            oracle_copy,
        )
        assert _outcome(Case.operator_parts, copy, k, mono) == want
        assert copy.certified_clearings == oracle_copy.certified_clearings

    def test_readme_example_values(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        parts = case.operator_parts(2, parse_monomial("ch_2(Z)"))
        assert parts == (Fraction(-1, 8), Fraction(-1, 4), Fraction(3, 8))


class TestCertificates:
    def test_clearings_are_counted(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        before = case.certified_clearings
        integral(case, parse_monomial("ch_2(F)ch_2(Z)ch_3(1)"))
        assert case.certified_clearings >= before
        assert case.certified_clearings > 0

    @pytest.mark.parametrize("q", [0, 18, 31, 47])
    def test_the_sweep_refuses_a_missing_fixed_point(self, case_of, q):
        # the integer operator terms reach the same certificates: the sweep
        # over a locus without point q stops at the first check it cannot clear
        _, case, _ = case_of("p2-r2-c2-3")
        with pytest.raises(NotDivisible):
            verify_conjecture(case.drop_point(q))

    def test_dropping_a_fixed_point_breaks_the_certificate(self, case_of):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        dropped = case.drop_point(0)
        assert dropped.n_points == case.n_points - 1
        with pytest.raises(NotDivisible):
            integral(dropped, parse_monomial("ch_2(F)^2"))


def integral(case, mono):
    """The integral of one monomial, through ``Case.integrate``."""
    return case.integrate(DescPoly.monomial(mono))


def tangent_weights(case):
    """The tangent weights of every fixed point of the case, with multiplicity."""
    return [[w for w, c in tangent.items() for _ in range(c)] for tangent in case.tangents()]


def oracle_integral(case, mono):
    """The Fraction reference path: realized products cleared by ``numerator``.

    The integer kernel of ``integral`` must agree with it on
    every value and on every ``NotDivisible``: the same check fires, and
    above vdim the same LCM factor is the first that does not divide.
    """
    den = CommonDenominator([linform(w) for w in ws] for ws in tangent_weights(case))
    values = [LaurentPoly.one()] * case.n_points
    for i, name in mono:
        values = [v * w for v, w in zip(values, case.realize_symbol(i, name))]
    deg = monomial_degree(mono, case.surface)
    num = den.numerator(values)
    if not num:
        return ZERO
    if deg < case.vdim:
        raise NotDivisible(f"a fixed-point sum of degree {deg - case.vdim} does not vanish")
    if deg == case.vdim:
        lead = max(den.poly.coeffs)
        c = num.coeffs.get(lead, ZERO) / den.poly.coeffs[lead]
        if num != den.poly * c:
            raise NotDivisible(
                "fixed-point sum does not clear to a constant; the fixed"
                " locus or tangent data is inconsistent"
            )
        return c
    for factor in den.factors:
        if len(factor) == 1:
            # exact_div divides by a monomial factor (s or t) as a Laurent
            # unit, so divisibility by it is read off the exponents
            ((fa, fb),) = factor.coeffs
            if any(a < fa or b < fb for a, b in num.coeffs):
                raise NotDivisible(f"not divisible by {factor.render()}")
        try:
            num = exact_div(num, factor)
        except NotDivisible:
            raise NotDivisible(f"not divisible by {factor.render()}") from None
    return num.coeffs.get((0, 0), ZERO)


def _outcome(integral, case, *args):
    """The value, or which certificate refused the sum (for a division: the factor)."""
    try:
        return integral(case, *args)
    except NotDivisible as exc:
        return ("NotDivisible", str(exc).rpartition(" by ")[2])


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
    case = Case(surface_by_name("p2"), 1, (0,), 0, (1,), (({(0, 0): 1},) * 3,) * n)
    case.vdim = n - 1
    # the tangent weights w_q - w_r, from which the case builds its denominator
    case._tangents = [
        {(wq[0] - wr[0], wq[1] - wr[1]): 1 for wr in weights if wr != wq} for wq in weights
    ]
    for k, c in enumerate(scalars):
        values = [form**k * c for form in forms]
        if perturb and perturb[0] == k:
            _k, q, delta = perturb
            bump = LaurentPoly.monomial(k, 0) + LaurentPoly.monomial(0, k)
            values[q] = values[q] + bump * delta
        set_symbol(case, (k, "p"), values)
    return case


def set_symbol(case, sym, values):
    """Make ``case`` realize ``sym`` (of degree ``sym[0]`` here) to ``values``.

    Call it before ``sym`` is first integrated: the kernel reads the
    symbol's support off these norms once.
    """
    scale, rows = oracles.integer_rows(oracles.dehomogenize(v, sym[0]) for v in values)
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
    # the LCM is s, which packs to 1: every remainder is 0, and only the
    # bound on the quotient refuses s - (s + t), no constant times s
    @example([(1, 0), (0, 0)], [ONE] * 6, [1], (1, 1, 1))
    def test_agrees_with_the_fraction_oracle(self, weights, cs, ks, perturb):
        # weights such as (0, 0) give zero values, (1, 0) and (1, 1) an LCM
        # factor t; the degree sum(ks) falls below, at and above vdim
        if perturb:
            perturb = (perturb[0], perturb[1] % len(weights), perturb[2])
        mono = tuple(sorted((k, "p") for k in ks))
        kernel = _outcome(integral, lagrange_case(weights, cs, perturb), mono)
        oracle = _outcome(oracle_integral, lagrange_case(weights, cs, perturb), mono)
        assert kernel == oracle

    def test_lagrange_identity_values(self):
        # sum_q w_q^2 / e_q is h_0 = 1 and w_q^3 gives h_1, which is 0 at s = t = 0
        weights = [(1, 0), (0, 1), (1, 1)]
        for k, want in [(1, ZERO), (2, Fraction(-3, 2)), (3, ZERO)]:
            case = lagrange_case(weights, [Fraction(-3, 2)] * 6, None)
            assert integral(case, ((k, "p"),)) == want
            assert case.certified_clearings == (k >= 2)

    def test_sum_not_divisible_by_a_monomial_factor_is_refused_above_dim(self):
        # e = -t and t: the sum is (2*s*t - s^2)/t, and division by t over
        # the integers leaves the coefficient of s^2 as a remainder
        case = lagrange_case([(1, 0), (1, 1)], [ONE] * 6, (2, 0, 1))
        with pytest.raises(NotDivisible, match="leaves a remainder by t$"):
            integral(case, ((2, "p"),))

    def test_negative_exponent_in_a_realized_value_is_refused(self):
        # 1 + s at the first point of P2 and 2 elsewhere is no equivariant
        # class: ch_2(1) sums to -s*t^-1/4, which is no polynomial
        charts = tuple(map(_character, ("1 + s", "2", "2")))
        case = Case(surface_by_name("p2"), 2, (0,), 0, (1,), (charts,))
        assert oracles.realize_symbol(case, 2, "1") == (parse_laurent("-1/4*s*t^-1"),)
        with pytest.raises(NotDivisible, match="leaves a remainder"):
            case.realize_symbol(2, "1")

    @pytest.mark.parametrize(
        "text, above, value, message",
        [
            ("ch_2(F)^3", 0, Fraction(27, 8), "does not clear to a constant"),
            ("ch_2(F)^4", 1, ZERO, "leaves a remainder by s$"),
        ],
    )
    def test_dropping_a_point_breaks_the_certificate_at_and_above_dim(
        self, case_of, text, above, value, message
    ):
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        mono = parse_monomial(text)
        assert monomial_degree(mono, case.surface) == case.vdim + above
        assert integral(case, mono) == value
        with pytest.raises(NotDivisible, match=message):
            integral(case.drop_point(0), mono)

    def test_only_a_step_remainder_refuses_a_missing_point_above_dim(self, case_of):
        # divide_linear can leave a step remainder only at a form a*s + b*t
        # with a >= 2; p2-r2-c2-3 has five (2s - 3t to 3s - t), and 3s - t
        # divides the Euler classes at points 18 and 31.  Values of degree
        # vdim + 1 there that give R/(3s - t) and -R/(3s - t) cancel; without
        # point 31 the sum R/(3s - t) is refused at a step of the division by
        # 3s - t, while the last equation of that division holds
        _, case, _ = case_of("p2-r2-c2-3")
        sym, form = (case.vdim + 1, "p"), linform((3, -1))
        R = parse_laurent("-s^2 - 2*s*t + t^2")
        euler = oracles.euler_classes(case)
        rests = {q: exact_div(euler[q], form) for q in (18, 31)}
        content = gcd(*(c.numerator for _key, c in rests[18]))
        values = [LaurentPoly.zero()] * case.n_points
        values[18] = rests[18] * R * Fraction(1, content)
        values[31] = rests[31] * R * Fraction(-1, content)
        full = Case(case.surface, case.rank, case.c1, case.c2, case.H, case.restrictions)
        full._tangents = case.tangents()
        set_symbol(full, sym, values)
        assert integral(full, (sym,)) == ZERO
        broken = full.drop_point(31)
        set_symbol(broken, sym, values[:31] + values[32:])
        with pytest.raises(NotDivisible, match=r"is not divisible by 3\*s - t$"):
            integral(broken, (sym,))
        assert _outcome(oracle_integral, broken, (sym,)) == ("NotDivisible", "3*s - t")

    def test_disjoint_supports_give_zero_without_a_clearing(self, case_of):
        # ch_1(p) is nonzero only at point 0 and ch_2(p) only at point 1, so
        # every point has a vanishing factor: the value is 0 and no
        # certificate is counted, as for a numerator that sums to 0
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        copy = Case(case.surface, case.rank, case.c1, case.c2, case.H, case.restrictions)
        copy._tangents = case.tangents()
        zero = [LaurentPoly.zero()] * (copy.n_points - 2)
        set_symbol(copy, (1, "p"), [parse_laurent("s")] + [LaurentPoly.zero()] + zero)
        set_symbol(copy, (2, "p"), [LaurentPoly.zero()] + [parse_laurent("t^2")] + zero)
        mono = ((1, "p"), (2, "p"))
        assert monomial_degree(mono, copy.surface) == copy.vdim
        assert (copy._support((1, "p")), copy._support((2, "p"))) == (0b01, 0b10)
        value = integral(copy, mono)
        assert value == ZERO and isinstance(value, Fraction)
        assert copy.certified_clearings == 0
        assert oracle_integral(copy, mono) == ZERO
        # where the supports meet, the kernel runs: s^3 at point 0 alone
        # does not clear
        with pytest.raises(NotDivisible):
            integral(copy, ((1, "p"), (1, "p"), (1, "p")))

    def test_a_vanishing_symbol_gives_zero_without_a_clearing(self, case_of):
        # normalized ch_1 vanishes at every point: 2088 of the 3993 monomials
        # of the p2-r2-c2-3 sweep have such a factor
        _, case, _ = case_of("p2-r2-c2-3")
        mono = parse_monomial("ch_2(H)^8ch_1(H)")
        assert monomial_degree(mono, case.surface) == case.vdim
        assert case._support((1, "H")) == 0
        before = case.certified_clearings
        value = integral(case, mono)
        assert value == ZERO and isinstance(value, Fraction)
        assert case.certified_clearings == before
        assert oracle_integral(case, mono) == ZERO

    def test_a_symbol_of_negative_index_integrates_to_zero(self, case_of):
        # ch_{<0} = 0 has no field of a packed key; its monomials are 0
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        copy = fresh(case)
        mono = ((-1, "p"), (2, "F"), (2, "Z"))
        assert integral(copy, mono) == ZERO == oracle_integral(copy, mono)
        assert copy.integrate(DescPoly.monomial(mono) + DescPoly.monomial(((2, "F"),) * 3)) == Fraction(
            27, 8
        )

    def test_an_unsorted_monomial_is_stored_under_its_sorted_key(self, case_of):
        # the memo is keyed by packed keys, which do not see the order of the
        # factors, and a DescPoly stores its keys sorted: D written in any
        # order finds, and fills, the one entry of the sorted key
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        copy = Case(case.surface, case.rank, case.c1, case.c2, case.H, case.restrictions)
        copy._tangents = case.tangents()
        mono = next(m for m in monomial_basis(copy.surface, copy.vdim) if m != m[::-1])
        value = integral(copy, mono[::-1])
        assert value == oracle_integral(copy, mono)
        assert integral(copy, mono) == value
        assert integral(copy, mono[::-1]) == value
        assert list(oracles.integrals(copy)) == [mono]

    @pytest.mark.parametrize("case_id", ["p2-r3-c2-2", "f0-FZ-c2-2-H2F5Z"])
    def test_basis_integrals_match_the_oracle(self, case_of, case_id):
        # the sweep's monomials D of degree vdim - k, k in [-1, vdim]
        _, case, _ = case_of(case_id)
        for k in range(-1, case.vdim + 1):
            for mono in monomial_basis(case.surface, case.vdim - k):
                assert integral(case, mono) == oracle_integral(case, mono)


def fresh(case):
    """A copy of ``case`` with the same tangents and no integral, symbol or constant memoized."""
    copy = Case(case.surface, case.rank, case.c1, case.c2, case.H, case.restrictions)
    copy._tangents = case.tangents()
    return copy


def kernel_integral(case, mono):
    """The kernel alone on the whole monomial: a case that admitted no symbol strips none."""
    assert not case._constant_mask
    return Fraction(*case._integrate(case._packing.key(mono)))


def degree_zero_symbols(surface):
    """``ch_2(1)``, ``ch_1(D)`` for every divisor ``D`` and ``ch_0(p)``."""
    names = ["1", *surface.divisor_names, "p"]
    return [(2 - surface.class_degree(name), name) for name in names]


class TestDegreeZeroFactors:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["p2-r2-c2-3", "f0-FZ-c2-2-H2F5Z"]), st.integers(-1, 1), st.data())
    def test_stripped_integral_equals_the_kernel_and_the_oracle(
        self, case_of, case_id, above, data
    ):
        # a restricted monomial of degree vdim - 1, vdim or vdim + 1, times
        # degree-0 symbols: the constants ch_2(1) and ch_0(p) at random
        # multiplicities, the vanishing ch_1(D) now and then
        _, case, _ = case_of(case_id)
        rest = data.draw(st.sampled_from(monomial_basis(case.surface, case.vdim + above)))
        extra = []
        for sym in degree_zero_symbols(case.surface):
            counts = st.integers(0, 3) if case._constant(sym) else st.sampled_from([0, 0, 0, 1])
            extra += [sym] * data.draw(counts)
        mono = tuple(sorted(rest + tuple(extra)))
        stripped = fresh(case)
        outcome = _outcome(integral, stripped, mono)
        assert outcome == _outcome(kernel_integral, fresh(case), mono)
        assert outcome == _outcome(oracle_integral, case, mono)
        if extra and all(stripped._constant(sym) for sym in extra):
            # the constants leave as one factor; only the rest is cleared.  A
            # monomial with a factor that vanishes everywhere (ch_3(1) on f0)
            # integrates to 0 by the zero mask and is not kept
            vanishes = stripped._packing.key(mono) & stripped._zero_mask
            want = set() if vanishes else {mono, tuple(sorted(rest))}
            assert set(oracles.integrals(stripped)) == want

    def test_every_sweep_integral_equals_the_kernel_on_the_whole_monomial(self, case_of):
        _, case, _ = case_of("p2-r2-c2-3")
        sweep, kernel = fresh(case), fresh(case)
        verify_conjecture(sweep)
        # 2088 of the 3993 distinct monomials have a factor that vanishes at
        # every point; their terms are never built
        assert len(sweep._integrals) == 3993 - 2088
        assert not any(key & sweep._zero_mask for key in sweep._integrals)
        for mono, value in oracles.integrals(sweep).items():
            assert kernel_integral(kernel, mono) == Fraction(*value), mono
        # the unstripped monomials take a clearing each that the stripped
        # sweep shares between the monomials with the same rest
        assert (sweep.certified_clearings, kernel.certified_clearings) == (322, 1610)

    def test_the_sweep_work_counts(self, case_of):
        # p2-r2-c2-3: 1905 distinct integrals, 381 of them reach the kernel,
        # and 322 clearings; the kept prefix products cut the 1650 factor
        # passes of one pass per factor copy to 608.  The sweep realizes the
        # 27 symbols of its terms, skipped ones too, no more
        _, case, _ = case_of("p2-r2-c2-3")
        sweep = fresh(case)
        verify_conjecture(sweep)
        assert (len(sweep._integrals), sweep.kernel_calls, sweep.certified_clearings) == (
            1905,
            381,
            322,
        )
        assert len(sweep._int_symbols) == 27
        # the kernel ran on the integrals without a constant factor, one pass
        # per copy each would be 1650 passes
        kernel = [key for key in sweep._integrals if not key & sweep._constant_mask]
        assert len(kernel) == 381
        assert sum(len(oracles.monomial(sweep._packing, key)) for key in kernel) == 1650
        assert sweep.factor_passes <= 608
        assert len(sweep._prefixes) <= 4  # only the last few prefixes are kept

    @pytest.mark.parametrize("off", [-2, 5])
    def test_a_symbol_is_factored_only_where_it_is_one_constant(self, case_of, off):
        # ch_0(p) is the constant -2; injected as -2 where ch_3(1) is nonzero
        # (42 of 48 points) and as `off` elsewhere, it is one constant only
        # when off = -2.  Otherwise the kernel clears it with the rest, and
        # the product equals -2 * ch_3(1)^2 ch_2(H)^6 at every point
        _, case, _ = case_of("p2-r2-c2-3")
        copy = fresh(case)
        sym = (0, "p")
        rest = parse_monomial("ch_3(1)^2ch_2(H)^6")
        norms = case._integer_symbol((3, "1"))[2]
        set_symbol(copy, sym, [LaurentPoly.const(-2 if norm else off) for norm in norms])
        mono = tuple(sorted(rest + (sym,)))
        value = integral(copy, mono)
        assert value == -2 * Fraction(-45, 32) == oracle_integral(copy, mono)
        assert (copy._constant(sym) is None) == (off != -2)
        assert copy.certified_clearings == 1
        assert set(oracles.integrals(copy)) == ({mono} if off != -2 else {mono, rest})

    def test_a_symbol_that_differs_between_points_is_refused_as_by_the_oracle(self, case_of):
        _, case, _ = case_of("p2-r2-c2-3")
        copy = fresh(case)
        sym = (0, "p")
        set_symbol(copy, sym, [LaurentPoly.const(1 + q % 2) for q in range(copy.n_points)])
        mono = tuple(sorted(parse_monomial("ch_3(1)^2ch_2(H)^6") + (sym,)))
        outcome = _outcome(integral, copy, mono)
        assert copy._constant(sym) is None
        assert outcome == _outcome(oracle_integral, copy, mono)
        assert outcome[0] == "NotDivisible"

    def test_a_positive_degree_symbol_equal_at_every_point_is_not_factored(self, case_of):
        # ch_1(p) = s + t at every point is no constant: times ch_2(F)^3
        # (27/8 at vdim) the sum is 27/8 * (s + t), whose value at the origin is 0
        _, case, _ = case_of("f0-FZ-c2-2-H2F5Z")
        copy = fresh(case)
        sym = (1, "p")
        set_symbol(copy, sym, [parse_laurent("s + t")] * copy.n_points)
        mono = tuple(sorted(parse_monomial("ch_2(F)^3") + (sym,)))
        assert copy._constant(sym) is None
        assert integral(copy, mono) == ZERO == oracle_integral(copy, mono)

    @pytest.mark.parametrize("case_id", ["f0-FZ-c2-2-H2F5Z", "p2-r2-c2-3"])
    def test_permuted_fixed_points_give_the_same_sweep(self, case_of, case_id):
        _, case, _ = case_of(case_id)
        order = list(range(case.n_points))
        random.Random(0).shuffle(order)
        permuted = Case(
            case.surface, case.rank, case.c1, case.c2, case.H,
            tuple(case.restrictions[q] for q in order),
        )
        straight = fresh(case)
        assert verify_conjecture(permuted) == verify_conjecture(straight)
        assert permuted._integrals == straight._integrals
        assert permuted.certified_clearings == straight.certified_clearings


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
        charts = [{}] * srf.n_points
        for _ in range(rank):
            flags = [Flag(1, ((d, Subspace.full(1)),)) for d in draw(jumps)]
            line = bundle_from_flags(srf, 1, flags)
            charts = [_add(c, line.restriction(p)) for c, p in zip(charts, srf.points)]
        if draw(st.booleans()):
            p = draw(st.integers(0, srf.n_points - 1))
            a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            charts[p] = _add(charts[p], {(a, b): draw(st.integers(-2, 2))})
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

    def test_only_a_step_remainder_refuses_a_realization_on_f2(self):
        # f2 is the one bundled surface with a tangent form a*s + b*t with
        # a >= 2 (2s + t), where alone divide_linear can leave a step
        # remainder.  A line bundle plus the character s^2*t at the third
        # point is no class: ch_3(1) is refused at a step of the division by
        # 2s + t, while the last equation of that division holds
        charts = ("s^-2", "s^-2*t^-1", "s^2*t + s^-3*t^-1", "s^-1")
        case = Case(surface_by_name("f2"), 1, (0, 0), 0, (1, 1), (tuple(map(_character, charts)),))
        with pytest.raises(NotDivisible, match=r"is not divisible by 2\*s \+ t$"):
            case.realize_symbol(3, "1")
        with pytest.raises(NotDivisible):
            oracles.realize_symbol(case, 3, "1")

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


# the symbols each bundled sweep realized when it ran on tuple terms
REALIZED_SYMBOLS = {
    "f0-F-c2-1": 8,
    "f0-F-c2-2-H2F7Z": 24,
    "f0-F-c2-2-H3F5Z": 24,
    "f0-FZ-c2-2-H2F5Z": 16,
    "f0-FZ-c2-2-H5F2Z": 16,
    "f1-F-c2-1": 8,
    "f1-FZ-c2-1": 4,
    "f1-Z-c2-1": 12,
    "f2-F-c2-1": 8,
    "f2-FZ-c2-1": 8,
    "f2-Z-c2-1": 16,
    "p2-r2-c2-1": 3,
    "p2-r2-c2-2": 15,
    "p2-r2-c2-3": 27,
    "p2-r3-c2-2": 9,
    "p2-r4-c2-3": 21,
}


class _Lookups(_Memo):
    """An integral memo that counts the terms ``Case._sum`` looks up (every one it does not skip).

    A lookup made while an integral is computed (a monomial less its
    constant factors) is not a term and is not counted.
    """

    gets = depth = 0

    def __getitem__(self, key):
        self.gets += not self.depth
        return super().__getitem__(key)

    def __missing__(self, key):
        self.depth += 1
        try:
            return super().__missing__(key)
        finally:
            self.depth -= 1


class TestVanishingFactors:
    def test_a_skipped_term_still_realizes_every_symbol(self, case_of):
        # ch_1(H) vanishes at every point and sorts before ch_3(1): the
        # term is skipped, but both symbols run their surface clearing
        _, case, _ = case_of("p2-r2-c2-3")
        copy = fresh(case)
        assert integral(copy, parse_monomial("ch_3(1)ch_1(H)")) == 0
        assert set(copy._int_symbols) == {(1, "H"), (3, "1")}
        assert not copy._integrals and copy.certified_clearings == 0

    def test_no_bundled_sweep_builds_a_term_with_a_vanishing_factor(
        self, case_of, all_case_ids, is_built
    ):
        # the packed parts skip exactly the terms with a factor that
        # vanishes at every point, and they equal the oracle's parts of the
        # unfiltered tuple terms: each skipped integral is the kernel's 0,
        # with no clearing.  Every symbol of every term is still realized.
        # The rank-4 case joins when already built
        dropped = 0
        for case_id in all_case_ids:
            if case_id == "p2-r4-c2-3" and not is_built(case_id):
                continue
            _, case, _ = case_of(case_id)
            filtered, whole = fresh(case), fresh(case)
            filtered._integrals = lookups = _Lookups(filtered._integrate)
            terms, skipped, symbols = 0, 0, set()
            for k in range(-1, case.vdim + 1):
                for mono in monomial_basis(case.surface, case.vdim - k):
                    *parts, scale = oracles.operator_terms(k, mono, case.surface, case.rank)
                    r, t, s = parts
                    assert filtered.operator_parts(k, mono) == (
                        oracles.part(whole, r),
                        oracles.part(whole, t),
                        oracles.part(whole, s, scale.numerator, scale.denominator),
                    ), (case_id, k, mono)
                    for m in (m for part in parts for m in part):
                        terms += 1
                        skipped += not all(map(whole._supports.__getitem__, m))
                        symbols.update(m)
            assert terms - lookups.gets == skipped, case_id
            assert filtered.certified_clearings == whole.certified_clearings, case_id
            # the oracle kept the vanishing integrals; the packed sweep kept the rest
            kept = {key for key in whole._integrals if not key & whole._zero_mask}
            assert len(kept) < len(whole._integrals) or not skipped, case_id
            assert set(filtered._integrals) == kept, case_id
            assert set(filtered._int_symbols) == symbols, case_id
            assert len(symbols) == REALIZED_SYMBOLS[case_id], case_id
            dropped += skipped
        assert dropped >= 4405  # the p2-r2-c2-3 sweep alone drops 4405 terms
