"""Flagged filtration data: subspaces, flags, sheaves, Chern invariants."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import LaurentPoly

import toric_virasoro
from toric_virasoro import golden
from toric_virasoro.enumeration import chamber_representatives, fixed_locus_cached
from toric_virasoro.exactalg import NotDivisible
from toric_virasoro.klyachko import (
    Flag,
    Subspace,
    NonIsolated,
    bundle_from_flags,
    chern_invariants,
    degeneration_children,
    degeneration_colength,
    jump_pairs,
)
from toric_virasoro.localization import Case
from toric_virasoro.surfaces import Surface, surface_by_name


class TestSubspace:
    def test_span_and_dim(self):
        V = Subspace.span(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert V.dim == 2
        assert V.contains([5, -3, 0])
        assert not V.contains([0, 0, 1])
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3

    def test_canonical_equality_and_hash(self):
        A = Subspace.span(2, [[1, 1]])
        B = Subspace.span(2, [[2, 2]])
        assert A == B
        assert hash(A) == hash(B)
        assert A <= Subspace.full(2)
        assert Subspace.zero(2) < A

    def test_sum_intersect_dimension_formula(self):
        A = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        B = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
        S = A.sum(B)
        I = A.intersect(B)
        assert S.dim + I.dim == A.dim + B.dim
        assert S == Subspace.full(3)
        assert I == Subspace.span(3, [[0, 1, 0]])

    def test_fraction_entries(self):
        A = Subspace.span(2, [[Fraction(1, 2), Fraction(1, 3)]])
        assert A == Subspace.span(2, [[3, 2]])


_entries = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _rows(draw, n):
    """Up to n + 1 integer or ``Fraction`` rows, often with a combination of
    them appended, so that empty, zero and dependent inputs all occur."""
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), max_size=n + 1))
    if rows and draw(st.booleans()):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(n)])
    return rows


@st.composite
def _side(draw, n, inside=()):
    """Rows of a subspace that is often exactly 0, a line or V, a line in the
    span of the rows ``inside``, or spanned by 2 to n - 1 rows, so that every
    shortcut of ``sum`` and ``intersect`` runs, besides the rows of :func:`_rows`."""
    kind = draw(st.sampled_from(["rows", "some", "zero", "line", "full", "inside"]))
    if kind == "some":
        row = st.lists(_entries, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=2, max_size=max(2, n - 1)))
    if kind == "zero":
        return [[0] * n] * draw(st.integers(0, 2))
    if kind == "full":
        return [[int(i == j) for j in range(n)] for i in range(n)] + draw(_rows(n))
    if kind == "inside" and inside:
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(inside), max_size=len(inside)))
        return [[sum(c * row[j] for c, row in zip(coefs, inside)) for j in range(n)]]
    if kind in ("line", "inside"):
        v = draw(st.lists(_entries, min_size=n, max_size=n).filter(any))
        return [v] + [[2 * x for x in v]] * draw(st.integers(0, 1))
    return draw(_rows(n))


def _assert_scaled_rref(space, ref):
    """Each row is the primitive integer row that is a positive multiple of the RREF row."""
    assert len(space.rows) == len(ref.rows)
    for row, ref_row in zip(space.rows, ref.rows):
        assert all(type(x) is int for x in row) and gcd(*row) == 1
        scale = row[next(c for c, x in enumerate(ref_row) if x)]
        assert scale > 0 and list(row) == [scale * x for x in ref_row]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_subspace_operations_match_the_fraction_kernel(data):
    n = data.draw(st.integers(1, 5), label="n")
    a_rows = data.draw(_side(n), label="A")
    b_rows = data.draw(_side(n, a_rows), label="B")
    A, B = Subspace(n, a_rows), Subspace(n, b_rows)
    FA, FB = oracles.FractionSubspace(n, a_rows), oracles.FractionSubspace(n, b_rows)
    _assert_scaled_rref(A, FA)
    _assert_scaled_rref(B, FB)
    assert Subspace(n, FA.rows) == A
    S, I = A.sum(B), A.intersect(B)
    for got in (S, B.sum(A)):
        _assert_scaled_rref(got, FA.sum(FB))
    for got in (I, B.intersect(A)):
        _assert_scaled_rref(got, FA.intersect(FB))
    assert I.dim + S.dim == A.dim + B.dim
    assert (A <= B, B <= A, I <= A, A <= S) == (FA <= FB, FB <= FA, True, True)
    vector = data.draw(st.lists(_entries, min_size=n, max_size=n), label="v")
    for v in b_rows + [vector]:
        assert A.contains(v) == FA.contains(v)


class TestFlag:
    def full_jump(self, rank, pos):
        return Flag(rank, ((pos, Subspace.full(rank)),))

    def test_at_is_monotone(self):
        line = Subspace.span(2, [[1, 0]])
        flag = Flag(2, ((0, line), (3, Subspace.full(2))))
        assert flag.at(-1) == Subspace.zero(2)
        assert flag.at(0) == line
        assert flag.at(2) == line
        assert flag.at(3) == Subspace.full(2)
        assert flag.at(100) == Subspace.full(2)

    def test_invalid_flags_rejected(self):
        line = Subspace.span(2, [[1, 0]])
        with pytest.raises(ValueError):
            Flag(2, ((0, line),))  # does not end in the full space
        with pytest.raises(ValueError):
            Flag(2, ((2, line), (1, Subspace.full(2))))  # positions decrease
        with pytest.raises(ValueError):
            Flag(2, ((0, Subspace.full(2)), (1, Subspace.full(2))))  # dims stall
        e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
        not_nested = ((0, Subspace.span(3, [e1])), (1, Subspace.span(3, [e2, e3])))
        with pytest.raises(ValueError, match="nested"):
            Flag(3, (*not_nested, (2, Subspace.full(3))))
        nested = ((0, Subspace.span(3, [e1])), (1, Subspace.span(3, [e1, e3])))
        assert Flag(3, (*nested, (2, Subspace.full(3)))).jumps == ((0, 1), (1, 1), (2, 1))

    def test_jump_sum_and_shift(self):
        line = Subspace.span(2, [[1, 0]])
        flag = Flag(2, ((1, line), (4, Subspace.full(2))))
        own_dims = [1, 2]
        assert oracles._weighted_jump_sum(flag, own_dims) == 1 + 4
        shifted = Flag(flag.rank, tuple((p + 2, s) for p, s in flag.steps))
        assert oracles._weighted_jump_sum(shifted, own_dims) == 3 + 6


class TestSheaves:
    def test_rank_one_restrictions_are_single_characters(self):
        srf = surface_by_name("p2")
        flags = [Flag(1, ((d, Subspace.full(1)),)) for d in (0, 1, -2)]
        sheaf = bundle_from_flags(srf, 1, flags)
        for chart in sheaf.charts:
            ((_weight, c),) = chart.items()
            assert type(c) is int and c == 1
        rank, _c1, c2 = chern_invariants(sheaf)
        assert rank == 1
        assert c2 == 0

    def test_rank_one_twist_displacement_is_flag_independent(self):
        srf = surface_by_name("f1")

        def c1_of(jumps):
            flags = [Flag(1, ((d, Subspace.full(1)),)) for d in jumps]
            return chern_invariants(bundle_from_flags(srf, 1, flags))[1]

        assert c1_of((0, 0, 0, 0)) == (0, 0)
        unit = c1_of((1, 1, 1, 1))
        for jumps in ((0, 2, 1, 0), (-1, 0, 3, 2)):
            base = c1_of(jumps)
            shifted = c1_of(tuple(d + 1 for d in jumps))
            assert shifted == tuple(x + y for x, y in zip(base, unit))

    def test_enumerated_bundles_have_requested_invariants(self):
        locus = fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5))
        assert len(locus) == 4
        for sheaf in locus:
            assert sheaf.is_locally_free
            assert chern_invariants(sheaf) == (2, (1, 1), 2)
            chart = LaurentPoly(sheaf.restriction(sheaf.surface.points[0]))
            assert oracles.substitute_st(chart, Fraction(1), Fraction(1)) == 2

    def test_degeneration_raises_c2_by_colength(self):
        locus = fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5))
        parent = locus[0]
        assert degeneration_colength(parent) == 0
        children = degeneration_children(parent, budget=1)
        assert children
        for child in children:
            assert degeneration_colength(child) == 1
            assert not child.is_locally_free
            rank, c1, c2 = chern_invariants(child)
            assert (rank, c1) == (2, (1, 1))
            assert c2 == 3

    def test_key_separates_distinct_sheaves(self):
        locus = fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5))
        keys = {sheaf.key() for sheaf in locus}
        assert len(keys) == len(locus)

    def test_key_repr_does_not_depend_on_hash_seed(self):
        # a Subspace repr holds its rows, not a memory address; the rank-3
        # input runs the rank-3 window search and its lattice closures
        script = (
            "from toric_virasoro.enumeration import fixed_locus_cached\n"
            "for args in [('f0', 2, (1, 0), 2, (3, 5)), ('p2', 3, (1,), 3, (1,))]:\n"
            "    for sheaf in fixed_locus_cached(*args):\n"
            "        print(repr(sheaf.key()))\n"
        )
        src = str(Path(toric_virasoro.__file__).resolve().parents[1])
        outs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "Subspace(2, " in outs[0] and "Subspace(3, " in outs[0] and " at 0x" not in outs[0]
        assert len(outs[0].splitlines()) == 22 + 42

    def test_integer_chern_invariants_match_the_fraction_oracle(self, case_of):
        # every sheaf of the ten f0 chambers (c1 = F + Z, c2 = 3) and of the
        # bundled rank-2/3 cases
        sheaves = [
            sheaf
            for H in chamber_representatives(surface_by_name("f0"), 2, (1, 1), 3)
            for sheaf in fixed_locus_cached("f0", 2, (1, 1), 3, H)
        ]
        assert len(sheaves) == 192
        for case_id in golden.list_cases():
            if golden.load_case(case_id).rank in (2, 3):
                sheaves += case_of(case_id)[2]
        for sheaf in sheaves:
            assert chern_invariants(sheaf) == oracles.chern_invariants(sheaf)


class _CountingDenominator:
    """Delegates to a ``LinearDenominator`` and counts the ``clear`` calls."""

    def __init__(self, den):
        self.den, self.scale, self.calls = den, den.scale, 0

    def clear(self, nums, deg):
        self.calls += 1
        return self.den.clear(nums, deg)


def _surface_with(name, intersection=None):
    """A fresh copy of a bundled surface, optionally with another intersection form."""
    S = surface_by_name(name)
    return Surface(
        S.name,
        S.rays,
        S.cones,
        S.divisor_names,
        S.ray_classes,
        intersection or S.intersection,
        S.basis_reps,
        S.kunneth,
    )


def _chart_data(surface, charts):
    """Stands in for a sheaf: only the surface and the charts are read."""
    return SimpleNamespace(surface=surface, charts=tuple(charts))


def _line_bundle(surface, positions):
    flags = [Flag(1, ((d, Subspace.full(1)),)) for d in positions]
    return bundle_from_flags(surface, 1, flags)


class TestChernRefusals:
    """Inputs that are no sheaf are refused, never given invariants."""

    def test_inconsistent_ranks(self):
        data = _chart_data(surface_by_name("f0"), [{(0, 0): 1}] * 3 + [{(0, 0): 2}])
        with pytest.raises(ValueError, match="inconsistent ranks"):
            chern_invariants(data)

    def test_non_integral_chart_coefficient(self):
        # charts reach the sums from a sheaf, as integer characters, or from
        # outside through a Case, which refuses a coefficient that is no int
        # (recorded charts are refused by golden.load_case)
        charts = ({(0, 0): 1},) * 3 + ({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},)
        with pytest.raises(ValueError, match="non-integral coefficient"):
            Case(surface_by_name("f0"), 1, (0, 0), 0, (1, 1), (charts,))

    # O on F0 with one chart moved off its character: each move breaks one
    # surface sum, the pairing of ch_1 with F (call 1) or Z (call 2), or ch_2
    @pytest.mark.parametrize("point,char,call", [(0, (1, 0), 1), (0, (0, 1), 2), (2, (1, 0), 3)])
    def test_a_perturbed_chart_does_not_clear(self, point, char, call):
        S = _surface_with("f0")
        S.tangent_denominator = _CountingDenominator(S.tangent_denominator)
        charts = [{(0, 0): 1}] * 4
        charts[point] = {char: 1}
        assert chern_invariants(_chart_data(S, [{(0, 0): 1}] * 4)) == (1, (0, 0), 0)
        S.tangent_denominator.calls = 0
        with pytest.raises(NotDivisible):
            chern_invariants(_chart_data(S, charts))
        assert S.tangent_denominator.calls == call

    def test_non_integral_c1(self):
        # O(F) pairs to (F, Z) = (0, 1); against the form F.Z = 2 that is F/2
        S = _surface_with("f0", [[0, 2], [2, 0]])
        sheaf = _line_bundle(S, (-1, 0, 0, 0))
        with pytest.raises(ValueError, match="non-integral first Chern class"):
            chern_invariants(sheaf)
        assert chern_invariants(_line_bundle(S, (-2, 0, 0, 0))) == (1, (1, 0), 0)

    def test_non_integral_c2(self):
        # against the form F^2 = Z^2 = 1, F.Z = 0, O(F) has c1 = Z and
        # c1^2 = 1, while ch_2 = 0 by localization: c2 = 1/2
        S = _surface_with("f0", [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="non-integral c2 = 1/2"):
            chern_invariants(_line_bundle(S, (-1, 0, 0, 0)))
        assert chern_invariants(_line_bundle(S, (-1, -1, 0, 0))) == (1, (1, 1), 0)


# ---------------------------------------------------------------------------
# restrictions from the jump pairs against the grid walk


@st.composite
def _flags(draw, rank):
    """A flag of Q^rank whose spaces are spanned by small vectors, padded by
    the unit vectors, so that the flags of different rays often share spaces."""
    vectors = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * rank), max_size=rank + 1))
    units = [tuple(int(k == l) for k in range(rank)) for l in range(rank)]
    chain = []
    space = Subspace.zero(rank)
    for v in vectors + units:
        bigger = space.sum(Subspace.span(rank, [v]))
        if bigger.dim > space.dim:
            chain.append(bigger)
            space = bigger
    keep = draw(st.lists(st.booleans(), min_size=rank - 1, max_size=rank - 1))
    spaces = [s for s, k in zip(chain, keep) if k] + [chain[-1]]
    pos = draw(st.integers(-3, 3))
    steps = []
    for space in spaces:
        steps.append((pos, space))
        pos += draw(st.integers(1, 3))
    return Flag(rank, tuple(steps))


@st.composite
def _bundles(draw):
    srf = surface_by_name(draw(st.sampled_from(["p2", "f0", "f1", "f2"]), label="surface"))
    rank = draw(st.integers(1, 4), label="rank")
    flags = [draw(_flags(rank), label=f"flag {i}") for i in range(len(srf.rays))]
    return bundle_from_flags(srf, rank, flags)


def _assert_restrictions_match_the_grid_walk(sheaf):
    for point in sheaf.surface.points:
        got, want = sheaf.restriction(point), oracles.character(oracles.restriction(sheaf, point))
        assert got == want, (point.index, got, want)
        assert all(type(c) is int for c in got.values())
        # the terms come in the chart order of the walk, too
        assert list(got) == list(want)


@st.composite
def _overridden(draw, sheaf):
    """The sheaf with up to two chart cells per point cut down to a subspace of
    the bundle's value there (any drop, so also ones no degeneration makes)."""
    families = []
    for point in sheaf.surface.points:
        r1, r2 = sheaf.chart_window(point)
        cells = st.tuples(st.sampled_from(r1), st.sampled_from(r2))
        over = {}
        for n1, n2 in draw(st.lists(cells, max_size=2, unique=True)):
            rows = sheaf.family_value(point, n1, n2).rows
            keep = draw(st.integers(0, max(0, len(rows) - 1)))
            over[(n1, n2)] = Subspace.span(sheaf.rank, rows[:keep])
        families.append(tuple(sorted(over.items())) or None)
    return replace(sheaf, families=tuple(families))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_with_any_local_family_matches_the_grid_walk(data):
    sheaf = data.draw(_bundles(), label="bundle")
    _assert_restrictions_match_the_grid_walk(data.draw(_overridden(sheaf), label="families"))


@settings(max_examples=60, deadline=None)
@given(sheaf=_bundles())
def test_restriction_matches_the_grid_walk(sheaf):
    # on the bundle, on its one-site degenerations and on theirs (two local
    # family sites, possibly at the same point)
    _assert_restrictions_match_the_grid_walk(sheaf)
    try:
        children = degeneration_children(sheaf, budget=2)
        for child in children[:6]:
            _assert_restrictions_match_the_grid_walk(child)
            for grandchild in degeneration_children(child, budget=1)[:3]:
                _assert_restrictions_match_the_grid_walk(grandchild)
    except NonIsolated:
        pass


def _assert_charts_are_the_memoized_grid_walk(sheaves):
    for sheaf in sheaves:
        points = sheaf.surface.points
        want = tuple(oracles.character(oracles.restriction(sheaf, p)) for p in points)
        assert sheaf.charts == want
        assert all(type(c) is int for chart in sheaf.charts for c in chart.values())
        assert sheaf.charts is sheaf.charts


def _chart_values(sheaves):
    return [[dict(chart) for chart in sheaf.charts] for sheaf in sheaves]


def test_charts_of_every_chamber_match_the_grid_walk():
    f0 = surface_by_name("f0")
    for H in chamber_representatives(f0, 2, (1, 1), 3):
        _assert_charts_are_the_memoized_grid_walk(fixed_locus_cached("f0", 2, (1, 1), 3, H))


@pytest.mark.parametrize("case_id", golden.list_cases())
def test_cases_share_the_memoized_charts_and_leave_them_unchanged(case_of, case_id):
    _gold, case, sheaves = case_of(case_id)
    _assert_charts_are_the_memoized_grid_walk(sheaves)
    assert all(row is sheaf.charts for row, sheaf in zip(case.restrictions, sheaves))
    before = _chart_values(sheaves)
    oracles.twisted(case, (1, -2)).tangents()
    if case.n_points:
        case.drop_point(0).tangents()
    assert _chart_values(sheaves) == before


def test_jump_pairs_of_coincident_and_general_lines():
    e1, e2 = Subspace.span(2, [[1, 0]]), Subspace.span(2, [[0, 1]])
    V = Subspace.full(2)
    first = Flag(2, ((0, e1), (2, V)))
    assert jump_pairs(first, Flag(2, ((1, e1), (3, V)))) == [(0, 1, 1), (2, 3, 1)]
    assert jump_pairs(first, Flag(2, ((1, e2), (3, V)))) == [(0, 3, 1), (2, 1, 1)]
    assert jump_pairs(first, Flag(2, ((5, V),))) == [(0, 5, 1), (2, 5, 1)]
