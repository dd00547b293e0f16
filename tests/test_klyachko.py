"""Flagged filtration data: subspaces, flags, sheaves, Chern invariants."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import pytest

import toric_virasoro
from toric_virasoro import golden
from toric_virasoro.enumeration import chamber_representatives, fixed_locus_cached
from toric_virasoro.klyachko import (
    Flag,
    Subspace,
    bundle_from_flags,
    chern_invariants,
    degeneration_children,
    degeneration_colength,
    bundle_from_flags,
    _weighted_jump_sum,
)
from toric_virasoro.surfaces import surface_by_name


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

    def test_jump_sum_and_shift(self):
        line = Subspace.span(2, [[1, 0]])
        flag = Flag(2, ((1, line), (4, Subspace.full(2))))
        own_dims = [1, 2]
        assert _weighted_jump_sum(flag, own_dims) == 1 + 4
        shifted = Flag(flag.rank, tuple((p + 2, s) for p, s in flag.steps))
        assert _weighted_jump_sum(shifted, own_dims) == 3 + 6


class TestSheaves:
    def test_rank_one_restrictions_are_single_characters(self):
        srf = surface_by_name("p2")
        flags = [Flag(1, ((d, Subspace.full(1)),)) for d in (0, 1, -2)]
        sheaf = bundle_from_flags(srf, 1, flags)
        for chart in sheaf.restrictions():
            assert len(chart.coeffs) == 1
            assert set(chart.coeffs.values()) == {Fraction(1)}
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
            chart = sheaf.restriction(sheaf.surface.points[0])
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
        # a Subspace repr holds its rows, not a memory address
        script = (
            "from toric_virasoro.enumeration import fixed_locus_cached\n"
            "for sheaf in fixed_locus_cached('f0', 2, (1, 0), 2, (3, 5)):\n"
            "    print(repr(sheaf.key()))\n"
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
        assert "Subspace(2, " in outs[0] and " at 0x" not in outs[0]

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
