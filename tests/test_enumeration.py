"""Fixed-locus enumeration: counts, walls, chambers, consistency checks."""

from fractions import Fraction

import pytest

from toric_virasoro.enumeration import (
    EnumerationError,
    _bogomolov_floor,
    chamber_representatives,
    enumerate_bundles,
    fixed_locus_cached,
    hirzebruch_ch2_check,
    wall_slopes,
)
from toric_virasoro.golden import canonical_row_key
from toric_virasoro.klyachko import chern_invariants
from toric_virasoro.surfaces import surface_by_name


def canonical_multiset(locus):
    return sorted(canonical_row_key(sheaf.restrictions()) for sheaf in locus)


class TestProjectivePlaneCounts:
    @pytest.mark.parametrize(
        "c2,n_bundles,n_fixed",
        [(1, 1, 1), (2, 3, 9), (3, 3, 48)],
    )
    def test_rank_two(self, c2, n_bundles, n_fixed):
        srf = surface_by_name("p2")
        assert len(enumerate_bundles(srf, 2, (1,), c2, (1,))) == n_bundles
        assert len(fixed_locus_cached("p2", 2, (1,), c2, (1,))) == n_fixed

    def test_rank_three(self):
        locus = fixed_locus_cached("p2", 3, (1,), 2, (1,))
        assert len(locus) == 3
        assert all(s.is_locally_free for s in locus)
        assert all(chern_invariants(s) == (3, (1,), 2) for s in locus)

    def test_rank_four(self):
        locus = fixed_locus_cached("p2", 4, (-1,), 3, (1,))
        assert len(locus) == 13
        assert all(s.is_locally_free for s in locus)
        assert all(chern_invariants(s) == (4, (-1,), 3) for s in locus)


class TestHirzebruchCounts:
    def test_f0_small_cases(self):
        assert len(fixed_locus_cached("f0", 2, (1, 0), 1, (3, 5))) == 2
        assert len(fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5))) == 4

    def test_f0_two_chambers(self):
        low = fixed_locus_cached("f0", 2, (1, 0), 2, (2, 7))
        high = fixed_locus_cached("f0", 2, (1, 0), 2, (3, 5))
        assert len(low) == 6
        assert len(high) == 22
        assert sum(s.is_locally_free for s in low) == 6
        assert sum(s.is_locally_free for s in high) == 6
        shared = set(canonical_multiset(low)) & set(canonical_multiset(high))
        assert len(shared) == 2

    @pytest.mark.parametrize(
        "surface,delta,c2,H,count",
        [
            ("f1", (1, 0), 1, (4, 3), 2),
            ("f1", (0, 1), 1, (3, 2), 3),
            ("f1", (1, 1), 1, (3, 2), 1),
            ("f2", (1, 0), 1, (7, 3), 2),
            ("f2", (0, 1), 1, (5, 2), 4),
            ("f2", (1, 1), 1, (5, 2), 2),
        ],
    )
    def test_other_hirzebruch(self, surface, delta, c2, H, count):
        assert len(fixed_locus_cached(surface, 2, delta, c2, H)) == count


class TestWalls:
    def test_wall_slopes_match_brute_force(self):
        srf = surface_by_name("f0")
        delta, c2 = (1, 0), 2
        disc = 4 * c2 - srf.pair(delta, delta)
        # A class xi = (x, y) with -disc <= xi^2 < 0 is orthogonal to the
        # polarization (hF, hZ) exactly when hF/hZ = -x/y, so sweep a box of
        # classes and collect the positive orthogonal slopes.
        oracle = set()
        for x in range(-40, 0):
            for y in range(1, 41):
                if -disc <= srf.pair((x, y), (x, y)) < 0:
                    oracle.add(Fraction(-x, y))
        slopes = wall_slopes(srf, 2, delta, c2)
        assert set(slopes) == oracle
        assert set(slopes) == {
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
            Fraction(3),
            Fraction(4),
        }
        assert list(slopes) == sorted(slopes)

    def test_walls_rank_two_only(self):
        with pytest.raises(EnumerationError, match="rank 2"):
            wall_slopes(surface_by_name("f0"), 3, (1, 0), 2)

    def test_chamber_representatives(self):
        p2 = surface_by_name("p2")
        assert chamber_representatives(p2, 2, (1,), 2) == [(1,)]
        f0 = surface_by_name("f0")
        reps = chamber_representatives(f0, 2, (1, 0), 2)
        assert len(reps) == 8
        walls = set(wall_slopes(f0, 2, (1, 0), 2))
        for hf, hz in reps:
            assert hf >= 1 and hz >= 1  # ample
            assert Fraction(hf, hz) not in walls
            assert f0.pair((1, 0), (hf, hz)) % 2 == 1  # coprime with the rank

    def test_locus_constant_within_a_chamber(self):
        # Representatives drawn from the same open interval between walls
        # give identical loci up to the twist normalization.
        for h_a, h_b in [((2, 7), (4, 13)), ((2, 3), (3, 5)), ((7, 3), (12, 5))]:
            a = fixed_locus_cached("f0", 2, (1, 0), 2, h_a)
            b = fixed_locus_cached("f0", 2, (1, 0), 2, h_b)
            assert canonical_multiset(a) == canonical_multiset(b)

    def test_neighbouring_small_chambers_share_a_variant(self):
        a = fixed_locus_cached("f0", 2, (1, 0), 2, (2, 7))
        b = fixed_locus_cached("f0", 2, (1, 0), 2, (2, 5))
        assert canonical_multiset(a) == canonical_multiset(b)


class TestConsistency:
    def test_ch2_check_accepts_enumerated_bundles(self):
        for sheaf in fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5)):
            assert hirzebruch_ch2_check(sheaf)

    def test_ch2_check_rejects_non_bundles(self):
        locus = fixed_locus_cached("f0", 2, (1, 0), 2, (3, 5))
        torsion_free = next(s for s in locus if not s.is_locally_free)
        with pytest.raises(EnumerationError):
            hirzebruch_ch2_check(torsion_free)

    def test_unsupported_rank_raises(self):
        with pytest.raises(EnumerationError, match="unsupported"):
            enumerate_bundles(surface_by_name("f0"), 3, (1, 0), 2, (2, 5))


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize(
    "surface, c1",
    [
        ("p2", (0,)), ("p2", (1,)), ("p2", (2,)), ("p2", (-3,)),
        ("f0", (1, 0)), ("f0", (1, 1)), ("f0", (3, 2)),
        ("f1", (0, 1)), ("f1", (1, 1)), ("f1", (0, 3)),
        ("f2", (0, 1)), ("f2", (3, 1)),
    ],
)
def test_bogomolov_floor_is_smallest_admissible_c2(rank, surface, c1):
    # smallest c2 >= 0 with 2*r*c2 >= (r-1)*c1^2; c1^2 is negative, zero and
    # positive across the parameters (f1 with c1 = Z has c1^2 = -1)
    srf = surface_by_name(surface)
    c1sq = srf.pair(c1, c1)
    brute = next(n for n in range(100) if 2 * rank * n >= (rank - 1) * c1sq)
    assert _bogomolov_floor(srf, rank, c1) == brute
