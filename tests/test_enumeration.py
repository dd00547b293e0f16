"""Fixed-locus enumeration: counts, walls, chambers, consistency checks."""

import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_chern,
    fa_r2_box,
    fa_r2_windows,
    fa_start_box,
    higher_windows,
    is_stable,
    on_nef_rays,
    p2_r2_scan,
    sign_table_stable,
    slope_times_rank,
    stability_forms,
    stable_at,
    unpruned_candidates,
)
import toric_virasoro
from toric_virasoro import enumeration
from toric_virasoro.enumeration import (
    EnumerationError,
    _bogomolov_floor,
    _build_bundle,
    _jump_positions,
    _level_pairs,
    _r2_configs,
    _r3_configs,
    _r4_configs,
    chamber_representatives,
    enumerate_bundles,
    fixed_locus,
    fixed_locus_cached,
    hirzebruch_ch2_check,
    polarization_gcd,
    r2_model,
    r3_model,
    r4_model,
    wall_slopes,
)
from toric_virasoro.golden import canonical_row_key
from toric_virasoro.klyachko import (
    NonIsolated,
    SlopeTie,
    bundle_chern,
    chern_invariants,
    stability_table,
)
from toric_virasoro.surfaces import surface_by_name


def canonical_multiset(locus):
    return sorted(canonical_row_key(sheaf.charts) for sheaf in locus)


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


# (surface, c1, c2) -> its wall slopes as the walls command prints them; the
# f1 and f2 cases are recorded transcripts too
_WALLS = {
    "f0": ((1, 0), 2, "1/4 1/3 1/2 1 2 3 4"),
    "f1": ((0, 1), 2, "3/2 2 3 4 5"),
    "f2": ((0, 1), 2, "3 4 5 6"),
}


class TestWalls:
    @pytest.mark.parametrize("name", sorted(_WALLS))
    def test_wall_slopes_match_brute_force(self, name):
        srf = surface_by_name(name)
        delta, c2, printed = _WALLS[name]
        disc = 4 * c2 - srf.pair(delta, delta)
        # A class xi with -disc <= xi^2 < 0 is orthogonal to the polarization
        # hF*F + hZ*Z exactly when hF*(xi.F) + hZ*(xi.Z) = 0, so sweep a box
        # of classes and collect the ample solutions hF/hZ.
        oracle = set()
        for xi in product(range(-40, 41), repeat=2):
            if -disc <= srf.pair(xi, xi) < 0:
                slope = Fraction(-srf.pair(xi, (0, 1)), srf.pair(xi, (1, 0)))
                if srf.is_ample((slope.numerator, slope.denominator)):
                    oracle.add(slope)
        slopes = wall_slopes(srf, 2, delta, c2)
        assert set(slopes) == oracle
        assert " ".join(map(str, slopes)) == printed

    def test_walls_rank_two_only(self):
        with pytest.raises(EnumerationError, match="rank 2"):
            wall_slopes(surface_by_name("f0"), 3, (1, 0), 2)

    @pytest.mark.parametrize("name", sorted(_WALLS))
    def test_chamber_representatives(self, name):
        p2 = surface_by_name("p2")
        assert chamber_representatives(p2, 2, (1,), 2) == [(1,)]
        srf = surface_by_name(name)
        delta, c2, _printed = _WALLS[name]
        reps = chamber_representatives(srf, 2, delta, c2)
        walls = wall_slopes(srf, 2, delta, c2)
        assert len(reps) == len(walls) + 1
        # one representative strictly inside each interval between walls
        slopes = [Fraction(hf, hz) for hf, hz in reps]
        assert all(below < wall < above for below, wall, above in zip(slopes, walls, slopes[1:]))
        for H in reps:
            assert srf.is_ample(H)
            assert srf.pair(delta, H) % 2 == 1  # coprime with the rank

    @pytest.mark.parametrize("surface", ["p2", "f0", "f1", "f2"])
    def test_polarization_gcd_is_the_gcd_over_ample_classes(self, surface):
        # gcd(rank, c1.H) over a box of ample H, against the basis-divisor rule
        srf = surface_by_name(surface)
        a = 0 if surface == "p2" else int(surface[1:])
        box = [(h,) for h in range(1, 9)] if surface == "p2" else [
            (hf, hz) for hz in range(1, 9) for hf in range(a * hz + 1, a * hz + 9)
        ]
        for rank in (2, 3, 4):
            for c1 in product(range(-2, 5), repeat=srf.picard_rank):
                brute = gcd(rank, *(srf.pair(c1, H) for H in box))
                assert polarization_gcd(srf, rank, c1) == brute, (rank, c1)

    def test_chamber_search_refuses_when_no_polarization_is_coprime(self):
        # gcd(2, c1.D) = 2 over the basis divisors; the search once looped
        # forever here, so it runs in a fresh interpreter with a timeout
        script = (
            "from toric_virasoro.enumeration import chamber_representatives\n"
            "from toric_virasoro.surfaces import surface_by_name\n"
            "for name, c1 in [('f0', (2, 0)), ('f0', (0, 0)), ('f2', (0, 2)), ('p2', (0,))]:\n"
            "    try:\n"
            "        chamber_representatives(surface_by_name(name), 2, c1, 2)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(toric_virasoro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        want = "gcd(rank, c1.H) > 1 for every polarization H"
        assert proc.stdout.splitlines() == [want] * 4

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


# ---------------------------------------------------------------------------
# the two-stage search: H-independent candidates, per-H sign tests

_MEMOS = (
    fixed_locus_cached,
    enumeration._candidates,
    enumeration._bundle,
    enumeration._degenerations,
)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold():
    """Every per-process enumeration memo empty before and after the test."""
    _clear_memos()
    yield
    _clear_memos()


def _verdict(decide):
    try:
        return decide()
    except SlopeTie:
        return "tie"


def _patterns(sheaf, model):
    """The model's candidate patterns, aligned with the sheaf's flag steps."""
    for w, dims in model.candidates:
        dmap = dict(dims)
        yield w, tuple(
            tuple(w if s.dim == sheaf.rank else dmap[(i, s.dim)] for _pos, s in flag.steps)
            for i, flag in enumerate(sheaf.flags)
        )


def _reference_forms(sheaf, patterns):
    """The forms read from a built sheaf: both slope degrees at each basis H."""
    n = sheaf.surface.picard_rank
    basis = [tuple(int(k == l) for k in range(n)) for l in range(n)]
    deg_e = [slope_times_rank(sheaf, e) for e in basis]
    return [
        tuple(sheaf.rank * slope_times_rank(sheaf, e, dims) - w * d for e, d in zip(basis, deg_e))
        for w, dims in patterns
    ]


@lru_cache(maxsize=1)
def _candidate_sheaves(name, c1, c2):
    """The unpruned stage-1 candidates of a case, and (candidate, bundle,
    patterns, distinct reference forms) for each."""
    surface = surface_by_name(name)
    stage = unpruned_candidates(surface.name, 2, c1, c2)
    out = []
    for cand in stage.candidates:
        model = enumeration._model(cand.key)
        sheaf = _build_bundle(surface, 2, model, cand.tops, cand.windows)
        patterns = tuple(_patterns(sheaf, model))
        forms = tuple(dict.fromkeys(_reference_forms(sheaf, patterns)))
        out.append((cand, sheaf, patterns, forms))
    return stage, out


def _table_forms(surface, model, windows):
    """The ``(v . rho1, v . rho2)`` of every model candidate, as the compiled table gives them."""
    x = [w for wins in windows for w in wins]
    table = stability_table(surface, model.rank, model.candidates)
    return [tuple(sum(map(mul, x, row)) for row in rows) for rows in table]


def _nef_verdict(surface, forms, H):
    """The per-H verdict of the enumeration at H of one candidate with these forms on the nef
    rays (or "tie")."""
    cand = enumeration._Candidate(None, (), (), tuple(dict.fromkeys(forms)))
    stage = enumeration._Stage((cand,), frozenset())
    return _verdict(lambda: enumeration._stable(stage, surface, H) == [cand])


def _basis_forms(surface, cand):
    """The distinct stability forms in the divisor basis of a stage's candidate, recomputed from
    its model key and windows."""
    model = enumeration._model(cand.key)
    forms = stability_forms(surface, model.rank, cand.windows, model.candidates)
    return tuple(dict.fromkeys(forms))


def _from_nef(surface, coordinates):
    """The class ``alpha*rho1 + beta*rho2`` of nef coordinates on a surface of Picard rank 2."""
    alpha, beta = coordinates
    return tuple(alpha * x + beta * y for x, y in zip(*surface.nef_rays))


def _polarizations(a):
    """Ample H, and H on the slope of a wall class xi = x*F + y*Z (xi.H = 0)."""
    ample = st.integers(1, 12).flatmap(
        lambda hz: st.tuples(st.integers(a * hz + 1, a * hz + 40), st.just(hz))
    )
    on_wall = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)).map(
        lambda xyk: (xyk[2] * (a * xyk[1] + xyk[0]), xyk[2] * xyk[1])
    )
    return st.one_of(ample, on_wall)


_P2_POLARIZATIONS = st.integers(1, 12).map(lambda h: (h,))

_FA_C1 = [(1, 0), (0, 1), (1, 1)]
_FA_CASES = [
    pytest.param(name, c1, id=f"{name}-c1{k}")
    for name in ("f0", "f1", "f2")
    for k, c1 in enumerate(_FA_C1)
]
_R2_CASES = _FA_CASES + [pytest.param("p2", (1,), id="p2-c1H")]


@pytest.mark.parametrize("c2", [1, 2, 3])
@pytest.mark.parametrize("name, c1", _R2_CASES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_form_verdict_matches_is_stable(name, c1, c2, data):
    # the oracle stage's basis forms are the distinct forms of the built
    # bundle, in order; the per-candidate sign test and the enumeration's
    # per-H step on the forms' nef-ray values decide exactly what the
    # reference slope comparison decides, SlopeTie included, and the
    # oracle's sign table decides as the scan, for the whole stage
    surface = surface_by_name(name)
    strategy = _P2_POLARIZATIONS if name == "p2" else _polarizations(int(name[1:]))
    H = data.draw(strategy, label="H")
    stage, rows = _candidate_sheaves(name, c1, c2)
    for cand, sheaf, patterns, forms in rows:
        assert cand.forms == forms == tuple(stage.forms[k] for k in cand.form_ids), cand[:3]
        want = _verdict(lambda: is_stable(sheaf, H, patterns))
        assert _verdict(lambda: stable_at(cand.forms, H)) == want, (cand[:3], H)
        assert _nef_verdict(surface, on_nef_rays(surface, forms), H) == want, (cand[:3], H)
    scan = _verdict(lambda: [c for c in stage.candidates if stable_at(c.forms, H)])
    assert _verdict(lambda: sign_table_stable(stage, H)) == scan


class TestTwoStageSearch:
    def test_wall_polarization_raises_slope_tie_cold_and_warm(self, cold):
        f0 = surface_by_name("f0")
        with pytest.raises(SlopeTie):
            fixed_locus(f0, 2, (1, 1), 3, (1, 1))
        assert len(fixed_locus(f0, 2, (1, 1), 3, (2, 5))) == 40
        with pytest.raises(SlopeTie):
            fixed_locus(f0, 2, (1, 1), 3, (1, 1))

    def test_non_isolated_raises_on_every_call(self, cold):
        # a failed degeneration walk is not memoized
        f2 = surface_by_name("f2")
        for _ in range(2):
            with pytest.raises(NonIsolated):
                fixed_locus(f2, 2, (0, 1), 3, (7, 3))

    def test_warm_chambers_match_cold_chambers(self, cold):
        f0 = surface_by_name("f0")
        reps = chamber_representatives(f0, 2, (1, 1), 3)
        cold_keys = []
        for H in reps:
            _clear_memos()
            cold_keys.append([sh.key() for sh in fixed_locus(f0, 2, (1, 1), 3, H)])
        warm_keys = [[sh.key() for sh in fixed_locus(f0, 2, (1, 1), 3, H)] for H in reps]
        assert warm_keys == cold_keys
        assert [len(keys) for keys in cold_keys] == [0, 8, 8, 40, 40, 40, 40, 8, 8, 0]

    def test_rank_two_on_f11_finds_the_windows_above_the_old_start(self, cold):
        # c2 = 11 on F11 (K = 44): two of the 24 stable bundles have a window
        # of 121, above the box 2K + 2a + 8 = 118 where the search once
        # started; each built bundle is stable at H under the oracle
        f11 = surface_by_name("f11")
        H = (28, 1)
        bundles = enumerate_bundles(f11, 2, (1, 0), 11, H)
        stable = enumeration._stable(enumeration._candidates("F11", 2, (1, 0), 11), f11, H)
        assert len(bundles) == len(stable) == 24
        above = {((121,), (11,), (1,), (11,)), ((1,), (11,), (121,), (11,))}
        assert above <= {c.windows for c in stable}
        for cand, sheaf in zip(stable, bundles):
            patterns = tuple(_patterns(sheaf, enumeration._model(cand.key)))
            assert stable_at(_reference_forms(sheaf, patterns), H), cand.windows


@pytest.mark.parametrize(
    "rank, cfg",
    [
        pytest.param(rank, cfg, id=f"r{rank}-{cfg[0]}" + ("" if cfg[1] is None else "%d%d" % cfg[1]))
        for rank, configs in ((3, _r3_configs()), (4, _r4_configs()))
        for cfg in configs
    ],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_window_forms_match_the_built_bundle(rank, cfg, data):
    # the compiled table's values over the windows equal the slope degrees
    # of the bundle built from the same windows and any tops, on the nef
    # ray, and the per-H step gives the reference verdict at every
    # polarization of the plane
    model = (r3_model if rank == 3 else r4_model)(*cfg)
    window = st.tuples(*[st.integers(0, 4)] * (rank - 1))
    wins = data.draw(st.tuples(window, window, window), label="windows")
    tops = data.draw(st.tuples(*[st.integers(-6, 6)] * 3), label="tops")
    p2 = surface_by_name("p2")
    sheaf = _build_bundle(p2, rank, model, tops, wins)
    patterns = tuple(_patterns(sheaf, model))
    forms = _table_forms(p2, model, wins)
    assert forms == on_nef_rays(p2, _reference_forms(sheaf, patterns))
    H = data.draw(_P2_POLARIZATIONS, label="H")
    assert _nef_verdict(p2, forms, H) == _verdict(lambda: is_stable(sheaf, H, patterns))


def test_bundles_are_built_only_for_stable_candidates(cold, monkeypatch):
    # a cold ten-chamber sweep builds one bundle per distinct stable spec,
    # which is what the per-process bundle memo holds
    built = []

    def counting_build(*args):
        built.append(args)
        return _build_bundle(*args)

    monkeypatch.setattr(enumeration, "_build_bundle", counting_build)
    f0 = surface_by_name("f0")
    for H in chamber_representatives(f0, 2, (1, 1), 3):
        fixed_locus(f0, 2, (1, 1), 3, H)
    assert built
    assert len(built) == enumeration._bundle.cache_info().currsize


def _keyed(generated):
    return [(model.key, tops, windows) for model, tops, windows in generated]


@pytest.mark.parametrize("rank, c1, c2", [(3, (0,), 4), (3, (1,), 6), (3, (-1,), 8), (4, (1,), 4)])
def test_higher_rank_windows_match_the_triple_scan(rank, c1, c2):
    # the rigidity-indexed generator yields the full scan's survivors, in
    # its order, for every configuration of the rank, at its window bound
    # (here c2 itself)
    P = enumeration._p2_window_bound(rank, c1, c2)
    assert P == c2
    got = _keyed(enumeration._p2_higher_windows(surface_by_name("p2"), rank, c1, c2))
    assert got and got == list(higher_windows(rank, c1, P))


@pytest.mark.parametrize("c2", [1, 2, 3])
@pytest.mark.parametrize("name, c1", _FA_CASES)
def test_fa_windows_match_the_box_scan(name, c1, c2):
    # the solve yields a subsequence of the box scan, in its order, and
    # only tuples that the ample test keeps or ties; every box tuple it
    # skips is dropped by the ample test without a tie, or ties at an H that
    # the stage already holds
    surface = surface_by_name(name)
    got = _keyed(enumeration._fa_r2_windows(surface, 2, c1, c2))
    box = list(fa_r2_windows(surface, c1, c2, fa_start_box(surface, c1, c2)))
    scan = iter(box)
    assert got and all(row in scan for row in got)
    stage = enumeration._candidates(surface.name, 2, c1, c2)

    def ample_test(key, windows):
        return enumeration._ample_test(_table_forms(surface, enumeration._model(key), windows))

    kept = set(got)
    for key, _tops, windows in got:
        assert ample_test(key, windows) != (False, None), windows
    for row in box:
        if row not in kept:
            stable, tie = ample_test(row[0], row[2])
            assert not stable and tie in {None, *stage.ties}, row


_FA_GRID = {
    name: [(c1, c2) for c1 in [(0, 0), (1, 0), (0, 1), (1, 1)] for c2 in range(1, 5)]
    for name in ("f0", "f1", "f2", "f3")
}
_FA_GRID["f20"] = [((0, 0), 4)]


@pytest.mark.parametrize("name", sorted(_FA_GRID))
def test_fa_solved_stages_equal_the_box_scan_stages(name, monkeypatch):
    # the candidate stage (candidates, their order, ties) of the solved
    # generator equals the one the same code builds from the box scan at a
    # box above the bounds the solve proves: the old start 2K + 2a + 8 on
    # f0-f3, and (2 + a)K/4 + 2 = 90 on f20 at c2 = 4 (K = 16), where the
    # old start 80 keeps 18 of the 20 candidates (f20 takes about 1 s)
    build = enumeration._candidates.__wrapped__
    surface = surface_by_name(name)

    def scan(c1, c2, B):
        with monkeypatch.context() as m:
            m.setattr(enumeration, "_fa_r2_windows", lambda s, r, c1, c2: fa_r2_box(s, r, c1, c2, B))
            return build(surface.name, 2, c1, c2)

    for c1, c2 in _FA_GRID[name]:
        start = fa_start_box(surface, c1, c2)
        K = 4 * c2 - surface.pair(c1, c1)
        box = max(start, (2 + int(name[1:])) * K // 4 + 2)
        stage = build(surface.name, 2, c1, c2)
        assert stage == scan(c1, c2, box), (c1, c2)
        if box > start:
            assert len(scan(c1, c2, start).candidates) < len(stage.candidates)


def test_fa_window_solve_yields_are_pinned():
    # f0, c1 = F + Z, c2 = 1, 2, 3: the box scan yields 224 / 824 / 1376
    # tuples, of which the ample test keeps 0 / 8 / 24 as stable and
    # 96 / 320 / 448 as ties.  The solve yields only kept tuples: the
    # 4 / 24 / 40 of the configurations without an adjacent pair, the
    # 0 / 0 / 8 stable ones with one, and one tuple per x' = 0 tie family
    # (4 / 8 / 8)
    f0 = surface_by_name("f0")
    counts = [sum(1 for _ in enumeration._fa_r2_windows(f0, 2, (1, 1), c2)) for c2 in (1, 2, 3)]
    assert counts == [8, 32, 56]


def test_p2_solved_windows_equal_the_cube_scan(monkeypatch):
    # z solved from the quadratic gives the scan's yields within the window
    # bound in its order, 252 of them over c1 = -1..2 and c2 = 0..10; for
    # odd c1, where the bound holds, the candidate stage built from the
    # solve equals the one the same code builds from the whole scan to K
    p2 = surface_by_name("p2")
    cases = [((d,), c2) for d in range(-1, 3) for c2 in range(11)]

    def bounded(c1, c2):
        top = enumeration._p2_window_bound(2, c1, c2)
        return [row for row in p2_r2_scan(p2, 2, c1, c2) if max(map(sum, row[2])) <= top]

    solved = [_keyed(enumeration._p2_r2_windows(p2, 2, c1, c2)) for c1, c2 in cases]
    assert solved == [_keyed(bounded(c1, c2)) for c1, c2 in cases]
    assert sum(map(len, solved)) == 252
    build = enumeration._candidates.__wrapped__
    monkeypatch.setattr(enumeration, "_p2_r2_windows", p2_r2_scan)
    for c1, c2 in cases:
        if c1[0] % 2:
            assert build(p2.name, 2, c1, c2) == enumeration._candidates(p2.name, 2, c1, c2), c1


_MODEL_CASES = [
    pytest.param(name, 2, classes, id=f"{name}-r2-{''.join(map(str, classes))}")
    for name in ("p2", "f0", "f1", "f2")
    for classes in _r2_configs(len(surface_by_name(name).rays))
] + [
    pytest.param(
        "p2", rank, cfg, id=f"p2-r{rank}-{cfg[0]}" + ("" if cfg[1] is None else "%d%d" % cfg[1])
    )
    for rank, configs in ((3, _r3_configs()), (4, _r4_configs()))
    for cfg in configs
]


@pytest.mark.parametrize("name, rank, cfg", _MODEL_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_closed_chern_matches_localization(name, rank, cfg, data):
    # the searches' (c1, c2) from flat jump positions and the model's level
    # pairs as index triples, the nested per-ray and per-cone form, and
    # hirzebruch_ch2_check's from the built flags, all equal the localized
    # invariants of the bundle built from the same tops and windows (empty
    # windows included, where levels merge)
    surface = surface_by_name(name)
    model = _model_of(name, rank, cfg)
    wins, tops = data.draw(_windows_and_tops(surface, rank), label="windows, tops")
    sheaf = _build_bundle(surface, rank, model, tops, wins)
    closed = bundle_chern(surface, _jump_positions(tops, wins, rank), _level_pairs(surface, model))
    assert closed == closed_chern(surface, model, tops, wins)
    assert (rank, *closed) == chern_invariants(sheaf)
    assert hirzebruch_ch2_check(sheaf)


def test_verified_refuses_a_sheaf_with_other_invariants():
    sheaf = fixed_locus_cached("f0", 2, (1, 1), 2, (2, 5))[0]
    assert enumeration._verified(sheaf, 2, (1, 1), 2) is sheaf
    for rank, c1, c2 in [(2, (1, 0), 2), (2, (1, 1), 3), (2, (0, 1), 1), (3, (1, 1), 2)]:
        with pytest.raises(EnumerationError, match=r"has invariants \(2, \(1, 1\), 2\)"):
            enumeration._verified(sheaf, rank, c1, c2)


@pytest.mark.parametrize("name, rank, cfg", _MODEL_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stability_table_matches_the_oracles(name, rank, cfg, data):
    # the compiled table's rows give the per-candidate closed form in the
    # divisor basis paired with the nef rays, in model order, and the per-H
    # step on them decides as the per-candidate sign test on the basis
    # forms does, SlopeTie included, at ample H and at H on a wall
    surface = surface_by_name(name)
    model = _model_of(name, rank, cfg)
    wins, _tops = data.draw(_windows_and_tops(surface, rank), label="windows, tops")
    forms = _table_forms(surface, model, wins)
    basis = list(stability_forms(surface, rank, wins, model.candidates))
    assert forms == on_nef_rays(surface, basis)
    strategy = _P2_POLARIZATIONS if name == "p2" else _polarizations(int(name[1:]))
    H = data.draw(strategy, label="H")
    assert _nef_verdict(surface, forms, H) == _verdict(lambda: stable_at(basis, H))


def _model_of(name, rank, cfg):
    if rank == 2:
        return r2_model(len(surface_by_name(name).rays), cfg)
    return (r3_model if rank == 3 else r4_model)(*cfg)


def _windows_and_tops(surface, rank):
    """Random windows (empty ones included) and tops, one per ray."""
    nrays = len(surface.rays)
    window = st.tuples(*[st.integers(0, 4)] * (rank - 1))
    return st.tuples(st.tuples(*[window] * nrays), st.tuples(*[st.integers(-6, 6)] * nrays))


# ---------------------------------------------------------------------------
# candidate stages, pinned

# (candidates, distinct forms, first 16 hex digits of the sha256 of the repr
# of every candidate's key, tops, windows, forms and shell flag, in order) at
# the starting bound (:func:`_start_bound`), recorded before the stage was
# compiled per model, with the forms in the divisor basis; the unpruned stage
# is the oracle's
_STAGES = {
    ("f0", 2, (1, 1), 1): (224, 88, "ea0018eee93c1209"),
    ("f0", 2, (1, 1), 2): (824, 258, "36b0331a7aa90bdf"),
    ("f0", 2, (1, 1), 3): (1376, 453, "e3aa82925f3885a7"),
    ("p2", 3, (1,), 3): (435, 22, "1ca6e22867f4ecc7"),
}

# the same, with the stage's ties, for the stage kept by the ample test;
# recorded before that test entered the package, by filtering the unpruned
# stage with a Fraction scan of the slopes hF/hZ in (a, oo)
_PRUNED_STAGES = {
    ("f0", 2, (1, 1), 1): (0, 0, ((1, 1),), "4f53cda18c2baa0c"),
    ("f0", 2, (1, 1), 2): (8, 7, ((1, 3), (3, 1)), "90963ab660abf84d"),
    ("f0", 2, (1, 1), 3): (24, 14, ((1, 5), (5, 1)), "69169929fa9f5e0a"),
    ("p2", 2, (1,), 3): (3, 3, (), "bb794a8d03717d94"),
    ("p2", 3, (1,), 3): (15, 8, (), "40e88613d919a841"),
}


def _stage_pin(surface, stage, bound):
    """The pin of a stage, with each candidate's basis forms recomputed from its key and
    windows, and the flag the pins recorded, a window (or profile) sum above ``bound - 2``,
    from its windows."""
    rows = [
        (
            c.key, c.tops, c.windows, _basis_forms(surface, c),
            bound is not None and any(sum(w) > bound - 2 for w in c.windows),
        )
        for c in stage.candidates
    ]
    distinct = {v for row in rows for v in row[3]}
    return len(rows), len(distinct), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# the window-sum bound at which the rank-3 pins were recorded, and at
# which the oracle stage runs: the start of the rank-3/4 search before the
# discriminant bounded it
_PIN_P = 6


def _oracle_args(name, rank, c1, c2):
    """The arguments of a case's unpruned oracle stage: ranks 3 and 4 take ``_PIN_P``."""
    return surface_by_name(name).name, rank, c1, c2, *((_PIN_P,) if rank > 2 else ())


def _start_bound(name, rank, c1, c2):
    """The search bound at which a case's pins were recorded: the old start of the F_a box,
    ``_PIN_P`` for ranks 3 and 4, and none for rank 2 on the plane."""
    surface = surface_by_name(name)
    if rank > 2:
        return _PIN_P
    return fa_start_box(surface, c1, c2) if surface.picard_rank == 2 else None


@pytest.mark.parametrize("name, rank, c1, c2", sorted(_STAGES), ids=str)
def test_candidate_stages_are_pinned(name, rank, c1, c2):
    stage = unpruned_candidates(*_oracle_args(name, rank, c1, c2))
    pin = _stage_pin(surface_by_name(name), stage, _start_bound(name, rank, c1, c2))
    assert pin == _STAGES[name, rank, c1, c2]


@pytest.mark.parametrize("name, rank, c1, c2", sorted(_PRUNED_STAGES), ids=str)
def test_pruned_candidate_stages_are_pinned(name, rank, c1, c2):
    # the recorded ties are H, which on F0 are their own nef coordinates;
    # each candidate's forms are its basis forms on the nef rays
    surface = surface_by_name(name)
    stage = enumeration._candidates(surface.name, rank, c1, c2)
    count, forms, digest = _stage_pin(surface, stage, _start_bound(name, rank, c1, c2))
    ties = tuple(sorted(_from_nef(surface, tie) for tie in stage.ties))
    assert (count, forms, ties, digest) == _PRUNED_STAGES[name, rank, c1, c2]
    for c in stage.candidates:
        assert c.forms == tuple(dict.fromkeys(on_nef_rays(surface, _basis_forms(surface, c))))


def _decision(stable):
    """A list of stable candidates as the data that both kinds of stage share, or "tie"."""
    return _verdict(lambda: [(c.key, c.tops, c.windows) for c in stable()])


_EQUIVALENCE_CASES = [
    pytest.param(name, 2, c1, c2, id=f"{name}-c1{k}-c2{c2}")
    for name in ("f0", "f1", "f2")
    for k, c1 in enumerate(_FA_C1)
    for c2 in (1, 2, 3)
] + [pytest.param("p2", rank, (1,), c2, id=f"p2-r{rank}-c2{c2}") for rank in (2, 3) for c2 in (1, 2, 3)]


@pytest.mark.parametrize("name, rank, c1, c2", _EQUIVALENCE_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_stage_decides_as_the_oracle(name, rank, c1, c2, data):
    # at every ample H, ample and on-wall values alike, the pruned stage
    # decided in nef coordinates gives the unpruned stage's stable
    # candidates on the basis-form sign table, or SlopeTie where it does;
    # each recorded tie is a tie of the unpruned stage
    surface = surface_by_name(name)
    strategy = _P2_POLARIZATIONS if name == "p2" else _polarizations(int(name[1:]))
    H = data.draw(strategy, label="H")
    pruned = enumeration._candidates(surface.name, rank, c1, c2)
    oracle = unpruned_candidates(*_oracle_args(name, rank, c1, c2))
    want = _decision(lambda: sign_table_stable(oracle, H))
    assert _decision(lambda: enumeration._stable(pruned, surface, H)) == want
    for tie in pruned.ties:
        assert _decision(lambda: sign_table_stable(oracle, _from_nef(surface, tie))) == "tie"


def test_a_dropped_candidate_still_ties_at_its_polarization(cold):
    # f0, c1 = F+Z, c2 = 1: no candidate is stable anywhere, but some tie at
    # H = F+Z, so the empty stage raises there, through the library as well
    f0 = surface_by_name("f0")
    stage = enumeration._candidates("F0", 2, (1, 1), 1)
    assert stage.candidates == () and stage.ties == {(1, 1)}
    for H in [(1, 1), (3, 3)]:
        with pytest.raises(SlopeTie):
            enumeration._stable(stage, f0, H)
        with pytest.raises(SlopeTie):
            enumerate_bundles(f0, 2, (1, 1), 1, H)
    assert enumeration._stable(stage, f0, (2, 1)) == []


@pytest.mark.parametrize(
    "name, values, want",
    [
        ("f0", ((-1, -3), (-1, 3), (1, -3)), (False, (3, 1))),  # empty, closes at slope 3
        ("f0", ((-1, -3), (1, -3)), (True, None)),  # an open interval below slope 3
        ("f0", ((-1, -3), (-1, 3), (1, -2)), (False, None)),  # empty: above 3 and below 2
        ("f0", ((0, 0), (1, 1)), (True, None)),  # a zero form ties everywhere and is kept
        ("f0", ((1, 1),), (False, None)),  # positive on the whole cone
        ("f0", ((0, -1), (-1, 0)), (True, None)),  # negative on the whole cone
        ("f0", ((-1, 0), (1, 0)), (False, None)),  # closes at slope 0: not ample
        ("f0", (), (True, None)),  # no form: stable everywhere
        ("f2", ((-1, 2), (1, -2)), (False, (4, 1))),  # closes at t = 2: H = 2F + (2F + Z)
        ("p2", ((-1, 0), (-2, 0)), (True, None)),  # one ray: every value negative
        ("p2", ((-1, 0), (1, 0)), (False, None)),
    ],
)
def test_ample_test(name, values, want):
    # values are (v . rho1, v . rho2) over the nef rays; on F0 these are F
    # and Z, so the values are the forms and t = hF/hZ; on the plane
    # v . rho2 = 0; a tie comes as nef coordinates, which give the H wanted
    surface = surface_by_name(name)
    stable, tie = enumeration._ample_test(values)
    if tie is not None:
        assert enumeration._nef_coordinates(surface, _from_nef(surface, tie)) == tie
        tie = _from_nef(surface, tie)
    assert (stable, tie) == want


@pytest.mark.parametrize("name", ["p2", "f0", "f1", "f2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nef_coordinates_are_primitive_and_positive(name, data):
    # on F_a, H is a positive multiple of alpha*F + beta*(a*F + Z) with
    # alpha, beta > 0 coprime; the plane has one nef ray and gives (1, 1)
    surface = surface_by_name(name)
    strategy = _P2_POLARIZATIONS if name == "p2" else _polarizations(int(name[1:]))
    H = data.draw(strategy, label="H")
    alpha, beta = enumeration._nef_coordinates(surface, H)
    if name == "p2":
        assert (alpha, beta) == (1, 1)
        return
    assert alpha > 0 and beta > 0 and gcd(alpha, beta) == 1
    v = _from_nef(surface, (alpha, beta))
    k = gcd(*H) // gcd(*v)
    assert k > 0 and H == tuple(k * x for x in v)


@pytest.mark.parametrize(
    "name, c1, H",
    [("p2", (1,), (0,)), ("f0", (1, 0), (1, 0)), ("f1", (1, 0), (1, 1)), ("f2", (1, 0), (4, 2))],
)
@pytest.mark.parametrize("call", [enumerate_bundles, fixed_locus])
def test_a_non_ample_polarization_is_refused(name, c1, H, call):
    srf = surface_by_name(name)
    with pytest.raises(ValueError, match=re.escape(f"H = {H} is not ample on {srf.name}")):
        call(srf, 2, c1, 2, H)


@pytest.mark.parametrize(
    "rank, c1, c2", [(2, (0,), 2), (3, (0,), 2), (4, (2,), 3), (3, (0,), -1)]
)
@pytest.mark.parametrize("call", [enumerate_bundles, fixed_locus])
def test_a_plane_case_that_can_tie_is_refused(rank, c1, c2, call):
    # the plane's window bound holds for strictly stable candidates only, so
    # a case where every polarization can tie is refused before any search,
    # also below the Bogomolov floor, where fixed_locus runs no search at all
    p2 = surface_by_name("p2")
    with pytest.raises(ValueError, match=re.escape("gcd(rank, c1.H) > 1 for every polarization H")):
        call(p2, rank, c1, c2, (1,))


# ---------------------------------------------------------------------------
# model candidates, pinned

# (candidate count, first 16 hex digits of the sha256 of repr(sorted(candidates)))
# of every model, recorded with the Fraction RREF subspace kernel
_MODEL_CANDIDATES = {
    ('r2', (0, 1, 2)): (4, '10381ae85affa936'),
    ('r2', (0, 0, 1)): (3, 'fafb8595e78635c1'),
    ('r2', (0, 1, 0)): (3, 'e617b795d2f036d5'),
    ('r2', (0, 1, 1)): (3, 'bc1993a34ffbe20e'),
    ('r2', (0, 1, 2, 3)): (5, '7e9870ac622bafa6'),
    ('r2', (0, 0, 1, 2)): (4, '25692de08dcf96a0'),
    ('r2', (0, 1, 0, 2)): (4, '249c4c6c3dcd4b59'),
    ('r2', (0, 1, 2, 0)): (4, '47ffae28d89fc8d8'),
    ('r2', (0, 1, 1, 2)): (4, '23d799a6e313f1b5'),
    ('r2', (0, 1, 2, 1)): (4, '0cb6a235f0a1dda1'),
    ('r2', (0, 1, 2, 2)): (4, 'f406a508725b7d82'),
    ('r3', 'generic', None): (20, '8907f097307936aa'),
    ('r3', 'concurrent', None): (18, 'ca26b1d1d3a5f377'),
    ('r3', 'collinear', None): (18, '9e07d27f06c1c2a0'),
    ('r3', 'incidence', (0, 1)): (18, '94bf1564d3ce3c38'),
    ('r3', 'incidence', (0, 2)): (18, 'bbd4a139d7712c1a'),
    ('r3', 'incidence', (1, 0)): (18, 'dd0e07d1f542ca49'),
    ('r3', 'incidence', (1, 2)): (18, '20f38873ca09ad20'),
    ('r3', 'incidence', (2, 0)): (18, 'd4d82b2f4e1b04fe'),
    ('r3', 'incidence', (2, 1)): (18, 'e491fa74e7f3aefa'),
    ('r4', 'generic', None): (89, 'eae443353e377389'),
    ('r4', 'incidence', (0, 1)): (83, '750cf047c836f0ff'),
    ('r4', 'incidence', (0, 2)): (83, '85e15815de54100c'),
    ('r4', 'incidence', (1, 0)): (83, '086edf1884585136'),
    ('r4', 'incidence', (1, 2)): (83, '0d69fa070c85f0cf'),
    ('r4', 'incidence', (2, 0)): (83, '4d3f135eaae0f76b'),
    ('r4', 'incidence', (2, 1)): (83, '3ecf28d5c3e542b3'),
}
_MODEL_KEYS = [("r2", classes) for nrays in (3, 4) for classes in _r2_configs(nrays)]
_MODEL_KEYS += [("r3", *cfg) for cfg in _r3_configs()] + [("r4", *cfg) for cfg in _r4_configs()]


@pytest.mark.parametrize("key", _MODEL_KEYS, ids=str)
def test_model_candidates_are_pinned(key):
    cands = sorted(enumeration._model(key).candidates)
    digest = hashlib.sha256(repr(cands).encode()).hexdigest()[:16]
    assert (len(cands), digest) == _MODEL_CANDIDATES[key]
