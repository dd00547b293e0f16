"""The plane's window bound for ranks 3 and 4, proved from certificates about the code that runs.

Write Delta = 2r*c2 - (r - 1)*c1^2 and m for the window sum of one ray.
``enumeration._p2_window_bound`` claims that every strictly stable
candidate of rank r has ``2r*m <= Delta + r - 1`` on each ray.  For ranks
3 and 4 the proof reads only the package's own code:

- Delta is read off :func:`~toric_virasoro.klyachko.bundle_chern` on the
  model's level pairs, as the search computes (c1, c2).  Positions are
  linear in the tops and windows, so Delta is a polynomial of degree at
  most 2.  Its values at 0, e_i, 2e_i and e_i + e_j determine it, and it
  has no top in any term: it is twist-invariant.
- Every compiled :func:`~toric_virasoro.klyachko.stability_table` row v
  gives an integer ``v . w <= -1`` at a candidate stable at H = (1,).
  Each row is a necessary condition, so this holds whatever the capped
  closure of the model leaves out.
- For each configuration, each rigid zero pattern that the generator can
  yield and each ray, a certificate in ``data/window_certificates.json``
  writes ``Delta + c - 2r*m`` as a positive rational combination of
  products of at most two factors.  A factor is 1, ``-v . w - 1`` for a
  compiled row v, or ``w_k - 1`` for an open window k.  Each factor is a
  nonnegative integer at a stable candidate, so ``2r*m <= Delta + c``.
- With gcd(r, c1) = 1, ``Delta + r - 1`` is a multiple of 2r, so every
  constant c < 3r - 1 gives ``2r*m <= Delta + r - 1``.

The file keeps one certificate per orbit of (configuration, pattern, ray)
under the permutations of the three rays, and a separate one for an orbit
member where the permuted certificate names a row that the member's table
lacks.  ``make_window_certificates.py`` regenerates it with a linear
program; tier-1 only checks it, exactly.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from pathlib import Path

import pytest

from oracles import stable_at, unpruned_candidates
from toric_virasoro import enumeration
from toric_virasoro.enumeration import (
    _COINCIDENCE_CODIM,
    _config_active,
    _flag_dim,
    _jump_positions,
    _level_pairs,
    _r3_configs,
    _r4_configs,
    r3_model,
    r4_model,
)
from toric_virasoro.klyachko import bundle_chern, stability_table
from toric_virasoro.surfaces import surface_by_name

CERTIFICATES = Path(__file__).parent / "data" / "window_certificates.json"
P2 = surface_by_name("p2")
RAY_PERMUTATIONS = list(permutations(range(3)))


def configs(rank):
    return _r3_configs() if rank == 3 else _r4_configs()


def model_of(rank, cfg):
    return (r3_model if rank == 3 else r4_model)(*cfg)


@lru_cache(maxsize=None)
def delta_form(rank, cfg):
    """Delta of the model's bundles as a polynomial ``{monomial: coefficient}`` in the windows
    (variables ``0 .. 3(r - 1) - 1``, ray by ray) and the tops (the next three variables); a
    monomial is the sorted tuple of its variables."""
    pairs = _level_pairs(P2, model_of(rank, cfg))
    n = 3 * (rank - 1)

    def delta(*units):
        x = [0] * (n + 3)
        for k in units:
            x[k] += 1
        windows = tuple(tuple(x[i * (rank - 1) : (i + 1) * (rank - 1)]) for i in range(3))
        (c1,), c2 = bundle_chern(P2, _jump_positions(tuple(x[n:]), windows, rank), pairs)
        return 2 * rank * c2 - (rank - 1) * c1 * c1

    form = {(): Fraction(delta())}
    for i in range(n + 3):
        form[(i, i)] = Fraction(delta(i, i) - 2 * delta(i) + delta(), 2)
        form[(i,)] = delta(i) - delta() - form[(i, i)]
    for i in range(n + 3):
        for j in range(i + 1, n + 3):
            form[(i, j)] = (
                delta(i, j) - delta() - form[(i,)] - form[(j,)] - form[(i, i)] - form[(j, j)]
            )
    return {k: v for k, v in form.items() if v}


def rigid_patterns(rank, cfg):
    """The zero patterns (1 for an open window) of the window triples that the rank-3/4
    generator visits for a configuration: each ray active, and the flag dimensions rigid."""
    rigid = rank * rank - 1 + _COINCIDENCE_CODIM[cfg[0]]
    rays = list(product((0, 1), repeat=rank - 1))
    return [
        pattern
        for pattern in product(rays, repeat=3)
        if all(_config_active(rank, cfg, i, w) for i, w in enumerate(pattern))
        and sum(_flag_dim(rank, w) for w in pattern) == rigid
    ]


def cases(rank):
    """Every (configuration, pattern, ray) that the bound must hold on."""
    return [
        (cfg, pattern, ray)
        for cfg in configs(rank)
        for pattern in rigid_patterns(rank, cfg)
        for ray in range(3)
    ]


@lru_cache(maxsize=None)
def table_rows(rank, cfg):
    """The compiled rows of a model on the plane's nef ray, as tuples."""
    return frozenset(ra for ra, _rb in stability_table(P2, rank, model_of(rank, cfg).candidates))


def polymul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(sorted(ka + kb))
            out[k] = out.get(k, 0) + va * vb
    return out


def factor_poly(factor, opened):
    """A certificate factor as a polynomial in the open windows: None is 1, a window index k is
    ``w_k - 1``, and a row v is ``-v . w - 1``."""
    if factor is None:
        return {(): 1}
    if isinstance(factor, int):
        return {(factor,): 1, (): -1}
    poly = {(): -1}
    for k in opened:
        if factor[k]:
            poly[(k,)] = -factor[k]
    return poly


def target(rank, cfg, pattern, ray, constant):
    """``Delta + constant - 2r*m`` with every closed window set to 0, over the open ones."""
    opened = open_windows(rank, pattern)
    poly = {k: v for k, v in delta_form(rank, cfg).items() if set(k) <= opened}
    poly[()] = poly.get((), 0) + constant
    for k in opened:
        if k // (rank - 1) == ray:
            poly[(k,)] = poly.get((k,), 0) - 2 * rank
    return poly


def open_windows(rank, pattern):
    return {i * (rank - 1) + l for i, w in enumerate(pattern) for l, x in enumerate(w) if x}


def certificate_holds(rank, cfg, pattern, ray, cert):
    """Whether a certificate's terms are positive, its rows compiled rows of the model, and its
    combination equal to ``Delta + c - 2r*m``."""
    opened = open_windows(rank, pattern)
    rows = table_rows(rank, cfg)
    total = {}
    for coefficient, *factors in cert["terms"]:
        coefficient = Fraction(coefficient)
        if coefficient <= 0:
            return False
        for f in factors:
            if f is not None and f not in (rows if isinstance(f, tuple) else opened):
                return False
        term = {(): 1}
        for f in factors:
            term = polymul(term, factor_poly(f, opened))
        for k, v in term.items():
            total[k] = total.get(k, 0) + coefficient * v
    want = target(rank, cfg, pattern, ray, Fraction(cert["constant"]))
    return {k: v for k, v in total.items() if v} == {k: v for k, v in want.items() if v}


def permute_case(rank, sigma, cfg, pattern, ray):
    """A case with ray i relabelled sigma[i]."""
    kind, pair = cfg
    moved = [None] * 3
    for i, w in enumerate(pattern):
        moved[sigma[i]] = w
    pair = None if pair is None else (sigma[pair[0]], sigma[pair[1]])
    return (kind, pair), tuple(moved), sigma[ray]


def permute_certificate(rank, sigma, cert):
    """A certificate with ray i's windows and row entries relabelled as ray sigma[i]'s."""
    n = 3 * (rank - 1)

    def index(k):
        return sigma[k // (rank - 1)] * (rank - 1) + k % (rank - 1)

    def factor(f):
        if isinstance(f, tuple):
            row = [0] * n
            for k, x in enumerate(f):
                row[index(k)] = x
            return tuple(row)
        return f if f is None else index(f)

    terms = [(c, *map(factor, fs)) for c, *fs in cert["terms"]]
    return {"constant": cert["constant"], "terms": terms}


def entry_case(entry):
    kind, pair = entry["config"]
    cfg = (kind, None if pair is None else tuple(pair))
    return cfg, tuple(map(tuple, entry["pattern"])), entry["ray"]


def load_certificates():
    """The stored certificates, rows as tuples."""
    entries = json.loads(CERTIFICATES.read_text())
    for entry in entries:
        entry["terms"] = [
            (c, *(tuple(f) if isinstance(f, list) else f for f in fs)) for c, *fs in entry["terms"]
        ]
    return entries


@pytest.mark.parametrize("rank", [3, 4])
def test_delta_is_a_twist_invariant_quadratic_form_in_the_windows(rank):
    # the values that determine the polynomial agree with bundle_chern at
    # other points, and no monomial holds a top (variables 3(r-1) and up)
    n = 3 * (rank - 1)
    for cfg in configs(rank):
        form = delta_form(rank, cfg)
        assert form and all(len(k) == 2 and max(k) < n for k in form), cfg
        pairs = _level_pairs(P2, model_of(rank, cfg))
        for shift in range(1, 4):
            x = [(shift * k + 1) % 5 for k in range(n)]
            tops = (shift, -2 * shift, 3)
            windows = tuple(tuple(x[i * (rank - 1) : (i + 1) * (rank - 1)]) for i in range(3))
            (c1,), c2 = bundle_chern(P2, _jump_positions(tops, windows, rank), pairs)
            value = sum(v * x[k[0]] * x[k[1]] for k, v in form.items())
            assert 2 * rank * c2 - (rank - 1) * c1 * c1 == value, (cfg, shift)


@pytest.mark.parametrize("rank, c1, c2", [(3, (1,), 2), (3, (2,), 3), (4, (1,), 3), (4, (3,), 6)])
def test_the_generator_yields_only_certified_patterns(rank, c1, c2):
    # each window triple that the search visits has the zero pattern of a
    # rigid pattern of its configuration
    allowed = {cfg: set(rigid_patterns(rank, cfg)) for cfg in configs(rank)}
    seen = set()
    for model, _tops, windows in enumeration._p2_higher_windows(P2, rank, c1, c2):
        pattern = tuple(tuple(int(x > 0) for x in w) for w in windows)
        assert pattern in allowed[model.key[1:]], (model.key, windows)
        seen.add((model.key[1:], pattern))
    assert seen


@pytest.mark.parametrize("rank, count", [(3, 42), (4, 459)])
def test_every_case_has_an_exact_certificate(rank, count):
    # every stored certificate holds on its own case, and every case holds
    # under some stored certificate moved by a permutation of the rays;
    # each constant is below 3r - 1
    entries = [e for e in load_certificates() if e["rank"] == rank]
    todo = set(cases(rank))
    assert len(todo) == count
    for entry in entries:
        case = entry_case(entry)
        assert case in todo and certificate_holds(rank, *case, entry), case
        assert Fraction(entry["constant"]) < 3 * rank - 1, case
    covered = set()
    for entry in entries:
        for sigma in RAY_PERMUTATIONS:
            case = permute_case(rank, sigma, *entry_case(entry))
            if case not in covered and certificate_holds(
                rank, *case, permute_certificate(rank, sigma, entry)
            ):
                covered.add(case)
    assert covered == todo


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_every_constant_below_3r_minus_1_gives_the_bound(rank):
    # Delta mod 2r depends only on c1 mod 2r, and c2 only shifts Delta by
    # 2r and the bound by 1; for each c1 coprime to r, Delta + r - 1 is a
    # multiple of 2r, and 2r*m <= Delta + c with c < 3r - 1 gives
    # m <= _p2_window_bound
    for d in range(2 * rank):
        if gcd(rank, d) != 1:
            continue
        for c2 in range(3):
            delta = 2 * rank * c2 - (rank - 1) * d * d
            bound = enumeration._p2_window_bound(rank, (d,), c2)
            assert (delta + rank - 1) % (2 * rank) == 0
            assert bound == (delta + rank - 1) // (2 * rank)


@pytest.mark.parametrize(
    "rank, c2, bound, count",
    [(2, 3, 3, 3), (3, 2, 2, 3), (3, 3, 3, 15), (3, 4, 4, 39), (4, 3, 3, 13)],
)
def test_the_bound_is_attained_and_nothing_stable_lies_past_it(rank, c2, bound, count):
    # at c1 = 1 the package's stable candidates are the oracle scan's,
    # whose windows run one past the bound (rank 2: the cube scan to K),
    # and the largest window sum of a stable candidate is the bound
    c1 = (1,)
    assert enumeration._p2_window_bound(rank, c1, c2) == bound
    oracle = unpruned_candidates("P2", rank, c1, c2, *((bound + 1,) if rank > 2 else ()))
    stable = [c for c in oracle.candidates if stable_at(c.forms, (1,))]
    got = enumeration._stable(enumeration._candidates("P2", rank, c1, c2), P2, (1,))
    assert [(c.key, c.tops, c.windows) for c in got] == [(c.key, c.tops, c.windows) for c in stable]
    assert len(got) == count
    assert max(sum(w) for c in stable for w in c.windows) == bound
