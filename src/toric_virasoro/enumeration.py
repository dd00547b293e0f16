"""Enumeration of torus-fixed stable sheaves on toric surfaces.

A fixed point of the moduli space is either a stable equivariant bundle
(filtration data with lines/planes in *coincidence configurations*) or a
torsion-free degeneration of one (span-drops of the local families at fixed
points, adding colength to c2).  This module enumerates them:

* **Configurations are data.**  Each configuration (which flag subspaces
  coincide or are incident) is realized once by an explicit *model* of
  subspaces over Q; the intersection-dimension patterns that drive both the
  K-theory restrictions and the stability test are computed from the model
  by exact linear algebra, not by hand case analysis.  Any model of the same
  configuration yields the same patterns (genericity is asserted when the
  model is built).
* **One closed form for (c1, c2).**  Every search filters by
  :func:`~.klyachko.bundle_chern` on its jump positions and the model's
  per-cone level multiplicities (:func:`_level_pairs`); no configuration has
  its own correction term.  :func:`hirzebruch_ch2_check` feeds it a bundle's
  own flags.
* **Search bounds and their run-time guards.**  Rank-2 windows on F_a
  solve the divisor equation q*m = K + 4*d_i*d_j, K = 4c2 - c1^2 (d_i, d_j
  the windows of an adjacent coincident pair, else 0).  The adjacent-pair
  windows run over the box ``B = 2K + 2a + 8`` (:func:`_r2_box`), and a
  candidate on its two outer shells that is stable at H raises
  :class:`EnumerationError`.  Ranks 3 and 4 run every window profile of sum
  at most ``P``: ``P`` starts at 6 and grows in steps of 2 while a stable
  bundle has a window sum above ``P - 2`` (the same two-shell rule), and
  the run fails loudly once ``P > 24``.  These shell rules are the only
  guards: nothing here certifies that a locus is complete, and only the
  bundled cases are compared with reference rows.
* **Stability in closed form from the windows.**  Each side of the slope
  test is linear in H, so each candidate destabilizing subspace W of the
  model gives one integer *stability form* v with
  ``v . H = r*deg_H(W) - dim W*deg_H(E)``.  It is read straight off the
  window lengths: ``v = sum_i g_i sum_m win[i][m]*(r*d[i,m] - w*m)``, with
  ``g_i`` the degree vector of ray i, ``w = dim W`` and
  ``d[i,m] = dim(W n F_i^m)`` from the model; the top jump positions
  cancel (:func:`~.klyachko.stability_forms`).  Some ``v . H > 0`` means
  unstable, otherwise some ``v . H == 0`` raises (the polarization would be
  on a wall).  A bundle is built only for a stable candidate, in every rank.
* **Two stages for rank 2.**  The first stage, memoized per (surface, c1,
  c2) for the life of the process, runs the box and divisor searches and
  keeps each candidate's spec, its distinct stability forms and whether it
  lies on the box shell.  The second stage, per H, is the sign test, so a
  chamber sweep runs the search once.
* **Every fixed point is verified**: chern invariants are recomputed by
  exact localization on the surface (once per process for each stable
  bundle and each degeneration tree), ranks 3 and 4 use the same stability
  forms at their single H, and isolatedness is certified later by the
  absence of trivial weights in the moduli tangent character.
* **Degenerations do not depend on H.**  Slope stability of a torsion-free
  sheaf is that of its double dual, so the degenerations of a stable bundle
  are walked once per process and shared by every chamber where the bundle
  is stable.

Enumerated configuration kinds cover all coincidences of codimension <= 1
(single coincident pair for rank 2; concurrent planes, collinear lines, or a
single line-in-plane incidence for rank 3); deeper coincidences are taken to
destabilize in the supported cases.  The bundled reference rows agree with
that; no run-time check does.  The candidate subspaces of a model come from
a lattice closure cut off after three rounds (:func:`_closure`), an
unchecked cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .klyachko import (
    Flag,
    Subspace,
    TorusSheaf,
    bundle_chern,
    bundle_from_flags,
    chern_invariants,
    degeneration_children,
    degeneration_colength,
    jump_pairs,
    stability_forms,
    stable_at,
)
from .surfaces import Surface, surface_by_name

_LINE_POOL = [(1, 0), (0, 1), (1, 1), (1, 2)]


class EnumerationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigModel:
    """Concrete flag subspaces for one configuration + stability patterns.

    ``level_spaces[(ray, level)]`` is the model subspace of dimension
    ``level`` in the flag of ``ray``; ``candidates`` lists
    ``(dim W, {(ray, level): dim(W n S)})`` for every candidate destabilizing
    subspace W (concrete lattice elements of the model and generic subspaces
    sandwiched between lattice elements).
    """

    rank: int
    key: tuple
    level_spaces: tuple[tuple[tuple[int, int], Subspace], ...]
    candidates: tuple[tuple[int, tuple[tuple[tuple[int, int], int], ...]], ...]

    def space(self, ray: int, level: int) -> Subspace:
        for k, s in self.level_spaces:
            if k == (ray, level):
                return s
        raise KeyError((ray, level))


def _closure(spaces: list[Subspace], n: int, rounds: int = 3) -> list[Subspace]:
    """The subspaces reached from ``spaces``, 0 and V by ``rounds`` rounds of sums and intersections.

    Sorted by dimension, then basis.  The loop stops early when a round
    adds nothing, but the cap of three rounds is unchecked: no rank-3 or
    rank-4 model closes within it, and one rank-4 lattice grows
    29 -> 97 -> 721 elements after rounds 1, 2 and 3.
    """
    cur = {Subspace.zero(n), Subspace.full(n), *spaces}
    for _ in range(rounds):
        new = set(cur)
        for x in cur:
            for y in cur:
                new.add(x.sum(y))
                new.add(x.intersect(y))
        if new == cur:
            break
        cur = new
    return sorted(cur, key=lambda s: (s.dim, s.rows))


def _make_model(rank: int, key: tuple, level_spaces: dict) -> ConfigModel:
    items = sorted(level_spaces.items())
    # with this, positive windows make every flag built on the model valid
    _require(all(s.dim == level for (_ray, level), s in items), "level dimensions")
    flats = [s for _k, s in items]
    lattice = _closure(flats, rank)
    seen = set()
    cands = []

    def push(w: int, dims: dict):
        if not 0 < w < rank:
            return
        frozen = (w, tuple(sorted(dims.items())))
        if frozen not in seen:
            seen.add(frozen)
            cands.append(frozen)

    for L in lattice:
        push(L.dim, {k: L.intersect(s).dim for k, s in items})
    for L1 in lattice:
        for L2 in lattice:
            if L2.dim > L1.dim + 1 and L1 <= L2:
                d1 = {k: L1.intersect(s).dim for k, s in items}
                d2 = {k: L2.intersect(s).dim for k, s in items}
                for w in range(L1.dim + 1, L2.dim):
                    dims = {}
                    for k, _s in items:
                        extra = (w - L1.dim) + (d2[k] - d1[k]) - (L2.dim - L1.dim)
                        dims[k] = d1[k] + max(0, extra)
                    push(w, dims)
    return ConfigModel(
        rank=rank,
        key=key,
        level_spaces=tuple(items),
        candidates=tuple(cands),
    )


def _require(cond: bool, what: str):
    if not cond:
        raise EnumerationError(f"model genericity failed: {what}")


@lru_cache(maxsize=None)
def r2_model(nrays: int, classes: tuple) -> ConfigModel:
    """Rank-2 model: one line per ray, equal lines for equal class ids."""
    spaces = {(ray, 1): Subspace.span(2, [_LINE_POOL[cls]]) for ray, cls in enumerate(classes)}
    # distinct classes must give distinct lines (pool vectors are distinct)
    vals = {}
    for (ray, _l), s in spaces.items():
        cls = classes[ray]
        if cls in vals:
            _require(vals[cls] == s, "class consistency")
        vals[cls] = s
    _require(len({s for s in vals.values()}) == len(vals), "distinct lines")
    return _make_model(2, ("r2", classes), spaces)


def _r2_configs(nrays: int) -> list[tuple]:
    """Class assignments: all-distinct, plus one coincident pair."""
    generic = tuple(range(nrays))
    configs = [generic]
    for i, j in combinations(range(nrays), 2):
        cl = list(range(nrays))
        cl[j] = cl[i]
        # renumber to canonical ids
        seen: dict[int, int] = {}
        canon = []
        for c in cl:
            if c not in seen:
                seen[c] = len(seen)
            canon.append(seen[c])
        configs.append(tuple(canon))
    return configs


def _moment(k: int, n: int) -> tuple:
    return tuple(k**i for i in range(n))


@lru_cache(maxsize=None)
def r3_model(kind: str, pair: tuple | None = None) -> ConfigModel:
    """Rank-3 models on the plane: generic / concurrent / collinear / incidence."""
    n = 3
    if kind in ("generic", "incidence"):
        lines = [Subspace.span(n, [_moment(2 * i + 1, n)]) for i in range(3)]
        planes = [
            Subspace.span(n, [_moment(2 * i + 1, n), _moment(2 * i + 2, n)])
            for i in range(3)
        ]
        if kind == "incidence":
            a, b = pair
            lines[a] = planes[a].intersect(planes[b])
            _require(lines[a].dim == 1, "incidence line")
    elif kind == "concurrent":
        axis = (1, 1, 1)
        lines = [Subspace.span(n, [v]) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        planes = [lines[i].sum(Subspace.span(n, [axis])) for i in range(3)]
        for i, j in combinations(range(3), 2):
            _require(planes[i].intersect(planes[j]) == Subspace.span(n, [axis]), "axis")
    elif kind == "collinear":
        lines = [Subspace.span(n, [v]) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
        planes = [
            lines[0].sum(Subspace.span(n, [(0, 1, 1)])),
            lines[1].sum(Subspace.span(n, [(1, 0, 2)])),
            lines[2].sum(Subspace.span(n, [(1, 2, 3)])),
        ]
        _require(lines[0].sum(lines[1]).sum(lines[2]).dim == 2, "coplanar lines")
    else:
        raise ValueError(kind)

    # common genericity: distinct lines, flags interleave as freely as the
    # configuration allows
    for i in range(3):
        _require(lines[i] <= planes[i], "flag containment")
    for i, j in combinations(range(3), 2):
        _require(lines[i] != lines[j], "distinct lines")
        _require(planes[i] != planes[j], "distinct planes")
        _require(planes[i].intersect(planes[j]).dim == 1, "plane pair")
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expected = (
                kind == "incidence" and (i, j) == tuple(pair)
            )
            _require((lines[i] <= planes[j]) == expected, f"incidence ({i},{j})")
    if kind != "collinear":
        _require(lines[0].sum(lines[1]).sum(lines[2]).dim == 3, "spanning lines")
    if kind != "concurrent":
        _require(
            planes[0].intersect(planes[1]).intersect(planes[2]).dim == 0,
            "no common axis",
        )

    spaces = {}
    for i in range(3):
        spaces[(i, 1)] = lines[i]
        spaces[(i, 2)] = planes[i]
    return _make_model(3, ("r3", kind, pair), spaces)


def _r3_configs() -> list[tuple]:
    out = [("generic", None), ("concurrent", None), ("collinear", None)]
    for a in range(3):
        for b in range(3):
            if a != b:
                out.append(("incidence", (a, b)))
    return out


@lru_cache(maxsize=None)
def r4_model(kind: str = "generic", pair: tuple | None = None) -> ConfigModel:
    """Rank-4 models on the plane.

    generic: three partial flags in general position.
    incidence (a, b): the line of ray a is contained in the 3-space of ray b;
    everything else is as generic as that constraint allows.
    """
    n = 4
    spaces = {}
    for i in range(3):
        vs = [_moment(3 * i + 1 + j, n) for j in range(3)]
        spaces[(i, 1)] = Subspace.span(n, vs[:1])
        spaces[(i, 2)] = Subspace.span(n, vs[:2])
        spaces[(i, 3)] = Subspace.span(n, vs[:3])
    if kind == "incidence":
        a, b = pair
        # replace the ray-a flag by one whose line sits in the ray-b 3-space
        line = Subspace.span(n, [_vec_sum(_moment(3 * b + 1 + j, n) for j in range(3))])
        _require(line <= spaces[(b, 3)], "incidence line")
        w1, w2 = _moment(3 * a + 1, n), _moment(3 * a + 2, n)
        spaces[(a, 1)] = line
        spaces[(a, 2)] = line.sum(Subspace.span(n, [w1]))
        spaces[(a, 3)] = spaces[(a, 2)].sum(Subspace.span(n, [w2]))
    elif kind != "generic":
        raise ValueError(kind)
    for i, j in combinations(range(3), 2):
        for a_ in range(1, 4):
            for b_ in range(1, 4):
                got = spaces[(i, a_)].intersect(spaces[(j, b_)]).dim
                want = max(0, a_ + b_ - 4)
                if kind == "incidence" and (i, a_, j, b_) in (
                    (pair[0], 1, pair[1], 3),
                    (pair[1], 3, pair[0], 1),
                ):
                    want = 1
                _require(got == want, f"pair dims {(i,a_,j,b_)}")
    if kind == "generic":
        for a_ in range(1, 4):
            for b_ in range(1, 4):
                for c_ in range(1, 4):
                    got = (
                        spaces[(0, a_)]
                        .intersect(spaces[(1, b_)])
                        .intersect(spaces[(2, c_)])
                        .dim
                    )
                    want = max(0, max(0, a_ + b_ - 4) + c_ - 4)
                    _require(got == want, f"triple dims {(a_,b_,c_)}")
    return _make_model(4, ("r4", kind, pair), spaces)


def _vec_sum(vecs) -> tuple:
    out = None
    for v in vecs:
        out = v if out is None else tuple(x + y for x, y in zip(out, v))
    return out


def _r4_configs() -> list[tuple]:
    out = [("generic", None)]
    for a in range(3):
        for b in range(3):
            if a != b:
                out.append(("incidence", (a, b)))
    return out


# ---------------------------------------------------------------------------
# sheaf construction and filtering
# ---------------------------------------------------------------------------


_full_space = lru_cache(maxsize=None)(Subspace.full)


def _build_bundle(
    surface: Surface,
    rank: int,
    model: ConfigModel,
    tops: tuple[int, ...],
    windows: tuple[tuple[int, ...], ...],
) -> TorusSheaf:
    """Bundle with per-ray top jump position tops[i] and window lengths
    windows[i] = (w_1, ..., w_{rank-1}) below it (level L jumps at
    tops[i] - sum of windows from L up, :func:`_jump_positions`)."""
    V = _full_space(rank)
    flags = []
    for i, (top, wins) in enumerate(zip(tops, windows)):
        pos = _jump_positions(top, wins, rank)
        steps = [(pos[l - 1], model.space(i, l)) for l in range(1, rank) if wins[l - 1] > 0]
        flags.append(Flag(rank, (*steps, (top, V))))
    return bundle_from_flags(surface, rank, flags, config=model.key)


def _jump_positions(top: int, wins: tuple, rank: int) -> list[int]:
    """Position of the jump to each level 1..rank: ``top`` minus the windows from that level up."""
    pos = [top] * rank
    for lvl in range(rank - 1, 0, -1):
        pos[lvl - 1] = pos[lvl] - wins[lvl - 1]
    return pos


def _level_pairs(surface: Surface, model: ConfigModel) -> list[list[tuple[int, int, int]]]:
    """Per cone, the ``(l, m, mu)`` jump pairs of the model's level flags (space l at l).

    An empty window merges two levels at one position; the merged step's
    second difference is the sum of the level ones, so the pairs stay exact.
    """
    rank = model.rank
    flags = [
        Flag(rank, (*((l, model.space(i, l)) for l in range(1, rank)), (rank, _full_space(rank))))
        for i in range(len(surface.rays))
    ]
    return [jump_pairs(flags[i], flags[j]) for i, j in surface.cones]


def _closed_chern(surface: Surface, pos: list[list[int]], levels: list) -> tuple:
    """(c1, c2) of the bundle whose level-l jump on ray i is at ``pos[i][l - 1]``."""
    jumps = [[(x, 1) for x in row] for row in pos]
    pairs = [
        [(pos[i][l - 1], pos[j][m - 1], mu) for l, m, mu in cone_levels]
        for (i, j), cone_levels in zip(surface.cones, levels)
    ]
    return bundle_chern(surface, jumps, pairs)


def _verified(sheaf: TorusSheaf, rank: int, c1: tuple, c2: int) -> TorusSheaf:
    got = chern_invariants(sheaf)
    if got != (rank, tuple(c1), c2):
        raise EnumerationError(
            f"enumerated sheaf has invariants {got}, expected {(rank, c1, c2)}"
        )
    return sheaf


# ---------------------------------------------------------------------------
# rank-2 bundles
# ---------------------------------------------------------------------------


def _pool_assignment(classes: tuple, deltas: tuple) -> bool:
    """A class assignment is meaningful only if coincident rays have lines."""
    counts: dict[int, int] = {}
    for cls, d in zip(classes, deltas):
        if d > 0:
            counts[cls] = counts.get(cls, 0) + 1
    # every class that names a pair must actually have both windows open
    pair_classes = {c for c in classes if classes.count(c) > 1}
    for c in pair_classes:
        if counts.get(c, 0) != classes.count(c):
            return False
    return True


def _r2_candidates_p2(d: int, c2: int):
    """(deltas, tops) for the plane: exact quadratic equation, proven box."""
    K = 4 * c2 - d * d
    if K <= 0:
        return
    for x in range(1, K + 1):
        for y in range(1, K + 1):
            for z in range(1, K + 1):
                if (x + y + z) % 2 != (d % 2 + 2) % 2:
                    continue
                total = x + y + z
                if total * total - 2 * (x * x + y * y + z * z) != K:
                    continue
                A1 = (total - d) // 2
                yield (x, y, z), (A1, 0, 0)


class _Candidate(NamedTuple):
    """One H-independent rank-2 candidate of the box search.

    The first four fields are its ``spec``; ``forms`` are the distinct
    stability forms of its bundle; ``shell`` marks a candidate on the outer
    shells of the adjacent-pair box.
    """

    nrays: int
    classes: tuple
    tops: tuple
    deltas: tuple
    forms: tuple[tuple[int, ...], ...]
    shell: bool

    @property
    def spec(self) -> tuple:
        return self[:4]


@lru_cache(maxsize=None)
def _r2_candidates(surface_name: str, c1: tuple, c2: int) -> tuple[int, tuple[_Candidate, ...]]:
    """The adjacent-pair box size B and every rank-2 candidate, in search order.

    This stage does not depend on the polarization: it runs the box and
    divisor searches with the closed-form (c1, c2) filter and keeps one
    record per survivor, with the stability forms read off its windows (no
    bundle is built).
    """
    surface = surface_by_name(surface_name)
    out = []
    shared: dict[tuple, tuple] = {}  # one object per distinct form or tops
    levels: dict[tuple, list] = {}  # level pairs per class assignment

    def has_invariants(classes: tuple, tops: tuple, deltas: tuple) -> bool:
        if classes not in levels:
            levels[classes] = _level_pairs(surface, r2_model(len(classes), classes))
        pos = [_jump_positions(t, (d,), 2) for t, d in zip(tops, deltas)]
        return _closed_chern(surface, pos, levels[classes]) == (c1, c2)

    def keep(classes: tuple, tops: tuple, deltas: tuple, shell: bool = False) -> None:
        model = r2_model(len(classes), classes)
        forms = stability_forms(surface, 2, tuple((x,) for x in deltas), model.candidates)
        forms = tuple(dict.fromkeys(shared.setdefault(v, v) for v in forms))
        tops = shared.setdefault(tops, tops)
        out.append(_Candidate(len(classes), classes, tops, deltas, forms, shell))

    if surface.name == "P2":
        # Coincident lines are never stable here: a two-class split of the
        # rays would need both 2*deg(C) < deg(E) and 2*deg(C') < deg(E) with
        # deg(C) + deg(C') = deg(E).  Only the all-distinct configuration
        # survives, and its window equation has a proven box bound.
        classes = (0, 1, 2)
        for deltas, tops in _r2_candidates_p2(c1[0], c2):
            if has_invariants(classes, tops, deltas):
                keep(classes, tops, deltas)
        return 0, tuple(out)

    a = int(surface.name[1:])
    f, z = c1
    K = 4 * c2 - surface.pair(c1, c1)
    if K <= 0:
        return 0, ()

    def try_candidate(deltas: tuple, classes: tuple, shell: bool = False) -> None:
        d1, d2, d3, d4 = deltas
        p = d1 + a * d2 + d3
        q = d2 + d4
        if q < 1:
            return
        if (p - f) % 2 or (q - z) % 2:
            return
        A1 = (p - f) // 2
        A4 = (q - z) // 2
        tops = (A1, 0, 0, A4)
        if not _pool_assignment(classes, deltas):
            return
        if not has_invariants(classes, tops, deltas):
            return
        keep(classes, tops, deltas, shell)

    # corr = 0 configurations: exact divisor loop over q*m = K
    zero_corr = [c for c in _r2_configs(4) if _config_opposite_or_generic(surface, c)]
    for q in range(1, K + 1):
        if K % q:
            continue
        m = K // q
        for d2 in range(q + 1):
            d4 = q - d2
            u2 = m - a * (d4 - d2)
            if u2 < 0 or u2 % 2:
                continue
            u = u2 // 2
            for d1 in range(u + 1):
                d3 = u - d1
                for classes in zero_corr:
                    try_candidate((d1, d2, d3, d4), classes)

    # adjacent coincident pairs: bounded box; candidates on its two outer
    # shells are marked, and a *stable* one means the bound was too small
    B = _r2_box(K, a)
    for classes in _r2_configs(4):
        pair = _coincident_pair(classes)
        if pair is None or not _adjacent(surface, pair):
            continue
        # iterate the two pair windows and the free ray among rays 1,3 (0-based)
        for di in range(1, B + 1):
            for dj in range(1, B + 1):
                for dk in range(0, B + 1):
                    for cand in _fill_deltas(a, K, pair, (di, dj), dk):
                        try_candidate(cand, classes, max(cand) > B - 2)
    return B, tuple(out)


def _r2_box(K: int, a: int) -> int:
    """Side of the adjacent-pair window box for discriminant K on F_a."""
    return 2 * K + 2 * a + 8


@lru_cache(maxsize=None)
def _r2_bundle(surface_name: str, c1: tuple, c2: int, spec: tuple) -> TorusSheaf:
    """The verified bundle of one stable candidate, built once per process."""
    nrays, classes, tops, deltas = spec
    sheaf = _build_bundle(
        surface_by_name(surface_name), 2, r2_model(nrays, classes), tops, tuple((x,) for x in deltas)
    )
    return _verified(sheaf, 2, c1, c2)


def _r2_bundles(surface: Surface, c1: tuple, c2: int, H: tuple) -> list[TorusSheaf]:
    """The stable rank-2 bundles at H: a sign test per candidate's forms."""
    c1 = tuple(c1)
    B, candidates = _r2_candidates(surface.name, c1, c2)
    out = []
    shell_hits = []
    for cand in candidates:
        if stable_at(cand.forms, H):
            out.append(_r2_bundle(surface.name, c1, c2, cand.spec))
            if cand.shell:
                shell_hits.append(cand.deltas)
    if shell_hits:
        raise EnumerationError(
            f"rank-2 search box too small (B={B}); hits: {shell_hits[:3]}"
        )
    return out


def _coincident_pair(classes: tuple):
    for i, j in combinations(range(len(classes)), 2):
        if classes[i] == classes[j]:
            return (i, j)
    return None


def _adjacent(surface: Surface, pair: tuple) -> bool:
    return tuple(sorted(pair)) in {tuple(sorted(c)) for c in surface.cones}


def _config_opposite_or_generic(surface: Surface, classes: tuple) -> bool:
    pair = _coincident_pair(classes)
    return pair is None or not _adjacent(surface, pair)


def _fill_deltas(a, K, pair, pair_vals, dk):
    """Solve the remaining window from q*m = K + 4*corr for an adjacent pair.

    The pair always contains exactly one of rays {1, 3} (0-based), so with
    the two pair windows and the other {1,3}-ray window chosen, q is known
    and the last window is determined linearly.
    """
    i, j = pair
    di, dj = pair_vals
    deltas = [None, None, None, None]
    deltas[i], deltas[j] = di, dj
    other_24 = 3 if (1 in pair) else 1
    if deltas[other_24] is None:
        deltas[other_24] = dk
    else:
        return []
    q = deltas[1] + deltas[3]
    if q < 1:
        return []
    corr = di * dj
    if (K + 4 * corr) % q:
        return []
    m = (K + 4 * corr) // q
    u2 = m - a * (deltas[3] - deltas[1])
    if u2 < 0 or u2 % 2:
        return []
    u = u2 // 2
    free_02 = [k for k in (0, 2) if deltas[k] is None]
    if len(free_02) == 1:
        k = free_02[0]
        known = deltas[0] if k == 2 else deltas[2]
        val = u - known
        if val < 0:
            return []
        deltas[k] = val
        return [tuple(deltas)]
    # pair was (0, 2): opposite, never reaches here (corr = 0 path)
    out = []
    for d0 in range(u + 1):
        deltas[0], deltas[2] = d0, u - d0
        out.append(tuple(deltas))
    return out


# ---------------------------------------------------------------------------
# rank-3 / rank-4 bundles on the plane
# ---------------------------------------------------------------------------


def _p2_higher_bundles(rank: int, c1: tuple, c2: int, H: tuple) -> list[TorusSheaf]:
    surface = surface_by_name("P2")
    c1 = tuple(c1)
    d = c1[0]
    out = []
    P = 6
    while True:
        shell = []
        found = []
        profiles = _window_profiles(rank, P)
        configs = _r3_configs() if rank == 3 else _r4_configs()
        for cfg in configs:
            model = (r3_model if rank == 3 else r4_model)(*cfg)
            levels = _level_pairs(surface, model)
            for w1 in profiles:
                for w2 in profiles:
                    for w3 in profiles:
                        wins = (w1, w2, w3)
                        if not _config_active(rank, cfg, wins):
                            continue
                        if not _config_rigid(rank, cfg, wins):
                            continue
                        # window at level L is crossed by the jumps of levels
                        # 1..L, so it enters c1 with weight L
                        tot = sum(
                            lvl * wins[i][lvl - 1]
                            for i in range(3)
                            for lvl in range(1, rank)
                        )
                        if (tot - d) % rank:
                            continue
                        A1 = (tot - d) // rank
                        tops = (A1, 0, 0)
                        pos = [_jump_positions(tops[i], wins[i], rank) for i in range(3)]
                        if _closed_chern(surface, pos, levels) != (c1, c2):
                            continue
                        if stable_at(stability_forms(surface, rank, wins, model.candidates), H):
                            if any(sum(w) > P - 2 for w in wins):
                                shell.append(wins)
                            sheaf = _build_bundle(surface, rank, model, tops, wins)
                            found.append(_verified(sheaf, rank, c1, c2))
        if not shell:
            out = found
            break
        P += 2
        if P > 24:
            raise EnumerationError("window box exhausted")
    return out


def _window_profiles(rank: int, P: int) -> list[tuple]:
    if rank == 3:
        return [(a, b) for a in range(P + 1) for b in range(P + 1) if a + b <= P]
    return [
        (a, b, c)
        for a in range(P + 1)
        for b in range(P + 1)
        for c in range(P + 1)
        if a + b + c <= P
    ]


def _config_active(rank: int, cfg: tuple, wins: tuple) -> bool:
    kind, pair = cfg
    if kind == "generic":
        return True
    if kind == "concurrent":
        return all(w[1] > 0 for w in wins)
    if kind == "collinear":
        return all(w[0] > 0 for w in wins)
    a, b = pair
    # line of ray a inside the codimension-one space of ray b
    return wins[a][0] > 0 and wins[b][rank - 2] > 0


def _flag_dim(rank: int, win: tuple) -> int:
    """Dimension of the partial flag variety with the active subspace dims."""
    dims = [lvl for lvl in range(1, rank) if win[lvl - 1] > 0]
    steps = []
    prev = 0
    for dd in dims + [rank]:
        steps.append(dd - prev)
        prev = dd
    return (rank * rank - sum(s * s for s in steps)) // 2


_COINCIDENCE_CODIM = {"generic": 0, "incidence": 1, "concurrent": 1, "collinear": 1}


def _config_rigid(rank: int, cfg: tuple, wins: tuple) -> bool:
    """Keep configurations whose flag data is rigid modulo GL(rank).

    An isolated stable fixed point needs stabiliser-free rigid flag data:
    total flag-variety dimension minus coincidence codimension must equal
    dim PGL(rank).  Smaller means extra automorphisms (never stable), larger
    means positive-dimensional families (never isolated).
    """
    total = sum(_flag_dim(rank, w) for w in wins)
    return total - _COINCIDENCE_CODIM[cfg[0]] == rank * rank - 1


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def enumerate_bundles(surface: Surface, rank: int, c1: tuple, c2: int, H: tuple):
    if rank == 2:
        return _r2_bundles(surface, c1, c2, H)
    if surface.name == "P2" and rank in (3, 4):
        return _p2_higher_bundles(rank, c1, c2, H)
    raise EnumerationError(f"unsupported case: {surface.name} rank {rank}")


def _bogomolov_floor(surface: Surface, rank: int, c1: tuple) -> int:
    """Smallest c2 >= 0 with c2 >= (r-1) c1^2 / (2r) (Bogomolov)."""
    return max(0, -(-(rank - 1) * surface.pair(c1, c1) // (2 * rank)))


def fixed_locus(surface: Surface, rank: int, c1: tuple, c2: int, H: tuple):
    """All torus-fixed stable sheaves: bundles + torsion-free degenerations."""
    c1 = tuple(c1)
    out = []
    for c2p in range(_bogomolov_floor(surface, rank, c1), c2 + 1):
        seeds = enumerate_bundles(surface, rank, c1, c2p, H)
        if c2p == c2:
            out.extend(seeds)
            continue
        for seed in reversed(seeds):
            out.extend(_degenerations(seed, c2 - c2p, c1, c2))
    return out


@lru_cache(maxsize=None)
def _degenerations(seed: TorusSheaf, want: int, c1: tuple, c2: int) -> tuple[TorusSheaf, ...]:
    """The verified degenerations of colength ``want`` of one stable bundle.

    Slope stability of a torsion-free sheaf is that of its double dual, so
    the tree does not depend on the polarization and is walked once per
    process (depth first; children keep the seed's flags, so the trees of
    distinct seeds are disjoint).
    """
    out = []
    seen = {seed.key()}
    stack = [seed]
    while stack:
        sh = stack.pop()
        col = degeneration_colength(sh)
        if col == want:
            out.append(_verified(sh, seed.rank, c1, c2))
            continue
        for child in degeneration_children(sh, budget=want - col):
            k = child.key()
            if k not in seen:
                seen.add(k)
                stack.append(child)
    return tuple(out)


@lru_cache(maxsize=None)
def fixed_locus_cached(surface_name: str, rank: int, c1: tuple, c2: int, H: tuple):
    surface = surface_by_name(surface_name)
    return tuple(fixed_locus(surface, rank, c1, c2, H))


# ---------------------------------------------------------------------------
# walls
# ---------------------------------------------------------------------------


def wall_slopes(surface: Surface, rank: int, c1: tuple, c2: int) -> list[Fraction]:
    """Candidate wall slopes sigma = hF/hZ in the ample range (a, infinity).

    A destabilizing class xi = x*F + y*Z must satisfy the Hodge-index bound
    -(4*c2 - c1^2) <= xi^2 < 0 and meet a polarization with xi.H = 0, i.e.
    sigma = a - x/y.  No congruence condition is imposed on (x, y), so the
    returned set can be a superset of the true walls: chambers may be
    subdivided but are never merged, which keeps every returned interval
    wall-free.
    """
    if surface.name == "P2":
        return []
    if rank != 2:
        raise EnumerationError("walls are computed for rank 2 only")
    a = int(surface.name[1:])
    K = 4 * c2 - surface.pair(c1, c1)
    if K <= 0:
        return []
    slopes = set()
    y = 1
    while a * y * y + 2 * y <= K:
        x = -1
        while True:
            xi_sq = 2 * x * y - a * y * y
            if xi_sq < -K:
                break
            if xi_sq < 0:
                slope = Fraction(a) - Fraction(x, y)
                if slope > a:
                    slopes.add(slope)
            x -= 1
        y += 1
    return sorted(slopes)


def chamber_representatives(
    surface: Surface, rank: int, c1: tuple, c2: int
) -> list[tuple]:
    """One valid polarization per chamber of the ample cone.

    Chambers are the open intervals between consecutive wall slopes (the
    last one truncated two units past the final wall).  Each representative
    is the interior slope with the smallest denominator, then the smallest
    numerator, subject to gcd(rank, c1.H) = 1 so slope stability has no
    ties.
    """
    if surface.name == "P2":
        return [(1,)]
    a = int(surface.name[1:])
    walls = wall_slopes(surface, rank, c1, c2)
    bounds = [Fraction(a)] + walls
    bounds.append(bounds[-1] + 2)
    reps = []
    for lo, hi in zip(bounds, bounds[1:]):
        reps.append(_interior_polarization(surface, rank, c1, lo, hi))
    return reps


def _interior_polarization(surface, rank, c1, lo: Fraction, hi: Fraction) -> tuple:
    """Smallest-denominator polarization strictly inside the slope interval."""
    q = 1
    while True:
        p = lo * q + 1 if (lo * q).denominator == 1 else -(-lo * q // 1)
        while p < hi * q:
            H = (int(p), q)
            if gcd(int(p), q) == 1 and gcd(rank, surface.pair(c1, H)) == 1:
                return H
            p += 1
        q += 1


def hirzebruch_ch2_check(sheaf: TorusSheaf) -> bool:
    """Cross-check the closed-form (c1, c2) of a bundle's own flags against localization."""
    if not sheaf.is_locally_free:
        raise EnumerationError("the closed c2 formula applies to bundles")
    surface, flags = sheaf.surface, sheaf.flags
    pairs = [jump_pairs(flags[i], flags[j]) for i, j in surface.cones]
    closed = bundle_chern(surface, [flag.jumps for flag in flags], pairs)
    return closed == chern_invariants(sheaf)[1:]
