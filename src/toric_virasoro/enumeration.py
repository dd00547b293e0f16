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
  :func:`~.klyachko.bundle_chern` on the candidate's flat jump positions
  (:func:`_jump_positions`) and the model's jump pairs as index triples
  into them (:func:`_level_pairs`, once per model); no configuration has
  its own correction term.  :func:`hirzebruch_ch2_check` feeds it a
  bundle's own flags.
* **One search, in two stages.**  Each supported (surface, rank) has a
  window generator that yields ``(model, tops, windows)``:

  - rank 2 on the plane solves a quadratic in a proven box
    (:func:`_p2_r2_windows`);
  - rank 2 on F_a solves the divisor equation q*m = K + 4*d_i*d_j,
    K = 4c2 - c1^2 (d_i, d_j the windows of an adjacent coincident pair,
    else 0), for the tuples that the ample test keeps, with each window
    loop run to a bound of order K proven in :func:`_fa_r2_windows`;
  - ranks 3 and 4 on the plane take window profiles of sum at most ``P``
    and visit only the rigid triples (:func:`_p2_higher_windows`).

  The first stage, memoized per (surface, rank, c1, c2), and per ``P`` in
  ranks 3 and 4, for the life of the process, keeps every generated candidate whose
  closed-form (c1, c2) matches and that is stable on an open set of ample
  H (the *ample test*, below), with its distinct stability forms on the
  nef rays.  The rank-2 generators solve the (c1, c2) equation, so there
  the ample test runs first and (c1, c2) only on its survivors; most
  rank-3/4 triples fail (c1, c2), so there (c1, c2) runs first.  Either
  order decides the same stage.  The second stage, per H, is the sign
  test, then the shell rule, then one memoized builder that builds and
  verifies each stable bundle, so a chamber sweep runs the search once,
  and rank 2, with no bound to grow, builds its stage once per (c1, c2).
  *Shell rule*, for ``P`` alone (no proof bounds it yet): while a
  candidate that is stable at H has a profile sum above ``P - 2``, ``P``
  grows by 2 and the search reruns; once it passes 4x its start 6,
  :class:`EnumerationError`.  This rule is the only guard of ranks 3 and
  4: nothing here certifies that their loci are complete, and only the
  bundled cases are compared with reference rows.
* **Stability in nef coordinates.**  Each side of the slope test is linear
  in H, so each candidate destabilizing subspace W of the model gives one
  integer *stability form* v with ``v . H = r*deg_H(W) - dim W*deg_H(E)``,
  linear in the window lengths.  The first time the search meets a model it
  compiles :func:`~.klyachko.stability_table`, one integer row per (W, nef
  ray), and a candidate's forms are the distinct ``(a, b) = (v . rho1,
  v . rho2)`` over :attr:`~.surfaces.Surface.nef_rays` (b = 0 on the
  plane).  An ample H is a positive multiple of ``alpha*rho1 + beta*rho2``
  with alpha, beta > 0 (:func:`_nef_coordinates`), so ``v . H`` has the
  sign of ``alpha*a + beta*b``.  Per stage, the *ample test*
  (:func:`_ample_test`) drops a candidate whose open interval of
  ``t = alpha/beta`` with every ``v . H < 0`` is empty: it is unstable at
  every ample H except where its largest ``v . H`` is 0, which (with no
  zero form) is at most the one H where the interval closes to a point, and
  the stage records that H's (alpha, beta) in :attr:`_Stage.ties`.  Per H,
  a candidate's verdict is the largest ``alpha*a + beta*b`` over its forms:
  positive means unstable, zero (or a tie of the stage) raises
  :class:`~.klyachko.SlopeTie`, negative (or no form at all) means stable,
  and only then is a bundle built.  So at every ample H the pruned stage
  gives the same stable candidates, or ``SlopeTie``, as the unpruned one
  (``tests/oracles.py``), and the shell rule sees the same hits.  It is
  exact only for ample H, so :func:`enumerate_bundles` and
  :func:`fixed_locus` refuse any other H.
* **Every fixed point is verified**: chern invariants are recomputed by
  exact localization on the surface (once per process for each stable
  bundle and each degeneration tree), and isolatedness is certified later
  by the absence of trivial weights in the moduli tangent character.
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
from itertools import accumulate, chain, combinations
from math import gcd, isqrt
from operator import mul, sub
from typing import NamedTuple

from .klyachko import (
    Flag,
    SlopeTie,
    Subspace,
    TorusSheaf,
    bundle_chern,
    bundle_from_flags,
    chern_invariants,
    degeneration_children,
    degeneration_colength,
    jump_pairs,
    stability_table,
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


_CLOSURE_ROUNDS = 3


def _closure(spaces: list[Subspace], n: int) -> list[Subspace]:
    """The subspaces reached from ``spaces``, 0 and V by ``_CLOSURE_ROUNDS`` rounds of sums and
    intersections.

    Sorted by dimension, then basis.  The loop stops early when a round
    adds nothing, but the cap of three rounds is unchecked: no rank-3 or
    rank-4 model closes within it, and one rank-4 lattice grows
    29 -> 97 -> 721 elements after rounds 1, 2 and 3.
    """
    cur = {Subspace.zero(n), Subspace.full(n), *spaces}
    for _ in range(_CLOSURE_ROUNDS):
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

    # dim L and {(ray, level): dim(L n S)} of each lattice element L
    dim = [L.dim for L in lattice]
    dims_of = [{k: L.intersect(s).dim for k, s in items} for L in lattice]
    for n, d in zip(dim, dims_of):
        push(n, d)
    for L1, n1, d1 in zip(lattice, dim, dims_of):
        for L2, n2, d2 in zip(lattice, dim, dims_of):
            if n2 > n1 + 1 and L1 <= L2:
                for w in range(n1 + 1, n2):
                    dims = {}
                    for k, _s in items:
                        extra = (w - n1) + (d2[k] - d1[k]) - (n2 - n1)
                        dims[k] = d1[k] + max(0, extra)
                    push(w, dims)
    return ConfigModel(
        rank=rank,
        key=key,
        level_spaces=tuple(items),
        candidates=tuple(cands),
    )


def _model(key: tuple) -> ConfigModel:
    """The model of a configuration key (each model is built once per process)."""
    kind, *args = key
    if kind == "r2":
        return r2_model(len(args[0]), *args)
    return (r3_model if kind == "r3" else r4_model)(*args)


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
    """Class assignments: all-distinct, then one per coincident pair of rays, in
    ``combinations`` order."""
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
    pos = _jump_positions(tops, windows, rank)
    flags = []
    for i, wins in enumerate(windows):
        at = pos[i * rank : (i + 1) * rank]
        steps = [(at[l - 1], model.space(i, l)) for l in range(1, rank) if wins[l - 1] > 0]
        flags.append(Flag(rank, (*steps, (at[-1], V))))
    return bundle_from_flags(surface, rank, flags, config=model.key)


def _jump_positions(tops: tuple, windows: tuple, rank: int) -> list[int]:
    """The jump to level l on ray i, at index ``i*rank + l - 1``: ``tops[i]`` minus the windows
    from level l up."""
    pos = []
    for top, wins in zip(tops, windows):
        ray = [*accumulate(reversed(wins), sub, initial=top)]
        ray.reverse()
        pos += ray
    return pos


def _level_pairs(surface: Surface, model: ConfigModel) -> tuple[tuple[int, int, int], ...]:
    """The model's jump pairs over every cone, as index triples into :func:`_jump_positions`.

    The level flag of ray i puts space l at position l, so its jump pair
    ``(l, m, mu)`` on cone (i, j) becomes ``(i*r + l - 1, j*r + m - 1, mu)``.
    An empty window merges two levels at one position; the merged step's
    second difference is the sum of the level ones, so the pairs stay exact.
    """
    rank = model.rank
    flags = [
        Flag(rank, (*((l, model.space(i, l)) for l in range(1, rank)), (rank, _full_space(rank))))
        for i in range(len(surface.rays))
    ]
    return tuple(
        (i * rank + l - 1, j * rank + m - 1, mu)
        for i, j in surface.cones
        for l, m, mu in jump_pairs(flags[i], flags[j])
    )


def _verified(sheaf: TorusSheaf, rank: int, c1: tuple, c2: int) -> TorusSheaf:
    got = chern_invariants(sheaf)
    if got != (rank, tuple(c1), c2):
        raise EnumerationError(
            f"enumerated sheaf has invariants {got}, expected {(rank, c1, c2)}"
        )
    return sheaf


# ---------------------------------------------------------------------------
# window generators: (model, tops, windows)
# ---------------------------------------------------------------------------


def _p2_r2_windows(surface: Surface, rank: int, c1: tuple, c2: int):
    """Rank 2 on the plane: the exact quadratic equation, solved for the third window.

    Coincident lines are never stable here: a two-class split of the rays
    would need both 2*deg(C) < deg(E) and 2*deg(C') < deg(E) with
    deg(C) + deg(C') = deg(E).  Only the all-distinct configuration
    survives.  With K = 4c2 - c1^2, its windows x, y, z satisfy
    ``(x + y + z)^2 - 2(x^2 + y^2 + z^2) = K``, that is
    ``z^2 - 2(x + y)z + (x - y)^2 + K = 0``: z = x + y +- sqrt(4xy - K),
    in ascending order.  The loops stop at K, which bounds every stable
    tuple: stability puts each window below half their sum, so
    b = x + z - y and c = x + y - z are at least 1, as is
    a = y + z - x, and K = ab + bc + ca >= b + c = 2x (y, z alike).
    """
    model = r2_model(3, (0, 1, 2))
    d = c1[0]
    K = 4 * c2 - d * d
    for x in range(1, K + 1):
        for y in range(1, K + 1):
            disc = 4 * x * y - K
            root = isqrt(max(disc, 0))
            if root * root != disc:
                continue
            for z in sorted({x + y - root, x + y + root}):
                if 1 <= z <= K and (x + y + z - d) % 2 == 0:
                    yield model, ((x + y + z - d) // 2, 0, 0), ((x,), (y,), (z,))


def _fa_r2_windows(surface: Surface, rank: int, c1: tuple, c2: int):
    """Rank 2 on F_a: the divisor equation q*m = K + 4*x*y, K = 4c2 - c1^2, solved for the
    window tuples that are stable, or tie, at some ample H.

    Write d_i for the window of ray i, q = d_1 + d_3 and m = 2(d_0 + d_2) + a(d_3 - d_1).
    A configuration without an adjacent coincident pair (generic, or an
    opposite pair) has no correction 4*x*y and runs over the divisors q of
    K.  An adjacent pair holds one ray o of {1, 3} and one ray e of {0, 2}, with
    windows x, y >= 1; x, y and the other odd ray's window x' (``dk``) run in
    the box scan's nest order up to the bounds proven below, and the other
    even ray's window y' is solved, so no loop runs over it.  Every yield is
    kept by the ample test (:func:`_ample_test`), and every tuple of any box
    ``1..B`` (``tests/oracles.fa_r2_windows``) that is not yielded is
    dropped, or ties at an H that the stage already holds: at any box above
    those bounds, the stage, its order and its ties are those of the box.

    *Forms.*  An ample H = alpha*rho1 + beta*rho2 (alpha, beta > 0) has
    ``h = (H . D_i) = (beta, alpha + a*beta, beta, alpha)`` on rays 0..3.  A
    line W has ``v . H = sum(h_i*d_i, L_i = W) - sum(h_i*d_i, L_i != W)``,
    and the generic line gives -deg(E) < 0.  Over beta, in t = alpha/beta, a
    tuple is kept iff every form is <= 0 at some t > 0 (an open set of t, a
    zero form, or a tie at one t).

    *No adjacent pair.*  With u = d_0 + d_2 and k = d_1 - d_3, the lines of
    rays 1 and 3 give k*t + a*d_1 - u and -k*t - u - a*d_1, and those of
    rays 0 and 2 give +-(d_0 - d_2) - a*d_1 - q*t (their common line
    u - a*d_1 - q*t): they only ask t >= L with L <= (u - a*d_1)/q.  If
    k > 0, line 1 asks t <= (u - a*d_1)/k, positive iff u > a*d_1 and then
    >= L (k <= q).  If k < 0, line 3 asks t <= (u + a*d_1)/-k, line 1 asks t
    at least (a*d_1 - u)/-k, below it, and L is below it too (-k <= q).  If
    k = 0, both forms are constants.  So the tuple is kept iff u > a*d_1
    (k > 0), u + a*d_1 > 0 (k < 0), or u >= a*d_1 (k = 0).  If lines 1 and
    3 are one, its form q*t + a*d_1 - u asks t <= (u - a*d_1)/q, again
    >= L: kept iff u > a*d_1.

    *Adjacent pair.*  Put c = a if o = 1 else 0 and c' = a - c, so that
    h_o = alpha + c*beta and h_o' = alpha + c'*beta, and k = x - x':

    - pair line: P = k*t + Pb, Pb = y + c*x - y' - c'*x';
    - line of e': E = -q*t + s, s = y' - y - a*d_1;
    - line of o': O = -k*t + Ob, Ob = c'*x' - y - y' - c*x;

    and q*m - 4*x*y = K reads K = 4*x'*y + a*q^2 + 2*q*s.  With y' >= 0 the
    tuple is kept iff Pb < 0 (k > 0), Ob < 0 (k < 0), or Pb, Ob <= 0
    (k = 0).  Otherwise P or O is positive at every t.  If k > 0,
    t = -Pb/k gives P = 0, O = Pb + Ob = -2y' <= 0 and
    E = 2x'*(Pb/k - c') <= 0; k < 0 is symmetric (t = Ob/k); if k = 0, any
    t >= s/q.  Three families:

    1. x' = 0: E = -P, so the tuple only ties, at t = (K - a*x^2)/(2x^2).
       Neither t, nor q = x | K + 4xy (iff x | K), nor the parities of q
       and p = d_0 + a*d_1 + d_2 (p = s mod 2), nor Pb < 0 (iff K > a*x^2)
       depend on y: one yield per x, at y = 1, the family's first tuple in
       the scan.  The integer s is then positive, so K = a*x^2 + 2xs >= 2x
       and x <= K/2.
    2. y' = 0 < x': P = -O, so the tuple only ties, at
       t = (K - a*d^2)/(2d^2) > 0 with d = |k|.  Here x' - x = +-(d_3 - d_1)
       and K = 2y(x' - x) + a*q*(d_3 - d_1) = (d_3 - d_1)(a*q +- 2y), so
       d | K, (K - a*d^2)/(2d) = +-(a*d_1 +- y) has the parity of
       s = -y - a*d_1, and q that of d: the family-1 tuple with
       x = d < max(x, x') passes the same tests and ties at the same H.
       Skipped.
    3. x', y' >= 1: P + O = -2y', P + E = -2x'*h_o', E + O = -2x*h_o - 2y
       (over beta), each negative, so no two forms vanish together: no tie.

    *Bounds on family 3.*  Put each lower bound on s (the solve, and
    s >= 1 - y - a*d_1 from y' >= 1) into K - 2q = 4x'y + a*q^2 + 2q(s - 1):

    - k > 0, c' = 0: s >= 1, so K - 2q >= 4x'y.
    - k > 0, c' = a: s >= 1 - 2ax' gives K - 2q >= 4x'y + aq(k - 2x'), and
      y' >= 1 gives K - 2q >= k(aq - 2y); k times the first plus 2x' times
      the second is q(K - 2q) >= a*q*k^2.
    - k < 0, c = a: y' >= 1 gives K - 2q >= -k(2y + aq).
    - k < 0, c' = a: s >= 1 - 2y gives K - 2q >= aq^2 - 4xy, and y' >= 1
      gives K - 2q >= -k(2y - aq); -k times the first plus 2x times the
      second is q(K - 2q) >= a*q*k^2.
    - k = 0: y' >= 1 gives K >= 4x = 2q, and Pb <= 0 gives
      K >= 4xy - 4c'x^2.

    So q <= K/2 and x, x' <= K/2 - 1.  The same lines give, with q <= K/2,
    y <= (K - 2q)/4, (K - 2q)/4 + aq/2, (K - 2q)/2, (K + (a - 2)q)/2 and
    K/(4x) + c'x (1 <= x <= K/4): each at most K/2 - 1 + c'K/4.  So the
    loops run to K/2 for x (family 1), to max(1, K/2 - 1 + c'K/4) for y and
    to K/2 - 1 for x'.
    """
    a = _section_index(surface)
    f, z = c1
    K = 4 * c2 - surface.pair(c1, c1)
    if K <= 0:
        return

    def candidate(classes: tuple, deltas: tuple):
        d0, d1, d2, d3 = deltas
        p = d0 + a * d1 + d2
        q = d1 + d3
        if q < 1 or (p - f) % 2 or (q - z) % 2:
            return None
        tops = ((p - f) // 2, 0, 0, (q - z) // 2)
        return r2_model(4, classes), tops, tuple((x,) for x in deltas)

    configs = [*zip((None, *combinations(range(4), 2)), _r2_configs(4))]
    # adjacent rays have indices of opposite parity
    zero_corr = [(pair, classes) for pair, classes in configs if pair is None or sum(pair) % 2 == 0]
    for q in range(1, K + 1):
        if K % q:
            continue
        m = K // q
        for d1 in range(q + 1):
            d3 = q - d1
            u2 = m - a * (d3 - d1)
            if u2 < 0 or u2 % 2:
                continue
            u = u2 // 2
            k = d1 - d3
            apart = u > a * d1 if k > 0 else u + a * d1 > 0 if k < 0 else u >= a * d1
            keep = [u > a * d1 if pair == (1, 3) else apart for pair, _classes in zero_corr]
            for d0 in range(u + 1):
                deltas = (d0, d1, u - d0, d3)
                for (pair, classes), kept in zip(zero_corr, keep):
                    # coincident rays must both have lines
                    if not kept or pair and not (deltas[pair[0]] and deltas[pair[1]]):
                        continue
                    if cand := candidate(classes, deltas):
                        yield cand

    n_odd = K // 2 - 1
    for (i, j), classes in configs[1:]:
        if (i + j) % 2 == 0:
            continue
        odd, even = (i, j) if i % 2 else (j, i)
        c_other = a if odd == 3 else 0  # c' above: ray 1 is the other odd ray
        c_pair = a - c_other
        n_even = ((2 + c_other) * K - 4) // 4
        top = {odd: K // 2, even: max(n_even, 1)}
        for di in range(1, top[i] + 1):
            for dj in range(1, top[j] + 1):
                x, y = (di, dj) if odd == i else (dj, di)
                num = K + 4 * x * y
                # family 1 (dk = 0) once per x, at y = 1; family 3 in its bounds
                family3 = range(1, n_odd + 1) if x <= n_odd and y <= n_even else ()
                for dk in chain((0,) if y == 1 else (), family3):
                    q = x + dk
                    if num % q:
                        continue
                    d1, d3 = (x, dk) if odd == 1 else (dk, x)
                    u2 = num // q - a * (d3 - d1)
                    y_other = u2 // 2 - y
                    # family 2 (y' = 0 < dk) ties where a family-1 yield does
                    if u2 % 2 or y_other < 0 or (dk and not y_other):
                        continue
                    k = x - dk
                    pb = y + c_pair * x - y_other - c_other * dk
                    ob = c_other * dk - y - y_other - c_pair * x
                    if not (pb < 0 if k > 0 else ob < 0 if k < 0 else pb <= 0 and ob <= 0):
                        continue
                    deltas = [0] * 4
                    deltas[odd], deltas[even], deltas[4 - odd], deltas[2 - even] = x, y, dk, y_other
                    if cand := candidate(classes, tuple(deltas)):
                        yield cand


def _section_index(surface: Surface) -> int:
    """The a of F_a, read from the intersection form: the section Z has ``Z^2 = -a``."""
    return -surface.pair((0, 1), (0, 1))


def _p2_higher_windows(surface: Surface, rank: int, c1: tuple, c2: int, P: int):
    """Ranks 3 and 4 on the plane: window profiles of sum at most ``P``, indexed by rigidity.

    An isolated stable fixed point needs stabiliser-free rigid flag data:
    the flag-variety dimensions of the three rays, minus the coincidence
    codimension, must equal dim PGL(rank).  Smaller means extra
    automorphisms (never stable), larger means positive-dimensional
    families (never isolated).  So ray 2's profiles are grouped by flag
    dimension and by c1 weight mod ``rank``, and each pair of profiles of
    rays 0 and 1 visits the one group that makes the triple rigid and
    congruent to c1.
    """
    d = c1[0]
    profiles = _window_profiles(rank, P)
    # a window at level L is crossed by the jumps of levels 1..L, so it
    # enters c1 with weight L
    weight = {w: sum(lvl * x for lvl, x in enumerate(w, 1)) for w in profiles}
    fdim = {w: _flag_dim(rank, w) for w in profiles}
    for cfg in _r3_configs() if rank == 3 else _r4_configs():
        model = (r3_model if rank == 3 else r4_model)(*cfg)
        rays = [[w for w in profiles if _config_active(rank, cfg, i, w)] for i in range(3)]
        groups: dict[tuple, list] = {}
        for w in rays[2]:
            groups.setdefault((fdim[w], weight[w] % rank), []).append(w)
        rigid = rank * rank - 1 + _COINCIDENCE_CODIM[cfg[0]]
        for w1 in rays[0]:
            for w2 in rays[1]:
                group = (rigid - fdim[w1] - fdim[w2], (d - weight[w1] - weight[w2]) % rank)
                for w3 in groups.get(group, ()):
                    wins = (w1, w2, w3)
                    A1 = (weight[w1] + weight[w2] + weight[w3] - d) // rank
                    yield model, (A1, 0, 0), wins


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


def _config_active(rank: int, cfg: tuple, ray: int, win: tuple) -> bool:
    """Whether one ray's windows open every level that the configuration's coincidence uses."""
    kind, pair = cfg
    if kind == "concurrent":
        return win[1] > 0
    if kind == "collinear":
        return win[0] > 0
    if kind == "incidence":
        # line of ray a inside the codimension-one space of ray b
        a, b = pair
        return (ray != a or win[0] > 0) and (ray != b or win[rank - 2] > 0)
    return True


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

_P_START = 6  # starting window-sum bound of the rank-3/4 search


# ---------------------------------------------------------------------------
# the search: H-independent candidates, then per-H sign tests (and the rank-3/4 shell rule)
# ---------------------------------------------------------------------------


def _search(surface: Surface, rank: int):
    """The window generator of a supported case."""
    plane = surface.picard_rank == 1
    if rank == 2:
        return _p2_r2_windows if plane else _fa_r2_windows
    if plane and rank in (3, 4):
        return _p2_higher_windows
    raise EnumerationError(f"unsupported case: {surface.name} rank {rank}")


class _Candidate(NamedTuple):
    """One H-independent candidate of a window search.

    ``key`` names its configuration model; ``forms`` are the distinct
    ``(v . rho1, v . rho2)`` of its bundle's stability forms v over the nef
    rays.
    """

    key: tuple
    tops: tuple
    windows: tuple
    forms: tuple[tuple[int, int], ...]


class _Stage(NamedTuple):
    """The candidates of a window search that are stable at some ample H, and the
    nef coordinates (:func:`_nef_coordinates`) of each H at which a dropped candidate ties."""

    candidates: tuple[_Candidate, ...]
    ties: frozenset[tuple[int, int]]


def _nef_coordinates(surface: Surface, H: tuple) -> tuple[int, int]:
    """The coprime ``(alpha, beta) > 0`` with an ample H a positive multiple of
    ``alpha*rho1 + beta*rho2`` over the nef rays, by Cramer's rule (each numerator times the
    determinant, so both stay integral and positive); (1, 1) on the plane."""
    if surface.picard_rank == 1:
        return 1, 1
    (p1, q1), (p2, q2) = surface.nef_rays
    det = p1 * q2 - q1 * p2
    alpha, beta = (H[0] * q2 - H[1] * p2) * det, (p1 * H[1] - q1 * H[0]) * det
    g = gcd(alpha, beta)
    return alpha // g, beta // g


def _ample_test(values) -> tuple[bool, tuple | None]:
    """Whether every ``v . H < 0`` on an open set of ample H, given ``(v . rho1, v . rho2)`` for
    each form v over the nef rays; if not, the nef coordinates of the one H where the largest
    ``v . H`` is 0, or None.

    Write an ample H as ``alpha*rho1 + beta*rho2`` (alpha, beta > 0).  With
    ``(a, b) = (v . rho1, v . rho2)``, ``v . H < 0`` reads ``t*a + b < 0``
    in ``t = alpha/beta > 0``: ``t < -b/a`` for ``a > 0``, ``t > b/-a`` for
    ``a < 0``, always or never for ``a = 0``.  The stable set is the
    interval between the largest lower and the smallest upper bound,
    compared by cross-multiplication.  When it is empty but closes to one
    ``t > 0``, the largest ``v . H`` is 0 there and positive elsewhere.  A
    zero form ties at every H, so its candidate is kept.  On the plane the
    cone is one ray and ``b = 0``: the test is "every ``a < 0``".
    """
    lo, lo_d = 0, 1  # t > lo/lo_d
    hi, hi_d = 1, 0  # t < hi/hi_d; 1/0 is no bound
    for a, b in values:
        if a > 0:
            if -b * hi_d < hi * a:
                hi, hi_d = -b, a
        elif a < 0:
            if b * lo_d > -lo * a:
                lo, lo_d = b, -a
        elif b >= 0:
            return b == 0, None
    if lo * hi_d < hi * lo_d:
        return True, None
    if lo * hi_d == hi * lo_d and lo > 0 and hi_d > 0:  # lo > 0 needs b > 0: two rays
        g = gcd(lo, lo_d)
        return False, (lo // g, lo_d // g)
    return False, None


@lru_cache(maxsize=None)
def _candidates(surface_name: str, rank: int, c1: tuple, c2: int, *P: int) -> _Stage:
    """The candidates of the window search that are stable at some ample H, in search order;
    ``P``, given for ranks 3 and 4 alone, is the window-sum bound of their search.

    This stage does not depend on the polarization: it runs the case's
    window generator with the closed-form (c1, c2) filter and the ample
    test (:func:`_ample_test`, in the order of the module docstring), and
    keeps one record per survivor, with its forms on the nef rays read off
    its windows (no bundle is built).  A candidate that is stable nowhere but
    ties at one H, and passes (c1, c2), leaves that H in
    :attr:`_Stage.ties`.  Each model met is compiled once: its level pairs
    and its :func:`~.klyachko.stability_table`.
    """
    surface = surface_by_name(surface_name)
    generate = _search(surface, rank)
    out = []
    ties: set[tuple] = set()
    shared: dict[tuple, tuple] = {}  # one object per distinct tops or window
    compiled: dict[tuple, tuple] = {}  # per model: level pairs and stability table

    def chern_matches(tops, windows, pairs):
        return bundle_chern(surface, _jump_positions(tops, windows, rank), pairs) == (c1, c2)

    for model, tops, windows in generate(surface, rank, c1, c2, *P):
        if model.key not in compiled:
            compiled[model.key] = (
                _level_pairs(surface, model),
                stability_table(surface, rank, model.candidates),
            )
        pairs, table = compiled[model.key]
        if rank > 2 and not chern_matches(tops, windows, pairs):
            continue
        x = [*chain.from_iterable(windows)]
        values = [(sum(map(mul, x, ra)), sum(map(mul, x, rb))) for ra, rb in table]
        stable, tie = _ample_test(values)
        if not (stable or tie) or tie in ties:
            continue
        if rank == 2 and not chern_matches(tops, windows, pairs):
            continue
        if tie:
            ties.add(tie)
            continue
        windows = tuple(shared.setdefault(w, w) for w in windows)
        forms = tuple(dict.fromkeys(values))
        out.append(_Candidate(model.key, shared.setdefault(tops, tops), windows, forms))
    return _Stage(tuple(out), frozenset(ties))


@lru_cache(maxsize=None)
def _bundle(
    surface_name: str, c1: tuple, c2: int, key: tuple, tops: tuple, windows: tuple
) -> TorusSheaf:
    """The verified bundle of one stable candidate, built once per process."""
    model = _model(key)
    sheaf = _build_bundle(surface_by_name(surface_name), model.rank, model, tops, windows)
    return _verified(sheaf, model.rank, c1, c2)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _stable(stage: _Stage, surface: Surface, H: tuple) -> list[_Candidate]:
    """The candidates of a stage that are stable at an ample H, in order.

    H becomes its nef coordinates (alpha, beta) once; a candidate's verdict
    is the largest ``alpha*a + beta*b`` over its forms (a, b).  The first
    candidate whose largest value is 0 raises :class:`~.klyachko.SlopeTie`,
    and so does an H whose (alpha, beta) is one of the stage's ties.
    """
    alpha, beta = _nef_coordinates(surface, H)
    if (alpha, beta) in stage.ties:
        raise SlopeTie(f"polarization {H} is on a wall for this sheaf")
    stable = []
    for cand in stage.candidates:
        top = max((alpha * a + beta * b for a, b in cand.forms), default=-1)
        if top == 0:
            raise SlopeTie(f"polarization {H} is on a wall for this sheaf")
        if top < 0:
            stable.append(cand)
    return stable


def enumerate_bundles(surface: Surface, rank: int, c1: tuple, c2: int, H: tuple):
    """The stable bundles at an ample H, by the sign test (and, for ranks 3 and 4, the shell
    rule) of the module docstring."""
    _require_ample(surface, H)
    c1 = tuple(c1)
    if rank == 2:
        stable = _stable(_candidates(surface.name, rank, c1, c2), surface, H)
    else:
        P = _P_START
        while True:
            stable = _stable(_candidates(surface.name, rank, c1, c2, P), surface, H)
            hits = [c.windows for c in stable if any(sum(w) > P - 2 for w in c.windows)]
            if not hits:
                break
            P += 2
            if P > 4 * _P_START:
                raise EnumerationError(
                    f"window search bound exhausted: stable candidates on the outer shells "
                    f"at bound {P - 2} (start {_P_START}): {hits[:3]}"
                )
    return [_bundle(surface.name, c1, c2, c.key, c.tops, c.windows) for c in stable]


def _require_ample(surface: Surface, H: tuple) -> None:
    """Refuse a polarization that is not ample: the candidate stage is exact only there."""
    if not surface.is_ample(H):
        raise ValueError(f"H = {tuple(H)} is not ample on {surface.name}")


def _bogomolov_floor(surface: Surface, rank: int, c1: tuple) -> int:
    """Smallest c2 >= 0 with c2 >= (r-1) c1^2 / (2r) (Bogomolov)."""
    return max(0, -(-(rank - 1) * surface.pair(c1, c1) // (2 * rank)))


def fixed_locus(surface: Surface, rank: int, c1: tuple, c2: int, H: tuple):
    """All torus-fixed stable sheaves at an ample H: bundles + torsion-free degenerations."""
    _require_ample(surface, H)
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
    sigma = -(xi.Z)/(xi.F) = a - x/y, which is ample exactly when y > 0 and
    x < 0 (and xi^2 = 2xy - ay^2 falls as x does).  No congruence condition
    is imposed on (x, y), so the returned set can be a superset of the true
    walls: chambers may be subdivided but are never merged, which keeps
    every returned interval wall-free.
    """
    if surface.picard_rank == 1:
        return []
    if rank != 2:
        raise EnumerationError("walls are computed for rank 2 only")
    K = 4 * c2 - surface.pair(c1, c1)
    if K <= 0:
        return []
    slopes = set()
    y = 1
    while surface.pair((-1, y), (-1, y)) >= -K:
        xi = (-1, y)
        while (xi_sq := surface.pair(xi, xi)) >= -K:
            if xi_sq < 0:
                slopes.add(Fraction(-surface.pair(xi, (0, 1)), surface.pair(xi, (1, 0))))
            xi = (xi[0] - 1, y)
        y += 1
    return sorted(slopes)


def polarization_gcd(surface: Surface, rank: int, c1: tuple) -> int:
    """``gcd(rank, c1.D_1, ..., c1.D_n)`` over the basis divisors: every chamber holds a
    primitive H with ``gcd(rank, c1.H) = 1`` iff it is 1 (such H fill residue classes
    mod rank, and every open cone of slopes meets each of them)."""
    n = surface.picard_rank
    return gcd(rank, *(surface.pair(c1, [int(i == j) for j in range(n)]) for i in range(n)))


def chamber_representatives(
    surface: Surface, rank: int, c1: tuple, c2: int
) -> list[tuple]:
    """One valid polarization per chamber of the ample cone.

    Chambers are the open intervals between consecutive wall slopes (the
    last one truncated two units past the final wall).  Each representative
    is the interior slope with the smallest denominator, then the smallest
    numerator, subject to gcd(rank, c1.H) = 1 so slope stability has no
    ties.  Raises ValueError when no H meets that (:func:`polarization_gcd`).
    """
    if polarization_gcd(surface, rank, c1) != 1:
        raise ValueError("gcd(rank, c1.H) > 1 for every polarization H")
    if surface.picard_rank == 1:
        return [(1,)]
    walls = wall_slopes(surface, rank, c1, c2)
    bounds = [Fraction(_section_index(surface))] + walls
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
    positions, index = [], []  # index[i][p]: where ray i's step at p starts in positions
    for flag in flags:
        at = {}
        for p, r in flag.jumps:
            at[p] = len(positions)
            positions += [p] * r
        index.append(at)
    pairs = [
        (index[i][p], index[j][q], mu)
        for i, j in surface.cones
        for p, q, mu in jump_pairs(flags[i], flags[j])
    ]
    return bundle_chern(surface, positions, pairs) == chern_invariants(sheaf)[1:]
