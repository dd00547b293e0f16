"""Equivariant sheaves on toric surfaces from filtration (flag) data.

A torus-equivariant torsion-free sheaf of rank ``r`` is described by

* one increasing filtration of a fixed r-dimensional rational vector space
  ``V`` per boundary ray (a :class:`Flag`: jump positions + nested
  subspaces), describing the double dual (a vector bundle), and
* optionally, at each fixed point, a *local family*: a finite modification
  of the two-ray intersection family that cuts the sheaf down inside its
  double dual (colength = local length of the quotient).

From this data the module computes

* the *jump pairs* of two flags (:func:`jump_pairs`): one ``(p, q, mu)``
  per pair of jump positions, ``mu`` the second difference of
  ``dim(S_l n T_m)`` over their steps (Klyachko, *Equivariant bundles on
  toral varieties*, Math. USSR Izv. 35, 1990),
* the K-theory restriction to each fixed point, an integer character
  ``{(a, b): mu}`` (:data:`~toric_virasoro.exactalg.Character`): the
  bundle's ``sum mu * chi^(p, q)`` over the jump pairs of the cone's two
  flags, corrected at each site of the local family,
* rank, first Chern class, and second Chern class — by exact localization on
  the surface (:func:`chern_invariants`), and in closed form from the jump
  positions and jump pairs of a bundle (:func:`bundle_chern`),
* slope (in)stability against a polarization, over a finite list of
  candidate destabilizing subspaces W; slopes are compared as integers
  (``rank * H``-degree against ``dim W * H``-degree), never as fractions.
  Both degrees are linear in H, so each W gives one integer *stability
  form* v and the test at H is the sign of ``v . H``.  The form is linear
  in the window lengths between the jumps, with coefficients from the
  dimensions ``dim(W n F_i^m)``: :func:`stability_table` gives, once per
  list of candidates, one integer row per (W, nef ray rho), and ``v . rho``
  is the dot product of that row with the flattened windows.  The top jump
  positions cancel, so no sheaf is needed (the tests keep the slope
  comparison read from a built sheaf's flags, and the forms in the divisor
  basis, as the reference), and
* single-site degenerations (the local family drops to the span of its two
  predecessors), which generate the torsion-free fixed points lying over a
  fixed bundle.

All linear algebra runs over the integers.  A :class:`Subspace` keeps the
reduced row echelon basis with each row scaled to primitive integers and a
positive pivot (:func:`_echelon`), a canonical form, so subspaces are
hashable values.  A side of dimension 0, 1 or n decides a meet or a join
directly: 0 and V are read off, a line meets a space in itself or in 0 as
one containment test says, and a line inside a space joins it to that
space (of equal dimensions, containment is equality of the canonical
bases).  Every other intersection comes by the Zassenhaus algorithm, and
every other sum by the echelon of both bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .exactalg import Character, Rat
from .surfaces import FixedPoint, Surface

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the span of integer rows, by fraction-free Gauss-Jordan.

    It is the reduced row echelon basis with each row scaled to primitive
    integers and a positive pivot: every row is a positive multiple of the
    matching row of the rational RREF, so equal spans give equal bases.
    The rows come in pivot order; zero rows are dropped.
    """
    out: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        v = list(row)
        for b, p in zip(out, pivots):
            if v[p]:
                f, g = b[p], v[p]
                v = [f * x - g * y for x, y in zip(v, b)]
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            continue
        v = _primitive(v, piv)
        for k, (b, p) in enumerate(zip(out, pivots)):
            if b[piv]:
                f, g = v[piv], b[piv]
                out[k] = _primitive([f * x - g * y for x, y in zip(b, v)], p)
        out.append(v)
        pivots.append(piv)
    return tuple(tuple(out[k]) for k in sorted(range(len(out)), key=pivots.__getitem__))


def _primitive(v: list[int], piv: int) -> list[int]:
    """``v`` divided by the gcd of its entries, signed so that ``v[piv] > 0``."""
    g = gcd(*v)
    return [x // g for x in v] if v[piv] > 0 else [x // -g for x in v]


def _integer_row(row: Sequence[Rat]) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _pivot(row: Sequence[int]) -> int:
    return next(c for c, x in enumerate(row) if x)


class Subspace:
    """A linear subspace of Q^n in the canonical form of :func:`_echelon`; a hashable value."""

    __slots__ = ("rows", "n", "dim")

    def __init__(self, n: int, rows: Iterable[Sequence[Rat]] = ()):
        self.n = n
        self.rows = _echelon(map(_integer_row, rows))
        self.dim = len(self.rows)

    @classmethod
    def _canonical(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "Subspace":
        """The subspace with these rows, which are already in canonical form."""
        space = object.__new__(cls)
        space.n, space.rows, space.dim = n, rows, len(rows)
        return space

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace._canonical(n, ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace._canonical(n, tuple(tuple(int(j == i) for j in range(n)) for i in range(n)))

    @staticmethod
    def span(n: int, vectors: Iterable[Sequence[Rat]]) -> "Subspace":
        return Subspace(n, vectors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Subspace({self.n}, {self.rows!r})"

    def __le__(self, other: "Subspace") -> bool:
        """Containment; of equal dimensions only equal (canonical) spaces contain each other."""
        if self.dim >= other.dim:
            return self.dim == other.dim and self.rows == other.rows
        return other.dim == self.n or all(map(other.contains, self.rows))

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self <= other

    def contains(self, vector: Sequence[Rat]) -> bool:
        """Reduce the vector against each row by cross-multiplication; it lies in
        the span exactly when nothing is left."""
        v = _integer_row(vector)
        for row in self.rows:
            p = _pivot(row)
            if v[p]:
                f, g = row[p], v[p]
                v = [f * x - g * y for x, y in zip(v, row)]
        return not any(v)

    def sum(self, other: "Subspace") -> "Subspace":
        """A side of dimension 0 or n, or a line inside the other side, decides the join:
        it is the larger side.  Otherwise it is the echelon of both bases."""
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        if small.dim == 0 or big.dim == self.n or (small.dim == 1 and small <= big):
            return big
        return Subspace._canonical(self.n, _echelon(self.rows + other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """A side of dimension 0, 1 or n decides the meet: a line meets the other side
        in itself if the other side contains it and in 0 if not.

        Otherwise Zassenhaus: the echelon of ``[a|a]`` over the rows a of self
        and ``[b|0]`` over the rows b of other has the intersection as the
        right halves of its rows with zero left half, and these are in
        canonical form already.
        """
        n = self.n
        if self.dim == 0 or other.dim == n:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        if self.dim == 1:
            return self if self <= other else Subspace.zero(n)
        if other.dim == 1:
            return other if other <= self else Subspace.zero(n)
        zero = (0,) * n
        rows = _echelon([a + a for a in self.rows] + [b + zero for b in other.rows])
        return Subspace._canonical(n, tuple(r[n:] for r in rows if not any(r[:n])))


# ---------------------------------------------------------------------------
# flags and sheaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """Increasing filtration of V = Q^r along one ray.

    ``steps`` lists (position, subspace) with strictly increasing positions
    and strictly increasing dimensions, ending in the full space: the
    filtration value at n is the last subspace whose position is <= n (zero
    below the first step).
    """

    rank: int
    steps: tuple[tuple[int, Subspace], ...]

    def __post_init__(self):
        last_pos, last = None, Subspace.zero(self.rank)
        for pos, space in self.steps:
            if last_pos is not None and pos <= last_pos:
                raise ValueError("flag positions must strictly increase")
            if space.dim <= last.dim:
                raise ValueError("flag dimensions must strictly increase")
            if not last <= space:
                raise ValueError("flag subspaces must be nested")
            last_pos, last = pos, space
        if not self.steps or self.steps[-1][1].dim != self.rank:
            raise ValueError("flag must end in the full space")

    def at(self, n: int) -> Subspace:
        best = None
        for pos, space in self.steps:
            if pos <= n:
                best = space
            else:
                break
        return best if best is not None else Subspace.zero(self.rank)

    @property
    def jumps(self) -> tuple[tuple[int, int], ...]:
        """``(position, rank jump)`` of every step."""
        dims = [0] + [space.dim for _pos, space in self.steps]
        return tuple((pos, d - prev) for (pos, _s), prev, d in zip(self.steps, dims, dims[1:]))


def jump_pairs(first: Flag, second: Flag) -> list[tuple[int, int, int]]:
    """The ``(p, q, mu)`` jump pairs of two flags with ``mu != 0``, in ``(p, q)`` order.

    ``p`` and ``q`` run over the step positions of ``first`` (spaces S_l)
    and ``second`` (spaces T_m), and ``mu`` is the second difference of
    ``dim(S_l n T_m)`` over their steps, with ``S_0 = T_0 = 0``.  A bundle
    with these flags on the two rays of a cone has ``mu`` copies of
    ``chi^(p, q)`` in its chart character.
    """
    out = []
    prev = [0] * (len(second.steps) + 1)
    for p, S in first.steps:
        row = [0] + [S.intersect(T).dim for _q, T in second.steps]
        for m, (q, _T) in enumerate(second.steps, 1):
            mu = row[m] - row[m - 1] - prev[m] + prev[m - 1]
            if mu:
                out.append((p, q, mu))
        prev = row
    return out


FamilyDict = tuple[tuple[tuple[int, int], Subspace], ...]


@dataclass(frozen=True)
class TorusSheaf:
    """A T-equivariant torsion-free sheaf: double-dual flags + local families.

    ``families[k]`` is either None (the sheaf agrees with its double dual at
    fixed point k) or a sorted tuple of ((n1, n2), subspace) overrides of the
    intersection family on the chart of point k.
    """

    surface: Surface
    rank: int
    flags: tuple[Flag, ...]
    families: tuple[FamilyDict | None, ...]
    config: object = None

    @property
    def is_locally_free(self) -> bool:
        return all(f is None for f in self.families)

    # -- local family grid ------------------------------------------------

    def _bundle_value(self, point: FixedPoint, n1: int, n2: int) -> Subspace:
        i, j = point.ray_indices
        return self.flags[i].at(n1).intersect(self.flags[j].at(n2))

    def family_value(self, point: FixedPoint, n1: int, n2: int) -> Subspace:
        over = self.families[point.index]
        if over is not None:
            for site, space in over:
                if site == (n1, n2):
                    return space
        return self._bundle_value(point, n1, n2)

    def chart_window(self, point: FixedPoint) -> tuple[range, range]:
        """The chart cells where the flags or the local family can change."""
        i, j = point.ray_indices
        (lo1, _), (hi1, _) = self.flags[i].steps[0], self.flags[i].steps[-1]
        (lo2, _), (hi2, _) = self.flags[j].steps[0], self.flags[j].steps[-1]
        over = self.families[point.index]
        if over:
            for (n1, n2), _space in over:
                lo1, hi1 = min(lo1, n1), max(hi1, n1)
                lo2, hi2 = min(lo2, n2), max(hi2, n2)
        return range(lo1, hi1 + 2), range(lo2, hi2 + 2)

    # -- K-theory restriction ---------------------------------------------

    def restriction(self, point: FixedPoint) -> Character:
        """K-class at the fixed point: ``sum mu * chi^(p, q)`` over the jump pairs,
        minus ``delta * chi^s * (1 - chi^w1) * (1 - chi^w2)`` for each family
        site s whose space is ``delta`` below the bundle's, as an integer
        character without zero terms (in chart order)."""
        i, j = point.ray_indices
        mult = {(p, q): mu for p, q, mu in jump_pairs(self.flags[i], self.flags[j])}
        for (n1, n2), space in self.families[point.index] or ():
            delta = self._bundle_value(point, n1, n2).dim - space.dim
            for d1, d2, sign in ((0, 0, -1), (1, 0, 1), (0, 1, 1), (1, 1, -1)):
                cell = (n1 + d1, n2 + d2)
                mult[cell] = mult.get(cell, 0) + sign * delta
        return {point.char_from_pair(*cell): c for cell, c in sorted(mult.items()) if c}

    @cached_property
    def charts(self) -> tuple[Character, ...]:
        """The restriction at every surface point, in point order, computed once per sheaf.

        The values are shared by every case built from the sheaf, so they
        are never mutated.
        """
        return tuple(self.restriction(p) for p in self.surface.points)

    # -- identity ---------------------------------------------------------

    def key(self) -> tuple:
        """Canonical identity of the sheaf (same data = same sheaf)."""
        return (
            self.surface.name,
            self.rank,
            tuple((f.steps) for f in self.flags),
            self.families,
            self.config,
        )


def bundle_from_flags(surface: Surface, rank: int, flags: Sequence[Flag], config=None) -> TorusSheaf:
    return TorusSheaf(
        surface=surface,
        rank=rank,
        flags=tuple(flags),
        families=tuple(None for _ in surface.points),
        config=config,
    )


# ---------------------------------------------------------------------------
# Chern invariants by localization on the surface
# ---------------------------------------------------------------------------


def chern_invariants(sheaf: TorusSheaf) -> tuple[int, tuple[int, ...], int]:
    """(rank, c1 in the divisor basis, c2), computed exactly by localization.

    One pass over the terms ``c * chi^(a, b)`` of each chart gives
    the rank ``sum c`` and, at s = 1, ``ch_1 = sum c*(a*s + b*t)`` and
    ``2*ch_2 = sum c*(a*s + b*t)^2``.  The surface integrals of ``ch_1``
    times each basis divisor and of ``2*ch_2`` are degree-0 sums cleared over
    the integers by the surface's ``tangent_denominator`` (each raises
    ``NotDivisible`` when it does not clear).  c1 solves ``M c1 = dots``,
    ``dots`` the pairings with the basis, by the integer adjugate and
    determinant of the symmetric intersection matrix M, and
    ``c2 = c1^2/2 - ch_2``; a non-integral c1 or c2 raises ``ValueError``.
    """
    S = sheaf.surface
    den = S.tangent_denominator
    ranks, ch1, two_ch2 = set(), [], []
    for chart in sheaf.charts:
        r = a1 = b1 = a2 = ab = b2 = 0
        for (a, b), c in chart.items():
            ca, cb = c * a, c * b
            r, a1, b1 = r + c, a1 + ca, b1 + cb
            a2, ab, b2 = a2 + ca * a, ab + ca * b, b2 + cb * b
        ranks.add(r)
        ch1.append((a1, b1))
        two_ch2.append((a2, 2 * ab, b2))
    if len(ranks) != 1:
        raise ValueError(f"inconsistent ranks at fixed points: {ranks}")
    scale = den.scale
    dots = []  # scale times the pairing of c1 with each basis divisor
    for name in S.divisor_names:
        lifts = (S.divisor_lift(name, p) for p in S.points)
        nums = [(a * A, a * B + b * A, b * B) for (a, b), (A, B) in zip(ch1, lifts)]
        dots.append(den.clear(nums, 0)[0])
    c1, c1_den = [], S.intersection_det * scale
    for adj_row in S.intersection_adjugate:
        x, rem = divmod(sum(map(mul, adj_row, dots)), c1_den)
        if rem:
            pairings = [Fraction(d, scale) for d in dots]
            raise ValueError(f"non-integral first Chern class for the pairings {pairings}")
        c1.append(x)
    c2_num = scale * S.pair(c1, c1) - den.clear(two_ch2, 0)[0]  # 2*scale*c2
    if c2_num % (2 * scale):
        raise ValueError(f"non-integral c2 = {Fraction(c2_num, 2 * scale)}")
    return ranks.pop(), tuple(c1), c2_num // (2 * scale)


def bundle_chern(
    surface: Surface, positions: Sequence[int], pairs: Iterable[tuple[int, int, int]]
) -> tuple[tuple[int, ...], int]:
    """(c1, c2) of a toric bundle of rank r in closed form from its jumps (Klyachko).

    ``positions`` lists the jump positions ray by ray, each repeated by its
    rank jump, so ray i holds ``positions[i*r:(i + 1)*r]``.  ``pairs`` lists
    the jump pairs of every cone as ``(a, b, mu)``: ``mu`` copies of
    ``chi^(positions[a], positions[b])`` (:func:`jump_pairs`, with each step
    at the index of its first unit).  Then ``c1 = -sum_i (sum p) D_i`` and
    ``2*ch2 = sum_i D_i^2 * sum p^2 + 2 * sum mu*p*q``, each inner sum over
    ray i's positions, and ``c2 = c1^2/2 - ch2``.
    """
    r = len(positions) // len(surface.rays)
    rays = [positions[k : k + r] for k in range(0, len(positions), r)]
    lin = list(map(sum, rays))
    c1 = tuple(-sum(map(mul, lin, col)) for col in zip(*surface.ray_classes))
    two_ch2 = 2 * sum(mu * positions[a] * positions[b] for a, b, mu in pairs) + sum(
        square * sum(map(mul, ray, ray)) for square, ray in zip(surface.ray_squares, rays)
    )
    two_c2 = surface.pair(c1, c1) - two_ch2
    if two_c2 % 2:
        raise ValueError(f"non-integral c2 = {two_c2}/2")
    return c1, two_c2 // 2


# ---------------------------------------------------------------------------
# slope stability
# ---------------------------------------------------------------------------


class SlopeTie(Exception):
    """A candidate subsheaf has slope exactly equal to the sheaf's slope.

    Strictly semistable data means the polarization sits on a wall; the
    enumeration treats that as an error in the chamber choice.
    """


def stability_table(
    surface: Surface,
    rank: int,
    candidates: Iterable[tuple[int, Iterable[tuple[tuple[int, int], int]]]],
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per candidate W, one integer row per nef ray: ``v . rho`` is the row times the windows.

    Here v is the stability form of W, ``v . H = r*deg_H(W) - dim W*deg_H(E)``,
    and rho runs over :attr:`~.surfaces.Surface.nef_rays`; the plane's
    missing second ray gives a zero row.  Write ``windows[i][m - 1]`` for
    the gap between the jumps to levels m and m + 1 along ray i, flattened
    ray by ray into ``x`` (index ``i*(r - 1) + m - 1``).  Each candidate is
    ``(w, (((i, m), d), ...))`` with ``w = dim W`` and
    ``d = dim(W n F_i^m)``.  Along ray i the weighted jump sum of W is
    ``w*top_i - sum_m windows[i][m - 1]*d``, so the top jump positions
    cancel and ``v . rho = sum_i (D_i . rho) sum_m windows[i][m - 1]*(r*d - w*m)``.
    So ``v . rho = sum(map(mul, x, row))`` with
    ``row[i*(r - 1) + m - 1] = (D_i . rho)*(r*d - w*m)``.  W destabilizes at
    H when ``v . H > 0`` and ties when ``v . H == 0``.
    """
    rays = surface.nef_rays
    degrees = [[*(surface.pair(cls, ray) for ray in rays), 0][:2] for cls in surface.ray_classes]
    width = len(degrees) * (rank - 1)
    table = []
    for w, dims in candidates:
        rows = ([0] * width, [0] * width)
        for (i, m), d in dims:
            for row, g in zip(rows, degrees[i]):
                row[i * (rank - 1) + m - 1] += g * (rank * d - w * m)
        table.append(tuple(map(tuple, rows)))
    return tuple(table)


# ---------------------------------------------------------------------------
# degenerations (torsion-free, non-locally-free fixed points)
# ---------------------------------------------------------------------------


class NonIsolated(Exception):
    """A degeneration site admits a positive-dimensional family of choices."""


def degeneration_children(sheaf: TorusSheaf, budget: int) -> list[TorusSheaf]:
    """All one-site span-degenerations of the sheaf.

    At an admissible chart site the local family drops to the span of its two
    predecessor values; the drop costs (dim - span dim) units of colength
    (added to c2).  ``budget`` bounds the remaining colength and hence how far
    past the flag window admissible sites can appear.  Children use the same
    flags; only the local family at one point changes.

    Raises NonIsolated when a multi-unit drop with intermediate choices would
    be needed at a site while budget still allows realizing an intermediate
    (those intermediates form positive-dimensional fixed families).
    """
    out: list[TorusSheaf] = []
    for point in sheaf.surface.points:
        r1, r2 = sheaf.chart_window(point)
        sites1 = range(r1.start, r1.stop + budget)
        sites2 = range(r2.start, r2.stop + budget)
        for n1 in sites1:
            for n2 in sites2:
                cur = sheaf.family_value(point, n1, n2)
                if cur.dim == 0:
                    continue
                span = sheaf.family_value(point, n1 - 1, n2).sum(
                    sheaf.family_value(point, n1, n2 - 1)
                )
                if span.dim >= cur.dim or not span <= cur:
                    continue
                cost = cur.dim - span.dim
                if cost >= 2:
                    # any subspace strictly between the span and the current
                    # value is a valid colength-(< cost) family, so a whole
                    # continuum of fixed sheaves exists within the budget
                    raise NonIsolated(
                        f"site ({n1},{n2}) at point {point.index}: "
                        f"dim drops by {cost} with free intermediate choices"
                    )
                if cost > budget:
                    continue
                over = dict(sheaf.families[point.index] or ())
                over[(n1, n2)] = span
                fams = list(sheaf.families)
                fams[point.index] = tuple(sorted(over.items(), key=lambda kv: kv[0]))
                out.append(
                    TorusSheaf(
                        surface=sheaf.surface,
                        rank=sheaf.rank,
                        flags=sheaf.flags,
                        families=tuple(fams),
                        config=sheaf.config,
                    )
                )
    return out


def degeneration_colength(sheaf: TorusSheaf) -> int:
    """Total colength of the sheaf inside its double dual."""
    total = 0
    for point in sheaf.surface.points:
        over = sheaf.families[point.index]
        if not over:
            continue
        for (n1, n2), space in over:
            total += sheaf._bundle_value(point, n1, n2).dim - space.dim
    return total
