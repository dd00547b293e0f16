"""Equivariant sheaves on toric surfaces from filtration (flag) data.

A torus-equivariant torsion-free sheaf of rank ``r`` is described by

* one increasing filtration of a fixed r-dimensional rational vector space
  ``V`` per boundary ray (a :class:`Flag`: jump positions + nested
  subspaces), describing the double dual (a vector bundle), and
* optionally, at each fixed point, a *local family*: a finite modification
  of the two-ray intersection family that cuts the sheaf down inside its
  double dual (colength = local length of the quotient).

From this data the module computes

* the K-theory restriction to each fixed point (a Laurent character, via the
  second difference of the intersection-dimension grid),
* rank, first Chern class, and second Chern class — by exact localization on
  the surface, not by per-case closed formulas,
* slope (in)stability against a polarization, over a finite list of
  candidate destabilizing subspaces W; slopes are compared as integers
  (``rank * H``-degree against ``dim W * H``-degree), never as fractions.
  Both degrees are linear in H, so each W gives one integer *stability
  form* v and the test at H is the sign of ``v . H`` (:func:`stable_at`).
  The forms come in closed form from the window lengths between the jumps
  and the dimensions ``dim(W n F_i^m)`` (:func:`stability_forms`): the top
  jump positions cancel, so no sheaf is needed.  :func:`is_stable` is the
  reference, read from a built sheaf's flags, and
* single-site degenerations (the local family drops to the span of its two
  predecessors), which generate the torsion-free fixed points lying over a
  fixed bundle.

All linear algebra is exact over the rationals (:class:`Subspace` keeps a
canonical reduced row echelon basis, so subspaces are hashable values).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exactalg import LaurentPoly, Rat, convolve, power_sum
from .surfaces import FixedPoint, Surface, char_monomial

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _rref(rows: Iterable[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    out: list[list[Fraction]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        piv = None
        for r in mat:
            if any(r[c] for c in range(col)):
                continue
            if r[col]:
                piv = r
                break
        if piv is None:
            continue
        mat.remove(piv)
        piv = [x / piv[col] for x in piv]
        for r in mat:
            if r[col]:
                f = r[col]
                for c in range(ncols):
                    r[c] -= f * piv[c]
        for r in out:
            if r[col]:
                f = r[col]
                for c in range(ncols):
                    r[c] -= f * piv[c]
        out.append(piv)
        pivot_cols.append(col)
    order = sorted(range(len(out)), key=lambda i: pivot_cols[i])
    return tuple(tuple(out[i]) for i in order)


class Subspace:
    """A linear subspace of Q^n in canonical (RREF) form; a hashable value."""

    __slots__ = ("rows", "n")

    def __init__(self, n: int, rows: Iterable[Sequence] = ()):
        self.n = n
        self.rows = _rref(
            [[Fraction(x) for x in r] for r in rows if any(Fraction(x) for x in r)]
        )

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, [[1 if j == i else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def span(n: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace(n, vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Subspace({self.n}, {self.rows!r})"

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self <= other

    def contains(self, vector: Sequence) -> bool:
        v = [Fraction(x) for x in vector]
        for row in self.rows:
            lead = next(c for c in range(self.n) if row[c])
            if v[lead]:
                f = v[lead]
                for c in range(self.n):
                    v[c] -= f * row[c]
        return not any(v)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.n, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        # rows x of self with x also in other: solve a*A = b*B by stacking
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.n)
        if self.dim == self.n:
            return other
        if other.dim == self.n:
            return self
        a, b = list(self.rows), list(other.rows)
        # nullspace of the (dim a + dim b) x n system [A; B] paired with signs:
        # vectors (x, y) with x*A - y*B = 0 -> intersection element x*A.
        k, m = len(a), len(b)
        cols = self.n
        rows = []
        for j in range(cols):
            rows.append([a[i][j] for i in range(k)] + [-b[i][j] for i in range(m)])
        # solve rows * (x, y)^T = 0: nullspace of the cols x (k+m) matrix
        ns = _nullspace(rows, k + m)
        vecs = []
        for sol in ns:
            v = [sum(sol[i] * a[i][j] for i in range(k)) for j in range(cols)]
            vecs.append(v)
        return Subspace(self.n, vecs)


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of the given matrix (list of rows)."""
    r = _rref(rows)
    pivots = []
    for row in r:
        pivots.append(next(c for c in range(ncols) if row[c]))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(r, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


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
        last_dim = 0
        last_pos = None
        for pos, space in self.steps:
            if last_pos is not None and pos <= last_pos:
                raise ValueError("flag positions must strictly increase")
            if space.dim <= last_dim:
                raise ValueError("flag dimensions must strictly increase")
            last_pos, last_dim = pos, space.dim
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
    def first_position(self) -> int:
        return self.steps[0][0]

    @property
    def last_position(self) -> int:
        return self.steps[-1][0]


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
        i, j = point.ray_indices
        lo1, hi1 = self.flags[i].first_position, self.flags[i].last_position
        lo2, hi2 = self.flags[j].first_position, self.flags[j].last_position
        over = self.families[point.index]
        if over:
            for (n1, n2), _space in over:
                lo1, hi1 = min(lo1, n1), max(hi1, n1)
                lo2, hi2 = min(lo2, n2), max(hi2, n2)
        return range(lo1, hi1 + 2), range(lo2, hi2 + 2)

    # -- K-theory restriction ---------------------------------------------

    def restriction(self, point: FixedPoint) -> LaurentPoly:
        """K-class at the fixed point: second difference of the dim grid."""
        r1, r2 = self.chart_window(point)
        dims: dict[tuple[int, int], int] = {}

        def d(n1: int, n2: int) -> int:
            if (n1, n2) not in dims:
                dims[(n1, n2)] = self.family_value(point, n1, n2).dim
            return dims[(n1, n2)]

        out = LaurentPoly.zero()
        for n1 in r1:
            for n2 in r2:
                c = d(n1, n2) - d(n1 - 1, n2) - d(n1, n2 - 1) + d(n1 - 1, n2 - 1)
                if c:
                    out = out + char_monomial(point.char_from_pair(n1, n2), c)
        return out

    def restrictions(self) -> tuple[LaurentPoly, ...]:
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

    At a fixed point with chart character ``sum c * chi^(a, b)``, ``ch_k`` is
    ``power_sum(terms, k) / k!``; the surface integrals of ``ch_2`` and of
    ``ch_1`` times each basis divisor are degree-0 sums cleared over the
    integers by :meth:`Surface.clear_rows`.
    """
    S = sheaf.surface
    terms = [sheaf.restriction(p).integer_terms() for p in S.points]
    ranks = {power_sum(t, 0)[0] for t in terms}
    if len(ranks) != 1:
        raise ValueError(f"inconsistent ranks at fixed points: {ranks}")

    def integral(nums) -> Fraction:
        (cleared,) = S.clear_rows(nums, 0)
        return Fraction(cleared, S.tangent_scale)

    ch1 = [power_sum(t, 1) for t in terms]
    # pair c1 with each basis divisor, then invert the intersection form
    dots = [
        integral([convolve(row, S.divisor_lift(name, p)) for row, p in zip(ch1, S.points)])
        for name in S.divisor_names
    ]
    c1 = _solve_divisor_class(S, dots)
    ch2 = integral([power_sum(t, 2) for t in terms]) / 2
    c2 = Fraction(S.pair(c1, c1), 2) - ch2
    if c2.denominator != 1:
        raise ValueError(f"non-integral c2 = {c2}")
    return ranks.pop(), c1, int(c2)


def _solve_divisor_class(surface: Surface, dots: Sequence[Rat]) -> tuple[int, ...]:
    """Find integer coefficients x with intersection(x, basis_j) = dots_j."""
    n = surface.picard_rank
    # solve M^T x = dots for the (symmetric) intersection matrix M
    rows = [
        [Fraction(surface.intersection[i][j]) for i in range(n)] + [Fraction(dots[j])]
        for j in range(n)
    ]
    r = _rref(rows)
    if len(r) != n or any(next(c for c in range(n + 1) if row[c]) >= n for row in r):
        raise ValueError("degenerate intersection form")
    x = [Fraction(0)] * n
    for row in r:
        lead = next(c for c in range(n) if row[c])
        x[lead] = row[n]
    if any(v.denominator != 1 for v in x):
        raise ValueError(f"non-integral first Chern class {x}")
    return tuple(int(v) for v in x)


# ---------------------------------------------------------------------------
# slope stability
# ---------------------------------------------------------------------------


class SlopeTie(Exception):
    """A candidate subsheaf has slope exactly equal to the sheaf's slope.

    Strictly semistable data means the polarization sits on a wall; the
    enumeration treats that as an error in the chamber choice.
    """


Pattern = tuple[int, tuple[tuple[int, ...], ...]]
# (dim W, per-ray dims of W against the ray's flag steps, aligned with steps)


def _weighted_jump_sum(flag: Flag, dims: Sequence[int]) -> int:
    total = 0
    prev = 0
    for (pos, _space), d in zip(flag.steps, dims):
        total += pos * (d - prev)
        prev = d
    return total


def slope_times_rank(
    sheaf: TorusSheaf, polarization: tuple, dims_per_ray: Sequence[Sequence[int]] | None = None
) -> int:
    """H-degree of the subsheaf cut out by a dimension pattern (or of E itself).

    The degree is minus the weighted sum of jump positions, weighted by the
    H-degrees of the corresponding boundary divisors.
    """
    total = 0
    for i, flag in enumerate(sheaf.flags):
        deg = sheaf.surface.ray_degree(i, polarization)
        if dims_per_ray is None:
            dims = [s.dim for _p, s in flag.steps]
        else:
            dims = dims_per_ray[i]
        total += deg * _weighted_jump_sum(flag, dims)
    return -total


def is_stable(sheaf: TorusSheaf, polarization: tuple, patterns: Iterable[Pattern]) -> bool:
    """Strict slope stability against the candidate subspace patterns.

    Raises SlopeTie if some candidate has exactly the slope of the sheaf
    (the polarization lies on a wall for this topological type).

    This is the reference definition: the enumeration decides stability by
    :func:`stable_at` on the window-level :func:`stability_forms`, and the
    tests check that the two verdicts agree.
    """
    r = sheaf.rank
    deg_e = slope_times_rank(sheaf, polarization)
    tie = False
    for w, dims in patterns:
        if not 0 < w < r:
            continue
        deg_w = slope_times_rank(sheaf, polarization, dims)
        lhs, rhs = r * deg_w, w * deg_e
        if lhs > rhs:
            return False
        if lhs == rhs:
            tie = True
    if tie:
        raise SlopeTie(f"polarization {polarization} is on a wall for this sheaf")
    return True


def stability_forms(
    surface: Surface,
    rank: int,
    windows: Sequence[Sequence[int]],
    candidates: Iterable[tuple[int, Iterable[tuple[tuple[int, int], int]]]],
) -> Iterator[tuple[int, ...]]:
    """One integer form v per candidate W, with ``v . H = r*deg_H(W) - dim W*deg_H(E)``.

    ``windows[i][m - 1]`` is the gap between the jumps to levels m and m + 1
    along ray i, and each candidate is ``(w, (((i, m), d), ...))`` with
    ``w = dim W`` and ``d = dim(W n F_i^m)``.  Along ray i the weighted jump
    sum of W is ``w*top_i - sum_m windows[i][m - 1]*d``, so the top jump
    positions cancel and
    ``v = sum_i g_i sum_m windows[i][m - 1]*(r*d - w*m)``, where ``g_i`` is
    the degree vector of ray i.  W destabilizes at H when ``v . H > 0`` and
    ties when ``v . H == 0``.  The forms are yielded
    lazily, so a test at one H can stop at the first destabilizing
    candidate.
    """
    n = surface.picard_rank
    for w, dims in candidates:
        coef = [0] * len(windows)
        for (i, m), d in dims:
            coef[i] += windows[i][m - 1] * (rank * d - w * m)
        # xi = r*c1(W) - w*c1(E) in the divisor basis; v pairs it with the basis
        xi = [sum(c * cls[k] for c, cls in zip(coef, surface.ray_classes)) for k in range(n)]
        yield tuple(sum(x * row[l] for x, row in zip(xi, surface.intersection)) for l in range(n))


def stable_at(forms: Iterable[tuple[int, ...]], polarization: tuple) -> bool:
    """The verdict of :func:`is_stable` from the stability forms: sign tests in H.

    Unstable as soon as some ``v . H > 0``; otherwise a ``v . H == 0``
    raises SlopeTie.
    """
    tie = False
    for v in forms:
        s = sum(a * h for a, h in zip(v, polarization))
        if s > 0:
            return False
        if s == 0:
            tie = True
    if tie:
        raise SlopeTie(f"polarization {polarization} is on a wall for this sheaf")
    return True


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
