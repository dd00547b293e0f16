"""Toric surface data: fans, fixed points, equivariant lifts, intersections.

Two families are provided: the projective plane ``P2`` and the Hirzebruch
surfaces ``F<a>`` (``a >= 0``).  A two-dimensional torus acts; its characters
are written multiplicatively as monomials in ``s, t`` and additively as
integer vectors ``(a, b)`` standing for the linear form ``a*s + b*t``.

Conventions (fixed once, consistently with the bundled reference tables):

* A fixed point corresponds to a smooth cone spanned by two rays ``v_i,
  v_j``; its *dual characters* ``w_i, w_j`` satisfy ``<w_i, v_i> = 1``,
  ``<w_i, v_j> = 0``.  Restrictions of equivariant sheaves to the point are
  Laurent polynomials in ``chi^{w_i}, chi^{w_j}``.
* The tangent weights at the point are the *inverse* duals ``-w_i, -w_j``;
  the Euler class of the tangent space is the product of the corresponding
  linear forms.
* The equivariant lift of the boundary divisor ``D_rho`` restricts to
  ``-w_rho`` at the two fixed points lying on it and to 0 elsewhere.  Basis
  divisor classes (``H`` on the plane; fiber ``F`` and the ``-a`` section
  ``Z`` on ``F<a>``) are lifted through a fixed toric representative.
* The point class ``p`` is lifted through the first fixed point: it
  restricts there to the product of the two tangent-weight linear forms and
  to 0 elsewhere.

Numerical integrals computed downstream are independent of these lift
choices; fixing them just makes every intermediate value reproducible.

Divisor classes are integer vectors in the basis and the intersection form
is integral, so intersection numbers (``pair``, ``ray_degree``, ``vdim``)
are plain ``int``s.

Fixed points are listed in the column order of the bundled tables:
on ``P2`` the cones are (ray1, ray2), (ray2, ray3), (ray3, ray1) for rays
(1,0), (0,1), (-1,-1); on ``F<a>`` the rays are v1=(1,0), v2=(0,-1),
v3=(-1,a), v4=(0,1) and the cones are (v1,v4), (v1,v2), (v2,v3), (v3,v4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from typing import Sequence

from .exactalg import (
    CommonDenominator,
    LaurentPoly,
    NotDivisible,
    convolve,
    dehomogenize,
    divide_linear,
    integer_rows,
    linform,
)

Vec = tuple[int, int]


def char_monomial(v: Vec, coeff=1) -> LaurentPoly:
    """The K-theory character chi^v as a Laurent monomial."""
    return LaurentPoly.monomial(v[0], v[1], coeff)


@dataclass(frozen=True)
class FixedPoint:
    """A torus-fixed point of the surface (a smooth 2-dimensional cone)."""

    index: int
    ray_indices: tuple[int, int]
    rays: tuple[Vec, Vec]
    duals: tuple[Vec, Vec]

    @property
    def tangent_weights(self) -> tuple[Vec, Vec]:
        (a1, b1), (a2, b2) = self.duals
        return ((-a1, -b1), (-a2, -b2))

    def char_from_pair(self, n1: int, n2: int) -> Vec:
        """Lattice character n1*w1 + n2*w2 of the chart."""
        (a1, b1), (a2, b2) = self.duals
        return (n1 * a1 + n2 * a2, n1 * b1 + n2 * b2)


def _dual_pair(vi: Vec, vj: Vec) -> tuple[Vec, Vec]:
    p, q = vi
    r, u = vj
    det = p * u - q * r
    if det not in (1, -1):
        raise ValueError(f"cone ({vi}, {vj}) is not smooth")
    wi = (u // det, -r // det) if det == 1 else (-u, r)
    wj = (-q // det, p // det) if det == 1 else (q, -p)
    return wi, wj


class Surface:
    """A smooth projective toric surface with its equivariant bookkeeping."""

    def __init__(
        self,
        name: str,
        rays: list[Vec],
        cones: list[tuple[int, int]],
        divisor_names: list[str],
        ray_classes: list[tuple[int, ...]],
        intersection: list[list[int]],
        basis_reps: dict[str, int],
        kunneth: list[tuple[str, str, int]],
    ):
        self.name = name
        self.rays = [tuple(v) for v in rays]
        self.cones = [tuple(c) for c in cones]
        self.points = [
            FixedPoint(
                index=k,
                ray_indices=(i, j),
                rays=(self.rays[i], self.rays[j]),
                duals=_dual_pair(self.rays[i], self.rays[j]),
            )
            for k, (i, j) in enumerate(self.cones)
        ]
        # the two fixed-point sums on the surface, one term per point:
        # cohomology over the tangent Euler classes, K-theory over
        # prod(1 - chi^w) for the chart characters w
        self.tangent_denominator = CommonDenominator(
            [linform(w) for w in p.tangent_weights] for p in self.points
        )
        self.character_denominator = CommonDenominator(
            [LaurentPoly.one() - char_monomial(w) for w in p.duals] for p in self.points
        )
        # the cohomological sum at s = 1 over ZZ (see clear_rows): cofactor
        # rows scaled by one integer, and each canonical factor a*s + b*t
        den = self.tangent_denominator
        self.tangent_scale, self._cofactor_rows = integer_rows(
            dehomogenize(co, len(den.factors) - 2) for co in den.cofactors
        )
        self._factor_forms = [(int(f.coeff(1, 0)), int(f.coeff(0, 1))) for f in den.factors]
        self.divisor_names = list(divisor_names)
        self.ray_classes = [tuple(c) for c in ray_classes]
        self.intersection = [list(row) for row in intersection]
        self.basis_reps = dict(basis_reps)
        self.kunneth = list(kunneth)
        # canonical class K = -sum of boundary divisors, in the chosen basis
        self.canonical = tuple(
            -sum(rc[k] for rc in self.ray_classes)
            for k in range(len(self.divisor_names))
        )

    # -- generic data ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def picard_rank(self) -> int:
        return len(self.divisor_names)

    def pair(self, c: tuple, d: tuple) -> int:
        """Intersection number of two integral divisor classes in the basis."""
        return sum(
            ci * dj * self.intersection[i][j]
            for i, ci in enumerate(c)
            for j, dj in enumerate(d)
        )

    def ray_degree(self, ray_index: int, polarization: tuple) -> int:
        return self.pair(self.ray_classes[ray_index], polarization)

    def vdim(self, rank: int, c1: tuple, c2: int) -> int:
        """Expected dimension 2*r*c2 - (r-1)*c1^2 - (r^2-1) of the moduli space."""
        return 2 * rank * c2 - (rank - 1) * self.pair(c1, c1) - (rank**2 - 1)

    # -- equivariant lifts ------------------------------------------------

    def ray_divisor_lift(self, ray_index: int, point: FixedPoint) -> Vec:
        """Restriction (A, B) of the lifted D_ray at the point; (0,0) off it."""
        i, j = point.ray_indices
        if ray_index == i:
            w = point.duals[0]
        elif ray_index == j:
            w = point.duals[1]
        else:
            return (0, 0)
        return (-w[0], -w[1])

    def divisor_lift(self, name: str, point: FixedPoint) -> Vec:
        """Restriction of the lifted basis divisor (via its toric representative)."""
        return self.ray_divisor_lift(self.basis_reps[name], point)

    def point_lift(self, point: FixedPoint) -> LaurentPoly:
        """Restriction of the lifted point class (supported at the first point)."""
        if point.index != 0:
            return LaurentPoly.zero()
        w1, w2 = self.points[0].tangent_weights
        return linform(w1) * linform(w2)

    def class_degree(self, name: str) -> int:
        if name == "1":
            return 0
        if name == "p":
            return 2
        if name in self.divisor_names:
            return 1
        raise KeyError(name)

    def class_lift(self, name: str, point: FixedPoint) -> LaurentPoly:
        """Equivariant restriction of a named basis class at a fixed point."""
        if name == "1":
            return LaurentPoly.one()
        if name == "p":
            return self.point_lift(point)
        if name in self.divisor_names:
            return linform(self.divisor_lift(name, point))
        raise KeyError(name)

    def clear_rows(self, nums: Sequence[Sequence[int] | None], deg: int) -> list[int]:
        """``tangent_scale * sum_p nums[p] / e_p`` at s = 1, over the integers.

        ``nums[p]`` is an integer form of degree ``deg + 2`` at s = 1 (``None``
        for zero) and ``e_p`` the tangent Euler class at point p.  The
        numerators times their cofactor rows are summed and divided by every
        canonical factor (:func:`divide_linear`, NotDivisible on a remainder):
        the ``deg + 1`` coefficients left certify a polynomial homogeneous of
        degree ``deg``.  Below degree 0 the summed numerator must vanish.
        """
        total = [0] * (deg + len(self._factor_forms) + 1)
        for num, co in zip(nums, self._cofactor_rows, strict=True):
            if num:
                for j, x in enumerate(convolve(num, co)):
                    total[j] += x
        if deg < 0:
            if any(total):
                raise NotDivisible(
                    f"a degree-{deg} sum over the fixed points of {self.name} does not vanish"
                )
            return []
        for a, b in self._factor_forms:
            total = divide_linear(total, a, b)
        return total

    def c1_coeffs(self) -> tuple:
        """First Chern class of the surface (anticanonical), in the basis."""
        return tuple(-k for k in self.canonical)


@lru_cache(maxsize=None)
def projective_plane() -> Surface:
    rays = [(1, 0), (0, 1), (-1, -1)]
    return Surface(
        name="P2",
        rays=rays,
        cones=[(0, 1), (1, 2), (2, 0)],
        divisor_names=["H"],
        ray_classes=[(1,), (1,), (1,)],
        intersection=[[1]],
        basis_reps={"H": 2},
        kunneth=[("p", "1", 1), ("H", "H", 1), ("1", "p", 1)],
    )


@lru_cache(maxsize=None)
def hirzebruch(a: int) -> Surface:
    if a < 0:
        raise ValueError("Hirzebruch parameter must be >= 0")
    rays = [(1, 0), (0, -1), (-1, a), (0, 1)]
    return Surface(
        name=f"F{a}",
        rays=rays,
        cones=[(0, 3), (0, 1), (1, 2), (2, 3)],
        divisor_names=["F", "Z"],
        ray_classes=[(1, 0), (a, 1), (1, 0), (0, 1)],
        intersection=[[0, 1], [1, -a]],
        basis_reps={"F": 0, "Z": 3},
        kunneth=[("p", "1", 1), ("F", "F", a), ("F", "Z", 1), ("Z", "F", 1), ("1", "p", 1)],
    )


def surface_by_name(name: str) -> Surface:
    """Look up ``P2`` or ``F<a>`` (e.g. ``F0``, ``F1``, ``F2``)."""
    key = name.strip().upper()
    if key == "P2":
        return projective_plane()
    if key.startswith("F") and key[1:].isdigit():
        return hirzebruch(int(key[1:]))
    raise KeyError(f"unknown surface {name!r}")
