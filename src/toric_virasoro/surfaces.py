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

Lifted classes are integer forms at ``s = 1`` (``class_lift``), and a
surface integral is a fixed-point sum over the tangent Euler classes,
cleared over the integers by ``tangent_denominator`` (an
:class:`~toric_virasoro.exactalg.LinearDenominator`).  K-theoretic sums
over ``prod (1 - chi^w)``, ``w`` the chart characters, are cleared by
``character_denominator`` (a
:class:`~toric_virasoro.exactalg.BinomialDenominator`).

Divisor classes are integer vectors in the basis and the intersection form
is integral, so intersection numbers (``pair``, ``vdim``) are plain
``int``s.  H is ample when ``H . D_i > 0`` for every boundary divisor
(``is_ample``), and the nef cone's extremal rays (``nef_rays``) are read
from the same pairings: ``(1,)`` on the plane, F and ``a*F + Z`` on ``F<a>``.

Fixed points are listed in the column order of the bundled tables:
on ``P2`` the cones are (ray1, ray2), (ray2, ray3), (ray3, ray1) for rays
(1,0), (0,1), (-1,-1); on ``F<a>`` the rays are v1=(1,0), v2=(0,-1),
v3=(-1,a), v4=(0,1) and the cones are (v1,v4), (v1,v2), (v2,v3), (v3,v4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from .exactalg import BinomialDenominator, LinearDenominator, convolve

Vec = tuple[int, int]


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
        # cohomology over the tangent Euler classes (over ZZ at s = 1),
        # K-theory over prod(1 - chi^w) for the chart characters w
        self.tangent_denominator = LinearDenominator(p.tangent_weights for p in self.points)
        self.character_denominator = BinomialDenominator(p.duals for p in self.points)
        self.divisor_names = list(divisor_names)
        self.ray_classes = [tuple(c) for c in ray_classes]
        self.intersection = [list(row) for row in intersection]
        self.ray_squares = [self.pair(c, c) for c in self.ray_classes]  # D_i^2
        # M x = y has the solution adj(M) y / det(M), for first Chern classes
        self.intersection_adjugate, self.intersection_det = _adjugate(self.intersection)
        if not self.intersection_det:
            raise ValueError("degenerate intersection form")
        self.nef_rays = _nef_rays(
            [tuple(sum(map(mul, row, c)) for row in self.intersection) for c in self.ray_classes]
        )
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

    def is_ample(self, H: tuple) -> bool:
        """Whether H is ample: ``H . D_i > 0`` for every boundary divisor (toric Kleiman)."""
        return len(H) == self.picard_rank and all(self.pair(H, c) > 0 for c in self.ray_classes)

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

    def point_lift(self, point: FixedPoint) -> list[int]:
        """Restriction of the lifted point class at s = 1 (supported at the first point)."""
        if point.index != 0:
            return []
        w1, w2 = self.points[0].tangent_weights
        return convolve(w1, w2)

    def class_degree(self, name: str) -> int:
        if name == "1":
            return 0
        if name == "p":
            return 2
        if name in self.divisor_names:
            return 1
        raise KeyError(name)

    def class_lift(self, name: str, point: FixedPoint) -> list[int]:
        """Equivariant restriction of a named basis class at a fixed point.

        An integer form at s = 1: ``out[j]`` belongs to ``s^(d-j) t^j`` with
        ``d = class_degree(name)``, and ``[]`` stands for zero.
        """
        if name == "1":
            return [1]
        if name == "p":
            return self.point_lift(point)
        if name in self.divisor_names:
            lift = self.divisor_lift(name, point)
            return list(lift) if any(lift) else []
        raise KeyError(name)

    def c1_coeffs(self) -> tuple:
        """First Chern class of the surface (anticanonical), in the basis."""
        return tuple(-k for k in self.canonical)


def _adjugate(m: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(adj, det)`` of an integer matrix of size 1 or 2 (the Picard ranks here), ``adj M = det I``."""
    if len(m) == 1:
        return ((1,),), m[0][0]
    (p, q), (u, v) = m
    return ((v, -q), (-u, p)), p * v - q * u


def _nef_rays(forms: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The primitive extremal rays of the nef cone ``{H : f . H >= 0}``, ``f`` the forms
    ``H -> H . D_i`` of the boundary divisors, in the order of the divisors that cut them out.

    In Picard rank 2 each ray spans the kernel of one form and is nef; in
    rank 1 the cone is one ray.  A projective surface has a full cone, so
    there are as many rays as the rank.
    """
    n = len(forms[0])
    rays = []
    for f in forms:
        if n == 1:
            kernel = (1,)
        else:
            g = gcd(*f)
            kernel = (-f[1] // g, f[0] // g)
        for ray in (kernel, tuple(-x for x in kernel)):
            if ray not in rays and all(sum(map(mul, f2, ray)) >= 0 for f2 in forms):
                rays.append(ray)
    if len(rays) != n:
        raise ValueError(f"the nef cone has rays {rays}, expected {n}")
    return tuple(rays)


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
