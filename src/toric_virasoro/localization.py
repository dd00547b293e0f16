"""Geometric realisation of descendent symbols and exact fixed-point integration.

A :class:`Case` bundles a toric surface, topological invariants, a
polarization and the finite list of torus-fixed stable sheaves with those
invariants.  Every number here is a fixed-point sum ``sum_q v_q / e_q``
cleared by an :class:`~toric_virasoro.exactalg.CommonDenominator`: the two
surface ones are built once per :class:`~toric_virasoro.surfaces.Surface`,
the moduli one once per case.

* ``tangent_representation`` computes the torus character of the tangent
  space at a fixed point from the K-theoretic Euler characteristic
  ``chi(E, E)``, a sum over the surface's ``character_denominator``, and
  certifies isolation (no trivial weight) and the expected dimension;
* ``realize_symbol`` evaluates a formal symbol ``ch_i(gamma)`` at each
  moduli fixed point as a genuine polynomial in the torus parameters
  ``s, t``: normalized Chern character slices of the sheaf's chart
  restrictions, summed over the surface's ``tangent_denominator``;
* ``integrate`` sums over the case's ``tangent_denominator`` (the LCM of the
  moduli tangent Euler classes), certifies that the sum clears (the
  localization consistency check), and evaluates at the origin.  It works
  over the integers: every realized value, cofactor and the LCM is
  homogeneous, so each is kept at ``s = 1`` as an integer list with one
  common scale, and a monomial's cleared numerator
  ``sum_q cofactor_q * prod_i v_iq`` is one exact bigint sum of
  Kronecker-packed products (:func:`~toric_virasoro.exactalg.pack`), with a
  slot width set by an l1 bound so that decoding it is exact.  Below the
  moduli dimension the numerator must vanish; at it, it must be a constant
  times the LCM, checked slot by slot; above it (a value that must be 0)
  the numerator is divided by every LCM factor with
  :func:`~toric_virasoro.exactalg.exact_div`.

``verify_conjecture`` runs the full sweep: for every ``k`` in
``[-1, vdim]`` and every restricted monomial of degree ``vdim - k`` it
integrates the three operator parts and reports whether they sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .descendents import (
    DescPoly,
    Monomial,
    apply_R,
    apply_S,
    apply_T,
    monomial_basis,
    monomial_degree,
    render_monomial,
    symbol_degree,
)
from .enumeration import fixed_locus_cached
from .exactalg import (
    CommonDenominator,
    LaurentPoly,
    NotDivisible,
    Rat,
    dehomogenize,
    exact_div,
    homogenize,
    integer_rows,
    linform,
    pack,
    truncated_exp_rat,
    unpack,
)
from .klyachko import NonIsolated
from .surfaces import Surface, surface_by_name

_ZERO = Fraction(0)


class TrivialWeight(ValueError):
    """A tangent character is not an honest representation of dimension vdim.

    A multiplicity that is negative or not an integer, or a total dimension
    other than vdim, means inconsistent fixed-point data (or a sheaf that is
    not simple or not unobstructed).  A positive multiplicity at the trivial
    weight is :class:`NonIsolated` instead: the fixed point is not isolated.
    """


# ---------------------------------------------------------------------------
# tangent representations
# ---------------------------------------------------------------------------


def sheaf_euler_pairing(restrictions: Sequence[LaurentPoly], surface: Surface) -> LaurentPoly:
    """chi(E, E) as a torus character, by K-theoretic fixed-point clearing.

    Each fixed point contributes ``E_p^dual * E_p / ((1 - u)(1 - v))`` where
    ``u, v`` are the inverse tangent characters (= the chart characters); the
    sum over points clears to a finite character sum.
    """
    return surface.character_denominator.clear([poly.dual() * poly for poly in restrictions])


def tangent_representation(
    restrictions: Sequence[LaurentPoly], surface: Surface, vdim: int
) -> LaurentPoly:
    """Torus character of the tangent space at a moduli fixed point.

    ``T = 1 - chi(E, E)``; the result is certified to be an honest
    representation: nonnegative integer multiplicities (else
    :class:`TrivialWeight`), no trivial weight (else :class:`NonIsolated`),
    and total dimension ``vdim`` (else :class:`TrivialWeight`).
    """
    chi = sheaf_euler_pairing(restrictions, surface)
    tangent = LaurentPoly.one() - chi
    total = 0
    for (a, b), c in tangent:
        if c.denominator != 1 or c < 0:
            raise TrivialWeight(
                f"tangent multiplicity {c} at weight ({a},{b}) is not a"
                " nonnegative integer"
            )
        total += int(c)
    if (0, 0) in tangent.coeffs:
        raise NonIsolated(
            f"trivial weight with multiplicity {tangent.coeffs[(0, 0)]}"
            " in the tangent space at a fixed point"
        )
    if total != vdim:
        raise TrivialWeight(
            f"tangent dimension {total} differs from expected dimension {vdim}"
        )
    return tangent


def euler_class(tangent: LaurentPoly) -> LaurentPoly:
    """Product of the weight linear forms, with multiplicities."""
    out = LaurentPoly.one()
    for (a, b), c in tangent:
        out = out * linform((a, b)) ** int(c)
    return out


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """A moduli problem with its fixed locus and all localization caches."""

    surface: Surface
    rank: int
    c1: tuple
    c2: int
    H: tuple
    restrictions: tuple[tuple[LaurentPoly, ...], ...]  # per moduli point, per surface point
    vdim: int = field(init=False)
    cap: int = field(init=False)

    def __post_init__(self):
        self.vdim = self.surface.vdim(self.rank, self.c1, self.c2)
        self.cap = self.vdim + 2
        self._tangents: list[LaurentPoly] | None = None
        self._series: dict[tuple[int, int], LaurentPoly] = {}
        self._symbols: dict[tuple[int, str], tuple[LaurentPoly, ...]] = {}
        self._int_symbols: dict[tuple[int, str], tuple] = {}
        self._packs: dict[tuple, tuple[int, ...]] = {}
        self._integrals: dict[Monomial, Fraction] = {}
        self.certified_clearings = 0

    # -- enumeration-facing -------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.restrictions)

    def tangents(self) -> list[LaurentPoly]:
        if self._tangents is None:
            self._tangents = [
                tangent_representation(rows, self.surface, self.vdim)
                for rows in self.restrictions
            ]
        return self._tangents

    def euler_classes(self) -> list[LaurentPoly]:
        return [euler_class(t) for t in self.tangents()]

    # -- the common denominator of moduli integrals ------------------------

    @cached_property
    def tangent_denominator(self) -> CommonDenominator:
        """LCM and cofactors of the tangent Euler classes, one term per point."""
        return CommonDenominator(
            [linform(w) for w, c in tangent for _ in range(int(c))]
            for tangent in self.tangents()
        )

    def scaffold(self):
        """``(lcm_poly, lcm_factors, cofactors)`` of :attr:`tangent_denominator`.

        Any fixed-point sum ``sum_q v_q / e_q`` equals
        ``(sum_q v_q * cofactors[q]) / lcm_poly`` exactly.
        """
        den = self.tangent_denominator
        return den.poly, den.factors, den.cofactors

    # -- realized symbols ----------------------------------------------------

    def _chern_series(self, q: int, p: int) -> LaurentPoly:
        """Truncated ch of -E_p (x) det(E_p)^(-1/r) at moduli point q."""
        key = (q, p)
        if key not in self._series:
            poly = self.restrictions[q][p]
            A = B = _ZERO
            for (a, b), c in poly:
                A += c * a
                B += c * b
            r = self.rank
            series = LaurentPoly.zero()
            for (a, b), c in poly:
                series = series + truncated_exp_rat(
                    Fraction(a) - A / r, Fraction(b) - B / r, self.cap
                ) * (-c)
            self._series[key] = series
        return self._series[key]

    def realize_symbol(self, i: int, name: str) -> tuple[LaurentPoly, ...]:
        """Per-moduli-point polynomial value of the symbol ch_i(gamma).

        Sums ``gamma_p * [ch part]_i / e(T_X at p)`` over the surface fixed
        points and clears exactly; each value is homogeneous of the symbol's
        degree (or zero).
        """
        key = (i, name)
        if key not in self._symbols:
            if i < 0:
                self._symbols[key] = tuple(
                    LaurentPoly.zero() for _ in range(self.n_points)
                )
                return self._symbols[key]
            surface = self.surface
            sdeg = symbol_degree(key, surface)
            lifts = [surface.class_lift(name, p) for p in surface.points]
            zero = LaurentPoly.zero()
            values = []
            for q in range(self.n_points):
                # points where the class lift vanishes contribute nothing
                nums = [
                    lift * self._chern_series(q, pidx).homogeneous_part(i) if lift else zero
                    for pidx, lift in enumerate(lifts)
                ]
                value = surface.tangent_denominator.clear(nums)
                if value and not value.is_homogeneous(sdeg):
                    raise NotDivisible(
                        f"realized ch_{i}({name}) at point {q} is not homogeneous"
                        f" of degree {sdeg}: {value.render()}"
                    )
                values.append(value)
            self._symbols[key] = tuple(values)
        return self._symbols[key]

    # -- exact integration ----------------------------------------------------

    @cached_property
    def _integer_denominator(self) -> tuple[int, list[list[int]], list[int], list[int]]:
        """``(L, cofactors, norms, poly)``: :attr:`tangent_denominator` at s = 1 over ZZ.

        ``L`` is the least common denominator of the cofactors and the LCM
        polynomial, both scaled by it; ``norms`` are the cofactors' l1 norms.
        """
        den = self.tangent_denominator
        n = len(den.factors)
        scale, rows = integer_rows(
            [*(dehomogenize(co, n - self.vdim) for co in den.cofactors), dehomogenize(den.poly, n)]
        )
        cofactors = rows[:-1]
        return scale, cofactors, [sum(map(abs, co)) for co in cofactors], rows[-1]

    def _integer_symbol(self, sym: tuple[int, str]) -> tuple[int, list[list[int]], list[int]]:
        """``(S, values, norms)``: :meth:`realize_symbol` at s = 1, scaled by S to ZZ."""
        if sym not in self._int_symbols:
            sdeg = symbol_degree(sym, self.surface)
            scale, rows = integer_rows(dehomogenize(v, sdeg) for v in self.realize_symbol(*sym))
            self._int_symbols[sym] = (scale, rows, [sum(map(abs, row)) for row in rows])
        return self._int_symbols[sym]

    def _packed(self, key, rows: list[list[int]], width: int) -> tuple[int, ...]:
        """The per-point integer polynomials ``rows`` packed ``width`` bits a slot."""
        if (key, width) not in self._packs:
            self._packs[key, width] = tuple(pack(row, width) for row in rows)
        return self._packs[key, width]

    def integrate_monomial(self, mono: Monomial) -> Fraction:
        mono = tuple(sorted(mono))
        if mono in self._integrals:
            return self._integrals[mono]
        if self.n_points == 0:
            result = _ZERO
        else:
            result = self._integrate(mono, monomial_degree(mono, self.surface))
        self._integrals[mono] = result
        return result

    def _integrate(self, mono: Monomial, deg: int) -> Fraction:
        """``sum_q prod(mono)_q / e_q``, certified to clear, evaluated at the origin.

        The cleared numerator ``sum_q cofactor_q * prod_i v_iq`` is formed as
        one bigint sum of Kronecker-packed products; its slot width is set by
        the l1 bound ``sum_q ||cofactor_q|| * prod_i ||v_iq||``, which bounds
        every coefficient, so decoding it is exact.
        """
        den_scale, cofactors, co_norms, poly = self._integer_denominator
        symbols = [self._integer_symbol(sym) for sym in mono]
        scale, bounds = 1, list(co_norms)
        for sym_scale, _rows, norms in symbols:
            bounds = [b * n for b, n in zip(bounds, norms)]
            scale *= sym_scale
        width = 64 * (sum(bounds).bit_length() // 64 + 1)  # a sign bit above the bound
        packed = [self._packed("cofactors", cofactors, width)]
        packed += [self._packed(sym, rows, width) for sym, (_s, rows, _n) in zip(mono, symbols)]
        num = 0
        for q, bound in enumerate(bounds):
            if bound:  # no value of the monomial vanishes at q
                term = 1
                for values in packed:
                    term *= values[q]
                num += term
        if not num:
            return _ZERO
        top = len(poly) - 1 - self.vdim + deg  # nominal degree of the numerator
        slots = unpack(num, width, top + 1)
        if deg == self.vdim:
            # the cleared quotient is a constant c: certify num == c * lcm
            b0 = next(j for j, c in enumerate(poly) if c)
            n0, l0 = slots[b0], poly[b0]
            if any(n * l0 != l * n0 for n, l in zip(slots, poly)):
                raise NotDivisible(
                    "fixed-point sum does not clear to a constant; the fixed"
                    " locus or tangent data is inconsistent"
                )
            self.certified_clearings += 1
            return Fraction(n0, l0 * scale)  # den_scale cancels: poly is scaled too
        num = homogenize(slots, top, den_scale * scale)
        if deg < self.vdim:
            # degree reasons force the cleared sum to vanish identically
            raise NotDivisible(
                f"fixed-point sum of a degree-{deg} class on a {self.vdim}-"
                f"dimensional space failed to cancel: {num.render()}"
            )
        # degree above vdim: divide out every factor, then evaluate at 0
        for factor in self.tangent_denominator.factors:
            num = exact_div(num, factor)
        self.certified_clearings += 1
        for (a, b) in num.coeffs:
            if a < 0 or b < 0:
                # exact_div by a monomial factor such as t always succeeds
                raise NotDivisible("cleared sum is not polynomial")
        return num.constant_term()

    def integrate(self, D: DescPoly) -> Fraction:
        total = _ZERO
        for mono, c in D.terms.items():
            total += c * self.integrate_monomial(mono)
        return total

    # -- operator parts ---------------------------------------------------

    def operator_parts(self, k: int, mono: Monomial) -> tuple[Fraction, Fraction, Fraction]:
        """(integral of R_k D, T_k D, S_k D) for the monomial D."""
        D = DescPoly.monomial(mono)
        return (
            self.integrate(apply_R(k, D, self.surface)),
            self.integrate(apply_T(k, D, self.surface)),
            self.integrate(apply_S(k, D, self.surface, self.rank)),
        )

    def twisted(self, weight: tuple[int, int]) -> "Case":
        """The same case with every chart value multiplied by one character."""
        rows = tuple(
            tuple(poly.shift(*weight) for poly in per_point)
            for per_point in self.restrictions
        )
        return Case(self.surface, self.rank, self.c1, self.c2, self.H, rows)

    def drop_point(self, q: int) -> "Case":
        """A deliberately broken case missing one fixed point (negative test)."""
        rows = tuple(r for i, r in enumerate(self.restrictions) if i != q)
        return Case(self.surface, self.rank, self.c1, self.c2, self.H, rows)


def make_case(
    surface_name: str,
    rank: int,
    c1: tuple,
    c2: int,
    H: tuple,
    sheaves=None,
) -> Case:
    """Build a case from the enumerated fixed locus (or injected sheaves)."""
    surface = surface_by_name(surface_name)
    if sheaves is None:
        sheaves = fixed_locus_cached(surface_name, rank, tuple(c1), c2, tuple(H))
    rows = tuple(tuple(sh.restriction(p) for p in surface.points) for sh in sheaves)
    return Case(surface, rank, tuple(c1), c2, tuple(H), rows)


# ---------------------------------------------------------------------------
# the conjecture sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    k: int
    monomial: Monomial
    r_part: Rat
    t_part: Rat
    s_part: Rat

    @property
    def total(self) -> Rat:
        return self.r_part + self.t_part + self.s_part

    @property
    def label(self) -> str:
        return render_monomial(self.monomial)


def verify_conjecture(case: Case, ks: Iterable[int] | None = None) -> list[CheckRow]:
    """All (k, D) checks: the three parts of the degree-vdim integral.

    For each k in [-1, vdim] (by default) and each restricted monomial of
    degree vdim - k, the returned row holds the R/T/S integrals; the
    conjecture asserts every row sums to zero.
    """
    if ks is None:
        ks = range(-1, case.vdim + 1)
    rows = []
    for k in ks:
        for mono in monomial_basis(case.surface, case.vdim - k):
            r, t, s = case.operator_parts(k, mono)
            rows.append(CheckRow(k, mono, r, t, s))
    return rows
