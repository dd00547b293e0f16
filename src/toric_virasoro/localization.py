"""Geometric realisation of descendent symbols and exact fixed-point integration.

A :class:`Case` bundles a toric surface, topological invariants, a
polarization and the finite list of torus-fixed stable sheaves with those
invariants.  Every number here is a fixed-point sum ``sum_q v_q / e_q``,
and every one is cleared over the integers: K-theoretic ones by the
surface's ``character_denominator`` (a
:class:`~toric_virasoro.exactalg.BinomialDenominator`, which divides an
integer character by each binomial ``1 - chi^w`` as a running sum along
``w``), cohomological ones at ``s = 1`` by a
:class:`~toric_virasoro.exactalg.LinearDenominator`, built once per surface
and once per case.  ``Fraction`` appears only at the end: one per operator
part.

* ``tangent_representation`` computes the torus character of the tangent
  space at a fixed point, ``{weight: multiplicity}``, from the K-theoretic
  Euler characteristic ``chi(E, E)``.  The products ``E_p^dual E_p`` are
  formed from the chart restrictions, integer characters (a :class:`Case`
  refuses a non-integral coefficient when it is built), so every
  multiplicity is an integer by construction; it certifies that none is
  negative, isolation (no trivial weight) and the expected dimension;
* ``_integer_symbol`` evaluates a formal symbol ``ch_i(gamma)`` at each
  moduli fixed point as a polynomial in the torus parameters ``s, t``:
  normalized Chern character slices of the sheaf's chart restrictions,
  summed over the surface points.  Each slice is a sum of powers of integer
  linear forms (chart weights scaled by r); at ``t = 2^W`` each form is one
  bigint, and its powers are raised once per degree ``i`` and shared by
  every class.  Per class the lift times each surface cofactor is packed
  once, and per moduli point one product sum and one packed division by
  the surface's ``tangent_denominator``
  (:meth:`~toric_virasoro.exactalg.LinearDenominator.certify`) clear the
  sum into the ``(scale, rows)`` that the integration kernel reads;
  ``realize_symbol`` is their readable view;
* ``_integrate`` sums over the case's ``tangent_denominator`` (the LCM of
  the moduli tangent Euler classes), certifies that the sum clears (the
  localization consistency check), and evaluates at the origin, to an
  integer pair ``(n, d)`` in lowest terms.  A monomial's cleared numerator
  ``sum_q cofactor_q * prod_i v_iq`` is one exact bigint sum of
  Kronecker-packed products (:func:`~toric_virasoro.exactalg.pack`), with a
  slot width set by an l1 bound so that decoding it is exact.  Each
  realized symbol keeps a bitmask of the moduli points where its row is
  nonzero (where its l1 norm is).  No cofactor vanishes, so when the masks
  of a monomial's factors have an empty AND every term vanishes: the
  kernel returns 0 before any bound or product, without a clearing, as for
  a numerator that sums to 0.  Otherwise the bound and the products run
  point by point in ``map(operator.mul, ...)``.  Before the kernel runs, a
  degree-0 symbol that is one nonzero constant ``c / S`` at every point
  (``ch_2(1)`` or ``ch_0(p)``: a topological number) is taken out of the
  monomial as the integers ``c`` and ``S``, so only the rest is cleared.
  At the moduli dimension the numerator must be an integer ``m`` times the
  LCM: one ``divmod`` by the packed LCM and the bound ``|m| * ||LCM||_1 <
  2^(W-1)`` certify it.  Below it the numerator must vanish, and above it
  (a value that must be 0) it is divided by the LCM, in the packed
  division of :meth:`~toric_virasoro.exactalg.LinearDenominator.certify`;
* ``operator_parts`` never builds a term with a factor that vanishes at
  every moduli point (normalized ``ch_1`` of a divisor or of ``p``): such a
  term's integral is the kernel's empty-mask 0.

``verify_conjecture`` runs the full sweep: for every ``k`` in
``[-1, vdim]`` and every restricted monomial of degree ``vdim - k`` it reads
the integer terms of the three operator parts
(:func:`~toric_virasoro.descendents.operator_terms`), sums ``int * n`` over
each per denominator ``d``, skipping zero integrals, forms one
``Fraction`` per part and reports whether the parts sum to zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .descendents import (
    Monomial,
    monomial_basis,
    monomial_degree,
    operator_terms,
    render_monomial,
    symbol_degree,
)
from .enumeration import fixed_locus_cached
from .exactalg import (
    Character,
    LaurentPoly,
    LinearDenominator,
    NotDivisible,
    Rat,
    char_product,
    convolve,
    homogenize,
    linform,
    pack,
    slot_width,
)
from .klyachko import NonIsolated
from .surfaces import Surface, surface_by_name

_ZERO = (0, 1)  # an integral (n, d) that vanishes


class _Memo(dict):
    """A dict that computes a missing value as ``compute(key)`` and keeps it."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        self[key] = value = self.compute(key)
        return value


def _ratio(n: int, d: int) -> tuple[int, int]:
    """``n / d`` as ``(n', d')`` in lowest terms with ``d' > 0``."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


class TrivialWeight(ValueError):
    """A tangent character is not an honest representation of dimension vdim.

    A negative multiplicity, or a total dimension other than vdim, means
    inconsistent fixed-point data (or a sheaf that is not simple or not
    unobstructed).  A positive multiplicity at the trivial weight is
    :class:`NonIsolated` instead: the fixed point is not isolated.  No
    multiplicity can fail to be an integer: ``chi(E, E)`` is cleared over
    the integers from integer rows.
    """


# ---------------------------------------------------------------------------
# tangent representations
# ---------------------------------------------------------------------------


def sheaf_euler_pairing(restrictions: Sequence[Character], surface: Surface) -> Character:
    """chi(E, E) as an integer torus character, by K-theoretic fixed-point clearing.

    Each fixed point contributes ``E_p^dual * E_p / ((1 - u)(1 - v))`` where
    ``u, v`` are the inverse tangent characters (= the chart characters).
    The products ``E_p^dual * E_p`` of the integer chart characters are
    cleared by the surface's ``character_denominator``, over the integers,
    by running sums along each chart character.  The sum over the points is
    a finite character sum; a row that is not a consistent K-class raises
    :class:`~toric_virasoro.exactalg.NotDivisible`.
    """
    values = [
        char_product({(-a, -b): c for (a, b), c in chart.items()}, chart) for chart in restrictions
    ]
    return surface.character_denominator.clear(values)


def tangent_representation(
    restrictions: Sequence[Character], surface: Surface, vdim: int
) -> Character:
    """Torus character of the tangent space at a moduli fixed point, ``{weight: multiplicity}``.

    ``T = 1 - chi(E, E)``, over the integers; the result is certified to be
    an honest representation: nonnegative multiplicities (else
    :class:`TrivialWeight`), no trivial weight (else :class:`NonIsolated`),
    and total dimension ``vdim`` (else :class:`TrivialWeight`).
    """
    tangent = {(0, 0): 1}
    for w, c in sheaf_euler_pairing(restrictions, surface).items():
        tangent[w] = tangent.get(w, 0) - c
    tangent = {w: c for w, c in tangent.items() if c}
    for (a, b), c in tangent.items():
        if c < 0:
            raise TrivialWeight(f"tangent multiplicity {c} at weight ({a},{b}) is negative")
    if (0, 0) in tangent:
        raise NonIsolated(
            f"trivial weight with multiplicity {tangent[(0, 0)]}"
            " in the tangent space at a fixed point"
        )
    total = sum(tangent.values())
    if total != vdim:
        raise TrivialWeight(
            f"tangent dimension {total} differs from expected dimension {vdim}"
        )
    return tangent


def euler_class(tangent: Character) -> LaurentPoly:
    """Product of the weight linear forms, with multiplicities."""
    out = LaurentPoly.one()
    for w, c in tangent.items():
        out = out * linform(w) ** c
    return out


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """A moduli problem with its fixed locus and all localization caches.

    Building one refuses a restriction coefficient that is no ``int`` (``ValueError``).
    """

    surface: Surface
    rank: int
    c1: tuple
    c2: int
    H: tuple
    restrictions: tuple[tuple[Character, ...], ...]  # per moduli point, per surface point
    vdim: int = field(init=False)

    def __post_init__(self):
        for q, row in enumerate(self.restrictions):
            if not all(isinstance(c, int) for chart in row for c in chart.values()):
                raise ValueError(f"the row {row} of fixed point {q} has a non-integral coefficient")
        self.vdim = self.surface.vdim(self.rank, self.c1, self.c2)
        self._tangents: list[Character] | None = None
        self._powers: dict[int, tuple[int, list[int], list[int]]] = {}  # width -> (j, c * X^j, X)
        self._power_sums: dict[tuple[int, int], list[list[int]]] = {}
        self._power_sum_bounds = _Memo(self._power_sum_bound)
        self._int_symbols: dict[tuple[int, str], tuple] = {}
        self._supports = _Memo(self._support)
        self._vanishing = _Memo(lambda sym: not self._supports[sym])
        self._constants = _Memo(self._constant)
        self._packs: dict[tuple, tuple[int, ...]] = {}
        self._integrals: dict[Monomial, tuple[int, int]] = {}
        self.certified_clearings = 0

    # -- enumeration-facing -------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.restrictions)

    def tangents(self) -> list[Character]:
        if self._tangents is None:
            self._tangents = [
                tangent_representation(rows, self.surface, self.vdim)
                for rows in self.restrictions
            ]
        return self._tangents

    def euler_classes(self) -> list[LaurentPoly]:
        """The tangent Euler classes, one per fixed point: the tangent data in readable form."""
        return [euler_class(t) for t in self.tangents()]

    # -- the common denominator of moduli integrals ------------------------

    @cached_property
    def tangent_denominator(self) -> LinearDenominator:
        """LCM and cofactors of the tangent Euler classes, one term per point."""
        return LinearDenominator(
            [w for w, c in tangent.items() for _ in range(c)] for tangent in self.tangents()
        )

    def scaffold(self):
        """``(lcm_poly, lcm_factors, cofactors)`` of :attr:`tangent_denominator`, readable.

        Any fixed-point sum ``sum_q v_q / e_q`` equals
        ``(sum_q v_q * cofactors[q]) / lcm_poly`` exactly.
        """
        den = self.tangent_denominator
        n = len(den.forms)
        return (
            homogenize(den.poly, n, den.scale),
            tuple(linform(f) for f in den.forms),
            [homogenize(co, n - self.vdim, den.scale) for co in den.cofactors],
        )

    # -- realized symbols ----------------------------------------------------

    @cached_property
    def _chern_forms(self) -> tuple[list[int], list[int], list[int], list[list[tuple[int, int]]]]:
        """``(xs, ys, cs, spans)``: one term ``c * chi^(a, b)`` of every chart in each slot.

        ``(x, y) = (r*a - A, r*b - B)``, with ``(A, B)`` the chart's weight
        sum, is r times a weight of ``E (x) det(E)^(-1/r)``.  The terms of
        moduli point ``q`` at surface point ``p`` fill ``spans[q][p] =
        (start, end)``.
        """
        r = self.rank
        xs, ys, cs, spans = [], [], [], []
        for per_point in self.restrictions:
            row = []
            for chart in per_point:
                A = sum(c * a for (a, _b), c in chart.items())
                B = sum(c * b for (_a, b), c in chart.items())
                row.append((len(cs), len(cs) + len(chart)))
                for (a, b), c in chart.items():
                    xs.append(r * a - A)
                    ys.append(r * b - B)
                    cs.append(c)
            spans.append(row)
        return xs, ys, cs, spans

    def _packed_power_sums(self, i: int, width: int) -> list[list[int]]:
        """Per moduli and surface point, ``sum c * (x*s + y*t)^i`` over its forms, packed.

        At s = 1 and ``t = 2^width`` a form is ``X = x + (y << width)``.  Per
        width, the terms ``c * X^j`` are raised one degree at a time and
        summed at each degree on the way, so every degree and every class
        shares them; only the highest degree's terms are kept.
        """
        if (i, width) not in self._power_sums:
            xs, ys, cs, spans = self._chern_forms
            j, terms, forms = self._powers.get(width) or (
                -1, None, [x + (y << width) for x, y in zip(xs, ys)]
            )
            while j < i:
                j, terms = j + 1, cs if j < 0 else list(map(mul, terms, forms))
                self._power_sums[j, width] = [[sum(terms[a:b]) for a, b in row] for row in spans]
            self._powers[width] = (j, terms, forms)
        return self._power_sums[i, width]

    def _power_sum_bound(self, i: int) -> list[list[int]]:
        """Per moduli and surface point, ``sum |c| (|x| + |y|)^i``: an l1 bound on its power sum."""
        xs, ys, cs, spans = self._chern_forms
        norms = [abs(c) * (abs(x) + abs(y)) ** i for x, y, c in zip(xs, ys, cs)]
        return [[sum(norms[a:b]) for a, b in row] for row in spans]

    def realize_symbol(self, i: int, name: str) -> tuple[LaurentPoly, ...]:
        """Per-moduli-point polynomial value of the symbol ch_i(gamma).

        The rows of :meth:`_integer_symbol`, homogenized: each value is a
        polynomial homogeneous of the symbol's degree (or zero).
        """
        scale, rows, _norms = self._integer_symbol((i, name))
        sdeg = symbol_degree((i, name), self.surface)
        return tuple(homogenize(row, sdeg, scale) for row in rows)

    # -- exact integration ----------------------------------------------------

    def _integer_symbol(self, sym: tuple[int, str]) -> tuple[int, list[list[int]], list[int]]:
        """``(S, values, norms)``: ch_i(gamma) at every moduli point, at s = 1, scaled by S to ZZ.

        At a surface point ch_i of ``-E (x) det(E)^(-1/r)`` is ``-sum c * (x*s
        + y*t)^i / (i! r^i)`` over the :attr:`_chern_forms`.  Times the class
        lift, it is summed over the surface by the surface's
        ``tangent_denominator``, in one packed product sum per moduli point:
        the power sums (:meth:`_packed_power_sums`) times each surface
        point's lift times cofactor, packed once per class.  One
        :meth:`~toric_virasoro.exactalg.LinearDenominator.certify` clears the
        sum, from the l1 bound ``sum_p sum |c| (|x| + |y|)^i * ||lift_p *
        cofactor_p||_1`` (:meth:`_power_sum_bound`).  The scale is ``L * i!
        * r^i``, with ``L`` that denominator's scale, until the common gcd of
        the scale and every value is divided out: S is then the least common
        denominator of the values.
        """
        if sym not in self._int_symbols:
            i, name = sym
            n = self.n_points
            if i < 0:  # ch_i = 0
                self._int_symbols[sym] = (1, [[] for _ in range(n)], [0] * n)
                return self._int_symbols[sym]
            surface = self.surface
            den = surface.tangent_denominator
            deg = symbol_degree(sym, surface)
            lifts = [surface.class_lift(name, p) for p in surface.points]
            lifts = [convolve(lift, co) if lift else [] for lift, co in zip(lifts, den.cofactors)]
            norms = [sum(map(abs, lift)) for lift in lifts]
            bound = max((sum(map(mul, row, norms)) for row in self._power_sum_bounds[i]), default=0)
            packed: dict[int, list[int]] = {}

            def lifted(width: int) -> list[int]:
                if width not in packed:
                    packed[width] = [pack(lift, width) for lift in lifts]
                return packed[width]

            rows = [
                den.certify(
                    lambda w, q=q: sum(map(mul, self._packed_power_sums(i, w)[q], lifted(w))),
                    bound,
                    deg,
                )
                for q in range(n)
            ]
            scale = den.scale * factorial(i) * self.rank**i
            g = gcd(scale, *(x for row in rows for x in row))
            rows = [[-x // g for x in row] for row in rows]
            self._int_symbols[sym] = (scale // g, rows, [sum(map(abs, row)) for row in rows])
        return self._int_symbols[sym]

    def _support(self, sym: tuple[int, str]) -> int:
        """Bitmask of the moduli points where the symbol's row is nonzero (its l1 norm is)."""
        norms = self._integer_symbol(sym)[2]
        return sum(1 << q for q, norm in enumerate(norms) if norm)

    def _packed(self, key, rows: list[list[int]], width: int) -> tuple[int, ...]:
        """The per-point integer polynomials ``rows`` packed ``width`` bits a slot."""
        if (key, width) not in self._packs:
            self._packs[key, width] = tuple(pack(row, width) for row in rows)
        return self._packs[key, width]

    def _constant(self, sym: tuple[int, str]) -> tuple[int, int] | None:
        """``(c, S)`` when the symbol has degree 0 and its rows are one nonzero ``[c]``, else None.

        S is the least common denominator of the rows, so ``c / S`` is in
        lowest terms.
        """
        if symbol_degree(sym, self.surface) == 0:
            scale, rows, norms = self._integer_symbol(sym)
            if norms[0] and all(row == rows[0] for row in rows):
                return rows[0][0], scale
        return None

    def _integral(self, mono: Monomial) -> tuple[int, int]:
        """The integral of a sorted monomial as ``(n, d)``, in lowest terms with ``d > 0``.

        Memoized under the monomial; an empty locus integrates every
        monomial to 0.
        """
        integrals = self._integrals
        if mono not in integrals:
            integrals[mono] = self._stripped(mono) if self.n_points else _ZERO
        return integrals[mono]

    def _stripped(self, mono: Monomial) -> tuple[int, int]:
        """The integral of a sorted monomial, its constant degree-0 factors taken out.

        Every degree-0 symbol that is the same nonzero constant ``c / S`` at
        every moduli point (see :meth:`_constant`) is taken out as a factor,
        read as the integers ``c`` and ``S``, and only the rest goes through
        :meth:`_integrate` (memoized under its own key).  This is exact: the
        cleared numerator of ``m = c * m'`` is ``c * N(m')`` as a
        polynomial, with ``c != 0``, so ``m'`` clears (at, below or above
        vdim) if and only if ``m`` does, is refused if and only if ``m`` is,
        and its value is ``1/c`` of ``m``'s.  A degree-0 symbol that
        vanishes everywhere keeps the empty-mask exit of the kernel; one
        whose rows differ is cleared with the rest.
        """
        constants = self._constants
        num, den, rest = 1, 1, []
        for sym in mono:
            c = constants[sym]
            if c:
                num *= c[0]
                den *= c[1]
            else:
                rest.append(sym)
        rest = tuple(rest)  # still sorted
        if rest == mono:
            return self._integrate(mono)
        n, d = self._integral(rest)
        return _ratio(num * n, den * d)

    def _integrate(self, mono: Monomial) -> tuple[int, int]:
        """``sum_q prod(mono)_q / e_q``, certified to clear, evaluated at the origin, as ``(n, d)``.

        The cleared numerator ``sum_q cofactor_q * prod_i v_iq`` is formed as
        one bigint sum of Kronecker-packed products; its slot width is set by
        the l1 bound ``sum_q ||cofactor_q|| * prod_i ||v_iq||``, which bounds
        every coefficient, so decoding it is exact.  A point outside the
        AND of the factors' supports contributes 0; when no point is left,
        the sum is 0 without a bound, a product or a clearing.

        At the moduli dimension the numerator ``N`` must be ``c * L * LCM``
        for a constant ``c``; the LCM is primitive, so then ``m = c * L`` is
        an integer and ``||N||_1 = |m| * ||LCM||_1`` is within the bound.
        One ``divmod`` of the packed ``N`` by the packed LCM decides it: a
        nonzero remainder, or a quotient ``m`` with ``|m| * ||LCM||_1 >=
        2^(W-1)``, is no such multiple; otherwise ``m * LCM`` and ``N`` pack
        alike with every coefficient below ``2^(W-1)``, so they are equal,
        and the value is ``m / (L * S)``, S the symbols' scales.  Below and
        above it the packed division of ``LinearDenominator.certify`` runs.
        """
        supports = self._supports
        support = (1 << self.n_points) - 1  # no cofactor vanishes: it is a product of forms
        for sym in mono:
            support &= supports[sym]
        if not support:  # every point has a vanishing factor
            return _ZERO
        den = self.tangent_denominator
        deg = monomial_degree(mono, self.surface)
        symbols = [self._integer_symbol(sym) for sym in mono]
        scale, bounds = 1, den.norms
        for sym_scale, _rows, norms in symbols:
            bounds = map(mul, bounds, norms)
            scale *= sym_scale
        bound = sum(bounds)

        def numerator(width: int) -> int:
            terms = den.packed(width)[1]
            for sym, (_s, rows, _n) in zip(mono, symbols):
                terms = map(mul, terms, self._packed(sym, rows, width))
            return sum(terms)

        width = slot_width(bound)
        num = numerator(width)
        if not num:
            return _ZERO
        if deg == self.vdim:
            # the cleared sum is a constant c: certify num == m * LCM, m = c * L
            m, rem = divmod(num, den.packed(width)[0])
            if rem or (abs(m) * den.lcm_norm) >> (width - 1):
                raise NotDivisible(
                    "fixed-point sum does not clear to a constant; the fixed"
                    " locus or tangent data is inconsistent"
                )
            self.certified_clearings += 1
            return _ratio(m, den.scale * scale)
        # below vdim the numerator must vanish; above it the cleared sum is a
        # polynomial of positive degree, so its value at the origin is 0
        den.certify(lambda w: num if w == width else numerator(w), bound, deg - self.vdim)
        self.certified_clearings += 1
        return _ZERO

    def integrate(self, D) -> Fraction:
        """The integral of a descendent polynomial D (a ``DescPoly``).

        Its coefficients are brought to one denominator, and the integer
        numerators are summed by :meth:`_part`.
        """
        den = lcm(*(c.denominator for c in D.terms.values()))
        terms = {m: c.numerator * (den // c.denominator) for m, c in D.terms.items()}
        return self._part(terms, 1, den)

    def _part(self, terms: dict[Monomial, int], num: int = 1, den: int = 1) -> Fraction:
        """``num / den * sum c * integral(mono)`` over the integer terms ``{mono: c}``.

        The integrals are ``(n, d)`` in lowest terms; the products ``c * n``
        are summed as integers per denominator ``d``, skipping zero
        integrals, and the sums meet over the least common multiple of the
        denominators, in the one ``Fraction`` of the part.
        """
        integrals = self._integrals
        sums: dict[int, int] = {}
        for mono, c in terms.items():
            n, d = integrals.get(mono) or self._integral(mono)
            if n:
                sums[d] = sums.get(d, 0) + c * n
        common = lcm(*sums)
        return Fraction(num * sum(n * (common // d) for d, n in sums.items()), den * common)

    # -- operator parts ---------------------------------------------------

    def operator_parts(self, k: int, mono: Monomial) -> tuple[Fraction, Fraction, Fraction]:
        """(integral of R_k D, T_k D, S_k D) for the monomial D, from its integer terms.

        No term with a vanishing factor is built: a symbol whose rows are 0
        at every moduli point (normalized ``ch_1`` of a divisor or of ``p``)
        is passed to :func:`~toric_virasoro.descendents.operator_terms` as
        zero.  The parts are unchanged: such a term's integral has an empty
        support AND, so it was the kernel's exact 0, with no clearing and
        no count, and :meth:`_part` skips zero integrals.  Deciding that a
        symbol vanishes realizes it, once, so its surface clearing still
        runs, and a symbol that does not clear is still refused.
        """
        r, t, s, s_scale = operator_terms(
            k, mono, self.surface, self.rank, self._vanishing.__getitem__
        )
        return (
            self._part(r),
            self._part(t),
            self._part(s, s_scale.numerator, s_scale.denominator),
        )

    def twisted(self, weight: tuple[int, int]) -> "Case":
        """The same case with every chart value multiplied by one character (twist invariance)."""
        da, db = weight
        rows = tuple(
            tuple({(a + da, b + db): c for (a, b), c in chart.items()} for chart in per_point)
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
    """Build a case from the enumerated fixed locus (or injected sheaves).

    The rows are the sheaves' memoized charts, shared with every other case
    built from the same sheaves.
    """
    if sheaves is None:
        sheaves = fixed_locus_cached(surface_name, rank, tuple(c1), c2, tuple(H))
    rows = tuple(sh.charts for sh in sheaves)
    return Case(surface_by_name(surface_name), rank, tuple(c1), c2, tuple(H), rows)


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
