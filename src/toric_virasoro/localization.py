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
  integer pair ``(n, d)`` in lowest terms.  The cleared numerator is one
  bigint sum of Kronecker-packed products
  (:func:`~toric_virasoro.exactalg.pack`), its slot width set by an l1
  bound, and the products of the last few monomial prefixes are kept.  An
  empty AND of the factors' support bitmasks gives 0 without a clearing.

Integrals are memoized under packed exponent keys
(:class:`~toric_virasoro.descendents.Packing`).  The first term that holds a
symbol, skipped or not, realizes it and marks its byte in a zero mask if it
vanishes at every moduli point (normalized ``ch_1`` of a divisor or of
``p``: one AND skips a term) or in a constant mask if it is one nonzero
degree-0 ``c / S`` there (``ch_2(1)``, ``ch_0(p)``: one AND takes them out
as integers).
``verify_conjecture`` runs the full sweep: for every ``k`` in ``[-1,
vdim]`` and every restricted monomial D of degree ``vdim - k``,
``operator_parts`` adds the packed operator rules to D's key, sums ``c *
n`` per denominator ``d`` from the memo and forms one ``Fraction`` per
part; the conjecture is that the parts sum to zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .descendents import Monomial, Packing, monomial_basis, render_monomial, symbol_degree
from .enumeration import fixed_locus_cached
from .exactalg import (
    Character,
    LinearDenominator,
    NotDivisible,
    Rat,
    char_product,
    convolve,
    pack,
    slot_width,
)
from .klyachko import NonIsolated
from .surfaces import Surface, surface_by_name

_ZERO = (0, 1)  # an integral (n, d) that vanishes
_NO_PART = Fraction(0)  # a part without a nonzero integral
# packed per-point products of the most recent monomial prefixes that the kernel keeps
_PREFIXES = 4


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


def _homogeneous(coeffs: Sequence[int], deg: int, scale: int) -> dict[tuple[int, int], Fraction]:
    """The form ``coeffs`` (``coeffs[j]`` at ``s^(deg-j) t^j``) over ``scale``, as nonzero terms."""
    return {(deg - j, j): Fraction(c, scale) for j, c in enumerate(coeffs) if c}


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
        self._constants = _Memo(self._constant)
        self._packing = Packing(self.surface)
        self._admitted = self._zero_mask = self._constant_mask = 0  # fields, see _admit
        self._constant_factors = _Memo(self._constant_factor)
        self._packs: dict[tuple, tuple[int, ...]] = {}
        self._prefixes: dict[tuple[int, int], list[int]] = {}  # (prefix key, width) -> products
        self._integrals = _Memo(self._integrate)  # admitted packed key -> (n, d), see _sum
        self.certified_clearings = self.kernel_calls = self.factor_passes = 0

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
        ``(sum_q v_q * cofactors[q]) / lcm_poly`` exactly.  Each is a
        polynomial ``{(a, b): c}`` of its nonzero terms (:func:`_homogeneous`).
        """
        den = self.tangent_denominator
        n = len(den.forms)
        return (
            _homogeneous(den.poly, n, den.scale),
            tuple(_homogeneous(f, 1, 1) for f in den.forms),
            [_homogeneous(co, n - self.vdim, den.scale) for co in den.cofactors],
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

    def realize_symbol(self, i: int, name: str) -> tuple[dict[tuple[int, int], Fraction], ...]:
        """Per-moduli-point polynomial value of the symbol ch_i(gamma).

        The rows of :meth:`_integer_symbol`, homogenized (:func:`_homogeneous`):
        each value is a polynomial homogeneous of the symbol's degree (or zero).
        """
        scale, rows, _norms = self._integer_symbol((i, name))
        sdeg = symbol_degree((i, name), self.surface)
        return tuple(_homogeneous(row, sdeg, scale) for row in rows)

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

    def _admit(self, key: int) -> None:
        """Realize the key's new symbols, marking their fields in the zero or the constant mask.

        Every symbol of every term is realized once, so its surface clearing
        (the consistency check) runs even when the term is skipped.
        """
        for sym, _m in self._packing.factors(key & ~self._admitted):
            field = self._packing[sym] * 0xFF
            self._admitted |= field
            if not self._supports[sym]:
                self._zero_mask |= field
            elif self._constants[sym]:
                self._constant_mask |= field

    def _constant_factor(self, key: int) -> tuple[int, int]:
        """``(c, S)``: the product of the constant symbols of a key, ``c / S`` each."""
        num = den = 1
        for sym, m in self._packing.factors(key):
            c, scale = self._constants[sym]
            num *= c**m
            den *= scale**m
        return num, den

    def _integrate(self, key: int) -> tuple[int, int]:
        """``sum_q prod(mono)_q / e_q``, certified to clear, evaluated at the origin, as ``(n, d)``.

        The key's symbols that are one nonzero ``c / S`` at every point
        (:meth:`_constant`) leave by one AND with the constant mask, and only
        the rest is integrated, memoized under its own key.  This is exact:
        the cleared numerator of ``m = c * m'`` is ``c * N(m')``, ``c != 0``,
        so ``m'`` clears if and only if ``m`` does, with ``1/c`` of its value.

        The cleared numerator ``N = sum_q cofactor_q * prod_i v_iq`` is one
        bigint sum of packed products, its slot width set by the l1 bound
        ``sum_q ||cofactor_q|| * prod_i ||v_iq||``.  Points outside the AND of
        the factors' supports contribute 0; with none left the sum is 0
        without a clearing.  The factor copies are multiplied in sorted
        order, one pass each (:attr:`factor_passes`), from the longest of the
        last ``_PREFIXES`` proper prefixes whose products are kept.

        At the moduli dimension ``N`` must be ``c * L * LCM``; the LCM is
        primitive, so ``m = c * L`` is an integer and ``||N||_1 = |m| *
        ||LCM||_1`` is within the bound.  One ``divmod`` by the packed LCM
        decides it: a nonzero remainder, or ``|m| * ||LCM||_1 >= 2^(W-1)``,
        refuses; otherwise ``m * LCM`` and ``N`` pack alike with coefficients
        below ``2^(W-1)``, so they are equal, and the value is ``m / (L *
        S)``, S the symbols' scales.  Below and above it ``certify`` runs.
        """
        constant = key & self._constant_mask
        if constant:
            num, den = self._constant_factors[constant]
            n, d = self._integrals[key ^ constant]
            return _ratio(num * n, den * d)
        factors = self._packing.factors(key)
        support = (1 << self.n_points) - 1  # no cofactor vanishes: it is a product of forms
        for sym, _m in factors:
            support &= self._supports[sym]
        if not support:  # every point has a vanishing factor
            return _ZERO
        self.kernel_calls += 1
        den = self.tangent_denominator
        deg, scale, bounds, prefix, chain = 0, 1, den.norms, 0, []
        for sym, m in factors:
            sym_scale, rows, norms = self._integer_symbol(sym)
            deg += m * symbol_degree(sym, self.surface)
            scale *= sym_scale**m
            for _ in range(m):  # one link per copy: its rows and the prefix key it ends
                bounds = map(mul, bounds, norms)
                prefix += self._packing[sym]
                chain.append((sym, rows, prefix))
        bound = sum(bounds)

        def numerator(width: int) -> int:
            kept, start, terms = self._prefixes, 0, den.packed(width)[1]
            for j in range(len(chain) - 1, 0, -1):
                hit = kept.pop((chain[j - 1][2], width), None)
                if hit is not None:
                    kept[chain[j - 1][2], width] = hit  # now the most recent
                    start, terms = j, hit
                    break
            for sym, rows, after in chain[start:-1]:
                terms = kept[after, width] = list(map(mul, terms, self._packed(sym, rows, width)))
                if len(kept) > _PREFIXES:
                    del kept[next(iter(kept))]
            self.factor_passes += len(chain) - start
            if chain:
                sym, rows, _after = chain[-1]
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

    def _sum(self, base: int, terms, num: int = 1, den: int = 1) -> Fraction:
        """``num / den * sum c * integral(base + delta)`` over the terms ``(delta, c)``.

        A term's new symbols are admitted (:meth:`_admit`) and a term with a
        factor in the zero mask is skipped: its integral is the kernel's
        exact 0, with no clearing, and is not kept.  ``c * n`` is summed per
        denominator ``d`` over the nonzero integrals ``(n, d)`` and the sums
        meet in one ``Fraction``.
        """
        integrals, new, zero = self._integrals, ~self._admitted, self._zero_mask
        sums: dict[int, int] = {}
        for delta, c in terms:
            key = base + delta
            if key & new:
                self._admit(key)
                new, zero = ~self._admitted, self._zero_mask
            if key & zero:
                continue
            n, d = integrals[key]
            if n:
                sums[d] = sums.get(d, 0) + c * n
        if not sums:
            return _NO_PART
        common = lcm(*sums)
        return Fraction(num * sum(n * (common // d) for d, n in sums.items()), den * common)

    def integrate(self, D) -> Fraction:
        """The integral of a descendent polynomial D (a ``DescPoly``).

        Its coefficients are brought to one denominator and summed by
        :meth:`_sum` over the keys of its monomials.  A monomial whose first
        (lowest) index is negative holds a ``ch_{<0} = 0``.
        """
        den = lcm(*(c.denominator for c in D.terms.values()))
        key = self._packing.key
        terms = [
            (key(mono), c.numerator * (den // c.denominator))
            for mono, c in D.terms.items()
            if not mono or mono[0][0] >= 0
        ]
        return self._sum(0, terms, 1, den)

    # -- operator parts ---------------------------------------------------

    def operator_parts(self, k: int, mono: Monomial) -> tuple[Fraction, Fraction, Fraction]:
        """(integral of R_k D, T_k D, S_k D) for the monomial D, from its packed terms.

        The terms are D's key plus the R_k deltas, plus the T_k pairs, and
        ``D + ch_{k+1}(p)`` plus the R_{-1} deltas, times ``(k+1)!/rank``
        (:class:`~toric_virasoro.descendents.Packing`).  A term skipped for a
        vanishing factor is the kernel's exact 0, with no clearing.
        """
        packing, p = self._packing, (k + 1, "p")
        base, s = packing.key(mono), packing.derivation(-1, mono + (p,))
        return (
            self._sum(base, packing.derivation(k, mono)),
            self._sum(base, packing.pairs(k)),
            self._sum(base + packing[p], s, factorial(k + 1), self.rank),
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
