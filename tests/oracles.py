"""Reference paths over ``Fraction`` Laurent polynomials, kept for the tests.

:class:`LaurentPoly` is the ring of every path here: sparse Laurent
polynomials in ``s, t`` with ``Fraction`` coefficients, read from text by
:func:`parse_laurent` and written by ``render`` and ``render_tex``.  The
package once parsed and printed its charts through it; it now reads and
writes integer characters ``{(a, b): c}`` directly
(``exactalg.parse_character`` and ``exactalg.render_character``), and the
tests require both to agree with this ring.  :func:`linform` is the degree-1
class ``a*s + b*t`` and :func:`homogenize` an integer form at s = 1 as a
polynomial.  A package value, an int or a mapping ``{(a, b): c}``, enters
the ring's operations and comparisons as the polynomial it stands for.

The package clears every cohomological fixed-point sum over the integers at
s = 1, with an ``exactalg.LinearDenominator``: on the surface (descendent
symbols, Chern invariants) and on the moduli space (integrals).  The
functions here are the ``Fraction`` paths it replaced: a
:class:`CommonDenominator` of ``linform`` factors, read at s = 1 by
:func:`dehomogenize` and scaled to the integers by :func:`integer_rows`;
truncated exponential Chern characters, cleared over the surface with the
degree checked on the result.  The tests require the integer paths to agree
with them.

:class:`CommonDenominator` and :func:`exact_div` clear a sum over any one-
or two-term factors with rational monomial units, by lexicographic
division.  They are also the reference for the K-theoretic clearing of
``chi(E, E)``, which the package does over integer characters with an
``exactalg.BinomialDenominator`` (:func:`euler_pairing`, with the K-theory
:func:`dual` that the package no longer needs).
:func:`divide_binomial` and :func:`binomial_clear` are that clearing's
running sums over ``Fraction`` Laurent polynomials, as the package ran
them before it moved to integer characters, and
:func:`binomial_euler_pairing` is ``chi(E, E)`` by them.

:func:`integrate_terms` is the part sum that ``Case._part`` replaced: one
``Fraction`` product and sum per nonzero term.  :func:`operator_parts`
sums it over the ``DescPoly`` operators, the reference for
``Case.operator_parts``.  :func:`operator_terms` and :func:`part` are the
tuple-keyed terms and the per-denominator part sum that the sweep ran
before it moved to packed exponent keys (``descendents.Packing``);
:func:`integrals` reads a case's int-keyed integral memo back under sorted
monomials (:func:`monomial` decodes one key).  :func:`monomial_basis` and
:func:`render_monomial` are the basis (a set, then a sort) and the label
(a keyed sort) as the package built them before.

:func:`is_stable` is the slope comparison read from a built sheaf's flags.
:func:`stability_forms` reads the same comparison as one integer form per
candidate subspace in the divisor basis, straight off the windows, and
:func:`stable_at` tests the signs of those forms at H, candidate by
candidate.  :func:`sign_table_stable` tests a whole stage of such forms
at H on one sign table: one ``v . H`` per distinct form of the stage.
The enumeration instead compiles each model's rows on the nef rays once
(``klyachko.stability_table``, which the tests compare with
:func:`on_nef_rays` of the basis forms) and decides each candidate from
the nef coordinates of H (``enumeration._stable``).

:func:`closed_chern` is the closed-form (c1, c2) of a candidate as the
enumeration first read it: nested per-ray jump lists and per-cone jump
pairs by value (:func:`nested_level_pairs`).  The enumeration now feeds
``klyachko.bundle_chern`` flat jump positions and index triples.

:func:`restriction` is the grid walk that ``TorusSheaf.restriction``
replaced: the second difference of the dimension grid over every cell of
the chart window, one intersection per cell.

:func:`apply_R` and :func:`apply_S` are the ``DescPoly`` derivation that
``descendents.derivation_terms`` replaced: the sweep now reads R_k D and
S_k D as integer terms of one monomial, and the package's ``apply_R`` and
``apply_S`` are the ``Fraction``-linear extension of those terms.

:func:`monomial_bracket_suite` is the commutator suite that
``descendents.bracket_suite`` replaced: it checks each identity on every
restricted monomial of degree <= ``max_degree`` with ``DescPoly`` products,
where the package proves it on generators.  Its operators :func:`apply_Lplus`
and :func:`apply_Splus`, and the paper's :func:`apply_L`, are assembled from
the package's parts, looked up through the module so that a patched part
reaches them.  It counts the same (identity, monomial) pairs.

:class:`FractionSubspace` (with :func:`_rref` and :func:`_nullspace`) and
:func:`solve_divisor_class` are the ``Fraction`` linear algebra that
``klyachko._echelon`` replaced: the rational reduced row echelon form,
intersections from the nullspace of the stacked system, and containment by
a ``Fraction`` reduction.  The tests require each canonical integer row to
be a positive multiple of its RREF row and every subspace operation to
agree; :func:`chern_invariants` here solves for c1 with them.

:func:`higher_windows` and :func:`fa_r2_windows` are the window scans that
the enumeration's generators replaced: every triple of rank-3/4 profiles
filtered by :func:`config_active` and :func:`config_rigid`, and the F_a
adjacent-pair box scanned cell by cell (with the class helpers the
enumeration dropped when it began to solve that box).
They yield ``(model key, tops, windows)`` before the (c1, c2) filter;
:func:`fa_r2_box` yields the F_a scan's models instead, as the
enumeration's generators do, and so does :func:`p2_r2_scan`, the cube scan
of the plane's rank-2 windows that the enumeration now solves for.
:func:`fa_start_box` is the box at which the F_a search once started.

:func:`unpruned_candidates` is the candidate stage before the ample test: every
generated candidate that passes the (c1, c2) filter, stable at some ample H
or not, as a :class:`BasisStage` of its distinct basis forms; in rank 2
the candidates come from the scans.
``enumeration._candidates`` keeps only those stable on an open set of ample
H and records where a dropped one ties; the tests require
``enumeration._stable`` on it to decide as :func:`sign_table_stable` on the
unpruned stage at every ample H.

The oracles read the package's chart restrictions as ``LaurentPoly``
values.  :func:`character` is the
integer character of a Laurent polynomial (refusing a fractional
coefficient), :func:`shift` multiplies one by a monomial, and
:func:`canonical_row_key` is the row key over ``LaurentPoly`` rows as the
package computed it before its rows became integer characters.
:func:`T_element` is the T element summed as a ``DescPoly``, the reference
for ``descendents.T_terms``, which sums it over the integers.
:func:`euler_classes` is the tangent data of a case as products of weight
forms, read only by the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from toric_virasoro import descendents
from toric_virasoro.descendents import DescPoly, NegativeDegreeInput, symbol_degree
from toric_virasoro.exactalg import NotDivisible, _as_rat, convolve
from toric_virasoro.enumeration import (
    _COINCIDENCE_CODIM,
    _flag_dim,
    _jump_positions,
    _level_pairs,
    _model,
    _r2_configs,
    _r3_configs,
    _r4_configs,
    _search,
    _window_profiles,
)
from toric_virasoro.klyachko import (
    Flag,
    SlopeTie,
    Subspace,
    TorusSheaf,
    bundle_chern,
    jump_pairs,
)
from toric_virasoro.surfaces import surface_by_name

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the Fraction Laurent ring that the package parsed and printed charts with


class LaurentPoly:
    """Sparse Laurent polynomial in s, t with Fraction coefficients.

    Immutable by convention: all operations return new instances and never
    mutate ``self.coeffs``.  Zero coefficients are never stored.  An int, a
    ``Fraction`` or a mapping ``{(a, b): c}``, such as a package character,
    takes part in the ring operations and comparisons as the polynomial it
    stands for.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction] | None = None):
        d: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (a, b), c in coeffs.items():
                c = _as_rat(c)
                if c:
                    d[(int(a), int(b))] = c
        self.coeffs = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0, 0): ONE})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(0, 0): _as_rat(c)})

    @staticmethod
    def monomial(a: int, b: int, c=1) -> "LaurentPoly":
        return LaurentPoly({(a, b): _as_rat(c)})

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        if isinstance(other, Mapping):
            return LaurentPoly(other)
        return None

    # -- basic protocol -----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self.coeffs.items())

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            nc = d.get(k, ZERO) + c
            if nc:
                d[k] = nc
            else:
                d.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {k: -c for k, c in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            out = LaurentPoly.__new__(LaurentPoly)
            out.coeffs = {} if not c else {k: v * c for k, v in self.coeffs.items()}
            return out
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        d: dict[tuple[int, int], Fraction] = {}
        for (x1, y1), c1 in a.items():
            for (x2, y2), c2 in b.items():
                k = (x1 + x2, y1 + y2)
                nc = d.get(k, ZERO) + c1 * c2
                if nc:
                    d[k] = nc
                else:
                    d.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.coeffs) != 1:
                raise ValueError("negative powers only for single monomials")
            ((a, b), c), = self.coeffs.items()
            return LaurentPoly.monomial(a * n, b * n, ONE / c ** (-n))
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Human/goldenfile form, e.g. ``-s^2*t + 2*s*t^-1 + 1``.

        Monomials are ordered by complex degree descending, then lexicographic
        descending on (a, b), which matches the bundled reference tables.
        """
        return self._render("{}^{}", "*")

    def render_tex(self) -> str:
        """TeX form of :meth:`render`, e.g. ``-s^{2}t + 2st^{-1} + 1``."""
        return self._render("{}^{{{}}}", "")

    def _render(self, power: str, times: str) -> str:
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs, key=lambda k: (k[0] + k[1], k), reverse=True)
        parts: list[str] = []
        for a, b in keys:
            c = self.coeffs[(a, b)]
            vars_ = [
                var if e == 1 else power.format(var, e) for var, e in (("s", a), ("t", b)) if e
            ]
            body = times.join(vars_)
            if not body:
                mag = str(abs(c))
            elif abs(c) == 1:
                mag = body
            else:
                mag = f"{abs(c)}{times}{body}"
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the ``render`` format (and minor variants) back into a polynomial.

    Accepts optional ``*`` between factors, ``s^-2`` style exponents, and
    rational coefficients like ``3/2``.
    """
    s = text.replace(" ", "")
    if not s or s == "0":
        return LaurentPoly.zero()
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and cur and cur[-1] not in "^+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    out = LaurentPoly.zero()
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = Fraction(sign)
        a = b = 0
        i = 0
        n = len(term)
        num = ""
        while i < n and (term[i].isdigit() or term[i] == "/"):
            num += term[i]
            i += 1
        if num:
            coeff *= Fraction(num)
        while i < n:
            ch = term[i]
            if ch == "*":
                i += 1
                continue
            if ch not in "st":
                raise ValueError(f"cannot parse monomial {term!r} in {text!r}")
            i += 1
            exp = 1
            if i < n and term[i] == "^":
                i += 1
                j = i
                if i < n and term[i] == "-":
                    j += 1
                while j < n and term[j].isdigit():
                    j += 1
                exp = int(term[i:j])
                i = j
            if ch == "s":
                a += exp
            else:
                b += exp
        out = out + LaurentPoly.monomial(a, b, coeff)
    return out


def linform(v: tuple[int, int]) -> LaurentPoly:
    """The degree-1 cohomology class a*s + b*t."""
    return LaurentPoly({(1, 0): Fraction(v[0]), (0, 1): Fraction(v[1])})


def homogenize(coeffs: Iterable[int], deg: int, scale: int) -> LaurentPoly:
    """The form ``coeffs`` (``coeffs[j]`` at ``s^(deg-j) t^j``) as a polynomial, divided by ``scale``."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = {(deg - j, j): Fraction(c, scale) for j, c in enumerate(coeffs) if c}
    return out


# ---------------------------------------------------------------------------
# the Fraction linear algebra that klyachko._echelon replaced


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


class FractionSubspace:
    """A linear subspace of Q^n in canonical (RREF) form; a hashable value."""

    __slots__ = ("rows", "n")

    def __init__(self, n: int, rows: Iterable[Sequence] = ()):
        self.n = n
        self.rows = _rref(
            [[Fraction(x) for x in r] for r in rows if any(Fraction(x) for x in r)]
        )

    @staticmethod
    def zero(n: int) -> "FractionSubspace":
        return FractionSubspace(n, ())

    @staticmethod
    def full(n: int) -> "FractionSubspace":
        return FractionSubspace(n, [[1 if j == i else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def span(n: int, vectors: Iterable[Sequence]) -> "FractionSubspace":
        return FractionSubspace(n, vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionSubspace) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"FractionSubspace({self.n}, {self.rows!r})"

    def __le__(self, other: "FractionSubspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __lt__(self, other: "FractionSubspace") -> bool:
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

    def sum(self, other: "FractionSubspace") -> "FractionSubspace":
        return FractionSubspace(self.n, list(self.rows) + list(other.rows))

    def intersect(self, other: "FractionSubspace") -> "FractionSubspace":
        # rows x of self with x also in other: solve a*A = b*B by stacking
        if self.dim == 0 or other.dim == 0:
            return FractionSubspace.zero(self.n)
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
        return FractionSubspace(self.n, vecs)


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


def solve_divisor_class(surface, dots: Sequence[Fraction]) -> tuple[int, ...]:
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


def exact_div(num: LaurentPoly, div: LaurentPoly) -> LaurentPoly:
    """Divide num by a one- or two-term factor exactly.

    Both inputs may be Laurent.  Factor each as (monomial) * (polynomial with
    componentwise-minimal exponent 0); for such a divisor d (not divisible by
    s or t), a Laurent quotient exists iff an ordinary polynomial quotient
    exists, and lexicographic division finds it with zero remainder.  Any
    monomial that would go to the remainder therefore proves indivisibility,
    so the division aborts there with :class:`NotDivisible`.  A monomial
    divisor (e.g. the weight ``s``) is a Laurent unit and always divides.
    """
    if not div:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return LaurentPoly.zero()
    na = min(a for (a, _b) in num.coeffs)
    nb = min(b for (_a, b) in num.coeffs)
    da = min(a for (a, _b) in div.coeffs)
    db = min(b for (_a, b) in div.coeffs)
    n = shift(num, -na, -nb)
    d = shift(div, -da, -db)
    if len(d) == 1:
        ((ka, kb), dc), = d.coeffs.items()
        return shift(n, na - da - ka, nb - db - kb) * (ONE / dc)
    dk = max(d.coeffs)  # lex-leading key
    dc = d.coeffs[dk]
    rest = {k: c for k, c in d.coeffs.items() if k != dk}
    work = dict(n.coeffs)
    q: dict[tuple[int, int], Fraction] = {}
    while work:
        k = max(work)  # strictly decreases each pass: termination
        qa, qb = k[0] - dk[0], k[1] - dk[1]
        if qa < 0 or qb < 0:
            raise NotDivisible(
                f"{num.render()} not divisible by {div.render()}"
                f" (remainder at s^{k[0] + na}*t^{k[1] + nb})"
            )
        qc = work.pop(k) / dc
        q[(qa, qb)] = q.get((qa, qb), ZERO) + qc
        for (ra, rb), rc in rest.items():
            nk = (qa + ra, qb + rb)
            nc = work.get(nk, ZERO) - qc * rc
            if nc:
                work[nk] = nc
            else:
                work.pop(nk, None)
    return shift(LaurentPoly(q), na - da, nb - db)


def _product(factors: Iterable[LaurentPoly]) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in factors:
        out = out * f
    return out


def _associate(f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Split a nonzero factor as ``f == unit * g``, ``unit`` a rational monomial.

    ``g`` is the canonical associate: coprime integer coefficients, a
    positive lex-leading coefficient and, when ``f`` has two or more terms,
    componentwise-minimal exponent 0.  A one-term factor keeps its monomial
    (``t`` is no unit in cohomology), so ``2*t`` becomes ``t`` with unit 2.
    """
    coeffs = f.coeffs
    if not coeffs:
        raise ZeroDivisionError("zero factor in a denominator")
    a = b = 0
    if len(coeffs) > 1:
        a = min(x for x, _y in coeffs)
        b = min(y for _x, y in coeffs)
    values = coeffs.values()
    c = Fraction(gcd(*(v.numerator for v in values)), lcm(*(v.denominator for v in values)))
    if coeffs[max(coeffs)] < 0:
        c = -c
    return shift(f, -a, -b) * (ONE / c), LaurentPoly.monomial(a, b, c)


class CommonDenominator:
    """The least common denominator of fixed-point sums ``sum_q v_q / e_q``.

    ``dens[q]`` lists the irreducible one- or two-term factors of ``e_q``,
    with repeats.  Factors count up to units: each is replaced by its
    canonical associate (see :func:`_associate`), and the unit, a rational
    times a monomial, stays with its term.  So ``s - t`` and ``t - s``,
    ``t`` and ``2*t``, and ``1 - s`` and ``1 - s^-1`` are one LCM factor
    each.  The instance holds

    * ``factors``: the multiset LCM of the canonical factor lists, in a
      fixed sorted order (never the product of all denominators);
    * ``poly``: their product;
    * ``cofactors``: ``cofactors[q] = poly / e_q``, expanded, units included.

    Then ``sum_q v_q / e_q == numerator(values) / poly`` exactly, and
    :meth:`clear` divides ``poly`` out factor by factor.  A sum over a
    complete fixed locus is a Laurent polynomial, so a :class:`NotDivisible`
    from :meth:`clear` certifies inconsistent fixed-point data.
    """

    __slots__ = ("factors", "poly", "cofactors")

    def __init__(self, dens: Iterable[Iterable[LaurentPoly]]):
        counts, units = [], []
        for d in dens:
            count, unit = Counter(), LaurentPoly.one()
            for f in d:
                g, u = _associate(f)
                count[g] += 1
                unit = unit * u
            counts.append(count)
            units.append(unit)
        lcm_counts: Counter = Counter()
        for c in counts:
            lcm_counts |= c
        order = sorted(lcm_counts, key=lambda f: sorted(f.coeffs.items(), reverse=True))
        self.factors = tuple(f for f in order for _ in range(lcm_counts[f]))
        self.poly = _product(self.factors)
        self.cofactors = [
            _product(f for f in order for _ in range(lcm_counts[f] - c[f])) * unit**-1
            for c, unit in zip(counts, units)
        ]

    def numerator(self, values: Iterable[LaurentPoly]) -> LaurentPoly:
        """``sum_q values[q] * cofactors[q]``; zero values are skipped."""
        num = LaurentPoly.zero()
        for v, co in zip(values, self.cofactors, strict=True):
            if v:
                num = num + v * co
        return num

    def clear(self, values: Iterable[LaurentPoly]) -> LaurentPoly:
        """``sum_q values[q] / e_q`` as a Laurent polynomial, or NotDivisible."""
        num = self.numerator(values)
        for f in self.factors:
            num = exact_div(num, f)
        return num


def shift(p: LaurentPoly, da: int, db: int) -> LaurentPoly:
    """``p`` times the monomial ``s^da t^db``."""
    return LaurentPoly({(a + da, b + db): c for (a, b), c in p.coeffs.items()})


def character(p: LaurentPoly) -> dict[tuple[int, int], int]:
    """The integer character ``{(a, b): c}`` of ``p``; ``ValueError`` unless every c is an integer."""
    if any(c.denominator != 1 for c in p.coeffs.values()):
        raise ValueError(f"{p.render()} has a non-integral coefficient")
    return {key: c.numerator for key, c in p.coeffs.items()}


def canonical_row_key(charts) -> tuple:
    """The row key of ``LaurentPoly`` charts, stable under a global twist.

    Every chart is divided by the lexicographically smallest exponent
    monomial of the first chart, then each chart is flattened to a sorted
    coefficient tuple of ``Fraction`` values.
    """
    first = charts[0]
    if not first.coeffs:
        raise ValueError("empty chart in restriction row")
    a0, b0 = min(first.coeffs)
    return tuple(
        tuple(sorted((a - a0, b - b0, coeff) for (a, b), coeff in chart.coeffs.items()))
        for chart in charts
    )


def dual(p: LaurentPoly) -> LaurentPoly:
    """K-theory dual: s^a t^b -> s^-a t^-b."""
    return LaurentPoly({(-a, -b): c for (a, b), c in p.coeffs.items()})


def _squares(restrictions) -> list[LaurentPoly]:
    """``E_p^dual * E_p`` of every chart, the charts read as Laurent polynomials."""
    return [dual(poly) * poly for poly in map(LaurentPoly, restrictions)]


def euler_pairing(restrictions, surface) -> LaurentPoly:
    """``chi(E, E)`` of the chart restrictions, by a :class:`CommonDenominator` of ``1 - chi^w``."""
    den = CommonDenominator(
        [LaurentPoly.one() - LaurentPoly.monomial(*w) for w in p.duals] for p in surface.points
    )
    return den.clear(_squares(restrictions))


def divide_binomial(num: LaurentPoly, w: tuple[int, int]) -> LaurentPoly:
    """The exact quotient of ``num`` by ``1 - chi^w``, for a primitive ``w``, over ``Fraction``.

    Along every line parallel to ``w`` the coefficients of the quotient are
    the partial sums of those of ``num``; a line that does not sum to zero
    raises :class:`NotDivisible`.
    """
    a, b = w
    step = a * a + b * b
    lines: dict[int, list] = {}
    for (x, y), c in num.coeffs.items():
        lines.setdefault(b * x - a * y, []).append((a * x + b * y, x, y, c))
    out = {}
    for terms in lines.values():
        terms.sort()
        start, x, y, _c = terms[0]
        along = {(dot - start) // step: c for dot, _x, _y, c in terms}
        total = ZERO
        for k in range(max(along) + 1):
            total += along.get(k, ZERO)
            if total:
                out[(x + k * a, y + k * b)] = total
        if total:
            binomial = LaurentPoly.one() - LaurentPoly.monomial(a, b)
            raise NotDivisible(f"{num.render()} is not divisible by {binomial.render()}")
    return LaurentPoly(out)


def binomial_clear(den, values: Iterable[LaurentPoly]) -> LaurentPoly:
    """``sum_q values[q] / e_q`` for a ``BinomialDenominator``, over ``Fraction`` Laurent polynomials.

    The package's integer cofactors are read as Laurent polynomials.
    """
    num = LaurentPoly.zero()
    for v, co in zip(values, den.cofactors, strict=True):
        if v:
            num = num + v * LaurentPoly(co)
    for f in den.forms:
        num = divide_binomial(num, f)
    return num


def binomial_euler_pairing(restrictions, surface) -> LaurentPoly:
    """``chi(E, E)`` by :func:`binomial_clear` over the surface's ``character_denominator``."""
    return binomial_clear(surface.character_denominator, _squares(restrictions))


def integrate_terms(case, terms) -> Fraction:
    """``sum c * integral(mono)`` over ``{mono: c}`` in ``Fraction`` arithmetic, skipping zero integrals.

    Each integral is the package's value of the one monomial.
    """
    total = ZERO
    for mono, c in terms.items():
        value = case.integrate(DescPoly.monomial(mono))
        if value:
            total += c * value
    return total


def operator_parts(case, k: int, mono) -> tuple[Fraction, Fraction, Fraction]:
    """The integrals of R_k D, T_k D and S_k D: :func:`integrate_terms` over the ``DescPoly`` operators."""
    D = DescPoly.monomial(mono)
    surface = case.surface
    parts = (
        apply_R(k, D, surface),
        descendents.apply_T(k, D, surface),
        apply_S(k, D, surface, case.rank),
    )
    return tuple(integrate_terms(case, P.terms) for P in parts)


def operator_terms(k: int, mono, surface, rank: int):
    """R_k D, T_k D and S_k D of one sorted monomial D as tuple-keyed integer terms.

    Returns ``(r, t, s, scale)``, each of ``r, t, s`` a ``{monomial: nonzero
    int}``, with ``S_k D = scale * s`` and ``scale = (k+1)!/rank``: the
    package's :func:`~toric_virasoro.descendents.derivation_terms`, the
    :func:`~toric_virasoro.descendents.T_terms` times D, and R_{-1} of
    ``ch_{k+1}(p) D``.  The sweep read these before it moved to packed keys
    (``descendents.Packing``).
    """
    t = {}
    for (a, b), c in descendents.T_terms(k, surface).items():  # a <= b
        ja, jb = bisect_right(mono, a), bisect_right(mono, b)
        t[mono[:ja] + (a,) + mono[ja:jb] + (b,) + mono[jb:]] = c
    return (
        descendents.derivation_terms(k, mono, surface),
        t,
        descendents.derivation_terms(-1, tuple(sorted((*mono, (k + 1, "p")))), surface),
        Fraction(factorial(k + 1), rank),
    )


def part(case, terms, num: int = 1, den: int = 1) -> Fraction:
    """``num / den * sum c * integral(mono)`` over tuple-keyed ``{mono: c}``, per denominator.

    The part sum that ``Case.operator_parts`` ran on :func:`operator_terms`:
    the integrals ``(n, d)`` in lowest terms, ``c * n`` summed per ``d``,
    zero integrals skipped, one ``Fraction`` at the end.  Every term is
    integrated, one with a vanishing factor too (to the kernel's 0, kept).
    """
    sums: dict[int, int] = {}
    for mono, c in terms.items():
        key = case._packing.key(mono)
        case._admit(key)
        n, d = case._integrals[key]
        if n:
            sums[d] = sums.get(d, 0) + c * n
    common = lcm(*sums)
    return Fraction(num * sum(n * (common // d) for d, n in sums.items()), den * common)


def monomial(packing, key: int) -> tuple:
    """The sorted monomial of a packed key (``descendents.Packing``)."""
    return tuple(sym for sym, m in packing.factors(key) for _ in range(m))


def integrals(case) -> dict:
    """The case's memoized integrals under their sorted monomials, in memo order."""
    return {monomial(case._packing, key): value for key, value in case._integrals.items()}


def monomial_basis(surface, degree: int) -> list:
    """The restricted monomials of a degree, as ``descendents.monomial_basis`` built them.

    Every ordered choice of factors by nondecreasing degree, each sorted,
    deduplicated by a set and sorted at the end.
    """
    if degree < 0:
        return []
    if degree == 0:
        return [()]
    out = []

    def rec(remaining, min_deg, chosen, last):
        if remaining == 0:
            out.append(tuple(sorted(chosen)))
            return
        for d in range(min_deg, remaining + 1):
            for sym in descendents.basis_symbols(surface, d):
                if d == min_deg and last is not None and sym < last:
                    continue
                rec(remaining - d, d, chosen + (sym,), sym)

    rec(degree, 1, (), None)
    return sorted(set(out))


def render_monomial(mono) -> str:
    """``descendents.render_monomial`` as it was: a sort by ``(-index, name)``, then runs."""
    if not mono:
        return "1"
    groups = []
    for sym in sorted(mono, key=lambda s: (-s[0], s[1])):
        if groups and groups[-1][0] == sym:
            groups[-1] = (sym, groups[-1][1] + 1)
        else:
            groups.append((sym, 1))
    parts = []
    for (i, name), mult in groups:
        base = f"ch_{i}({name})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "".join(parts)


def dehomogenize(p: LaurentPoly, deg: int) -> list[Fraction]:
    """The coefficients of ``p`` at ``s = 1``: ``out[j]`` belongs to ``s^(deg-j) t^j``.

    ``p`` must be a polynomial homogeneous of degree ``deg`` (or zero), so
    setting ``s = 1`` loses nothing while ``deg`` is kept; a negative
    exponent or a term of another degree raises :class:`NotDivisible`.
    """
    out = [ZERO] * (deg + 1)
    for (a, b), c in p.coeffs.items():
        if a < 0 or b < 0 or a + b != deg:
            raise NotDivisible(
                f"{p.render()} is not a polynomial homogeneous of degree {deg}"
            )
        out[b] = c
    return out


def integer_rows(rows) -> tuple[int, list[list[int]]]:
    """``(L, [L * row for row in rows])``, ``L`` the least common denominator."""
    rows = [list(row) for row in rows]
    scale = lcm(1, *(c.denominator for row in rows for c in row))
    return scale, [[int(c * scale) for c in row] for row in rows]


def linear_denominator(weights_per_point):
    """``(forms, scale, cofactors, poly)`` of a ``LinearDenominator``, by ``Fraction`` clearing.

    A ``CommonDenominator`` of the linear forms, with its cofactors and LCM
    read at s = 1 and scaled to the integers by one least common denominator.
    """
    weights_per_point = [list(ws) for ws in weights_per_point]
    den = CommonDenominator([linform(w) for w in ws] for ws in weights_per_point)
    n = len(den.factors)
    scale, rows = integer_rows(
        [
            *(dehomogenize(co, n - len(ws)) for co, ws in zip(den.cofactors, weights_per_point)),
            dehomogenize(den.poly, n),
        ]
    )
    forms = tuple((int(f.coeffs.get((1, 0), 0)), int(f.coeffs.get((0, 1), 0))) for f in den.factors)
    return forms, scale, rows[:-1], rows[-1]


def surface_denominator(surface) -> CommonDenominator:
    """The surface's tangent Euler classes as a ``CommonDenominator`` of ``linform`` factors."""
    return CommonDenominator([linform(w) for w in p.tangent_weights] for p in surface.points)


def class_lift(surface, name: str, point) -> LaurentPoly:
    """``Surface.class_lift`` as a polynomial: 1, the divisor's form, or the point's Euler class."""
    if name == "1":
        return LaurentPoly.one()
    if name == "p":
        if point.index != 0:
            return LaurentPoly.zero()
        w1, w2 = surface.points[0].tangent_weights
        return linform(w1) * linform(w2)
    return linform(surface.divisor_lift(name, point))


def degrees(p: LaurentPoly) -> set[int]:
    """Set of complex degrees a+b present."""
    return {a + b for (a, b) in p.coeffs}


def homogeneous_part(p: LaurentPoly, deg: int) -> LaurentPoly:
    return LaurentPoly({k: c for k, c in p.coeffs.items() if k[0] + k[1] == deg})


def is_homogeneous(p: LaurentPoly, deg: int | None = None) -> bool:
    degs = degrees(p)
    if deg is None:
        return len(degs) <= 1
    return degs <= {deg}


def truncate(p: LaurentPoly, max_deg: int) -> LaurentPoly:
    """Drop all monomials of complex degree > max_deg."""
    return LaurentPoly({k: c for k, c in p.coeffs.items() if k[0] + k[1] <= max_deg})


def substitute_st(p: LaurentPoly, sval: Fraction, tval: Fraction) -> Fraction:
    """Evaluate at numeric s, t (used e.g. for rank at s=t=1)."""
    total = ZERO
    for (a, b), c in p.coeffs.items():
        term = c
        term *= sval ** a if a >= 0 else ONE / (sval ** (-a))
        term *= tval ** b if b >= 0 else ONE / (tval ** (-b))
        total += term
    return total


def truncated_exp(a: int, b: int, cap: int) -> LaurentPoly:
    """``exp(a*s + b*t)`` as a cohomology class, truncated above degree cap."""
    return truncated_exp_rat(Fraction(a), Fraction(b), cap)


def truncated_exp_rat(a: Fraction, b: Fraction, cap: int) -> LaurentPoly:
    coeffs: dict[tuple[int, int], Fraction] = {}
    # degree-n part is (a s + b t)^n / n! = sum_i C(n,i) a^i b^(n-i) s^i t^(n-i) / n!
    for n in range(cap + 1):
        fact_n = factorial(n)
        for i in range(n + 1):
            c = (
                Fraction(factorial(n) // (factorial(i) * factorial(n - i)), fact_n)
                * a**i
                * b ** (n - i)
            )
            if c:
                coeffs[(i, n - i)] = coeffs.get((i, n - i), ZERO) + c
    return LaurentPoly({k: c for k, c in coeffs.items() if c})


def char_to_chern(char: LaurentPoly, cap: int) -> LaurentPoly:
    """Chern character of a K-theory class: s^a t^b -> exp(a s + b t), truncated at cap."""
    out = LaurentPoly.zero()
    for (a, b), c in char:
        out = out + truncated_exp(a, b, cap) * c
    return out


def as_constant(p: LaurentPoly) -> Fraction:
    """The value of p, asserting p is literally a constant."""
    for (a, b) in p.coeffs:
        if (a, b) != (0, 0):
            raise ValueError(f"non-constant term s^{a}*t^{b} survives clearing")
    return p.coeffs.get((0, 0), ZERO)


def chern_series(case, q: int, p: int, cap: int) -> LaurentPoly:
    """Truncated ch of -E_p (x) det(E_p)^(-1/r) at moduli point q."""
    poly = LaurentPoly(case.restrictions[q][p])
    A = B = ZERO
    for (a, b), c in poly:
        A += c * a
        B += c * b
    r = case.rank
    series = LaurentPoly.zero()
    for (a, b), c in poly:
        series = series + truncated_exp_rat(Fraction(a) - A / r, Fraction(b) - B / r, cap) * (-c)
    return series


def euler_classes(case) -> list[LaurentPoly]:
    """The tangent Euler classes of a case, one per fixed point: products of weight forms.

    The readable tangent data that ``Case.euler_classes`` gave before it left
    the package; the package clears by ``Case.tangent_denominator``.
    """
    out = []
    for tangent in case.tangents():
        value = LaurentPoly.one()
        for w, c in tangent.items():
            value = value * linform(w) ** c
        out.append(value)
    return out


def realize_symbol(case, i: int, name: str) -> tuple[LaurentPoly, ...]:
    """Per-moduli-point value of ch_i(gamma), summed and cleared over ``Fraction``s."""
    if i < 0:
        return tuple(LaurentPoly.zero() for _ in range(case.n_points))
    surface = case.surface
    sdeg = symbol_degree((i, name), surface)
    lifts = [class_lift(surface, name, p) for p in surface.points]
    den = surface_denominator(surface)
    zero = LaurentPoly.zero()
    values = []
    for q in range(case.n_points):
        # points where the class lift vanishes contribute nothing
        nums = [
            lift * homogeneous_part(chern_series(case, q, pidx, i), i) if lift else zero
            for pidx, lift in enumerate(lifts)
        ]
        value = den.clear(nums)
        if value and not is_homogeneous(value, sdeg):
            raise NotDivisible(
                f"realized ch_{i}({name}) at point {q} is not homogeneous"
                f" of degree {sdeg}: {value.render()}"
            )
        values.append(value)
    return tuple(values)


def integer_symbol(case, sym) -> tuple[int, list[list[int]], list[int]]:
    """``(S, rows, norms)`` of :func:`realize_symbol` at s = 1, scaled by S to ZZ."""
    sdeg = symbol_degree(sym, case.surface)
    scale, rows = integer_rows(dehomogenize(v, sdeg) for v in realize_symbol(case, *sym))
    return scale, rows, [sum(map(abs, row)) for row in rows]


def surface_integral(surface, numerators) -> Fraction:
    """Sum num_p / e(T_p) over fixed points; numerators truncated at degree 2."""
    return as_constant(surface_denominator(surface).clear([truncate(num, 2) for num in numerators]))


def chern_invariants(sheaf) -> tuple[int, tuple[int, ...], int]:
    """(rank, c1 in the divisor basis, c2) by ``Fraction`` localization."""
    S = sheaf.surface
    restr = [restriction(sheaf, p) for p in S.points]
    ranks = {substitute_st(r, ONE, ONE) for r in restr}
    if len(ranks) != 1:
        raise ValueError(f"inconsistent ranks at fixed points: {ranks}")
    rank = next(iter(ranks))
    if rank.denominator != 1:
        raise ValueError(f"non-integral rank {rank}")
    chern = [char_to_chern(r, 2) for r in restr]
    dots = [
        surface_integral(
            S, [homogeneous_part(ch, 1) * class_lift(S, name, p) for ch, p in zip(chern, S.points)]
        )
        for name in S.divisor_names
    ]
    c1 = solve_divisor_class(S, dots)
    ch2 = surface_integral(S, [homogeneous_part(ch, 2) for ch in chern])
    c2 = Fraction(S.pair(c1, c1), 2) - ch2
    if c2.denominator != 1:
        raise ValueError(f"non-integral c2 = {c2}")
    return int(rank), c1, int(c2)


def integer_surface_integral(surface, x: str, y: str) -> Fraction:
    """The integral of the product of two basis classes, by the surface's ``tangent_denominator``.

    A product of degree d clears to a polynomial of degree d - 2; its value
    at the origin is the integral, which is 0 unless d = 2.
    """
    deg = surface.class_degree(x) + surface.class_degree(y)
    rows = []
    for p in surface.points:
        fx, fy = surface.class_lift(x, p), surface.class_lift(y, p)
        rows.append(convolve(fx, fy) if fx and fy else None)
    den = surface.tangent_denominator
    cleared = den.clear(rows, deg - 2)
    return Fraction(cleared[0], den.scale) if deg == 2 else ZERO


def restriction(sheaf, point) -> LaurentPoly:
    """K-class at the fixed point: second difference of the dim grid over the chart window."""
    r1, r2 = sheaf.chart_window(point)
    dims: dict[tuple[int, int], int] = {}

    def d(n1: int, n2: int) -> int:
        if (n1, n2) not in dims:
            dims[(n1, n2)] = sheaf.family_value(point, n1, n2).dim
        return dims[(n1, n2)]

    out = LaurentPoly.zero()
    for n1 in r1:
        for n2 in r2:
            c = d(n1, n2) - d(n1 - 1, n2) - d(n1, n2 - 1) + d(n1 - 1, n2 - 1)
            if c:
                out = out + LaurentPoly.monomial(*point.char_from_pair(n1, n2), c)
    return out


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
        deg = sheaf.surface.pair(sheaf.surface.ray_classes[i], polarization)
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

    This is the reference definition: the enumeration decides stability on
    a sign table of the window-level stability forms, and the tests check
    that the verdicts agree.
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
    surface,
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
    """Strict slope stability at H from the stability forms: sign tests in H.

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


def on_nef_rays(surface, forms: Iterable[tuple[int, ...]]) -> list[tuple[int, int]]:
    """``(v . rho1, v . rho2)`` of each basis form v over the nef rays; 0 for the plane's
    missing second ray."""
    rays = surface.nef_rays
    return [tuple([*(sum(map(mul, v, ray)) for ray in rays), 0][:2]) for v in forms]


class BasisCandidate(NamedTuple):
    """One candidate of :func:`unpruned_candidates`: its distinct stability forms in the divisor
    basis, and their indices in the stage's :attr:`BasisStage.forms`."""

    key: tuple
    tops: tuple
    windows: tuple
    forms: tuple[tuple[int, ...], ...]
    form_ids: tuple[int, ...]


class BasisStage(NamedTuple):
    """A candidate stage with the distinct basis forms of all its candidates."""

    candidates: tuple[BasisCandidate, ...]
    forms: tuple[tuple[int, ...], ...]


def sign_table_stable(stage: BasisStage, H: tuple) -> list[BasisCandidate]:
    """The candidates of a stage that are stable at H, in order, from one sign table.

    ``v . H`` is computed once per distinct form; a candidate's verdict is
    the largest sign among its forms.  The first candidate whose largest
    value is 0 raises SlopeTie.
    """
    signs = [sum(map(mul, v, H)) for v in stage.forms]
    stable = []
    for cand in stage.candidates:
        top = max(map(signs.__getitem__, cand.form_ids), default=-1)
        if top == 0:
            raise SlopeTie(f"polarization {H} is on a wall for this sheaf")
        if top < 0:
            stable.append(cand)
    return stable


def nested_level_pairs(surface, model) -> list[list[tuple[int, int, int]]]:
    """Per cone, the ``(l, m, mu)`` jump pairs of the model's level flags (space l at l)."""
    rank = model.rank
    flags = [
        Flag(rank, (*((l, model.space(i, l)) for l in range(1, rank)), (rank, Subspace.full(rank))))
        for i in range(len(surface.rays))
    ]
    return [jump_pairs(flags[i], flags[j]) for i, j in surface.cones]


def closed_chern(surface, model, tops, windows) -> tuple[tuple[int, ...], int]:
    """(c1, c2) of the bundle of a model, tops and windows, from nested jump and pair lists."""
    rank = model.rank
    pos = []
    for top, wins in zip(tops, windows):
        row = [top] * rank
        for lvl in range(rank - 1, 0, -1):
            row[lvl - 1] = row[lvl] - wins[lvl - 1]
        pos.append(row)
    jumps = [[(x, 1) for x in row] for row in pos]
    pairs = [
        [(pos[i][l - 1], pos[j][m - 1], mu) for l, m, mu in cone_levels]
        for (i, j), cone_levels in zip(surface.cones, nested_level_pairs(surface, model))
    ]
    lin = [sum(r * p for p, r in ray) for ray in jumps]
    c1 = tuple(-sum(map(mul, lin, col)) for col in zip(*surface.ray_classes))
    two_ch2 = 2 * sum(mu * p * q for cone in pairs for p, q, mu in cone) + sum(
        square * r * p * p for square, ray in zip(surface.ray_squares, jumps) for p, r in ray
    )
    two_c2 = surface.pair(c1, c1) - two_ch2
    assert two_c2 % 2 == 0, two_c2
    return c1, two_c2 // 2


def apply_R(k: int, D: DescPoly, surface, plus: bool = False) -> DescPoly:
    """The derivation ``R_k ch_i(gamma) = prod_{j=0..k} (i + j + deg(gamma) - 2) ch_{i+k}(gamma)``.

    plus=True is the h-basis variant R+_k, which differs only at ``k = -1``
    on degree-0 symbols (it kills them) and refuses negative-degree symbols.
    """
    if k < -1:
        raise ValueError("R_k is defined for k >= -1")
    if plus and any(symbol_degree(sym, surface) < 0 for mono in D.terms for sym in mono):
        raise NegativeDegreeInput("negative-degree symbol")
    out = DescPoly.zero()
    for mono, c in D.terms.items():
        # derivation: hit each distinct factor once, weighted by multiplicity
        seen: set = set()
        for idx, sym in enumerate(mono):
            if sym in seen:
                continue
            seen.add(sym)
            mult = mono.count(sym)
            i, name = sym
            if i + k < 0:
                continue
            sdeg = symbol_degree(sym, surface)
            f = 0 if (plus and k == -1 and sdeg == 0) else prod(range(sdeg, sdeg + k + 1))
            if not f:
                continue
            rest = mono[:idx] + mono[idx + 1 :]
            new = tuple(sorted(rest + ((i + k, name),)))
            out += DescPoly.monomial(new, c * mult * f)
    return out


def apply_S(k: int, D: DescPoly, surface, r: int, plus: bool = False) -> DescPoly:
    """S_k D = (k+1)!/r * R_{-1}(ch_{k+1}(p) * D) (plus=True: S+_k, through R+_{-1})."""
    inner = DescPoly.symbol(k + 1, "p") * D
    return apply_R(-1, inner, surface, plus) * Fraction(factorial(k + 1), r)


def T_element(k: int, surface) -> DescPoly:
    """The element whose multiplication is T_k (two-sum form), summed as a ``DescPoly``.

    First sum: over Kunneth components ``gl (x) gr`` of the diagonal
    pushforward of 1, the term
    ``-(-1)^((dl+1)(dr+1)) (a+dl-2)! (b+dr-2)! ch_a(gl) ch_b(gr)`` summed
    over ``a + b = k + 2`` (factorials of negative numbers are zero).
    Second sum: ``chi(O) * sum_{a+b=k} a! b! ch_a(p) ch_b(p)``.
    """
    if k < -1:
        raise ValueError("T_k is defined for k >= -1")
    out = DescPoly.zero()
    for gl, gr, kc in surface.kunneth:
        dl = surface.class_degree(gl)
        dr = surface.class_degree(gr)
        sign = -((-1) ** ((dl + 1) * (dr + 1)))
        for a in range(k + 3):
            b = k + 2 - a
            fa, fb = a + dl - 2, b + dr - 2
            if fa < 0 or fb < 0:
                continue
            c = Fraction(sign * kc * factorial(fa) * factorial(fb))
            out += DescPoly.monomial(tuple(sorted(((a, gl), (b, gr)))), c)
    chi = descendents.structure_sheaf_euler(surface)
    for a in range(k + 1):
        b = k - a
        c = Fraction(chi * factorial(a) * factorial(b))
        out += DescPoly.monomial(tuple(sorted(((a, "p"), (b, "p")))), c)
    return out


def apply_L(k: int, D: DescPoly, surface, r: int) -> DescPoly:
    """The paper's operator L_k = R_k + T_k + S_k."""
    return (
        descendents.apply_R(k, D, surface)
        + descendents.apply_T(k, D, surface)
        + descendents.apply_S(k, D, surface, r)
    )


def apply_Lplus(k: int, D: DescPoly, surface) -> DescPoly:
    """L+_k = R+_k + T+_k (rank-independent; no S part)."""
    plus = descendents.apply_R(k, D, surface, plus=True)
    return plus + descendents.Tplus_element(k, surface) * D


def apply_Splus(k: int, D: DescPoly, surface, r: int) -> DescPoly:
    """S+_k D = (k+1)!/r * R+_{-1}(ch_{k+1}(p) * D), through the package's R+_{-1}.

    The h-basis derivation kills degree-0 factors, so that the bracket
    ``[L+_{-1}, S+_k] = (k+1) S+_{k-1}`` closes symbolically; S_k differs
    from it only by ch_1(gamma)-terms.
    """
    inner = DescPoly.symbol(k + 1, "p") * D
    return descendents.apply_R(-1, inner, surface, plus=True) * Fraction(factorial(k + 1), r)


def monomial_bracket_suite(surface, max_k: int, max_degree: int) -> int:
    """The commutator identities of ``descendents.bracket_suite``, monomial by monomial.

    S+ carries 1/r on both sides of its identity; the suite uses r = 2.
    Returns the number of (identity, monomial) pairs checked and raises
    ``descendents.BracketMismatch`` on the first failure.
    """

    def check(lhs: DescPoly, rhs: DescPoly, what: str, mono) -> None:
        if lhs != rhs:
            raise descendents.BracketMismatch(f"{what} fails on {descendents.render_monomial(mono)}")

    monos = [m for d in range(max_degree + 1) for m in descendents.monomial_basis(surface, d)]
    checked = 0
    for mono in monos:
        D = DescPoly.monomial(mono)
        lk = {k: apply_Lplus(k, D, surface) for k in range(-1, max(2 * max_k, -1) + 1)}
        for k in range(-1, max_k + 1):
            for m in range(k, max_k + 1):
                lhs = apply_Lplus(k, lk[m], surface) - apply_Lplus(m, lk[k], surface)
                rhs = DescPoly.zero() if m == k else lk[k + m] * (m - k)
                check(lhs, rhs, f"[L+_{k}, L+_{m}]", mono)
                checked += 1
        for n in range(-1, max_k + 1):
            for j in range(1, max_k + 1):
                h = descendents.h_poly(j, "p", surface)
                lhs = apply_Lplus(n, h * D, surface) - h * lk[n]
                rhs = descendents.h_poly(n + j, "p", surface) * D * j
                check(lhs, rhs, f"[L+_{n}, h_{j}(p)]", mono)
                checked += 1
        for j in range(0, max_k + 1):
            s_then_l = apply_Lplus(-1, apply_Splus(j, D, surface, 2), surface)
            l_then_s = apply_Splus(j, lk[-1], surface, 2)
            rhs = apply_Splus(j - 1, D, surface, 2) * (j + 1)
            check(s_then_l - l_then_s, rhs, f"[L+_-1, S+_{j}]", mono)
            checked += 1
    return checked


def config_active(rank: int, cfg: tuple, wins: tuple) -> bool:
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


def config_rigid(rank: int, cfg: tuple, wins: tuple) -> bool:
    """Keep configurations whose flag data is rigid modulo GL(rank).

    An isolated stable fixed point needs stabiliser-free rigid flag data:
    total flag-variety dimension minus coincidence codimension must equal
    dim PGL(rank).  Smaller means extra automorphisms (never stable), larger
    means positive-dimensional families (never isolated).
    """
    total = sum(_flag_dim(rank, w) for w in wins)
    return total - _COINCIDENCE_CODIM[cfg[0]] == rank * rank - 1


def higher_windows(rank: int, c1: tuple, P: int):
    """The rank-3/4 scan on the plane: every triple of profiles of sum at most ``P``."""
    d = c1[0]
    profiles = _window_profiles(rank, P)
    for cfg in _r3_configs() if rank == 3 else _r4_configs():
        for w1 in profiles:
            for w2 in profiles:
                for w3 in profiles:
                    wins = (w1, w2, w3)
                    if not config_active(rank, cfg, wins):
                        continue
                    if not config_rigid(rank, cfg, wins):
                        continue
                    tot = sum(lvl * wins[i][lvl - 1] for i in range(3) for lvl in range(1, rank))
                    if (tot - d) % rank:
                        continue
                    tops = ((tot - d) // rank, 0, 0)
                    yield (f"r{rank}", *cfg), tops, wins


def _pool_assignment(classes: tuple, deltas: tuple) -> bool:
    """A class assignment is meaningful only if coincident rays have lines."""
    pair = _coincident_pair(classes)
    return pair is None or all(deltas[k] > 0 for k in pair)


def _coincident_pair(classes: tuple):
    for i, j in combinations(range(len(classes)), 2):
        if classes[i] == classes[j]:
            return (i, j)
    return None


def _adjacent(surface, pair: tuple) -> bool:
    return tuple(sorted(pair)) in {tuple(sorted(c)) for c in surface.cones}


def _config_opposite_or_generic(surface, classes: tuple) -> bool:
    pair = _coincident_pair(classes)
    return pair is None or not _adjacent(surface, pair)


def fa_r2_windows(surface, c1: tuple, c2: int, B: int):
    """The rank-2 scan on F_a: the divisor loop, then the adjacent-pair box cell by cell (every
    pair window in ``1..B`` and other odd window in ``0..B``)."""
    a = int(surface.name[1:])
    f, z = c1
    K = 4 * c2 - surface.pair(c1, c1)
    if K <= 0:
        return

    def candidate(deltas, classes):
        d1, d2, d3, d4 = deltas
        p = d1 + a * d2 + d3
        q = d2 + d4
        if q < 1 or (p - f) % 2 or (q - z) % 2 or not _pool_assignment(classes, deltas):
            return []
        tops = ((p - f) // 2, 0, 0, (q - z) // 2)
        return [(("r2", classes), tops, tuple((x,) for x in deltas))]

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
                for classes in zero_corr:
                    yield from candidate((d1, d2, u - d1, d4), classes)
    for classes in _r2_configs(4):
        pair = _coincident_pair(classes)
        if pair is None or not _adjacent(surface, pair):
            continue
        # one ray of the pair is odd: q = its window + dk, and the other even
        # window is solved from q*m = K + 4*di*dj
        i, j = pair
        odd, even = (i, j) if i % 2 else (j, i)
        for di in range(1, B + 1):
            for dj in range(1, B + 1):
                num = K + 4 * di * dj
                d_odd, d_even = (di, dj) if odd == i else (dj, di)
                for dk in range(B + 1):
                    q = d_odd + dk
                    if num % q:
                        continue
                    d1, d3 = (d_odd, dk) if odd == 1 else (dk, d_odd)
                    u2 = num // q - a * (d3 - d1)
                    if u2 < 0 or u2 % 2 or u2 // 2 < d_even:
                        continue
                    deltas = [0] * 4
                    deltas[i], deltas[j], deltas[4 - odd] = di, dj, dk
                    deltas[2 - even] = u2 // 2 - d_even
                    yield from candidate(tuple(deltas), classes)


def fa_r2_box(surface, rank: int, c1: tuple, c2: int, B: int):
    """:func:`fa_r2_windows` shaped as the enumeration's generators: models, not model keys."""
    for key, tops, windows in fa_r2_windows(surface, c1, c2, B):
        yield _model(key), tops, windows


def fa_start_box(surface, c1: tuple, c2: int) -> int:
    """``2K + 2a + 8`` (K = 4c2 - c1^2): the side of the adjacent-pair box at which the F_a
    rank-2 search once started, and at which the tests' stage pins were recorded.  It lies
    above the bounds that the enumeration's solve proves for every K only while a <= 6."""
    return 2 * (4 * c2 - surface.pair(c1, c1)) + 2 * int(surface.name[1:]) + 8


def p2_r2_scan(surface, rank: int, c1: tuple, c2: int):
    """The rank-2 scan on the plane: every window triple in ``1..K`` that solves the quadratic
    equation, shaped as the enumeration's generators."""
    model = _model(("r2", (0, 1, 2)))
    d = c1[0]
    K = 4 * c2 - d * d
    for x in range(1, K + 1):
        for y in range(1, K + 1):
            for z in range(1, K + 1):
                total = x + y + z
                if (total - d) % 2 or total * total - 2 * (x * x + y * y + z * z) != K:
                    continue
                yield model, ((total - d) // 2, 0, 0), ((x,), (y,), (z,))


@lru_cache(maxsize=None)
def unpruned_candidates(surface_name: str, rank: int, c1: tuple, c2: int, *P: int) -> BasisStage:
    """Every candidate of the window search that passes (c1, c2), in search order; for rank 2
    the scans :func:`p2_r2_scan` and :func:`fa_r2_box` (at :func:`fa_start_box`), not the
    enumeration's solves, and for ranks 3 and 4 the enumeration's generator at ``P``."""
    surface = surface_by_name(surface_name)
    if rank == 2 and surface.picard_rank == 2:
        generated = fa_r2_box(surface, rank, c1, c2, fa_start_box(surface, c1, c2))
    elif rank == 2:
        generated = p2_r2_scan(surface, rank, c1, c2)
    else:
        generated = _search(surface, rank)(surface, rank, c1, c2, *P)
    out = []
    form_id: dict[tuple, int] = {}  # distinct forms, in order of first appearance
    pairs: dict[tuple, tuple] = {}  # level pairs per model
    for model, tops, windows in generated:
        if model.key not in pairs:
            pairs[model.key] = _level_pairs(surface, model)
        jumps = _jump_positions(tops, windows, rank)
        if bundle_chern(surface, jumps, pairs[model.key]) != (c1, c2):
            continue
        forms = tuple(dict.fromkeys(stability_forms(surface, rank, windows, model.candidates)))
        ids = tuple(form_id.setdefault(v, len(form_id)) for v in forms)
        out.append(BasisCandidate(model.key, tops, windows, forms, ids))
    return BasisStage(tuple(out), tuple(form_id))
