"""Exact sparse Laurent-polynomial arithmetic in two variables.

The two variables are called ``s`` and ``t`` throughout.  A polynomial is a
sparse mapping ``(a, b) -> Fraction`` meaning ``sum c * s^a * t^b`` with
integer (possibly negative) exponents.  The same type serves two roles:

* **K-theory characters**: exponents are torus weights, e.g. ``s + s*t^-1``.
* **Cohomology classes**: ``s`` and ``t`` are the two degree-1 equivariant
  generators of a fixed-point chart, so a monomial ``s^a t^b`` has complex
  degree ``a + b`` (and only ``a, b >= 0`` occurs).

Every number the package certifies is a torus-localization sum
``sum_q v_q / e_q`` that must clear exactly to a Laurent polynomial.
:class:`CommonDenominator` is the one routine that clears such sums: it
forms the multiset LCM of the denominators' irreducible factors (never
their product) and the cofactors ``LCM / e_q``, and :func:`exact_div`
divides the LCM out one factor at a time, raising :class:`NotDivisible`
when a quotient does not exist.  Denominator factors count only up to
units (a rational times a monomial): each is replaced by one canonical
associate, and the unit stays with its term inside the cofactor, so
``s - t`` and ``t - s`` share one LCM factor.

Fixed-point sums of cohomology classes are homogeneous, so they are kept at
``s = 1`` as integer coefficient lists (:func:`dehomogenize`,
:func:`integer_rows`).  A surface sum is cleared there over the integers:
:func:`divide_linear` divides by one canonical linear factor by a
recurrence that refuses any remainder (a factor is primitive, so by Gauss's
lemma an integer quotient exists exactly when a rational one does).  The
integration kernel multiplies such lists by Kronecker substitution:
:func:`pack` evaluates a list at ``t = 2^W``, one bigint product stands for
a polynomial product, and :func:`unpack` reads the signed ``W``-bit slots
back.  Decoding is exact when every coefficient of
the result is below ``2^(W-1)`` in absolute value, which the caller ensures
by choosing ``W`` above an l1 bound (``||f||_1`` is the sum of the absolute
coefficients): every coefficient of ``f g`` is at most ``||f||_1 ||g||_1``
in absolute value, and norms of sums add.  There is no floating point
anywhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NotDivisible(ArithmeticError):
    """Raised when an exact division has a nonzero remainder.

    In the localization engine this is a *certificate of error*: integrands
    summed over all fixed points must clear every denominator factor, so a
    remainder means a fixed point is missing or a weight is wrong.
    """


def _as_rat(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial in s, t with Fraction coefficients.

    Immutable by convention: all operations return new instances and never
    mutate ``self.coeffs``.  Zero coefficients are never stored.
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

    # -- basic protocol -----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self.coeffs.items())

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
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
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
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
        if not isinstance(other, LaurentPoly):
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

    # -- structure ------------------------------------------------------

    def integer_terms(self) -> list[tuple[int, int, int]]:
        """The terms ``c * s^a t^b`` as ``(a, b, c)``; ValueError unless each c is an integer."""
        if any(c.denominator != 1 for c in self.coeffs.values()):
            raise ValueError(f"{self.render()} has a non-integral coefficient")
        return [(a, b, c.numerator) for (a, b), c in self.coeffs.items()]

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0, 0), ZERO)

    def coeff(self, a: int, b: int) -> Fraction:
        return self.coeffs.get((a, b), ZERO)

    def dual(self) -> "LaurentPoly":
        """K-theory dual: s^a t^b -> s^-a t^-b."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {(-a, -b): c for (a, b), c in self.coeffs.items()}
        return out

    def shift(self, da: int, db: int) -> "LaurentPoly":
        """Multiply by the monomial s^da t^db."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {(a + da, b + db): c for (a, b), c in self.coeffs.items()}
        return out

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


# ---------------------------------------------------------------------------
# exact division and common denominators
# ---------------------------------------------------------------------------


def linform(v: tuple[int, int]) -> LaurentPoly:
    """The degree-1 cohomology class a*s + b*t."""
    return LaurentPoly({(1, 0): Fraction(v[0]), (0, 1): Fraction(v[1])})


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
    n = num.shift(-na, -nb)
    d = div.shift(-da, -db)
    if len(d) == 1:
        ((ka, kb), dc), = d.coeffs.items()
        return n.shift(-ka, -kb).shift(na - da, nb - db) * (ONE / dc)
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
    return LaurentPoly(q).shift(na - da, nb - db)


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
    return f.shift(-a, -b) * (ONE / c), LaurentPoly.monomial(a, b, c)


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


# ---------------------------------------------------------------------------
# homogeneous polynomials over the integers, Kronecker-packed
# ---------------------------------------------------------------------------


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


def homogenize(coeffs: Iterable[int], deg: int, scale: int) -> LaurentPoly:
    """Inverse of :func:`dehomogenize`, with every coefficient divided by ``scale``."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = {(deg - j, j): Fraction(c, scale) for j, c in enumerate(coeffs) if c}
    return out


def integer_rows(rows: Iterable[Iterable[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(L, [L * row for row in rows])``, ``L`` the least common denominator."""
    rows = [list(row) for row in rows]
    scale = lcm(1, *(c.denominator for row in rows for c in row))
    return scale, [[int(c * scale) for c in row] for row in rows]


def convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two coefficient lists: the product of the polynomials at s = 1."""
    out = [0] * (len(f) + len(g) - 1)
    for j, x in enumerate(f):
        if x:
            for k, y in enumerate(g):
                out[j + k] += x * y
    return out


def power_sum(terms: Sequence[tuple[int, int, int]], i: int) -> list[int]:
    """``sum c * (a*s + b*t)^i`` over the terms ``(a, b, c)``, at s = 1."""
    return [comb(i, j) * sum(c * a ** (i - j) * b**j for a, b, c in terms) for j in range(i + 1)]


def divide_linear(coeffs: Sequence[int], a: int, b: int) -> list[int]:
    """The exact quotient of a homogeneous form by ``a*s + b*t``, both at s = 1.

    ``coeffs[j]`` belongs to ``s^(d-j) t^j`` (``d + 1 >= 1`` entries); the
    quotient ``q`` has ``d`` of them, with ``coeffs[j] = a*q[j] + b*q[j-1]``.
    The recurrence solves for ``q`` from the ``s`` end (the ``t`` end when
    ``a = 0``), and the last equation is the check that nothing is left
    over.  A remainder at either step raises :class:`NotDivisible`.  For a
    primitive form (coprime ``a, b``), such as a canonical factor, a
    rational quotient is integral by Gauss's lemma, so a step that does not
    divide over ZZ proves that no quotient exists.
    """
    if not a:
        if not b:
            raise ZeroDivisionError("division by the zero form")
        return divide_linear(coeffs[::-1], b, a)[::-1]
    quotient, prev = [], 0
    for c in coeffs[:-1]:
        prev, rem = divmod(c - b * prev, a)
        if rem:
            raise NotDivisible(f"{list(coeffs)} is not divisible by {linform((a, b)).render()}")
        quotient.append(prev)
    if coeffs[-1] != b * prev:
        raise NotDivisible(f"{list(coeffs)} leaves a remainder by {linform((a, b)).render()}")
    return quotient


def pack(coeffs: Sequence[int], width: int) -> int:
    """Kronecker substitution: ``sum_j coeffs[j] * 2^(width * j)``.

    Substituting ``t = 2^width`` is a ring map, so the packed value of a
    product or sum of polynomials is the product or sum of packed values;
    one bigint multiplication replaces a polynomial product.
    """
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def unpack(value: int, width: int, count: int) -> list[int]:
    """The ``count`` signed ``width``-bit slots of a packed polynomial.

    Exact when every coefficient is below ``2^(width-1)`` in absolute value
    (the l1 bound in the module docstring ensures it).  A value left over
    after ``count`` slots means the nominal degree was wrong; it raises
    ``OverflowError``.
    """
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(count):
        c = value & mask
        if c >= half:
            c -= 1 << width
        out.append(c)
        value = (value - c) >> width
    if value:
        raise OverflowError(f"packed value carries past slot {count}")
    return out
