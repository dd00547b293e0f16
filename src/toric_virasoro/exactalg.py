"""Exact arithmetic in two variables ``s, t``: integer characters and integer forms.

* **K-theory characters** are integer exponent dicts (:data:`Character`),
  ``{(a, b): c}`` meaning ``sum c * s^a * t^b``; the exponents are torus
  weights, e.g. ``s + s*t^-1``.  The chart restrictions are such dicts.
  :func:`parse_character` reads one from its text, e.g. a recorded chart,
  and :func:`render_character` writes it back, plain or in TeX.
* **Cohomology classes** are homogeneous polynomials in the degree-1
  generators ``s, t`` of a fixed-point chart, kept at ``s = 1`` as integer
  coefficient lists: ``f[j]`` belongs to ``s^(d-j) t^j`` in degree ``d``.

Every number the package certifies is a torus-localization sum
``sum_q v_q / e_q`` that must clear exactly.  Its common denominator is the
multiset LCM of the denominators' irreducible factors (never their
product), with the cofactors ``LCM / e_q``.  Each factor is named by an
integer weight ``w``: the linear form ``a*s + b*t`` in cohomology, the
binomial ``1 - chi^w`` in K-theory.  Factors count only up to units: each
weight is split as a unit times its canonical primitive form
(:func:`_primitive`), and the unit stays with its term inside the
cofactor, so ``s - t`` and ``t - s``, or ``1 - chi^w`` and ``1 - chi^-w``,
share one LCM factor.  One LCM rule (:func:`_lcm`) serves two types:

* :class:`LinearDenominator`, over integer forms, for ``e_q`` products of
  linear forms: the cofactors and the LCM share one integer scale, and a
  sum is cleared by one packed division
  (:meth:`~LinearDenominator.certify`): the numerator at ``t = 2^W`` is
  divided by the LCM at ``t = 2^W``; a nonzero remainder refuses it, and
  after a zero one the unpacked quotient ``Q`` is accepted only when
  ``||Q||_1 * ||LCM||_1`` and the numerator's bound are below ``2^(W-1)``,
  which makes ``Q * LCM`` equal to the numerator coefficient by
  coefficient (else W doubles, up to an a priori bound on the quotient).
  By Gauss's lemma an integer quotient exists exactly when a rational one
  does.  A refused sum goes to :func:`divide_linear`, a recurrence that
  divides by one canonical form at a time, to name the form that does not
  divide in the :class:`NotDivisible` message;
* :class:`BinomialDenominator`, over integer characters, for ``e_q``
  products of binomials ``1 - chi^w`` with primitive ``w`` (a surface's
  chart characters): the units are signed monomials, so the cofactors are
  integer characters, and :func:`divide_binomial` divides by one binomial
  as a running sum along the lines parallel to ``w``.

Both raise :class:`NotDivisible` when a quotient does not exist.  The
clearing and the integration kernel multiply integer forms by Kronecker
substitution: :func:`pack` evaluates a list at ``t = 2^W``, one bigint
product stands for a polynomial product, and :func:`unpack` reads the
signed ``W``-bit slots back.  Decoding is exact when every coefficient of
the result is below ``2^(W-1)`` in absolute value, which the caller
ensures by choosing ``W`` above an l1 bound (:func:`slot_width`;
``||f||_1`` is the sum of the absolute coefficients): every coefficient of
``f g`` is at most ``||f||_1 ||g||_1`` in absolute value, and norms of
sums add.  There is no floating point anywhere.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence

Rat = Fraction
# an integer character sum c * chi^(a, b), as {(a, b): c}
Character = dict[tuple[int, int], int]


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


_SPLIT = re.compile(r"(?<=[^-+*/^])(?=[-+])")  # before a sign that starts a term
_TERM = re.compile(r"([-+]*)(?:(\d+)(?:/(\d+))?)?\*?((?:[st](?:\^-?\d+)?\*?)*)")
_FACTOR = re.compile(r"([st])(?:\^(-?\d+))?")


def parse_character(text: str) -> Character:
    """The integer character written in the :func:`render_character` format.

    Terms such as ``-3*s^2*t^-1`` may leave out the ``*`` and put ``s`` and
    ``t`` in either order; like terms are summed, and ``"0"`` is the empty
    character.  A coefficient that is no integer, or a term that is not of
    this form, raises ``ValueError``.
    """
    body = text.replace(" ", "")
    out: Character = {}
    if body in ("", "0"):
        return out
    for term in _SPLIT.split(body):
        match = _TERM.fullmatch(term)
        if not match or not (match[2] or match[4]):
            raise ValueError(f"cannot parse monomial {term.lstrip('+-')!r} in {text!r}")
        coeff, rest = divmod(int(match[2] or 1), int(match[3] or 1))
        if rest:
            raise ValueError(f"the chart {text!r} has a non-integral coefficient")
        exps = {"s": 0, "t": 0}
        for var, exp in _FACTOR.findall(match[4]):
            exps[var] += int(exp or 1)
        key = (exps["s"], exps["t"])
        out[key] = out.get(key, 0) + (-1) ** match[1].count("-") * coeff
    return {key: c for key, c in out.items() if c}


def render_character(chart: Character, tex: bool = False) -> str:
    """The readable form of an integer character, e.g. ``-s^2*t + 2*s*t^-1 + 1``.

    Terms run by total degree descending, then by ``(a, b)`` descending,
    which matches the bundled reference tables; zero terms are left out and
    the empty character is ``"0"``.  ``tex`` gives the TeX form, e.g.
    ``-s^{2}t + 2st^{-1} + 1``.
    """
    power, times = ("{}^{{{}}}", "") if tex else ("{}^{}", "*")
    parts: list[str] = []
    for a, b in sorted(chart, key=lambda k: (k[0] + k[1], k), reverse=True):
        c = chart[(a, b)]
        if not c:
            continue
        body = times.join(
            var if e == 1 else power.format(var, e) for var, e in (("s", a), ("t", b)) if e
        )
        if not body:
            mag = str(abs(c))
        elif abs(c) == 1:
            mag = body
        else:
            mag = f"{abs(c)}{times}{body}"
        if parts:
            parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        else:
            parts.append(mag if c > 0 else f"-{mag}")
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# homogeneous polynomials over the integers, Kronecker-packed
# ---------------------------------------------------------------------------


def convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of two coefficient lists: the product of the polynomials at s = 1."""
    out = [0] * (len(f) + len(g) - 1)
    for j, x in enumerate(f):
        if x:
            for k, y in enumerate(g):
                out[j + k] += x * y
    return out


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
    form, work = {(1, 0): a, (0, 1): b}, coeffs
    if not a:
        if not b:
            raise ZeroDivisionError("division by the zero form")
        a, b, work = b, a, coeffs[::-1]
    quotient, prev = [], 0
    for c in work[:-1]:
        prev, rem = divmod(c - b * prev, a)
        if rem:
            raise NotDivisible(f"{list(coeffs)} is not divisible by {render_character(form)}")
        quotient.append(prev)
    if work[-1] != b * prev:
        raise NotDivisible(f"{list(coeffs)} leaves a remainder by {render_character(form)}")
    return quotient if work is coeffs else quotient[::-1]


def _primitive(w: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """``(form, unit)`` with ``w == unit * form``, the form primitive with its first nonzero entry positive."""
    a, b = w
    unit = gcd(a, b)
    if not unit:
        raise ZeroDivisionError("zero weight in a denominator")
    if a < 0 or (not a and b < 0):
        unit = -unit
    return (a // unit, b // unit), unit


def _lcm(weights_per_point: Iterable[Iterable[tuple[int, int]]]):
    """The multiset LCM of the canonical forms of every term's weights.

    Each weight is split by :func:`_primitive`.  Returns ``(forms, rest,
    splits)``: the LCM as canonical forms with repeats, in a fixed order
    that does not depend on the input order; per term, the forms of
    ``LCM / e_q`` in the same order; per term, the ``(form, unit)`` of each
    weight.
    """
    splits = [[_primitive(w) for w in weights] for weights in weights_per_point]
    counts = [Counter(form for form, _unit in split) for split in splits]
    total: Counter = Counter()
    for count in counts:
        total |= count
    order = sorted(total, key=lambda f: (f[0], f[1] != 0, f[1]))
    forms = tuple(f for f in order for _ in range(total[f]))
    rest = [[f for f in order for _ in range(total[f] - count[f])] for count in counts]
    return forms, rest, splits


def _form_product(forms: Iterable[tuple[int, int]], scale: int) -> list[int]:
    out = [scale]
    for form in forms:
        out = convolve(out, form)
    return out


class LinearDenominator:
    """The common denominator over ZZ at s = 1 of sums over products of linear forms.

    ``weights_per_point[q]`` lists the weights ``(a, b)`` whose forms
    ``a*s + b*t`` multiply to ``e_q``, with repeats.  Each weight is split
    as a unit times its canonical primitive form (:func:`_primitive`), and
    the instance holds

    * ``forms``: the multiset LCM of the canonical forms (:func:`_lcm`):
      ``t`` first, then by ``a``, ``s`` before the other forms with
      ``a = 1``, then by ``b``;
    * ``scale``: ``L``, the least common multiple of the units ``|u_q|``;
    * ``cofactors`` and ``poly``: ``L * LCM / e_q`` and ``L * LCM`` at s = 1,
      integer forms (``out[j]`` at ``s^(d-j) t^j``); a product of primitive
      forms is primitive, so ``L`` is their least common denominator;
    * ``norms``: the l1 norms of the cofactors, and ``lcm_norm`` that of
      the LCM itself (the product of the forms, without ``L``).

    Then ``sum_q v_q / e_q == sum_q v_q * cofactors[q] / poly`` exactly, and
    :meth:`certify` divides a numerator by the LCM in one packed division.
    """

    __slots__ = ("forms", "scale", "cofactors", "poly", "norms", "lcm_norm", "_lcm", "_packs")

    def __init__(self, weights_per_point: Iterable[Iterable[tuple[int, int]]]):
        self.forms, rest, splits = _lcm(weights_per_point)
        units = [prod(u for _form, u in split) for split in splits]
        self.scale = lcm(1, *units)
        self._lcm = _form_product(self.forms, 1)
        self.poly = [self.scale * c for c in self._lcm]
        self.cofactors = [_form_product(r, self.scale // u) for r, u in zip(rest, units)]
        self.norms = [sum(map(abs, co)) for co in self.cofactors]
        self.lcm_norm = sum(map(abs, self._lcm))
        self._packs: dict[int, tuple[int, tuple[int, ...]]] = {}

    def packed(self, width: int) -> tuple[int, tuple[int, ...]]:
        """The LCM and the cofactors, packed ``width`` bits a slot (:func:`pack`), memoized."""
        if width not in self._packs:
            cofactors = tuple(pack(co, width) for co in self.cofactors)
            self._packs[width] = (pack(self._lcm, width), cofactors)
        return self._packs[width]

    def divide(self, total: Sequence[int], deg: int) -> list[int]:
        """``total / LCM`` by the recurrence, certified to be a form of degree ``deg``.

        Below degree 0 the total must vanish; otherwise it is divided by
        every form with :func:`divide_linear`.  Either raises
        :class:`NotDivisible` when no quotient exists.  :meth:`certify`
        runs it on the sums that it refuses, to word the refusal.
        """
        if deg < 0:
            if any(total):
                raise NotDivisible(f"a fixed-point sum of degree {deg} does not vanish")
            return []
        for a, b in self.forms:
            total = divide_linear(total, a, b)
        return total

    def certify(self, numerator: Callable[[int], int], bound: int, deg: int) -> list[int]:
        """``N / LCM``, certified to be a form of degree ``deg``: its ``deg + 1`` coefficients.

        ``N`` is a form of degree ``deg + len(forms)`` with ``||N||_1 <=
        bound``, given packed: ``numerator(W)`` is ``N`` at ``t = 2^W``
        (:func:`pack`).  At the first width ``W = slot_width(bound)`` every
        coefficient of ``N`` is below ``2^(W-1)`` in absolute value, and so
        at every width tried after it.  One ``divmod`` by the packed LCM
        decides:

        * a nonzero remainder proves that no quotient exists: ``N = Q *
          LCM`` for a polynomial ``Q`` gives ``N(2^W) = Q(2^W) LCM(2^W)``;
        * after a zero remainder, the quotient is read back in ``deg + 1``
          signed slots (:func:`unpack`) as ``Q``.  If ``||Q||_1 * lcm_norm <
          2^(W-1)``, every coefficient of ``Q * LCM`` is below ``2^(W-1)``
          too, and ``Q * LCM`` packs to ``N(2^W)``.  Packing lists of one
          length with such coefficients is injective, so ``Q * LCM == N``
          coefficient by coefficient: ``Q`` is the quotient.
        * Otherwise ``W`` may be too narrow for the quotient, and it is
          doubled.  A quotient that exists is bounded beforehand: dividing
          a form ``c`` by a canonical form ``(a, b)`` from the end where
          ``|b| <= a`` (the ``s`` end) or ``a < |b|`` (the ``t`` end), the
          recurrence of :func:`divide_linear` gives ``|q_j| <= |c_j| +
          |q_(j-1)|``, so ``||q||_inf <= ||c||_1``, and over every form
          ``||Q||_1 <= bound * (deg + n)! / deg!`` (``n`` forms).  Once
          ``2^(W-1)`` exceeds that times ``lcm_norm``, a quotient that
          exists passes, so a failure is a refusal.

        Below degree 0 the quotient is empty, and ``N`` must vanish.  A
        refused sum is unpacked (exactly, by the bound) and handed to the
        recurrence of :meth:`divide`, whose only job then is to raise the
        :class:`NotDivisible` that names the first form that does not
        divide.
        """
        width = slot_width(bound)
        cap = None
        while True:
            total = numerator(width)
            if deg < 0:
                if not total:
                    return []
                break
            quotient, rem = divmod(total, self.packed(width)[0])
            if rem:
                break
            try:
                slots = unpack(quotient, width, deg + 1)
            except OverflowError:
                slots = None
            if slots is not None and not (sum(map(abs, slots)) * self.lcm_norm) >> (width - 1):
                return slots
            if cap is None:
                cap = bound * prod(range(deg + 1, deg + len(self.forms) + 1)) * self.lcm_norm
            if not cap >> (width - 1):
                break
            width *= 2
        return self.divide(unpack(total, width, deg + len(self.forms) + 1), deg)

    def clear(self, nums: Sequence[Sequence[int] | None], deg: int) -> list[int]:
        """``scale * sum_q nums[q] / e_q`` at s = 1, over the integers.

        ``nums[q]`` is an integer form of degree ``deg + len(e_q's forms)``
        (falsy for zero).  The numerators times their cofactors are summed
        packed, and :meth:`certify` clears the degree-``deg`` quotient.
        """
        if len(nums) != len(self.cofactors):
            raise ValueError(f"{len(nums)} numerators for {len(self.cofactors)} terms")
        nums = [num or () for num in nums]
        bound = sum(map(mul, [sum(map(abs, num)) for num in nums], self.norms))

        def numerator(width: int) -> int:
            return sum(map(mul, [pack(num, width) for num in nums], self.packed(width)[1]))

        return self.certify(numerator, bound, deg)


def slot_width(bound: int) -> int:
    """A slot width for coefficients at most ``bound`` in absolute value.

    A multiple of 64 with a sign bit above the bound, so that lists packed
    for different bounds still share widths (and memoized packings).
    """
    return 64 * (bound.bit_length() // 64 + 1)


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


# ---------------------------------------------------------------------------
# K-theoretic sums over the integers: binomial denominators
# ---------------------------------------------------------------------------


def char_product(f: Character, g: Character) -> Character:
    """The product of two integer characters, without zero coefficients."""
    out: Character = {}
    for (a, b), c in f.items():
        for (x, y), d in g.items():
            key = (a + x, b + y)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def divide_binomial(num: Character, w: tuple[int, int]) -> Character:
    """The exact quotient of an integer character by ``1 - chi^w``, for a primitive ``w``.

    ``num = q - q * chi^w`` says that along every line parallel to ``w``,
    the coefficients of ``q`` are the partial sums of those of ``num``,
    taken in the direction of ``w``.  A line whose coefficients do not sum
    to zero is a remainder and raises :class:`NotDivisible`.  ``num`` may
    hold zero coefficients; the quotient holds none.
    """
    a, b = w
    step = a * a + b * b
    lines: dict[int, list] = {}
    for (x, y), c in num.items():
        lines.setdefault(b * x - a * y, []).append((a * x + b * y, x, y, c))
    out: Character = {}
    for terms in lines.values():
        terms.sort()
        start, x, y, _c = terms[0]
        along = {(dot - start) // step: c for dot, _x, _y, c in terms}
        total = 0
        for k in range(max(along) + 1):
            total += along.get(k, 0)
            if total:
                out[(x + k * a, y + k * b)] = total
        if total:
            binomial = render_character({(0, 0): 1, (a, b): -1})
            raise NotDivisible(f"{render_character(num)} is not divisible by {binomial}")
    return out


class BinomialDenominator:
    """The common denominator of sums over products of binomials ``1 - chi^w``, over ZZ.

    ``duals_per_point[q]`` lists the primitive characters ``w`` with
    ``e_q = prod (1 - chi^w)``, with repeats: a surface's chart characters.
    Each ``w`` is ``f`` or ``-f`` for a canonical form ``f``
    (:func:`_primitive`), and ``1 - chi^-f = -chi^-f * (1 - chi^f)``, so the
    signed monomial unit ``-chi^-f`` stays with its term.  The instance holds

    * ``forms``: the canonical ``f`` of the multiset LCM, in the order of
      :func:`_lcm`;
    * ``cofactors``: ``LCM / e_q`` as integer characters, units included.

    Every unit is a signed monomial, so the cofactors, and the quotient of
    an integer numerator by each binomial, are integer characters: the whole
    clearing runs over the integers.  Then ``sum_q v_q / e_q == sum_q v_q *
    cofactors[q] / LCM`` exactly, and :meth:`clear` divides the LCM out one
    binomial at a time by the running sums of :func:`divide_binomial`.
    """

    __slots__ = ("forms", "cofactors")

    def __init__(self, duals_per_point: Iterable[Iterable[tuple[int, int]]]):
        self.forms, rest, splits = _lcm(duals_per_point)
        self.cofactors: list[Character] = []
        for missing, split in zip(rest, splits):
            if any(abs(u) != 1 for _f, u in split):
                raise ValueError("binomial denominators need primitive characters")
            flipped = [f for f, u in split if u < 0]
            co = {
                (sum(f[0] for f in flipped), sum(f[1] for f in flipped)): (-1) ** len(flipped)
            }
            for f in missing:
                co = char_product(co, {(0, 0): 1, f: -1})
            self.cofactors.append(co)

    def clear(self, values: Iterable[Character]) -> Character:
        """``sum_q values[q] / e_q`` as an integer character, or NotDivisible."""
        num: Character = {}
        for v, co in zip(values, self.cofactors, strict=True):
            for (a, b), c in v.items():
                for (x, y), d in co.items():
                    key = (a + x, b + y)
                    num[key] = num.get(key, 0) + c * d
        for f in self.forms:
            num = divide_binomial(num, f)
        return num
