"""Formal descendent algebra and its Virasoro-type operators.

Elements are polynomials over formal symbols ``ch_i(gamma)`` where ``gamma``
runs over a fixed cohomology basis of a toric surface: the unit ``1``, the
basis divisors (``H`` on the plane, ``F`` and ``Z`` on a Hirzebruch surface)
and the point class ``p``.  The symbol ``ch_i(gamma)`` carries the (complex)
degree ``i + deg(gamma) - 2``; degrees are graded over the integers and the
operators below shift them by a fixed amount.

Three families of operators act here:

* ``apply_R(k, -)``: a derivation, ``R_k ch_i(gamma) = prod_{j=0..k}
  (i + j + deg(gamma) - 2) * ch_{i+k}(gamma)`` with the convention
  ``ch_{<0} = 0`` and the empty product for ``k = -1``;
* ``apply_T(k, -)``: multiplication by a fixed element assembled from the
  Kunneth decomposition of the diagonal pushforward of ``1`` plus a point-
  class correction weighted by chi(O) of the surface;
* ``apply_S(k, -)``: ``(k+1)!/r * R_{-1}(ch_{k+1}(p) * -)`` (depends on a
  rank ``r``).

The paper's operator L_k is their sum.  A second presentation in the generators
``h_i(gamma) = i! * ch_{i+2-deg(gamma)}(gamma)`` gives the plus-operators:
``apply_R(k, -, plus=True)`` is the derivation R+_k, ``h_i -> i*h_{i+k}``
(killing degree-0 generators at ``k = -1``, the only place it differs from
R_k), and T+_k multiplies by :func:`Tplus_element`, built from the Kunneth
decomposition of the diagonal pushforward of the Todd class.  ``L+_k = R+_k
+ T+_k`` satisfies ``[L+_k, L+_m] = (m - k) L+_{k+m}`` on the
nonnegative-degree subalgebra.  :func:`bracket_suite` proves that on
generators: a derivation plus a multiplication reduces each bracket to the
generator rule of R+, identities among the ``T+`` elements and ``T+_{-1} =
0``, and the rank cancels (the argument is in its docstring).

On one monomial every operator part has integer coefficients, up to the one
scale ``(k+1)!/r`` of S: :func:`derivation_terms` is the R rule (the image of
each symbol, kept per ``k``, extended as a derivation) and :func:`T_terms` the
T element over the integers; ``apply_R`` and ``apply_S`` are their exact
``Fraction``-linear extension to a :class:`DescPoly`.  The zero-sum sweep
reads the same rules on packed exponent keys (:class:`Packing`): a monomial
is an integer with one byte per symbol, and a term of ``L_k D`` is D's key
plus symbol units, with no tuple built.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .exactalg import _as_rat
from .surfaces import Surface

# a formal symbol ch_i(gamma): (i, basis class name)
Symbol = tuple[int, str]
# a monomial: sorted tuple of symbols (with repetition); () is the unit
Monomial = tuple[Symbol, ...]

_ZERO = Fraction(0)


class NegativeDegreeInput(ValueError):
    """A plus-operator was applied outside the nonnegative-degree subalgebra."""


class DescPoly:
    """A polynomial over descendent symbols with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = _as_rat(c)
                if c:
                    clean[tuple(sorted(mono))] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "DescPoly":
        return DescPoly()

    @staticmethod
    def const(c) -> "DescPoly":
        return DescPoly({(): _as_rat(c)})

    @staticmethod
    def symbol(i: int, name: str, c=1) -> "DescPoly":
        if i < 0:
            return DescPoly()
        return DescPoly({((i, name),): _as_rat(c)})

    @staticmethod
    def monomial(mono: Monomial, c=1) -> "DescPoly":
        return DescPoly({tuple(mono): _as_rat(c)})

    # -- ring structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        return isinstance(other, DescPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "DescPoly":
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            v = out.get(mono, _ZERO) + c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        res = DescPoly.__new__(DescPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "DescPoly":
        res = DescPoly.__new__(DescPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "DescPoly":
        if isinstance(other, (int, Fraction)):
            other = DescPoly.const(other)
        return self + (-other)

    def __mul__(self, other) -> "DescPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            if not c:
                return DescPoly()
            res = DescPoly.__new__(DescPoly)
            res.terms = {m: v * c for m, v in self.terms.items()}
            return res
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                v = out.get(mono, _ZERO) + c1 * c2
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
        res = DescPoly.__new__(DescPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DescPoly({render_poly(self)})"


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def symbol_degree(sym: Symbol, surface: Surface) -> int:
    i, name = sym
    return i + surface.class_degree(name) - 2


def monomial_degree(mono: Monomial, surface: Surface) -> int:
    return sum(symbol_degree(s, surface) for s in mono)


# ---------------------------------------------------------------------------
# the derivation R_k (and its h-basis variant)
# ---------------------------------------------------------------------------


def _r_coeff(k: int, sdeg: int, plus: bool) -> int:
    """Coefficient multiplying ch_{i+k}(gamma) when R_k hits a symbol.

    In the h-generators the rule reads ``h_i -> i * h_{i+k}`` whose ch-basis
    coefficient agrees with the product formula except at ``k = -1`` on
    degree-0 symbols, where the plus-variant returns 0 instead of 1.
    """
    if k == -1:
        return 0 if (plus and sdeg == 0) else 1
    out = 1
    for j in range(k + 1):
        out *= sdeg + j
        if not out:
            return 0
    return out


def _check_nonnegative(D: DescPoly, surface: Surface) -> None:
    for mono in D.terms:
        for sym in mono:
            if symbol_degree(sym, surface) < 0:
                raise NegativeDegreeInput(
                    f"symbol ch_{sym[0]}({sym[1]}) has negative degree"
                )


class _Images(dict):
    """R_k (plus=True: R+_k) of each symbol, computed on its first lookup.

    ``images[ch_i(gamma)]`` is ``(ch_{i+k}(gamma), nonzero int)``, or None
    where R_k kills the symbol.
    """

    def __init__(self, k: int, surface: Surface, plus: bool = False):
        super().__init__()
        self.k, self.surface, self.plus = k, surface, plus

    def __missing__(self, sym: Symbol) -> tuple[Symbol, int] | None:
        i, name = sym
        k = self.k
        f = _r_coeff(k, symbol_degree(sym, self.surface), self.plus) if i + k >= 0 else 0
        self[sym] = image = ((i + k, name), f) if f else None
        return image


@lru_cache(maxsize=None)
def _ch_images(k: int, surface: Surface) -> _Images:
    """The :class:`_Images` of R_k, kept across calls (R+_k builds its images per call)."""
    return _Images(k, surface)


def derivation_terms(k: int, mono: Monomial, surface: Surface, plus: bool = False) -> dict[Monomial, int]:
    """R_k (plus=True: R+_k) of one sorted monomial: ``{monomial: nonzero int}``.

    This is the one R rule, the :class:`_Images` of the symbols extended as
    a derivation: :func:`apply_R` and the S operators are its
    ``Fraction``-linear extension, and :meth:`Packing.derivation` reads the
    same images on packed keys.  It hits each distinct factor once, at its
    first position ``idx`` (repeats are adjacent), weighted by its
    multiplicity.  The image symbol goes where it sorts in ``mono``: after
    every copy of the hit symbol when it is not smaller (``j > idx``), else
    before ``idx``.
    """
    if k < -1:
        raise ValueError("R_k is defined for k >= -1")
    images = _Images(k, surface, plus) if plus else _ch_images(k, surface)
    out: dict[Monomial, int] = {}
    for idx, sym in enumerate(mono):
        if idx and sym == mono[idx - 1]:
            continue
        hit = images[sym]
        if not hit:
            continue
        new, f = hit
        j = bisect_right(mono, new)
        if j > idx:
            key = mono[:idx] + mono[idx + 1 : j] + (new,) + mono[j:]
        else:
            key = mono[:j] + (new,) + mono[j:idx] + mono[idx + 1 :]
        out[key] = out.get(key, 0) + mono.count(sym) * f
    return {m: c for m, c in out.items() if c}


def _extend(D: DescPoly, terms_of) -> DescPoly:
    """The ``Fraction``-linear extension of a rule ``monomial -> {monomial: int}``."""
    out: dict[Monomial, Fraction] = {}
    for mono, c in D.terms.items():
        for new, n in terms_of(mono).items():
            out[new] = out.get(new, _ZERO) + c * n
    return DescPoly(out)


def apply_R(k: int, D: DescPoly, surface: Surface, plus: bool = False) -> DescPoly:
    """The derivation R_k (plus=True: the h-basis variant R+_k)."""
    if plus:
        _check_nonnegative(D, surface)
    return _extend(D, lambda mono: derivation_terms(k, mono, surface, plus))


# ---------------------------------------------------------------------------
# the multiplication operators T_k and T+_k
# ---------------------------------------------------------------------------


def structure_sheaf_euler(surface: Surface) -> int:
    """chi(O) of the surface, from Noether's formula (K^2 + chi_top)/12."""
    c1 = surface.c1_coeffs()
    val = Fraction(surface.pair(c1, c1) + surface.n_points, 12)
    if val.denominator != 1:
        raise ValueError(f"non-integral chi(O) = {val}")
    return int(val)


@lru_cache(maxsize=None)
def T_terms(k: int, surface: Surface) -> dict[Monomial, int]:
    """The element whose multiplication is T_k (two-sum form), as ``{monomial: nonzero int}``.

    First sum: over Kunneth components ``gl (x) gr`` of the diagonal
    pushforward of 1, the term
    ``-(-1)^((dl+1)(dr+1)) (a+dl-2)! (b+dr-2)! ch_a(gl) ch_b(gr)`` summed
    over ``a + b = k + 2`` (factorials of negative numbers are zero).
    Second sum: ``chi(O) * sum_{a+b=k} a! b! ch_a(p) ch_b(p)``.  Every
    coefficient is an integer; the dict is shared, so it is never mutated.
    """
    if k < -1:
        raise ValueError("T_k is defined for k >= -1")
    out: dict[Monomial, int] = {}
    for gl, gr, kc in surface.kunneth:
        dl = surface.class_degree(gl)
        dr = surface.class_degree(gr)
        sign = -((-1) ** ((dl + 1) * (dr + 1)))
        for a in range(2 - dl, k + dr + 1):  # (a+dl-2)! and (b+dr-2)! defined
            mono = tuple(sorted(((a, gl), (k + 2 - a, gr))))
            c = sign * kc * factorial(a + dl - 2) * factorial(k - a + dr)
            out[mono] = out.get(mono, 0) + c
    chi = structure_sheaf_euler(surface)
    for a in range(k + 1):
        mono = tuple(sorted(((a, "p"), (k - a, "p"))))
        out[mono] = out.get(mono, 0) + chi * factorial(a) * factorial(k - a)
    return {mono: c for mono, c in out.items() if c}


@lru_cache(maxsize=None)
def T_element(k: int, surface: Surface) -> DescPoly:
    """:func:`T_terms` as a descendent polynomial, for :func:`apply_T`."""
    return DescPoly(T_terms(k, surface))


def _todd_kunneth(surface: Surface) -> list[tuple[str, str, Fraction]]:
    """Kunneth decomposition of the diagonal pushforward of the Todd class.

    td = 1 + c1/2 + chi(O)*p; the pushforward of a divisor class D decomposes
    as D (x) p + p (x) D, and that of p as p (x) p.
    """
    terms: list[tuple[str, str, Fraction]] = [
        (gl, gr, Fraction(kc)) for gl, gr, kc in surface.kunneth
    ]
    c1 = surface.c1_coeffs()
    for name, coeff in zip(surface.divisor_names, c1):
        if coeff:
            half = Fraction(coeff, 2)
            terms.append((name, "p", half))
            terms.append(("p", name, half))
    terms.append(("p", "p", Fraction(structure_sheaf_euler(surface))))
    return terms


@lru_cache(maxsize=None)
def Tplus_element(k: int, surface: Surface) -> DescPoly:
    """The element whose multiplication is T+_k (Todd form).

    Sum of ``t_k(gl, gr) = (-1)^(2 - deg gl) sum_{a+b=k} h_a(gl) h_b(gr)``
    over the Kunneth components of the diagonal pushforward of the Todd
    class.  The divisor layer cancels pairwise by the sign; it is kept in
    the sum so the cancellation is computed, not assumed.
    """
    if k < -1:
        raise ValueError("T+_k is defined for k >= -1")
    out = DescPoly.zero()
    for gl, gr, kc in _todd_kunneth(surface):
        dl = surface.class_degree(gl)
        dr = surface.class_degree(gr)
        sign = (-1) ** (2 - dl)
        for a in range(k + 1):
            b = k - a
            mono = tuple(sorted(((a + 2 - dl, gl), (b + 2 - dr, gr))))
            out += DescPoly.monomial(
                mono, sign * kc * factorial(a) * factorial(b)
            )
    return out


def apply_T(k: int, D: DescPoly, surface: Surface) -> DescPoly:
    return T_element(k, surface) * D


# ---------------------------------------------------------------------------
# S_k
# ---------------------------------------------------------------------------


def apply_S(k: int, D: DescPoly, surface: Surface, r: int) -> DescPoly:
    """S_k D = (k+1)!/r * R_{-1}(ch_{k+1}(p) * D)."""
    if k < -1:
        raise ValueError("S_k is defined for k >= -1")
    p = (k + 1, "p")
    terms = _extend(D, lambda mono: derivation_terms(-1, tuple(sorted((*mono, p))), surface))
    return terms * Fraction(factorial(k + 1), r)


# ---------------------------------------------------------------------------
# packed exponent keys
# ---------------------------------------------------------------------------

# the most copies of a symbol in a key: an operator term has at most two more
# than D (T_k's ch_a(p)^2, or S_k's ch_{k+1}(p) and an image), so none carries
MAX_COPIES = 253


class Packing(dict):
    """The packed exponent encoding of monomials over one surface: ``{symbol: unit}``.

    ``ch_i(gamma)`` owns byte ``j = i * C + c`` of an integer key (``C`` basis
    classes, ``gamma`` the c-th by name), so bytes ascend as sorted symbols
    do; a key is the sum of its factors' units ``2^(8j)``.  R_k D is ``c * (D
    + delta)`` per :meth:`derivation` term, T_k D is ``c * (D + pair)`` per
    :meth:`pairs` term, and S_k D is R_{-1} of ``D + ch_{k+1}(p)``.
    """

    def __init__(self, surface: Surface):
        super().__init__()
        self.surface = surface
        self.classes = tuple(sorted(("1", *surface.divisor_names, "p")))
        self._rules: dict[int, dict] = {}
        self._pairs: dict[int, list[tuple[int, int]]] = {}

    def __missing__(self, sym: Symbol) -> int:
        i, name = sym
        if i < 0:
            raise ValueError(f"ch_{i}({name}) is 0 and has no field")
        self[sym] = unit = 1 << 8 * (i * len(self.classes) + self.classes.index(name))
        return unit

    def key(self, mono: Monomial) -> int:
        """The key of a monomial (in any order); more than MAX_COPIES of a symbol raise."""
        if len(mono) > MAX_COPIES and max(map(mono.count, mono)) > MAX_COPIES:
            raise OverflowError(f"more than {MAX_COPIES} copies of one symbol do not fit a field")
        return sum(map(self.__getitem__, mono))

    def factors(self, key: int) -> list[tuple[Symbol, int]]:
        """``(symbol, copies)`` of every nonzero field of a key, in sorted symbol order."""
        C, classes = len(self.classes), self.classes
        data = key.to_bytes((key.bit_length() + 7) // 8, "little")
        return [((j // C, classes[j % C]), m) for j, m in enumerate(data) if m]

    def derivation(self, k: int, mono: Monomial) -> list[tuple[int, int]]:
        """R_k of a monomial by the :class:`_Images`: ``(unit(image) - unit(sym), copies * f)``.

        The deltas are distinct but at k = 0, where every hit lands on D:
        there they are summed to one term ``(0, deg(D))``, none if that is 0.
        """
        rule, out = self._rules.setdefault(k, {}), []
        for sym in dict.fromkeys(mono):
            if sym not in rule:
                image = _ch_images(k, self.surface)[sym]
                rule[sym] = image and (self[image[0]] - self[sym], image[1])
            hit = rule[sym]
            if hit:
                out.append((hit[0], mono.count(sym) * hit[1]))
        if not k and out:
            c = sum(c for _delta, c in out)
            return [(0, c)] if c else []
        return out

    def pairs(self, k: int) -> list[tuple[int, int]]:
        """The :func:`T_terms` of k as ``(key, c)``: T_k D is ``c * (D + key)`` per pair."""
        if k not in self._pairs:
            self._pairs[k] = [(self[a] + self[b], c) for (a, b), c in T_terms(k, self.surface).items()]
        return self._pairs[k]


# ---------------------------------------------------------------------------
# h-generators
# ---------------------------------------------------------------------------


def h_poly(i: int, name: str, surface: Surface) -> DescPoly:
    """h_i(gamma) = i! * ch_{i+2-deg(gamma)}(gamma); degree exactly i."""
    if i < 0:
        raise ValueError("h_i is defined for i >= 0")
    return DescPoly.symbol(
        i + 2 - surface.class_degree(name), name, Fraction(factorial(i))
    )


# ---------------------------------------------------------------------------
# restricted monomial bases
# ---------------------------------------------------------------------------


def basis_symbols(surface: Surface, degree: int) -> list[Symbol]:
    """Symbols of the given positive degree with index != 1."""
    if degree < 1:
        return []
    out: list[Symbol] = [(degree + 2, "1")]
    for name in surface.divisor_names:
        out.append((degree + 1, name))
    if degree != 1:
        out.append((degree, "p"))
    return [s for s in out if s[0] != 1]


def monomial_basis(surface: Surface, degree: int) -> list[Monomial]:
    """All restricted monomials of the given total degree, sorted.

    Factors are symbols ch_i(gamma) over the surface basis with positive
    degree and i != 1, chosen in ascending order, so each multiset comes
    once, and (no monomial being a prefix of another) in sorted order.
    """
    if degree < 0:
        return []
    syms = sorted(s for d in range(1, degree + 1) for s in basis_symbols(surface, d))
    degs = [symbol_degree(s, surface) for s in syms]
    out: list[Monomial] = []

    def rec(start: int, remaining: int, chosen: Monomial) -> None:
        if not remaining:
            out.append(chosen)
            return
        for j in range(start, len(syms)):
            if degs[j] <= remaining:
                rec(j, remaining - degs[j], chosen + (syms[j],))

    rec(0, degree, ())
    return out


# ---------------------------------------------------------------------------
# rendering and parsing (table notation)
# ---------------------------------------------------------------------------


def render_monomial(mono: Monomial) -> str:
    """Compact product string, highest index first (then by name): ``ch_3(1)ch_2(H)``."""
    if not mono:
        return "1"
    return "".join(
        f"ch_{i}({name})" if (mult := mono.count((i, name))) == 1 else f"ch_{i}({name})^{mult}"
        for i, name in sorted(dict.fromkeys(sorted(mono)), key=itemgetter(0), reverse=True)
    )


def render_poly(poly: DescPoly) -> str:
    if not poly.terms:
        return "0"
    bits = []
    for mono in sorted(poly.terms, key=lambda m: (len(m), m)):
        c = poly.terms[mono]
        body = render_monomial(mono)
        if body == "1":
            text = str(c)
        elif c == 1:
            text = body
        elif c == -1:
            text = f"-{body}"
        else:
            text = f"{c}*{body}"
        if bits and not text.startswith("-"):
            bits.append("+ " + text)
        elif bits:
            bits.append("- " + text[1:])
        else:
            bits.append(text)
    return " ".join(bits)


_SYMBOL_RE = re.compile(
    r"ch_\{?(\d+)\}?\(([^)]+)\)(?:\^\{?(\d+)\}?)?"
)


def parse_monomial(text: str) -> Monomial:
    """Parse table notation like ``ch_3(1)^2ch_2(H)`` (TeX residue tolerated)."""
    cleaned = (
        text.replace("\\ch", "ch")
        .replace("\\mathbf{p}", "p")
        .replace("\\mathbf p", "p")
        .replace("$", "")
        .replace(" ", "")
    )
    if cleaned in ("1", ""):
        return ()
    syms: list[Symbol] = []
    pos = 0
    for m in _SYMBOL_RE.finditer(cleaned):
        if m.start() != pos:
            raise ValueError(f"cannot parse monomial {text!r}")
        i = int(m.group(1))
        name = m.group(2).strip()
        mult = int(m.group(3)) if m.group(3) else 1
        syms.extend([(i, name)] * mult)
        pos = m.end()
    if pos != len(cleaned):
        raise ValueError(f"cannot parse monomial {text!r}")
    return tuple(sorted(syms))


# ---------------------------------------------------------------------------
# the commutator suite, proved on generators
# ---------------------------------------------------------------------------


class BracketMismatch(AssertionError):
    """A commutator identity failed; the message names the generator or element at fault."""


def bracket_suite(surface: Surface, max_k: int = 4, max_degree: int = 6) -> int:
    """Prove the operator commutation relations on generators.

    The identities, for every D of degree <= N = ``max_degree`` in the
    nonnegative-degree subalgebra and every rank r, with K = ``max_k``:

    * ``[L+_k, L+_m] D = (m - k) L+_{k+m} D`` for ``-1 <= k <= m <= K``,
    * ``[L+_n, h_j(p)] D = j h_{n+j}(p) D`` for ``-1 <= n <= K``, ``1 <= j <= K``,
    * ``[L+_{-1}, S+_j] D = (j + 1) S+_{j-1} D`` for ``0 <= j <= K``.

    The argument.  The subalgebra is the polynomial algebra on the
    ``h_i(gamma)``, ``i >= 0``, of degree i.  With ``mu(a)`` multiplication by
    a, ``L+_k = R+_k + mu(T+_k)``, where R+_k (``apply_R(plus=True)``) is a
    derivation by construction (:func:`derivation_terms` hits each factor
    once, weighted by its multiplicity) and T+_k is :func:`Tplus_element`.
    For derivations d1, d2, ``[d1 + mu(a), d2 + mu(b)] = [d1, d2] +
    mu(d1(b) - d2(a))``; an operator ``d + mu(c)`` gives back c as its value
    on 1, and a derivation is fixed by its values on generators.  So:

    * the first identity follows from ``R+_k h_i(gamma) = i h_{i+k}(gamma)``
      on every generator the two sides reach (``i <= N + K`` for ``k <= K``;
      ``i <= N`` for the ``k + m <= 2K - 1`` of ``k < m``), after which both
      send ``h_i`` to ``i (m - k) h_{i+k+m}``, and from ``R+_k(T+_m) -
      R+_m(T+_k) = (m - k) T+_{k+m}`` as elements;
    * ``[L+_n, mu(h_j(p))] = mu(R+_n h_j(p))``: the second is ``R+_n h_j(p)
      = j h_{n+j}(p)``;
    * ``S+_j = (1/r) R+_{-1} mu(h_{j+1}(p))``.  Given ``T+_{-1} = 0``,
      ``L+_{-1}`` is the derivation ``d = R+_{-1}`` and ``[d, S+_j] = (1/r)
      d mu(d(h_{j+1}(p)))``, so ``R+_{-1} h_{j+1}(p) = (j + 1) h_j(p)``
      gives the third.  The 1/r stands on both sides: r cancels.

    Each check is exact and multiplies no two polynomials.  Returns the
    number of pairs (identity, restricted monomial of degree <= N) that the
    proof covers; raises ``BracketMismatch``, naming the identity and the
    generator or element, on the first failure.
    """

    def require(lhs: DescPoly, rhs: DescPoly, identity: str, claim: str) -> None:
        if lhs != rhs:
            raise BracketMismatch(f"{identity}: {claim} fails")

    def R(k: int, D: DescPoly) -> DescPoly:
        return apply_R(k, D, surface, plus=True)

    def h(i: int, name: str) -> DescPoly:
        return h_poly(i, name, surface) if i >= 0 else DescPoly.zero()

    def T(k: int) -> DescPoly:
        return Tplus_element(k, surface)

    classes = ("1", *surface.divisor_names, "p")
    # R+_k for k <= max_k meets the generators of R+_m D; R+_{k+m}, k < m, only those of D
    for k in range(-1, max(2 * max_k - 1, max_k) + 1):
        for i in range(max_degree + (max(max_k, 0) if k <= max_k else 0) + 1):
            for name in classes:
                image = f"{i} h_{i + k}({name})" if i else "0"
                claim = f"R+_{k} h_{i}({name}) = {image}"
                require(R(k, h(i, name)), h(i + k, name) * i, "[L+_k, L+_m]", claim)
    if max_k >= 0:
        require(T(-1), DescPoly.zero(), "[L+_-1, S+_j]", "T+_-1 = 0")
    for k in range(-1, max_k + 1):
        for m in range(k, max_k + 1):
            rhs = DescPoly.zero() if m == k else T(k + m) * (m - k)
            claim = f"R+_{k} T+_{m} - R+_{m} T+_{k} = {m - k} T+_{k + m}"
            require(R(k, T(m)) - R(m, T(k)), rhs, f"[L+_{k}, L+_{m}]", claim)
    for n in range(-1, max_k + 1):
        for j in range(1, max_k + 1):
            claim = f"R+_{n} h_{j}(p) = {j} h_{n + j}(p)"
            require(R(n, h(j, "p")), h(n + j, "p") * j, f"[L+_{n}, h_{j}(p)]", claim)
    for j in range(max_k + 1):
        claim = f"R+_-1 h_{j + 1}(p) = {j + 1} h_{j}(p)"
        require(R(-1, h(j + 1, "p")), h(j, "p") * (j + 1), f"[L+_-1, S+_{j}]", claim)
    # per monomial: n(n+1)/2 [L+, L+], n*max_k [L+, h(p)] and max_k+1 [L+, S+], n = #{-1..max_k}
    n = max_k + 2
    per_monomial = n * (n + 1) // 2 + n * max(max_k, 0) + max_k + 1
    return per_monomial * sum(len(monomial_basis(surface, d)) for d in range(max_degree + 1))
