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

``apply_L`` is their sum.  A second presentation in the generators
``h_i(gamma) = i! * ch_{i+2-deg(gamma)}(gamma)`` gives the plus-operators:
``apply_Rplus`` acts as ``h_i -> i*h_{i+k}`` (killing degree-0 generators at
``k = -1``, the only place it differs from ``apply_R``), ``apply_Tplus`` is
built from the Kunneth decomposition of the diagonal pushforward of the Todd
class, and ``apply_Lplus = apply_Rplus + apply_Tplus`` satisfies the honest
Virasoro bracket ``[L+_k, L+_m] = (m - k) L+_{k+m}`` on the nonnegative-degree
subalgebra.  Everything is exact over ``fractions.Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactalg import _as_rat
from .surfaces import Surface

# a formal symbol ch_i(gamma): (i, basis class name)
Symbol = tuple[int, str]
# a monomial: sorted tuple of symbols (with repetition); () is the unit
Monomial = tuple[Symbol, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    def one() -> "DescPoly":
        return DescPoly({(): _ONE})

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

    # -- inspection -------------------------------------------------------

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), _ZERO)


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


def apply_R(k: int, D: DescPoly, surface: Surface, plus: bool = False) -> DescPoly:
    """The derivation R_k (plus=True: the h-basis variant R+_k)."""
    if k < -1:
        raise ValueError("R_k is defined for k >= -1")
    if plus:
        _check_nonnegative(D, surface)
    out = DescPoly.zero()
    for mono, c in D.terms.items():
        # derivation: hit each distinct factor once, weighted by multiplicity
        seen: set[Symbol] = set()
        for idx, sym in enumerate(mono):
            if sym in seen:
                continue
            seen.add(sym)
            mult = mono.count(sym)
            i, name = sym
            if i + k < 0:
                continue
            f = _r_coeff(k, symbol_degree(sym, surface), plus)
            if not f:
                continue
            rest = mono[:idx] + mono[idx + 1 :]
            new = tuple(sorted(rest + ((i + k, name),)))
            out += DescPoly.monomial(new, c * mult * f)
    return out


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
def T_element(k: int, surface: Surface) -> DescPoly:
    """The element whose multiplication is T_k (two-sum form).

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
    chi = structure_sheaf_euler(surface)
    for a in range(k + 1):
        b = k - a
        c = Fraction(chi * factorial(a) * factorial(b))
        out += DescPoly.monomial(tuple(sorted(((a, "p"), (b, "p")))), c)
    return out


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


def apply_Tplus(k: int, D: DescPoly, surface: Surface) -> DescPoly:
    _check_nonnegative(D, surface)
    return Tplus_element(k, surface) * D


# ---------------------------------------------------------------------------
# S_k and the assembled operators
# ---------------------------------------------------------------------------


def apply_S(k: int, D: DescPoly, surface: Surface, r: int) -> DescPoly:
    """S_k D = (k+1)!/r * R_{-1}(ch_{k+1}(p) * D)."""
    if k < -1:
        raise ValueError("S_k is defined for k >= -1")
    inner = DescPoly.symbol(k + 1, "p") * D
    return apply_R(-1, inner, surface) * Fraction(factorial(k + 1), r)


def apply_L(k: int, D: DescPoly, surface: Surface, r: int) -> DescPoly:
    """The full degree-k operator R_k + T_k + S_k."""
    return apply_R(k, D, surface) + apply_T(k, D, surface) + apply_S(k, D, surface, r)


def apply_Rplus(k: int, D: DescPoly, surface: Surface) -> DescPoly:
    return apply_R(k, D, surface, plus=True)


def apply_Splus(k: int, D: DescPoly, surface: Surface, r: int) -> DescPoly:
    """S+_k D = 1/r * R+_{-1}(h_{k+1}(p) * D).

    Uses the h-basis derivation (which kills degree-0 factors) so that the
    bracket ``[L+_{-1}, S+_k] = (k+1) S+_{k-1}`` closes symbolically; the
    plain-derivation variant differs only by ch_1(gamma)-terms, which vanish
    under geometric realisation, so S+_k and S_k integrate identically and
    agree outright on monomials without degree-0 factors.
    """
    if k < -1:
        raise ValueError("S+_k is defined for k >= -1")
    inner = DescPoly.symbol(k + 1, "p") * D
    return apply_R(-1, inner, surface, plus=True) * Fraction(factorial(k + 1), r)


def apply_Lplus(k: int, D: DescPoly, surface: Surface) -> DescPoly:
    """L+_k = R+_k + T+_k (rank-independent; no S part)."""
    return apply_Rplus(k, D, surface) + apply_Tplus(k, D, surface)


def apply_scriptLplus(k: int, D: DescPoly, surface: Surface, r: int) -> DescPoly:
    """The h-basis form of the full operator: L+_k + S_k (an operator of the paper)."""
    return apply_Lplus(k, D, surface) + apply_S(k, D, surface, r)


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
    """All restricted monomials of the given total degree.

    Factors are symbols ch_i(gamma) over the surface basis with positive
    degree and i != 1, deduplicated as multisets; degree 0 gives the unit.
    """
    if degree < 0:
        return []
    if degree == 0:
        return [()]
    out: list[Monomial] = []

    def rec(remaining: int, min_deg: int, chosen: tuple[Symbol, ...], last: Symbol | None):
        if remaining == 0:
            out.append(tuple(sorted(chosen)))
            return
        for d in range(min_deg, remaining + 1):
            for sym in basis_symbols(surface, d):
                if d == min_deg and last is not None and sym < last:
                    continue
                rec(remaining - d, d, chosen + (sym,), sym)

    rec(degree, 1, (), None)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# rendering and parsing (table notation)
# ---------------------------------------------------------------------------


def render_monomial(mono: Monomial) -> str:
    """Compact product string, highest index first: ``ch_3(1)ch_2(H)``."""
    if not mono:
        return "1"
    groups: list[tuple[Symbol, int]] = []
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
# symbolic commutator suite
# ---------------------------------------------------------------------------


class BracketMismatch(AssertionError):
    """A commutator identity failed on a specific monomial."""


def _check_equal(lhs: DescPoly, rhs: DescPoly, what: str, mono: Monomial) -> None:
    if lhs != rhs:
        raise BracketMismatch(f"{what} fails on {render_monomial(mono)}")


def bracket_suite(surface: Surface, max_k: int = 4, max_degree: int = 6, rank: int = 2) -> int:
    """Check the operator commutation relations symbolically.

    Over every restricted monomial D of degree <= ``max_degree`` this
    verifies, with exact coefficients:

    * ``[L+_k, L+_m] D = (m - k) L+_{k+m} D`` for ``-1 <= k <= m <= max_k``,
    * ``[L+_n, h_j(p)] D = j h_{n+j}(p) D`` for ``-1 <= n <= max_k`` and
      ``1 <= j <= max_k`` (the bracket taken against multiplication),
    * ``[L+_{-1}, S+_j] D = (j + 1) S+_{j-1} D`` for ``0 <= j <= max_k``.

    Returns the number of identities checked; raises ``BracketMismatch`` on
    the first failure.
    """
    monos: list[Monomial] = []
    for d in range(max_degree + 1):
        monos.extend(monomial_basis(surface, d))
    checked = 0
    for mono in monos:
        D = DescPoly.monomial(mono)
        lk = {k: apply_Lplus(k, D, surface) for k in range(-1, 2 * max_k + 1)}
        for k in range(-1, max_k + 1):
            for m in range(k, max_k + 1):
                lhs = apply_Lplus(k, lk[m], surface) - apply_Lplus(m, lk[k], surface)
                rhs = DescPoly.zero() if m == k else lk[k + m] * (m - k)
                _check_equal(lhs, rhs, f"[L+_{k}, L+_{m}]", mono)
                checked += 1
        for n in range(-1, max_k + 1):
            for j in range(1, max_k + 1):
                h = h_poly(j, "p", surface)
                lhs = apply_Lplus(n, h * D, surface) - h * lk[n]
                rhs = h_poly(n + j, "p", surface) * D * j
                _check_equal(lhs, rhs, f"[L+_{n}, h_{j}(p)]", mono)
                checked += 1
        for j in range(0, max_k + 1):
            s_then_l = apply_Lplus(-1, apply_Splus(j, D, surface, rank), surface)
            l_then_s = apply_Splus(j, lk[-1], surface, rank)
            rhs = apply_Splus(j - 1, D, surface, rank) * (j + 1)
            _check_equal(s_then_l - l_then_s, rhs, f"[L+_-1, S+_{j}]", mono)
            checked += 1
    return checked
