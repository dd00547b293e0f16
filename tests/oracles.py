"""Reference paths over ``Fraction`` Laurent polynomials, kept for the tests.

The package realizes descendent symbols and Chern invariants over the
integers at s = 1 (``Surface.clear_rows``).  The functions here are the
``Fraction`` paths they replaced: truncated exponential Chern characters,
cleared by ``Surface.tangent_denominator.clear`` with the degree checked on
the result.  The tests require the integer path to agree with them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from toric_virasoro.descendents import symbol_degree
from toric_virasoro.exactalg import (
    LaurentPoly,
    NotDivisible,
    convolve,
    dehomogenize,
    integer_rows,
)
from toric_virasoro.klyachko import _solve_divisor_class

ZERO = Fraction(0)
ONE = Fraction(1)


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
    return p.constant_term()


def chern_series(case, q: int, p: int, cap: int) -> LaurentPoly:
    """Truncated ch of -E_p (x) det(E_p)^(-1/r) at moduli point q."""
    poly = case.restrictions[q][p]
    A = B = ZERO
    for (a, b), c in poly:
        A += c * a
        B += c * b
    r = case.rank
    series = LaurentPoly.zero()
    for (a, b), c in poly:
        series = series + truncated_exp_rat(Fraction(a) - A / r, Fraction(b) - B / r, cap) * (-c)
    return series


def realize_symbol(case, i: int, name: str) -> tuple[LaurentPoly, ...]:
    """Per-moduli-point value of ch_i(gamma), summed and cleared over ``Fraction``s."""
    if i < 0:
        return tuple(LaurentPoly.zero() for _ in range(case.n_points))
    surface = case.surface
    sdeg = symbol_degree((i, name), surface)
    lifts = [surface.class_lift(name, p) for p in surface.points]
    zero = LaurentPoly.zero()
    values = []
    for q in range(case.n_points):
        # points where the class lift vanishes contribute nothing
        nums = [
            lift * homogeneous_part(chern_series(case, q, pidx, i), i) if lift else zero
            for pidx, lift in enumerate(lifts)
        ]
        value = surface.tangent_denominator.clear(nums)
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
    return as_constant(
        surface.tangent_denominator.clear([truncate(num, 2) for num in numerators])
    )


def chern_invariants(sheaf) -> tuple[int, tuple[int, ...], int]:
    """(rank, c1 in the divisor basis, c2) by ``Fraction`` localization."""
    S = sheaf.surface
    restr = [sheaf.restriction(p) for p in S.points]
    ranks = {substitute_st(r, ONE, ONE) for r in restr}
    if len(ranks) != 1:
        raise ValueError(f"inconsistent ranks at fixed points: {ranks}")
    rank = next(iter(ranks))
    if rank.denominator != 1:
        raise ValueError(f"non-integral rank {rank}")
    chern = [char_to_chern(r, 2) for r in restr]
    dots = [
        surface_integral(
            S, [homogeneous_part(ch, 1) * S.class_lift(name, p) for ch, p in zip(chern, S.points)]
        )
        for name in S.divisor_names
    ]
    c1 = _solve_divisor_class(S, dots)
    ch2 = surface_integral(S, [homogeneous_part(ch, 2) for ch in chern])
    c2 = Fraction(S.pair(c1, c1), 2) - ch2
    if c2.denominator != 1:
        raise ValueError(f"non-integral c2 = {c2}")
    return int(rank), c1, int(c2)


def integer_surface_integral(surface, x: str, y: str) -> Fraction:
    """The integral of the product of two basis classes, by ``Surface.clear_rows``.

    A product of degree d clears to a polynomial of degree d - 2; its value
    at the origin is the integral, which is 0 unless d = 2.
    """
    deg = surface.class_degree(x) + surface.class_degree(y)
    rows = []
    for p in surface.points:
        fx, fy = surface.class_lift(x, p), surface.class_lift(y, p)
        rows.append(
            convolve(
                [int(c) for c in dehomogenize(fx, surface.class_degree(x))],
                [int(c) for c in dehomogenize(fy, surface.class_degree(y))],
            )
            if fx and fy
            else None
        )
    cleared = surface.clear_rows(rows, deg - 2)
    return Fraction(cleared[0], surface.tangent_scale) if deg == 2 else ZERO
