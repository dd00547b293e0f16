"""Toric surface data: fixed points, weights, pairing, localization oracles."""

from fractions import Fraction

import pytest

import oracles
from toric_virasoro.exactalg import LaurentPoly, convolve, parse_laurent
from toric_virasoro.golden import list_cases, load_case
from toric_virasoro.surfaces import linform, surface_by_name

ALL = ["p2", "f0", "f1", "f2"]


def tangent_char(point) -> LaurentPoly:
    out = LaurentPoly.zero()
    for a, b in point.tangent_weights:
        out = out + LaurentPoly.monomial(a, b)
    return out


@pytest.mark.parametrize("name", ALL)
def test_shape(name):
    srf = surface_by_name(name)
    assert srf.n_points == (3 if name == "p2" else 4)
    assert srf.picard_rank == (1 if name == "p2" else 2)


@pytest.mark.parametrize("name", ALL)
def test_structure_sheaf_euler_characteristic_by_localization(name):
    # chi(O) = sum over fixed points of 1 / prod(1 - inverse tangent weights)
    srf = surface_by_name(name)
    one = LaurentPoly.one()
    assert srf.character_denominator.clear([one] * srf.n_points) == one


def test_p2_tangent_characters():
    # chart order X_1..X_3 with characters s^-1+t^-1, s*t^-1+s, t+s^-1*t
    srf = surface_by_name("p2")
    chars = [tangent_char(p) for p in srf.points]
    assert chars[0] == parse_laurent("s^-1 + t^-1")
    assert chars[1] == parse_laurent("s*t^-1 + s")
    assert chars[2] == parse_laurent("t + s^-1*t")


@pytest.mark.parametrize("a", [0, 1, 2])
def test_hirzebruch_tangent_characters(a):
    # chart order X_1..X_4 with characters s^-1+t^-1, s^-1+t, s+t*s^a, s+t^-1*s^-a
    srf = surface_by_name(f"f{a}")
    chars = [tangent_char(p) for p in srf.points]
    assert chars[0] == parse_laurent("s^-1 + t^-1")
    assert chars[1] == parse_laurent("s^-1 + t")
    assert chars[2] == LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(a, 1)
    assert chars[3] == LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(-a, -1)


def test_intersection_pairing():
    p2 = surface_by_name("p2")
    assert p2.pair((1,), (1,)) == 1
    assert p2.pair((2,), (3,)) == 6
    for a in (0, 1, 2):
        srf = surface_by_name(f"f{a}")
        F, Z = (1, 0), (0, 1)
        assert srf.pair(F, F) == 0
        assert srf.pair(F, Z) == 1
        assert srf.pair(Z, Z) == -a
        assert srf.pair((3, 5), (2, 7)) == 3 * 7 + 5 * 2 - a * 5 * 7


@pytest.mark.parametrize("name", ALL)
def test_intersection_numbers_are_ints(name):
    srf = surface_by_name(name)
    classes = [(1,), (-2,), (0,)] if name == "p2" else [(1, 0), (0, 1), (3, -2), (0, 0)]
    for c in classes:
        for d in classes:
            assert type(srf.pair(c, d)) is int
        assert type(srf.vdim(2, c, 3)) is int
    assert all(type(srf.ray_degree(i, classes[0])) is int for i in range(len(srf.rays)))


@pytest.mark.parametrize("name, count", [("p2", 3), ("f0", 2), ("f1", 3), ("f2", 3)])
def test_character_denominator_keeps_one_factor_per_associate_pair(name, count):
    # 1 - chi^w and 1 - chi^-w are associates, so each chart character's
    # factor appears once although every character occurs at two points
    srf = surface_by_name(name)
    assert len(srf.character_denominator.factors) == count


def divisor_lift_of_class(srf, coeffs: tuple, point) -> tuple[int, int]:
    """Restriction (a, b) at the point of the lifted class sum_i coeffs[i] * D_i."""
    a = b = 0
    for name, c in zip(srf.divisor_names, coeffs):
        la, lb = srf.divisor_lift(name, point)
        a += c * la
        b += c * lb
    return (a, b)


@pytest.mark.parametrize("name", ALL)
def test_divisor_lifts_reproduce_pairing(name):
    # integral over the surface of a product of two lifted divisor classes,
    # computed by localization, equals the intersection number: over the
    # integers at s = 1 and by the Fraction oracle
    srf = surface_by_name(name)
    basis = [tuple(1 if i == j else 0 for j in range(srf.picard_rank)) for i in range(srf.picard_rank)]
    for c in basis:
        for d in basis:
            lifts = [
                (divisor_lift_of_class(srf, c, point), divisor_lift_of_class(srf, d, point))
                for point in srf.points
            ]
            rows = [convolve(lc, ld) for lc, ld in lifts]
            (cleared,) = srf.clear_rows(rows, 0)
            assert Fraction(cleared, srf.tangent_scale) == srf.pair(c, d)
            nums = [linform(lc) * linform(ld) for lc, ld in lifts]
            assert oracles.surface_integral(srf, nums) == srf.pair(c, d)


@pytest.mark.parametrize("name", ALL)
def test_canonical_class_squared(name):
    # K^2 = 9 on the plane and 8 on every Hirzebruch surface
    srf = surface_by_name(name)
    K = srf.canonical
    assert srf.pair(K, K) == (9 if name == "p2" else 8)


def test_moduli_dimension_formula_against_recorded_cases():
    for cid in list_cases():
        gold = load_case(cid)
        srf = surface_by_name(gold.surface)
        assert srf.vdim(gold.rank, gold.delta, gold.c2) == gold.dim, cid


@pytest.mark.parametrize("name", ALL)
def test_kunneth_diagonal_reproduces_intersection_pairing(name):
    # Delta_* 1 = sum of gl (x) gr must satisfy, for all basis classes x, y:
    #   integral(x . y) = sum c * integral(x . gl) * integral(y . gr)
    srf = surface_by_name(name)
    names = ["1", *srf.divisor_names, "p"]

    def coeffs_of(cls: str):
        if cls in srf.divisor_names:
            return tuple(1 if n == cls else 0 for n in srf.divisor_names)
        return None

    def integral(x: str, y: str) -> Fraction:
        if srf.class_degree(x) + srf.class_degree(y) != 2:
            return Fraction(0)
        if {x, y} == {"1", "p"}:
            return Fraction(1)
        if x == "p" or y == "p" or x == "1" or y == "1":
            return Fraction(0)  # p.divisor, p.p, 1.divisor, 1.1
        return Fraction(srf.pair(coeffs_of(x), coeffs_of(y)))

    for x in names:
        for y in names:
            rhs = sum(
                (Fraction(c) * integral(x, gl) * integral(y, gr) for gl, gr, c in srf.kunneth),
                Fraction(0),
            )
            assert rhs == integral(x, y), (x, y)


def test_class_degrees():
    srf = surface_by_name("f1")
    assert srf.class_degree("1") == 0
    assert srf.class_degree("F") == 1
    assert srf.class_degree("Z") == 1
    assert srf.class_degree("p") == 2
