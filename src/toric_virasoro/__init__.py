"""Exact verification of Virasoro constraints on moduli of stable sheaves.

Everything here is exact: integers and ``fractions.Fraction``, with the
charts as integer characters and the fixed-point sums over the integers at
``s = 1``; no floating point is used anywhere.  The package

* enumerates torus-fixed points of moduli spaces of slope-stable rank 2/3/4
  equivariant sheaves on the projective plane and on Hirzebruch surfaces,
* computes descendent integrals over those moduli spaces by torus
  localization, over one common denominator with exact clearing, and
* checks the weighted Virasoro sum rules those integrals satisfy.

Subpackage map:

``exactalg``      integer characters (parsed from and rendered to text),
                  integer forms at s = 1, and the common denominators of
                  fixed-point sums (linear forms over the integers,
                  binomials 1 - chi^w by running sums)
``surfaces``      toric surface data (fans, fixed points, tangent and
                  divisor weights, intersection theory)
``klyachko``      flagged filtration data for equivariant sheaves and their
                  K-theoretic restrictions to fixed points (integer characters)
``enumeration``   the stable fixed-point loci themselves
``descendents``   the descendent algebra, Virasoro operators, and brackets
``localization``  the integration engine and sum-rule checker
``golden``        bundled reference tables and comparison helpers
``cli``           the ``toric-virasoro`` command line tool
"""

__version__ = "0.1.0"

from .descendents import bracket_suite, monomial_basis, parse_monomial, render_monomial
from .enumeration import (
    chamber_representatives,
    fixed_locus,
    fixed_locus_cached,
    hirzebruch_ch2_check,
    wall_slopes,
)
from .exactalg import NotDivisible, Rat, parse_character
from .golden import list_cases, load_case, verify_case
from .localization import Case, make_case, verify_conjecture
from .surfaces import Surface, surface_by_name

__all__ = [
    "__version__",
    "bracket_suite",
    "monomial_basis",
    "parse_monomial",
    "render_monomial",
    "chamber_representatives",
    "fixed_locus",
    "fixed_locus_cached",
    "hirzebruch_ch2_check",
    "wall_slopes",
    "NotDivisible",
    "Rat",
    "parse_character",
    "list_cases",
    "load_case",
    "verify_case",
    "Case",
    "make_case",
    "verify_conjecture",
    "Surface",
    "surface_by_name",
]
