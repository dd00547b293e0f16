"""Write ``data/window_certificates.json``, the certificates of the plane's rank-3/4 window bound.

Run from the repository root::

    PYTHONPATH=src:tests python tests/make_window_certificates.py

It needs numpy and scipy, which the package and the tests do not; the tests
only check the file it writes (``test_window_bound.py``, whose docstring
states the theorem).  For each case (configuration, rigid pattern, ray) not
yet covered by a stored certificate moved by a permutation of the rays, a
linear program finds the smallest constant c >= 0 with ``Delta + c - 2r*m``
a nonnegative combination of the products of at most two factors (1,
``-v . w - 1`` per distinct compiled row v, ``w_k - 1`` per open window k).
Its vertex solution is solved again exactly, over ``Fraction``, on its
support, and stored with only the factors it uses.
"""

import json
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linprog

from test_window_bound import (
    CERTIFICATES,
    RAY_PERMUTATIONS,
    cases,
    certificate_holds,
    factor_poly,
    open_windows,
    permute_case,
    permute_certificate,
    polymul,
    table_rows,
    target,
)


def factors(rank, cfg, pattern):
    """One factor per distinct row restricted to the open windows (the first in sorted order),
    then one per open window."""
    opened = sorted(open_windows(rank, pattern))
    rows = {}
    for row in sorted(table_rows(rank, cfg)):
        rows.setdefault(tuple(row[k] for k in opened), row)
    return [None, *rows.values(), *opened]


def exact_solve(columns, rhs):
    """The unique solution of ``sum x_j * columns[j] = rhs`` over Fraction, or None."""
    monos = sorted({k for col in columns for k in col} | set(rhs))
    m = [[Fraction(col.get(k, 0)) for col in columns] + [Fraction(rhs.get(k, 0))] for k in monos]
    n = len(columns)
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            return None
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        r += 1
    if any(row[-1] for row in m[r:]):
        return None
    return [m[i][-1] for i in range(n)]


def certificate(rank, cfg, pattern, ray):
    opened = open_windows(rank, pattern)
    fs = factors(rank, cfg, pattern)
    terms = [
        ((f, g), polymul(factor_poly(f, opened), factor_poly(g, opened)))
        for f, g in combinations_with_replacement(fs, 2)
    ]
    want = target(rank, cfg, pattern, ray, 0)
    monos = sorted({k for _, p in terms for k in p} | set(want) | {()})
    index = {k: i for i, k in enumerate(monos)}
    a = np.zeros((len(monos), len(terms) + 1))
    for j, (_, poly) in enumerate(terms):
        for k, v in poly.items():
            a[index[k], j] = float(v)
    a[index[()], -1] = -1.0  # Delta - 2r*m + c = the combination
    b = np.zeros(len(monos))
    for k, v in want.items():
        b[index[k]] = float(v)
    cost = np.zeros(len(terms) + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_eq=a, b_eq=b, bounds=[(0, None)] * (len(terms) + 1), method="highs")
    assert res.status == 0, (cfg, pattern, ray, res.message)
    support = [j for j in range(len(terms)) if res.x[j] > 1e-9]
    columns = [terms[j][1] for j in support]
    free_constant = res.x[-1] > 1e-9
    if free_constant:
        columns.append({(): -1})
    x = exact_solve(columns, want)
    assert x is not None and all(v > 0 for v in x), (cfg, pattern, ray)
    constant = x.pop() if free_constant else Fraction(0)
    return {
        "constant": str(constant),
        "terms": [(str(v), *terms[j][0]) for j, v in zip(support, x)],
    }


def main():
    entries = []
    for rank in (3, 4):
        covered = set()
        for case in cases(rank):
            if case in covered:
                continue
            cert = certificate(rank, *case)
            assert certificate_holds(rank, *case, cert), case
            kind, pair = case[0]
            head = {"rank": rank, "config": [kind, pair], "pattern": case[1], "ray": case[2]}
            entries.append({**head, **cert})
            for sigma in RAY_PERMUTATIONS:
                image = permute_case(rank, sigma, *case)
                if certificate_holds(rank, *image, permute_certificate(rank, sigma, cert)):
                    covered.add(image)
    text = json.dumps(entries, separators=(",", ":"))
    CERTIFICATES.write_text(text.replace('{"rank"', '\n{"rank"') + "\n")
    print(f"{len(entries)} certificates, {len(text)} bytes")


if __name__ == "__main__":
    main()
