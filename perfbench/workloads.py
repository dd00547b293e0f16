"""The benchmark workloads: fixed inputs, timed requests, output gates.

Each workload has a ``setup(tracer)`` that builds what the first layer
call needs, and a ``run(state, tracer)`` that issues its requests to the
package one after another (one client, closed loop) and checks every output.
With ``tracer`` None the requests are the calls a user of the library or the
command line makes; with a tracer the same inputs are driven stage by stage
through each module's public functions, each stage inside a span.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from toric_virasoro import golden
from toric_virasoro.descendents import (
    DescPoly,
    apply_R,
    apply_S,
    apply_T,
    monomial_basis,
    render_monomial,
)
from toric_virasoro.enumeration import (
    chamber_representatives,
    fixed_locus_cached,
    wall_slopes,
)
from toric_virasoro.localization import Case, make_case
from toric_virasoro.surfaces import surface_by_name

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Outcomes:
    """Outputs attempted and failed, and the latency of each clean request."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []

    def fail(self, what: str, outputs: int = 1) -> None:
        self.attempted += outputs
        self.failed += outputs
        if len(self.failures) < 10:
            self.failures.append(what)

    def request(self, what: str, call, check, outputs: int = 1):
        """Time ``call()``, then gate its result with ``check``.

        ``check(result)`` returns the failure messages of the request's
        ``outputs`` outputs.  A request that raises or has any failed output
        counts its failures and contributes no latency sample.
        """
        start = perf_counter()
        try:
            result = call()
        except Exception:  # a raising request is a failed output, not a crash
            self.fail(f"{what}: {traceback.format_exc(limit=2).strip()}", outputs)
            return None
        elapsed = perf_counter() - start
        problems = check(result)
        self.attempted += outputs
        if problems:
            self.failed += len(problems)
            room = max(0, 10 - len(self.failures))
            self.failures.extend(f"{what}: {p}" for p in problems[:room])
        else:
            self.latencies.append(elapsed)
        return result


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _count(tracer, name, n=1):
    if tracer:
        tracer.count(name, n)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _zero_sum(parts) -> list[str]:
    total = sum(parts, Fraction(0))
    return [] if total == 0 else [f"R+T+S = {total}"]


def _report_problems(report) -> list[str]:
    problems = []
    if not report.dim_ok:
        problems.append("moduli dimension differs from the recorded one")
    if report.k_status == "mismatch":
        problems.append("fixed locus: " + "; ".join(report.k_messages))
    problems.extend(report.integral_failures)
    return problems


def _build_case(tracer, surface_name, rank, c1, c2, H, sheaves) -> Case:
    """make_case, with the restrictions in their own stage when traced."""
    if not tracer:
        return make_case(surface_name, rank, c1, c2, H, sheaves=sheaves)
    surface = surface_by_name(surface_name)
    with tracer.span("klyachko.restriction"):
        rows = tuple(tuple(sh.restriction(p) for p in surface.points) for sh in sheaves)
    tracer.count("klyachko.restriction_terms", sum(len(poly) for row in rows for poly in row))
    return Case(surface, rank, tuple(c1), c2, tuple(H), rows)


def _prepare(tracer, case: Case) -> None:
    """Tangent representations and the clearing scaffold of a case."""
    with _span(tracer, "localization.tangent"):
        case.tangents()
    with _span(tracer, "localization.scaffold"):
        _lcm, lcm_factors, cofactors = case.scaffold()
    _count(tracer, "localization.lcm_factors", len(lcm_factors))
    _count(tracer, "localization.cofactor_terms", sum(len(co) for co in cofactors))


def _operator_polys(k, mono, case: Case):
    D = DescPoly.monomial(mono)
    return (
        apply_R(k, D, case.surface),
        apply_T(k, D, case.surface),
        apply_S(k, D, case.surface, case.rank),
    )


class _Requested:
    """Monomials requested for integration, to measure how often they repeat."""

    def __init__(self):
        self.seen: set = set()
        self.total = 0
        self.repeats = 0

    def add(self, polys) -> None:
        for poly in polys:
            for mono in poly.terms:
                self.total += 1
                if mono in self.seen:
                    self.repeats += 1
                else:
                    self.seen.add(mono)

    def report(self, tracer) -> None:
        tracer.count("localization.integrals", len(self.seen))
        tracer.counts["localization.repeat_frac"] = self.repeats / self.total if self.total else 0.0


def _realize_all(tracer, case: Case, polys) -> None:
    """Realize every symbol the given polynomials need, before integrating."""
    symbols = sorted({sym for poly in polys for mono in poly.terms for sym in mono})
    with tracer.span("localization.realize"):
        for i, name in symbols:
            case.realize_symbol(i, name)


# ---------------------------------------------------------------------------
# sweep-p2: one bundled case, verified end to end


def sweep_keys(case: Case, tracer=None) -> list:
    """Every (k, D) zero-sum check of the case, in the order the sweep runs them."""
    with _span(tracer, "descendents.basis"):
        return [
            (k, mono)
            for k in range(-1, case.vdim + 1)
            for mono in monomial_basis(case.surface, case.vdim - k)
        ]


def sweep_checks(case: Case, keys, out: Outcomes) -> None:
    """Integrate the three operator parts of every check; each must sum to 0."""
    for k, mono in keys:
        out.request(
            f"k={k} D={render_monomial(mono)}",
            lambda: case.operator_parts(k, mono),
            _zero_sum,
        )


class Sweep:
    """``verify --case <id>``: golden tables plus the full zero-sum sweep."""

    def __init__(self, case_id: str, ref: dict):
        self.case_id = case_id
        self.ref = ref

    def setup(self, tracer=None):
        with _span(tracer, "golden.load"):
            return golden.load_case(self.case_id)

    def _locus(self, tracer, gold, out: Outcomes):
        args = (gold.surface, gold.rank, gold.delta, gold.c2, gold.H)

        def build():
            with _span(tracer, "enumeration.fixed_locus"):
                sheaves = fixed_locus_cached(*args)
            case = _build_case(tracer, *args, sheaves)
            return sheaves, case

        def check(result):
            sheaves, _case = result
            got = (len(sheaves), sum(sh.is_locally_free for sh in sheaves))
            want = (self.ref["fixed_points"], self.ref["locally_free"])
            return [] if got == want else [f"fixed locus (points, locally free) {got} != {want}"]

        result = out.request("fixed locus", build, check)
        if result and tracer:
            tracer.count("enumeration.fixed_points", len(result[0]))
            tracer.count("enumeration.locally_free", sum(sh.is_locally_free for sh in result[0]))
        return result

    def _golden(self, tracer, gold, case: Case, out: Outcomes) -> None:
        with _span(tracer, "golden.compare"):
            out.request(
                "golden tables",
                lambda: golden.verify_case(gold, case),
                _report_problems,
                outputs=2 + len(gold.integrals),
            )
        _count(tracer, "golden.rows", len(gold.integrals))

    def run(self, gold, tracer=None) -> Outcomes:
        out = Outcomes()
        built = self._locus(tracer, gold, out)
        if built is None:
            return out
        case = built[1]
        if not tracer:
            self._golden(None, gold, case, out)
            keys = sweep_keys(case)
            sweep_checks(case, keys, out)
        else:
            _prepare(tracer, case)
            keys = sweep_keys(case, tracer)
            polys = []
            for k, mono in keys:
                with tracer.span("descendents.apply"):
                    parts = _operator_polys(k, mono, case)
                tracer.count("descendents.terms", sum(len(p.terms) for p in parts))
                polys.append(parts)
            _realize_all(tracer, case, [p for parts in polys for p in parts])
            self._golden(tracer, gold, case, out)
            requested = _Requested()
            for (k, mono), parts in zip(keys, polys):
                requested.add(parts)
                with tracer.span("localization.integrate"):
                    out.request(
                        f"k={k} D={render_monomial(mono)}",
                        lambda: tuple(case.integrate(p) for p in parts),
                        _zero_sum,
                    )
            requested.report(tracer)
            tracer.count("localization.certified_clearings", case.certified_clearings)
        if len(keys) != self.ref["checks"]:
            out.fail(f"{len(keys)} zero-sum checks, expected {self.ref['checks']}")
        return out


# ---------------------------------------------------------------------------
# chambers-f0: fixed loci only, no integration


def rows_digest(rows) -> str:
    return digest(sorted(golden.canonical_row_key(row) for row in rows))


class Chambers:
    """``enumerate --H all-chambers``: the fixed locus in every chamber."""

    def __init__(self, ref: dict, surface: str, rank: int, delta: tuple, c2: int):
        self.ref = ref
        self.args = (surface, rank, tuple(delta), c2)

    def setup(self, tracer=None):
        return surface_by_name(self.args[0])

    def _polarizations(self, tracer, surface, out: Outcomes):
        _name, rank, delta, c2 = self.args
        want = [list(H) for H in self.ref["chambers"]]

        def walls():
            with _span(tracer, "enumeration.walls"):
                wall_slopes(surface, rank, delta, c2)
                return chamber_representatives(surface, rank, delta, c2)

        reps = out.request(
            "walls",
            walls,
            lambda reps: [] if [list(H) for H in reps] == want else [f"chambers {reps}"],
        )
        _count(tracer, "enumeration.polarizations", len(reps or ()))
        return reps or []

    def _section(self, tracer, H):
        with _span(tracer, "enumeration.fixed_locus"):
            sheaves = fixed_locus_cached(*self.args, H)
        case = _build_case(tracer, *self.args, H, sheaves)
        with _span(tracer, "golden.compare"):
            rows = sorted(case.restrictions, key=golden.canonical_row_key)
        return sheaves, rows

    def run(self, surface, tracer=None) -> Outcomes:
        out = Outcomes()
        for H in self._polarizations(tracer, surface, out):
            want = self.ref["loci"][",".join(map(str, H))]

            def check(result):
                sheaves, rows = result
                got = {
                    "fixed_points": len(rows),
                    "locally_free": sum(sh.is_locally_free for sh in sheaves),
                    "digest": rows_digest(rows),
                }
                return [] if got == want else [f"locus {got} != recorded {want}"]

            result = out.request(f"H={H}", lambda: self._section(tracer, H), check)
            if result and tracer:
                tracer.count("enumeration.fixed_points", len(result[0]))
                tracer.count("enumeration.locally_free", sum(sh.is_locally_free for sh in result[0]))
        return out


def make_workload(name: str):
    """The named workload, with its recorded reference data."""
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    if name == "sweep-p2":
        return Sweep("p2-r2-c2-3", ref)
    if name == "chambers-f0":
        return Chambers(ref, "f0", 2, (1, 1), 3)
    raise KeyError(f"unknown workload {name!r}")
