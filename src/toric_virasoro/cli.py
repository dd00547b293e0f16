"""Command-line driver for enumeration, verification, and reporting.

Subcommands
-----------

``enumerate``    print the torus-fixed locus of one case (or of every
                 chamber) as a table of restriction characters
``verify``       recompute a bundled reference case (or all of them, or a
                 custom configuration) and check every zero-sum constraint
                 and every recorded table row exactly
``bracket``      prove the commutators of the graded operators on generators
``walls``        report wall slopes, chambers, and fixed-locus variants
``dump-golden``  list or re-render the bundled reference data

Exit codes: 0 all checks pass; 1 a verification or reference-table check
failed; 2 the configuration is invalid (unsupported surface/rank, bad
determinant pairing, polarization on a wall, a fixed locus that is not
isolated); 3 internal inconsistency (a localization sum failed to clear to
a polynomial).

The environment variable ``TORIC_VIRASORO_JOBS`` (or ``verify --jobs``) sets
the number of worker processes for ``verify --case``/``--all``, at most one
per case; reports are merged in case order, so the output is byte-identical
for any job count.
A ``--surface``/``--config`` run is one process: ``verify --jobs`` there is
a configuration error, and the environment variable is not read.  A
``--config`` JSON file may hold only the keys ``surface``, ``rank`` (or
``r``, but not both), ``delta``, ``c2`` and ``H``; any other key is a
configuration error.  ``verify --case``/``--all`` runs the bundled
configurations, so the case flags (``--surface``, ``--r``, ``--delta``,
``--c2``, ``--H``, ``--config``) are a configuration error there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import golden
from .descendents import BracketMismatch, bracket_suite
from .enumeration import (
    EnumerationError,
    chamber_representatives,
    fixed_locus_cached,
    polarization_gcd,
    wall_slopes,
)
from .exactalg import NotDivisible, render_character
from .golden import canonical_row_key
from .klyachko import NonIsolated, SlopeTie
from .localization import TrivialWeight, make_case, verify_conjecture
from .surfaces import surface_by_name

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

_SUPPORTED = ("p2", "f0", "f1", "f2")
_CONFIG_KEYS = ("surface", "rank", "r", "delta", "c2", "H")


class ConfigError(ValueError):
    """The requested case is malformed or outside the supported range."""


def _check_surface(name: str) -> None:
    if name not in _SUPPORTED:
        raise ConfigError(f"unknown surface {name!r}; expected one of {', '.join(_SUPPORTED)}")


# ---------------------------------------------------------------------------
# case configuration


@dataclass
class CaseConfig:
    """A fully specified verification target.

    ``H`` may be an explicit coefficient tuple or the string
    ``"all-chambers"``, which expands to one representative polarization per
    chamber of the ample cone.
    """

    surface: str
    rank: int
    delta: tuple[int, ...]
    c2: int
    H: tuple[int, ...] | str | None = None
    fmt: str = "plain"

    def __post_init__(self):
        if not isinstance(self.surface, str):
            raise ConfigError(f"surface must be a name, got {self.surface!r}")
        self.surface = self.surface.lower()
        self.rank = _as_int(self.rank, "rank")
        self.c2 = _as_int(self.c2, "c2")
        self.delta = _as_ints(self.delta, "delta")
        if isinstance(self.H, (list, tuple)):
            self.H = _as_ints(self.H, "H")

    def validate(self) -> None:
        _check_surface(self.surface)
        srf = surface_by_name(self.surface)
        if self.rank == 2:
            pass
        elif self.rank in (3, 4) and self.surface == "p2":
            pass
        else:
            raise ConfigError(
                f"rank {self.rank} on {self.surface} is not supported "
                "(rank 2 everywhere; ranks 3 and 4 on p2 only)"
            )
        want = srf.picard_rank
        if len(self.delta) != want:
            raise ConfigError(
                f"delta needs {want} coefficient(s) for {self.surface}, got {len(self.delta)}"
            )
        if self.c2 < 0:
            raise ConfigError("c2 must be nonnegative")
        g = polarization_gcd(srf, self.rank, self.delta)
        if g != 1:
            raise ConfigError(
                f"gcd(rank, delta.D) = {g} over the basis divisors D, so gcd(rank, delta.H)"
                " != 1 for every polarization H; stability would never be strict"
            )

    def _validate_polarization(self, srf, H: tuple[int, ...]) -> None:
        if len(H) != srf.picard_rank:
            raise ConfigError(
                f"H needs {srf.picard_rank} coefficient(s) for {self.surface}"
            )
        if not srf.is_ample(H):
            if srf.picard_rank == 1:
                raise ConfigError("H must be ample: positive degree on p2")
            a = -srf.intersection[1][1]  # Z^2 = -a on F_a
            raise ConfigError(
                f"H = {H[0]}F+{H[1]}Z is not ample on {self.surface} "
                f"(needs hz >= 1 and hf > {a}*hz)"
            )
        if self.rank == 2 and srf.picard_rank == 2:
            hf, hz = H
            slope = Fraction(hf, hz)
            if slope in wall_slopes(srf, self.rank, self.delta, self.c2):
                raise ConfigError(
                    f"H = {hf}F+{hz}Z lies on a wall (slope {slope}); "
                    "pick a polarization in the interior of a chamber"
                )
        pairing = srf.pair(self.delta, H)
        if gcd(self.rank, pairing) != 1:
            raise ConfigError(
                f"gcd(rank, delta.H) = gcd({self.rank}, {pairing}) != 1; "
                "stability would not be strict for this pairing"
            )

    def polarizations(self) -> list[tuple[int, ...]]:
        """Resolve ``H`` to a concrete list of polarizations, each one validated."""
        srf = surface_by_name(self.surface)
        if isinstance(self.H, tuple):
            reps = [self.H]
        elif self.H == "all-chambers" or (self.H is None and self.surface == "p2"):
            reps = chamber_representatives(srf, self.rank, self.delta, self.c2)
        elif self.H is None:
            raise ConfigError("this surface has chambers; pass --H explicitly or --H all-chambers")
        else:
            raise ConfigError(f"cannot interpret H = {self.H!r}")
        for H in reps:
            self._validate_polarization(srf, H)
        return reps

    def label(self, H: tuple[int, ...]) -> str:
        delta = ",".join(str(x) for x in self.delta)
        hh = ",".join(str(x) for x in H)
        return f"{self.surface} r={self.rank} delta=({delta}) c2={self.c2} H=({hh})"


def _as_int(value, what: str) -> int:
    """An integer configuration value; a bool or a non-integral number is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _as_ints(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_as_int(x, f"{what} entry") for x in values)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _config_from_args(args) -> CaseConfig:
    merged = dict.fromkeys(("surface", "rank", "delta", "c2", "H"))
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown key(s) {', '.join(map(repr, unknown))};"
                f" expected {', '.join(_CONFIG_KEYS)}"
            )
        if "rank" in raw and "r" in raw:
            raise ConfigError(f"{args.config}: give the rank as 'rank' or as 'r', not both")
        merged.update({key: raw.get(key) for key in merged}, rank=raw.get("rank", raw.get("r")))
    flags = dict(surface=args.surface, rank=args.r, delta=args.delta, c2=args.c2, H=args.H)
    merged.update({key: value for key, value in flags.items() if value is not None})
    missing = [key for key in ("surface", "rank", "delta", "c2") if merged[key] is None]
    if missing:
        raise ConfigError(f"missing required configuration fields: {', '.join(missing)}")
    if isinstance(merged["delta"], str):
        merged["delta"] = _parse_ints(merged["delta"])
    if isinstance(merged["H"], str) and merged["H"] != "all-chambers":
        merged["H"] = _parse_ints(merged["H"])
    cfg = CaseConfig(
        surface=merged["surface"],
        rank=merged["rank"],
        delta=merged["delta"],
        c2=merged["c2"],
        H=merged["H"],
        fmt=args.format,
    )
    cfg.validate()
    return cfg


def _resolve_jobs(args) -> int:
    jobs = args.jobs
    if jobs is None:
        jobs = os.environ.get("TORIC_VIRASORO_JOBS", "1")
    try:
        jobs = int(jobs)
    except ValueError:
        raise ConfigError(f"jobs must be an integer, got {jobs!r}") from None
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return jobs


# ---------------------------------------------------------------------------
# enumerate


def _sorted_rows(case, tex: bool) -> list[list[str]]:
    """The case's restriction rows in key order, each chart rendered (:func:`render_character`)."""
    rows = sorted(case.restrictions, key=canonical_row_key)
    return [[render_character(chart, tex) for chart in row] for row in rows]


def _chart_headers(surface) -> list[str]:
    return [f"F|X_{q + 1}" for q in range(len(surface.points))]


def cmd_enumerate(args) -> int:
    cfg = _config_from_args(args)
    srf = surface_by_name(cfg.surface)
    sections = []
    for H in cfg.polarizations():
        case = make_case(cfg.surface, cfg.rank, cfg.delta, cfg.c2, H)
        case.tangents()  # certifies isolation: NonIsolated exits 2
        rows = _sorted_rows(case, cfg.fmt == "markdown")
        sections.append((H, case, rows))
    if cfg.fmt == "json":
        payload = [
            {
                "case": cfg.label(H),
                "dim": case.vdim,
                "fixed_points": len(rows),
                "rows": rows,
            }
            for H, case, rows in sections
        ]
        print(json.dumps(payload, indent=1))
        return EXIT_PASS
    for H, case, rows in sections:
        print(f"{cfg.label(H)}  dim M = {case.vdim}  fixed points: {len(rows)}")
        headers = _chart_headers(srf)
        if cfg.fmt == "markdown":
            print("| " + " | ".join(f"$F\\vert_{{X_{q+1}}}$" for q in range(len(headers))) + " |")
            print("|" + "---|" * len(headers))
            for row in rows:
                print("| " + " | ".join(f"${chart}$" for chart in row) + " |")
        else:
            widths = [
                max([len(h)] + [len(row[i]) for row in rows])
                for i, h in enumerate(headers)
            ]
            print("  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for row in rows:
                print(
                    "  "
                    + " | ".join(row[i].ljust(widths[i]) for i in range(len(headers)))
                )
        print()
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


def _summarize(case, sheaves, config: str, report: golden.CaseReport) -> dict:
    """Run the zero-sum sweep on a case; returns a JSON-able summary."""
    sweep = verify_conjecture(case)
    nonzero = [f"k={row.k} D={row.label}: sum {row.total}" for row in sweep if row.total]
    return {
        "case": report.case_id,
        "config": config,
        "dim": case.vdim,
        "dim_ok": report.dim_ok,
        "fixed_points": case.n_points,
        "locally_free": sum(1 for sh in sheaves if sh.is_locally_free),
        "k_rows": report.k_status,
        "k_messages": list(report.k_messages),
        "golden_rows": report.integral_count,
        "golden_failures": list(report.integral_failures),
        "checks": len(sweep),
        "nonzero": nonzero,
        "certified_clearings": case.certified_clearings,
        "ok": report.ok and not nonzero,
    }


def _verify_bundled(case_id: str) -> dict:
    """Recompute one bundled reference case and check its recorded tables."""
    gold = golden.load_case(case_id)
    sheaves = fixed_locus_cached(gold.surface, gold.rank, gold.delta, gold.c2, gold.H)
    case = make_case(gold.surface, gold.rank, gold.delta, gold.c2, gold.H, sheaves=sheaves)
    report = golden.verify_case(gold, case)
    config = f"{gold.surface} r={gold.rank} delta={gold.delta} c2={gold.c2} H={gold.H}"
    return _summarize(case, sheaves, config, report)


def _verify_config(cfg_fields: tuple, H: tuple[int, ...]) -> dict:
    surface, rank, delta, c2 = cfg_fields
    sheaves = fixed_locus_cached(surface, rank, delta, c2, H)
    case = make_case(surface, rank, delta, c2, H, sheaves=sheaves)
    config = f"{surface} r={rank} delta={delta} c2={c2} H={H}"
    return _summarize(case, sheaves, config, golden.CaseReport(config, k_status="no recorded rows"))


def _render_case_summary(summary: dict, fmt: str) -> str:
    if fmt == "markdown":
        status = "pass" if summary["ok"] else "**FAIL**"
        return (
            f"| {summary['case']} | {summary['dim']} | {summary['fixed_points']} "
            f"| {summary['k_rows']} | {summary['golden_rows']} | {summary['checks']} | {status} |"
        )
    lines = [f"case {summary['case']}: {'PASS' if summary['ok'] else 'FAIL'}"]
    lines.append(f"  {summary['config']}  dim M = {summary['dim']}")
    if not summary["dim_ok"]:
        lines.append("  recorded dimension disagrees with the computed one")
    lines.append(
        f"  fixed locus: {summary['fixed_points']} points"
        f" ({summary['locally_free']} locally free); recorded rows: {summary['k_rows']}"
    )
    for msg in summary["k_messages"]:
        lines.append(f"    {msg}")
    if summary["golden_rows"]:
        good = summary["golden_rows"] - len(summary["golden_failures"])
        lines.append(f"  recorded integral rows: {good}/{summary['golden_rows']} exact")
        for msg in summary["golden_failures"]:
            lines.append(f"    MISMATCH {msg}")
    lines.append(
        f"  zero-sum checks: {summary['checks']}"
        f" ({'all zero' if not summary['nonzero'] else str(len(summary['nonzero'])) + ' NONZERO'});"
        f" certified clearings: {summary['certified_clearings']}"
    )
    for msg in summary["nonzero"]:
        lines.append(f"    NONZERO {msg}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    fmt = args.format
    if args.case or args.all:
        flags = ("surface", "r", "delta", "c2", "H", "config")
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise ConfigError(
                f"{', '.join(given)} cannot be combined with --case/--all;"
                " a bundled case fixes its own configuration"
            )
        ids = golden.list_cases() if args.all else [args.case]
        unknown = [cid for cid in ids if cid not in golden.list_cases()]
        if unknown:
            raise ConfigError(f"unknown case id(s): {', '.join(unknown)}")
        # the pool starts all its workers at once, so never more than there are cases
        jobs = min(_resolve_jobs(args), len(ids))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                summaries = list(pool.map(_verify_bundled, ids))
        else:
            summaries = [_verify_bundled(cid) for cid in ids]
    else:
        if args.jobs is not None:
            raise ConfigError(
                "--jobs applies to --case/--all; a --surface/--config run is one process"
            )
        cfg = _config_from_args(args)
        fmt = cfg.fmt
        summaries = [
            _verify_config((cfg.surface, cfg.rank, cfg.delta, cfg.c2), H)
            for H in cfg.polarizations()
        ]
    summaries.sort(key=lambda s: s["case"])
    if fmt == "json":
        print(json.dumps(summaries, indent=1))
    else:
        if fmt == "markdown":
            print("| case | dim | fixed points | recorded rows | golden rows | checks | status |")
            print("|---|---|---|---|---|---|---|")
        for summary in summaries:
            print(_render_case_summary(summary, fmt))
            if fmt == "plain":
                print()
        total = sum(s["checks"] for s in summaries)
        failed = [s["case"] for s in summaries if not s["ok"]]
        if fmt != "markdown":
            print(f"total zero-sum checks: {total} across {len(summaries)} case(s)")
            print("result: " + ("PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"))
    return EXIT_PASS if all(s["ok"] for s in summaries) else EXIT_FAIL


# ---------------------------------------------------------------------------
# bracket, walls, dump-golden


def cmd_bracket(args) -> int:
    # smaller bounds would check no identity and pass vacuously
    if args.max_k < -1:
        raise ConfigError(f"max-k must be >= -1, got {args.max_k}")
    if args.max_degree < 0:
        raise ConfigError(f"max-degree must be >= 0, got {args.max_degree}")
    # every name is refused before any surface is checked; each is checked once
    names = list(dict.fromkeys(name.lower() for name in args.surface or ["p2", "f0"]))
    for name in names:
        _check_surface(name)
    total = 0
    for name in names:
        srf = surface_by_name(name)
        try:
            checked = bracket_suite(srf, max_k=args.max_k, max_degree=args.max_degree)
        except BracketMismatch as exc:
            print(f"{name}: FAIL ({exc})")
            return EXIT_FAIL
        print(
            f"{name}: PASS ({checked} identities, k up to {args.max_k},"
            f" monomial degree up to {args.max_degree})"
        )
        total += checked
    print(f"bracket suite: PASS ({total} identities)")
    return EXIT_PASS


def cmd_walls(args) -> int:
    cfg = CaseConfig(
        surface=args.surface,
        rank=args.r,
        delta=_parse_ints(args.delta),
        c2=args.c2,
        fmt=args.format,
    )
    cfg.validate()
    srf = surface_by_name(cfg.surface)
    if cfg.surface == "p2":
        if cfg.fmt == "json":
            print(json.dumps({"surface": "p2", "walls": [], "chambers": 1}))
        else:
            print("p2: the ample cone is one-dimensional; no walls, a single chamber")
        return EXIT_PASS
    slopes = wall_slopes(srf, cfg.rank, cfg.delta, cfg.c2)
    reps = chamber_representatives(srf, cfg.rank, cfg.delta, cfg.c2)
    variants: dict[tuple, int] = {}
    rows = []
    empty = 0
    for H in reps:
        locus = fixed_locus_cached(cfg.surface, cfg.rank, cfg.delta, cfg.c2, H)
        if not locus:
            empty += 1
            rows.append((H, 0, None))
            continue
        case = make_case(cfg.surface, cfg.rank, cfg.delta, cfg.c2, H, sheaves=locus)
        case.tangents()  # certifies isolation: NonIsolated exits 2
        key = tuple(sorted(canonical_row_key(charts) for charts in case.restrictions))
        variant = variants.setdefault(key, len(variants) + 1)
        rows.append((H, len(locus), variant))
    if cfg.fmt == "json":
        print(
            json.dumps(
                {
                    "surface": cfg.surface,
                    "walls": [str(s) for s in slopes],
                    "chambers": len(reps),
                    "chamber_reps": [
                        {"H": list(H), "fixed_points": n, "variant": v} for H, n, v in rows
                    ],
                    "variants": len(variants),
                    "empty_chambers": empty,
                },
                indent=1,
            )
        )
        return EXIT_PASS
    print(f"{cfg.surface} r={cfg.rank} delta={cfg.delta} c2={cfg.c2}")
    print(f"walls (slope hF/hZ): {' '.join(str(s) for s in slopes)}  ({len(slopes)} walls)")
    print(f"chambers: {len(reps)}")
    for H, n, v in rows:
        tag = "empty" if v is None else f"{n} fixed points  [variant {v}]"
        print(f"  H = {H[0]}F+{H[1]}Z: {tag}")
    suffix = f"  ({empty} empty chamber(s))" if empty else ""
    print(f"distinct fixed-locus variants: {len(variants)}{suffix}")
    return EXIT_PASS


def cmd_dump_golden(args) -> int:
    if not args.case:
        for cid in golden.list_cases():
            gold = golden.load_case(cid)
            print(
                f"{cid}: dim {gold.dim}, {len(gold.k_rows)} fixed sheaves,"
                f" {len(gold.integrals)} integral rows"
            )
        return EXIT_PASS
    gold = golden.load_case(args.case)
    if args.format == "json":
        raw = golden._data_dir().joinpath(args.case + ".json").read_text()
        print(raw, end="")
        return EXIT_PASS
    tex = args.format == "markdown"
    print(f"case {gold.id}: surface {gold.surface}, rank {gold.rank},"
          f" delta {gold.delta}, c2 {gold.c2}, H {gold.H}, dim {gold.dim}")
    for note in gold.notes:
        print(f"  note: {note}")
    print("fixed sheaves:")
    for row in gold.k_rows:
        rendered = " | ".join(render_character(chart, tex) for chart in row.charts)
        flag = "  [sign slip]" if row.sign_corrupt else ""
        print(f"  {rendered}{flag}")
    if gold.integrals:
        print("integral rows (D, R part, T part, S part):")
        for row in gold.integrals:
            extra = "".join(
                f"  [{part} recorded in source as {val}]" for part, val in row.printed
            )
            print(f"  {row.label}: {row.r_value}, {row.t_value}, {row.s_value}{extra}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


def _add_config_flags(sub):
    sub.add_argument("--surface", help="p2, f0, f1 or f2")
    sub.add_argument("--r", type=int, help="sheaf rank")
    sub.add_argument("--delta", help="determinant coefficients, e.g. 1 or 1,1")
    sub.add_argument("--c2", type=int, help="second Chern number")
    sub.add_argument("--H", help="polarization coefficients, or all-chambers")
    sub.add_argument("--config", help="JSON file with the same fields")
    sub.add_argument(
        "--format", choices=("plain", "json", "markdown"), default="plain", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-virasoro",
        description="Exact verification of Virasoro sum rules on sheaf moduli over toric surfaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    enum = subs.add_parser("enumerate", help="print the torus-fixed locus of a case")
    _add_config_flags(enum)
    enum.set_defaults(func=cmd_enumerate)

    ver = subs.add_parser("verify", help="verify zero sums and recorded tables")
    ver.add_argument("--case", help="bundled case id (see dump-golden)")
    ver.add_argument("--all", action="store_true", help="verify every bundled case")
    ver.add_argument(
        "--jobs",
        type=int,
        help="processes for --case/--all (default $TORIC_VIRASORO_JOBS or 1);"
        " refused with --surface/--config",
    )
    _add_config_flags(ver)
    ver.set_defaults(func=cmd_verify)

    what = "prove the operator commutators on generators; count the (identity, monomial) pairs covered"
    br = subs.add_parser("bracket", help=what, description=what)
    br.add_argument("--max-k", type=int, default=4, help="largest operator index")
    br.add_argument("--max-degree", type=int, default=6, help="largest monomial degree counted")
    br.add_argument("--surface", action="append", help="surface basis (repeatable; default p2 and f0)")
    br.set_defaults(func=cmd_bracket)

    wl = subs.add_parser("walls", help="report walls, chambers, and locus variants")
    wl.add_argument("--surface", required=True)
    wl.add_argument("--r", type=int, required=True)
    wl.add_argument("--delta", required=True)
    wl.add_argument("--c2", type=int, required=True)
    wl.add_argument("--format", choices=("plain", "json", "markdown"), default="plain")
    wl.set_defaults(func=cmd_walls)

    dg = subs.add_parser("dump-golden", help="list or print bundled reference cases")
    dg.add_argument("--case", help="case id; omit to list all")
    dg.add_argument("--format", choices=("plain", "json", "markdown"), default="plain")
    dg.set_defaults(func=cmd_dump_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SlopeTie) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NonIsolated as exc:
        print(f"configuration error: the fixed locus is not isolated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotDivisible, TrivialWeight) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
