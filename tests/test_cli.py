"""Command-line interface: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toric_virasoro
from toric_virasoro import cli
from toric_virasoro.cli import main
from toric_virasoro.enumeration import EnumerationError
from toric_virasoro.klyachko import SlopeTie


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cli_process(argv, **env_vars):
    """Run the CLI in a fresh interpreter; a minute-long run fails as a timeout."""
    src = str(Path(toric_virasoro.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "toric_virasoro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestEnumerate:
    def test_f0_rank_two(self, capsys):
        code, out = run(
            capsys, "enumerate", "--surface", "f0", "--r", "2",
            "--delta", "1,1", "--c2", "2", "--H", "2,5",
        )
        assert code == 0
        assert "fixed points: 4" in out

    def test_p2_point_case(self, capsys):
        code, out = run(
            capsys, "enumerate", "--surface", "p2", "--r", "2",
            "--delta", "1", "--c2", "1", "--H", "1",
        )
        assert code == 0
        assert "fixed points: 1" in out

    def test_json_output_parses(self, capsys):
        code, out = run(
            capsys, "enumerate", "--surface", "f0", "--r", "2",
            "--delta", "1,1", "--c2", "2", "--H", "2,5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        (section,) = payload
        assert section["fixed_points"] == 4
        assert len(section["rows"]) == 4
        assert all(len(row) == 4 for row in section["rows"])

    def test_markdown_output(self, capsys):
        code, out = run(
            capsys, "enumerate", "--surface", "p2", "--r", "2",
            "--delta", "1", "--c2", "1", "--H", "1", "--format", "markdown",
        )
        assert code == 0
        assert r"$F\vert_{X_1}$" in out

    def test_all_chambers(self, capsys):
        code, out = run(
            capsys, "enumerate", "--surface", "f0", "--r", "2",
            "--delta", "1,0", "--c2", "1", "--H", "all-chambers",
        )
        assert code == 0
        assert out.count("H=(") >= 2

    def test_determinism(self, capsys):
        argv = (
            "enumerate", "--surface", "f1", "--r", "2",
            "--delta", "0,1", "--c2", "1", "--H", "3,2",
        )
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "surface": "f0", "r": 2, "delta": [1, 1], "c2": 2, "H": [2, 5],
        }))
        code, out = run(capsys, "enumerate", "--config", str(cfg))
        assert code == 0
        assert "fixed points: 4" in out


class TestVerify:
    def test_bundled_point_cases_pass(self, capsys):
        code, out = run(capsys, "verify", "--case", "p2-r2-c2-1")
        assert code == 0
        assert "PASS" in out
        code, out = run(capsys, "verify", "--case", "f1-FZ-c2-1")
        assert code == 0
        assert "PASS" in out


class TestExitCodes:
    def test_unknown_case_is_config_error(self, capsys):
        code, _ = run(capsys, "verify", "--case", "no-such-case")
        assert code == 2

    def test_unsupported_rank_is_config_error(self, capsys):
        code, _ = run(
            capsys, "enumerate", "--surface", "f0", "--r", "3",
            "--delta", "1,0", "--c2", "2", "--H", "2,5",
        )
        assert code == 2

    def test_walls_in_an_unsupported_rank_is_config_error(self, capsys):
        code = main(["walls", "--surface", "f0", "--r", "3", "--delta", "1,0", "--c2", "2"])
        assert code == 2
        assert "rank 3 on f0 is not supported" in capsys.readouterr().err

    def test_missing_polarization_is_refused_before_the_chambers_are_built(
        self, capsys, monkeypatch
    ):
        def no_chambers(*args):
            raise AssertionError("chambers built before the missing --H was refused")

        monkeypatch.setattr(cli, "chamber_representatives", no_chambers)
        code = main(["enumerate", "--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2"])
        assert code == 2
        assert "pass --H explicitly" in capsys.readouterr().err

    def test_enumeration_error_is_an_internal_inconsistency(self, capsys, monkeypatch):
        # whatever its message, an EnumerationError that reaches main exits 3
        def fail(*args):
            raise EnumerationError("unsupported case: reached main")

        monkeypatch.setattr(cli, "make_case", fail)
        code = main(
            ["enumerate", "--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2",
             "--H", "2,5"]
        )
        assert code == 3
        assert "internal inconsistency: unsupported case" in capsys.readouterr().err

    def test_on_wall_polarization_is_config_error(self, capsys):
        code, _ = run(
            capsys, "enumerate", "--surface", "f0", "--r", "2",
            "--delta", "1,0", "--c2", "2", "--H", "1,1",
        )
        assert code == 2

    def test_slope_tie_is_config_error(self, capsys):
        code, _ = run(
            capsys, "enumerate", "--surface", "f0", "--r", "2",
            "--delta", "2,0", "--c2", "2", "--H", "2,5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [("c2", 2.9), ("delta", [1.5, 1]), ("rank", True), ("H", [2, "5x"]),
         ("delta", 1), ("surface", 0)],
    )
    def test_malformed_config_value_is_config_error(self, capsys, tmp_path, field, value):
        # a truncating int() would quietly run c2 = 2.9 as c2 = 2; a wrong
        # shape must not crash with a traceback and the "check failed" code
        raw = {"surface": "f0", "r": 2, "delta": [1, 1], "c2": 2, "H": [2, 5]}
        raw["r" if field == "rank" else field] = value
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(raw))
        code, out = run(capsys, "enumerate", "--config", str(cfg))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", *("--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2"),
             "--H", "2,5", "--cap", "1"),
            ("enumerate", *("--surface", "p2", "--r", "2", "--delta", "1", "--c2", "1"),
             "--jobs", "2"),
            ("verify", "--all", "--jobs", "2"),
            ("verify", "--case", "p2-r2-c2-1", "--jobs", "1"),
        ],
    )
    def test_removed_options_are_rejected(self, capsys, argv):
        # the series cap is derived (vdim + 2), and enumerate and verify run in one process
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, raw, key",
        [
            # a leftover key once printed PASS; a misspelt one silently ran H = (1)
            ("verify", {"surface": "f0", "r": 2, "delta": [1, 1], "c2": 2, "H": [2, 5],
                        "cap": 1}, "'cap'"),
            ("enumerate", {"surface": "p2", "r": 2, "delta": [1], "c2": 1, "h": [3]}, "'h'"),
        ],
    )
    def test_unknown_config_key_is_config_error(self, capsys, tmp_path, command, raw, key):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(raw))
        code = main([command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown key(s) " + key in captured.err

    def test_config_with_rank_and_r_is_config_error(self, capsys, tmp_path):
        # taking one and dropping the other once ran rank 2 for "r": 3
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(
            {"surface": "f0", "rank": 2, "r": 3, "delta": [1, 1], "c2": 2, "H": [2, 5]}
        ))
        code = main(["enumerate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'rank' or as 'r', not both" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--surface", "f0"), ("--r", "3"), ("--delta", "1,0"), ("--c2", "2"),
         ("--H", "2,5"), ("--config", "case.json")],
    )
    @pytest.mark.parametrize("target", [("--case", "p2-r2-c2-1"), ("--all",)])
    def test_case_flags_on_a_bundled_run_are_config_error(self, capsys, target, flag, value):
        # a bundled case fixes its configuration; the flags once were ignored
        # and the run printed PASS
        code = main(["verify", *target, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag} cannot be combined with --case/--all" in captured.err

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_non_isolated_locus_is_config_error(self, capsys, command):
        # f2, c1 = Z, c2 = 3: a degeneration site has a continuum of choices
        code = main([
            command, "--surface", "f2", "--r", "2", "--delta", "0,1", "--c2", "3", "--H", "7,3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the fixed locus is not isolated: site" in captured.err

    def test_trivial_tangent_weight_is_config_error(self, capsys):
        # f1, c1 = F, c2 = 2, H = 4F + 3Z: some fixed points have the trivial
        # weight in their tangent space, so the locus is not isolated either
        code = main([
            "verify", "--surface", "f1", "--r", "2", "--delta", "1,0", "--c2", "2", "--H", "4,3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the fixed locus is not isolated: trivial weight" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--H", "4,3"), ("walls",)],
        ids=["enumerate", "walls"],
    )
    def test_enumerate_and_walls_refuse_a_trivial_tangent_weight(self, capsys, argv):
        # the locus that verify refuses above: printing it would exit 0
        command, *flags = argv
        code = main([
            command, "--surface", "f1", "--r", "2", "--delta", "1,0", "--c2", "2", *flags,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the fixed locus is not isolated: trivial weight" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("walls", "--surface", "f0", "--r", "2", "--delta", "0,0", "--c2", "2"),
            ("enumerate", "--surface", "f0", "--r", "2", "--delta", "2,0", "--c2", "2",
             "--H", "all-chambers"),
            ("verify", "--surface", "f0", "--r", "2", "--delta", "2,0", "--c2", "2",
             "--H", "all-chambers"),
            ("verify", "--surface", "p2", "--r", "2", "--delta", "0", "--c2", "2",
             "--H", "all-chambers"),
        ],
        ids=["walls-f0", "enumerate-f0", "verify-f0", "verify-p2"],
    )
    def test_no_coprime_polarization_is_config_error(self, argv):
        # gcd(rank, delta.D) = 2 over the basis divisors: no H gives
        # gcd(rank, delta.H) = 1.  The chamber search once looped forever on
        # f0, and p2 reached a slope tie with a traceback.
        proc = cli_process(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "gcd(rank, delta.D) = 2 over the basis divisors" in proc.stderr

    def test_slope_tie_reaching_main_is_config_error(self, capsys, monkeypatch):
        def tie(*args):
            raise SlopeTie("polarization (1,) is on a wall for this sheaf")

        monkeypatch.setattr(cli, "make_case", tie)
        code = main(["enumerate", "--surface", "p2", "--r", "2", "--delta", "1", "--c2", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "configuration error: polarization (1,) is on a wall" in captured.err

    def test_non_ample_polarization_is_config_error(self, capsys):
        code, _ = run(
            capsys, "enumerate", "--surface", "f2", "--r", "2",
            "--delta", "1,0", "--c2", "1", "--H", "1,1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "surface, delta, H, message",
        [
            ("f2", "1,0", "1,1", "H = 1F+1Z is not ample on f2 (needs hz >= 1 and hf > 2*hz)"),
            ("f2", "1,0", "5,0", "H = 5F+0Z is not ample on f2 (needs hz >= 1 and hf > 2*hz)"),
            ("f0", "1,0", "0,3", "H = 0F+3Z is not ample on f0 (needs hz >= 1 and hf > 0*hz)"),
            ("f1", "1,0", "3,3", "H = 3F+3Z is not ample on f1 (needs hz >= 1 and hf > 1*hz)"),
            ("p2", "1", "0", "H must be ample: positive degree on p2"),
        ],
    )
    def test_non_ample_polarization_message(self, capsys, surface, delta, H, message):
        argv = ["enumerate", "--surface", surface, "--r", "2", "--delta", delta, "--c2", "1"]
        assert main([*argv, "--H", H]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


class TestWalls:
    def test_f0_walls(self, capsys):
        code, out = run(
            capsys, "walls", "--surface", "f0", "--r", "2",
            "--delta", "1,0", "--c2", "2",
        )
        assert code == 0
        assert "(7 walls)" in out
        assert "chambers: 8" in out
        assert "distinct fixed-locus variants: 2" in out

    def test_p2_has_no_walls(self, capsys):
        code, out = run(
            capsys, "walls", "--surface", "p2", "--r", "2",
            "--delta", "1", "--c2", "2",
        )
        assert code == 0
        assert "no walls" in out


class TestBracket:
    def test_small_suite(self, capsys):
        code, out = run(
            capsys, "bracket", "--max-k", "1", "--max-degree", "2",
            "--surface", "p2",
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-k", "-2", "max-k must be >= -1"), ("--max-degree", "-1", "max-degree must be >= 0")],
    )
    def test_bounds_that_check_nothing_are_config_errors(self, capsys, flag, value, message):
        # below these bounds the suite checks no identity and would pass vacuously
        code = main(["bracket", flag, value, "--surface", "p2"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "PASS" not in captured.out

    def test_smallest_bounds_check_an_identity(self, capsys):
        code, out = run(capsys, "bracket", "--max-k", "-1", "--max-degree", "0", "--surface", "p2")
        assert code == 0
        assert "p2: PASS (1 identities" in out

    def test_an_unknown_surface_is_refused_before_any_is_checked(self, capsys):
        code = main(["bracket", "--surface", "p2", "--surface", "xx"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown surface 'xx'; expected one of p2, f0, f1, f2" in captured.err

    def test_surface_names_are_lower_cased(self, capsys):
        code, out = run(capsys, "bracket", "--max-k", "1", "--max-degree", "2", "--surface", "P2")
        assert code == 0
        assert out.startswith("p2: PASS (")

    def test_a_repeated_surface_is_checked_once(self, capsys):
        argv = ("bracket", "--max-k", "1", "--max-degree", "2", "--surface")
        _, once = run(capsys, *argv, "p2")
        code, twice = run(capsys, *argv, "p2", "--surface", "P2", "--surface", "p2")
        assert code == 0
        assert twice == once

    def test_a_fault_fails_the_surface_with_exit_1(self, capsys, bracket_fault):
        code, out = run(capsys, "bracket", "--surface", "f1", "--surface", "p2")
        assert code == 1
        assert out == f"f1: FAIL ({bracket_fault})\n"


class TestDumpGolden:
    def test_listing(self, capsys):
        code, out = run(capsys, "dump-golden")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert sum("p2-" in l or "f0-" in l or "f1-" in l or "f2-" in l for l in lines) == 16

    def test_single_case_json(self, capsys):
        code, out = run(capsys, "dump-golden", "--case", "p2-r4-c2-3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["id"] == "p2-r4-c2-3"

    def test_typo_annotation(self, capsys):
        code, out = run(capsys, "dump-golden", "--case", "p2-r4-c2-3")
        assert code == 0
        assert "recorded in source as" in out

    def test_a_path_outside_the_bundled_cases_is_a_config_error(self, capsys):
        # the path names a bundled file, but only a listed case id is read
        code = main(["dump-golden", "--case", "../golden/p2-r2-c2-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no recorded case named '../golden/p2-r2-c2-3'" in captured.err


TRANSCRIPT_DIR = Path(__file__).parent / "data" / "cli"
_VERIFY = ("verify", "--case", "f0-FZ-c2-2-H2F5Z")
_F0_R2 = ("--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2")
_P2_R2 = ("--surface", "p2", "--r", "2", "--delta", "1", "--c2", "2")
_P2_R3 = ("--surface", "p2", "--r", "3", "--delta", "1")
# recorded stdout file -> the command line that printed it
TRANSCRIPTS = {
    "verify-f0-FZ-c2-2-H2F5Z.txt": _VERIFY,
    "verify-f0-FZ-c2-2-H2F5Z.json.txt": (*_VERIFY, "--format", "json"),
    "verify-f0-FZ-c2-2-H2F5Z.md.txt": (*_VERIFY, "--format", "markdown"),
    "verify-p2-r2-c2-3.txt": ("verify", "--case", "p2-r2-c2-3"),
    "verify-all.txt": ("verify", "--all"),
    "verify-all.md.txt": ("verify", "--all", "--format", "markdown"),
    "enumerate-f0-r2-all-chambers.txt": ("enumerate", *_F0_R2, "--H", "all-chambers"),
    "enumerate-f0-r2-c2-3-all-chambers.txt": (
        "enumerate", "--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "3",
        "--H", "all-chambers",
    ),
    "enumerate-f0-r2-c2-2-H2F5Z.json.txt": ("enumerate", *_F0_R2, "--H", "2,5", "--format", "json"),
    "enumerate-p2-r2-c2-2.md.txt": ("enumerate", *_P2_R2, "--format", "markdown"),
    "enumerate-p2-r3-c2-2.txt": ("enumerate", *_P2_R3, "--c2", "2"),
    "enumerate-p2-r3-c2-3.txt": ("enumerate", *_P2_R3, "--c2", "3"),
    "walls-f0-r2-c2-2.txt": ("walls", *_F0_R2),
    "dump-golden-p2-r2-c2-3.txt": ("dump-golden", "--case", "p2-r2-c2-3"),
    "dump-golden-p2-r2-c2-3.md.txt": ("dump-golden", "--case", "p2-r2-c2-3", "--format", "markdown"),
    "walls-f1-r2-c2-2.txt": ("walls", "--surface", "f1", "--r", "2", "--delta", "0,1", "--c2", "2"),
    "walls-f2-r2-c2-2.txt": ("walls", "--surface", "f2", "--r", "2", "--delta", "0,1", "--c2", "2"),
    "bracket-k4-d6-p2-f0-f1-f2.txt": (
        "bracket", "--max-k", "4", "--max-degree", "6",
        "--surface", "p2", "--surface", "f0", "--surface", "f1", "--surface", "f2",
    ),
}


@pytest.mark.parametrize("transcript", sorted(TRANSCRIPTS))
def test_output_matches_recorded_transcript(capsys, transcript):
    # the recorded stdout is the contract: any change to it must be deliberate
    code, out = run(capsys, *TRANSCRIPTS[transcript])
    assert code == 0
    assert out == (TRANSCRIPT_DIR / transcript).read_text()


@pytest.mark.parametrize("seed", ["1", "12345"])
@pytest.mark.parametrize(
    "transcript",
    [
        "enumerate-f0-r2-all-chambers.txt",
        "enumerate-f0-r2-c2-3-all-chambers.txt",
        "walls-f0-r2-c2-2.txt",
        "walls-f1-r2-c2-2.txt",
        "walls-f2-r2-c2-2.txt",
        "verify-f0-FZ-c2-2-H2F5Z.json.txt",
        "verify-p2-r2-c2-3.txt",
        "enumerate-p2-r3-c2-3.txt",
    ],
)
def test_output_does_not_depend_on_hash_seed(seed, transcript):
    # set iteration order steers the search, so run in a fresh interpreter
    proc = cli_process(TRANSCRIPTS[transcript], PYTHONHASHSEED=seed)
    assert proc.returncode == 0
    assert proc.stdout == (TRANSCRIPT_DIR / transcript).read_text()
