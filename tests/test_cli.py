"""Command-line interface: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toric_virasoro
from toric_virasoro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        ],
    )
    def test_removed_options_are_rejected(self, capsys, argv):
        # the series cap is derived (vdim + 2), and enumerate runs in one process
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

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_jobs_on_a_configured_run_is_config_error(self, capsys, tmp_path, source):
        # only --case/--all run in a process pool
        if source == "flags":
            argv = ["verify", "--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2",
                    "--H", "2,5"]
        else:
            cfg = tmp_path / "case.json"
            cfg.write_text(json.dumps(
                {"surface": "f0", "r": 2, "delta": [1, 1], "c2": 2, "H": [2, 5]}
            ))
            argv = ["verify", "--config", str(cfg)]
        code = main([*argv, "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--jobs applies to --case/--all" in captured.err

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

    def test_non_ample_polarization_is_config_error(self, capsys):
        code, _ = run(
            capsys, "enumerate", "--surface", "f2", "--r", "2",
            "--delta", "1,0", "--c2", "1", "--H", "1,1",
        )
        assert code == 2


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


TRANSCRIPT_DIR = Path(__file__).parent / "data" / "cli"
_VERIFY = ("verify", "--case", "f0-FZ-c2-2-H2F5Z")
_F0_R2 = ("--surface", "f0", "--r", "2", "--delta", "1,1", "--c2", "2")
_P2_R2 = ("--surface", "p2", "--r", "2", "--delta", "1", "--c2", "2")
# recorded stdout file -> the command line that printed it
TRANSCRIPTS = {
    "verify-f0-FZ-c2-2-H2F5Z.txt": _VERIFY,
    "verify-f0-FZ-c2-2-H2F5Z.json.txt": (*_VERIFY, "--format", "json"),
    "verify-f0-FZ-c2-2-H2F5Z.md.txt": (*_VERIFY, "--format", "markdown"),
    "verify-p2-r2-c2-3.txt": ("verify", "--case", "p2-r2-c2-3"),
    "enumerate-f0-r2-all-chambers.txt": ("enumerate", *_F0_R2, "--H", "all-chambers"),
    "enumerate-p2-r2-c2-2.md.txt": ("enumerate", *_P2_R2, "--format", "markdown"),
    "walls-f0-r2-c2-2.txt": ("walls", *_F0_R2),
}


@pytest.mark.parametrize("transcript", sorted(TRANSCRIPTS))
def test_output_matches_recorded_transcript(capsys, transcript):
    # the recorded stdout is the contract: any change to it must be deliberate
    code, out = run(capsys, *TRANSCRIPTS[transcript])
    assert code == 0
    assert out == (TRANSCRIPT_DIR / transcript).read_text()


@pytest.mark.parametrize("seed", ["1", "12345"])
@pytest.mark.parametrize(
    "transcript", ["enumerate-f0-r2-all-chambers.txt", "walls-f0-r2-c2-2.txt"]
)
def test_output_does_not_depend_on_hash_seed(seed, transcript):
    # set iteration order steers the search, so run in a fresh interpreter
    src = str(Path(toric_virasoro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toric_virasoro.cli", *TRANSCRIPTS[transcript]],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == (TRANSCRIPT_DIR / transcript).read_text()
