"""End-to-end CLI behavior: exit codes, output formats, golden workflows."""

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from syncattn import kernel
from syncattn.cli import _row_segment, build_parser, main
from syncattn.core import TokenLayout, seeded_random_tensor
from syncattn.golden_suites import SUITES
from syncattn.kernel import TileConfig
from syncattn.reference import naive_attention
from syncattn.topology import InjectionConfig, build_mask, masked3d_forward

CLI = [sys.executable, "-m", "syncattn"]
README = Path(__file__).resolve().parent.parent / "README.md"

# Sizes that are not a tensor shape: a usage error (exit 2), not a tolerance breach.
# A batch or heads of 0 would compare (or time) zero elements and pass.
BAD_SIZES = [("--heads", "-1"), ("--head-dim", "-1"), ("--head-dim", "0"), ("--batch", "-1"),
             ("--seed", "-1"), ("--batch", "0"), ("--heads", "0")]

# A layout whose q, k and v exceed the generator's 2**40-element cap: a usage error too.
HUGE_LAYOUT = ["--frames", str(2**40)]


def run_cli(*args, **kwargs):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, **kwargs)


class TestValidate:
    def test_passes_on_mixed_layout(self):
        proc = run_cli(
            "validate", "--frames", "4", "--video-tokens", "16",
            "--audio-tokens", "4", "--others", "32", "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        assert "max_abs_diff" in proc.stdout
        assert "PASS" in proc.stdout

    def test_names_the_worst_element(self, capsys):
        assert main([
            "validate", "--frames", "3", "--video-tokens", "6", "--audio-tokens", "2",
            "--others", "5", "--heads", "3", "--batch", "2", "--seed", "11",
        ]) == 0
        out = capsys.readouterr().out
        found = re.search(
            r"^worst batch=(\d+) head=(\d+) row=(\d+) segment=(video|others|audio) frame=(\d+|-)$",
            out, re.MULTILINE,
        )
        assert found, out
        bi, hi, row = map(int, found.group(1, 2, 3))
        diff = float(re.search(r"^max_abs_diff=(\S+) tol=1e-05 -> PASS$", out, re.MULTILINE).group(1))

        layout = TokenLayout(frames=3, video_per_frame=6, audio_per_frame=2, others_len=5)
        dims = (2, 3, layout.total_len, 16)
        q, k, v = (seeded_random_tensor(dims, 11 + i, np.float32) for i in range(3))
        err = np.abs(masked3d_forward(q, k, v, layout)
                     - naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D)).out)
        assert float(f"{err[bi, hi, row].max():.6e}") == diff
        assert found.group(4, 5) == _row_segment(layout, row)

    def test_row_segment_and_frame(self):
        layout = TokenLayout(frames=3, video_per_frame=2, audio_per_frame=1, others_len=2)
        expected = (
            [("video", "0")] * 2 + [("video", "1")] * 2 + [("video", "2")] * 2
            + [("others", "-")] * 2
            + [("audio", "0"), ("audio", "1"), ("audio", "2")]
        )
        assert [_row_segment(layout, r) for r in range(layout.total_len)] == expected

    def test_degenerate_no_audio_passes(self):
        proc = run_cli("validate", "--frames", "1", "--audio-tokens", "0")
        assert proc.returncode == 0, proc.stderr

    def test_f64_path(self):
        proc = run_cli("validate", "--precision", "f64", "--frames", "3", "--seed", "3")
        assert proc.returncode == 0, proc.stderr

    def test_empty_layout_is_usage_error(self):
        proc = run_cli(
            "validate", "--video-tokens", "0", "--audio-tokens", "0", "--others", "0"
        )
        assert proc.returncode == 2
        assert "empty" in proc.stderr

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("validate", "--definitely-not-a-flag", "1")
        assert proc.returncode == 2

    def test_bad_sizes_are_usage_errors(self, capsys):
        for flag, value in BAD_SIZES:
            assert main(["validate", flag, value]) == 2, flag
            assert f"{flag} must be >=" in capsys.readouterr().err

    def test_size_the_generator_refuses_is_usage_error(self, capsys):
        assert main(["validate", *HUGE_LAYOUT]) == 2
        assert "error: requested" in capsys.readouterr().err


class TestBench:
    BENCH_ARGS = [
        "bench", "--frames", "2", "--video-tokens", "8", "--audio-tokens", "2",
        "--others", "4", "--heads", "2", "--head-dim", "8",
        "--repeats", "3", "--impl", "both", "--seed", "5",
    ]

    def test_repeats_below_three_rejected(self):
        proc = run_cli("bench", "--repeats", "1")
        assert proc.returncode == 2
        assert "repeats" in proc.stderr

    def test_bad_sizes_are_usage_errors(self, capsys):
        for flag, value in BAD_SIZES:
            assert main(["bench", flag, value]) == 2, flag
            assert f"{flag} must be >=" in capsys.readouterr().err

    def test_size_the_generator_refuses_is_usage_error(self, capsys):
        assert main(["bench", *HUGE_LAYOUT]) == 2
        assert "error: requested" in capsys.readouterr().err

    def test_jsonl_records(self):
        proc = run_cli(*self.BENCH_ARGS)
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["impl"] for r in records] == ["naive", "decomposed"]
        for rec in records:
            assert rec["repeats"] == 3
            assert rec["status"] == "ok"
            assert "max_abs_diff" not in rec
            assert rec["wall_ms_median"] > 0
            assert rec["peak_bytes"] > 0

    def test_default_tiles_are_the_kernel_defaults(self):
        proc = run_cli(
            "bench", "--frames", "2", "--video-tokens", "4", "--audio-tokens", "1",
            "--repeats", "3", "--impl", "decomposed",
        )
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout.splitlines()[0])
        assert (rec["q_block"], rec["k_block"]) == (TileConfig().q_block, TileConfig().k_block)


class TestGolden:
    def test_generate_then_check(self, tmp_path):
        for suite in SUITES:
            gen = run_cli("golden", "generate", "--path", str(tmp_path), "--suite", suite)
            assert gen.returncode == 0, gen.stderr
            chk = run_cli("golden", "check", "--path", str(tmp_path), "--suite", suite)
            assert chk.returncode == 0, chk.stdout + chk.stderr

    def test_units_suite_runs_units_taller_than_a_query_tile(self, monkeypatch):
        # The suite pins bits that only the unit rule sets: units of more than
        # q_block rows over keys narrower than k_block.
        units, flash_group = set(), kernel._flash_group

        def recording(q_grp, k_grp, *args):
            units.add((q_grp.shape[1], k_grp.shape[1]))
            return flash_group(q_grp, k_grp, *args)

        monkeypatch.setattr(kernel, "_flash_group", recording)
        for case in SUITES["units"].values():
            for dtype in (np.float64, np.float32):
                case(dtype)
        tall = {(264, 264), (300, 8), (300, 300)}  # (rows, keys): the layer, audio -> video, audio -> audio
        assert tall <= units
        assert all(rows > TileConfig().q_block and keys < TileConfig().k_block for rows, keys in tall)

    def test_slices_suite_merges_row_slices(self, monkeypatch):
        # Each 40-row video -> audio group (3 keys, R = 16 rows) runs as slices
        # of 16, 16 and 8 rows, each folded into video rows that already hold
        # the dense block's partial.
        units, folds, flash_group, fold = [], [], kernel._flash_group, kernel._fold

        def recording(q_grp, k_grp, *args):
            units.append((q_grp.shape[1], k_grp.shape[1]))
            return flash_group(q_grp, k_grp, *args)

        monkeypatch.setattr(kernel, "_flash_group", recording)
        monkeypatch.setattr(kernel, "_fold", lambda dest, part: folds.append(dest.out.shape[0]) or fold(dest, part))
        SUITES["slices"]["merging"](np.float64)
        slices = [16, 16, 8] * 4  # 2 frames x 2 heads; then audio -> audio, both frames one 2 x 3-row unit per head
        assert [rows for rows, keys in units if keys == 3] == slices + [3, 3]
        assert folds == slices + [6, 6]

    def test_corrupted_file_detected_and_named(self, tmp_path):
        run_cli("golden", "generate", "--path", str(tmp_path), "--suite", "flow")
        target = sorted((tmp_path / "flow").glob("*f64*.gv"))[0]
        text = target.read_text()
        head, words = text.split("\n", 1)
        # flip one hex digit in the payload
        idx = next(i for i, ch in enumerate(words) if ch.isalnum())
        flipped = "1" if words[idx] != "1" else "2"
        target.write_text(head + "\n" + words[:idx] + flipped + words[idx + 1 :])

        proc = run_cli("golden", "check", "--path", str(tmp_path), "--suite", "flow")
        assert proc.returncode == 1
        assert target.stem.split("__")[0] in proc.stdout

    def test_missing_file_detected(self, tmp_path):
        run_cli("golden", "generate", "--path", str(tmp_path), "--suite", "merge")
        victim = next((tmp_path / "merge").glob("*.gv"))
        victim.unlink()
        proc = run_cli("golden", "check", "--path", str(tmp_path), "--suite", "merge")
        assert proc.returncode == 1
        assert "missing" in proc.stdout

    def test_stale_file_detected_and_named(self, tmp_path):
        # A golden that no case produces, as after a case is dropped or
        # renamed, would otherwise leave its bits silently unpinned.
        run_cli("golden", "generate", "--path", str(tmp_path), "--suite", "flow")
        stale = tmp_path / "flow" / "dropped_case_f64__out.gv"
        stale.write_bytes((tmp_path / "flow" / "path_f64__mid.gv").read_bytes())
        proc = run_cli("golden", "check", "--path", str(tmp_path), "--suite", "flow")
        assert proc.returncode == 1
        assert proc.stdout.splitlines() == [f"MISMATCH flow/dropped_case_f64__out: stored golden file {stale} "
                                            "that no case produces"]

    def test_unwritable_path_is_usage_error(self, tmp_path):
        # A path under a regular file: the file system's refusal, not a mismatch.
        (tmp_path / "file").write_text("")
        proc = run_cli("golden", "generate", "--path", str(tmp_path / "file" / "goldens"), "--suite", "flow")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_unknown_suite_rejected(self, tmp_path):
        proc = run_cli("golden", "check", "--path", str(tmp_path), "--suite", "nope")
        assert proc.returncode == 2


class TestMainEntry:
    def test_main_returns_exit_code(self, capsys):
        code = main(["validate", "--frames", "2", "--video-tokens", "4", "--audio-tokens", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


def _readme_cli_commands() -> list[str]:
    """The ``syncattn ...`` commands of README's CLI code block, continuations joined."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("syncattn ")]


def _readme_flags(lead: str) -> set[str]:
    """The backticked flags of the README sentence that starts with ``lead``."""
    sentence = re.search(rf"{lead}(.*?)\.\s", README.read_text(), re.DOTALL).group(1)
    return set(re.findall(r"`(--[a-z-]+)", sentence))


def _parser_flags(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for a in sub.choices[command]._actions for flag in a.option_strings} - {"-h", "--help"}


class TestReadme:
    def test_flag_lists_match_the_parser(self):
        shared = _readme_flags("Shared flags:")
        assert shared == _parser_flags("validate")
        assert shared | _readme_flags("Bench adds") == _parser_flags("bench")

    def test_cli_commands_parse(self):
        commands = _readme_cli_commands()
        assert {shlex.split(c)[1] for c in commands} == {"validate", "bench", "golden"}
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                raise AssertionError(f"README command does not parse: {command}") from None
