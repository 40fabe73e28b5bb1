"""Tests of the benchmark itself, on tiny layouts.

    python3 -m pytest benchmark/

Each workload runs end to end, and each check is shown to reject a
corrupted output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import measure  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import syncattn.topology as topology  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ref_layout": dict(frames=3, video=8, audio=2, others=8, heads=2, head_dim=8),
    "long_clip": dict(frames=9, video=1, audio=3, others=2, heads=2, head_dim=8),
    "wirings_2d": dict(frames=3, video=8, audio=2, model_dim=16, heads=2),
}


def tiny(name, seed=5):
    return workloads.WORKLOADS[name](seed, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_is_correct(name):
    res = measure.timed(tiny(name), seconds=0.01)
    assert res["failures"] == []
    assert res["attempted"] >= 1
    assert res["forward_ms"] > 0 and res["peak_bytes"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_and_keeps_the_pair_law(name):
    originals = [getattr(topology, n) for n in spans.TRACED]
    metrics, failures, attempted, recorder = measure.traced(tiny(name), seconds=0.01)
    assert failures == []
    assert attempted >= 2 and attempted % 2 == 0
    assert [getattr(topology, n) for n in spans.TRACED] == originals
    names = {m["name"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    assert metrics["kernel.pairs"][0] > 0
    assert all(s["op"] >= 0 for s in recorder.spans)


def test_pair_counts_follow_the_frame_rule():
    # F=2, N=3, L=1, others=2: video 6x(6+2+1), others 2x(6+2), audio 2x(3+1)
    toks = oracle.tokens(2, [("video", 3, True), ("others", 2, False), ("audio", 1, True)])
    assert oracle.allowed_pairs(toks, oracle.MASKED_3D) == 6 * 9 + 2 * 8 + 2 * 4
    allow = np.array([np.isin(np.arange(10), oracle.allowed_keys(toks, oracle.MASKED_3D, i))
                      for i in range(10)])
    assert allow.sum() == 78
    assert allow[8].tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 1, 0]  # audio frame 0


def test_pair_count_off_by_one_block_is_rejected():
    wl = tiny("ref_layout")
    recorder = spans.Recorder()
    with recorder.installed(), recorder.operation(wl.name):
        wl.run()
    pairs = lambda: spans.per_op_totals(recorder.spans)[-1]["pairs"]  # noqa: E731
    assert measure.pair_law(wl, pairs()) == []

    varlen = next(s for s in recorder.spans if s["name"] == "flash_varlen_forward")
    scored_twice = dict(varlen, args=dict(varlen["args"], cu_q=[0, 8], cu_k=[0, 2]))
    recorder.spans.append(scored_twice)  # frame 0's video x audio block, once more
    assert measure.pair_law(wl, pairs())

    recorder.spans.pop()
    cu_k = varlen["args"]["cu_k"]
    cu_k[-1] = cu_k[-2]  # the last frame's audio key block goes missing
    assert measure.pair_law(wl, pairs())


@pytest.mark.parametrize("name", ["ref_layout", "long_clip"])
def test_swapped_audio_frames_are_rejected(name):
    wl = tiny(name)
    out = wl.run()
    assert wl.check(out) == []
    p = TINY[name]
    a0 = p["frames"] * p["video"] + p["others"]  # first audio row
    l = p["audio"]
    bad = out.copy()
    bad[:, :, a0 : a0 + l] = out[:, :, a0 + l : a0 + 2 * l]
    bad[:, :, a0 + l : a0 + 2 * l] = out[:, :, a0 : a0 + l]
    assert wl.check(bad)


def test_output_beyond_tolerance_is_rejected():
    wl = tiny("ref_layout")
    out = wl.run()
    out[0, 1, 0, 3] += 2 * workloads.TOL_F32  # row 0 is always sampled
    assert "head 1, row 0" in wl.check(out)[0]


def test_wiring_checks_reject_each_corruption():
    wl = tiny("wirings_2d")
    outs = wl.run()
    assert wl.check(outs) == []
    (cv, ca), (fv, fa), (sv, sa) = outs

    flipped = fa.copy()
    flipped.view(np.uint32)[0, 0, 0] ^= 1  # one bit of the frozen audio
    assert "not bit-identical" in wl.check([(cv, ca), (fv, flipped), (sv, sa)])[0]

    nudged = sv.copy()
    nudged.view(np.uint32)[0, -1, -1] ^= 1
    assert "different video outputs" in wl.check([(cv, ca), (fv, fa), (nudged, sa)])[0]

    swapped = cv.copy()
    n = TINY["wirings_2d"]["video"]
    swapped[0, :n], swapped[0, -n:] = cv[0, -n:], cv[0, :n]  # first and last frames trade rows
    assert "cross_attn_2d" in wl.check([(swapped, ca), (fv, fa), (sv, sa)])[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "long_clip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
