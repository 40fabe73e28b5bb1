"""Benchmark harness internals: timing rules, allocation counting, OOM records."""

import numpy as np
import pytest

import syncattn.bench as bench
from syncattn.bench import BenchCase, measure_peak_bytes, run_case, sweep_layouts, time_repeats
from syncattn.core import TokenLayout


def _tiny_case(**overrides):
    defaults = dict(
        layout=TokenLayout(frames=2, video_per_frame=4, audio_per_frame=2, others_len=3),
        batch=1, heads=2, head_dim=8, precision=np.float32, seed=1, repeats=3,
    )
    defaults.update(overrides)
    return BenchCase(**defaults)


def test_single_sample_timing_rejected():
    with pytest.raises(ValueError, match=">= 3"):
        time_repeats(lambda: None, 1)


def test_non_integer_repeats_rejected():
    with pytest.raises(ValueError, match="repeats must be an integer"):
        time_repeats(lambda: None, 3.5)


def test_time_repeats_reports_percentiles():
    median, p10, p90 = time_repeats(lambda: sum(range(1000)), 5)
    assert 0 < p10 <= median <= p90


def test_measure_peak_bytes_sees_numpy_allocations():
    _, peak = measure_peak_bytes(lambda: np.zeros((512, 512), dtype=np.float64))
    assert peak >= 512 * 512 * 8


@pytest.mark.parametrize("impl", bench.IMPLS)
def test_run_case_records_time_and_peak(impl):
    rec = run_case(_tiny_case(), impl)
    assert rec["impl"] == impl and rec["status"] == "ok"
    assert 0 < rec["wall_ms_p10"] <= rec["wall_ms_median"] <= rec["wall_ms_p90"]
    assert rec["peak_bytes"] > 0
    assert "max_abs_diff" not in rec


def test_naive_oom_reported_as_record(monkeypatch):
    def exploding(*args, **kwargs):
        raise MemoryError("simulated allocation failure")

    monkeypatch.setattr(bench, "naive_attention", exploding)
    rec = run_case(_tiny_case(), "naive")
    assert rec["status"] == "naive-oom"
    assert not {"wall_ms_median", "wall_ms_p10", "wall_ms_p90", "peak_bytes"} & rec.keys()


def test_decomposed_memory_error_propagates(monkeypatch):
    def exploding(*args, **kwargs):
        raise MemoryError("simulated allocation failure")

    monkeypatch.setattr(bench, "masked3d_forward", exploding)
    with pytest.raises(MemoryError):
        run_case(_tiny_case(), "decomposed")


def test_unknown_impl_rejected():
    with pytest.raises(ValueError, match="impl"):
        run_case(_tiny_case(), "turbo")


def test_sweep_layouts_double_total_length():
    base = TokenLayout(frames=4, video_per_frame=128, audio_per_frame=8, others_len=96)
    layouts = sweep_layouts(base)
    totals = [l.total_len for l in layouts]
    assert totals == [base.total_len, 2 * base.total_len, 4 * base.total_len]
