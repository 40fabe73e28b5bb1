"""Benchmark machinery: timing, allocation counting, and the records ``syncattn bench`` prints.

A record is one flat dict per case and implementation: the case's settings
and layout, the blocks of the default ``TileConfig()`` that the decomposed
path runs at, the wall-clock median/p10/p90 in milliseconds, the peak
transient bytes, and a status.

Timing and memory are measured in separate runs because tracemalloc (the
allocation-counting hook) slows the traced code down.  Peak transient
bytes are allocator-observed: the high-water mark of Python-visible
allocations during the call, minus what was already live before it.
Input tensors and the naive path's permission matrix are generated before
any measurement starts.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import TokenLayout, check_count, precision_name, seeded_random_tensor
from .kernel import TileConfig
from .reference import naive_attention
from .topology import InjectionConfig, build_mask, masked3d_forward

__all__ = ["BenchCase", "make_inputs", "measure_peak_bytes", "run_case", "sweep_layouts", "time_repeats"]

IMPLS = ("naive", "decomposed")


@dataclass
class BenchCase:
    layout: TokenLayout
    batch: int = 1
    heads: int = 8
    head_dim: int = 64
    precision: type = np.float32
    seed: int = 0
    repeats: int = 3


def time_repeats(fn, repeats: int) -> tuple[float, float, float]:
    """Median, p10, p90 wall-clock milliseconds over ``repeats`` calls."""
    repeats = check_count(repeats, "repeats", 3)  # a p10 and a p90 need three samples
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    p10, p50, p90 = np.percentile(samples, [10, 50, 90])
    return float(p50), float(p10), float(p90)


def measure_peak_bytes(fn):
    """Run ``fn`` under tracemalloc; returns (result, peak transient bytes)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, max(peak - baseline, 0)


def make_inputs(case: BenchCase):
    """Seeded q, k and v of a case (seeds ``seed``, ``seed + 1``, ``seed + 2``)."""
    dims = (case.batch, case.heads, case.layout.total_len, case.head_dim)
    q = seeded_random_tensor(dims, case.seed, case.precision)
    k = seeded_random_tensor(dims, case.seed + 1, case.precision)
    v = seeded_random_tensor(dims, case.seed + 2, case.precision)
    return q, k, v


def run_case(case: BenchCase, impl: str) -> dict:
    """Benchmark one implementation on one case; returns the record ``syncattn bench`` prints.

    ``impl`` is "naive" (materialized permission matrix through the
    reference path) or "decomposed" (streaming decomposition at the default
    tiles).  A naive-path out-of-memory failure is reported as a record with
    status "naive-oom" and no timing or peak keys rather than raised.
    """
    if impl not in IMPLS:
        raise ValueError(f"impl must be one of {IMPLS}, got {impl!r}")
    record = {
        "impl": impl, **asdict(case.layout), "batch": case.batch, "heads": case.heads,
        "head_dim": case.head_dim, "precision": precision_name(case.precision), "seed": case.seed,
        **asdict(TileConfig()), "repeats": case.repeats, "total_len": case.layout.total_len,
    }
    q, k, v = make_inputs(case)

    if impl == "naive":
        mask = build_mask(case.layout, InjectionConfig.MASKED_3D)
        run = lambda: naive_attention(q, k, v, mask).out
    else:
        run = lambda: masked3d_forward(q, k, v, case.layout)

    try:
        median, p10, p90 = time_repeats(run, case.repeats)
        _, peak = measure_peak_bytes(run)
    except MemoryError:
        if impl != "naive":
            raise
        return {**record, "status": "naive-oom"}
    return {**record, "wall_ms_median": median, "wall_ms_p10": p10, "wall_ms_p90": p90,
            "peak_bytes": peak, "status": "ok"}


def sweep_layouts(base: TokenLayout) -> list[TokenLayout]:
    """``base`` and two doublings of its total length (frames and others scale)."""
    return [replace(base, frames=base.frames * 2**i, others_len=base.others_len * 2**i) for i in range(3)]
