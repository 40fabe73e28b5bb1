"""Timed and traced runs of one workload.

``timed`` gives the end-to-end metrics with tracing off; ``traced`` is a
separate run that alternates untraced and traced operations and gives
the per-layer metrics.  Both warm up with one operation first, run whole
operations until ``seconds`` have passed, and check the output of the
last one.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

import spans
from workloads import Workload


def _run_for(seconds: float, step):
    """Call ``step`` until ``seconds`` have passed since the first call, at
    least once; returns (calls made, the last call's result)."""
    deadline = time.perf_counter() + seconds
    count, result = 0, None
    while count == 0 or time.perf_counter() < deadline:
        result = step()
        count += 1
    return count, result


def peak_bytes(run) -> int:
    """Peak bytes allocated during one call of ``run`` above what was live before it."""
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


def matmul_gflops(n: int = 1024, repeats: int = 7) -> float:
    """Rate of a float64 ``np.matmul`` of two n x n matrices, median of ``repeats``."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * n**3 / statistics.median(times) / 1e9


def pair_law(wl: Workload, pairs: int) -> list[str]:
    """Every allowed (query, key) pair is scored exactly once, in every (batch, head)."""
    expected = wl.batch_heads * wl.allowed_pairs
    if pairs == expected:
        return []
    return [f"kernel.pairs = {pairs}, but B*H * allowed pairs = {expected}"]


def timed(wl: Workload, seconds: float) -> dict:
    """End-to-end run.  ``first_op`` is the ``perf_counter`` at which the
    first timed operation started, the end of set-up."""
    wl.run()
    first_op = time.perf_counter()
    samples = []

    def step():
        t0 = time.perf_counter()
        out = wl.run()
        samples.append((time.perf_counter() - t0) * 1e3)
        return out

    attempted, out = _run_for(seconds, step)
    failures = wl.check(out)
    return dict(
        first_op=first_op,
        attempted=attempted,
        failures=failures,
        forward_ms=statistics.median(samples),
        peak_bytes=peak_bytes(wl.run),
    )


def traced(wl: Workload, seconds: float) -> tuple[dict, list[str], int, spans.Recorder]:
    """Per-layer run: rounds of one untraced and one traced operation.

    Returns (metrics as name -> (value, unit), failures, operations
    attempted, the recorder holding every span).
    """
    wl.run()
    recorder = spans.Recorder()
    untraced_ms, traced_ms = [], []

    def round_():
        t0 = time.perf_counter()
        wl.run()
        t1 = time.perf_counter()
        with recorder.installed(), recorder.operation(wl.name):
            out = wl.run()
        t2 = time.perf_counter()
        untraced_ms.append((t1 - t0) * 1e3)
        traced_ms.append((t2 - t1) * 1e3)
        return out

    rounds, out = _run_for(seconds, round_)
    failures = wl.check(out)
    totals = spans.per_op_totals(recorder.spans)
    failures += pair_law(wl, totals[-1]["pairs"])

    metrics = spans.layer_metrics(totals, matmul_gflops())
    op_ms, base_ms = statistics.median(traced_ms), statistics.median(untraced_ms)
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.untraced_ms"] = (base_ms, "ms")
    metrics["trace.overhead_ms"] = (op_ms - base_ms, "ms")
    return metrics, failures, 2 * rounds, recorder
