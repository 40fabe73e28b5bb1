"""Spans around the kernel and merge calls of ``syncattn.topology``.

``Recorder.installed()`` replaces ``flash_forward``, ``flash_varlen_forward``
and ``merge_partials`` in the namespace where ``syncattn.topology`` looks
them up, and restores them on exit.  Each call becomes one span: name,
parent operation, start, end and its argument shapes.  Spans stay in
memory until ``write``; a call span's ``op`` names its parent operation.

The kernel work of a call is *computed* from its shapes, its
``cu_seqlens`` and the ``TileConfig`` it ran with, per (batch, head, group)
unit of ``S_q`` queries and ``S_k`` keys, as the kernel skips a unit with
no queries or no keys:

* pairs = S_q * S_k, the (query, key) scores;
* flops = 4 * D * pairs (``QK^T`` and ``PV``, two flops per multiply-add);
* tile_iters = ceil(S_q / q_block) * ceil(S_k / k_block);
* bytes = itemsize * (D * (2 * S_q + 2 * S_k * ceil(S_q / q_block)) + S_q):
  Q read and O written once, K and V re-read once per query block, and
  the lse row written.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

import syncattn.topology as topology
from syncattn import AttnPartial, TileConfig

KERNELS = {"flash_forward": "dense", "flash_varlen_forward": "varlen"}
TRACED = (*KERNELS, "merge_partials")
OPERATION = "operation"  # the span of one workload operation, parent of the call spans


def _describe(value):
    """JSON-friendly summary of one call argument."""
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "dtype": str(value.dtype)}
    if isinstance(value, AttnPartial):
        return {f: _describe(getattr(value, f)) for f in value._fields}
    if isinstance(value, TileConfig):
        return {"q_block": value.q_block, "k_block": value.k_block}
    return repr(value)


def _groups(args: dict) -> list[tuple[int, int]]:
    """(S_q, S_k) of every unit group a kernel call runs."""
    if "cu_q" in args:
        sq, sk = np.diff(args["cu_q"]), np.diff(args["cu_k"])
        return [(int(a), int(b)) for a, b in zip(sq, sk) if a > 0 and b > 0]
    sq, sk = args["q"]["shape"][2], args["k"]["shape"][2]
    return [(sq, sk)] if sq > 0 and sk > 0 else []


def kernel_work(args: dict) -> dict:
    """Computed work of one kernel call, from its described arguments."""
    b, h, _, d = args["q"]["shape"]
    itemsize = np.dtype(args["q"]["dtype"]).itemsize
    qb, kb = args["tile"]["q_block"], args["tile"]["k_block"]
    work = dict(groups=0, pairs=0, flops=0, tile_iters=0, bytes=0)
    for sq, sk in _groups(args):
        q_blocks = -(-sq // qb)
        work["groups"] += 1
        work["pairs"] += b * h * sq * sk
        work["flops"] += 4 * d * b * h * sq * sk
        work["tile_iters"] += b * h * q_blocks * -(-sk // kb)
        work["bytes"] += b * h * itemsize * (d * (2 * sq + 2 * sk * q_blocks) + sq)
    return work


class Recorder:
    """In-memory spans of traced operations and the calls inside them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._op = -1

    @contextmanager
    def operation(self, name: str):
        """Span of one workload operation; calls inside it name it as parent."""
        self._op += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(dict(name=OPERATION, label=name, op=self._op,
                                   start=start, end=time.perf_counter()))

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            described = {
                k: (np.asarray(v).tolist() if k.startswith("cu_") else _describe(v))
                for k, v in bound.arguments.items()
            }
            self.spans.append(dict(name=name, op=self._op, start=start, end=end, args=described))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the calls ``syncattn.topology`` makes while the block runs."""
        originals = {name: getattr(topology, name) for name in TRACED}
        for name, fn in originals.items():
            setattr(topology, name, self._wrap(name, fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(topology, name, fn)

    def write(self, path, **header) -> None:
        for span in self.spans:
            if span["name"] in KERNELS:
                span["work_computed"] = kernel_work(span["args"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans), fh)


def _zero_totals() -> dict:
    t = dict(op_ms=0.0, children_ms=0.0, pairs=0, flops=0, tile_iters=0, bytes=0)
    t.update({"varlen.groups": 0, "merge.rows": 0})
    for kind in ("dense", "varlen", "merge"):
        t.update({f"{kind}.ms": 0.0, f"{kind}.calls": 0, f"{kind}.flops": 0})
    return t


def per_op_totals(spans: list[dict]) -> list[dict]:
    """Per traced operation, in order: time and computed work of each layer."""
    ops: dict[int, dict] = {}
    for span in spans:
        t = ops.setdefault(span["op"], _zero_totals())
        ms = (span["end"] - span["start"]) * 1e3
        if span["name"] == OPERATION:
            t["op_ms"] = ms
            continue
        t["children_ms"] += ms
        if span["name"] == "merge_partials":
            kind = "merge"
            b, h, s_q, _ = span["args"]["p1"]["out"]["shape"]
            t["merge.rows"] += b * h * s_q
        else:
            kind = KERNELS[span["name"]]
            work = kernel_work(span["args"])
            for key in ("pairs", "flops", "tile_iters", "bytes"):
                t[key] += work[key]
            t[f"{kind}.flops"] += work["flops"]
            if kind == "varlen":
                t["varlen.groups"] += work["groups"]
        t[f"{kind}.ms"] += ms
        t[f"{kind}.calls"] += 1
    return [ops[i] for i in sorted(ops)]


def layer_metrics(totals: list[dict], roofline_gflops: float) -> dict:
    """Per-layer metrics: times are medians over traced operations; counts
    and computed work are the last operation's (every operation does the
    same work)."""
    def med(f):
        return statistics.median(f(t) for t in totals)

    def rate(flops, ms):  # GFLOP/s
        return flops / ms / 1e6 if ms > 0 else 0.0

    last = totals[-1]
    kernel_rate = med(lambda t: rate(t["flops"], t["dense.ms"] + t["varlen.ms"]))
    return {
        "kernel.dense.ms": (med(lambda t: t["dense.ms"]), "ms"),
        "kernel.dense.calls": (last["dense.calls"], "count"),
        "kernel.dense.gflops": (med(lambda t: rate(t["dense.flops"], t["dense.ms"])), "GFLOP/s"),
        "kernel.varlen.ms": (med(lambda t: t["varlen.ms"]), "ms"),
        "kernel.varlen.calls": (last["varlen.calls"], "count"),
        "kernel.varlen.groups": (last["varlen.groups"], "count"),
        "kernel.varlen.gflops": (med(lambda t: rate(t["varlen.flops"], t["varlen.ms"])), "GFLOP/s"),
        "kernel.gflop": (last["flops"] / 1e9, "GFLOP.computed"),
        "kernel.pairs": (last["pairs"], "pairs.computed"),
        "kernel.tile_iters": (last["tile_iters"], "iters.computed"),
        "kernel.bytes": (last["bytes"], "B.computed"),
        "kernel.roofline_frac": (kernel_rate / roofline_gflops, "fraction"),
        "roofline.matmul_gflops": (roofline_gflops, "GFLOP/s"),
        "merge.ms": (med(lambda t: t["merge.ms"]), "ms"),
        "merge.calls": (last["merge.calls"], "count"),
        "merge.rows": (last["merge.rows"], "count"),
        "topology.self_ms": (med(lambda t: t["op_ms"] - t["children_ms"]), "ms"),
    }
