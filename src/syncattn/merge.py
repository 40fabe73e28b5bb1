"""Exact recombination of attention partials computed over disjoint key sets.

Two partials ``(O_1, lse_1)`` and ``(O_2, lse_2)`` over disjoint keys for
the same queries merge into the full-key result via

    lse = logaddexp(lse_1, lse_2)
    O   = exp(lse_1 - lse) * O_1 + exp(lse_2 - lse) * O_2

The empty partial (zero output, lse = -inf) is a two-sided identity, so
an all-masked query row merges cleanly.  LSE arithmetic runs in float64
even for float32 partials; the weights are applied in the tensors' own
precision.  Disjointness of the key sets is the caller's obligation and
is not checked here.

A merge may write into a given ``out`` partial, ``p1`` itself included.
The output is formed in place as ``w_1 * O_1`` plus ``w_2 * O_2``, so
beyond O(rows) weights its only temporary is the weighted ``O_2``, one
array the size of the partial.
"""

from __future__ import annotations

import numpy as np

from .core import AttnPartial

__all__ = ["merge_partials"]


def merge_partials(p1: AttnPartial, p2: AttnPartial, out: AttnPartial | None = None) -> AttnPartial:
    """Merge two partials over disjoint key sets for the same queries.

    The partials must share shapes and precision.  The result is written into
    ``out`` (a partial or a plain pair) and returned as a partial; ``out`` may be
    ``p1`` but not share memory with ``p2``.  Without ``out`` it is a fresh partial.
    An lse that is NaN or +inf breaks the AttnPartial contract and is rejected.
    """
    o1, lse1 = p1
    o2, lse2 = p2
    if o1.shape != o2.shape or lse1.shape != lse2.shape or o1.dtype != o2.dtype:
        raise ValueError(f"partials differ: out {o1.shape} {o1.dtype} vs {o2.shape} {o2.dtype}, "
                         f"lse {lse1.shape} vs {lse2.shape}")
    if out is not None and not isinstance(out, AttnPartial):
        out = AttnPartial(*out)  # a plain (out, lse) pair
    if out is None:
        out = AttnPartial(np.empty_like(o1), np.empty_like(lse1))
    elif out.out.shape != o1.shape or out.lse.shape != lse1.shape:
        raise ValueError(f"out shapes {out.out.shape} {out.lse.shape} differ from p1's {o1.shape} {lse1.shape}")
    elif any(np.shares_memory(a, b) for a in out for b in p2):
        raise ValueError("merge_partials out must not share memory with p2, which it would overwrite")
    l1 = np.asarray(lse1, dtype=np.float64)
    l2 = np.asarray(lse2, dtype=np.float64)
    for name, l in (("p1", l1), ("p2", l2)):
        # NaN and +inf both reach the max, so one reduction finds them.
        if l.size and not l.max() < np.inf:
            where = tuple(int(i) for i in np.argwhere(~(l < np.inf))[0])
            raise ValueError(f"{name} has lse {l[where]} at {where}; an lse must be finite or -inf")
    lse = np.logaddexp(l1, l2)
    # exp(-inf - -inf) for a row that is empty on both sides is defined as 0.
    both_empty = np.isneginf(lse)
    with np.errstate(invalid="ignore"):
        w1 = np.where(both_empty, 0.0, np.exp(l1 - lse))[..., None].astype(o1.dtype)
        w2 = np.where(both_empty, 0.0, np.exp(l2 - lse))[..., None].astype(o2.dtype)
    out.lse[...] = lse
    np.multiply(o1, w1, out=out.out)
    np.add(out.out, o2 * w2, out=out.out)
    return out

