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
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

import numpy as np

from .core import AttnPartial

__all__ = ["merge_many", "merge_partials"]


def merge_partials(p1: AttnPartial, p2: AttnPartial) -> AttnPartial:
    """Merge two partials over disjoint key sets for the same queries."""
    o1, lse1 = p1
    o2, lse2 = p2
    if o1.shape != o2.shape or lse1.shape != lse2.shape:
        raise ValueError(
            f"partial shapes differ: out {o1.shape} vs {o2.shape}, lse {lse1.shape} vs {lse2.shape}"
        )
    l1 = np.asarray(lse1, dtype=np.float64)
    l2 = np.asarray(lse2, dtype=np.float64)
    lse = np.logaddexp(l1, l2)
    # exp(-inf - -inf) for a row that is empty on both sides is defined as 0.
    both_empty = np.isneginf(lse)
    with np.errstate(invalid="ignore"):
        w1 = np.where(both_empty, 0.0, np.exp(l1 - lse))
        w2 = np.where(both_empty, 0.0, np.exp(l2 - lse))
    out = o1 * w1[..., None].astype(o1.dtype) + o2 * w2[..., None].astype(o2.dtype)
    return AttnPartial(out, lse.astype(lse1.dtype))


def merge_many(parts: Iterable[AttnPartial]) -> AttnPartial:
    """Left fold of merge_partials over one or more partials."""
    parts = list(parts)
    if not parts:
        raise ValueError("merge_many needs at least one partial")
    return reduce(merge_partials, parts)
