"""Tiled, streaming scaled-dot-product attention that never materializes QK^T.

The kernel walks key/value tiles per query block while maintaining the
classic online-softmax state (running row max ``m``, running denominator
``l``, rescaled accumulator ``acc``):

    m_new = max(m, rowmax(S_tile))
    alpha = exp(m - m_new)
    l     = l * alpha + rowsum(exp(S_tile - m_new))
    acc   = acc * alpha + exp(S_tile - m_new) @ V_tile
    m     = m_new

and finishes a block with ``out = acc / l`` and ``lse = m + log(l)``.
Peak transient memory per query block is O(q_block * (head_dim + k_block))
and does not grow with the key length.  All tile arithmetic runs in
float64 and results are cast to the input precision at the end, which
keeps different tile shapes within a couple of ulps of each other.

Work units are (batch, head, group) triples, run one after another; the
key loop inside a unit is sequential, so every reduction order is fixed
and results are bit-identical from run to run.  The dense call is the
single-group case of the varlen call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttnPartial, check_cu_seqlens, check_qkv

__all__ = ["TileConfig", "flash_forward", "flash_varlen_forward"]

# Default 64x64 tiles: a float64 score tile plus q/k/v tiles and
# accumulators stay comfortably inside a typical L1/L2 footprint.
_DEFAULT_Q_BLOCK = 64
_DEFAULT_K_BLOCK = 64


@dataclass(frozen=True)
class TileConfig:
    q_block: int = _DEFAULT_Q_BLOCK
    k_block: int = _DEFAULT_K_BLOCK

    def __post_init__(self) -> None:
        if self.q_block < 1 or self.k_block < 1:
            raise ValueError(f"tile blocks must be >= 1, got {self}")


def _flash_unit(q_blk, k2, v2, k_block: int):
    """Stream all key tiles past one query block; returns float64 (out, lse)."""
    n_q, d = q_blk.shape
    s_k = k2.shape[0]
    scale = 1.0 / np.sqrt(d)
    q64 = np.asarray(q_blk, dtype=np.float64)
    m = np.full(n_q, -np.inf)
    l = np.zeros(n_q)
    acc = np.zeros((n_q, d))
    for j0 in range(0, s_k, k_block):
        j1 = min(j0 + k_block, s_k)
        k_tile = np.asarray(k2[j0:j1], dtype=np.float64)
        v_tile = np.asarray(v2[j0:j1], dtype=np.float64)
        s = (q64 @ k_tile.T) * scale
        m_new = np.maximum(m, s.max(axis=1))
        p = np.exp(s - m_new[:, None])
        alpha = np.exp(m - m_new)
        l = l * alpha + p.sum(axis=1)
        acc = acc * alpha[:, None] + p @ v_tile
        m = m_new
    return acc / l[:, None], m + np.log(l)


def flash_forward(q, k, v, tile: TileConfig = TileConfig()) -> AttnPartial:
    """Streaming attention over a dense equal-length batch, with LSE.

    Mathematically equal to unmasked naive attention; masking is achieved
    upstream by restricting the key set handed to this kernel.  A zero-key
    input returns the empty partial (zero output, lse = -inf everywhere).
    This is :func:`flash_varlen_forward` with one group spanning all rows.
    """
    q, k, v = check_qkv(q, k, v)
    return flash_varlen_forward(q, k, v, [0, q.shape[2]], [0, k.shape[2]], tile)


def flash_varlen_forward(q, k, v, cu_q, cu_k, tile: TileConfig = TileConfig()) -> AttnPartial:
    """Grouped streaming attention over packed variable-length sequences.

    Group ``g`` spans ``cu_q[g]:cu_q[g+1]`` of the packed queries and
    ``cu_k[g]:cu_k[g+1]`` of the packed keys/values; its queries attend
    only to its own keys.  Equivalent to running :func:`flash_forward`
    independently per group and concatenating in query order.  Queries of
    a zero-key group get zero output and lse = -inf.
    """
    q, k, v = check_qkv(q, k, v)
    cu_q = check_cu_seqlens(cu_q, q.shape[2], "cu_q")
    cu_k = check_cu_seqlens(cu_k, k.shape[2], "cu_k")
    if cu_q.size != cu_k.size:
        raise ValueError(f"group-count mismatch: cu_q has {cu_q.size - 1} groups, cu_k {cu_k.size - 1}")

    b, h, s_q, d = q.shape
    out = np.zeros((b, h, s_q, d), dtype=q.dtype)
    lse = np.full((b, h, s_q), -np.inf, dtype=q.dtype)

    groups = [
        (int(cu_q[g]), int(cu_q[g + 1]), int(cu_k[g]), int(cu_k[g + 1]))
        for g in range(cu_q.size - 1)
        if cu_q[g + 1] > cu_q[g] and cu_k[g + 1] > cu_k[g]
    ]
    for bi in range(b):
        for hi in range(h):
            for q0, q1, k0, k1 in groups:
                k_grp = k[bi, hi, k0:k1]
                v_grp = v[bi, hi, k0:k1]
                for i0 in range(q0, q1, tile.q_block):
                    i1 = min(i0 + tile.q_block, q1)
                    o64, l64 = _flash_unit(q[bi, hi, i0:i1], k_grp, v_grp, tile.k_block)
                    out[bi, hi, i0:i1] = o64
                    lse[bi, hi, i0:i1] = l64
    return AttnPartial(out, lse)
