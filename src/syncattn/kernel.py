"""Tiled, streaming scaled-dot-product attention that never materializes QK^T.

Work units are (batch, head, group) triples, run one after another.  A
unit casts its queries to float64 once and keeps the classic
online-softmax state of every query row (running row max ``m``, running
denominator ``l``, rescaled accumulator ``acc``) across the whole key
loop.  Key/value tiles are the outer loop, so each tile is cast once;
query blocks are the inner loop, and each updates its rows in place:

    m_new = max(m, rowmax(S_tile))
    alpha = exp(m - m_new)
    l     = l * alpha + rowsum(exp(S_tile - m_new))
    acc   = acc * alpha + exp(S_tile - m_new) @ V_tile
    m     = m_new

The unit finishes with ``out = acc / l`` and ``lse = m + log(l)``.  Every
query row sees the same operations on the same key tiles in the same
order as it would with query blocks outermost, so results depend on the
tile shape only, not on the loop order.

Memory per unit is O(S_q * head_dim) float64 state plus
O(q_block * k_block + k_block * head_dim) tile buffers, independent of
the key length.  All tile arithmetic runs in float64 and results are cast
to the input precision at the end, which keeps different tile shapes
within a couple of ulps of each other.  Every reduction order is fixed,
so results are bit-identical from run to run.  The dense call is the
single-group case of the varlen call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttnPartial, check_cu_seqlens, check_qkv

__all__ = ["TileConfig", "flash_forward", "flash_varlen_forward"]

# Default 256x512 tiles, from a sweep over the three benchmark workloads
# (2-core x86 machine, one OpenBLAS thread, float32 inputs): every tile
# from 128x512 to 1024x1024 ran the reference layout about 1.6x faster
# than 64x64 and within noise of each other, and 256x512 was among the
# fastest on all three.  Larger tiles only cost memory: 1024x1024 raised
# the reference layout's peak bytes by 13%; 256x512 raises the flat 2D
# wirings' by 1.3% over 64x64.
@dataclass(frozen=True)
class TileConfig:
    q_block: int = 256
    k_block: int = 512

    def __post_init__(self) -> None:
        if self.q_block < 1 or self.k_block < 1:
            raise ValueError(f"tile blocks must be >= 1, got {self}")


def _flash_group(q_grp, k_grp, v_grp, tile: TileConfig):
    """Stream each key tile of one group once past all its query blocks;
    returns float64 (out, lse) of the group's query rows."""
    s_q, d = q_grp.shape
    s_k = k_grp.shape[0]
    scale = 1.0 / np.sqrt(d)
    q64 = np.asarray(q_grp, dtype=np.float64)
    m = np.full(s_q, -np.inf)
    l = np.zeros(s_q)
    acc = np.zeros((s_q, d))
    for j0 in range(0, s_k, tile.k_block):
        j1 = min(j0 + tile.k_block, s_k)
        k_tile = np.asarray(k_grp[j0:j1], dtype=np.float64)
        v_tile = np.asarray(v_grp[j0:j1], dtype=np.float64)
        for i0 in range(0, s_q, tile.q_block):
            i1 = min(i0 + tile.q_block, s_q)
            s = q64[i0:i1] @ k_tile.T
            s *= scale
            m_blk = m[i0:i1]
            m_new = np.maximum(m_blk, s.max(axis=1))
            alpha = np.exp(m_blk - m_new)
            s -= m_new[:, None]
            np.exp(s, out=s)
            l_blk = l[i0:i1]
            l_blk *= alpha
            l_blk += s.sum(axis=1)
            acc_blk = acc[i0:i1]
            acc_blk *= alpha[:, None]
            acc_blk += s @ v_tile
            m_blk[...] = m_new
    acc /= l[:, None]
    np.log(l, out=l)
    l += m
    return acc, l


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
                out[bi, hi, q0:q1], lse[bi, hi, q0:q1] = _flash_group(
                    q[bi, hi, q0:q1], k[bi, hi, k0:k1], v[bi, hi, k0:k1], tile
                )
    return AttnPartial(out, lse)
