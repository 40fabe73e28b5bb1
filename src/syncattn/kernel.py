"""Tiled, streaming scaled-dot-product attention that never materializes QK^T.

Work units are (batch, head, group) triples, run one after another.  A
unit keeps the classic online-softmax state of every query row (running
row max ``m``, running denominator ``l``, rescaled accumulator ``acc``)
across the whole key loop.  Key/value tiles are the outer loop and are
read where they lie; query blocks are the inner loop, and each updates its
rows in place:

    m_new = max(m, rowmax(S_tile))
    alpha = exp(m - m_new)
    l     = l * alpha + rowsum(exp(S_tile - m_new))
    acc   = acc * alpha + exp(S_tile - m_new) @ V_tile
    m     = m_new

The unit finishes with ``out = acc / l`` and ``lse = m + log(l)``.  Every
query row sees the same operations on the same key tiles in the same
order as it would with query blocks outermost, so results depend on the
tile shape only, not on the loop order.

All tile arithmetic (matmuls, ``exp``, the softmax state) runs in the
input precision, and ``acc`` and ``m`` are the output's own rows.  Memory
per unit is O(S_q) for ``l`` plus O(q_block * k_block) score tiles,
independent of the key length.  Float32 rounds each score ``s`` to
2**-24 relative, so its error against the float64 oracle grows with the
logits: |out - oracle| <= 4 * 2**-24 * max|s| * max|v| (measured errors
reach about half of 2**-24 * max|s| * max|v|), which stays under 1e-5 for
ordinary inputs but reaches ~1e-3 at max|s| ~ 16 000.  Float64 inputs
keep the oracle's 1e-12 there.  Every reduction order is fixed, so
results are bit-identical from run to run.  The dense call is the
single-group case of the varlen call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttnPartial, check_cu_seqlens, check_qkv

__all__ = ["TileConfig", "flash_forward", "flash_varlen_forward"]

# Default 256x512 tiles, from a sweep of the reference layout (2-core x86
# machine, one OpenBLAS thread, float32 inputs and tile arithmetic): every
# tile from 128x512 to 1024x1024 ran within noise of each other (958-1077
# ms median) and about 2.5x faster than 64x64 (2469 ms), all at one peak of
# 36.1 MB.  An earlier sweep over all three benchmark workloads found
# 256x512 among the fastest on each; on the flat 2D wirings it raises the
# peak by about 1.3% over 64x64.
@dataclass(frozen=True)
class TileConfig:
    q_block: int = 256
    k_block: int = 512

    def __post_init__(self) -> None:
        if self.q_block < 1 or self.k_block < 1:
            raise ValueError(f"tile blocks must be >= 1, got {self}")


def _flash_group(q_grp, k_grp, v_grp, out, lse, tile: TileConfig) -> None:
    """Stream each key tile of one group once past all its query blocks,
    accumulating in place into the group's ``out`` (zeros) and ``lse``
    (-inf) rows, which double as ``acc`` and ``m``."""
    s_q, d = q_grp.shape
    s_k = k_grp.shape[0]
    scale = q_grp.dtype.type(1.0 / np.sqrt(d))
    l = np.zeros(s_q, dtype=q_grp.dtype)
    for j0 in range(0, s_k, tile.k_block):
        j1 = min(j0 + tile.k_block, s_k)
        k_tile = k_grp[j0:j1]
        v_tile = v_grp[j0:j1]
        for i0 in range(0, s_q, tile.q_block):
            i1 = min(i0 + tile.q_block, s_q)
            s = q_grp[i0:i1] @ k_tile.T
            s *= scale
            m_blk = lse[i0:i1]
            m_new = np.maximum(m_blk, s.max(axis=1))
            alpha = np.exp(m_blk - m_new)
            s -= m_new[:, None]
            np.exp(s, out=s)
            l_blk = l[i0:i1]
            l_blk *= alpha
            l_blk += s.sum(axis=1)
            acc_blk = out[i0:i1]
            acc_blk *= alpha[:, None]
            acc_blk += s @ v_tile
            m_blk[...] = m_new
    out /= l[:, None]
    lse += np.log(l, out=l)


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
                _flash_group(
                    q[bi, hi, q0:q1], k[bi, hi, k0:k1], v[bi, hi, k0:k1],
                    out[bi, hi, q0:q1], lse[bi, hi, q0:q1], tile,
                )
    return AttnPartial(out, lse)
