"""Tiled, streaming scaled-dot-product attention that never materializes QK^T.

A work unit is a stack of G equal groups of one (batch, head): a run of
adjacent ``cu_seqlens`` groups with one (S_q, S_k), capped so that the
stack's score tile and its PV product each hold at most
``q_block * k_block`` numbers.  Any other group, the dense call included,
is a stack of one.  Units run one after another.  A unit keeps the
classic online-softmax state of every query row (running row max ``m``,
running denominator ``l``, rescaled accumulator ``acc``) across the whole
key loop.  Key/value tiles are the outer loop and are read where they
lie; query blocks are the inner loop, and each updates its rows in place,
with every operation carrying the leading G axis:

    m_new = max(m, rowmax(S_tile))
    alpha = exp(m - m_new)
    l     = l * alpha + rowsum(exp(S_tile - m_new))
    acc   = acc * alpha + exp(S_tile - m_new) @ V_tile
    m     = m_new

The unit finishes with ``out = acc / l`` and ``lse = m + log(l)``.  Every
query row sees the same operations on the same key tiles in the same
order as it would with query blocks outermost, or alone in a stack of
one, so results depend on the tile shape only, not on the loop order or
the stacking.

All tile arithmetic (matmuls, ``exp``, the softmax state) runs in the
input precision, and ``acc`` and ``m`` are the output's own rows.  Memory
per unit is O(S_q) for ``l`` plus one score tile of at most
``q_block * k_block`` numbers and a PV product no larger (or, in a stack
of one, ``q_block * head_dim``), independent of the key length.  Float32 rounds each score ``s`` to
2**-24 relative, so its error against the float64 oracle grows with the
logits: |out - oracle| <= 4 * 2**-24 * max|s| * max|v| (measured errors
reach about half of 2**-24 * max|s| * max|v|), which stays under 1e-5 for
ordinary inputs but reaches ~1e-3 at max|s| ~ 16 000.  The float32 lse
obeys |lse - oracle| <= 8 * 2**-24 * (max|s| + log S_k) (measured up to
3.8 * 2**-24 * (max|s| + log S_k)); the merges weight partials by
exp(lse1 - lse), so this error reaches a merged output too.  Float64
inputs keep the oracle's 1e-12 there.  Every reduction order is fixed,
and stacks depend on ``cu_seqlens`` and the tiles alone, so results are
bit-identical from run to run.  The dense call is the single-group case
of the varlen call.
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
    """Stream each key tile of a stack of G equal groups once past all its
    query blocks, accumulating in place into the stack's ``out`` (zeros,
    (G, S_q, D)) and ``lse`` (-inf, (G, S_q)) rows, which double as ``acc``
    and ``m``.  Every product, reduction and ``exp`` carries the leading G
    axis, so the stack lives in one score tile of (G, q rows, k rows)."""
    g, s_q, d = q_grp.shape
    s_k = k_grp.shape[1]
    scale = q_grp.dtype.type(1.0 / np.sqrt(d))
    l = np.zeros((g, s_q), dtype=q_grp.dtype)
    for j0 in range(0, s_k, tile.k_block):
        j1 = min(j0 + tile.k_block, s_k)
        k_tile = k_grp[:, j0:j1]
        v_tile = v_grp[:, j0:j1]
        for i0 in range(0, s_q, tile.q_block):
            i1 = min(i0 + tile.q_block, s_q)
            s = q_grp[:, i0:i1] @ k_tile.transpose(0, 2, 1)
            s *= scale
            m_blk = lse[:, i0:i1]
            m_new = np.maximum(m_blk, s.max(axis=2))
            alpha = np.exp(m_blk - m_new)
            s -= m_new[..., None]
            np.exp(s, out=s)
            l_blk = l[:, i0:i1]
            l_blk *= alpha
            l_blk += s.sum(axis=2)
            acc_blk = out[:, i0:i1]
            acc_blk *= alpha[..., None]
            acc_blk += s @ v_tile
            m_blk[...] = m_new
            del s  # so the next QK^T does not allocate beside this tile
    out /= l[..., None]
    lse += np.log(l, out=l)


def flash_forward(q, k, v, tile: TileConfig = TileConfig()) -> AttnPartial:
    """Streaming attention over a dense equal-length batch, with LSE.

    Mathematically equal to unmasked naive attention; masking is achieved
    upstream by restricting the key set handed to this kernel.  A zero-key
    input returns the empty partial (zero output, lse = -inf everywhere).
    This is :func:`flash_varlen_forward` with one group spanning all rows.
    """
    # The varlen call runs the one check_qkv, which rejects other ranks
    # before the group bounds are read.
    s_q, s_k = (np.shape(x)[2] if np.ndim(x) == 4 else 0 for x in (q, k))
    return flash_varlen_forward(q, k, v, [0, s_q], [0, s_k], tile)


def flash_varlen_forward(q, k, v, cu_q, cu_k, tile: TileConfig = TileConfig(), out=None) -> AttnPartial:
    """Grouped streaming attention over packed variable-length sequences.

    Group ``g`` spans ``cu_q[g]:cu_q[g+1]`` of the packed queries and
    ``cu_k[g]:cu_k[g+1]`` of the packed keys/values; its queries attend
    only to its own keys.  Bit-identical to running :func:`flash_forward`
    independently per group and concatenating in query order, though
    adjacent equal groups run as one stack.  Queries of a zero-key group
    get zero output and lse = -inf.

    ``out``, if given, is the destination ``AttnPartial``: arrays of shape
    (B, H, S_q, D) and (B, H, S_q) in q's dtype, possibly strided views of
    larger arrays.  The kernel zero-fills them, sets lse to -inf, runs the
    same arithmetic in them and returns ``out`` itself.
    """
    q, k, v = check_qkv(q, k, v)
    cu_q = check_cu_seqlens(cu_q, q.shape[2], "cu_q")
    cu_k = check_cu_seqlens(cu_k, k.shape[2], "cu_k")
    if cu_q.size != cu_k.size:
        raise ValueError(f"group-count mismatch: cu_q has {cu_q.size - 1} groups, cu_k {cu_k.size - 1}")

    b, h, s_q, d = q.shape
    if out is None:
        out = AttnPartial(np.empty((b, h, s_q, d), q.dtype), np.empty((b, h, s_q), q.dtype))
    for arr, shape in zip(out, ((b, h, s_q, d), (b, h, s_q))):
        if arr.shape != shape or arr.dtype != q.dtype:
            raise ValueError(f"out arrays must be {shape} {q.dtype}, got {arr.shape} {arr.dtype}")
    o, lse = out
    o[...], lse[...] = 0, -np.inf

    # Stacks: runs of adjacent non-empty groups of one (S_q, S_k), each
    # capped so that its score tile and its PV product (G, rows, D) each
    # hold at most q_block * k_block numbers.
    budget = tile.q_block * tile.k_block
    stacks = []  # [q0, k0, S_q, S_k, G]
    for g in range(cu_q.size - 1):
        q0, k0 = int(cu_q[g]), int(cu_k[g])
        sq, sk = int(cu_q[g + 1]) - q0, int(cu_k[g + 1]) - k0
        if sq == 0 or sk == 0:
            continue
        if stacks:
            p_q0, p_k0, p_sq, p_sk, n = stacks[-1]
            if ((p_sq, p_sk, p_q0 + n * sq, p_k0 + n * sk) == (sq, sk, q0, k0)
                    and (n + 1) * min(sq, tile.q_block) * max(min(sk, tile.k_block), d) <= budget):
                stacks[-1][4] += 1
                continue
        stacks.append([q0, k0, sq, sk, 1])
    for bi in range(b):
        for hi in range(h):
            for q0, k0, sq, sk, n in stacks:
                rows, cols = slice(q0, q0 + n * sq), slice(k0, k0 + n * sk)
                _flash_group(
                    q[bi, hi, rows].reshape(n, sq, d), k[bi, hi, cols].reshape(n, sk, d),
                    v[bi, hi, cols].reshape(n, sk, d), o[bi, hi, rows].reshape(n, sq, d),
                    lse[bi, hi, rows].reshape(n, sq), tile,
                )
    return out
