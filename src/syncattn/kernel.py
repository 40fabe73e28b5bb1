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

A call folds its keys into the partial it is given, one unit at a time.
A unit whose rows hold the empty partial (zeros, lse -inf) accumulates in
them as ``acc`` and ``m``; any other unit runs in a scratch partial of its
own size and then merges it into its rows through the lse, of which the
empty partial is the exact identity.  All tile arithmetic (matmuls,
``exp``, the softmax state) runs in the input precision.  Memory per unit
is O(S_q) for ``l``, one score tile of at most ``q_block * k_block``
numbers, a PV product no larger (or, in a stack of one,
``q_block * head_dim``) and a merging unit's scratch partial, none of it
growing with the key length.

Float32 rounds each score ``s`` to 2**-24 relative, so its error against
the float64 oracle grows with the logits: |out - oracle| <= 4 * 2**-24 *
max|s| * max|v| (measured errors reach about half of that), which stays
under 1e-5 for ordinary inputs but reaches ~1e-3 at max|s| ~ 16 000.  The
float32 lse obeys |lse - oracle| <= 8 * 2**-24 * (max|s| + log S_k)
(measured up to 3.8 * 2**-24 * (max|s| + log S_k)); the merges weight
partials by exp(lse1 - lse), so this error reaches a merged output too.
Float64 inputs keep the oracle's 1e-12 there.  Every reduction order is
fixed, and stacks depend on ``cu_seqlens`` and the tiles alone, so
results are bit-identical from run to run.  The dense call is the
single-group case of the varlen call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttnPartial, check_count, check_cu_seqlens, check_qkv
from .merge import merge_partials

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
        for name in ("q_block", "k_block"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))


def _flash_group(q_grp, k_grp, v_grp, out, lse, tile: TileConfig) -> None:
    """Stream each key tile of a stack of G equal groups once past all its query
    blocks, accumulating in place into the empty partial ``out`` (zeros, (G, S_q, D))
    and ``lse`` (-inf, (G, S_q)), which double as ``acc`` and ``m``.  Every product,
    reduction and ``exp`` carries the G axis, so the stack lives in one score tile."""
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
    # The varlen call's one check_qkv rejects other ranks before the bounds are read.
    s_q, s_k = (np.shape(x)[2] if np.ndim(x) == 4 else 0 for x in (q, k))
    return flash_varlen_forward(q, k, v, [0, s_q], [0, s_k], tile)


def _stacks(cu_q, cu_k, d: int, tile: TileConfig) -> list[tuple[int, int, int, int, int]]:
    """Units of a varlen call as (q0, k0, S_q, S_k, G): runs of adjacent groups of
    one (S_q, S_k) with queries and keys, cut into stacks whose score tile and PV
    product each hold at most q_block * k_block numbers; (0, 0) groups split no run."""
    g = np.flatnonzero(np.diff(cu_q) + np.diff(cu_k))
    q0, k0, sq, sk = cu_q[g], cu_k[g], cu_q[g + 1] - cu_q[g], cu_k[g + 1] - cu_k[g]
    first = np.flatnonzero(np.diff(sq, prepend=-1) | np.diff(sk, prepend=-1)).tolist()
    stacks = []
    for a, z in zip(first, first[1:] + [g.size]):
        s_q, s_k = int(sq[a]), int(sk[a])
        if s_q and s_k:
            cap = max(1, tile.q_block * tile.k_block // (min(s_q, tile.q_block) * max(min(s_k, tile.k_block), d)))
            stacks += [(int(q0[i]), int(k0[i]), s_q, s_k, min(cap, z - i)) for i in range(a, z, cap)]
    return stacks


def flash_varlen_forward(q, k, v, cu_q, cu_k, tile: TileConfig = TileConfig(), out=None) -> AttnPartial:
    """Grouped streaming attention over packed variable-length sequences.

    Group ``g`` spans ``cu_q[g]:cu_q[g+1]`` of the packed queries and
    ``cu_k[g]:cu_k[g+1]`` of the packed keys/values; its queries attend
    only to its own keys.  Bit-identical to running :func:`flash_forward`
    independently per group and concatenating in query order, though
    adjacent equal groups run as one stack.  Queries of a zero-key group
    get zero output and lse = -inf.

    ``out``, if given, must hold a partial: arrays of shape (B, H, S_q, D)
    and (B, H, S_q) in q's dtype, possibly strided views of larger arrays.
    The call folds its keys into it, as ``merge_partials(out, fresh)``
    would, and returns it; a unit merging into rows that are not empty adds
    one unit-sized scratch partial.  ``out=None`` is a fresh empty partial.
    """
    q, k, v = check_qkv(q, k, v)
    cu_q = check_cu_seqlens(cu_q, q.shape[2], "cu_q")
    cu_k = check_cu_seqlens(cu_k, k.shape[2], "cu_k")
    if cu_q.size != cu_k.size:
        raise ValueError(f"group-count mismatch: cu_q has {cu_q.size - 1} groups, cu_k {cu_k.size - 1}")

    b, h, s_q, d = q.shape
    if out is None:
        out = AttnPartial(np.zeros((b, h, s_q, d), q.dtype), np.full((b, h, s_q), -np.inf, q.dtype))
    for arr, shape in zip(out, ((b, h, s_q, d), (b, h, s_q))):
        if arr.shape != shape or arr.dtype != q.dtype:
            raise ValueError(f"out arrays must be {shape} {q.dtype}, got {arr.shape} {arr.dtype}")
    stacks = _stacks(cu_q, cu_k, d, tile)
    for bi in range(b):
        for hi in range(h):
            for q0, k0, sq, sk, n in stacks:
                rows, cols = slice(q0, q0 + n * sq), slice(k0, k0 + n * sk)
                dest = AttnPartial(out.out[bi, hi, rows], out.lse[bi, hi, rows])  # (rows, D): one merge step
                empty = np.isneginf(dest.lse).all()
                part = dest if empty else AttnPartial(np.zeros((n * sq, d), q.dtype), np.full(n * sq, -np.inf, q.dtype))
                _flash_group(q[bi, hi, rows].reshape(n, sq, d), k[bi, hi, cols].reshape(n, sk, d),
                             v[bi, hi, cols].reshape(n, sk, d), part.out.reshape(n, sq, d), part.lse.reshape(n, sq), tile)
                if not empty:
                    merge_partials(dest, part, out=dest)
    return out
