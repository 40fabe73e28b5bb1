"""Tiled, streaming scaled-dot-product attention that never materializes QK^T.

One rule sizes every work unit: a unit holds at most R query rows of one
(batch, head), R * max(min(S_k, k_block), head_dim) <= q_block * k_block
(R >= 1), so its score tile and PV product each fit ``q_block * k_block``
numbers.  Adjacent ``cu_seqlens`` groups of one (S_q, S_k) stack while whole
groups fit; a longer group runs as slices of R rows, each a unit of one
group over all its keys (over wide keys, R = ``q_block``).  Units run one
after another.  A unit streams its key/value tiles, read where they lie,
past all its rows, keeping each row's online-softmax state (running row
max ``m``, denominator ``l``, rescaled accumulator ``acc``) in place, with
every operation carrying the leading G axis:

    m_new = max(m, rowmax(S_tile))
    alpha = exp(m - m_new)
    l     = l * alpha + rowsum(exp(S_tile - m_new))
    acc   = acc * alpha + exp(S_tile - m_new) @ V_tile
    m     = m_new

On a unit's first key tile the state is empty (``m = -inf``, ``l = 0``,
``acc = +0``): the ``m_new`` update gives ``rowmax(S_tile)``, and the tile
skips the rescaling and writes its PV product straight into ``acc`` before
adding ``+0``, the bits of ``0 + P``, a ``-0.0`` product included.  The
unit finishes with ``out = acc / l`` and ``lse = m + log(l)``.  Every
query row sees the same operations on the same key tiles in the same
order alone or in a stack; a BLAS may round a row differently in a
matmul of other height, so its bits follow the unit rule, not only the tiles.

Two partials ``(O_1, lse_1)`` and ``(O_2, lse_2)`` over disjoint keys for
the same queries merge into the full-key result via

    lse = logaddexp(lse_1, lse_2)
    O   = exp(lse_1 - lse') * O_1 + exp(lse_2 - lse') * O_2

with ``lse'`` the merged lse, its -inf rows replaced by 0, so the empty
partial (zero output, lse = -inf) weighs ``exp(-inf - lse') = 0``: a
two-sided identity, in a row empty on both sides too, forming no NaN.
The fold runs the lse arithmetic in float64 even for float32 partials,
applies the weights in the tensors' own precision and forms ``O_1 * w_1``
and ``O_2 * w_2`` in place, each in its own operand, before adding the
second to the first: beyond O(rows) weights it allocates nothing, and it
overwrites ``O_2``, so it is only given arrays it may spend.  Disjointness
of the key sets is the caller's obligation and is not checked.

A call folds its keys into the partial it is given, one unit at a time.
A unit whose rows hold the empty partial (zeros, lse -inf) accumulates in
them as ``acc`` and ``m``; any other unit runs in a scratch partial of its
own size, folds it into its rows and frees it before the next unit
starts.  All tile arithmetic (matmuls, ``exp``, the softmax state) runs in
the input precision.  By the one rule a unit's score tile, its PV product
and a merging unit's scratch partial each hold at most ``q_block *
k_block`` numbers, beside O(R) row state; none of it grows with the key
length or the number of frames.

Float32 rounds each score ``s`` to 2**-24 relative, so its error against
the float64 oracle grows with the logits: |out - oracle| <= 4 * 2**-24 *
max|s| * max|v| (measured errors reach about half of that), which stays
under 1e-5 for ordinary inputs but reaches ~1e-3 at max|s| ~ 16 000.  The
float32 lse obeys |lse - oracle| <= 8 * 2**-24 * (max|s| + log S_k)
(measured up to 3.8 * 2**-24 * (max|s| + log S_k)); the merges weight
partials by exp(lse1 - lse), so this error reaches a merged output too.
Float64 inputs keep the oracle's 1e-12 there.  Every reduction order is
fixed, and units depend on ``cu_seqlens`` and the tiles alone, so
results are bit-identical from run to run.  The dense call is the
single-group case of the varlen call.

Neither the update nor the fold forms a NaN from valid input, so every
unit runs under the package's float-range guard, ``core.float_range``, and
what can still trip it is overflow: finite inputs whose scores, the spread
``S - m`` of a row's scores, or PV sums (``acc`` reaches S_k * max|v|
before the division by ``l``) leave the float range of their precision
raise one ValueError instead of returning NaN or inf.  The float64 oracle
may still be finite there: it widens float32 inputs and normalizes before
its PV product.  The q, k and v ``topology`` passes are checked or were
projected under the same guard, so the call's own check of them finds nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import QKV_AXES, AttnPartial, check_count, check_cu_seqlens, check_qkv, check_tensor, float_range

__all__ = ["TileConfig", "flash_varlen_forward", "merge_partials"]

# Default 256x512 tiles, from a sweep of the reference layout (2-core x86,
# one OpenBLAS thread, float32): every tile from 128x512 to 1024x1024 ran
# within noise (958-1077 ms median), about 2.5x faster than 64x64 (2469 ms).
# The peak follows q_block, the rows of a unit over wide keys: 128x512 cut
# peak_bytes by 4.4% (long_clip) and 3.2% (ref_layout) but cost 5.8% and
# 5-16% in forward_ms, so 256x512 stays.  It was among the fastest on all
# three benchmark workloads; on the flat 2D wirings it raises the peak by
# about 1.3% over 64x64.
@dataclass(frozen=True)
class TileConfig:
    q_block: int = 256
    k_block: int = 512

    def __post_init__(self) -> None:
        for name in ("q_block", "k_block"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))


def _flash_group(q_grp, k_grp, v_grp, out, lse, tile: TileConfig) -> None:
    """Stream the key tiles of one unit (G groups of S_q rows, sized by ``_stacks``)
    past all its rows at once, accumulating in place into the empty partial
    ``out`` (zeros, (G, S_q, D)) and ``lse`` (-inf, (G, S_q)), which double as
    ``acc`` and ``m``; the first key tile starts that state without rescaling it.
    Every product, reduction and ``exp`` carries the G axis."""
    g, s_q, d = q_grp.shape
    scale = q_grp.dtype.type(1.0 / np.sqrt(d))
    l = np.zeros((g, s_q), dtype=q_grp.dtype)
    for j0 in range(0, k_grp.shape[1], tile.k_block):
        v_tile = v_grp[:, j0:j0 + tile.k_block]
        s = q_grp @ k_grp[:, j0:j0 + tile.k_block].transpose(0, 2, 1)
        s *= scale
        m_new = s.max(axis=2)
        np.maximum(lse, m_new, out=m_new)  # the running max m is -inf on a unit's first key tile
        if j0:  # the empty state (l = 0, acc = 0) has nothing to rescale
            alpha = np.exp(lse - m_new)
            l *= alpha
            out *= alpha[..., None]
        s -= m_new[..., None]
        np.exp(s, out=s)
        l += s.sum(axis=2)
        if j0:
            out += s @ v_tile
        else:  # PV straight into acc; + 0 turns a -0.0 into +0.0, as 0 + PV does
            np.matmul(s, v_tile, out=out)
            out += 0
        lse[...] = m_new
        del s  # so the next QK^T does not allocate beside this tile
    out /= l[..., None]
    lse += np.log(l, out=l)


def _check_partial(p, name: str, like: np.ndarray | None) -> AttnPartial:
    """``p`` as a partial of arrays: ``out`` passes check_tensor along QKV_AXES, like
    ``like``, and ``lse``, of shape ``out.shape[:3]`` in out's precision, is
    finite, or -inf for a row that saw no keys."""
    out, lse = p
    out, lse = check_tensor(out, name, QKV_AXES, like), np.asarray(lse)
    if lse.shape != out.shape[:3] or lse.dtype != out.dtype:
        raise ValueError(f"{name} arrays must be out (B, H, S_q, D) and lse (B, H, S_q) in one precision, "
                         f"got {out.shape} {out.dtype} and {lse.shape} {lse.dtype}")
    # NaN and +inf both reach the max, so one reduction finds them.
    if lse.size and not lse.max() < np.inf:
        where = tuple(int(i) for i in np.argwhere(~(lse < np.inf))[0])
        raise ValueError(f"{name} has lse {lse[where]} at {where}; an lse must be finite or -inf")
    return AttnPartial(out, lse)


def _fold(dest: AttnPartial, part: AttnPartial) -> AttnPartial:
    """Merge ``part`` into ``dest`` in place and return ``dest``; ``part.out`` is overwritten."""
    o1, lse1 = dest
    o2, lse2 = part
    l1 = np.asarray(lse1, dtype=np.float64)
    l2 = np.asarray(lse2, dtype=np.float64)
    lse = np.logaddexp(l1, l2)
    base = np.where(lse > -np.inf, lse, 0.0)  # a row empty on both sides weighs both exp(-inf - 0) = 0
    w1 = np.exp(l1 - base)[..., None].astype(o1.dtype)
    w2 = np.exp(l2 - base)[..., None].astype(o2.dtype)
    lse1[...] = lse
    o1 *= w1
    o2 *= w2
    o1 += o2
    return dest


def merge_partials(p1: AttnPartial, p2: AttnPartial) -> AttnPartial:
    """Merge two partials over disjoint key sets for the same queries into a fresh one.

    Each, any (out, lse) pair of array-likes, gets the check of
    ``flash_varlen_forward``'s ``out``, p2 like p1.
    """
    o1, lse1 = _check_partial(p1, "p1", None)
    o2, lse2 = _check_partial(p2, "p2", o1)
    return _fold(AttnPartial(o1.copy(), lse1.copy()), AttnPartial(o2.copy(), lse2))


def _stacks(cu_q, cu_k, d: int, tile: TileConfig) -> list[tuple[int, int, int, int, int]]:
    """Units of a varlen call as (q0, k0, S_q, S_k, G) under the module's one rule:
    adjacent groups of one (S_q, S_k) stack while whole groups fit in R rows, and a
    longer group runs as slices of R rows; (0, 0) groups split no run."""
    g = np.flatnonzero(np.diff(cu_q) + np.diff(cu_k))
    q0, k0, sq, sk = cu_q[g], cu_k[g], cu_q[g + 1] - cu_q[g], cu_k[g + 1] - cu_k[g]
    first = np.flatnonzero(np.diff(sq, prepend=-1) | np.diff(sk, prepend=-1)).tolist()
    units = []
    for a, z in zip(first, first[1:] + [g.size]):
        s_q, s_k = int(sq[a]), int(sk[a])
        if s_q and s_k:
            r = max(1, tile.q_block * tile.k_block // max(min(s_k, tile.k_block), d))
            n, rows = max(1, r // s_q), min(r, s_q)  # groups per unit, rows per slice of a group
            units += [(int(q0[i]) + i0, int(k0[i]), min(rows, s_q - i0), s_k, min(n, z - i))
                      for i in range(a, z, n) for i0 in range(0, s_q, rows)]
    return units


def flash_varlen_forward(q, k, v, cu_q, cu_k, tile: TileConfig = TileConfig(), out=None) -> AttnPartial:
    """Grouped streaming attention over packed variable-length sequences.

    Group ``g`` spans ``cu_q[g]:cu_q[g+1]`` of the packed queries and
    ``cu_k[g]:cu_k[g+1]`` of the packed keys/values; its queries attend
    only to its own keys.  Bit-identical to one call per group concatenated
    in query order, though adjacent equal groups run as one stack; the dense
    call is the one-group case, ``cu_q = [0, S_q]`` and ``cu_k = [0, S_k]``.
    Queries of a zero-key group get zero output and lse = -inf.

    ``out``, if given, is an AttnPartial of arrays, possibly strided views of
    larger arrays, checked once here: finite rows like q, and an lse finite or
    -inf.  The call folds its keys into it, bit for bit as
    ``merge_partials(out, fresh)`` would, and returns it as is; a unit merging into rows that are not empty adds one unit-sized
    scratch partial, one at a time.  ``out=None`` is a fresh empty partial;
    anything else, a plain pair included, is refused, and so is an ``out``
    sharing memory with q, k or v, which later units still read, or whose
    two arrays share elements.

    Finite inputs whose scores, their spread within a row, or PV sums leave
    the float range of q's precision raise ValueError, naming that range,
    rather than return NaN or inf; a given ``out`` is then left partly folded.
    """
    q, k, v = check_qkv(q, k, v)
    cu_q = check_cu_seqlens(cu_q, q.shape[2], "cu_q")
    cu_k = check_cu_seqlens(cu_k, k.shape[2], "cu_k")
    if cu_q.size != cu_k.size:
        raise ValueError(f"group-count mismatch: cu_q has {cu_q.size - 1} groups, cu_k {cu_k.size - 1}")

    b, h, s_q, d = q.shape
    if out is None:
        out = AttnPartial(np.zeros((b, h, s_q, d), q.dtype), np.full((b, h, s_q), -np.inf, q.dtype))
    elif not (isinstance(out, AttnPartial) and all(isinstance(a, np.ndarray) for a in out)):
        raise ValueError(f"out must be an AttnPartial of arrays to fold into, got {type(out).__name__}")
    else:  # np.shares_memory is exact; arrays of disjoint bounds cost one comparison
        _check_partial(out, "out", q)
        for name, x in (("q", q), ("k", k), ("v", v)):
            if np.shares_memory(out.out, x) or np.shares_memory(out.lse, x):
                raise ValueError(f"out shares memory with {name}, which the call still reads while it writes out")
        if np.shares_memory(out.out, out.lse):
            raise ValueError("out's out and lse arrays share memory; the call writes them apart")
    units = _stacks(cu_q, cu_k, d, tile)
    with float_range(q.dtype, "the attention of these finite inputs"):
        for bi, hi, (q0, k0, sq, sk, n) in itertools.product(range(b), range(h), units):
            rows, cols = slice(q0, q0 + n * sq), slice(k0, k0 + n * sk)
            dest = AttnPartial(out.out[bi, hi, rows], out.lse[bi, hi, rows])  # (rows, D): one fold
            empty = np.isneginf(dest.lse).all()
            part = dest if empty else AttnPartial(np.zeros((n * sq, d), q.dtype), np.full(n * sq, -np.inf, q.dtype))
            _flash_group(q[bi, hi, rows].reshape(n, sq, d), k[bi, hi, cols].reshape(n, sk, d),
                         v[bi, hi, cols].reshape(n, sk, d), part.out.reshape(n, sq, d), part.lse.reshape(n, sq), tile)
            if not empty:
                _fold(dest, part)
            del part  # so the next unit's scratch is not allocated beside this one
    return out
