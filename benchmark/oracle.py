"""Float64 references and pair counts, derived only from the frame rule.

Nothing here calls into ``syncattn``: a token's allowed keys come from its
segment and frame index through a rule table, so a fault in the program's
own mask or decomposition cannot leak into the check.

A rule table maps (query segment, key segment) to ``"all"`` (every key of
that segment) or ``"frame"`` (the keys of that segment in the query's own
frame); a pair that is absent is blocked.  ``MASKED_3D`` is the table in
the top-level README.  ``CROSS_2D`` and ``SELF_2D`` are the per-frame 2D
wirings over the video and audio streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASKED_3D = {
    ("video", "video"): "all",
    ("video", "others"): "all",
    ("video", "audio"): "frame",
    ("others", "video"): "all",
    ("others", "others"): "all",
    ("audio", "video"): "frame",
    ("audio", "audio"): "frame",
}
CROSS_2D = {("video", "audio"): "frame"}
SELF_2D = {
    ("video", "video"): "frame",
    ("video", "audio"): "frame",
    ("audio", "video"): "frame",
    ("audio", "audio"): "frame",
}


@dataclass(frozen=True)
class Tokens:
    """Segment name and frame index (-1 for frameless tokens) of each token."""

    segment: np.ndarray  # (S,) str
    frame: np.ndarray  # (S,) int64

    def rows_of(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.segment == name)


def tokens(frames: int, parts: list[tuple[str, int, bool]]) -> Tokens:
    """Tokens of segments packed in the given order.

    Each part is ``(name, count, per_frame)``: ``count`` tokens per frame,
    frame-major, when ``per_frame``; otherwise ``count`` frameless tokens.
    """
    seg, frame = [], []
    for name, count, per_frame in parts:
        n = frames * count if per_frame else count
        seg.append(np.full(n, name))
        frame.append(
            np.repeat(np.arange(frames, dtype=np.int64), count)
            if per_frame
            else np.full(count, -1, dtype=np.int64)
        )
    return Tokens(np.concatenate(seg).astype(str), np.concatenate(frame))


def allowed_keys(toks: Tokens, rules: dict, row: int) -> np.ndarray:
    """Key indices that query token ``row`` may attend to."""
    allow = np.zeros(toks.segment.size, dtype=bool)
    for (q_seg, k_seg), rule in rules.items():
        if q_seg != toks.segment[row]:
            continue
        in_seg = toks.segment == k_seg
        allow |= in_seg if rule == "all" else in_seg & (toks.frame == toks.frame[row])
    return np.flatnonzero(allow)


def allowed_pairs(toks: Tokens, rules: dict) -> int:
    """Number of allowed (query, key) pairs, counted per segment pair."""
    total = 0
    for (q_seg, k_seg), rule in rules.items():
        q_frames = toks.frame[toks.segment == q_seg]
        k_frames = toks.frame[toks.segment == k_seg]
        if rule == "all":
            total += q_frames.size * k_frames.size
        else:
            n = max(q_frames.max(initial=-1), k_frames.max(initial=-1)) + 1
            total += int(np.bincount(q_frames, minlength=n) @ np.bincount(k_frames, minlength=n))
    return total


def attention_rows64(q, k, v, toks: Tokens, rules: dict, rows) -> np.ndarray:
    """Float64 attention of the given query rows, every head; (H, rows, D).

    ``q``, ``k`` and ``v`` are (1, H, S, D) in packed order of ``toks``.
    """
    q64, k64, v64 = (np.asarray(t[0], dtype=np.float64) for t in (q, k, v))
    scale = 1.0 / np.sqrt(q64.shape[-1])
    out = np.empty((q64.shape[0], len(rows), q64.shape[-1]))
    for r, row in enumerate(rows):
        keys = allowed_keys(toks, rules, row)
        s = np.einsum("hd,hkd->hk", q64[:, row], k64[:, keys]) * scale
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        out[:, r] = np.einsum("hk,hkd->hd", p, v64[:, keys])
    return out


def projected_rows64(x, toks: Tokens, rules: dict, rows, wq, wk, wv, wo, heads: int) -> np.ndarray:
    """Float64 projected multi-head attention of the given rows; (rows, C).

    ``x`` is (1, S, C) in the order of ``toks``.  Rows that share one key
    set are computed together, so a frame's keys are projected once.
    """
    x64 = np.asarray(x[0], dtype=np.float64)
    wq, wk, wv, wo = (np.asarray(w, dtype=np.float64) for w in (wq, wk, wv, wo))
    c = x64.shape[1]
    d = c // heads
    out = np.empty((len(rows), c))
    by_keys: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for r, row in enumerate(rows):
        keys = allowed_keys(toks, rules, row)
        by_keys.setdefault(keys.tobytes(), (keys, []))[1].append(r)
    for keys, idx in by_keys.values():
        qh = (x64[np.asarray(rows)[idx]] @ wq).reshape(len(idx), heads, d)
        kh = (x64[keys] @ wk).reshape(keys.size, heads, d)
        vh = (x64[keys] @ wv).reshape(keys.size, heads, d)
        s = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(d)
        p = np.exp(s - s.max(axis=2, keepdims=True))
        p /= p.sum(axis=2, keepdims=True)
        out[idx] = np.einsum("hqk,khd->qhd", p, vh).reshape(len(idx), c) @ wo
    return out
