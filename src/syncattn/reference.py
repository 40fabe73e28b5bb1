"""Naive fully-materialized masked attention, the ground truth for everything else.

Scores are ``s_ij = (q_i . k_j) / sqrt(D)`` with masked pairs forced to
-inf before the softmax, which is exactly equivalent to running attention
over the restricted key set.  All internal arithmetic runs in float64
regardless of the input precision so the oracle is the tightest ground
truth available; the full score matrix is materialized by design.

The backward pass is the standard differentiation of masked softmax
attention; ``finite_diff_check`` verifies it against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AttnPartial, check_attn_tensor, check_qkv, seeded_random_tensor

__all__ = ["GradCheckReport", "finite_diff_check", "naive_attention", "naive_backward"]


def _as_allow(mask, s_q: int, s_k: int) -> np.ndarray | None:
    """Check that an optional mask is a boolean (s_q, s_k) matrix."""
    if mask is None:
        return None
    allow = np.asarray(mask)
    if allow.shape != (s_q, s_k) or allow.dtype != np.bool_:
        raise ValueError(
            f"mask must be a boolean ({s_q}, {s_k}) matrix, got {allow.dtype} {allow.shape}"
        )
    return allow


def _masked_probabilities(q2, k2, allow):
    """Softmax matrix and lse for one (batch, head) slice, float64.

    Returns ``(p, lse)`` where ``p`` is the row-stochastic score matrix
    with zero rows, and lse = -inf, where every key is masked.
    """
    d = q2.shape[-1]
    scale = 1.0 / np.sqrt(d)
    s = (q2.astype(np.float64) @ k2.astype(np.float64).T) * scale
    if allow is not None:
        s = np.where(allow, s, -np.inf)
    if s.shape[1] == 0:
        return np.zeros_like(s), np.full(s.shape[0], -np.inf)
    m = np.max(s, axis=1)
    empty = np.isneginf(m)
    m_safe = np.where(empty, 0.0, m)
    p = np.exp(s - m_safe[:, None])
    denom = p.sum(axis=1)
    denom_safe = np.where(empty, 1.0, denom)
    lse = np.where(empty, -np.inf, m_safe + np.log(denom_safe))
    return p / denom_safe[:, None], lse


def naive_attention(q, k, v, mask=None) -> AttnPartial:
    """Masked scaled-dot-product attention with per-row LogSumExp.

    Args:
        q, k, v: (B, H, S_q, D) / (B, H, S_k, D) tensors of one precision.
        mask: optional boolean (S_q, S_k) permission matrix; True means
            the query row may attend to the key column.  The same mask
            applies to every (batch, head) pair.

    Rows whose keys are all masked (or S_k == 0) return an exactly-zero
    output row and ``lse = -inf``.
    """
    q, k, v = check_qkv(q, k, v)
    b, h, s_q, d = q.shape
    s_k = k.shape[2]
    allow = _as_allow(mask, s_q, s_k)

    out = np.empty((b, h, s_q, d), dtype=q.dtype)
    lse = np.empty((b, h, s_q), dtype=q.dtype)
    for bi in range(b):
        for hi in range(h):
            p, lse64 = _masked_probabilities(q[bi, hi], k[bi, hi], allow)
            out[bi, hi] = p @ v[bi, hi].astype(np.float64)
            lse[bi, hi] = lse64
    return AttnPartial(out, lse)


def naive_backward(q, k, v, dout, mask=None):
    """Analytic gradients of masked attention w.r.t. q, k, and v.

    With P the masked softmax matrix and dO the output gradient:

        dV = P^T dO
        dP = dO V^T
        dS = P * (dP - rowsum(dP * P))
        dQ = dS K / sqrt(D),  dK = dS^T Q / sqrt(D)

    Masked entries have P = 0 and therefore contribute nothing.
    """
    q, k, v = check_qkv(q, k, v)
    dout = check_attn_tensor(dout, "dout")
    if dout.shape != q.shape:
        raise ValueError(f"dout {dout.shape} must match the output shape {q.shape}")
    b, h, s_q, d = q.shape
    s_k = k.shape[2]
    allow = _as_allow(mask, s_q, s_k)
    scale = 1.0 / np.sqrt(d)

    dq = np.empty_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    for bi in range(b):
        for hi in range(h):
            p, _ = _masked_probabilities(q[bi, hi], k[bi, hi], allow)
            do64 = dout[bi, hi].astype(np.float64)
            dp = do64 @ v[bi, hi].astype(np.float64).T
            ds = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
            dq[bi, hi] = ds @ k[bi, hi].astype(np.float64) * scale
            dk[bi, hi] = ds.T @ q[bi, hi].astype(np.float64) * scale
            dv[bi, hi] = p.T @ do64
    return dq, dk, dv


@dataclass(frozen=True)
class GradCheckReport:
    """Result of comparing analytic gradients against central differences.

    Relative errors are sup-norm ratios: ``max|analytic - numeric|`` over
    the sup norm of the numeric gradient of that tensor (an exactly-zero
    gradient pair scores 0).
    """

    max_rel_err_dq: float
    max_rel_err_dk: float
    max_rel_err_dv: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_rel_err_dq, self.max_rel_err_dk, self.max_rel_err_dv) <= self.tol


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = float(np.max(np.abs(analytic - numeric))) if analytic.size else 0.0
    scale = float(np.max(np.abs(numeric))) if numeric.size else 0.0
    if diff == 0.0:
        return 0.0
    return diff / max(scale, 1e-12)


def finite_diff_check(q, k, v, mask=None, seed: int = 0, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check naive_backward against central finite differences.

    The scalar loss is ``sum(output * dO)`` for a seeded random dO, so its
    gradients are exactly what naive_backward returns.  Inputs must be
    float64 and carry at most 4096 elements in total (each element costs
    two full forward passes).
    """
    q, k, v = check_qkv(q, k, v)
    if q.dtype != np.float64:
        raise ValueError("finite_diff_check requires float64 inputs")
    total = q.size + k.size + v.size
    if total > 4096:
        raise ValueError(f"finite_diff_check is bounded to 4096 elements, got {total}")
    dout = seeded_random_tensor(q.shape, seed, np.float64)

    def loss(qq, kk, vv) -> float:
        return float(np.sum(naive_attention(qq, kk, vv, mask).out * dout))

    def numeric_grad(which: int) -> np.ndarray:
        tensors = [q.copy(), k.copy(), v.copy()]
        target = tensors[which]
        grad = np.empty_like(target)
        flat = target.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss(*tensors)
            flat[i] = orig - step
            down = loss(*tensors)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        return grad

    dq, dk, dv = naive_backward(q, k, v, dout, mask)
    return GradCheckReport(
        max_rel_err_dq=_rel_err(dq, numeric_grad(0)),
        max_rel_err_dk=_rel_err(dk, numeric_grad(1)),
        max_rel_err_dv=_rel_err(dv, numeric_grad(2)),
        tol=tol,
    )
