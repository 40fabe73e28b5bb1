"""Token layout arithmetic, tensor containers, seeded generation, golden-vector I/O.

Shared vocabulary for the whole package:

* A packed multi-modal sequence always stores its segments in the fixed
  order video block, others block, audio block.  Video and audio are
  frame-major (all tokens of frame 0, then frame 1, ...).  The others
  block is a single flat run of asynchronous condition tokens (reference
  images, text) with no frame structure.
* Attention tensors are dense 4-axis numpy arrays with axes
  ``(batch, heads, sequence, head_dim)``, row-major, float32 or float64.
* ``cu_seqlens`` vectors describe packed variable-length groups as
  cumulative boundaries ``[0, n_0, n_0+n_1, ...]``; equal consecutive
  boundaries mark empty groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "AttnPartial",
    "GoldenFileError",
    "PRECISIONS",
    "TokenLayout",
    "check_attn_tensor",
    "check_count",
    "check_cu_seqlens",
    "check_finite",
    "check_qkv",
    "per_frame_cu_seqlens",
    "precision_name",
    "read_golden",
    "seeded_random_tensor",
    "segment_offsets",
    "write_golden",
]

# Precision names used by the CLI and the golden-vector file format.
PRECISIONS = {"f32": np.float32, "f64": np.float64}

# Hard cap on the flattened index space of generated tensors; anything
# larger is a caller bug, not a workload this package supports.
_MAX_ELEMENTS = 2**40


class GoldenFileError(ValueError):
    """Raised for malformed, non-finite, or shape-inconsistent golden files."""


def check_count(value, name: str, least: int = 0) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class TokenLayout:
    """Shape of one packed multi-modal token sequence.

    Attributes:
        frames: number of synchronized frames F (>= 1).
        video_per_frame: video tokens per frame N (>= 0).
        audio_per_frame: audio tokens per frame L (>= 0).
        others_len: flattened count of asynchronous condition tokens (>= 0).
    """

    frames: int
    video_per_frame: int
    audio_per_frame: int
    others_len: int = 0

    def __post_init__(self) -> None:
        for name, least in (("frames", 1), ("video_per_frame", 0), ("audio_per_frame", 0), ("others_len", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, least))

    @property
    def video_len(self) -> int:
        return self.frames * self.video_per_frame

    @property
    def audio_len(self) -> int:
        return self.frames * self.audio_per_frame

    @property
    def total_len(self) -> int:
        return self.video_len + self.others_len + self.audio_len


def segment_offsets(layout: TokenLayout) -> tuple[range, range, range]:
    """Half-open index ranges of the (video, others, audio) segments.

    The three ranges are disjoint and partition ``[0, layout.total_len)``
    in the fixed segment order.
    """
    v_end = layout.video_len
    o_end = v_end + layout.others_len
    a_end = o_end + layout.audio_len
    return range(0, v_end), range(v_end, o_end), range(o_end, a_end)


def per_frame_cu_seqlens(count_per_frame: int, frames: int) -> np.ndarray:
    """Cumulative boundaries for ``frames`` equal groups of ``count_per_frame``."""
    frames = check_count(frames, "frames", 1)
    return np.arange(frames + 1, dtype=np.int64) * check_count(count_per_frame, "count_per_frame")


def check_cu_seqlens(cu: np.ndarray, packed_len: int, name: str = "cu_seqlens") -> np.ndarray:
    """Validate a cumulative-boundary vector against its packed length."""
    raw = np.asarray(cu)
    with np.errstate(invalid="ignore"):
        cu = raw.astype(np.int64)
    if not np.array_equal(cu, raw):
        raise ValueError(f"{name} must hold integer boundaries, got {raw}")
    if cu.ndim != 1 or cu.size < 1:
        raise ValueError(f"{name} must be a 1-D vector of at least one boundary")
    if cu[0] != 0:
        raise ValueError(f"{name} must start at 0, got {cu[0]}")
    if np.any(np.diff(cu) < 0):
        raise ValueError(f"{name} must be non-decreasing")
    if cu[-1] != packed_len:
        raise ValueError(f"{name} covers {cu[-1]} tokens but the packed length is {packed_len}")
    return cu


def check_attn_tensor(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate the (batch, heads, seq, head_dim) axis convention and dtype."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{name} must have 4 axes (batch, heads, seq, head_dim), got {x.ndim}")
    if x.dtype not in (np.float32, np.float64):
        raise ValueError(f"{name} must be float32 or float64, got {x.dtype}")
    return x


def check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one attention call's q, k, v; views are returned uncopied.

    All three are (batch, heads, seq, head_dim) tensors of one precision;
    q and k share batch, heads and head_dim >= 1, and k and v share a shape.
    Every value must be finite: a NaN or inf would silently poison every
    query row that can see it, so the first bad (batch, head, row, col)
    is reported instead.
    """
    q = check_attn_tensor(q, "q")
    k = check_attn_tensor(k, "k")
    v = check_attn_tensor(v, "v")
    if not (q.dtype == k.dtype == v.dtype):
        raise ValueError(f"precision mismatch: q={q.dtype} k={k.dtype} v={v.dtype}")
    if q.shape[:2] != k.shape[:2] or q.shape[3] != k.shape[3]:
        raise ValueError(f"q {q.shape} and k {k.shape} must share (batch, heads, head_dim)")
    if q.shape[3] < 1:
        raise ValueError(f"head_dim must be >= 1, got {q.shape[3]}")
    if k.shape != v.shape:
        raise ValueError(f"k {k.shape} and v {v.shape} must match")
    for name, x in (("q", q), ("k", k), ("v", v)):
        check_finite(x, name, "(batch, head, row, col)")
    return q, k, v


def check_finite(x: np.ndarray, name: str, axes: str) -> None:
    """Reject a NaN or inf in ``x``, naming the first one's index along ``axes``."""
    # NaN and +-inf reach the min or the max, so two reductions find them
    # without a tensor-sized boolean mask; that is built on failure.
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise ValueError(f"{name} has a non-finite value {x[where]} at {axes} {where}")


class AttnPartial(NamedTuple):
    """Partial attention result: normalized output plus per-row LogSumExp.

    ``lse[b, h, i]`` is the log of the sum of exponentiated unnormalized
    scores seen by query row ``i``.  A row that saw no keys at all carries
    an exactly zero output row and ``lse = -inf``; a row with at least one
    key has finite lse.  The pair is the unit of exact recombination when
    attention is computed over disjoint key subsets.
    """

    out: np.ndarray  # (B, H, S_q, D)
    lse: np.ndarray  # (B, H, S_q)


def seeded_random_tensor(
    dims: tuple[int, int, int, int],
    seed: int,
    precision: type = np.float32,
) -> np.ndarray:
    """Deterministic standard-normal tensor of shape ``dims``.

    Generator: numpy's Philox 4x64 counter-based bit generator, keyed via
    ``numpy.random.SeedSequence(seed)``, feeding ``Generator.standard_normal``
    with the requested output dtype.  The same ``(dims, seed, precision)``
    triple always reproduces the same bits for a given numpy release; the
    Philox bit stream itself is integer-only and platform-independent.
    Note that the float32 and float64 paths consume the stream differently,
    so precision is part of the identity of a generated tensor.
    """
    dims = tuple(check_count(d, "dims") for d in dims)
    total = 1
    for d in dims:
        total *= d
    if total > _MAX_ELEMENTS:
        raise ValueError(f"requested {total} elements overflows the supported index space")
    dtype = np.dtype(precision)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"precision must be float32 or float64, got {dtype}")
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.standard_normal(size=dims, dtype=dtype)


def precision_name(dtype: np.dtype) -> str:
    """Map a numpy dtype to its short name used in files and reports."""
    dtype = np.dtype(dtype)
    for name, dt in PRECISIONS.items():
        if dtype == dt:
            return name
    raise ValueError(f"unsupported precision {dtype}")


# ---------------------------------------------------------------------------
# Golden-vector file format
#
#   GV1 <B> <H> <S> <D> <f32|f64>
#   <hex word> <hex word> ...
#
# One hex word per element in row-major order: the lowercase hexadecimal
# IEEE-754 bit pattern, most significant nibble first, 8 chars per float32
# word and 16 per float64 word.  Any whitespace separates words, so the
# round trip is bit-exact by construction and diffs cleanly line by line.
# ---------------------------------------------------------------------------

_WORDS_PER_LINE = 8
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def write_golden(path, tensor: np.ndarray) -> None:
    """Write a (B, H, S, D) tensor to ``path`` in the golden-vector format."""
    tensor = check_attn_tensor(tensor, "golden tensor")
    size = tensor.itemsize
    data = tensor.astype(tensor.dtype.newbyteorder(">")).tobytes()
    line = _WORDS_PER_LINE * size
    b, h, s, d = tensor.shape
    lines = [f"GV1 {b} {h} {s} {d} {precision_name(tensor.dtype)}"]
    lines += [data[i : i + line].hex(" ", size) for i in range(0, len(data), line)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_golden(path) -> np.ndarray:
    """Read a golden-vector file back into a (B, H, S, D) tensor.

    Raises GoldenFileError on a malformed header, a word count that does
    not match the declared dims, malformed hex words, or non-finite values.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise GoldenFileError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "GV1":
        raise GoldenFileError(f"{path}: malformed header {lines[0]!r}")
    try:
        dims = tuple(int(t) for t in header[1:5])
    except ValueError as exc:
        raise GoldenFileError(f"{path}: non-integer dims in header") from exc
    if min(dims) < 0:
        raise GoldenFileError(f"{path}: negative dims {dims} in header")
    if header[5] not in PRECISIONS:
        raise GoldenFileError(f"{path}: unknown precision {header[5]!r}")
    dtype = np.dtype(PRECISIONS[header[5]])
    width = 2 * dtype.itemsize

    tokens = " ".join(lines[1:]).split()
    expected = dims[0] * dims[1] * dims[2] * dims[3]
    if len(tokens) != expected:
        raise GoldenFileError(
            f"{path}: declared dims {dims} need {expected} words, found {len(tokens)}"
        )
    for i, tok in enumerate(tokens):
        if len(tok) != width:
            raise GoldenFileError(f"{path}: word {i} has {len(tok)} hex chars, expected {width}")
        if not _HEX_DIGITS.issuperset(tok):
            raise GoldenFileError(f"{path}: word {i} is not hexadecimal: {tok!r}")
    words = np.frombuffer(bytes.fromhex("".join(tokens)), dtype.newbyteorder(">"))
    data = words.astype(dtype).reshape(dims)
    if not np.all(np.isfinite(data)):
        raise GoldenFileError(f"{path}: non-finite value in data")
    return data
