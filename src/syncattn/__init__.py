"""Masked 3D attention for synchronized multi-modal token streams.

A packed sequence of video, asynchronous condition ("others"), and audio
tokens is attended under a frame-synchronization mask: video attends
everywhere except cross-frame audio, audio sees only its own frame, and
others tokens never mix with audio.  The sparse pattern is computed by
decomposing it into dense and block-diagonal streaming attention calls
whose partial (output, LogSumExp) results merge exactly, and is validated
against a fully materialized oracle.  Rotary multi-axis position
embeddings and flow-matching utilities round out the toolkit.
"""

from .core import (
    AttnPartial,
    GoldenFileError,
    TokenLayout,
    per_frame_cu_seqlens,
    read_golden,
    seeded_random_tensor,
    segment_offsets,
    write_golden,
)
from .flow import euler_sample, fm_loss, interpolate, velocity_target
from .kernel import TileConfig, flash_varlen_forward, merge_partials
from .reference import finite_diff_check, naive_attention, naive_backward
from .rope import apply_rope, assign_coords, diagonal_1d_equivalence
from .topology import (
    InjectionConfig,
    ProjectionSet,
    build_mask,
    config_layer_forward,
    masked3d_forward,
    seeded_projection_set,
)

__version__ = "0.1.0"

__all__ = [
    "AttnPartial",
    "GoldenFileError",
    "InjectionConfig",
    "ProjectionSet",
    "TileConfig",
    "TokenLayout",
    "apply_rope",
    "assign_coords",
    "build_mask",
    "config_layer_forward",
    "diagonal_1d_equivalence",
    "euler_sample",
    "finite_diff_check",
    "flash_varlen_forward",
    "fm_loss",
    "interpolate",
    "masked3d_forward",
    "merge_partials",
    "naive_attention",
    "naive_backward",
    "per_frame_cu_seqlens",
    "read_golden",
    "seeded_projection_set",
    "seeded_random_tensor",
    "segment_offsets",
    "velocity_target",
    "write_golden",
]
