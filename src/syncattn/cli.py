"""Command-line harness: validate, bench, and golden subcommands.

Exit codes: 0 success, 1 tolerance breach or golden mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bench as bench_mod
from .bench import BenchCase, BenchRecord, run_case
from .core import PRECISIONS, TokenLayout, seeded_random_tensor, segment_offsets
from .golden_suites import SUITES, check_suite, generate_suite
from .kernel import TileConfig
from .reference import naive_attention
from .topology import InjectionConfig, build_mask, masked3d_forward

# Validation tolerances per precision for the decomposed-vs-oracle diff.
VALIDATE_TOL = {"f32": 1e-5, "f64": 1e-12}

_RECORD_FIELDS = list(BenchRecord.__dataclass_fields__)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_layout_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=4, help="synchronized frame count F")
    p.add_argument("--video-tokens", type=int, default=16, help="video tokens per frame N")
    p.add_argument("--audio-tokens", type=int, default=4, help="audio tokens per frame L")
    p.add_argument("--others", type=int, default=0, help="flat asynchronous token count")
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--head-dim", type=int, default=16)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="f32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q-block", type=int, default=TileConfig().q_block)
    p.add_argument("--k-block", type=int, default=TileConfig().k_block)


def _layout_from_args(args) -> TokenLayout:
    layout = TokenLayout(
        frames=args.frames,
        video_per_frame=args.video_tokens,
        audio_per_frame=args.audio_tokens,
        others_len=args.others,
    )
    if layout.total_len == 0:
        raise ValueError("layout resolves to an empty sequence")
    return layout


def _case_from_args(args, repeats: int = 3) -> BenchCase:
    for flag, value, least in (("--batch", args.batch, 0), ("--heads", args.heads, 0),
                               ("--head-dim", args.head_dim, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    return BenchCase(
        layout=_layout_from_args(args),
        batch=args.batch,
        heads=args.heads,
        head_dim=args.head_dim,
        precision=PRECISIONS[args.precision],
        seed=args.seed,
        tile=TileConfig(args.q_block, args.k_block),
        repeats=repeats,
    )


def _row_segment(layout: TokenLayout, row: int) -> tuple[str, str]:
    """The (segment, frame) of a packed row; others tokens have no frame."""
    video, others, audio = segment_offsets(layout)
    if row in video:
        return "video", str(row // layout.video_per_frame)
    if row in others:
        return "others", "-"
    return "audio", str((row - audio.start) // layout.audio_per_frame)


def cmd_validate(args) -> int:
    try:
        case = _case_from_args(args)
    except ValueError as exc:
        return _usage_error(str(exc))

    dims = (case.batch, case.heads, case.layout.total_len, case.head_dim)
    q = seeded_random_tensor(dims, case.seed, case.precision)
    k = seeded_random_tensor(dims, case.seed + 1, case.precision)
    v = seeded_random_tensor(dims, case.seed + 2, case.precision)

    decomposed = masked3d_forward(q, k, v, case.layout, case.tile)
    oracle = naive_attention(q, k, v, build_mask(case.layout, InjectionConfig.MASKED_3D))
    err = np.abs(decomposed - oracle.out)
    diff = float(err.max()) if err.size else 0.0
    tol = VALIDATE_TOL[args.precision]
    ok = diff <= tol
    print(
        f"layout F={case.layout.frames} N={case.layout.video_per_frame} "
        f"L={case.layout.audio_per_frame} others={case.layout.others_len} "
        f"total={case.layout.total_len} precision={args.precision}"
    )
    if err.size:
        bi, hi, row, _ = np.unravel_index(np.argmax(err), err.shape)
        segment, frame = _row_segment(case.layout, int(row))
        print(f"worst batch={bi} head={hi} row={row} segment={segment} frame={frame}")
    print(f"max_abs_diff={diff:.6e} tol={tol:.0e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _emit_records(records: list[BenchRecord], fmt: str) -> None:
    if fmt == "jsonl":
        for rec in records:
            print(json.dumps(rec.to_dict(drop_none=True)))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_RECORD_FIELDS)
        writer.writeheader()
        for rec in records:
            row = {k: ("" if v is None else v) for k, v in rec.to_dict(drop_none=False).items()}
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())


def cmd_bench(args) -> int:
    if args.repeats < 3:
        return _usage_error(f"--repeats must be >= 3 (got {args.repeats}); timings are medians")
    try:
        case = _case_from_args(args, repeats=args.repeats)
    except ValueError as exc:
        return _usage_error(str(exc))

    impls = list(bench_mod.IMPLS) if args.impl == "both" else [args.impl]
    records = [run_case(case, impl, validate=args.validate) for impl in impls]
    _emit_records(records, args.output)

    breached = any(
        rec.max_abs_diff is not None and rec.max_abs_diff > VALIDATE_TOL[args.precision]
        for rec in records
    )
    return 1 if breached else 0


def cmd_golden(args) -> int:
    if args.action == "generate":
        paths = generate_suite(args.suite, args.path)
        print(f"wrote {len(paths)} golden files under {args.path}/{args.suite}")
        return 0
    failures = check_suite(args.suite, args.path)
    if failures:
        for line in failures:
            print(f"MISMATCH {line}")
        return 1
    print(f"suite {args.suite}: all goldens match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncattn",
        description="Validate and benchmark frame-synchronized masked attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="compare the decomposed path against the oracle")
    _add_layout_args(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="time and memory-profile implementations")
    _add_layout_args(p_bench)
    p_bench.add_argument("--impl", choices=("naive", "decomposed", "both"), default="both")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--output", choices=("jsonl", "csv"), default="jsonl")
    p_bench.add_argument("--validate", action="store_true", help="also diff against the oracle")
    p_bench.set_defaults(func=cmd_bench)

    p_gold = sub.add_parser("golden", help="generate or check golden-vector suites")
    p_gold.add_argument("action", choices=("generate", "check"))
    p_gold.add_argument("--path", required=True, help="directory holding the suites")
    p_gold.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_gold.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
