"""Command-line harness: validate, bench, and golden subcommands.

Exit codes: 0 success, 1 tolerance breach or golden mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import IMPLS, BenchCase, make_inputs, run_case
from .core import PRECISIONS, TokenLayout, check_count, segment_offsets
from .golden_suites import SUITES, check_suite, generate_suite
from .reference import naive_attention
from .topology import InjectionConfig, build_mask, masked3d_forward

# Validation tolerances per precision for the decomposed-vs-oracle diff.
VALIDATE_TOL = {"f32": 1e-5, "f64": 1e-12}


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


def _case_from_args(args, repeats: int = 3) -> BenchCase:
    for flag, value, least in (("--batch", args.batch, 0), ("--heads", args.heads, 0),
                               ("--head-dim", args.head_dim, 1), ("--seed", args.seed, 0),
                               ("--repeats", repeats, 3)):
        check_count(value, flag, least)
    layout = TokenLayout(args.frames, args.video_tokens, args.audio_tokens, args.others)
    if layout.total_len == 0:
        raise ValueError("layout resolves to an empty sequence")
    return BenchCase(
        layout=layout,
        batch=args.batch,
        heads=args.heads,
        head_dim=args.head_dim,
        precision=PRECISIONS[args.precision],
        seed=args.seed,
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

    q, k, v = make_inputs(case)
    decomposed = masked3d_forward(q, k, v, case.layout)
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


def cmd_bench(args) -> int:
    try:
        case = _case_from_args(args, repeats=args.repeats)
    except ValueError as exc:
        return _usage_error(str(exc))

    for impl in IMPLS if args.impl == "both" else [args.impl]:
        print(json.dumps(run_case(case, impl)))
    return 0


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
