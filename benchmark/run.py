"""Run one benchmark workload and print its result as the last line of stdout.

    python3 benchmark/run.py --workload ref_layout --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/`` next
to this directory, and nowhere else.  ``--trace 0`` prints the end-to-end
metrics (``forward_ms``, ``peak_bytes``, ``setup_s``); ``--trace 1`` runs
the same operations with spans around the kernel and merge calls, prints
the per-layer metrics and writes every span to ``benchmark/out/``.  The
result is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 on a run that printed a result,
2 when the program cannot be imported or the arguments are wrong.
"""

import os
import time

_T_ENTRY = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started, or 0.0 where /proc cannot tell."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return max(age, 0.0)


_AGE_AT_ENTRY = _process_age_s()

# One BLAS and OpenMP thread, set before numpy loads: on a small shared
# machine a second thread widens the spread of one operation's time more
# than it shortens it, and multi-core scaling is not what this measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("ref_layout", "long_clip", "wirings_2d")


def _import_program() -> None:
    """Import ``syncattn`` from the checkout's ``src/``, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import syncattn

    found = Path(syncattn.__file__).resolve().parent
    if found != SRC / "syncattn":
        raise ImportError(f"syncattn was imported from {found}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import measure
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        layer, failures, attempted, recorder = measure.traced(wl, args.seconds)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                       workload=args.workload, seed=args.seed)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
    else:
        res = measure.timed(wl, args.seconds)
        failures, attempted = res["failures"], res["attempted"]
        metrics = {
            "forward_ms": {"value": res["forward_ms"], "unit": "ms"},
            "peak_bytes": {"value": res["peak_bytes"], "unit": "B"},
            "setup_s": {"value": _AGE_AT_ENTRY + res["first_op"] - _T_ENTRY, "unit": "s"},
        }
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
