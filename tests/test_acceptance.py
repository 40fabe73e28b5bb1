"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines and the measured performance numbers.  Tolerances are pinned here;
the performance criterion is directional (decomposed strictly faster,
decomposed peak memory <= 25% of naive, quadratic-vs-linear scaling under
a doubling sweep) and prints its measured margins.
"""

import time
from functools import reduce

import numpy as np

from syncattn.bench import BenchCase, run_case, sweep_layouts
from syncattn.core import AttnPartial, TokenLayout, seeded_random_tensor, segment_offsets
from syncattn.flow import euler_sample, fm_loss, interpolate, velocity_target
from syncattn.golden_suites import SUITES, check_suite, generate_suite
from syncattn.kernel import TileConfig, flash_forward, flash_varlen_forward, merge_partials
from syncattn.reference import FD_TOL, finite_diff_check, naive_attention
from syncattn.rope import DIAGONAL_TOL, apply_rope, assign_coords, diagonal_1d_equivalence
from syncattn.topology import InjectionConfig, build_mask, masked3d_forward

F32_TOL = 1e-5
F64_TOL = 1e-12


def _report(number: int, name: str, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} {name}: PASS in {elapsed:.1f}s{suffix}")


def _qkv(dims, seed, dtype):
    return (
        seeded_random_tensor(dims, seed, dtype),
        seeded_random_tensor(dims, seed + 1, dtype),
        seeded_random_tensor(dims, seed + 2, dtype),
    )


def _lse_close(a, b, tol):
    assert np.array_equal(np.isneginf(a), np.isneginf(b))
    finite = ~np.isneginf(a)
    if finite.any():
        assert np.max(np.abs(a[finite] - b[finite])) <= tol


def test_criterion_1_decomposition_soundness():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(101))
    worst = {np.dtype(np.float32): 0.0, np.dtype(np.float64): 0.0}
    for i in range(50):
        layout = TokenLayout(
            frames=int(rng.integers(1, 7)),
            video_per_frame=int(rng.integers(1, 33)),
            audio_per_frame=int(rng.integers(0, 9)),
            others_len=int(rng.integers(0, 65)),
        )
        heads = int(rng.choice([1, 4]))
        head_dim = int(rng.choice([8, 64]))
        dtype, tol = (np.float32, F32_TOL) if i % 2 else (np.float64, F64_TOL)
        q, k, v = _qkv((1, heads, layout.total_len, head_dim), 7000 + 3 * i, dtype)
        got = masked3d_forward(q, k, v, layout)
        ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D))
        diff = float(np.max(np.abs(got - ref.out)))
        assert diff <= tol, (layout, heads, head_dim, dtype, diff)
        worst[np.dtype(dtype)] = max(worst[np.dtype(dtype)], diff)
    _report(
        1, "decomposition soundness", started,
        f"50 layouts, worst f32 {worst[np.dtype(np.float32)]:.2e} <= {F32_TOL}, "
        f"worst f64 {worst[np.dtype(np.float64)]:.2e} <= {F64_TOL}",
    )


def test_criterion_2_merge_identity():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(202))
    for i in range(100):
        dtype, tol = (np.float32, F32_TOL) if i % 2 else (np.float64, F64_TOL)
        heads = int(rng.integers(1, 3))
        s_q = int(rng.integers(1, 17))
        s_k = int(rng.integers(1, 65))
        d = int(rng.choice([4, 16]))
        q, _, _ = _qkv((1, heads, s_q, d), 8000 + 3 * i, dtype)
        k = seeded_random_tensor((1, heads, s_k, d), 8001 + 3 * i, dtype)
        v = seeded_random_tensor((1, heads, s_k, d), 8002 + 3 * i, dtype)

        n_subsets = int(rng.integers(2, 6))
        cuts = np.sort(rng.integers(0, s_k + 1, size=n_subsets - 1))
        bounds = np.concatenate([[0], cuts, [s_k]])
        parts = [
            naive_attention(q, k[:, :, a:b], v[:, :, a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        merged = reduce(merge_partials, parts)
        full = naive_attention(q, k, v)
        assert np.max(np.abs(merged.out - full.out)) <= tol, (i, dtype)
        _lse_close(merged.lse, full.lse, tol)

    # the empty partial is an exact two-sided identity
    q, k, v = _qkv((1, 2, 5, 8), 8500, np.float32)
    p = naive_attention(q, k, v)
    empty = AttnPartial(np.zeros_like(p.out), np.full_like(p.lse, -np.inf))
    for merged in (merge_partials(p, empty), merge_partials(empty, p)):
        assert np.array_equal(merged.out, p.out)
        assert np.array_equal(merged.lse, p.lse)
    _report(2, "merge identity", started, "100 partitions + exact empty identity")


def test_criterion_3_kernel_equivalence():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(303))
    cases = 0

    # 120 dense shapes, S in [1, 257]
    for i in range(120):
        dtype, tol = (np.float32, F32_TOL) if i % 2 else (np.float64, F64_TOL)
        dims_q = (1, int(rng.choice([1, 4])), int(rng.integers(1, 258)), int(rng.choice([8, 16, 64])))
        dims_k = (dims_q[0], dims_q[1], int(rng.integers(1, 258)), dims_q[3])
        q = seeded_random_tensor(dims_q, 9000 + 3 * i, dtype)
        k = seeded_random_tensor(dims_k, 9001 + 3 * i, dtype)
        v = seeded_random_tensor(dims_k, 9002 + 3 * i, dtype)
        got = flash_forward(q, k, v)
        ref = naive_attention(q, k, v)
        assert np.max(np.abs(got.out - ref.out)) <= tol, (dims_q, dims_k, dtype)
        _lse_close(got.lse, ref.lse, tol)
        cases += 1

    # 40 varlen shapes vs the block-diagonal oracle
    for i in range(40):
        dtype, tol = (np.float32, F32_TOL) if i % 2 else (np.float64, F64_TOL)
        groups = int(rng.integers(1, 6))
        sizes_q = rng.integers(0, 40, size=groups)
        sizes_k = rng.integers(0, 40, size=groups)
        sizes_q[0] = max(sizes_q[0], 1)  # keep the packed case non-degenerate
        sizes_k[0] = max(sizes_k[0], 1)
        cu_q = np.concatenate([[0], np.cumsum(sizes_q)])
        cu_k = np.concatenate([[0], np.cumsum(sizes_k)])
        d = int(rng.choice([8, 16]))
        q = seeded_random_tensor((1, 2, int(cu_q[-1]), d), 9500 + 3 * i, dtype)
        k = seeded_random_tensor((1, 2, int(cu_k[-1]), d), 9501 + 3 * i, dtype)
        v = seeded_random_tensor((1, 2, int(cu_k[-1]), d), 9502 + 3 * i, dtype)
        got = flash_varlen_forward(q, k, v, cu_q, cu_k)
        allow = np.zeros((cu_q[-1], cu_k[-1]), dtype=bool)
        for g in range(groups):
            allow[cu_q[g] : cu_q[g + 1], cu_k[g] : cu_k[g + 1]] = True
        ref = naive_attention(q, k, v, allow)
        assert np.max(np.abs(got.out - ref.out)) <= tol, (i, dtype)
        _lse_close(got.lse, ref.lse, tol)
        cases += 1

    # 40 multi-tile shapes with S_k up to 5000 (dozens of key tiles)
    for i in range(40):
        dtype, tol = (np.float32, F32_TOL) if i % 2 else (np.float64, F64_TOL)
        s_k = 5000 if i == 0 else int(rng.integers(300, 5001))
        dims_q = (1, 1, int(rng.integers(1, 129)), int(rng.choice([8, 64])))
        dims_k = (1, 1, s_k, dims_q[3])
        q = seeded_random_tensor(dims_q, 9700 + 3 * i, dtype)
        k = seeded_random_tensor(dims_k, 9701 + 3 * i, dtype)
        v = seeded_random_tensor(dims_k, 9702 + 3 * i, dtype)
        got = flash_forward(q, k, v, TileConfig(64, 64))
        ref = naive_attention(q, k, v)
        assert np.max(np.abs(got.out - ref.out)) <= tol, (dims_q, s_k, dtype)
        _lse_close(got.lse, ref.lse, tol)
        cases += 1

    assert cases == 200

    # tile-config independence
    for i in range(20):
        dims_q = (1, 2, int(rng.integers(30, 200)), 16)
        dims_k = (1, 2, int(rng.integers(30, 400)), 16)
        q = seeded_random_tensor(dims_q, 9900 + 3 * i, np.float32)
        k = seeded_random_tensor(dims_k, 9901 + 3 * i, np.float32)
        v = seeded_random_tensor(dims_k, 9902 + 3 * i, np.float32)
        results = [
            flash_forward(q, k, v, TileConfig(qb, kb))
            for qb, kb in [(16, 16), (64, 64), (128, 32)]
        ]
        for other in results[1:]:
            assert np.max(np.abs(results[0].out - other.out)) <= 1e-6
            assert np.max(np.abs(results[0].lse - other.lse)) <= 1e-6

    _report(3, "kernel equivalence", started, f"{cases} shapes + 20 tile-independence checks")


def test_criterion_4_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(404))
    worst = 0.0
    for i in range(20):
        s_q = int(rng.integers(2, 6))
        s_k = int(rng.integers(2, 7))
        q = seeded_random_tensor((1, 1, s_q, 4), 10000 + 3 * i, np.float64)
        k = seeded_random_tensor((1, 1, s_k, 4), 10001 + 3 * i, np.float64)
        v = seeded_random_tensor((1, 1, s_k, 4), 10002 + 3 * i, np.float64)
        mask = None
        if i % 2:
            mask = rng.random((s_q, s_k)) < 0.7
            mask[0] = False  # deliberate all-masked row
            mask[1] = True  # keep at least one fully live row
        errs = finite_diff_check(q, k, v, mask, seed=i)
        assert max(errs) <= FD_TOL, (i, errs)
        worst = max(worst, *errs)
    _report(4, "gradient correctness", started, f"20 cases, worst rel err {worst:.2e} <= 1e-4")


def test_criterion_5_rope_laws():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(505))

    # relative-position invariance under global coordinate translation
    for i in range(50):
        layout = TokenLayout(
            frames=int(rng.integers(1, 4)),
            video_per_frame=4,
            audio_per_frame=int(rng.integers(0, 4)),
            others_len=int(rng.integers(0, 5)),
        )
        coords = assign_coords(layout, (2, 2))
        q = seeded_random_tensor((1, 1, layout.total_len, 16), 11000 + 3 * i, np.float32)
        k = seeded_random_tensor((1, 1, layout.total_len, 16), 11001 + 3 * i, np.float32)
        shift = rng.integers(0, 50, size=3)

        def scores(c):
            rq = apply_rope(q, c).astype(np.float64)
            rk = apply_rope(k, c).astype(np.float64)
            return np.einsum("bhid,bhjd->bhij", rq, rk)

        diff = np.max(np.abs(scores(coords) - scores(coords + shift[None, :])))
        assert diff <= 1e-5, (i, diff)

    # isometry
    for i in range(50):
        head_dim = int(rng.choice([16, 32, 64]))
        tokens = int(rng.integers(1, 30))
        coords = rng.integers(0, 100, size=(tokens, 3))
        x = seeded_random_tensor((1, 2, tokens, head_dim), 12000 + 3 * i, np.float32)
        rotated = apply_rope(x, coords)
        norm_err = np.max(
            np.abs(
                np.linalg.norm(rotated.astype(np.float64), axis=-1)
                - np.linalg.norm(x.astype(np.float64), axis=-1)
            )
        )
        assert norm_err <= 1e-6, (i, norm_err)

    # diagonal / 1-D backward compatibility in float64
    for head_dim, seed in ((16, 1), (32, 2), (64, 3)):
        dev = diagonal_1d_equivalence(head_dim, seed=seed, cases=50)
        assert dev <= DIAGONAL_TOL and dev <= 1e-6, dev
    _report(5, "rope laws", started, "50 translation + 50 isometry + 3x50 diagonal cases")


def test_criterion_6_frame_locality_witness():
    started = time.perf_counter()
    layout = TokenLayout(frames=3, video_per_frame=4, audio_per_frame=2, others_len=3)
    _, others, audio = segment_offsets(layout)
    n = layout.video_per_frame
    q, k, v = _qkv((1, 2, layout.total_len, 8), 13000, np.float64)

    g = 1
    sl = slice(audio.start + g * layout.audio_per_frame, audio.start + (g + 1) * layout.audio_per_frame)
    q2, k2, v2 = q.copy(), k.copy(), v.copy()
    for t in (q2, k2, v2):
        t[:, :, sl] += 0.25

    base = masked3d_forward(q, k, v, layout)
    pert = masked3d_forward(q2, k2, v2, layout)
    for f in range(layout.frames):
        rows = slice(f * n, (f + 1) * n)
        identical = np.array_equal(base[:, :, rows], pert[:, :, rows])
        assert identical == (f != g), f"masked: video frame {f}"
    assert np.array_equal(
        base[:, :, others.start : others.stop], pert[:, :, others.start : others.stop]
    )

    full_base = naive_attention(q, k, v, build_mask(layout, InjectionConfig.FULL_3D)).out
    full_pert = naive_attention(q2, k2, v2, build_mask(layout, InjectionConfig.FULL_3D)).out
    assert any(
        not np.array_equal(full_base[:, :, f * n : (f + 1) * n], full_pert[:, :, f * n : (f + 1) * n])
        for f in range(layout.frames)
        if f != g
    ), "full 3D must propagate the perturbation across frames"
    _report(6, "frame locality witness", started)


def test_criterion_7_flow_matching_identities():
    started = time.perf_counter()
    x0 = seeded_random_tensor((1, 1, 16, 8), 14000, np.float32)
    x1 = seeded_random_tensor((1, 1, 16, 8), 14001, np.float32)

    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)

    assert fm_loss(velocity_target(x0, x1), x0, x1) == 0.0
    bumped = velocity_target(x0, x1).copy()
    bumped[0, 0, 0, 0] += 1e-4
    assert fm_loss(bumped, x0, x1) > 0.0

    target = velocity_target(x0, x1)
    for steps in (1, 10, 100):
        result = euler_sample(lambda x, t: target, x0, steps)
        assert np.max(np.abs(result - x1)) <= 1e-5, steps

    start = np.full((1, 1, 1, 1), 1.0)
    final = euler_sample(lambda x, t: -x, start, 1000)
    assert abs(final[0, 0, 0, 0] - np.exp(-1.0)) <= 1e-3
    _report(7, "flow matching identities", started)


def test_criterion_8_performance_separation():
    started = time.perf_counter()
    headline = BenchCase(
        layout=TokenLayout(frames=16, video_per_frame=256, audio_per_frame=8, others_len=256),
        batch=1, heads=8, head_dim=64, precision=np.float32, seed=3, repeats=3,
    )
    naive = run_case(headline, "naive")
    decomposed = run_case(headline, "decomposed")
    assert naive["status"] == "ok" and decomposed["status"] == "ok"
    assert decomposed["wall_ms_median"] < naive["wall_ms_median"], (
        decomposed["wall_ms_median"], naive["wall_ms_median"],
    )
    mem_ratio = decomposed["peak_bytes"] / naive["peak_bytes"]
    assert mem_ratio <= 0.25, mem_ratio

    # doubling sweep: naive peak memory must scale ~quadratically, the
    # decomposed path at most linearly-with-slack
    base = TokenLayout(frames=4, video_per_frame=128, audio_per_frame=8, others_len=96)
    peaks = {"naive": [], "decomposed": []}
    for layout in sweep_layouts(base):
        case = BenchCase(layout=layout, batch=1, heads=1, head_dim=64,
                         precision=np.float32, seed=5, repeats=3)
        for impl in ("naive", "decomposed"):
            rec = run_case(case, impl)
            assert rec["status"] == "ok"
            peaks[impl].append(rec["peak_bytes"])
    naive_ratios = [b / a for a, b in zip(peaks["naive"], peaks["naive"][1:])]
    decomposed_ratios = [b / a for a, b in zip(peaks["decomposed"], peaks["decomposed"][1:])]
    assert all(r >= 3.5 for r in naive_ratios), naive_ratios
    assert all(r <= 2.5 for r in decomposed_ratios), decomposed_ratios

    _report(
        8, "performance separation", started,
        f"wall ms decomposed {decomposed['wall_ms_median']:.0f} < naive {naive['wall_ms_median']:.0f}; "
        f"peak bytes ratio {mem_ratio:.3f} <= 0.25; "
        f"sweep naive x{[f'{r:.2f}' for r in naive_ratios]}, "
        f"decomposed x{[f'{r:.2f}' for r in decomposed_ratios]}",
    )


def test_criterion_9_golden_suites(tmp_path):
    started = time.perf_counter()
    first = tmp_path / "run1"
    second = tmp_path / "run2"

    for suite in SUITES:
        generate_suite(suite, first)
        assert check_suite(suite, first) == []

    # repeated generation on the same platform is file-identical
    for suite in SUITES:
        generate_suite(suite, second)
    for path1 in sorted(first.rglob("*.gv")):
        path2 = second / path1.relative_to(first)
        assert path1.read_bytes() == path2.read_bytes(), path1.name

    _report(9, "golden suites", started, f"{len(SUITES)} suites, bit-stable across runs")
