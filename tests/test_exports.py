"""The public surface: every exported name resolves (a stale ``__all__`` entry
breaks ``import *``), every one that takes tensors checks each of them, every
one that takes a wiring takes only the five members, and nothing beyond numpy
and the standard library is loaded."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import unittest.mock

import numpy as np
import pytest

import syncattn
from syncattn import (
    AttnPartial,
    InjectionConfig,
    ProjectionSet,
    TokenLayout,
    apply_rope,
    config_layer_forward,
    euler_sample,
    finite_diff_check,
    flash_varlen_forward,
    fm_loss,
    interpolate,
    masked3d_forward,
    merge_partials,
    naive_attention,
    naive_backward,
    seeded_projection_set,
    seeded_random_tensor,
    velocity_target,
    write_golden,
)
from syncattn import topology
from syncattn.topology import block_plan, build_mask

# __main__ runs the CLI on import.
MODULES = ["syncattn"] + [f"syncattn.{m.name}" for m in pkgutil.iter_modules(syncattn.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})


def test_numpy_is_the_only_runtime_dependency():
    # In a fresh interpreter, every top-level module that the package and its
    # CLI load beyond numpy's own is the package or the standard library.
    code = ("import sys, numpy; before = set(sys.modules); import syncattn, syncattn.cli; "
            "print(*sorted(m for m in set(sys.modules) - before if '.' not in m))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert "syncattn" in loaded
    assert [m for m in loaded if m != "syncattn" and m not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("name", ["syncattn", "syncattn.kernel"])
def test_one_public_kernel_entry_point(name):
    # The dense call is flash_varlen_forward's one-group case, so it has no name of its own.
    module = importlib.import_module(name)
    assert {"flash_varlen_forward", "merge_partials"} <= set(module.__all__)
    assert "flash_forward" not in module.__all__
    assert not hasattr(module, "flash_forward")


@pytest.mark.parametrize("name", ["flash_forward", "flash_varlen_forward", "merge_partials"])
def test_topology_calls_the_kernel_names_the_benchmark_wraps(name):
    # benchmark/spans.py traces these names where syncattn.topology looks them up;
    # the dense name is bound to the one entry, whose one-group case it is.
    from syncattn import kernel, topology

    assert getattr(topology, name) is getattr(kernel, "flash_varlen_forward" if name == "flash_forward" else name)


def test_masked3d_forward_takes_only_what_it_uses():
    # It runs the kernel's default tiles; other tiles are the kernel's own option.
    assert list(inspect.signature(masked3d_forward).parameters) == ["q", "k", "v", "layout"]


def _t(*dims, seed=0):
    return seeded_random_tensor(dims, seed, np.float64)


LAYOUT = TokenLayout(frames=2, video_per_frame=2, audio_per_frame=1)  # 6 packed tokens
QKV = {name: _t(1, 1, 6, 6, seed=seed) for seed, name in enumerate("qkv")}  # D = 6, as apply_rope needs
PARTIAL = AttnPartial(_t(1, 1, 6, 6), np.zeros((1, 1, 6)))
EMPTY = AttnPartial(np.zeros((1, 1, 6, 6)), np.full((1, 1, 6), -np.inf))
WEIGHTS = seeded_projection_set(4, 2, 0, np.float64)

# Each public name that takes tensors: a call over its tensor arguments, and
# valid values of them.  A velocity_fn stands for the array it returns.
CONTRACT = {
    "flash_varlen_forward": (lambda a: flash_varlen_forward(a["q"], a["k"], a["v"], [0, 6], [0, 6], out=a["out"]),
                             {**QKV, "out": EMPTY}),
    "merge_partials": (lambda a: merge_partials(**a), {"p1": PARTIAL, "p2": PARTIAL}),
    "masked3d_forward": (lambda a: masked3d_forward(**a, layout=LAYOUT), QKV),
    "config_layer_forward": (
        lambda a: config_layer_forward(**a, layout=LAYOUT, config=InjectionConfig.MASKED_3D, weights=WEIGHTS),
        {"x_video": _t(1, 4, 4), "c_audio": _t(1, 2, 4)}),
    "ProjectionSet": (lambda a: ProjectionSet(**a, heads=2), {name: _t(4, 4) for name in ("wq", "wk", "wv", "wo")}),
    "naive_attention": (lambda a: naive_attention(**a), QKV),
    "naive_backward": (lambda a: naive_backward(**a), {**QKV, "dout": _t(1, 1, 6, 6)}),
    "finite_diff_check": (lambda a: finite_diff_check(**a), QKV),
    "apply_rope": (lambda a: apply_rope(**a, coords=np.zeros((6, 3), int)), {"tensor": QKV["q"]}),
    "write_golden": (lambda a: write_golden(os.devnull, **a), {"tensor": QKV["q"]}),
    "interpolate": (lambda a: interpolate(**a, t=0.5), {"x0": _t(2, 3), "x1": _t(2, 3)}),
    "velocity_target": (lambda a: velocity_target(**a), {"x0": _t(2, 3), "x1": _t(2, 3)}),
    "fm_loss": (lambda a: fm_loss(**a), {"pred": _t(2, 3), "x0": _t(2, 3), "x1": _t(2, 3)}),
    "euler_sample": (lambda a: euler_sample(lambda x, t: a["velocity_fn"], a["x0"], 2),
                     {"x0": _t(2, 3), "velocity_fn": _t(2, 3)}),
}
# Public names that take no tensor: types, layout arithmetic, seeded
# builders and the golden reader.  AttnPartial is a plain pair, checked by
# the entries that take one.
NO_TENSORS = {"AttnPartial", "GoldenFileError", "InjectionConfig", "TileConfig", "TokenLayout", "assign_coords",
              "build_mask", "diagonal_1d_equivalence", "per_frame_cu_seqlens", "read_golden",
              "seeded_projection_set", "seeded_random_tensor", "segment_offsets"}
CASES = [(entry, arg, field) for entry, (_, args) in sorted(CONTRACT.items()) for arg, value in args.items()
         for field in (AttnPartial._fields if isinstance(value, AttnPartial) else (None,))]


def _poisoned(value, field):
    """A copy of ``value`` with a NaN in its last element, or in that of its ``field``."""
    if field is not None:
        return value._replace(**{field: _poisoned(getattr(value, field), None)})
    bad = np.array(value, copy=True)
    bad.flat[-1] = np.nan
    return bad


def test_contract_table_covers_every_public_name():
    assert sorted(CONTRACT) == sorted(set(syncattn.__all__) - NO_TENSORS)


@pytest.mark.parametrize("entry,arg,field", CASES, ids=[f"{e}-{a}{'.' + f if f else ''}" for e, a, f in CASES])
def test_every_tensor_argument_is_checked(entry, arg, field):
    call, args = CONTRACT[entry]
    call(args)  # the valid arguments pass
    with pytest.raises(ValueError, match=rf"\b{re.escape(arg)}\b.* has (a non-finite value|lse) nan"):
        call({**args, arg: _poisoned(args[arg], field)})


# Each tensor argument that pairs with another, per public name: a call runs
# in one precision, so each given in the other precision is refused by name.
PAIRED = {
    "flash_varlen_forward": ["k", "v", "out"],
    "merge_partials": ["p2"],
    "masked3d_forward": ["k", "v"],
    "naive_attention": ["k", "v"],
    "naive_backward": ["k", "v", "dout"],
    "config_layer_forward": ["c_audio"],
    "ProjectionSet": ["wk"],
    "interpolate": ["x1"],
    "velocity_target": ["x1"],
    "fm_loss": ["pred", "x1"],
    "euler_sample": ["velocity_fn"],
}
PAIRED_CASES = [(entry, arg) for entry, args in sorted(PAIRED.items()) for arg in args]


def _float32(value):
    """``value`` in float32, each array of it if it is a partial."""
    if isinstance(value, AttnPartial):
        return AttnPartial(*(_float32(a) for a in value))
    return np.asarray(value, np.float32)


def test_precision_table_names_arguments_of_the_contract():
    for entry, args in PAIRED.items():
        assert set(args) <= set(CONTRACT[entry][1]), entry


@pytest.mark.parametrize("entry,arg", PAIRED_CASES, ids=[f"{e}-{a}" for e, a in PAIRED_CASES])
def test_every_paired_tensor_is_refused_in_the_other_precision(entry, arg):
    call, args = CONTRACT[entry]
    call(args)  # the valid float64 arguments pass
    with pytest.raises(ValueError, match=rf"\b{re.escape(arg)}\b") as info:
        call({**args, arg: _float32(args[arg])})
    assert "float32" in str(info.value)


# Each public name that takes a wiring, as a call over it.  The wirings are
# the five InjectionConfig members: anything else, a member's string
# included, is refused by name, and by the layer before any projection.  A
# value equal to everything and an array are refused too: a wiring matches by
# identity, never by ==.
WIRING_CALLS = {
    "block_plan": lambda config: block_plan(LAYOUT, config),
    "build_mask": lambda config: build_mask(LAYOUT, config),
    "config_layer_forward": lambda config: config_layer_forward(_t(1, 4, 4), _t(1, 2, 4), LAYOUT, config, WEIGHTS),
}
NOT_WIRINGS = ["full_3d", "masked_3d", None, 0, unittest.mock.ANY, np.array(["full_3d", "x"])]


@pytest.mark.parametrize("config", NOT_WIRINGS, ids=repr)
@pytest.mark.parametrize("entry", sorted(WIRING_CALLS))
def test_every_wiring_argument_is_a_member(entry, config, monkeypatch):
    call = WIRING_CALLS[entry]
    for member in InjectionConfig:
        call(member)  # every member passes
    reached = []
    for name in ("_run_plan", "_split_heads"):  # the kernel and the projections
        monkeypatch.setattr(topology, name, lambda *args, name=name: reached.append(name))
    with pytest.raises(ValueError, match=rf"InjectionConfig member \(CROSS_ATTN_2D, .*\), got {re.escape(repr(config))}$"):
        call(config)
    assert reached == []
