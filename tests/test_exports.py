"""Every exported name resolves: a stale ``__all__`` entry breaks ``import *``."""

import importlib
import pkgutil

import pytest

import syncattn

# __main__ runs the CLI on import.
MODULES = ["syncattn"] + [f"syncattn.{m.name}" for m in pkgutil.iter_modules(syncattn.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", ["syncattn", "syncattn.kernel"])
def test_one_public_kernel_entry_point(name):
    # The dense call is flash_varlen_forward's one-group case, so it has no name of its own.
    module = importlib.import_module(name)
    assert {"flash_varlen_forward", "merge_partials"} <= set(module.__all__)
    assert "flash_forward" not in module.__all__
    if name == "syncattn":
        assert not hasattr(module, "flash_forward")


@pytest.mark.parametrize("name", ["flash_forward", "flash_varlen_forward", "merge_partials"])
def test_topology_calls_the_kernel_names_the_benchmark_wraps(name):
    # benchmark/spans.py traces these names where syncattn.topology looks them up.
    from syncattn import kernel, topology

    assert getattr(topology, name) is getattr(kernel, name)
