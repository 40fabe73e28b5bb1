"""Fixtures shared by the test modules."""

import pytest

from syncattn import kernel
from syncattn.core import AttnPartial


@pytest.fixture
def unchecked_kernel(monkeypatch):
    """The kernel's per-call checks of q, k, v and ``out`` as pass-throughs, so a
    test sees what the kernel's callers refuse before any kernel call."""
    monkeypatch.setattr(kernel, "check_qkv", lambda q, k, v: (q, k, v))
    monkeypatch.setattr(kernel, "_check_partial", lambda p, name, like: AttnPartial(*p))
