"""Shared fixtures.

Key material is expensive to generate, so the common sizes are cached
at session scope; simulations and kernels are cheap and rebuilt per
test for isolation.
"""

from __future__ import annotations

import pytest

from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.kernel.fs import SimFileSystem
from repro.kernel.kernel import Kernel, KernelConfig


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ from this run instead of comparing",
    )


@pytest.fixture
def pool_cores(monkeypatch):
    """Report four usable cores, so ``run_specs`` starts its pool at
    ``workers > 1`` even on a one-core host."""
    from repro.analysis import parallel

    monkeypatch.setattr(parallel, "available_cores", lambda: 4)


@pytest.fixture
def kernel():
    """A small vulnerable machine (2.6.10, 8 MB)."""
    return Kernel(KernelConfig.vulnerable(memory_mb=8))


@pytest.fixture
def patched_kernel():
    """8 MB machine with the paper's kernel patches."""
    return Kernel(KernelConfig.kernel_patched(memory_mb=8))


@pytest.fixture
def kernel_with_root(kernel):
    """Vulnerable kernel with an ext2 root mounted at /."""
    root = SimFileSystem("ext2", label="root")
    kernel.vfs.mount("/", root)
    return kernel


@pytest.fixture(scope="session")
def rsa_key_256():
    return generate_rsa_key(256, DeterministicRandom(1001))


@pytest.fixture(scope="session")
def rsa_key_512():
    return generate_rsa_key(512, DeterministicRandom(1002))


@pytest.fixture(scope="session")
def rsa_key_1024():
    return generate_rsa_key(1024, DeterministicRandom(1003))


@pytest.fixture
def rng():
    return DeterministicRandom(42)
