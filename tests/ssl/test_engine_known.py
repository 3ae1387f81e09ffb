"""The known-answer private operation against the real CRT path.

``rsa_private_operation(rsa, x, known=s)`` may skip the two CRT
exponentiations when the key read back from simulated memory is proven
to decrypt ``x`` to ``s``.  It must be indistinguishable from the real
path: the same result, the same bytes left in physical memory and the
same simulated time.  A corrupted key or a wrong ``known`` must take
the real path, so the callers' mismatch checks still fire.
"""

import builtins
import contextlib
import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory_align import rsa_memory_align
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto import rsa as rsa_module
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key, int_to_bytes
from repro.errors import ConnectionRejectedError, CryptoError, WorkloadError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.ssl import engine
from repro.ssl.bn import bn_bin2bn
from repro.ssl.engine import rsa_private_operation
from repro.ssl.rsa_st import PART_NAMES, RsaFlag, RsaStruct

KEY = generate_rsa_key(256, DeterministicRandom(1001))
N, E, P, Q = KEY.n, KEY.e, KEY.p, KEY.q

#: The three ways the engine finds p and q: the Montgomery cache
#: (RSA_FLAG_CACHE_PRIVATE), per-call contexts (flag cleared) and the
#: aligned key page.
PATHS = ("cached", "uncached", "aligned")

#: A secret whose CRT halves differ, so a corrupted iqmp shows.
SECRET = DeterministicRandom(7).randrange(2, N - 1)

SECRETS = st.one_of(
    st.sampled_from([0, 1, N - 1]),
    st.integers(0, Q - 1).map(lambda k: k * P),
    st.integers(0, P - 1).map(lambda k: k * Q),
    st.integers(0, N - 1),
)


def build(path, parts_of=KEY):
    kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
    proc = kern.create_process("server")
    parts = {
        name: bn_bin2bn(proc, int_to_bytes(getattr(parts_of, name)))
        for name in PART_NAMES
    }
    rsa = RsaStruct(proc, n=N, e=E, parts=parts)
    if path == "uncached":
        rsa.flags &= ~RsaFlag.CACHE_PRIVATE
    elif path == "aligned":
        rsa_memory_align(rsa)
    return kern, rsa


def flip(rsa, part):
    """Invert one byte of ``part`` in simulated memory."""
    bn = rsa.bn[part]
    offset = bn.top // 2
    old = rsa.process.mm.read(bn.addr + offset, 1)[0]
    rsa.process.mm.write(bn.addr + offset, bytes([old ^ 0xFF]))


def run(path, x, known=None, corrupt=None, parts_of=KEY):
    """One private operation on a fresh machine: the result, a digest
    of all of physical memory, and the simulated time it cost."""
    kern, rsa = build(path, parts_of)
    if corrupt is not None:
        flip(rsa, corrupt)
    result = rsa_private_operation(rsa, x, known=known)
    memory = hashlib.sha256(kern.physmem.snapshot()).hexdigest()
    return result, memory, kern.clock.now_us, dict(kern.clock.spent)


@contextlib.contextmanager
def pow_moduli():
    """The modulus of every ``pow`` the engine calls."""
    seen = []

    def spy(base, exp, mod):
        seen.append(mod)
        return builtins.pow(base, exp, mod)

    # The known-answer guard's re-encryption runs in crypto.rsa.
    with mock.patch.object(engine, "pow", spy, create=True), \
            mock.patch.object(rsa_module, "pow", spy, create=True):
        yield seen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(path=st.sampled_from(PATHS), secret=SECRETS)
def test_known_answer_is_the_crt_answer(path, secret):
    x = pow(secret, E, N)
    with pow_moduli() as real_moduli:
        real = run(path, x)
    with pow_moduli() as fast_moduli:
        fast = run(path, x, known=secret)
    assert real_moduli == [P, Q]
    assert fast_moduli == [N]  # only the public re-encryption check
    assert fast == real
    assert fast[0] == secret


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("part", ["p", "q", "dmp1", "dmq1", "iqmp"])
def test_corrupted_part_takes_the_real_path(path, part):
    x = pow(SECRET, E, N)
    real = run(path, x, corrupt=part)
    with pow_moduli() as moduli:
        fast = run(path, x, known=SECRET, corrupt=part)
    assert len(moduli) == 2 and N not in moduli
    assert fast == real
    assert fast[0] != SECRET


@pytest.mark.parametrize("path", PATHS)
def test_parts_of_another_key_take_the_real_path(path):
    """A self-consistent CRT key for a different modulus passes every
    check but ``p * q == n``."""
    other = generate_rsa_key(256, DeterministicRandom(1002))
    assert other.e == E and other.p * other.q != N
    x = pow(SECRET, E, N)
    real = run(path, x, parts_of=other)
    with pow_moduli() as moduli:
        fast = run(path, x, known=SECRET, parts_of=other)
    assert moduli == [other.p, other.q]
    assert fast == real
    assert fast[0] != SECRET


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "offset", [1, N, -N], ids=["plus1", "plus_n", "minus_n"]
)
def test_wrong_known_takes_the_real_path(path, offset):
    """``SECRET ± N`` encrypts to the same ``x``: only the range check
    rejects it."""
    x = pow(SECRET, E, N)
    real = run(path, x)
    with pow_moduli() as moduli:
        fast = run(path, x, known=SECRET + offset)
    assert moduli[-2:] == [P, Q]
    assert fast == real
    assert fast[0] == SECRET


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("part", ["p", "q"])
@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("known", [None, SECRET], ids=["crt", "known"])
def test_degenerate_factor_raises_crypto_error(path, part, value, known):
    kern, rsa = build(path)
    bn = rsa.bn[part]
    rsa.process.mm.write(bn.addr, int_to_bytes(value).rjust(bn.top, b"\0"))
    live = rsa.process.heap.live_chunks()
    with pytest.raises(CryptoError, match="degenerate"):
        rsa_private_operation(rsa, pow(SECRET, E, N), known=known)
    # Per-call Montgomery contexts are freed before the error.
    expected = live + (2 if path == "cached" else 0)
    assert rsa.process.heap.live_chunks() == expected


def sshd_with(corrupt):
    """A running 256-bit sshd started with -r, so each child shares the
    listener's key pages; ``corrupt`` damages the listener's key."""
    sim = Simulation(SimulationConfig(
        server="openssh", level=ProtectionLevel.APPLICATION, memory_mb=8,
        key_bits=256, seed=11,
    ))
    sim.start_server()
    sim.server.run_connection_cycle(4096)
    corrupt(sim.server.master_rsa)
    return sim.server


def test_sshd_reports_a_corrupted_key_as_a_mismatch():
    server = sshd_with(lambda rsa: flip(rsa, "dmp1"))
    with pytest.raises(ConnectionRejectedError) as info:
        server.open_connection()
    assert isinstance(info.value.__cause__, WorkloadError)
    assert "mismatch" in str(info.value)
    assert server.rejected_connections == 1 and server.running


def test_sshd_rejects_a_degenerate_key_with_a_typed_error():
    def zero_p(rsa):
        bn = rsa.bn["p"]
        rsa.process.mm.write(bn.addr, b"\0" * bn.top)

    server = sshd_with(zero_p)
    with pytest.raises(ConnectionRejectedError) as info:
        server.open_connection()
    assert isinstance(info.value.__cause__, CryptoError)
    assert server.rejected_connections == 1 and server.running


def test_httpd_reports_a_corrupted_key_as_a_mismatch():
    sim = Simulation(SimulationConfig(
        server="apache", level=ProtectionLevel.NONE, memory_mb=8,
        key_bits=256, seed=11,
    ))
    sim.start_server()
    for worker in sim.server.workers:
        flip(worker.rsa, "dmq1")
    with pytest.raises(ConnectionRejectedError) as info:
        sim.server.handle_request(4096)
    assert isinstance(info.value.__cause__, WorkloadError)
    assert "premaster secret mismatch" in str(info.value)
