"""Hardware key-vault tests: the paper's special-hardware endpoint."""

import builtins
import contextlib
import dataclasses
from unittest import mock

import pytest

from repro.core.hardware import offload_to_vault
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto import rsa as rsa_module
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key, int_to_bytes
from repro.errors import ConnectionRejectedError, RsaStructError, WorkloadError
from repro.hw.keyvault import KeyVault
from repro.kernel.kernel import Kernel, KernelConfig
from repro.ssl.bn import bn_bin2bn
from repro.ssl.engine import rsa_private_operation, rsa_public_operation
from repro.ssl.rsa_st import PART_NAMES, RsaStruct


@pytest.fixture
def kern():
    return Kernel(KernelConfig(version=(2, 6, 10), memory_mb=4, has_key_vault=True))


@pytest.fixture
def proc(kern):
    return kern.create_process("daemon")


def make_struct(proc, key):
    parts = {
        name: bn_bin2bn(proc, int_to_bytes(getattr(key, name)))
        for name in PART_NAMES
    }
    return RsaStruct(proc, n=key.n, e=key.e, parts=parts)


class TestKeyVaultDevice:
    def test_store_and_op(self, kern, rsa_key_256):
        handle = kern.vault.store(rsa_key_256)
        m = 12345
        assert kern.vault.private_op(handle, rsa_key_256.public_op(m)) == m
        assert kern.vault.ops_performed == 1

    def test_unknown_handle(self, kern):
        with pytest.raises(RsaStructError):
            kern.vault.private_op(42, 1)

    def test_destroy(self, kern, rsa_key_256):
        handle = kern.vault.store(rsa_key_256)
        kern.vault.destroy(handle)
        assert len(kern.vault) == 0
        with pytest.raises(RsaStructError):
            kern.vault.destroy(handle)

    def test_op_charges_device_time(self, kern, rsa_key_256):
        handle = kern.vault.store(rsa_key_256)
        before = kern.clock.now_us
        kern.vault.private_op(handle, 2)
        assert kern.clock.now_us - before >= 10_000

    def test_no_vault_by_default(self):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        assert kern.vault is None


class TestOffload:
    def test_scrubs_all_ram_copies(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        offload_to_vault(rsa)
        for pattern in (rsa_key_256.d_bytes(), rsa_key_256.p_bytes(), rsa_key_256.q_bytes()):
            assert not kern.physmem.find_all(pattern)

    def test_scrubs_aligned_region(self, kern, proc, rsa_key_256):
        from repro.core.memory_align import rsa_memory_align

        rsa = make_struct(proc, rsa_key_256)
        rsa_memory_align(rsa)
        offload_to_vault(rsa)
        assert not kern.physmem.find_all(rsa_key_256.p_bytes())

    def test_scrubs_mont_cache(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        rsa_private_operation(rsa, 2)  # builds the cache
        offload_to_vault(rsa)
        assert not kern.physmem.find_all(rsa_key_256.p_bytes())

    def test_ops_still_work(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        offload_to_vault(rsa)
        m = 777
        assert rsa_private_operation(rsa, rsa_key_256.public_op(m)) == m
        assert rsa_public_operation(rsa, 5) == pow(5, rsa.e, rsa.n)

    def test_to_key_refused(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        offload_to_vault(rsa)
        with pytest.raises(RsaStructError):
            rsa.to_key()

    def test_double_offload_rejected(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        offload_to_vault(rsa)
        with pytest.raises(RsaStructError):
            offload_to_vault(rsa)

    def test_no_vault_fitted(self, rsa_key_256):
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        proc = kern.create_process("p")
        rsa = make_struct(proc, rsa_key_256)
        with pytest.raises(RsaStructError):
            offload_to_vault(rsa)

    def test_view_in_child_uses_vault(self, kern, proc, rsa_key_256):
        rsa = make_struct(proc, rsa_key_256)
        offload_to_vault(rsa)
        child = kern.fork(proc)
        view = rsa.view_in(child)
        m = 99
        assert rsa_private_operation(view, rsa_key_256.public_op(m)) == m


class TestHardwareLevelEndToEnd:
    @pytest.mark.parametrize("server", ["openssh", "apache"])
    def test_zero_copies_in_ram(self, server):
        sim = Simulation(
            SimulationConfig(server=server, level=ProtectionLevel.HARDWARE,
                             seed=3, key_bits=256, memory_mb=8)
        )
        sim.start_server()
        sim.cycle_connections(10)
        assert sim.scan().total == 0

    def test_full_disclosure_finds_nothing(self):
        """Beyond the paper's software limit: even 100% disclosure
        loses — the property the conclusion says needs hardware."""
        sim = Simulation(
            SimulationConfig(server="openssh", level=ProtectionLevel.HARDWARE,
                             seed=3, key_bits=256, memory_mb=8)
        )
        sim.start_server()
        sim.hold_connections(6)
        assert not sim.patterns.found_in(sim.kernel.physmem.snapshot())
        assert not sim.patterns.found_in(sim.kernel.swap.raw_dump())

    def test_handshakes_served_by_device(self):
        sim = Simulation(
            SimulationConfig(server="openssh", level=ProtectionLevel.HARDWARE,
                             seed=3, key_bits=256, memory_mb=8)
        )
        sim.start_server()
        sim.cycle_connections(5)
        assert sim.kernel.vault.ops_performed == 5


KEY = generate_rsa_key(256, DeterministicRandom(1001))
N, E, P, Q = KEY.n, KEY.e, KEY.p, KEY.q

#: A secret whose CRT halves differ, so a damaged iqmp shows.
SECRET = DeterministicRandom(7).randrange(2, N - 1)


@contextlib.contextmanager
def pow_moduli():
    """The modulus of every ``pow`` the key's private operation calls."""
    seen = []

    def spy(base, exp, mod):
        seen.append(mod)
        return builtins.pow(base, exp, mod)

    with mock.patch.object(rsa_module, "pow", spy, create=True):
        yield seen


def vault_op(x, known=None, key=KEY):
    """One vault operation on a fresh machine: the result, the simulated
    time it cost and the device's operation count."""
    kern = Kernel(KernelConfig(version=(2, 6, 10), memory_mb=4, has_key_vault=True))
    handle = kern.vault.store(key)
    result = kern.vault.private_op(handle, x, known)
    return result, kern.clock.now_us, dict(kern.clock.spent), kern.vault.ops_performed


class TestKnownPlaintext:
    """The vault takes the RAM engine's known-plaintext guard
    (``crypto.rsa.crt_known_answer``): with a proven ``known`` it skips
    the two CRT exponentiations, and nothing else changes."""

    @pytest.mark.parametrize("secret", [0, 1, N - 1, 5 * P, SECRET])
    def test_known_answer_is_the_crt_answer(self, secret):
        x = pow(secret, E, N)
        with pow_moduli() as real_moduli:
            real = vault_op(x)
        with pow_moduli() as fast_moduli:
            fast = vault_op(x, known=secret)
        assert real_moduli == [P, Q]
        assert fast_moduli == [N]  # only the public re-encryption check
        assert fast == real
        assert fast[0] == secret and fast[3] == 1

    @pytest.mark.parametrize(
        "known", [SECRET + 1, SECRET + N, SECRET - N, N, -1],
        ids=["plus1", "plus_n", "minus_n", "n", "minus1"],
    )
    def test_wrong_or_out_of_range_known_takes_the_crt_path(self, known):
        x = pow(SECRET, E, N)
        real = vault_op(x)
        with pow_moduli() as moduli:
            fast = vault_op(x, known=known)
        assert moduli[-2:] == [P, Q]
        assert fast == real
        assert fast[0] == SECRET

    @pytest.mark.parametrize("part", ["p", "dmp1", "iqmp"])
    def test_damaged_slot_returns_the_real_result(self, part):
        damaged = dataclasses.replace(KEY, **{part: getattr(KEY, part) ^ 2})
        x = pow(SECRET, E, N)
        with pow_moduli() as moduli:
            fast = vault_op(x, known=SECRET, key=damaged)
        assert len(moduli) >= 2 and moduli[-2] == damaged.p
        assert fast == vault_op(x, key=damaged)
        assert fast[0] == damaged.private_op(x) != SECRET


def test_engine_forwards_known_to_the_vault(proc):
    rsa = make_struct(proc, KEY)
    offload_to_vault(rsa)
    x = pow(SECRET, E, N)
    with pow_moduli() as moduli:
        assert rsa_private_operation(rsa, x, known=SECRET) == SECRET
    assert moduli == [N]
    assert proc.kernel.vault.ops_performed == 1


def damage_vault(sim):
    vault = sim.kernel.vault
    for handle, key in list(vault._slots.items()):
        vault._slots[handle] = dataclasses.replace(key, dmp1=key.dmp1 ^ 2)


@pytest.mark.parametrize("server", ["openssh", "apache"])
def test_servers_report_a_damaged_vault_key_as_a_mismatch(server):
    sim = Simulation(SimulationConfig(
        server=server, level=ProtectionLevel.HARDWARE, memory_mb=8,
        key_bits=256, seed=11,
    ))
    sim.start_server()
    damage_vault(sim)
    with pytest.raises(ConnectionRejectedError) as info:
        if server == "openssh":
            sim.server.open_connection()
        else:
            sim.server.handle_request(4096)
    assert isinstance(info.value.__cause__, WorkloadError)
    assert "mismatch" in str(info.value)
