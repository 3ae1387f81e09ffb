"""Fuzz/property tests on parser and allocator robustness.

Codecs must reject garbage with :class:`EncodingError` — never crash
with anything else; the parsers that read attacker-controlled or
on-disk key bytes (the structural predictor, ``d2i_privatekey``) may
raise only :class:`ReproError`; the user heap must preserve chunk
isolation under arbitrary malloc/free interleavings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.predict import StructuralPredictor
from repro.crypto.asn1 import decode_integer, decode_rsa_private_key, decode_sequence
from repro.crypto.keycorpus import key_material
from repro.crypto.pem import pem_decode, pem_encode
from repro.errors import EncodingError, ReproError
from repro.kernel.fs import SimFileSystem
from repro.kernel.kernel import Kernel, KernelConfig
from repro.ssl.d2i import d2i_privatekey


class TestDecoderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=300))
    def test_der_private_key_never_crashes(self, blob):
        try:
            values = decode_rsa_private_key(blob)
        except EncodingError:
            return
        assert len(values) == 8  # only structurally valid input gets here

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=100), pos=st.integers(0, 110))
    def test_integer_decode_never_crashes(self, blob, pos):
        try:
            value, end = decode_integer(blob, pos)
        except EncodingError:
            return
        assert value >= 0 and end <= len(blob)

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=100))
    def test_sequence_decode_never_crashes(self, blob):
        try:
            body, end = decode_sequence(blob, 0)
        except EncodingError:
            return
        assert end <= len(blob)

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=400))
    def test_pem_decode_never_crashes(self, blob):
        try:
            pem_decode(blob)
        except EncodingError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=300))
    def test_pem_decode_text_garbage(self, text):
        try:
            pem_decode(text.encode("utf-8", errors="replace"))
        except EncodingError:
            pass


@st.composite
def mutated_key(draw):
    """A corpus key's DER or PEM with a few byte-level mutations:
    bit flips, overwrites, inserts, deletions and truncation."""
    material = key_material(256, draw(st.integers(0, 3)))
    data = bytearray(draw(st.sampled_from([material.der, material.pem])))
    edits = st.tuples(
        st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
        st.integers(0, 2**16),
        st.integers(0, 255),
    )
    for op, pos, value in draw(st.lists(edits, min_size=1, max_size=8)):
        at = pos % (len(data) + 1)
        if op == "insert":
            data[at:at] = bytes([value])
        elif at == len(data):
            continue
        elif op == "flip":
            data[at] ^= 1 << (value % 8)
        elif op == "set":
            data[at] = value
        elif op == "delete":
            del data[at : at + value % 16 + 1]
        else:
            del data[at:]
    return material, bytes(data)


def armored(blob):
    """``blob`` as a PEM body (empty stays empty: nothing to armor)."""
    return pem_encode(blob) if blob else blob


class TestKeyParserFuzz:
    @settings(max_examples=100, deadline=None)
    @given(case=mutated_key())
    def test_predictor_raises_only_repro_errors(self, case):
        """Any key it rebuilds is the true key, whatever the damage."""
        material, blob = case
        predictor = StructuralPredictor(material.key.n, material.key.e)
        try:
            result = predictor.scan_segments([blob, armored(blob)])
        except ReproError:
            return
        key = result.recovered_key
        assert key is None or key == material.key

    @settings(max_examples=100, deadline=None)
    @given(case=mutated_key(), armor=st.booleans())
    def test_d2i_raises_only_repro_errors(self, case, armor):
        _, blob = case
        kern = Kernel(KernelConfig.vulnerable(memory_mb=4))
        fs = SimFileSystem("ext2", label="root")
        fs.dirs.add("etc")
        fs.create_file("etc/key.pem", armored(blob) if armor else blob)
        kern.vfs.mount("/", fs)
        try:
            d2i_privatekey(kern.create_process("server"), "/etc/key.pem")
        except ReproError:
            pass


@st.composite
def heap_script(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("malloc"), st.integers(1, 3000)),
                st.tuples(st.just("free"), st.integers(0, 100)),
                st.tuples(st.just("memalign"), st.integers(1, 5000)),
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestHeapProperties:
    @settings(max_examples=30, deadline=None)
    @given(script=heap_script())
    def test_chunk_isolation(self, script):
        """Writes to one live chunk never alter another live chunk."""
        kern = Kernel(KernelConfig.vulnerable(memory_mb=8))
        proc = kern.create_process("fuzz")
        live = {}
        counter = 0
        for action, value in script:
            if action in ("malloc", "memalign"):
                if action == "malloc":
                    addr = proc.heap.malloc(value)
                else:
                    addr = proc.heap.memalign(4096, value)
                counter += 1
                fill = bytes([counter % 251 + 1]) * min(value, 64)
                proc.mm.write(addr, fill)
                live[addr] = fill
            elif live:
                addr = sorted(live)[value % len(live)]
                proc.heap.free(addr)
                del live[addr]
        for addr, fill in live.items():
            assert proc.mm.read(addr, len(fill)) == fill

    @settings(max_examples=30, deadline=None)
    @given(script=heap_script())
    def test_clear_on_free_scrubs_everything(self, script):
        """With Chow-style clearing, no freed chunk retains its fill."""
        kern = Kernel(
            KernelConfig(version=(2, 6, 10), memory_mb=8, heap_clear_on_free=True)
        )
        proc = kern.create_process("fuzz")
        live = {}
        freed = []
        marker = b"\xabSECRET\xcd"
        for action, value in script:
            if action in ("malloc", "memalign"):
                size = max(value, len(marker))
                if action == "malloc":
                    addr = proc.heap.malloc(size)
                else:
                    addr = proc.heap.memalign(4096, size)
                proc.mm.write(addr, marker)
                live[addr] = size
            elif live:
                addr = sorted(live)[value % len(live)]
                proc.heap.free(addr)
                freed.append(addr)
                del live[addr]
        for addr in freed:
            if addr not in live:  # not re-allocated since
                data = proc.mm.read(addr, len(marker))
                assert marker not in data
