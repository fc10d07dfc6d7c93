"""Tests for serialization of parameters, keys and ciphertexts."""

import io
import json
import struct

import numpy as np
import pytest

from repro.core import Ciphertext, CkksParameters, Decryptor
from repro.core.serialize import (
    FORMAT_VERSION,
    from_bytes,
    load_ciphertext,
    load_galois_keys,
    load_params,
    load_plaintext,
    load_public_key,
    load_relin_key,
    load_secret_key,
    roundtrip_bytes,
    save_ciphertext,
    save_galois_keys,
    save_params,
    save_plaintext,
    save_public_key,
    save_relin_key,
    save_secret_key_insecure,
    to_bytes,
)
from repro.server.request import (
    FrameError,
    ServeRequest,
    decode_request,
    encode_request,
)


class TestParams:
    def test_roundtrip(self, ckks):
        p2 = roundtrip_bytes(ckks["params"], save_params, load_params)
        assert p2.poly_modulus_degree == ckks["params"].poly_modulus_degree
        assert p2.moduli == ckks["params"].moduli
        assert p2.scale == ckks["params"].scale

    def test_wrong_kind_rejected(self, ckks):
        buf = io.BytesIO()
        save_params(ckks["params"], buf)
        buf.seek(0)
        with pytest.raises(ValueError):
            load_ciphertext(buf)

    def test_not_a_serialization(self):
        buf = io.BytesIO()
        np.savez(buf, junk=np.zeros(3))
        buf.seek(0)
        with pytest.raises(ValueError):
            load_params(buf)


class TestCiphertextPlaintext:
    def test_ciphertext_roundtrip_decrypts(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        ct2 = roundtrip_bytes(ct, save_ciphertext, load_ciphertext)
        assert np.array_equal(ct2.data, ct.data)
        assert ct2.scale == ct.scale
        got = enc.decode(ckks["decryptor"].decrypt(ct2)).real
        assert np.abs(got - z).max() < 1e-3

    def test_plaintext_roundtrip(self, ckks, rng):
        enc = ckks["encoder"]
        pt = enc.encode(rng.normal(size=enc.slots))
        pt2 = roundtrip_bytes(pt, save_plaintext, load_plaintext)
        assert np.array_equal(pt2.data, pt.data)
        assert pt2.is_ntt == pt.is_ntt


class TestKeys:
    def test_secret_key_roundtrip_decrypts(self, ckks, rng):
        sk2 = roundtrip_bytes(
            ckks["secret"], save_secret_key_insecure, load_secret_key
        )
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        got = enc.decode(Decryptor(ckks["context"], sk2).decrypt(ct)).real
        assert np.abs(got - z).max() < 1e-3

    def test_public_key_roundtrip(self, ckks):
        pk2 = roundtrip_bytes(ckks["public"], save_public_key, load_public_key)
        assert np.array_equal(pk2.data, ckks["public"].data)

    def test_relin_key_roundtrip_works(self, ckks, rng):
        rlk2 = roundtrip_bytes(ckks["relin"], save_relin_key, load_relin_key)
        enc = ckks["encoder"]
        z1 = rng.normal(size=enc.slots)
        z2 = rng.normal(size=enc.slots)
        ev = ckks["evaluator"]
        c1 = ckks["encryptor"].encrypt(enc.encode(z1))
        c2 = ckks["encryptor"].encrypt(enc.encode(z2))
        out = ev.relinearize(ev.multiply(c1, c2), rlk2)
        got = enc.decode(ckks["decryptor"].decrypt(out)).real
        assert np.abs(got - z1 * z2).max() < 1e-3

    def test_galois_keys_roundtrip_rotate(self, ckks, rng):
        gk2 = roundtrip_bytes(ckks["galois"], save_galois_keys, load_galois_keys)
        assert set(gk2.keys) == set(ckks["galois"].keys)
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        ct = ckks["encryptor"].encrypt(enc.encode(z))
        rot = ckks["evaluator"].rotate(ct, 1, gk2)
        got = enc.decode(ckks["decryptor"].decrypt(rot)).real
        assert np.abs(got - np.roll(z, -1)).max() < 1e-3


def _npz_v1_ciphertext(ct):
    """The npz container format version 1 wrote for a ciphertext."""
    buf = io.BytesIO()
    meta = {"version": 1, "kind": "ciphertext", "scale": ct.scale,
            "is_ntt": ct.is_ntt}
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                         dtype=np.uint8), data=ct.data)
    return buf.getvalue()


class TestFlatFormat:
    @pytest.fixture()
    def ct(self, ckks, rng):
        enc = ckks["encoder"]
        z = rng.normal(size=enc.slots)
        return ckks["encryptor"].encrypt(enc.encode(z))

    def test_npz_v1_blob_fails_closed(self, ct):
        """Version-1 npz bytes are refused by name, by the loader and at
        the frame boundary — there is no npz reader left."""
        wire = _npz_v1_ciphertext(ct)
        with pytest.raises(ValueError, match="format version 1"):
            from_bytes(load_ciphertext, wire)
        frame = encode_request(ServeRequest("r0", "square", [ct]))
        blob = to_bytes(save_ciphertext, ct)
        assert frame.endswith(blob)
        head = frame[: len(frame) - len(blob) - 8]
        v1_frame = head + struct.pack("<Q", len(wire)) + wire
        with pytest.raises(FrameError, match="format version 1"):
            decode_request(v1_frame)

    def test_layout_is_header_then_raw_limbs(self, ct):
        wire = to_bytes(save_ciphertext, ct)
        assert wire[:4] == b"RPRB"
        assert struct.unpack_from("<H", wire, 4)[0] == FORMAT_VERSION == 2
        assert wire.endswith(ct.data.astype("<u8").tobytes())
        assert len(wire) == 28 + 18 + ct.data.nbytes

    @pytest.mark.parametrize("pos", [7, 12, 16, 20, 30])
    def test_flipped_header_byte_refused(self, ct, pos):
        """The is_ntt flag (byte 7), tail length (12), scale (16..23) and
        shape (30..) are all under the CRC: a flip never decodes."""
        wire = bytearray(to_bytes(save_ciphertext, ct))
        wire[pos] ^= 0x01
        with pytest.raises(ValueError):
            from_bytes(load_ciphertext, bytes(wire))

    def test_trailing_and_missing_bytes_refused(self, ct):
        wire = to_bytes(save_ciphertext, ct)
        with pytest.raises(ValueError):
            from_bytes(load_ciphertext, wire + b"\0")
        with pytest.raises(ValueError):
            from_bytes(load_ciphertext, wire[:-1])
        with pytest.raises(ValueError, match="truncated"):
            from_bytes(load_ciphertext, wire[:10])

    def test_decoded_arrays_do_not_alias_the_input(self, ct):
        wire = bytearray(to_bytes(save_ciphertext, ct))
        back = from_bytes(load_ciphertext, memoryview(wire))
        assert np.array_equal(back.data, ct.data)
        # The decoded limbs are a copy: scribbling on the buffer after
        # decoding leaves them intact.
        wire[-8:] = b"\xff" * 8
        assert np.array_equal(back.data, ct.data)
