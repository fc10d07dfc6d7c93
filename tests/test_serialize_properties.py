"""Property-based round-trip tests for every core.serialize pair.

Hypothesis generates structurally-arbitrary (not semantically meaningful)
payloads: round-tripping must be byte-exact for *any* well-formed object,
not just the ones our fixtures produce.  Also pins the FORMAT_VERSION
contract: any version other than the current one is rejected by every
loader.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CkksParameters
from repro.core.ciphertext import Ciphertext
from repro.core.keys import GaloisKeys, KSwitchKey, PublicKey, RelinKey, SecretKey
from repro.core.plaintext import Plaintext
from repro.core import serialize
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

# Shared strategy pieces: small shapes keep runtime sane; the formats do
# not care about cryptographic validity, only about structure.
DEGREES = st.sampled_from([8, 16, 32])
LEVELS = st.integers(min_value=1, max_value=4)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
SCALES = st.floats(min_value=1e-3, max_value=1e30,
                   allow_nan=False, allow_infinity=False)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def u64_array(shape_strategy):
    return shape_strategy.flatmap(
        lambda shape: arrays(np.uint64, shape, elements=U64)
    )


ct_arrays = u64_array(st.tuples(st.integers(2, 3), LEVELS, DEGREES))
pt_arrays = u64_array(st.tuples(LEVELS, DEGREES))
pk_arrays = u64_array(st.tuples(st.just(2), LEVELS, DEGREES))
ksk_arrays = st.integers(1, 3).flatmap(
    lambda count: st.tuples(LEVELS, DEGREES).flatmap(
        lambda shape: st.lists(
            arrays(np.uint64, (2,) + shape, elements=U64),
            min_size=count, max_size=count,
        )
    )
)


class TestCiphertextPlaintextProperties:
    @settings(max_examples=40, **COMMON)
    @given(data=ct_arrays, scale=SCALES, is_ntt=st.booleans())
    def test_ciphertext_roundtrip(self, data, scale, is_ntt):
        ct = Ciphertext(data, scale, is_ntt)
        back = roundtrip_bytes(ct, save_ciphertext, load_ciphertext)
        assert np.array_equal(back.data, ct.data)
        assert back.scale == ct.scale
        assert back.is_ntt == ct.is_ntt

    @settings(max_examples=40, **COMMON)
    @given(data=pt_arrays, scale=SCALES, is_ntt=st.booleans())
    def test_plaintext_roundtrip(self, data, scale, is_ntt):
        pt = Plaintext(data, scale, is_ntt)
        back = roundtrip_bytes(pt, save_plaintext, load_plaintext)
        assert np.array_equal(back.data, pt.data)
        assert back.scale == pt.scale
        assert back.is_ntt == pt.is_ntt


class TestParamsProperties:
    @settings(max_examples=15, **COMMON)
    @given(
        degree=st.sampled_from([8, 32, 128]),
        bits=st.lists(st.sampled_from([25, 30, 35, 40, 50]),
                      min_size=2, max_size=5),
        scale_bits=st.integers(min_value=10, max_value=40),
    )
    def test_params_roundtrip(self, degree, bits, scale_bits):
        params = CkksParameters(
            poly_modulus_degree=degree,
            coeff_modulus_bits=bits,
            scale=float(2**scale_bits),
        )
        back = roundtrip_bytes(params, save_params, load_params)
        assert back.poly_modulus_degree == params.poly_modulus_degree
        assert back.coeff_modulus_bits == params.coeff_modulus_bits
        assert back.scale == params.scale
        # Derived primes are regenerated deterministically.
        assert back.moduli == params.moduli


class TestKeyProperties:
    @settings(max_examples=30, **COMMON)
    @given(data=pk_arrays)
    def test_public_key_roundtrip(self, data):
        back = roundtrip_bytes(PublicKey(data=data), save_public_key,
                               load_public_key)
        assert np.array_equal(back.data, data)

    @settings(max_examples=30, **COMMON)
    @given(
        rows=u64_array(st.tuples(LEVELS, DEGREES)),
        signs=st.tuples(st.integers(1, 4), DEGREES).flatmap(
            lambda s: arrays(np.int64, (s[1],),
                             elements=st.sampled_from([-1, 0, 1]))
        ),
    )
    def test_secret_key_roundtrip(self, rows, signs):
        sk = SecretKey(ntt_rows=rows, signed_coeffs=signs)
        back = roundtrip_bytes(sk, save_secret_key_insecure, load_secret_key)
        assert np.array_equal(back.ntt_rows, sk.ntt_rows)
        assert np.array_equal(back.signed_coeffs, sk.signed_coeffs)

    @settings(max_examples=25, **COMMON)
    @given(data=ksk_arrays)
    def test_relin_key_roundtrip(self, data):
        rlk = RelinKey(key=KSwitchKey(data=data))
        back = roundtrip_bytes(rlk, save_relin_key, load_relin_key)
        assert back.key.decomp_count == rlk.key.decomp_count
        for a, b in zip(back.key.data, rlk.key.data):
            assert np.array_equal(a, b)

    @settings(max_examples=20, **COMMON)
    @given(
        elts=st.lists(st.integers(min_value=3, max_value=2**14 - 1)
                      .map(lambda x: x | 1),  # Galois elements are odd
                      min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_galois_keys_roundtrip(self, elts, data):
        gk = GaloisKeys()
        for elt in elts:
            gk.keys[elt] = KSwitchKey(data=data.draw(ksk_arrays))
        back = roundtrip_bytes(gk, save_galois_keys, load_galois_keys)
        assert set(back.keys) == set(gk.keys)
        for elt in elts:
            assert back.keys[elt].decomp_count == gk.keys[elt].decomp_count
            for a, b in zip(back.keys[elt].data, gk.keys[elt].data):
                assert np.array_equal(a, b)


# -- memory layouts ----------------------------------------------------------
#
# The savers write C-order bytes whatever the input's layout: transposed
# (Fortran-ordered) storage, strided views and negative strides all
# round-trip to equal, C-contiguous, writable arrays.

LAYOUTS = st.sampled_from(["c", "transposed", "strided", "reversed"])


def relayout(arr, how):
    """An array equal to ``arr`` whose memory is laid out as ``how``."""
    if how == "transposed":
        out = np.ascontiguousarray(arr.T).T
    elif how == "strided":
        out = np.repeat(arr, 2, axis=-1)[..., ::2]
        assert not out.flags.c_contiguous
    elif how == "reversed":
        out = arr[..., ::-1].copy()[..., ::-1]
        assert out.strides[-1] < 0
    else:
        out = arr
    assert np.array_equal(out, arr)
    return out


def assert_same_array(back, want):
    assert np.array_equal(back, want)
    assert back.dtype == want.dtype
    assert back.flags.c_contiguous and back.flags.writeable


class TestLayoutProperties:
    @settings(max_examples=30, **COMMON)
    @given(data=ct_arrays, scale=SCALES, is_ntt=st.booleans(), how=LAYOUTS)
    def test_ciphertext_any_layout(self, data, scale, is_ntt, how):
        ct = Ciphertext(relayout(data, how), scale, is_ntt)
        back = roundtrip_bytes(ct, save_ciphertext, load_ciphertext)
        assert_same_array(back.data, data)
        assert (back.scale, back.is_ntt) == (scale, is_ntt)

    @settings(max_examples=30, **COMMON)
    @given(data=pt_arrays, scale=SCALES, is_ntt=st.booleans(), how=LAYOUTS)
    def test_plaintext_any_layout(self, data, scale, is_ntt, how):
        pt = Plaintext(relayout(data, how), scale, is_ntt)
        back = roundtrip_bytes(pt, save_plaintext, load_plaintext)
        assert_same_array(back.data, data)
        assert (back.scale, back.is_ntt) == (scale, is_ntt)

    @settings(max_examples=20, **COMMON)
    @given(data=pk_arrays, how=LAYOUTS)
    def test_public_key_any_layout(self, data, how):
        back = roundtrip_bytes(PublicKey(data=relayout(data, how)),
                               save_public_key, load_public_key)
        assert_same_array(back.data, data)

    @settings(max_examples=20, **COMMON)
    @given(rows=u64_array(st.tuples(LEVELS, DEGREES)),
           signs=DEGREES.flatmap(lambda n: arrays(
               np.int64, (n,), elements=st.sampled_from([-1, 0, 1]))),
           how=LAYOUTS)
    def test_secret_key_any_layout(self, rows, signs, how):
        sk = SecretKey(ntt_rows=relayout(rows, how),
                       signed_coeffs=relayout(signs, how))
        back = roundtrip_bytes(sk, save_secret_key_insecure, load_secret_key)
        assert_same_array(back.ntt_rows, rows)
        assert_same_array(back.signed_coeffs, signs)

    @settings(max_examples=20, **COMMON)
    @given(data=ksk_arrays, layouts=st.data())
    def test_relin_key_any_layout(self, data, layouts):
        views = [relayout(a, layouts.draw(LAYOUTS)) for a in data]
        back = roundtrip_bytes(RelinKey(key=KSwitchKey(data=views)),
                               save_relin_key, load_relin_key)
        assert back.key.decomp_count == len(data)
        for got, want in zip(back.key.data, data):
            assert_same_array(got, want)

    @settings(max_examples=15, **COMMON)
    @given(elts=st.lists(st.integers(1, 2**13).map(lambda x: 2 * x + 1),
                         min_size=1, max_size=3, unique=True),
           data=st.data())
    def test_galois_keys_any_layout(self, elts, data):
        want = {elt: data.draw(ksk_arrays) for elt in elts}
        gk = GaloisKeys()
        for elt, arrs in want.items():
            gk.keys[elt] = KSwitchKey(
                data=[relayout(a, data.draw(LAYOUTS)) for a in arrs])
        back = roundtrip_bytes(gk, save_galois_keys, load_galois_keys)
        assert set(back.keys) == set(want)
        for elt, arrs in want.items():
            assert back.keys[elt].decomp_count == len(arrs)
            for got, a in zip(back.keys[elt].data, arrs):
                assert_same_array(got, a)


# -- FORMAT_VERSION contract -------------------------------------------------

PAIRS = [
    ("params", save_params, load_params, "params"),
    ("plaintext", save_plaintext, load_plaintext, "pt"),
    ("ciphertext", save_ciphertext, load_ciphertext, "ct"),
    ("public_key", save_public_key, load_public_key, "public"),
    ("secret_key", save_secret_key_insecure, load_secret_key, "secret"),
    ("relin_key", save_relin_key, load_relin_key, "relin"),
    ("galois_keys", save_galois_keys, load_galois_keys, "galois"),
]


@pytest.fixture()
def sample_objects(ckks, rng):
    enc = ckks["encoder"]
    pt = enc.encode(rng.normal(size=enc.slots))
    return {
        "params": ckks["params"],
        "pt": pt,
        "ct": ckks["encryptor"].encrypt(pt),
        "public": ckks["public"],
        "secret": ckks["secret"],
        "relin": ckks["relin"],
        "galois": ckks["galois"],
    }


class TestFormatVersion:
    @pytest.mark.parametrize("kind,saver,loader,obj_key",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_version_mismatch_rejected(self, kind, saver, loader, obj_key,
                                       sample_objects, monkeypatch):
        """Bytes written by a future format version must be refused."""
        monkeypatch.setattr(serialize, "FORMAT_VERSION", FORMAT_VERSION + 1)
        wire = to_bytes(saver, sample_objects[obj_key])
        monkeypatch.undo()
        with pytest.raises(ValueError, match="version"):
            from_bytes(loader, wire)

    @pytest.mark.parametrize("kind,saver,loader,obj_key",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_current_version_accepted(self, kind, saver, loader, obj_key,
                                      sample_objects):
        from_bytes(loader, to_bytes(saver, sample_objects[obj_key]))

    @settings(max_examples=30, **COMMON)
    @given(version=st.one_of(
        st.integers(min_value=-10**6, max_value=10**6)
        .filter(lambda v: v != FORMAT_VERSION),
        st.none(),
    ))
    def test_any_foreign_version_rejected(self, version):
        """Crafted frames with any other (or missing) version fail closed."""
        payload = {"kind": "params", "degree": 8, "bits": [30, 30],
                   "scale": 2.0**10}
        if version is not None:
            payload["version"] = version
        buf = io.BytesIO()
        np.savez(buf, __meta__=np.frombuffer(
            json.dumps(payload).encode(), dtype=np.uint8))
        buf.seek(0)
        with pytest.raises(ValueError, match="version"):
            load_params(buf)

    @settings(max_examples=30, **COMMON)
    @given(version=st.integers(min_value=0, max_value=2**16 - 1)
           .filter(lambda v: v != FORMAT_VERSION))
    def test_any_foreign_flat_header_version_rejected(self, version):
        """A flat blob whose header names any other version fails closed,
        and the error names that version."""
        params = CkksParameters(poly_modulus_degree=8,
                                coeff_modulus_bits=[30, 30], scale=2.0**10)
        wire = bytearray(to_bytes(save_params, params))
        wire[4:6] = version.to_bytes(2, "little")
        with pytest.raises(ValueError, match=f"version {version} "):
            from_bytes(load_params, bytes(wire))

    def test_wrong_kind_still_rejected(self, sample_objects):
        wire = to_bytes(save_public_key, sample_objects["public"])
        with pytest.raises(ValueError, match="expected"):
            from_bytes(load_relin_key, wire)
