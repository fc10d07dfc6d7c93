"""Wall-clock benchmark of the ``core.serialize`` wire codec.

``test_codec_wallclock_json`` records encode and decode ops/sec into the
``codec`` section of ``benchmarks/results/BENCH_wallclock.json`` for:

* a served ciphertext at N = 1024 with 4 limbs (``add-n1024``'s size)
  and at N = 4096 with 5 limbs — encode is ``to_bytes``, decode
  ``from_bytes`` of that blob;
* a session hello carrying a relinearization key plus the Galois keys
  of a 16-wide dot product at N = 4096 (about 6 MiB) — encode
  serializes both keys and frames them, decode parses the frame and
  both key blobs, as the server's handshake does.

Encode and decode interleave within each rep (median over reps).
"""

import time

import numpy as np

from _wallclock import interleaved_median_ops


def _timed(fn, calls):
    """A leg that runs ``fn`` ``calls`` times and returns s per call."""

    def run():
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return run


def test_codec_wallclock_json(quick, wallclock_record):
    from repro.apps.inference import rotation_steps_needed
    from repro.core import CkksContext, KeyGenerator
    from repro.core.ciphertext import Ciphertext
    from repro.core.serialize import (
        from_bytes,
        load_ciphertext,
        load_galois_keys,
        load_relin_key,
        save_ciphertext,
        save_galois_keys,
        save_relin_key,
        to_bytes,
    )
    from repro.server import (
        SessionHello,
        decode_session_hello,
        demo_deployment,
        encode_session_hello,
    )

    rng = np.random.default_rng(12)
    cases, sizes = [], {}
    for degree, limbs in ((1024, 4), (4096, 5)):
        ct = Ciphertext(rng.integers(0, 2**60, (2, limbs, degree),
                                     dtype=np.uint64), 2.0**30)
        wire = to_bytes(save_ciphertext, ct)
        assert np.array_equal(from_bytes(load_ciphertext, wire).data,
                              ct.data)
        name = f"ciphertext_n{degree}_l{limbs}"
        sizes[name] = len(wire)
        calls = 20 if quick else 200
        cases.append((name, {
            "encode": _timed(lambda ct=ct: to_bytes(save_ciphertext, ct),
                             calls),
            "decode": _timed(lambda w=wire: from_bytes(load_ciphertext, w),
                             calls),
        }))

    params = demo_deployment(degree=4096)[0]
    keygen = KeyGenerator(CkksContext(params), seed=7)
    rlk = keygen.relin_key()
    gk = keygen.galois_keys(rotation_steps_needed(16))

    def encode_hello():
        return encode_session_hello(SessionHello(
            client_id="bench",
            relin_wire=to_bytes(save_relin_key, rlk),
            galois_wire=to_bytes(save_galois_keys, gk)))

    def decode_hello():
        hello = decode_session_hello(hello_wire)
        return (from_bytes(load_relin_key, hello.relin_wire),
                from_bytes(load_galois_keys, hello.galois_wire))

    hello_wire = encode_hello()
    back_rlk, back_gk = decode_hello()
    assert set(back_gk.keys) == set(gk.keys)
    assert all(np.array_equal(a, b)
               for a, b in zip(back_rlk.key.data, rlk.key.data))
    sizes["session_hello_n4096"] = len(hello_wire)
    calls = 2 if quick else 10
    cases.append(("session_hello_n4096", {
        "encode": _timed(encode_hello, calls),
        "decode": _timed(decode_hello, calls),
    }))

    reps = 5 if quick else 15
    medians = interleaved_median_ops(cases, reps)
    payload = {
        name: {
            "bytes": sizes[name],
            **{f"{leg}_us": round(s * 1e6, 2) for leg, s in legs.items()},
            **{f"{leg}_ops_per_s": round(1.0 / s, 1)
               for leg, s in legs.items()},
        }
        for name, legs in medians.items()
    }
    wallclock_record("codec", payload,
                     {"codec_reps": reps, "codec_quick": bool(quick)})
    for name, row in payload.items():
        print(f"  {name:22s} {row['bytes'] / 1024:9.1f} KiB  "
              f"encode {row['encode_us']:9.1f} us  "
              f"decode {row['decode_us']:9.1f} us")
        assert row["encode_ops_per_s"] > 0 and row["decode_ops_per_s"] > 0
    assert 4 * 2**20 <= sizes["session_hello_n4096"] <= 7 * 2**20
