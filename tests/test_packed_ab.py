"""A/B property suite: every execution backend matches the per-limb oracle.

The packed execution path (stacked modmath kernels, stacked NTT, packed
evaluator/encryptor/decryptor, packed rns converters) must produce the
exact same uint64 outputs as the per-limb reference loops it replaced
(:mod:`repro.core.reference`) — same values, same lazy-reduction
windows.  Hypothesis drives random
moduli (20-60 bits), levels 1-8, degrees {16, 64, 4096}, and both
laziness modes through every layer; a deterministic heavyweight case
pins the paper-shaped N=4096, level-8 stack.

The ``test_native_*`` cases extend the suite to a **three-way** check:
the compiled kernel backend (:mod:`repro.native`) against both the
packed-NumPy path and the per-limb oracle, over the same random
moduli / level / degree / laziness space.  When no C toolchain is
usable, the native legs *skip* visibly (they must not silently pass as
two-way checks).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native as repro_native
from repro.native import use_backend, use_threads

NATIVE_AVAILABLE = repro_native.available()

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE,
    reason="no usable C toolchain: native backend leg skipped "
           f"({repro_native.availability_error()})",
)

from repro.core import (
    CkksContext,
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.core.ciphertext import Ciphertext
from repro.core.reference import (
    ReferenceDecryptor,
    ReferenceEncryptor,
    ReferenceEvaluator,
    ReferenceNTTEngine,
    convert_reference,
    divide_round_reference,
)
from repro.modmath import (
    Modulus,
    StackedModulus,
    add_mod,
    dot_mod,
    mad_mod,
    mul_mod,
    neg_mod,
    sub_mod,
)
from repro.modmath.barrett import (
    barrett_reduce_64,
    barrett_reduce_128,
    conditional_sub,
)
from repro.ntt import NTTEngine
from repro.rns import BaseConverter, LastModulusScaler, RNSBase

DEGREES = [16, 64, 4096]


def _distinct_ntt_base(rng: np.random.Generator, k: int, degree: int) -> RNSBase:
    """k distinct NTT-friendly primes of random widths for ``degree``."""
    from repro.modmath import gen_ntt_primes

    bit_sizes = [int(b) for b in rng.integers(21, 61, size=k)]
    return RNSBase.from_values(gen_ntt_primes(bit_sizes, degree))


def _rand_rows(rng, base, shape_tail):
    out = np.empty((len(base),) + shape_tail, dtype=np.uint64)
    for i, m in enumerate(base):
        out[i] = rng.integers(0, m.value, shape_tail, dtype=np.uint64)
    return out


# -- stacked modmath vs per-limb ---------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_stacked_modmath_matches_per_limb(seed, k, n):
    rng = np.random.default_rng(seed)
    mods = [
        Modulus(int(p))
        for p in _distinct_ntt_base(rng, k, 16).values
    ]
    stacked = StackedModulus(mods)
    a = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    b = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    c = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    lazy = np.stack(
        [rng.integers(0, 2 * m.value, n, dtype=np.uint64) for m in mods]
    )
    hi = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)
    lo = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)

    cases = [
        ("add_mod", add_mod(a, b, stacked),
         [add_mod(a[i], b[i], mods[i]) for i in range(k)]),
        ("sub_mod", sub_mod(a, b, stacked),
         [sub_mod(a[i], b[i], mods[i]) for i in range(k)]),
        ("neg_mod", neg_mod(a, stacked),
         [neg_mod(a[i], mods[i]) for i in range(k)]),
        ("mul_mod", mul_mod(a, b, stacked),
         [mul_mod(a[i], b[i], mods[i]) for i in range(k)]),
        ("mad_mod", mad_mod(a, b, c, stacked),
         [mad_mod(a[i], b[i], c[i], mods[i]) for i in range(k)]),
        ("conditional_sub", conditional_sub(lazy, stacked),
         [conditional_sub(lazy[i], mods[i]) for i in range(k)]),
        ("barrett_reduce_64", barrett_reduce_64(lo, stacked),
         [barrett_reduce_64(lo[i], mods[i]) for i in range(k)]),
        ("barrett_reduce_128", barrett_reduce_128(hi, lo, stacked),
         [barrett_reduce_128(hi[i], lo[i], mods[i]) for i in range(k)]),
    ]
    for name, packed, per_limb in cases:
        assert np.array_equal(packed, np.stack(per_limb)), name
    got = dot_mod(a, b, stacked)
    want = np.array([dot_mod(a[i], b[i], mods[i]) for i in range(k)])
    assert np.array_equal(got, want), "dot_mod"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
def test_stacked_modmath_broadcast_shapes(seed, k):
    """Leading component axes and (k, 1) scalar columns broadcast right."""
    rng = np.random.default_rng(seed)
    mods = [Modulus(int(p)) for p in _distinct_ntt_base(rng, k, 16).values]
    stacked = StackedModulus(mods)
    n = 33
    a = np.stack(
        [np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
         for _ in range(3)]
    )
    col = np.array(
        [rng.integers(0, m.value) for m in mods], dtype=np.uint64
    )[:, None]
    got = mul_mod(a, col, stacked)
    for comp in range(3):
        for i in range(k):
            want = mul_mod(a[comp, i], col[i, 0], mods[i])
            assert np.array_equal(got[comp, i], want)


# -- stacked NTT vs per-row ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
    lead=st.sampled_from([(), (2,)]),
)
def test_stacked_ntt_matches_per_row(seed, k, degree, lazy, lead):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    packed = NTTEngine(degree, base)
    serial = ReferenceNTTEngine(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_p = packed.forward(x, lazy=lazy)
    fwd_s = serial.forward(x, lazy=lazy)
    assert np.array_equal(fwd_p, fwd_s)
    # Inverse consumes the lazy forward output (the hot pipeline shape).
    inv_p = packed.inverse(fwd_s, lazy=lazy)
    inv_s = serial.inverse(fwd_s, lazy=lazy)
    assert np.array_equal(inv_p, inv_s)
    assert np.array_equal(
        packed.dyadic_multiply(fwd_s, fwd_s), serial.dyadic_multiply(fwd_s, fwd_s)
    )


def test_stacked_ntt_paper_shape_both_laziness_modes():
    """Deterministic N=4096, level-8 pin (the acceptance-criteria shape)."""
    rng = np.random.default_rng(7)
    base = _distinct_ntt_base(rng, 8, 4096)
    packed = NTTEngine(4096, base)
    serial = ReferenceNTTEngine(4096, base)
    x = _rand_rows(rng, base, (4096,))
    for lazy in (False, True):
        assert np.array_equal(
            packed.forward(x, lazy=lazy), serial.forward(x, lazy=lazy)
        )
        f = serial.forward(x, lazy=True)
        assert np.array_equal(
            packed.inverse(f, lazy=lazy), serial.inverse(f, lazy=lazy)
        )
    assert np.array_equal(packed.inverse(packed.forward(x)), x)


# -- rns converters -----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kin=st.integers(1, 5),
    kout=st.integers(1, 4),
    n=st.sampled_from([4, 64, 256]),
)
def test_base_converter_packed_matches_reference(seed, kin, kout, n):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, kin + kout, 16)
    ibase = RNSBase(base.moduli[:kin])
    obase = RNSBase(base.moduli[kin:])
    conv = BaseConverter(ibase, obase)
    x = _rand_rows(rng, ibase, (n,))
    assert np.array_equal(conv.convert(x), convert_reference(conv, x))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.sampled_from([4, 64, 256]),
)
def test_scaler_packed_matches_reference(seed, k, n):
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    x = _rand_rows(rng, base, (n,))
    assert np.array_equal(
        scaler.divide_round(x), divide_round_reference(scaler, x)
    )


# -- evaluator / encryptor / decryptor ---------------------------------------


@pytest.fixture(scope="module")
def ab_scheme():
    """One small deployment with both a packed and a per-limb evaluator."""
    params = CkksParameters.default(
        degree=64, levels=3, scale_bits=23, first_bits=30, special_bits=30
    )
    context = CkksContext(params)
    keygen = KeyGenerator(context, seed=77)
    return {
        "context": context,
        "encoder": CkksEncoder(context),
        "public": keygen.public_key(),
        "secret": keygen.secret_key(),
        "relin": keygen.relin_key(),
        "galois": keygen.galois_keys([1, 3]),
        "packed": Evaluator(context),
        "serial": ReferenceEvaluator(context),
    }


def _random_ct(rng, context, size, level, scale):
    data = np.empty((size, level, context.degree), dtype=np.uint64)
    for i in range(level):
        data[:, i] = rng.integers(
            0, context.modulus(i).value, (size, context.degree), dtype=np.uint64
        )
    return Ciphertext(data, scale)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.integers(1, 4))
def test_evaluator_dyadic_ops_packed_matches_serial(ab_scheme, seed, level):
    ctx = ab_scheme["context"]
    ep, es = ab_scheme["packed"], ab_scheme["serial"]
    rng = np.random.default_rng(seed)
    scale = float(ctx.params.scale)
    a = _random_ct(rng, ctx, 2, level, scale)
    b = _random_ct(rng, ctx, 2, level, scale)
    t3 = _random_ct(rng, ctx, 3, level, scale)
    pt = ab_scheme["encoder"].encode(
        rng.normal(size=4), level=level
    ) if level <= ctx.max_level else None

    pairs = [
        ("add", ep.add(a, b), es.add(a, b)),
        ("add3", ep.add(t3, Ciphertext(a.data, scale)),
         es.add(t3, Ciphertext(a.data, scale))),
        ("sub", ep.sub(a, b), es.sub(a, b)),
        ("sub3a", ep.sub(t3, Ciphertext(a.data, scale)),
         es.sub(t3, Ciphertext(a.data, scale))),
        ("sub3b", ep.sub(Ciphertext(a.data, scale), t3),
         es.sub(Ciphertext(a.data, scale), t3)),
        ("negate", ep.negate(a), es.negate(a)),
        ("multiply", ep.multiply(a, b), es.multiply(a, b)),
        ("square", ep.square(a), es.square(a)),
        ("add_scalar", ep.add_scalar(a, 2.25), es.add_scalar(a, 2.25)),
        ("multiply_scalar", ep.multiply_scalar(a, -1.5),
         es.multiply_scalar(a, -1.5)),
    ]
    if pt is not None:
        pairs.append(("add_plain", ep.add_plain(a, pt), es.add_plain(a, pt)))
        pairs.append(
            ("multiply_plain", ep.multiply_plain(a, pt), es.multiply_plain(a, pt))
        )
    if level >= 2:
        rs = Ciphertext(a.data, scale * scale)
        pairs.append(("rescale", ep.rescale(rs), es.rescale(rs)))
        pairs.append(
            ("mod_switch", ep.mod_switch_to_next(a), es.mod_switch_to_next(a))
        )
    for name, x, y in pairs:
        assert np.array_equal(x.data, y.data), name
        assert x.scale == y.scale, name


def test_evaluator_keyed_ops_packed_matches_serial(ab_scheme):
    ctx = ab_scheme["context"]
    ep, es = ab_scheme["packed"], ab_scheme["serial"]
    rng = np.random.default_rng(5)
    scale = float(ctx.params.scale)
    level = ctx.max_level
    a = _random_ct(rng, ctx, 2, level, scale)
    t3 = _random_ct(rng, ctx, 3, level, scale)
    rlk, gk = ab_scheme["relin"], ab_scheme["galois"]

    rp, rs = ep.relinearize(t3, rlk), es.relinearize(t3, rlk)
    assert np.array_equal(rp.data, rs.data)
    rotp, rots = ep.rotate(a, 1, gk), es.rotate(a, 1, gk)
    assert np.array_equal(rotp.data, rots.data)
    hp = ep.rotate_hoisted(a, [1, 3], gk)
    hs = es.rotate_hoisted(a, [1, 3], gk)
    for x, y in zip(hp, hs):
        assert np.array_equal(x.data, y.data)


def test_encryptor_decryptor_packed_matches_serial(ab_scheme):
    ctx = ab_scheme["context"]
    enc = ab_scheme["encoder"]
    pk, sk = ab_scheme["public"], ab_scheme["secret"]
    rng = np.random.default_rng(11)
    z = rng.normal(size=enc.slots)
    pt = enc.encode(z)
    e_packed = Encryptor(ctx, pk, seed=42)
    e_serial = ReferenceEncryptor(ctx, pk, seed=42)
    ct_p = e_packed.encrypt(pt)
    ct_s = e_serial.encrypt(pt)
    # Same seed, same sampling order: the packed encryptor is bit-identical.
    assert np.array_equal(ct_p.data, ct_s.data)
    d_packed = Decryptor(ctx, sk)
    d_serial = ReferenceDecryptor(ctx, sk)
    assert np.array_equal(d_packed.decrypt(ct_p).data, d_serial.decrypt(ct_p).data)
    # And the full packed roundtrip still decodes the message.
    vals = enc.decode(d_packed.decrypt(ct_p))
    assert np.allclose(vals.real, z, atol=1e-2)


def test_paper_shape_evaluator_pin():
    """N=4096, level-8 multiply/rescale bit-equality (acceptance shape)."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    assert ctx.max_level == 8
    ep, es = Evaluator(ctx), ReferenceEvaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    assert np.array_equal(ep.multiply(a, b).data, es.multiply(a, b).data)
    rs = Ciphertext(a.data, scale * scale)
    assert np.array_equal(ep.rescale(rs).data, es.rescale(rs).data)


# -- three-way native / packed / reference ------------------------------------


@needs_native
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    n=st.sampled_from([1, 7, 64, 300]),
)
def test_native_modmath_three_way(seed, k, n):
    """Native == packed == per-limb for every stacked modular kernel."""
    from repro.modmath import packedops

    rng = np.random.default_rng(seed)
    mods = [
        Modulus(int(p))
        for p in _distinct_ntt_base(rng, k, 16).values
    ]
    stacked = StackedModulus(mods)
    a = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    b = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    c = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    lazy = np.stack(
        [rng.integers(0, 2 * m.value, n, dtype=np.uint64) for m in mods]
    )
    hi = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)
    lo = rng.integers(0, 1 << 64, (k, n), dtype=np.uint64)
    w = np.stack([rng.integers(1, m.value, 1, dtype=np.uint64) for m in mods])
    wq = [(int(w[i, 0]) << 64) // mods[i].value for i in range(k)]
    wq_hi = np.array([q >> 32 for q in wq], dtype=np.uint64)[:, None]
    wq_lo = np.array([q & 0xFFFFFFFF for q in wq], dtype=np.uint64)[:, None]
    m_in = np.stack([rng.integers(0, m.value, n, dtype=np.uint64) for m in mods])
    r_lazy = np.stack(
        [rng.integers(0, 4 * m.value, n, dtype=np.uint64) for m in mods]
    )

    def run_all():
        return {
            "add_mod": add_mod(a, b, stacked),
            "sub_mod": sub_mod(a, b, stacked),
            "neg_mod": neg_mod(a, stacked),
            "mul_mod": mul_mod(a, b, stacked),
            "mad_mod": mad_mod(a, b, c, stacked),
            "conditional_sub": conditional_sub(lazy, stacked),
            "barrett_reduce_64": barrett_reduce_64(lo, stacked),
            "barrett_reduce_128": barrett_reduce_128(hi, lo, stacked),
            "dyadic_product": packedops.dyadic_product_stacked(
                a, b, c, lazy, stacked
            ),
            "dyadic_square": packedops.dyadic_square_stacked(a, b, stacked),
            "mul_mod_operand": packedops.mul_mod_operand_stacked(
                a, w, wq_hi, wq_lo, stacked
            ),
            "lazy_diff_mul_operand": packedops.lazy_diff_mul_operand_stacked(
                m_in, r_lazy, w, wq_hi, wq_lo, stacked
            ),
        }

    with use_backend("native"):
        got_native = run_all()
    with use_backend("packed"):
        got_packed = run_all()

    serial = {
        "add_mod": [add_mod(a[i], b[i], mods[i]) for i in range(k)],
        "sub_mod": [sub_mod(a[i], b[i], mods[i]) for i in range(k)],
        "neg_mod": [neg_mod(a[i], mods[i]) for i in range(k)],
        "mul_mod": [mul_mod(a[i], b[i], mods[i]) for i in range(k)],
        "mad_mod": [mad_mod(a[i], b[i], c[i], mods[i]) for i in range(k)],
        "conditional_sub": [conditional_sub(lazy[i], mods[i]) for i in range(k)],
        "barrett_reduce_64": [barrett_reduce_64(lo[i], mods[i]) for i in range(k)],
        "barrett_reduce_128": [
            barrett_reduce_128(hi[i], lo[i], mods[i]) for i in range(k)
        ],
    }
    for name in got_native:
        assert np.array_equal(got_native[name], got_packed[name]), name
    for name, rows in serial.items():
        assert np.array_equal(got_native[name], np.stack(rows)), name


@needs_native
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
    lead=st.sampled_from([(), (2,)]),
)
def test_native_ntt_three_way(seed, k, degree, lazy, lead):
    """Native stacked NTT == packed stacked NTT == per-row serial NTT."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    stacked = NTTEngine(degree, base)
    serial = ReferenceNTTEngine(degree, base)
    x = np.empty(lead + (k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[..., i, :] = rng.integers(0, m.value, lead + (degree,), dtype=np.uint64)

    fwd_s = serial.forward(x, lazy=lazy)
    with use_backend("native"):
        fwd_n = stacked.forward(x, lazy=lazy)
        inv_n = stacked.inverse(fwd_s, lazy=lazy)
    with use_backend("packed"):
        fwd_p = stacked.forward(x, lazy=lazy)
        inv_p = stacked.inverse(fwd_s, lazy=lazy)
    inv_s = serial.inverse(fwd_s, lazy=lazy)
    assert np.array_equal(fwd_n, fwd_p)
    assert np.array_equal(fwd_n, fwd_s)
    assert np.array_equal(inv_n, inv_p)
    assert np.array_equal(inv_n, inv_s)


@needs_native
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.sampled_from([4, 64, 256]),
)
def test_native_scaler_three_way(seed, k, n):
    """Native fused divide-round tail == packed == per-limb reference."""
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, 16)
    scaler = LastModulusScaler(base)
    x = _rand_rows(rng, base, (n,))
    ref = divide_round_reference(scaler, x)
    with use_backend("native"):
        got_native = scaler.divide_round(x)
    with use_backend("packed"):
        got_packed = scaler.divide_round(x)
    assert np.array_equal(got_native, got_packed)
    assert np.array_equal(got_native, ref)


@needs_native
def test_native_evaluator_paper_shape_three_way():
    """N=4096, level-8 multiply/rescale/relinearize pin across backends."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx, seed=123)
    rlk = keygen.relin_key()
    ev = Evaluator(ctx)
    ev_serial = ReferenceEvaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    t3 = _random_ct(rng, ctx, 3, 8, scale)
    rs = Ciphertext(a.data, scale * scale)

    def run(e):
        return (
            e.multiply(a, b).data,
            e.rescale(rs).data,
            e.relinearize(t3, rlk).data,
        )

    with use_backend("native"):
        got_native = run(ev)
    with use_backend("packed"):
        got_packed = run(ev)
    got_serial = run(ev_serial)
    for x, y, z in zip(got_native, got_packed, got_serial):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


@needs_native
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    degree=st.sampled_from(DEGREES),
    lazy=st.booleans(),
)
def test_native_ntt_threaded_bit_identical(seed, k, degree, lazy):
    """Kernel thread count never changes a native transform's output.

    The row-parallel worker pool splits ``(batch, limb)`` rows across
    threads; since rows are independent the 1-thread and N-thread runs
    must agree bit for bit (and with the serial oracle).
    """
    rng = np.random.default_rng(seed)
    base = _distinct_ntt_base(rng, k, degree)
    stacked = NTTEngine(degree, base)
    serial = ReferenceNTTEngine(degree, base)
    x = np.empty((2, k, degree), dtype=np.uint64)
    for i, m in enumerate(base):
        x[:, i, :] = rng.integers(0, m.value, (2, degree), dtype=np.uint64)

    fwd_s = serial.forward(x, lazy=lazy)
    with use_backend("native"):
        with use_threads(1):
            fwd_1 = stacked.forward(x, lazy=lazy)
            inv_1 = stacked.inverse(fwd_s, lazy=lazy)
        with use_threads(4):
            fwd_4 = stacked.forward(x, lazy=lazy)
            inv_4 = stacked.inverse(fwd_s, lazy=lazy)
    assert np.array_equal(fwd_1, fwd_4)
    assert np.array_equal(fwd_1, fwd_s)
    assert np.array_equal(inv_1, inv_4)
    assert np.array_equal(inv_1, serial.inverse(fwd_s, lazy=lazy))


@needs_native
def test_native_evaluator_threaded_bit_identical():
    """N=4096 level-8 multiply/rescale/relinearize: threads 1 == 4."""
    params = CkksParameters.default(
        degree=4096, levels=7, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx, seed=123)
    rlk = keygen.relin_key()
    ev = Evaluator(ctx)
    rng = np.random.default_rng(3)
    scale = float(params.scale)
    a = _random_ct(rng, ctx, 2, 8, scale)
    b = _random_ct(rng, ctx, 2, 8, scale)
    t3 = _random_ct(rng, ctx, 3, 8, scale)
    rs = Ciphertext(a.data, scale * scale)

    def run(e):
        return (
            e.multiply(a, b).data,
            e.rescale(rs).data,
            e.relinearize(t3, rlk).data,
        )

    with use_backend("native"):
        with use_threads(1):
            got_1 = run(ev)
        with use_threads(4):
            got_4 = run(ev)
    with use_backend("packed"):
        got_packed = run(ev)
    for x, y, z in zip(got_1, got_4, got_packed):
        assert np.array_equal(x, y)
        assert np.array_equal(x, z)


@needs_native
def test_native_thread_knobs():
    """set_threads/get_threads/use_threads agree and validate input."""
    import os

    from repro import native

    baseline = native.get_threads()
    assert baseline >= 1
    with use_threads(3):
        assert native.get_threads() == 3
        with use_threads(1):
            assert native.get_threads() == 1
        assert native.get_threads() == 3
    assert native.get_threads() == baseline
    with pytest.raises(ValueError):
        native.set_threads(0)
    # None restores the default (env override or cpu count).
    native.set_threads(7)
    native.set_threads(None)
    assert native.get_threads() == baseline


@needs_native
def test_native_backend_follows_default_evaluator(monkeypatch):
    """One Evaluator follows set_backend: the fused native key-switch
    decompose runs under ``native`` only, and both backends match the
    per-limb oracle."""
    from repro.native import glue

    params = CkksParameters.default(
        degree=64, levels=2, scale_bits=23, first_bits=30, special_bits=30
    )
    ctx = CkksContext(params)
    rlk = KeyGenerator(ctx, seed=9).relin_key()
    t3 = _random_ct(np.random.default_rng(2), ctx, 3, ctx.max_level,
                    float(params.scale))
    calls = []
    real = glue.ks_decompose

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(glue, "ks_decompose", spy)
    ev = Evaluator(ctx)
    want = ReferenceEvaluator(ctx).relinearize(t3, rlk).data
    for mode, fused in (("native", True), ("packed", False)):
        calls.clear()
        with use_backend(mode):
            got = ev.relinearize(t3, rlk).data
        assert bool(calls) is fused, mode
        assert np.array_equal(got, want), mode
