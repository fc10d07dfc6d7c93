"""Per-limb reference loops: the oracle the stacked path is checked against.

The library runs every HE routine through one batched RNS path.  This
module keeps the historical per-limb execution — one small NumPy call
per prime, same values, same lazy windows, same loop structure and
speed — as ground truth for ``tests/test_packed_ab.py`` and as the
``serial`` leg of the wall-clock benches.  Like :mod:`repro.ntt.reference`
it is never on a production path: no library module imports it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..modmath import inv_mod
from ..modmath.barrett import barrett_reduce_64
from ..modmath.ops import add_mod, mul_mod, neg_mod, sub_mod
from ..ntt.engine import NTTEngine
from ..ntt.radix2 import ntt_forward, ntt_inverse
from ..ntt.tables import get_tables
from ..rns import BaseConverter, LastModulusScaler
from .ciphertext import Ciphertext
from .context import CkksContext
from .decryptor import Decryptor
from .encryptor import Encryptor
from .evaluator import Evaluator
from .galois import apply_galois_coeff, apply_galois_ntt, rotation_galois_elt
from .keys import GaloisKeys, KSwitchKey, RelinKey
from .plaintext import Plaintext

__all__ = [
    "ReferenceEvaluator", "ReferenceEncryptor", "ReferenceDecryptor",
    "ReferenceNTTEngine", "divide_round_drop_ntt", "convert_reference",
    "divide_round_reference",
]


def _rows(fn, per_row, *xs: np.ndarray, **kw) -> np.ndarray:
    """``out[..., i, :] = fn(x[..., i, :], ..., per_row[i])`` for each limb ``i``.

    The shared loop of the per-limb ops that differ only in the
    single-prime call: ``per_row`` holds the moduli or NTT tables.
    """
    out = np.empty_like(xs[0])
    for i in range(xs[0].shape[-2]):
        out[..., i, :] = fn(*(x[..., i, :] for x in xs), per_row[i], **kw)
    return out


def _mul_add(a, b, c, m):
    """``a * b + c mod m`` with two reductions (the unfused per-limb form)."""
    return add_mod(mul_mod(a, b, m), c, m)


class ReferenceNTTEngine(NTTEngine):
    """Row-by-row :class:`~repro.ntt.NTTEngine`: one transform per prime."""

    def __init__(self, degree: int, base):
        super().__init__(degree, base)
        self.tables = [get_tables(degree, m) for m in base]

    def forward(self, matrix: np.ndarray, *, lazy: bool = False) -> np.ndarray:
        self._check(matrix)
        return _rows(ntt_forward, self.tables, matrix, lazy=lazy)

    def inverse(self, matrix: np.ndarray, *, lazy: bool = False) -> np.ndarray:
        self._check(matrix)
        return _rows(ntt_inverse, self.tables, matrix, lazy=lazy)

    def dyadic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ValueError("operand shapes differ")
        self._check(a)
        return _rows(mul_mod, self.base, a, b)


def divide_round_drop_ntt(ctx: CkksContext, matrix: np.ndarray,
                          dropped_idx: int) -> np.ndarray:
    """Per-limb oracle for :meth:`CkksContext.divide_round_drop_ntt`."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    k = matrix.shape[-2]
    if k < 2:
        raise ValueError("need at least two rows to drop one")
    d = ctx.key_base[dropped_idx].value
    half = np.uint64(d >> 1)
    last_coeff = ntt_inverse(matrix[..., k - 1, :], ctx.tables[dropped_idx])
    is_high = last_coeff > half
    out = np.empty(matrix.shape[:-2] + (k - 1, ctx.degree), dtype=np.uint64)
    for j in range(k - 1):
        qj = ctx.key_base[j]
        inv_d = np.uint64(inv_mod(d % qj.value, qj))
        d_mod = np.uint64(d % qj.value)
        r = barrett_reduce_64(last_coeff, qj)
        # Centered representative: r - d when the residue is "negative".
        r = np.where(is_high, sub_mod(r, d_mod, qj), r)
        r_ntt = ntt_forward(r, ctx.tables[j])
        diff = sub_mod(matrix[..., j, :], r_ntt, qj)
        out[..., j, :] = mul_mod(diff, inv_d, qj)
    return out


class ReferenceEvaluator(Evaluator):
    """Per-limb :class:`~repro.core.evaluator.Evaluator`.

    Overrides every op that touches residues, so the stacked evaluator's
    own code is what the A/B suite checks; only shape checks, modulus
    switching and the rotate/conjugate/polynomial wrappers are inherited.
    """

    def _add_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _rows(add_mod, self.context.key_base, x, y)

    def _with_c0(self, ct: Ciphertext, c0: np.ndarray) -> Ciphertext:
        out = ct.copy()
        out.data[0] = c0
        return out

    # -- additive ops -------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        self._check_scales(a.scale, b.scale)
        size = max(a.size, b.size)
        out = np.zeros((size, a.level, a.degree), dtype=np.uint64)
        for i in range(a.level):
            m = self.context.modulus(i)
            for c in range(size):
                if c < a.size and c < b.size:
                    out[c, i] = add_mod(a.data[c, i], b.data[c, i], m)
                elif c < a.size:
                    out[c, i] = a.data[c, i]
                else:
                    out[c, i] = b.data[c, i]
        return Ciphertext(out, a.scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        self._check_scales(a.scale, b.scale)
        size = max(a.size, b.size)
        out = np.zeros((size, a.level, a.degree), dtype=np.uint64)
        for i in range(a.level):
            m = self.context.modulus(i)
            for c in range(size):
                av = a.data[c, i] if c < a.size else np.uint64(0)
                bv = b.data[c, i] if c < b.size else np.uint64(0)
                out[c, i] = sub_mod(av, bv, m)
        return Ciphertext(out, a.scale)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if ct.level != pt.level:
            raise ValueError("level mismatch with plaintext")
        self._check_scales(ct.scale, pt.scale)
        return self._with_c0(ct, self._add_rows(ct.data[0], pt.data))

    def add_scalar(self, ct: Ciphertext, value: float) -> Ciphertext:
        residues = self._scalar_residues(round(value * ct.scale), ct.level)
        return self._with_c0(ct, self._add_rows(ct.data[0], residues))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        data = _rows(neg_mod, self.context.key_base, ct.data)
        return Ciphertext(data, ct.scale, ct.is_ntt)

    # -- multiplicative ops ---------------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects size-2 ciphertexts (relinearize first)")
        out = np.zeros((3, a.level, a.degree), dtype=np.uint64)
        for i in range(a.level):
            m = self.context.modulus(i)
            a0, a1 = a.data[0, i], a.data[1, i]
            b0, b1 = b.data[0, i], b.data[1, i]
            out[0, i] = mul_mod(a0, b0, m)
            out[1, i] = add_mod(mul_mod(a0, b1, m), mul_mod(a1, b0, m), m)
            out[2, i] = mul_mod(a1, b1, m)
        return Ciphertext(out, a.scale * b.scale)

    def square(self, a: Ciphertext) -> Ciphertext:
        if a.size != 2:
            raise ValueError("square expects a size-2 ciphertext")
        out = np.zeros((3, a.level, a.degree), dtype=np.uint64)
        for i in range(a.level):
            m = self.context.modulus(i)
            a0, a1 = a.data[0, i], a.data[1, i]
            out[0, i] = mul_mod(a0, a0, m)
            c = mul_mod(a0, a1, m)
            out[1, i] = add_mod(c, c, m)
            out[2, i] = mul_mod(a1, a1, m)
        return Ciphertext(out, a.scale * a.scale)

    def multiply_scalar(self, ct: Ciphertext, value: float,
                        *, scale: float | None = None) -> Ciphertext:
        scale = float(self.context.params.scale if scale is None else scale)
        residues = self._scalar_residues(round(value * scale), ct.level)
        data = _rows(mul_mod, self.context.key_base, ct.data, residues)
        return Ciphertext(data, ct.scale * scale, ct.is_ntt)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if ct.level != pt.level:
            raise ValueError("level mismatch with plaintext")
        data = _rows(mul_mod, self.context.key_base, ct.data, pt.data)
        return Ciphertext(data, ct.scale * pt.scale, ct.is_ntt)

    # -- key switching --------------------------------------------------------------

    def _decompose_for_switch(self, poly_ntt: np.ndarray,
                              level: int) -> np.ndarray:
        ctx = self.context
        target_rows = self._target_rows(level)
        out = np.empty((level, level + 1, ctx.degree), dtype=np.uint64)
        for i in range(level):
            d = ntt_inverse(poly_ntt[i], ctx.tables[i])
            for r, j in enumerate(target_rows):
                reduced = barrett_reduce_64(d, ctx.modulus(j))
                out[i, r] = ntt_forward(reduced, ctx.tables[j])
        return out

    def _accumulate_switch(self, decomposed: np.ndarray, level: int,
                           ksk: KSwitchKey) -> Tuple[np.ndarray, np.ndarray]:
        ctx = self.context
        target_rows = self._target_rows(level)
        acc0 = np.zeros((level + 1, ctx.degree), dtype=np.uint64)
        acc1 = np.zeros((level + 1, ctx.degree), dtype=np.uint64)
        for i in range(level):
            key = ksk.data[i]
            for r, j in enumerate(target_rows):
                mj = ctx.modulus(j)
                dn = decomposed[i, r]
                acc0[r] = add_mod(acc0[r], mul_mod(dn, key[0, j], mj), mj)
                acc1[r] = add_mod(acc1[r], mul_mod(dn, key[1, j], mj), mj)
        special_idx = target_rows[-1]
        return (divide_round_drop_ntt(ctx, acc0, special_idx),
                divide_round_drop_ntt(ctx, acc1, special_idx))

    def relinearize(self, ct: Ciphertext, rlk: RelinKey) -> Ciphertext:
        if ct.size != 3:
            raise ValueError("relinearize expects a size-3 ciphertext")
        d0, d1 = self._switch_key(ct.data[2], ct.level, rlk.key)
        out = np.stack([self._add_rows(ct.data[0], d0),
                        self._add_rows(ct.data[1], d1)])
        return Ciphertext(out, ct.scale)

    # -- modulus management / automorphisms ------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        if ct.level < 2:
            raise ValueError("cannot rescale below one remaining prime")
        new = divide_round_drop_ntt(self.context, ct.data, ct.level - 1)
        return Ciphertext(new, ct.scale / self.context.modulus(ct.level - 1).value)

    def _apply_galois(self, ct: Ciphertext, elt: int,
                      ksk: KSwitchKey) -> Ciphertext:
        ctx = self.context
        base = ctx.level_base(ct.level)
        rotated = np.empty_like(ct.data[:2])
        for c in range(2):
            coeff = _rows(ntt_inverse, ctx.tables, ct.data[c])
            perm = apply_galois_coeff(coeff, elt, base)
            rotated[c] = _rows(ntt_forward, ctx.tables, perm)
        d0, d1 = self._switch_key(rotated[1], ct.level, ksk)
        out = np.stack([self._add_rows(rotated[0], d0), d1])
        return Ciphertext(out, ct.scale)

    def rotate_hoisted(self, ct: Ciphertext, steps_list: list,
                       galois_keys: GaloisKeys) -> list:
        if ct.size != 2:
            raise ValueError("rotate expects a size-2 ciphertext")
        decomposed = self._decompose_for_switch(ct.data[1], ct.level)
        out = []
        for steps in steps_list:
            elt = rotation_galois_elt(steps, self.context.degree)
            d0, d1 = self._accumulate_switch(
                apply_galois_ntt(decomposed, elt), ct.level, galois_keys.get(elt)
            )
            c0 = apply_galois_ntt(ct.data[0], elt)
            out.append(Ciphertext(np.stack([self._add_rows(c0, d0), d1]),
                                  ct.scale))
        return out


class ReferenceEncryptor(Encryptor):
    """Per-limb :class:`~repro.core.encryptor.Encryptor`.

    Draws the same samples in the same order, so a shared seed gives a
    bit-identical ciphertext.
    """

    def _sample_signed_ntt(self, level: int, values: np.ndarray) -> np.ndarray:
        out = np.empty((level, self.context.degree), dtype=np.uint64)
        for i in range(level):
            m = self.context.modulus(i)
            reduced = (values % np.int64(m.value)).astype(np.uint64)
            out[i] = ntt_forward(reduced, self.context.tables[i])
        return out

    def encrypt_zero(self, level: Optional[int] = None,
                     scale: Optional[float] = None) -> Ciphertext:
        level = self.context.max_level if level is None else level
        scale = float(self.context.params.scale if scale is None else scale)
        u_ntt, e0_ntt, e1_ntt = self._sample_masks(level)
        primes = self.context.key_base
        c0 = _rows(_mul_add, primes, self.pk.b[:level], u_ntt, e0_ntt)
        c1 = _rows(_mul_add, primes, self.pk.a[:level], u_ntt, e1_ntt)
        return Ciphertext(np.stack([c0, c1]), scale, is_ntt=True)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        if not plaintext.is_ntt:
            raise ValueError("plaintext must be in NTT form")
        ct = self.encrypt_zero(level=plaintext.level, scale=plaintext.scale)
        ct.data[0] = _rows(add_mod, self.context.key_base, ct.data[0],
                           plaintext.data)
        return ct


class ReferenceDecryptor(Decryptor):
    """Per-limb :class:`~repro.core.decryptor.Decryptor` (Horner per prime)."""

    def decrypt(self, ct: Ciphertext) -> Plaintext:
        if not ct.is_ntt:
            raise ValueError("ciphertext must be in NTT form")
        s = self.sk.ntt_rows[: ct.level]
        acc = ct.data[ct.size - 1]
        for comp in range(ct.size - 2, -1, -1):
            acc = _rows(_mul_add, self.context.key_base, acc, s, ct.data[comp])
        return Plaintext(acc, ct.scale, is_ntt=True)


def convert_reference(conv: BaseConverter, matrix: np.ndarray) -> np.ndarray:
    """Per-limb oracle for :meth:`BaseConverter.convert`.

    Derives its constants from the bases directly, so it shares no
    precomputed table with the converter under test.
    """
    ibase = conv.ibase
    k, n = matrix.shape
    if k != len(ibase):
        raise ValueError("matrix does not match input base")
    y = np.empty_like(matrix)
    for i, qi in enumerate(ibase):
        y[i] = mul_mod(matrix[i], np.uint64(ibase.inv_punctured[i]), qi)
    out = np.zeros((len(conv.obase), n), dtype=np.uint64)
    for j, pj in enumerate(conv.obase):
        acc = np.zeros(n, dtype=np.uint64)
        for i in range(k):
            term = mul_mod(y[i], np.uint64(ibase.punctured[i] % pj.value), pj)
            acc = add_mod(acc, term, pj)
        out[j] = acc
    return out


def divide_round_reference(scaler: LastModulusScaler,
                           matrix: np.ndarray) -> np.ndarray:
    """Per-limb oracle for :meth:`LastModulusScaler.divide_round`."""
    k, n = matrix.shape
    if k != len(scaler.base):
        raise ValueError("matrix does not match base")
    last = matrix[-1]
    d = scaler.dropped.value
    # Centered representative r in (-d/2, d/2], from the non-negative
    # residue `last`:
    #   r = last            if last <= d/2
    #   r = last - d        otherwise
    # => r mod q_j = last mod q_j                  (first case)
    #    r mod q_j = (last mod q_j) - (d mod q_j)  (second case)
    out = np.empty((k - 1, n), dtype=np.uint64)
    is_high = last.astype(np.uint64) > np.uint64(d >> 1)
    for j, qj in enumerate(scaler.kept):
        last_mod = last % qj.u64 if d >= qj.value else last.copy()
        r = np.where(
            is_high,
            sub_mod(last_mod, np.uint64(d % qj.value), qj),
            last_mod,
        )
        diff = sub_mod(matrix[j], r, qj)
        out[j] = mul_mod(diff, np.uint64(inv_mod(d % qj.value, qj)), qj)
    return out
